import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import pcagmm
from pcagmm.errors import InvalidShape, NotPositiveDefinite, RankDeficient
from pcagmm.gmm import gauss_logpdf
from pcagmm.linalg import (
    cholesky_spd,
    project_stiefel,
    random_stiefel,
    regularize_spd,
    solve_triangular,
    stiefel_defect,
)


def det_by_cofactors(M):
    """Recursive cofactor expansion; the slow independent determinant."""
    M = np.asarray(M)
    if M.shape[0] == 1:
        return M[0, 0]
    total = 0.0
    for j in range(M.shape[0]):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * M[0, j] * det_by_cofactors(minor)
    return total


def random_spd(rng, n, shift=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + shift * np.eye(n)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_spd(np.eye(3)), np.eye(3))

    def test_hand_checked_2x2(self):
        L = cholesky_spd(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstructs_input(self, seed):
        rng = np.random.default_rng(seed)
        M = random_spd(rng, 6)
        L = cholesky_spd(M)
        assert np.linalg.norm(L @ L.T - M) <= 1e-10 * np.linalg.norm(M)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(InvalidShape):
            cholesky_spd(np.zeros((2, 3)))


class TestRegularize:
    def test_factorable_matrix_is_only_symmetrized(self):
        rng = np.random.default_rng(4)
        M = random_spd(rng, 5)
        M[0, 1] += 1e-9
        out = regularize_spd(M)
        np.testing.assert_array_equal(out, 0.5 * (M + M.T))
        np.testing.assert_array_equal(out, out.T)

    def test_singular_psd_gets_the_trace_scaled_shift(self):
        v = np.array([1.0, 2.0])
        M = np.outer(v, v)  # rank one, trace 5
        with pytest.raises(NotPositiveDefinite):
            cholesky_spd(M)  # factored as stored, with no shift
        want = M + 1e-6 * max(np.trace(M) / 2, 1e-12) * np.eye(2)
        np.testing.assert_array_equal(regularize_spd(M), want)

    def test_zero_matrix_factors_after_the_shift(self):
        out = regularize_spd(np.zeros((3, 3)))
        np.testing.assert_array_equal(out, 1e-6 * 1e-12 * np.eye(3))
        assert np.all(np.isfinite(cholesky_spd(out)))

    def test_strongly_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            regularize_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def density_logdet(M):
    """log det M read off the Gaussian normalizer, whose log-determinant the
    density kernel takes from the Cholesky factor:
    log N(0; 0, M) = -(n log 2 pi + log det M) / 2."""
    n = M.shape[0]
    return -2.0 * gauss_logpdf(np.zeros(n), np.zeros(n), M) - n * np.log(2.0 * np.pi)


class TestLogdet:
    def test_identity(self):
        assert density_logdet(np.eye(4)) == 0.0

    def test_diagonal(self):
        assert density_logdet(np.diag([4.0, 1.0])) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(3)
        M = random_spd(rng, 5)
        assert density_logdet(M) == pytest.approx(np.log(det_by_cofactors(M)), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_closed_form_small(self, n, seed):
        rng = np.random.default_rng(seed)
        M = random_spd(rng, n)
        if n == 2:
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        else:
            det = (
                M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
                - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
                + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
            )
        assert density_logdet(M) == pytest.approx(np.log(det), rel=1e-10)


class TestSolveTriangular:
    """The numpy-based solve against scipy's triangular solve as reference."""

    @staticmethod
    def factor(lower, M):
        L = np.linalg.cholesky(M)
        return L if lower else L.T

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("rhs", [(9,), (9, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scipy(self, lower, rhs, seed):
        rng = np.random.default_rng(seed)
        a = self.factor(lower, random_spd(rng, 9))
        b = rng.standard_normal(rhs)
        x = solve_triangular(a, b, lower=lower)
        ref = scipy.linalg.solve_triangular(a, b, lower=lower)
        assert x.shape == ref.shape
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("rhs", [(20,), (20, 5)])
    def test_factor_of_ill_conditioned_covariance(self, lower, rhs):
        # covariance with condition number 1e8, so its factor has 1e4; a
        # backward-stable solve is then accurate to about
        # cond * n * eps = 1e4 * 20 * 2.2e-16 = 4.4e-11 relative
        rng = np.random.default_rng(5)
        Q = project_stiefel(rng.standard_normal((20, 20)))
        M = (Q * np.logspace(0.0, -8.0, 20)) @ Q.T
        M = 0.5 * (M + M.T)
        assert np.linalg.cond(M) == pytest.approx(1e8, rel=0.01)
        a = self.factor(lower, M)
        b = rng.standard_normal(rhs)
        x = solve_triangular(a, b, lower=lower)
        ref = scipy.linalg.solve_triangular(a, b, lower=lower)
        assert np.linalg.norm(x - ref) <= 4.4e-11 * np.linalg.norm(ref)


def test_no_module_imports_scipy_linalg():
    # scipy ships its own OpenBLAS with its own thread pool; mixing it with
    # numpy's in the hot loops makes the two pools compete for the cores
    offenders = []
    for path in sorted(Path(pcagmm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "scipy"
            ):
                names = [f"scipy.{node.attr}"]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # importlib.import_module("scipy.linalg")
            else:
                continue
            if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
                   for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_warns():
    # a bad input ends in an exit code (errors.DataError or NumericalFailure),
    # never in a warning the command line would print and carry on after
    offenders = []
    for path in sorted(Path(pcagmm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "warnings":
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "warnings"
            ):
                names = [node.func.attr]
            else:
                continue
            if any(name.startswith("warn") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_unreferenced_imports_are_only_the_traced_reexports():
    # the benchmark's tracer looks these three names up in the importing
    # module; any other module-level import a module never uses is left over
    # from deleted code, and an entry here that is used again is stale
    unused = set()
    for path in sorted(Path(pcagmm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in imported - used}
    assert unused == {
        "pca_gmm.palm_minimize",
        "superres.aggregate",
        "superres.extract_low",
    }


def test_stats_imports_no_model_module():
    # gmm and pca_gmm build on the statistics kernel; the kernel stays below
    # every model and solver module
    path = Path(pcagmm.__file__).parent / "stats.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("." * node.level) + (node.module or "")
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if {"gmm", "pca_gmm", "palm"} & set(name.split(".")):
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


class TestProjectStiefel:
    def test_fixed_point_on_manifold(self):
        U0 = random_stiefel(6, 3, seed=0)
        np.testing.assert_allclose(project_stiefel(U0), U0, atol=1e-12)

    def test_removes_positive_scaling(self):
        U = project_stiefel(np.array([[3.0], [0.0]]))
        np.testing.assert_allclose(U, [[1.0], [0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            U = project_stiefel(rng.standard_normal((5, 2)))
            np.testing.assert_allclose(project_stiefel(U), U, atol=1e-12)

    def test_nearest_among_sampled_frames(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 2))
        U = project_stiefel(A)
        dist = np.linalg.norm(A - U)
        sampled = min(
            np.linalg.norm(A - project_stiefel(rng.standard_normal((4, 2))))
            for _ in range(10_000)
        )
        assert dist <= sampled + 1e-12

    def test_rank_deficient_raises(self):
        v = np.array([1.0, 2.0, 3.0])
        A = np.stack([v, 2 * v], axis=1)
        with pytest.raises(RankDeficient):
            project_stiefel(A)

    @pytest.mark.parametrize("seed", range(5))
    def test_right_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 3))
        R = project_stiefel(rng.standard_normal((3, 3)))  # orthogonal
        lhs = project_stiefel(A @ R)
        rhs = project_stiefel(A) @ R
        assert np.linalg.norm(lhs - rhs) <= 1e-9


class TestRandomStiefel:
    def test_square_is_orthogonal(self):
        U = random_stiefel(3, 3, seed=11)
        assert np.linalg.norm(U.T @ U - np.eye(3)) <= 1e-10
        assert np.linalg.norm(U @ U.T - np.eye(3)) <= 1e-10

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_stiefel(8, 3, seed=42), random_stiefel(8, 3, seed=42)
        )

    def test_invariant_sweep(self):
        for seed in range(100):
            assert stiefel_defect(random_stiefel(10, 3, seed)) <= 1e-10

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            random_stiefel(2, 3, seed=0)
