import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcagmm
from pcagmm import cli
from pcagmm.cli import main
from pcagmm.errors import DataError, EmptyComponent, NumericalFailure, PcagmmError
from pcagmm.formats import load_model, read_image, save_model, write_image
from pcagmm.gmm import EmTrace, GmmParams
from pcagmm.linalg import random_stiefel
from pcagmm.patches import PatchGeometry
from pcagmm.pca_gmm import PcaGmmModel


@pytest.fixture()
def scene(tmp_path):
    """A small smooth 24x24 scene plus its degraded half-size version."""
    rng = np.random.default_rng(0)
    i, j = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
    image = 0.5 + 0.2 * np.sin(2 * np.pi * i / 12) * np.cos(2 * np.pi * j / 8)
    image += 0.05 * rng.random((24, 24))
    high = tmp_path / "high.pgm"
    write_image(high, image, maxval=65535)
    return tmp_path, high


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv, flags=()):
    """The command in a fresh interpreter started with `flags`, so that an
    uncaught exception shows as a traceback and exit code 1."""
    src = str(Path(pcagmm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "pcagmm.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestDegradeCommand:
    def test_writes_half_size_image(self, scene):
        tmp, high = scene
        low = tmp / "low.pgm"
        assert run("degrade", "--input", high, "--output", low, "--factor", 2,
                   "--seed", 3) == 0
        assert read_image(low).shape == (12, 12)

    def test_deterministic(self, scene):
        tmp, high = scene
        a, b = tmp / "a.pgm", tmp / "b.pgm"
        run("degrade", "--input", high, "--output", a, "--factor", 2, "--seed", 9)
        run("degrade", "--input", high, "--output", b, "--factor", 2, "--seed", 9)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_is_data_error(self, scene):
        tmp, _ = scene
        assert run("degrade", "--input", tmp / "nope.pgm", "--output",
                   tmp / "o.pgm", "--factor", 2) == 3

    def test_bad_factor_is_data_error(self, scene):
        tmp, high = scene
        assert run("degrade", "--input", high, "--output", tmp / "o.pgm",
                   "--factor", 5) == 3  # 24 not divisible by 5


class TestTrainSuperresPsnr:
    @pytest.mark.parametrize("kind", ["gmm", "pcagmm"])
    def test_full_pipeline(self, scene, kind, capsys):
        tmp, high = scene
        low, model, out = tmp / "low.pgm", tmp / "model.pgmm", tmp / "sr.pgm"
        assert run("degrade", "--input", high, "--output", low, "--factor", 2,
                   "--seed", 1) == 0
        assert run("train", "--high", high, "--low", low, "--model", model,
                   "--kind", kind, "--components", 2, "--tau", 3, "--factor", 2,
                   "--reduced-dim", 4, "--em-iters", 8, "--seed", 0) == 0
        assert run("superres", "--low", low, "--model", model, "--output", out) == 0
        assert read_image(out).shape == (24, 24)
        assert run("psnr", "--ref", high, "--test", out) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        final = [l for l in lines if l.startswith("psnr=")]
        assert final and float(final[-1].split("=", 1)[1]) > 10.0

    def test_train_reports_a_rising_objective(self, scene, monkeypatch, capsys):
        tmp, high = scene
        low, model = tmp / "low.pgm", tmp / "model.pgmm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        fit = cli.fit_gmm

        def rising(*args, **kwargs):
            params, _ = fit(*args, **kwargs)
            return params, EmTrace(objective=np.array([10.0, 5.0, 7.5]), stop="rise")

        monkeypatch.setattr(cli, "fit_gmm", rising)
        capsys.readouterr()
        assert run("train", "--high", high, "--low", low, "--model", model,
                   "--kind", "gmm", "--components", 2, "--tau", 3, "--factor", 2,
                   "--em-iters", 4, "--seed", 0) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "stopped at iter 2: objective rose by 2.5" in lines

    def test_training_deterministic_given_seed(self, scene):
        tmp, high = scene
        low = tmp / "low.pgm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        m1, m2 = tmp / "m1.pgmm", tmp / "m2.pgmm"
        for m in (m1, m2):
            assert run("train", "--high", high, "--low", low, "--model", m,
                       "--kind", "pcagmm", "--components", 2, "--tau", 3,
                       "--factor", 2, "--reduced-dim", 3, "--em-iters", 4,
                       "--seed", 7) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_inspect_prints_header_and_diagnostics(self, scene, capsys):
        tmp, high = scene
        low, model = tmp / "low.pgm", tmp / "model.pgmm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        run("train", "--high", high, "--low", low, "--model", model,
            "--kind", "pcagmm", "--components", 2, "--tau", 3, "--factor", 2,
            "--reduced-dim", 3, "--em-iters", 3, "--seed", 0)
        capsys.readouterr()
        assert run("inspect", "--model", model) == 0
        out = capsys.readouterr().out
        assert "kind=pcagmm" in out and "q=2 tau=3 dims=2" in out
        assert out.count("alpha=") == 2 and "|mean|=" not in out
        fitted, _ = load_model(model)
        lines = out.splitlines()[1:]
        for k, line in enumerate(lines):
            ratios = fitted.variances[k] / fitted.sigma**2
            assert line.endswith(
                f"variance/sigma^2 min={ratios.min():.6e} max={ratios.max():.6e}"
            )

    @pytest.mark.parametrize("kind", ["gmm", "pcagmm"])
    @pytest.mark.parametrize("geom", [None, PatchGeometry(tau=3, q=2, dims=3)])
    def test_inspect_first_line_is_the_header_line(self, tmp_path, capsys, kind, geom):
        alpha = np.array([0.25, 0.75])
        if kind == "gmm":
            model = GmmParams(
                alpha=alpha, means=np.ones((2, 3)), covs=np.stack([np.eye(3)] * 2)
            )
        else:
            model = PcaGmmModel(
                alpha=alpha,
                bases=np.stack([random_stiefel(5, 2, seed=s) for s in (1, 2)]),
                offsets=np.ones((2, 5)),
                variances=np.ones((2, 2)),
                sigma=0.3,
            )
        path = tmp_path / "m.pgmm"
        save_model(path, model, geom)
        raw = path.read_bytes()
        assert run("inspect", "--model", path) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == raw[6 : raw.index(b"\n", 6)].decode("ascii")

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    def test_invalid_weights_are_data_error(self, tmp_path, optimize):
        # the checks must not be assertions, which -O strips
        model = tmp_path / "bad.pgmm"
        save_model(
            model,
            GmmParams(alpha=np.array([5.0]), means=np.zeros((1, 2)), covs=np.eye(2)[None]),
        )
        proc = run_process("inspect", "--model", model, flags=optimize)
        assert proc.returncode == 3
        assert "simplex" in proc.stderr

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    @pytest.mark.parametrize("variance", [0.0, -1.0, np.nan])
    def test_invalid_variance_is_data_error(self, tmp_path, optimize, variance):
        model = tmp_path / "bad.pgmm"
        save_model(
            model,
            PcaGmmModel(
                alpha=np.array([0.5, 0.5]),
                bases=np.stack([random_stiefel(4, 2, seed=s) for s in (1, 2)]),
                offsets=np.zeros((2, 4)),
                variances=np.array([[1.0, 0.5], [1.0, variance]]),
                sigma=0.1,
            ),
        )
        proc = run_process("inspect", "--model", model, flags=optimize)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("finite" if np.isnan(variance) else "positive") in proc.stderr

    def test_underflowing_gamma_is_numerical_failure(self, scene, capsys):
        tmp, high = scene
        low, model = tmp / "low.pgm", tmp / "model.pgmm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        run("train", "--high", high, "--low", low, "--model", model,
            "--kind", "pcagmm", "--components", 2, "--tau", 3, "--factor", 2,
            "--reduced-dim", 3, "--em-iters", 3, "--seed", 0)
        capsys.readouterr()
        assert run("superres", "--low", low, "--model", model,
                   "--output", tmp / "o.pgm", "--gamma", "1e3") == 4
        err = capsys.readouterr().err
        assert "gamma=1000" in err and "underflow" in err
        assert "covered by no patch" not in err

    def test_corrupt_model_is_data_error(self, scene):
        tmp, high = scene
        bad = tmp / "bad.pgmm"
        bad.write_bytes(b"PGMM9\nkind=gmm\n")
        low = tmp / "low.pgm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        assert run("superres", "--low", low, "--model", bad,
                   "--output", tmp / "o.pgm") == 3

    @pytest.mark.parametrize("command", ["psnr", "degrade"])
    def test_path_through_a_file_is_data_error(self, scene, command):
        # NotADirectoryError: a plain file used as a directory
        tmp, high = scene
        plain = tmp / "plain.txt"
        plain.write_text("not a directory\n")
        argv = {
            "psnr": ["psnr", "--ref", plain / "a.pgm", "--test", high],
            "degrade": ["degrade", "--input", high, "--output", plain / "a.pgm",
                        "--factor", 2],
        }[command]
        proc = run_process(*argv)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_header_extents_below_one_are_data_error(self, tmp_path):
        model = tmp_path / "m.pgmm"
        model.write_bytes(
            b"PGMM2\nkind=pcagmm K=-1 n=-1 d=0 sigma=0.1 q=0 tau=0 dims=0\n"
        )
        proc = run_process("inspect", "--model", model)
        assert proc.returncode == 3, proc.stderr
        assert "below 1" in proc.stderr

    def test_non_finite_model_is_data_error(self, scene, capsys):
        tmp, high = scene
        low, model = tmp / "low.pgm", tmp / "model.pgmm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        run("train", "--high", high, "--low", low, "--model", model,
            "--kind", "pcagmm", "--components", 2, "--tau", 3, "--factor", 2,
            "--reduced-dim", 3, "--em-iters", 3, "--seed", 0)
        fitted, geom = load_model(model)
        fitted.offsets[0, 0] = np.nan
        save_model(model, fitted, geom)
        capsys.readouterr()
        assert run("superres", "--low", low, "--model", model,
                   "--output", tmp / "o.pgm") == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["1e-300", "1e160"])
    def test_sigma_with_unrepresentable_square_is_argument_error(self, scene, sigma):
        tmp, high = scene
        low = tmp / "low.pgm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        proc = run_process("train", "--high", high, "--low", low,
                           "--model", tmp / "m.pgmm", "--components", 2, "--tau", 3,
                           "--factor", 2, "--reduced-dim", 3, "--em-iters", 1,
                           "--sigma", sigma)
        assert proc.returncode == 2, proc.stderr
        assert "argument --sigma: invalid" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_model_sigma_with_unrepresentable_square_is_data_error(self, scene):
        tmp, high = scene
        low, model = tmp / "low.pgm", tmp / "model.pgmm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        run("train", "--high", high, "--low", low, "--model", model,
            "--kind", "pcagmm", "--components", 2, "--tau", 3, "--factor", 2,
            "--reduced-dim", 3, "--em-iters", 1, "--seed", 0)
        fitted, geom = load_model(model)
        fitted.sigma = 1e200
        save_model(model, fitted, geom)
        proc = run_process("superres", "--low", low, "--model", model,
                           "--output", tmp / "o.pgm")
        assert proc.returncode == 3, proc.stderr
        assert "sigma" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["gmm", "pcagmm"])
    def test_model_covariance_not_positive_definite_is_data_error(self, scene, kind):
        # each covariance factors only after a diagonal shift
        tmp, high = scene
        low, model = tmp / "low.pgm", tmp / "model.pgmm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        geom = PatchGeometry(tau=3, q=2, dims=2)
        n, alpha = geom.n_joint, np.array([0.5, 0.5])
        if kind == "gmm":
            covs = np.stack([np.eye(n), np.zeros((n, n))])
            fitted = GmmParams(alpha=alpha, means=np.full((2, n), 0.5), covs=covs)
        else:
            fitted = PcaGmmModel(
                alpha=alpha,
                bases=np.stack([random_stiefel(n, 2, seed=s) for s in (1, 2)]),
                offsets=np.full((2, n), 0.5),
                variances=np.array([[1.0, 1.0], [1.0, -1e-7]]),
                sigma=0.1,
            )
        save_model(model, fitted, geom)
        proc = run_process("superres", "--low", low, "--model", model,
                           "--output", tmp / "o.pgm")
        assert proc.returncode == 3, proc.stderr
        assert "not positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_model_payload_of_odd_length_is_data_error(self, tmp_path):
        model = tmp_path / "m.pgmm"
        save_model(
            model,
            GmmParams(alpha=np.array([1.0]), means=np.zeros((1, 2)), covs=np.eye(2)[None]),
        )
        model.write_bytes(model.read_bytes()[:-3])
        proc = run_process("inspect", "--model", model)
        assert proc.returncode == 3, proc.stderr
        assert "payload length" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_extent_image_is_data_error(self, scene):
        tmp, high = scene
        empty = tmp / "empty.pgm"
        empty.write_bytes(b"P5\n0 4\n255\n")
        proc = run_process("psnr", "--ref", empty, "--test", empty)
        assert proc.returncode == 3, proc.stderr
        assert "below 1" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_psnr_shape_mismatch_is_data_error(self, scene):
        tmp, high = scene
        low = tmp / "low.pgm"
        run("degrade", "--input", high, "--output", low, "--factor", 2, "--seed", 1)
        assert run("psnr", "--ref", high, "--test", low) == 3


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run("frobnicate")
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            run("degrade", "--input", "x.pgm")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--sigma", "0"),
            ("train", "--sigma", "nan"),
            ("train", "--components", "0"),
            ("train", "--max-patches", "0"),
            ("train", "--stride", "0"),
            ("train", "--em-iters", "-1"),
            ("train", "--factor", "1"),
            ("superres", "--gamma", "-5"),
            ("degrade", "--seed", "-1"),
            ("degrade", "--noise-std", "-0.1"),
        ],
    )
    def test_out_of_range_value(self, tmp_path, capsys, command, flag, value):
        # every required flag is given, so only the bad value can fail parsing
        required = {
            "degrade": ["--input", "x.pgm", "--output", "y.pgm", "--factor", "2"],
            "train": ["--high", "h.pgm", "--low", "l.pgm", "--model", "m.pgmm",
                      "--factor", "2"],
            "superres": ["--low", "l.pgm", "--model", "m.pgmm", "--output", "o.pgm"],
        }[command]
        with pytest.raises(SystemExit) as err:
            run(command, *required, flag, value)
        assert err.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


def _leaf_errors(cls=PcagmmError):
    subclasses = cls.__subclasses__()
    if not subclasses:
        return [cls]
    return [leaf for sub in subclasses for leaf in _leaf_errors(sub)]


@pytest.mark.parametrize("error", _leaf_errors(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_error_category(monkeypatch, capsys, error):
    assert issubclass(error, DataError) != issubclass(error, NumericalFailure)
    exc = error((7,)) if error is EmptyComponent else error("injected failure")

    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "read_image", fail)
    code = run("psnr", "--ref", "a.pgm", "--test", "b.pgm")
    assert code == (3 if issubclass(error, DataError) else 4)
    err = capsys.readouterr().err
    assert str(exc) in err and "Traceback" not in err


class TestVolumePipeline:
    def test_3d_end_to_end(self, tmp_path):
        rng = np.random.default_rng(5)
        from pcagmm.degrade import gauss_blur

        volume = gauss_blur(rng.random((16, 16, 16)), 1.5)
        volume = (volume - volume.min()) / (volume.max() - volume.min())
        high = tmp_path / "high.vol"
        write_image(high, volume)
        low, model, out = (
            tmp_path / "low.vol",
            tmp_path / "m.pgmm",
            tmp_path / "sr.vol",
        )
        assert run("degrade", "--input", high, "--output", low, "--factor", 2,
                   "--seed", 2) == 0
        assert run("train", "--high", high, "--low", low, "--model", model,
                   "--kind", "pcagmm", "--components", 2, "--tau", 2, "--factor", 2,
                   "--reduced-dim", 4, "--max-patches", 300, "--em-iters", 4,
                   "--seed", 0) == 0
        assert run("superres", "--low", low, "--model", model, "--output", out) == 0
        assert read_image(out).shape == (16, 16, 16)

    def test_low_patch_of_zero_density_is_numerical_failure(self, tmp_path, capsys):
        # a sample at 1e200 overflows the whitened square under every component
        geom = PatchGeometry(tau=2, q=2, dims=3)
        n = geom.n_joint
        model, low = tmp_path / "m.pgmm", tmp_path / "low.vol"
        fitted = PcaGmmModel(
            alpha=np.array([0.5, 0.5]),
            bases=np.stack([random_stiefel(n, 4, seed=s) for s in (1, 2)]),
            offsets=np.full((2, n), 0.5),
            variances=np.ones((2, 4)),
            sigma=0.1,
        )
        save_model(model, fitted, geom)
        volume = np.random.default_rng(7).random((6, 6, 6))
        volume[2, 3, 1] = 1e200
        write_image(low, volume)
        assert run("superres", "--low", low, "--model", model,
                   "--output", tmp_path / "sr.vol") == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "zero density" in err and "Traceback" not in err

    def test_non_finite_voxel_is_data_error(self, tmp_path):
        volume = np.random.default_rng(6).random((16, 16, 16))
        volume[3, 4, 5] = np.nan
        high, low = tmp_path / "high.vol", tmp_path / "low.vol"
        write_image(high, volume)
        write_image(low, volume[::2, ::2, ::2])
        proc = run_process("train", "--high", high, "--low", low,
                           "--model", tmp_path / "m.pgmm", "--components", 2,
                           "--tau", 2, "--factor", 2, "--reduced-dim", 4,
                           "--em-iters", 1)
        assert proc.returncode == 3, proc.stderr
        assert "NaN or infinite" in proc.stderr
        assert "Traceback" not in proc.stderr
