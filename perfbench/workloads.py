"""The four benchmark workloads: seeded inputs, the timed operations, and the
correctness gates on their outputs.

Every call into the program goes through a module attribute looked up at
call time (`pca_gmm.fit_pcagmm`, `superres.reconstruct`, ...), so a tracer
installed around an operation sees it.

BENCHMARK.json says why each workload was chosen; README.md gives the sizes.
"""

import contextlib
import importlib
import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import synth

SIGMA = 0.02  # residual noise scale of the reduced model, the degradation noise level
GAMMA = 0.1  # aggregation weight sharpness
FACTOR = 2
TAU = 4


def _mod(name):
    """The program module `pcagmm.<name>`; attributes are read at call time."""
    return importlib.import_module(f"pcagmm.{name}")


@dataclass(frozen=True)
class Params:
    """Sizes and iteration budgets of one workload.

    size        : edge of the ground-truth image or volume
    crop        : edge of the top-left training crop (2D); None trains on all
    max_pairs   : subsample of training pairs (3D); None keeps every pair
    components  : K
    reduced_dim : d (ignored by the full-covariance model)
    em_iters    : fixed EM budget; the tolerance is 0, so EM never stops early
    solver_iters: M-step solver budget per component and EM iteration
    margin_db   : required PSNR gain over the interpolation baseline
    """

    size: int
    crop: int | None
    max_pairs: int | None
    components: int
    reduced_dim: int
    em_iters: int
    solver_iters: int
    margin_db: float


@dataclass
class Fit:
    model: object
    objective: np.ndarray  # EM objective before the first and after every update
    samples: int
    dim: int

    @property
    def objective_per_patch(self):
        return float(self.objective[-1]) / self.samples


@dataclass
class State:
    """Inputs built by set-up; the program only ever sees these arrays and files."""

    seed: int
    high: np.ndarray  # ground truth
    low: np.ndarray  # degraded input to superresolve
    train_high: np.ndarray
    train_low: np.ndarray
    baseline_db: float  # PSNR of the interpolation baseline
    files: dict = field(default_factory=dict)
    fit: Fit | None = None  # model trained and saved in set-up (sr2d)


@dataclass(frozen=True)
class Workload:
    name: str
    params: Params
    setup: Callable  # (workload, seed, workdir) -> State
    train: Callable  # (workload, state) -> Fit
    superres: Callable  # (workload, state, fit) -> result
    # (state, result) -> high-resolution estimate, read outside the timed call
    read_output: Callable = lambda state, result: result

    def resized(self, **changes):
        return replace(self, params=replace(self.params, **changes))


def psnr(reference, estimate):
    """PSNR in dB for peak 1, computed here so that the gates do not depend
    on the program's own metric."""
    return float(10.0 * np.log10(1.0 / np.mean((reference - estimate) ** 2)))


def _geometry(dims):
    return _mod("patches").PatchGeometry(tau=TAU, q=FACTOR, dims=dims)


def _degrade(x, seed):
    return _mod("degrade").degrade(x, FACTOR, blur_std=0.5, noise_std=0.02, seed=seed)


def _setup_image(wl, seed, workdir):
    p = wl.params
    high = synth.image2d(p.size, seed)
    crop = high[: p.crop, : p.crop]
    low = _degrade(high, seed + 2)
    baseline = psnr(high, _mod("metrics").bicubic_upsample(low, FACTOR))
    return State(seed, high, low, crop, _degrade(crop, seed + 1), baseline)


def _setup_volume(wl, seed, workdir):
    high = synth.volume3d(wl.params.size, seed)
    low = _degrade(high, seed + 1)
    baseline = psnr(high, _mod("metrics").nearest_upsample(low, FACTOR))
    return State(seed, high, low, high, low, baseline)


def _pairs(wl, state):
    return _mod("patches").extract_pairs(
        state.train_high,
        state.train_low,
        _geometry(state.high.ndim),
        max_patches=wl.params.max_pairs,
        seed=state.seed,
    )


def _train_pcagmm(wl, state):
    p = wl.params
    pairs = _pairs(wl, state)
    model, trace = _mod("pca_gmm").fit_pcagmm(
        pairs.data,
        p.components,
        p.reduced_dim,
        SIGMA,
        em_config=_mod("gmm").EmConfig(max_iters=p.em_iters, tol=0.0),
        solver_config=_mod("palm").SolverConfig(max_iters=p.solver_iters),
        seed=state.seed,
    )
    return Fit(model, trace.objective, pairs.count, pairs.data.shape[1])


def _train_gmm(wl, state):
    p = wl.params
    pairs = _pairs(wl, state)
    model, trace = _mod("gmm").fit_gmm(
        pairs.data,
        p.components,
        _mod("gmm").EmConfig(max_iters=p.em_iters, tol=0.0),
        seed=state.seed,
    )
    return Fit(model, trace.objective, pairs.count, pairs.data.shape[1])


def _reconstruct(wl, state, fit):
    return _mod("superres").reconstruct(
        state.low, fit.model, _geometry(state.high.ndim), gamma=GAMMA
    )


def _setup_cli(wl, seed, workdir):
    """img2d-style inputs written as files, plus a model trained and saved."""
    state = _setup_image(wl, seed, workdir)
    formats = _mod("formats")
    workdir = Path(workdir)
    state.files = {
        "low": str(workdir / "low.pgm"),
        "model": str(workdir / "model.pgmm"),
        "output": str(workdir / "sr.pgm"),
    }
    formats.write_image(state.files["low"], state.low)
    # the command sees the 8-bit file, so the baseline must too
    state.low = formats.read_image(state.files["low"])
    state.baseline_db = psnr(
        state.high, _mod("metrics").bicubic_upsample(state.low, FACTOR)
    )
    state.fit = _train_pcagmm(wl, state)
    formats.save_model(state.files["model"], state.fit.model, _geometry(2))
    return state


def _superres_cli(wl, state, fit):
    """`pcagmm superres` in-process, from file to file."""
    files = state.files
    argv = ["superres", "--low", files["low"], "--model", files["model"],
            "--output", files["output"], "--gamma", str(GAMMA)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = _mod("cli").main(argv)
    if code != 0:
        raise GateFailure(f"pcagmm superres exited with code {code}")
    return state.files["output"]


def _read_output(state, path):
    return _mod("formats").read_image(path)


class GateFailure(Exception):
    """An output failed a correctness gate."""


def check_fit(fit):
    """Raise unless the model is valid and EM never went uphill."""
    fit.model.validate()
    obj = np.asarray(fit.objective, dtype=float)
    if obj.size < 2 or not np.all(np.isfinite(obj)):
        raise GateFailure(f"bad objective trace {obj}")
    # EM is monotone; allow only floating-point reduction noise
    if np.any(np.diff(obj) > 1e-10 * np.abs(obj[:-1])):
        raise GateFailure(f"EM objective increased: {obj}")


def check_estimate(wl, state, estimate):
    """PSNR of the clipped estimate; raise GateFailure on a wrong shape,
    non-finite values or a gain over the baseline below the margin."""
    estimate = np.asarray(estimate, dtype=float)
    if estimate.shape != state.high.shape:
        raise GateFailure(f"output shape {estimate.shape} != {state.high.shape}")
    if not np.all(np.isfinite(estimate)):
        raise GateFailure("output has non-finite values")
    value = psnr(state.high, np.clip(estimate, 0.0, 1.0))
    if not value >= state.baseline_db + wl.params.margin_db:
        raise GateFailure(
            f"PSNR {value:.3f} dB does not beat the baseline "
            f"{state.baseline_db:.3f} dB by {wl.params.margin_db} dB"
        )
    return value


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "vol3d",
            Params(size=40, crop=None, max_pairs=1000, components=10, reduced_dim=20,
                   em_iters=1, solver_iters=2, margin_db=3.0),
            _setup_volume, _train_pcagmm, _reconstruct,
        ),
        Workload(
            "img2d",
            Params(size=512, crop=128, max_pairs=None, components=50, reduced_dim=20,
                   em_iters=1, solver_iters=3, margin_db=1.0),
            _setup_image, _train_pcagmm, _reconstruct,
        ),
        Workload(
            "sr2d",
            Params(size=1024, crop=128, max_pairs=None, components=20, reduced_dim=10,
                   em_iters=1, solver_iters=3, margin_db=1.0),
            _setup_cli, _train_pcagmm, _superres_cli, _read_output,
        ),
        # K = 20 leaves about 190 patches per 80 x 80 covariance; at K = 50
        # they would be singular and the objective would measure the floor.
        Workload(
            "gmm2d",
            Params(size=512, crop=128, max_pairs=None, components=20, reduced_dim=0,
                   em_iters=2, solver_iters=0, margin_db=1.0),
            _setup_image, _train_gmm, _reconstruct,
        ),
    )
}

# Small sizes for the benchmark's own tests: every code path, in seconds.
TINY = {
    "vol3d": dict(size=16, max_pairs=300, components=3, reduced_dim=6, margin_db=1.0),
    "img2d": dict(size=96, crop=64, components=6, reduced_dim=8),
    "sr2d": dict(size=96, crop=64, components=6, reduced_dim=8),
    "gmm2d": dict(size=96, crop=64, components=6),
}
