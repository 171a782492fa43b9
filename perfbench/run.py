"""Benchmark entry point: runs one workload for one seed and prints one JSON line.

    python3 perfbench/run.py --workload img2d --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory and nowhere else. With --trace 0 the last line holds the
end-to-end metrics, measured with no wrapper installed. With --trace 1 it
holds the per-layer metrics of a traced pass, the tracing overhead, and the
spans go to perfbench/out/. README.md documents every metric.
"""

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import workloads
from layers import TARGETS, layer_values
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up repeats: at least SETUP_MIN, and until SETUP_SECONDS have passed
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 100, 1.5


def catalogue(group):
    """Name -> unit of the metrics BENCHMARK.json lists under `group`
    ("end_to_end" or "per_layer"); the code only says how each is computed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def import_program():
    """Import pcagmm from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "pcagmm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {src / 'pcagmm'}")
    sys.path.insert(0, str(src))
    import pcagmm

    if Path(pcagmm.__file__).resolve().parent != (src / "pcagmm").resolve():
        sys.exit(f"perfbench: imported pcagmm from {pcagmm.__file__}, not {src}")


def _openblas_info(path):
    """Version string and thread count of one loaded OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": config().decode(), "threads": threads()}
    return None


def _blas_threads():
    """Thread counts of the OpenBLAS builds that numpy and scipy load."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = f"{os.path.dirname(package.__file__)}.libs/*openblas*"
        for path in sorted(glob.glob(libs)):
            info = _openblas_info(path)
            if info is not None:
                found[package.__name__] = info
    return found


def environment():
    """What the timings depend on; runs under different settings never compare."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


class Ops:
    """Runs operations, counting attempts and failures (an exception or a
    failed gate). A failed operation returns None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure of the program is a result
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {exc!r}")
            return None


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _peak_mb(fn, *args):
    """Result of fn and its peak traced allocation above the level at its
    start, in MB. numpy reports its buffers to tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / 1e6


class Session:
    """One workload, one seed: set-up and checked operations.

    `measure(fn, *args)` returns (result, cost) for one call of the program;
    the correctness gates run after it returns, outside the measurement.
    """

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()

    def setup(self, measure=_timed):
        """(state, seconds); a model trained in set-up is checked too."""
        out = self.ops.run(self._setup, measure)
        return (None, None) if out is None else out

    def train(self, state, measure=_timed):
        out = self.ops.run(self._train, state, measure)
        return (None, None) if out is None else out

    def superres(self, state, fit, measure=_timed):
        """(psnr, seconds or MB) of one checked superresolution."""
        out = self.ops.run(self._superres, state, fit, measure)
        return (None, None) if out is None else out

    def _setup(self, measure):
        state, cost = measure(self.wl.setup, self.wl, self.seed, self.workdir)
        if state.fit is not None:
            workloads.check_fit(state.fit)
        return state, cost

    def _train(self, state, measure):
        fit, cost = measure(self.wl.train, self.wl, state)
        workloads.check_fit(fit)
        return fit, cost

    def _superres(self, state, fit, measure):
        result, cost = measure(self.wl.superres, self.wl, state, fit)
        estimate = self.wl.read_output(state, result)
        return workloads.check_estimate(self.wl, state, estimate), cost


def _traced(tracer):
    """A measure that times fn with the tracer's wrappers installed."""

    def measure(fn, *args):
        with tracer:
            return _timed(fn, *args)

    return measure


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure_end_to_end(session, seconds):
    setup_s = []
    while len(setup_s) < SETUP_MIN or (
        sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX
    ):
        state, elapsed = session.setup()
        if state is None:
            break
        setup_s.append(elapsed)

    # Each timed operation gets about half of the run: the next call is
    # whichever has used less time so far, so a cheap superres is sampled
    # more often than an expensive training and both medians are steady.
    train_s, superres_s, psnrs = [], [], []
    fit = None
    start = time.perf_counter()
    while not session.ops.failed and (
        not superres_s or time.perf_counter() - start < seconds
    ):
        if fit is None or sum(train_s) <= sum(superres_s):
            fit, elapsed = session.train(state)
            train_s.append(elapsed)
        else:
            value, elapsed = session.superres(state, fit)
            superres_s.append(elapsed)
            psnrs.append(value)

    # memory pass, after the timed loop so that lazy imports are done
    train_mb = superres_mb = None
    if not session.ops.failed:
        _, train_mb = session.train(state, _peak_mb)
        _, superres_mb = session.superres(state, fit, _peak_mb)
    return {
        "train_s": _median(train_s),
        "superres_s": _median(superres_s),
        "train_peak_mb": train_mb,
        "superres_peak_mb": superres_mb,
        "psnr_db": _median(psnrs),
        "perplexity_per_dim": (
            math.exp(fit.objective_per_patch / fit.dim) if fit is not None else None
        ),
        "setup_s": _median(setup_s),
    }


def _cycle(session, state, train_s, superres_s, measure=_timed):
    """One train and one superres; the superres uses the model just trained,
    or on sr2d the one saved in set-up."""
    fit, elapsed = session.train(state, measure)
    train_s.append(elapsed)
    if fit is not None:
        superres_s.append(session.superres(state, fit, measure)[1])
    return fit


def measure_layers(session, seconds):
    """Per-layer values for one set-up + train + superres, from traced passes
    alternated with untraced ones so the overhead is measured alongside.
    Wrappers are installed only around the program's calls, so the
    correctness gates are never traced."""
    setup_tracer = Tracer(TARGETS)
    state, _ = session.setup(_traced(setup_tracer))

    times = {True: ([], []), False: ([], [])}  # traced -> (train_s, superres_s)
    cycle_tracer = Tracer(TARGETS)
    fit = None
    start = time.perf_counter()
    traced_cycles = 0
    while not session.ops.failed and (
        traced_cycles == 0 or time.perf_counter() - start < seconds
    ):
        _cycle(session, state, *times[False])
        fit = _cycle(session, state, *times[True], _traced(cycle_tracer))
        traced_cycles += 1

    values = layer_values([(setup_tracer, 1), (cycle_tracer, traced_cycles)])
    values["train.objective_per_patch"] = (
        fit.objective_per_patch if fit is not None else None
    )
    for i, name in enumerate(("train", "superres")):
        traced, untraced = _median(times[True][i]), _median(times[False][i])
        values[f"trace.{name}_overhead_s"] = (
            traced - untraced if traced is not None and untraced is not None else None
        )
    spans = {
        "absent": sorted(set(setup_tracer.absent) | set(cycle_tracer.absent)),
        "traced_cycles": traced_cycles,
        "setup": [list(vars(s).values()) for s in setup_tracer.spans],
        "cycles": [list(vars(s).values()) for s in cycle_tracer.spans],
        "counters": {"setup": setup_tracer.counters, "cycles": cycle_tracer.counters},
    }
    return values, spans


def result_line(values, units, ops):
    """The result object for the metrics named in `units`; a metric without
    a value makes the run incorrect."""
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
        if values.get(name) is not None
    }
    correct = ops.failed == 0 and len(metrics) == len(units)
    return {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    import_program()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        session = Session(workloads.WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            values, spans = measure_layers(session, args.seconds)
            units = catalogue("per_layer")
            path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps({"env": env, **spans}))
            print(f"spans written to {path}; absent targets: {spans['absent'] or 'none'}")
        else:
            values = measure_end_to_end(session, args.seconds)
            units = catalogue("end_to_end")
    for error in session.ops.errors:
        print(f"failed: {error}", file=sys.stderr)
    for name in units:
        if values.get(name) is None:
            print(f"no value for metric {name}", file=sys.stderr)
    print(json.dumps(result_line(values, units, session.ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
