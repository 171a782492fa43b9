"""Which program functions are traced, and the per-layer values derived from
their spans and counts. BENCHMARK.json names the values that are reported.

Each target names the module attribute the caller looks up, so the wrapper
sees every production call: `fit_pcagmm` resolves `ipalm_minimize` and
`accumulate_stats` in `pcagmm.pca_gmm`, `reconstruct` resolves `aggregate`
in `pcagmm.superres`, the CLI resolves `reconstruct` in `pcagmm.cli`, and so
on. A kernel imported into several modules is wrapped in each of them under
one span name.
"""

from tracing import Target, layer_totals

PALM = "palm.minimize"


def _palm_counts(counters, args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs.get("config")
    iters = len(result[2]) - 1
    counters["palm.outer_iters"] += iters
    if config is not None and iters >= config.max_iters:
        counters["palm.capped"] += 1


def _em_counts(layer):
    def count(counters, args, kwargs, result):
        model, trace = result
        iters = len(trace.objective) - 1
        counters[f"{layer}.em_iters"] += iters
        counters[f"{layer}.component_iters"] += model.n_components * iters
        counters[f"{layer}.reseeds"] += trace.n_reseeds

    return count


def _stats_flops(counters, args, kwargs, result):
    N, n = args[0].shape
    counters["stats.flops"] += 2.0 * N * n * n


def _excluded(counters, args, kwargs, result):
    counters["superres.excluded"] += int((~result.valid).sum())


def _aggregate_bytes(counters, args, kwargs, result):
    # values, flat index and weighted values, each N x n_high x 8 bytes
    counters["patches.aggregate.bytes"] += 3 * 8 * args[0].size


TARGETS = (
    Target("pcagmm.degrade", "degrade", "degrade.degrade"),
    Target("pcagmm.patches", "extract_pairs", "patches.extract_pairs"),
    Target("pcagmm.pca_gmm", "fit_pcagmm", "pca_gmm.fit_pcagmm", _em_counts("pca_gmm")),
    Target("pcagmm.pca_gmm", "kmeanspp_indices", "pca_gmm.kmeanspp_indices"),
    Target("pcagmm.pca_gmm", "accumulate_stats", "stats.accumulate_stats", _stats_flops),
    Target("pcagmm.pca_gmm", "palm_minimize", PALM, _palm_counts),
    Target("pcagmm.pca_gmm", "ipalm_minimize", PALM, _palm_counts),
    Target("pcagmm.pca_gmm", "recover_component", "pca_gmm.recover_component"),
    Target("pcagmm.palm", "project_stiefel", "linalg.project_stiefel"),
    *(
        Target(f"pcagmm.{module}", "try_cholesky", "linalg.try_cholesky")
        for module in ("palm", "linalg", "superres")
    ),
    *(
        Target(f"pcagmm.{module}", "solve_triangular", "linalg.solve_triangular")
        for module in ("palm", "gmm", "linalg", "superres")
    ),
    Target("pcagmm.gmm", "fit_gmm", "gmm.fit_gmm", _em_counts("gmm")),
    Target("pcagmm.gmm", "gmm_mstep", "gmm.gmm_mstep"),
    Target("pcagmm.superres", "reconstruct", "superres.reconstruct"),
    Target("pcagmm.cli", "reconstruct", "superres.reconstruct"),
    Target(
        "pcagmm.superres",
        "precompute_conditionals",
        "superres.precompute_conditionals",
        _excluded,
    ),
    Target("pcagmm.superres", "extract_low", "patches.extract_low"),
    Target("pcagmm.superres", "aggregate", "patches.aggregate", _aggregate_bytes),
    Target("pcagmm.cli", "main", "cli.main"),
    Target("pcagmm.cli", "read_image", "formats.read_image"),
    Target("pcagmm.cli", "load_model", "formats.load_model"),
    Target("pcagmm.cli", "write_image", "formats.write_image"),
)

def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(phases):
    """Per-layer values for one set-up plus one train and one superres call.

    `phases` is a list of (tracer, repeats): each tracer's totals are divided
    by the number of operations it covered, then the phases are summed.
    Every target's span gets `<span>.s`, `.calls` and `.self_s`; layers that
    did not run report zero.
    """
    span = {}
    counters = {}
    for tracer, repeats in phases:
        for name, entry in layer_totals(tracer.spans).items():
            acc = span.setdefault(name, {"s": 0.0, "calls": 0.0, "self_s": 0.0})
            for stat, value in entry.items():
                acc[stat] += value / repeats
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0.0) + value / repeats
    values = {
        f"{target.span}.{stat}": span.get(target.span, {}).get(stat, 0.0)
        for target in TARGETS
        for stat in ("s", "calls", "self_s")
    }
    count = counters.get
    values.update(
        {
            "palm.outer_iters": count("palm.outer_iters", 0.0),
            "palm.capped_ratio": _ratio(
                count("palm.capped", 0.0), values[f"{PALM}.calls"]
            ),
            "stats.flops": count("stats.flops", 0.0),
            "pca_gmm.em_iters": count("pca_gmm.em_iters", 0.0),
            "pca_gmm.reseeds": _ratio(
                count("pca_gmm.reseeds", 0.0), count("pca_gmm.component_iters", 0.0)
            ),
            "gmm.em_iters": count("gmm.em_iters", 0.0),
            "superres.excluded": count("superres.excluded", 0.0),
            "patches.aggregate.bytes": count("patches.aggregate.bytes", 0.0),
        }
    )
    return values
