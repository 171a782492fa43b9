"""Command-line interface chaining degradation, training, reconstruction and
evaluation. Exit codes: 0 success, 2 invalid arguments, 3 data or format
error, 4 numerical failure."""

import argparse
import math
import sys

import numpy as np

from .degrade import degrade
from .errors import CorruptHeader, DataError, InvalidParameter, NumericalFailure
from .formats import load_model, model_header, read_image, save_model, write_image
from .gmm import EmConfig, fit_gmm
from .metrics import psnr
from .patches import PatchGeometry, extract_pairs
from .pca_gmm import PcaGmmModel, check_sigma, fit_pcagmm
from .superres import reconstruct

# default training patch budget for volumes; 2D enumerates exhaustively
_MAX_PATCHES_3D = 1_000_000


def _at_least(kind, low, strict=False):
    """argparse type for a finite `kind` value >= low (> low when strict).
    argparse reports the ValueError raised for anything else under this
    function's name and exits with code 2."""

    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise ValueError(text)
        return value

    parse.__name__ = f"{kind.__name__} {'>' if strict else '>='} {low}"
    return parse


def _sigma(text):
    """argparse type for the noise scale: a float accepted by
    pca_gmm.check_sigma. argparse reports the ValueError and exits with code 2."""
    try:
        return check_sigma(text)
    except InvalidParameter:
        raise ValueError(text) from None


_sigma.__name__ = "float with 0 < sigma**2 < inf"


def _cmd_degrade(args):
    image = read_image(args.input)
    out = degrade(
        image,
        args.factor,
        blur_std=args.blur_std,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    write_image(args.output, out)
    print(f"degraded {tuple(image.shape)} -> {tuple(out.shape)}")
    return 0


def _cmd_train(args):
    high = read_image(args.high)
    low = read_image(args.low)
    geom = PatchGeometry(tau=args.tau, q=args.factor, dims=high.ndim)
    max_patches = args.max_patches
    if max_patches is None and high.ndim == 3:
        max_patches = _MAX_PATCHES_3D
    pairs = extract_pairs(
        high, low, geom, stride=args.stride, max_patches=max_patches, seed=args.seed
    )
    print(f"training on {pairs.count} joint patches of dimension {geom.n_joint}")
    config = EmConfig(max_iters=args.em_iters, tol=args.em_tol)
    if args.kind == "gmm":
        model, trace = fit_gmm(pairs.data, args.components, config, seed=args.seed)
    else:
        model, trace = fit_pcagmm(
            pairs.data,
            args.components,
            args.reduced_dim,
            args.sigma,
            em_config=config,
            seed=args.seed,
        )
    for it, value in enumerate(trace.objective):
        print(f"iter {it:3d}  objective {value:.6f}")
    if trace.n_reseeds:
        print(f"reseeded {trace.n_reseeds} starved component(s)")
    if trace.stop == "rise":
        it = len(trace.objective) - 1
        rise = trace.objective[-1] - trace.objective[-2]
        print(f"stopped at iter {it}: objective rose by {rise:.6g}")
    save_model(args.model, model, geom)
    print(f"saved {args.kind} model to {args.model}")
    return 0


def _cmd_superres(args):
    low = read_image(args.low)
    model, geom = load_model(args.model)
    if geom is None:
        raise CorruptHeader("model file carries no patch geometry")
    out = reconstruct(low, model, geom, gamma=args.gamma)
    write_image(args.output, out)
    print(f"reconstructed {tuple(low.shape)} -> {tuple(out.shape)}")
    return 0


def _cmd_psnr(args):
    value = psnr(read_image(args.ref), read_image(args.test))
    print(f"psnr={value}")
    return 0


def _cmd_inspect(args):
    model, geom = load_model(args.model)
    print(model_header(model, geom))
    for k in range(model.n_components):
        if isinstance(model, PcaGmmModel):
            r = model.variances[k] / model.sigma**2
            detail = f"variance/sigma^2 min={r.min():.6e} max={r.max():.6e}"
        else:
            detail = f"|mean|={np.linalg.norm(model.means[k]):.6e}"
        print(f"component {k:3d}  alpha={model.alpha[k]:.6e}  {detail}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcagmm",
        description="Mixture-model superresolution for 2D images and 3D volumes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="blur, downsample and add noise")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--factor", type=_at_least(int, 2), required=True)
    p.add_argument("--blur-std", type=_at_least(float, 0.0, strict=True), default=0.5)
    p.add_argument("--noise-std", type=_at_least(float, 0.0), default=0.02)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("train", help="fit a mixture model on joint patches")
    p.add_argument("--high", required=True)
    p.add_argument("--low", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("gmm", "pcagmm"), default="pcagmm")
    p.add_argument("--components", type=_at_least(int, 1), default=100)
    p.add_argument("--tau", type=_at_least(int, 1), default=4)
    p.add_argument("--factor", type=_at_least(int, 2), required=True)
    p.add_argument("--reduced-dim", type=_at_least(int, 1), default=20)
    p.add_argument("--sigma", type=_sigma, default=0.1)
    p.add_argument("--stride", type=_at_least(int, 1), default=1)
    p.add_argument("--max-patches", type=_at_least(int, 1), default=None)
    p.add_argument("--em-iters", type=_at_least(int, 0), default=100)
    p.add_argument("--em-tol", type=_at_least(float, 0.0), default=1e-5)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("superres", help="reconstruct a high-resolution image")
    p.add_argument("--low", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--gamma", type=_at_least(float, 0.0), default=0.1)
    p.set_defaults(func=_cmd_superres)

    p = sub.add_parser("psnr", help="peak signal-to-noise ratio of two images")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_psnr)

    p = sub.add_parser("inspect", help="print model header and diagnostics")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
