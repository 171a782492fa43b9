"""Patch extraction and Gaussian-weighted overlap-add aggregation.

Training uses joint vectors that stack a high-resolution patch (flattened
first, row-major) on top of its low-resolution counterpart; inference
enumerates low-resolution patches and re-assembles estimated high-resolution
patches into an image.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidShape, UncoveredPixel


@dataclass(frozen=True)
class PatchGeometry:
    """Low-resolution patch edge tau, magnification q, and dimensionality."""

    tau: int
    q: int
    dims: int

    def __post_init__(self):
        if self.tau < 1 or self.q < 2 or self.dims not in (2, 3):
            raise InvalidShape(
                f"bad geometry tau={self.tau}, q={self.q}, dims={self.dims}"
            )

    @property
    def high_edge(self):
        return self.q * self.tau

    @property
    def n_low(self):
        return self.tau**self.dims

    @property
    def n_high(self):
        return (self.q * self.tau) ** self.dims

    @property
    def n_joint(self):
        return self.n_high + self.n_low


@dataclass(frozen=True)
class PatchSet:
    """Flattened patches with their low-grid origins.

    data    : (N, n) patch vectors
    origins : (N, dims) low-resolution grid coordinates
    tau     : low-resolution patch edge
    dims    : 2 or 3
    q       : magnification factor for joint sets, None for low-only sets
    """

    data: np.ndarray
    origins: np.ndarray
    tau: int
    dims: int
    q: int | None = None

    @property
    def count(self):
        return self.data.shape[0]

    @property
    def geometry(self):
        if self.q is None:
            raise InvalidShape("low-only patch set has no joint geometry")
        return PatchGeometry(tau=self.tau, q=self.q, dims=self.dims)


def _origin_grid(extents, tau, stride, force_last=False):
    axes = []
    for ext in extents:
        if ext < tau:
            raise InvalidShape(f"extent {ext} smaller than patch edge {tau}")
        ax = list(range(0, ext - tau + 1, stride))
        if force_last and ax[-1] != ext - tau:
            ax.append(ext - tau)
        axes.append(np.asarray(ax, dtype=np.intp))
    return axes


def extract_pairs(high, low, geom, stride=1, max_patches=None, seed=None):
    """Enumerate joint high/low patch pairs on the low-resolution stride grid.

    The low patch at origin (i, j) pairs with the high patch of edge q*tau at
    (q*i, q*j). When the grid holds more than max_patches origins, a uniform
    subsample without replacement is drawn, deterministic per seed.
    """
    high = np.asarray(high, dtype=float)
    low = np.asarray(low, dtype=float)
    if high.ndim != geom.dims or low.ndim != geom.dims:
        raise InvalidShape("image dimensionality does not match the geometry")
    if tuple(high.shape) != tuple(geom.q * m for m in low.shape):
        raise InvalidShape(
            f"high extents {high.shape} are not {geom.q} x low extents {low.shape}"
        )
    axes = _origin_grid(low.shape, geom.tau, stride)
    counts = [len(a) for a in axes]
    total = int(np.prod(counts))
    if max_patches is not None and max_patches < total:
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(total, size=max_patches, replace=False))
        per_axis = np.unravel_index(flat, counts)
        origins = np.stack([axes[a][idx] for a, idx in enumerate(per_axis)], axis=1)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        origins = np.stack([m.ravel() for m in mesh], axis=1)

    low_windows = sliding_window_view(low, (geom.tau,) * geom.dims)
    high_windows = sliding_window_view(high, (geom.high_edge,) * geom.dims)
    low_patches = low_windows[tuple(origins.T)].reshape(origins.shape[0], -1)
    high_patches = high_windows[tuple((geom.q * origins).T)].reshape(
        origins.shape[0], -1
    )
    data = np.concatenate([high_patches, low_patches], axis=1)
    return PatchSet(
        data=data, origins=origins, tau=geom.tau, dims=geom.dims, q=geom.q
    )


def extract_low(image, tau, stride=1):
    """Enumerate low-resolution patches with their origins recorded for
    aggregation. The last valid origin per axis is always included so stride
    choices never lose image borders."""
    image = np.asarray(image, dtype=float)
    if image.ndim not in (2, 3):
        raise InvalidShape(f"expected a 2D or 3D image, got {image.ndim}D")
    axes = _origin_grid(image.shape, tau, stride, force_last=True)
    mesh = np.meshgrid(*axes, indexing="ij")
    origins = np.stack([m.ravel() for m in mesh], axis=1)
    windows = sliding_window_view(image, (tau,) * image.ndim)
    data = windows[tuple(origins.T)].reshape(origins.shape[0], -1)
    return PatchSet(data=data, origins=origins, tau=tau, dims=image.ndim)


def patch_weights(edge, dims, gamma):
    """Per-pixel aggregation weights, a Gaussian bump centered on the patch:
    exp(-gamma/2 * sum_axis (k - (edge-1)/2)^2) with 0-based coordinates."""
    axis = np.arange(edge, dtype=float) - (edge - 1) / 2.0
    w = np.exp(-0.5 * gamma * axis**2)
    out = w
    for _ in range(dims - 1):
        out = np.multiply.outer(out, w)
    return out


def aggregate(values, origins, edge, gamma, out_dims):
    """Weighted overlap-add of patches placed at output-grid origins.

    Every covered output sample becomes the weight-normalized average of all
    patch samples landing on it; the result is independent of patch order.
    """
    values = np.asarray(values, dtype=float)
    origins = np.asarray(origins)
    out_dims = tuple(int(v) for v in out_dims)
    dims = len(out_dims)
    N = values.shape[0]
    if origins.shape != (N, dims):
        raise InvalidShape(f"expected origins of shape {(N, dims)}, got {origins.shape}")
    values = values.reshape((N,) + (edge,) * dims)
    for a in range(dims):
        if origins[:, a].min(initial=0) < 0 or (
            N and origins[:, a].max() + edge > out_dims[a]
        ):
            raise InvalidShape("patch footprint outside the output image")

    w = patch_weights(edge, dims, gamma)
    offs = [np.arange(edge, dtype=np.intp) for _ in range(dims)]
    # flat output index of every patch sample
    flat = np.zeros((N,) + (edge,) * dims, dtype=np.intp)
    for a in range(dims):
        shape = [1] * (dims + 1)
        shape[0] = N
        coord = origins[:, a].reshape(shape)
        shape = [1] * (dims + 1)
        shape[a + 1] = edge
        coord = coord + offs[a].reshape(shape)
        flat = flat * out_dims[a] + coord
    size = int(np.prod(out_dims))
    weighted = values * w
    num = np.bincount(flat.ravel(), weights=weighted.ravel(), minlength=size)
    den = np.bincount(
        flat.ravel(),
        weights=np.broadcast_to(w, values.shape).ravel(),
        minlength=size,
    )
    if np.any(den == 0.0):
        if np.any(np.bincount(flat.ravel(), minlength=size) == 0):
            raise UncoveredPixel("some output pixel is covered by no patch")
        raise UncoveredPixel(
            f"every output pixel is covered, but the patch weights of gamma="
            f"{gamma:g} underflow to 0 on some of them (largest weight "
            f"{w.max():.3g}); use a smaller gamma"
        )
    return (num / den).reshape(out_dims)
