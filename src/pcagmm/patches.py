"""Patch extraction and Gaussian-weighted overlap-add aggregation.

Training uses joint vectors that stack a high-resolution patch (flattened
first, row-major) on top of its low-resolution counterpart; inference
enumerates low-resolution patches and re-assembles estimated high-resolution
patches into an image.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate1d

from .errors import InvalidParameter, InvalidShape, UncoveredPixel

_PAIR_ROWS = 256  # patch pairs gathered per block in extract_pairs


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
    """

    data: np.ndarray
    origins: np.ndarray

    @property
    def count(self):
        return self.data.shape[0]


def _origin_grid(extents, tau, stride):
    axes = []
    for ext in extents:
        if ext < tau:
            raise InvalidShape(f"extent {ext} smaller than patch edge {tau}")
        axes.append(np.arange(0, ext - tau + 1, stride, dtype=np.intp))
    return axes


def extract_pairs(high, low, geom, stride=1, max_patches=None, seed=None):
    """Enumerate joint high/low patch pairs on the low-resolution stride grid.

    The low patch at origin (i, j) pairs with the high patch of edge q*tau at
    (q*i, q*j). When the grid holds more than max_patches origins, a uniform
    subsample without replacement is drawn, deterministic per seed.

    The pairs are written into the returned (N, n_high + n_low) array
    _PAIR_ROWS rows at a time, so the gathered patches add at most that many
    rows of temporaries.
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
    else:
        flat = np.arange(total)
    per_axis = np.unravel_index(flat, counts)
    origins = np.stack([axes[a][idx] for a, idx in enumerate(per_axis)], axis=1)

    low_windows = sliding_window_view(low, (geom.tau,) * geom.dims)
    high_windows = sliding_window_view(high, (geom.high_edge,) * geom.dims)
    data = np.empty((origins.shape[0], geom.n_joint))
    for start in range(0, origins.shape[0], _PAIR_ROWS):
        at = origins[start : start + _PAIR_ROWS]
        rows = data[start : start + _PAIR_ROWS]
        rows[:, : geom.n_high] = high_windows[tuple((geom.q * at).T)].reshape(
            at.shape[0], -1
        )
        rows[:, geom.n_high :] = low_windows[tuple(at.T)].reshape(at.shape[0], -1)
    return PatchSet(data=data, origins=origins)


def extract_low(image, tau):
    """Enumerate the stride-one low-resolution patches of an image, all at
    once, with their origins recorded for aggregation: the single tile of
    low_patch_tiles."""
    image = np.asarray(image, dtype=float)
    return next(low_patch_tiles(image, tau, max(1, image.size)))


def low_patch_tiles(image, tau, size):
    """Enumerate the stride-one low-resolution patches of an image in raster
    order, `size` patches at a time, as low-only patch sets. Only one tile's
    origins and patches exist at a time."""
    image = np.asarray(image, dtype=float)
    if image.ndim not in (2, 3):
        raise InvalidShape(f"expected a 2D or 3D image, got {image.ndim}D")
    grid = [len(axis) for axis in _origin_grid(image.shape, tau, 1)]
    windows = sliding_window_view(image, (tau,) * image.ndim)
    total = int(np.prod(grid))
    for start in range(0, total, size):
        index = np.unravel_index(np.arange(start, min(start + size, total)), grid)
        data = windows[index].reshape(index[0].size, -1)
        yield PatchSet(data=data, origins=np.stack(index, axis=1))


def patch_weights(edge, dims, gamma):
    """Per-pixel aggregation weights, a Gaussian bump centered on the patch:
    exp(-gamma/2 * sum_axis (k - (edge-1)/2)^2) with 0-based coordinates.
    gamma must be finite and nonnegative."""
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise InvalidParameter(f"gamma must be finite and >= 0, got {gamma}")
    axis = np.arange(edge, dtype=float) - (edge - 1) / 2.0
    w = np.exp(-0.5 * gamma * axis**2)
    out = w
    for _ in range(dims - 1):
        out = np.multiply.outer(out, w)
    return out


def _spread(grid, taps):
    """Each sample of grid spread over the len(taps) samples after it along
    every axis: out[p] = sum over offsets t of prod_a taps[t_a] * grid[p - t].

    Works in one float copy of grid: along each axis, a correlation with the
    reversed taps followed by len(taps) - 1 zeros, written back in place."""
    out = grid.astype(float)
    w = np.concatenate([taps[::-1], np.zeros(len(taps) - 1)])
    for axis in range(out.ndim):
        correlate1d(out, w, axis, output=out, mode="constant")
    return out


class OverlapAdd:
    """Weighted overlap-add of patches placed at output-grid origins, added
    one batch at a time.

    The accumulator holds two output-sized arrays: the weighted sums (float64)
    and the number of patches with their origin at each sample (int32). `add`
    accumulates a batch's Gaussian-weighted patch samples and counts its
    origins, touching only the bounding box of the batch's footprints.
    `finish` spreads the origin counts into per-pixel weight sums (the weights
    are separable) in one more float64 output-sized array and divides into
    it. Every covered output sample becomes the weight-normalized average of
    all patch samples landing on it; the result does not depend on patch
    order or batching.
    """

    def __init__(self, out_dims, edge, gamma):
        self.out_dims = tuple(int(v) for v in out_dims)
        self.edge = edge
        self.gamma = gamma
        self.weights = patch_weights(edge, len(self.out_dims), gamma).ravel()
        self.num = np.zeros(self.out_dims)
        # patches with their origin here
        self.count = np.zeros(self.out_dims, dtype=np.int32)

    def add(self, values, origins):
        """Add N patches, values (N, edge**dims), at origins (N, dims)."""
        values = np.asarray(values, dtype=float)
        origins = np.asarray(origins)
        dims, edge = len(self.out_dims), self.edge
        N = values.shape[0]
        if origins.shape != (N, dims):
            raise InvalidShape(
                f"expected origins of shape {(N, dims)}, got {origins.shape}"
            )
        values = values.reshape(N, self.weights.size)
        if N == 0:
            return
        lo = origins.min(axis=0)
        hi = origins.max(axis=0) + edge
        if np.any(lo < 0) or np.any(hi > self.out_dims):
            raise InvalidShape("patch footprint outside the output image")
        box = tuple(int(v) for v in hi - lo)
        size = int(np.prod(box))
        # flat index in the box of every origin, and of every patch sample
        # relative to its origin
        start = np.ravel_multi_index(tuple((origins - lo).T), box)
        offset = np.ravel_multi_index(np.indices((edge,) * dims).reshape(dims, -1), box)
        flat = (start[:, None] + offset).ravel()
        region = tuple(slice(a, b) for a, b in zip(lo, hi))
        self.num[region] += np.bincount(
            flat, weights=(values * self.weights).ravel(), minlength=size
        ).reshape(box)
        self.count[region] += np.bincount(start, minlength=size).reshape(box)

    def finish(self):
        """The weight-normalized output, divided into the one new float64
        array that holds the spread weights; raises UncoveredPixel where the
        weights sum to 0, naming whether no patch covers the pixel or the
        weights of this gamma underflow."""
        den = _spread(self.count, patch_weights(self.edge, 1, self.gamma))
        if np.any(den == 0.0):
            if np.any(_spread(self.count, np.ones(self.edge)) == 0.0):
                raise UncoveredPixel("some output pixel is covered by no patch")
            raise UncoveredPixel(
                f"every output pixel is covered, but the patch weights of gamma="
                f"{self.gamma:g} underflow to 0 on some of them (largest weight "
                f"{self.weights.max():.3g}); use a smaller gamma"
            )
        return np.divide(self.num, den, out=den)


def aggregate(values, origins, edge, gamma, out_dims):
    """Weighted overlap-add of patches placed at output-grid origins, all in
    one batch (see OverlapAdd).

    Every covered output sample becomes the weight-normalized average of all
    patch samples landing on it; the result is independent of patch order.
    """
    acc = OverlapAdd(out_dims, edge, gamma)
    acc.add(values, origins)
    return acc.finish()
