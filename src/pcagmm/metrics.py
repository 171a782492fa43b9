"""Reconstruction quality metric and interpolation baselines."""

import numpy as np

from .errors import InvalidShape


def psnr(reference, test):
    """Peak signal-to-noise ratio in dB with peak 1.0 on [0, 1] data.

    Returns inf for identical inputs.
    """
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise InvalidShape(
            f"shape mismatch {reference.shape} vs {test.shape}"
        )
    if reference.size == 0:
        raise InvalidShape(f"psnr of empty images of shape {reference.shape}")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _cubic_kernel(t):
    """Cubic convolution weights with parameter a = -0.5 (Catmull-Rom)."""
    t = np.abs(t)
    out = np.zeros_like(t)
    near = t <= 1.0
    far = (t > 1.0) & (t < 2.0)
    out[near] = (1.5 * t[near] - 2.5) * t[near] ** 2 + 1.0
    out[far] = ((-0.5 * t[far] + 2.5) * t[far] - 4.0) * t[far] + 2.0
    return out


def _cubic_axis(x, q, axis):
    m = x.shape[axis]
    src = (np.arange(m * q) + 0.5) / q - 0.5
    base = np.floor(src).astype(int)
    frac = src - base
    out = np.zeros(x.shape[:axis] + (m * q,) + x.shape[axis + 1 :])
    for tap in range(-1, 3):
        idx = np.clip(base + tap, 0, m - 1)
        w = _cubic_kernel(frac - tap)
        shape = [1] * x.ndim
        shape[axis] = m * q
        out += np.take(x, idx, axis=axis) * w.reshape(shape)
    return out


def bicubic_upsample(low, q):
    """Separable cubic-convolution upsampling of a 2D image.

    Output sample o sits at (o + 0.5)/q - 0.5 in input coordinates; border
    taps clamp to the edge.
    """
    low = np.asarray(low, dtype=float)
    if low.ndim != 2:
        raise InvalidShape("bicubic upsampling expects a 2D image")
    if q < 1:
        raise InvalidShape(f"factor must be >= 1, got {q}")
    return _cubic_axis(_cubic_axis(low, q, 0), q, 1)


def nearest_upsample(low, q):
    """Block replication by the factor q along every axis."""
    out = np.asarray(low, dtype=float)
    for axis in range(out.ndim):
        out = np.repeat(out, q, axis=axis)
    return out
