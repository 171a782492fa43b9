"""Seeded synthetic inputs: 2D test images and the smooth 3D volume.

The 2D generator is stationary at fixed pixel scales, so any crop has the
same patch statistics as the whole image; a model trained on a crop then
transfers to the full image the way one trained on a natural photograph
does. The image mixes the structures that separate patch priors from
interpolation: smooth shading, sharp piecewise-constant edges, oriented
stripes and fine texture.
"""

import numpy as np
from scipy.ndimage import gaussian_filter


def gauss_blur(x, std):
    """Periodic Gaussian blur. The inputs use scipy's filter, not the
    program's, so a change to the program never changes the inputs."""
    return gaussian_filter(x, std, mode="wrap", truncate=4.0)


def _field(rng, size, std):
    """Zero-mean, unit-variance Gaussian random field of correlation length std."""
    f = gauss_blur(rng.standard_normal((size, size)), std)
    return (f - f.mean()) / f.std()


def image2d(size, seed):
    """size x size image in [0.05, 0.95] with mean 0.5 and standard deviation
    0.15 before clipping, a deterministic function of seed."""
    rng = np.random.default_rng(seed)
    img = 0.35 * _field(rng, size, 12.0)
    # cartoon regions: a smooth field quantized into levels gives sharp edges
    img += 0.25 * np.floor(2.0 * _field(rng, size, 10.0))
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    # stripes at fixed periods and 60-degree spaced orientations, so that the
    # aliasing difficulty, and with it the achievable PSNR, is even across seeds
    base = rng.uniform(0.0, np.pi)
    for i, period in enumerate((5.0, 7.0, 10.0)):
        theta = base + i * np.pi / 3.0
        phase = (np.cos(theta) * xx + np.sin(theta) * yy) * (2.0 * np.pi / period)
        region = _field(rng, size, 8.0) > 1.0  # about 16 % of the area
        img += 0.4 * region * np.sin(phase)
    img += 0.15 * _field(rng, size, 0.8)  # fine texture
    img = gauss_blur(img, 0.6)
    # fixed contrast (the extremes, unlike the spread, vary from seed to seed)
    return np.clip(0.5 + 0.15 * (img - img.mean()) / img.std(), 0.05, 0.95)


def volume3d(size, seed):
    """size^3 blurred white noise in [0.05, 0.95], as in the 3D smoke test."""
    rng = np.random.default_rng(seed)
    vol = gauss_blur(rng.standard_normal((size,) * 3), 3.0)
    return 0.05 + 0.9 * (vol - vol.min()) / (vol.max() - vol.min())
