"""Forward degradation operator: Gaussian blur, frequency-domain
downsampling, additive white noise. Works on 2D images and 3D volumes."""

import numpy as np
from scipy.ndimage import convolve1d

from .errors import InvalidParameter, InvalidShape


def _gauss_kernel(std):
    radius = int(np.ceil(4.0 * std))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / std) ** 2)
    return kernel / kernel.sum()


def gauss_blur(x, std):
    """Separable convolution with a normalized truncated Gaussian kernel
    (radius ceil(4 std)), periodic boundary handling on every axis."""
    if not (np.isfinite(std) and std > 0.0):
        raise InvalidShape(f"blur std must be finite and positive, got {std}")
    out = np.asarray(x, dtype=float)
    kernel = _gauss_kernel(std)
    for axis in range(out.ndim):
        out = convolve1d(out, kernel, axis=axis, mode="wrap")
    return out


def _keep_indices(m, m2):
    """Input frequency bins that survive truncation to m2 bins: the low block
    k < m2//2 stays in place, the rest maps from k + m - m2.

    Worked 8 -> 4 table (0-based): output bins 0,1 read input bins 0,1 and
    output bins 2,3 read input bins 6,7.
    """
    k = np.arange(m2)
    return np.where(k < m2 // 2, k, k + m - m2)


def dft_downsample(x, out_dims):
    """Downsample by truncating the discrete Fourier spectrum.

    Keeps the lowest output-representable frequencies per axis with the
    m2/(m) amplitude normalization, so constants pass through unchanged.
    The retained spectrum of a real input is Hermitian except possibly at
    the output Nyquist bins, whose imaginary leakage is discarded by taking
    the real part.
    """
    x = np.asarray(x, dtype=float)
    out_dims = tuple(int(v) for v in out_dims)
    if len(out_dims) != x.ndim:
        raise InvalidShape(f"need {x.ndim} output extents, got {len(out_dims)}")
    for m, m2 in zip(x.shape, out_dims):
        if not 1 <= m2 <= m:
            raise InvalidShape(f"output extent {m2} not in [1, {m}]")
    spectrum = np.fft.fftn(x)
    selected = spectrum[np.ix_(*[_keep_indices(m, m2) for m, m2 in zip(x.shape, out_dims)])]
    scale = np.prod(out_dims) / np.prod(x.shape)
    return np.real(np.fft.ifftn(selected)) * scale


def degrade(x, q, blur_std=0.5, noise_std=0.02, seed=None):
    """Blur, downsample by the integer factor q per axis, add white Gaussian
    noise. Deterministic for a fixed seed; the output is not clipped so the
    noiseless operator stays exactly linear."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise InvalidParameter(f"noise std must be finite and >= 0, got {noise_std}")
    if q < 2:
        raise InvalidShape(f"downsampling factor must be >= 2, got {q}")
    for m in x.shape:
        if m % q != 0:
            raise InvalidShape(f"extent {m} is not divisible by factor {q}")
    out_dims = tuple(m // q for m in x.shape)
    y = dft_downsample(gauss_blur(x, blur_std), out_dims)
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        y = y + noise_std * rng.standard_normal(y.shape)
    return y
