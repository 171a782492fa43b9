import numpy as np
import pytest

from pcagmm.degrade import degrade, dft_downsample, gauss_blur
from pcagmm.errors import InvalidParameter, InvalidShape


def naive_periodic_blur_2d(x, std):
    """Dense double-loop 2D convolution with wrap-around indexing."""
    radius = int(np.ceil(4 * std))
    offsets = np.arange(-radius, radius + 1)
    k1 = np.exp(-0.5 * (offsets / std) ** 2)
    k1 /= k1.sum()
    kernel = np.outer(k1, k1)
    m, n = x.shape
    out = np.zeros_like(x)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for a, wa in zip(offsets, k1):
                for b, wb in zip(offsets, k1):
                    acc += wa * wb * x[(i - a) % m, (j - b) % n]
            out[i, j] = acc
    return out


class TestBlur:
    def test_constant_preserved(self):
        x = np.full((6, 9), 0.37)
        np.testing.assert_allclose(gauss_blur(x, 0.5), 0.37, atol=1e-14)

    def test_impulse_response_is_kernel(self):
        std = 0.5
        radius = int(np.ceil(4 * std))
        x = np.zeros((11, 11))
        x[5, 5] = 1.0
        out = gauss_blur(x, std)
        offsets = np.arange(-radius, radius + 1)
        k1 = np.exp(-0.5 * (offsets / std) ** 2)
        k1 /= k1.sum()
        expected = np.zeros_like(x)
        expected[5 - radius : 5 + radius + 1, 5 - radius : 5 + radius + 1] = np.outer(
            k1, k1
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # the mass truncated away is below 1e-4 of the untruncated samples
        wide = np.arange(-8 * radius, 8 * radius + 1)
        raw = np.exp(-0.5 * (wide / std) ** 2)
        tail = raw[np.abs(wide) > radius].sum() / raw.sum()
        assert tail < 1e-4

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.random((8, 10))
        np.testing.assert_allclose(
            gauss_blur(x, 0.5), naive_periodic_blur_2d(x, 0.5), atol=1e-12
        )

    def test_3d_separable_consistency(self):
        rng = np.random.default_rng(1)
        x = rng.random((6, 6, 6))
        out = gauss_blur(x, 0.5)
        assert out.shape == x.shape
        np.testing.assert_allclose(out.sum(), x.sum(), rtol=1e-12)

    def test_bad_std(self):
        with pytest.raises(InvalidShape):
            gauss_blur(np.zeros((4, 4)), 0.0)

    @pytest.mark.parametrize("std", [np.nan, np.inf, -np.inf, -0.5])
    def test_non_finite_or_negative_std(self, std):
        with pytest.raises(InvalidShape, match="blur std"):
            gauss_blur(np.zeros((4, 4)), std)


class TestDownsample:
    def test_constant_preserved(self):
        x = np.full((8, 12), 0.7)
        np.testing.assert_allclose(dft_downsample(x, (4, 6)), 0.7, atol=1e-12)

    def test_low_frequency_cosine_survives(self):
        m, n, m2, n2 = 16, 12, 8, 6
        i = np.arange(m)[:, None]
        x = np.cos(2 * np.pi * i / m) * np.ones((1, n))
        i2 = np.arange(m2)[:, None]
        expected = np.cos(2 * np.pi * i2 / m2) * np.ones((1, n2))
        np.testing.assert_allclose(dft_downsample(x, (m2, n2)), expected, atol=1e-12)

    def test_nyquist_stripes_removed(self):
        m, n = 16, 12
        x = 0.5 + 0.3 * (-1.0) ** np.arange(m)[:, None] * np.ones((1, n))
        np.testing.assert_allclose(dft_downsample(x, (m // 2, n // 2)), 0.5, atol=1e-12)

    def test_same_dims_is_identity(self):
        rng = np.random.default_rng(2)
        x = rng.random((8, 8))
        np.testing.assert_allclose(dft_downsample(x, (8, 8)), x, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        lhs = dft_downsample(2.0 * a + 3.0 * b, (8, 8))
        rhs = 2.0 * dft_downsample(a, (8, 8)) + 3.0 * dft_downsample(b, (8, 8))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_amplitude_never_grows(self):
        rng = np.random.default_rng(4)
        x = rng.random((16, 16))
        y = dft_downsample(x, (8, 8))
        amp_in = np.abs(np.fft.fftn(x)).max() / x.size
        amp_out = np.abs(np.fft.fftn(y)).max() / y.size
        assert amp_out <= amp_in + 1e-12

    def test_real_output_on_bandlimited_input(self):
        # spectrum empty at the output Nyquist bins, where the truncation is
        # one-sided; everything the operator keeps is then Hermitian
        rng = np.random.default_rng(5)
        x = gauss_blur(rng.random((16, 16)), 2.0)
        x = dft_downsample(x, (16, 16))
        spectrum = np.fft.fftn(x)
        spectrum[4, :] = 0.0
        spectrum[12, :] = 0.0
        spectrum[:, 4] = 0.0
        spectrum[:, 12] = 0.0
        x = np.fft.ifftn(spectrum).real
        selected = np.fft.fftn(x)[np.ix_([0, 1, 2, 3, 12, 13, 14, 15],
                                         [0, 1, 2, 3, 12, 13, 14, 15])]
        residue = np.abs(np.fft.ifftn(selected).imag).max() * (64 / 256)
        assert residue < 1e-10

    def test_3d_constant_and_identity(self):
        x = np.full((8, 8, 8), 0.3)
        np.testing.assert_allclose(dft_downsample(x, (4, 4, 4)), 0.3, atol=1e-12)
        rng = np.random.default_rng(6)
        y = rng.random((6, 6, 6))
        np.testing.assert_allclose(dft_downsample(y, (6, 6, 6)), y, atol=1e-10)

    def test_shape_guard(self):
        with pytest.raises(InvalidShape):
            dft_downsample(np.zeros((8, 8)), (9, 8))
        with pytest.raises(InvalidShape):
            dft_downsample(np.zeros((8, 8)), (4,))


class TestDegrade:
    def test_constant_noiseless(self):
        x = np.full((12, 12), 0.42)
        np.testing.assert_allclose(degrade(x, 2, noise_std=0.0), 0.42, atol=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        x = rng.random((16, 16))
        np.testing.assert_array_equal(degrade(x, 2, seed=5), degrade(x, 2, seed=5))
        assert np.abs(degrade(x, 2, seed=5) - degrade(x, 2, seed=6)).max() > 0.0

    def test_noiseless_is_seed_independent(self):
        rng = np.random.default_rng(8)
        x = rng.random((16, 16))
        np.testing.assert_array_equal(
            degrade(x, 2, noise_std=0.0, seed=1), degrade(x, 2, noise_std=0.0, seed=2)
        )

    def test_matches_stage_composition(self):
        rng = np.random.default_rng(9)
        i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        x = 0.5 + 0.25 * np.sin(2 * np.pi * i / 64) * np.cos(2 * np.pi * j / 32)
        expected = dft_downsample(gauss_blur(x, 0.5), (32, 32))
        np.testing.assert_allclose(
            degrade(x, 2, noise_std=0.0), expected, atol=1e-12
        )

    def test_linearity_of_noiseless_operator(self):
        rng = np.random.default_rng(10)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        lhs = degrade(0.3 * a + 0.6 * b, 2, noise_std=0.0)
        rhs = 0.3 * degrade(a, 2, noise_std=0.0) + 0.6 * degrade(b, 2, noise_std=0.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_output_extents(self):
        assert degrade(np.zeros((10, 14)), 2, noise_std=0.0).shape == (5, 7)

    def test_divisibility_guard(self):
        with pytest.raises(InvalidShape):
            degrade(np.zeros((9, 8)), 2)

    @pytest.mark.parametrize("blur_std", [np.nan, np.inf])
    def test_non_finite_blur_std_is_rejected(self, blur_std):
        with pytest.raises(InvalidShape, match="blur std"):
            degrade(np.zeros((8, 8)), 2, blur_std=blur_std)

    @pytest.mark.parametrize("noise_std", [-0.1, np.nan, np.inf])
    def test_bad_noise_std_is_rejected(self, noise_std):
        with pytest.raises(InvalidParameter, match="noise std"):
            degrade(np.zeros((8, 8)), 2, noise_std=noise_std, seed=0)
