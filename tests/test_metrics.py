import numpy as np
import pytest

from pcagmm.errors import InvalidShape
from pcagmm.metrics import bicubic_upsample, nearest_upsample, psnr


class TestPsnr:
    def test_identical_is_infinite(self):
        x = np.random.default_rng(0).random((5, 5))
        assert psnr(x, x) == float("inf")

    def test_constant_offset(self):
        ref = np.full((8, 8), 0.4)
        assert psnr(ref, ref + 0.1) == pytest.approx(20.0, abs=1e-12)

    def test_delta_identity(self):
        rng = np.random.default_rng(1)
        ref = rng.random((6, 7)) * 0.5
        for delta in (0.01, 0.2):
            assert psnr(ref, ref + delta) == pytest.approx(
                10 * np.log10(1 / delta**2), abs=1e-10
            )

    def test_against_naive_two_loop_mse(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        mse = 0.0
        for i in range(6):
            for j in range(6):
                mse += (a[i, j] - b[i, j]) ** 2
        mse /= 36
        assert psnr(a, b) == pytest.approx(10 * np.log10(1 / mse), abs=1e-10)

    def test_shape_guard(self):
        with pytest.raises(InvalidShape):
            psnr(np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(0,), (4, 0), (0, 3, 2)])
    def test_empty_inputs(self, shape):
        with pytest.raises(InvalidShape, match="empty"):
            psnr(np.zeros(shape), np.zeros(shape))


class TestBicubic:
    def test_constant(self):
        out = bicubic_upsample(np.full((5, 4), 0.3), 2)
        assert out.shape == (10, 8)
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_reproduces_linear_ramp_in_interior(self):
        m, q = 16, 2
        ramp = np.outer(np.arange(m, dtype=float), np.ones(m)) / m
        out = bicubic_upsample(ramp, q)
        o = np.arange(m * q)
        src = (o + 0.5) / q - 0.5
        expected = np.outer(src, np.ones(m * q)) / m
        interior = slice(2 * q, -2 * q)
        np.testing.assert_allclose(out[interior, interior], expected[interior, interior], atol=1e-10)

    def test_2d_only(self):
        with pytest.raises(InvalidShape):
            bicubic_upsample(np.zeros((4, 4, 4)), 2)


class TestNearest:
    def test_single_pixel(self):
        np.testing.assert_array_equal(
            nearest_upsample(np.array([[0.7]]), 2), np.full((2, 2), 0.7)
        )

    def test_factor_one_is_identity(self):
        x = np.random.default_rng(3).random((4, 5))
        np.testing.assert_array_equal(nearest_upsample(nearest_upsample(x, 2), 1),
                                      nearest_upsample(x, 2))

    def test_block_structure_3d(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        out = nearest_upsample(x, 2)
        assert out.shape == (4, 4, 4)
        assert np.all(out[0:2, 0:2, 0:2] == x[0, 0, 0])
