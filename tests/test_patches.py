import numpy as np
import pytest

import pcagmm.linalg as linalg_mod
from pcagmm.errors import InvalidParameter, InvalidShape, UncoveredPixel
from pcagmm.patches import (
    OverlapAdd,
    PatchGeometry,
    _spread,
    aggregate,
    extract_low,
    extract_pairs,
    low_patch_tiles,
    patch_weights,
)

GEOM2 = PatchGeometry(tau=4, q=2, dims=2)


class TestGeometry:
    def test_joint_dimension(self):
        assert GEOM2.n_joint == (2**2 + 1) * 4**2 == 80
        assert PatchGeometry(tau=4, q=2, dims=3).n_joint == (2**3 + 1) * 4**3

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidShape):
            PatchGeometry(tau=0, q=2, dims=2)
        with pytest.raises(InvalidShape):
            PatchGeometry(tau=4, q=1, dims=2)
        with pytest.raises(InvalidShape):
            PatchGeometry(tau=4, q=2, dims=4)


class TestExtractPairs:
    def test_exhaustive_grid(self):
        rng = np.random.default_rng(0)
        low = rng.random((8, 8))
        high = rng.random((16, 16))
        ps = extract_pairs(high, low, GEOM2)
        assert ps.count == 25  # (8 - 4 + 1)^2
        assert ps.data.shape == (25, 80)

    def test_layout_high_block_then_low_block(self):
        rng = np.random.default_rng(1)
        low = rng.random((8, 8))
        high = rng.random((16, 16))
        ps = extract_pairs(high, low, GEOM2)
        i = 7  # origin (1, 2)
        oy, ox = ps.origins[i]
        np.testing.assert_array_equal(
            ps.data[i, :64], high[2 * oy : 2 * oy + 8, 2 * ox : 2 * ox + 8].ravel()
        )
        np.testing.assert_array_equal(
            ps.data[i, 64:], low[oy : oy + 4, ox : ox + 4].ravel()
        )

    def test_single_patch_when_stride_spans_image(self):
        rng = np.random.default_rng(2)
        low = rng.random((8, 8))
        high = rng.random((16, 16))
        ps = extract_pairs(high, low, GEOM2, stride=8 - 4 + 1)
        assert ps.count == 1
        np.testing.assert_array_equal(ps.origins, [[0, 0]])

    def test_subsampling_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        low = rng.random((8, 8))
        high = rng.random((16, 16))
        a = extract_pairs(high, low, GEOM2, max_patches=10, seed=1)
        b = extract_pairs(high, low, GEOM2, max_patches=10, seed=1)
        c = extract_pairs(high, low, GEOM2, max_patches=10, seed=2)
        assert a.count == b.count == c.count == 10
        np.testing.assert_array_equal(a.origins, b.origins)
        assert not np.array_equal(a.origins, c.origins)
        # both subsets are valid grid origins
        for ps in (a, c):
            assert ps.origins.min() >= 0 and ps.origins.max() <= 4

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_count_formula(self, stride):
        rng = np.random.default_rng(4)
        low = rng.random((11, 9))
        high = rng.random((22, 18))
        ps = extract_pairs(high, low, GEOM2, stride=stride)
        expected = ((11 - 4) // stride + 1) * ((9 - 4) // stride + 1)
        assert ps.count == expected

    def test_low_block_matches_extract_low(self):
        rng = np.random.default_rng(5)
        low = rng.random((9, 8))
        high = rng.random((18, 16))
        pairs = extract_pairs(high, low, GEOM2)
        lows = extract_low(low, 4)
        by_origin = {tuple(o): row for o, row in zip(lows.origins, lows.data)}
        for origin, row in zip(pairs.origins, pairs.data):
            np.testing.assert_array_equal(row[64:], by_origin[tuple(origin)])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            extract_pairs(np.zeros((15, 16)), np.zeros((8, 8)), GEOM2)

    def test_3d_extraction(self):
        rng = np.random.default_rng(6)
        geom = PatchGeometry(tau=2, q=2, dims=3)
        low = rng.random((4, 4, 4))
        high = rng.random((8, 8, 8))
        ps = extract_pairs(high, low, geom, max_patches=5, seed=0)
        assert ps.data.shape == (5, (2**3 + 1) * 2**3)

    def test_every_row_matches_its_windows(self):
        # a subsample of the grid large enough for several blocks of rows
        rng = np.random.default_rng(7)
        geom = PatchGeometry(tau=2, q=2, dims=3)
        low = rng.random((12, 12, 12))
        high = rng.random((24, 24, 24))
        ps = extract_pairs(high, low, geom, max_patches=900, seed=3)
        assert ps.count == 900
        for origin, row in zip(ps.origins, ps.data):
            lo = tuple(slice(o, o + 2) for o in origin)
            hi = tuple(slice(2 * o, 2 * o + 4) for o in origin)
            np.testing.assert_array_equal(row[:64], high[hi].ravel())
            np.testing.assert_array_equal(row[64:], low[lo].ravel())

    def test_holds_no_second_copy_of_the_pairs(self, traced_peak):
        rng = np.random.default_rng(8)
        geom = PatchGeometry(tau=4, q=2, dims=3)
        low = rng.random((40, 40, 40))
        high = rng.random((80, 80, 80))
        ps, peak = traced_peak(
            lambda: extract_pairs(high, low, geom, max_patches=4000, seed=1)
        )
        assert peak <= 1.5 * ps.data.nbytes


class TestExtractLow:
    def test_whole_image_single_patch(self):
        x = np.arange(16.0).reshape(4, 4)
        ps = extract_low(x, 4)
        assert ps.count == 1
        np.testing.assert_array_equal(ps.data[0], x.ravel())

    def test_roundtrip_rewrite(self):
        x = np.random.default_rng(9).random((10, 12))
        ps = extract_low(x, 4)
        rebuilt = np.zeros_like(x)
        for origin, row in zip(ps.origins, ps.data):
            rebuilt[origin[0] : origin[0] + 4, origin[1] : origin[1] + 4] = row.reshape(4, 4)
        np.testing.assert_array_equal(rebuilt, x)


class TestAggregate:
    def test_single_patch_identity(self):
        rng = np.random.default_rng(10)
        patch = rng.random(64)
        out = aggregate(patch[None], np.zeros((1, 2), dtype=int), 8, 0.7, (8, 8))
        np.testing.assert_allclose(out, patch.reshape(8, 8), atol=1e-14)

    def test_zero_gamma_plain_average(self):
        rng = np.random.default_rng(11)
        values = rng.random((2, 4))
        origins = np.array([[0, 0], [0, 1]])
        out = aggregate(values, origins, 2, 0.0, (2, 3))
        a, b = values[0].reshape(2, 2), values[1].reshape(2, 2)
        np.testing.assert_allclose(out[:, 0], a[:, 0])
        np.testing.assert_allclose(out[:, 1], 0.5 * (a[:, 1] + b[:, 0]))
        np.testing.assert_allclose(out[:, 2], b[:, 1])

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 2.0])
    def test_constant_patches_give_constant(self, gamma):
        values = np.full((9, 16), 0.6)
        origins = np.stack(
            np.meshgrid(np.arange(3), np.arange(3), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        out = aggregate(values, origins, 4, gamma, (6, 6))
        np.testing.assert_allclose(out, 0.6, atol=1e-13)

    def test_order_invariance(self):
        rng = np.random.default_rng(12)
        values = rng.random((25, 16))
        origins = np.stack(
            np.meshgrid(np.arange(5), np.arange(5), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        out1 = aggregate(values, origins, 4, 0.3, (8, 8))
        perm = rng.permutation(25)
        out2 = aggregate(values[perm], origins[perm], 4, 0.3, (8, 8))
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_uncovered_pixel_raises(self):
        values = np.ones((1, 4))
        with pytest.raises(UncoveredPixel, match="covered by no patch"):
            aggregate(values, np.array([[0, 0]]), 2, 0.1, (4, 4))

    def test_underflowed_weights_are_named(self):
        # at gamma=1e3 the 6x6 weights are 0 except the central 2x2 block, so
        # the border of a fully covered output gets a zero denominator
        assert np.count_nonzero(patch_weights(6, 2, 1e3)) == 4
        origins = np.stack(
            np.meshgrid(np.arange(3), np.arange(3), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        with pytest.raises(UncoveredPixel, match="underflow") as err:
            aggregate(np.ones((9, 36)), origins, 6, 1e3, (8, 8))
        assert "covered by no patch" not in str(err.value)

    def test_footprint_guard(self):
        values = np.ones((1, 4))
        with pytest.raises(InvalidShape):
            aggregate(values, np.array([[3, 3]]), 2, 0.1, (4, 4))

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -50.0])
    def test_gamma_outside_range_is_rejected(self, gamma):
        with pytest.raises(InvalidParameter, match="gamma"):
            patch_weights(4, 2, gamma)
        ps = extract_low(np.random.default_rng(15).random((8, 8)), 4)
        with pytest.raises(InvalidParameter, match="gamma"):
            aggregate(ps.data, ps.origins, 4, gamma, (8, 8))

    def test_batches_sum_to_one_shot(self):
        rng = np.random.default_rng(16)
        ps = extract_low(rng.random((9, 11, 7)), 3)
        values = rng.random(ps.data.shape)
        acc = OverlapAdd((9, 11, 7), 3, 0.4)
        for rows in (slice(0, 5), slice(5, 5), slice(5, 83), slice(83, None)):
            acc.add(values[rows], ps.origins[rows])
        np.testing.assert_allclose(
            acc.finish(), aggregate(values, ps.origins, 3, 0.4, (9, 11, 7)), atol=1e-14
        )

    @pytest.mark.parametrize("out_dims", [(512, 512), (64, 64, 64)], ids=["2d", "3d"])
    def test_finish_holds_one_extra_output_array(self, out_dims, traced_peak):
        # patches tile the output exactly, so every sample is covered; finish
        # adds one slab of spread weights, _BLOCK_BYTES of rows and the
        # edge - 1 rows before them, and divides the sums in place
        edge = 8
        grid = np.meshgrid(*(np.arange(0, m, edge) for m in out_dims), indexing="ij")
        origins = np.stack([g.ravel() for g in grid], axis=1)
        acc = OverlapAdd(out_dims, edge, 0.3)
        acc.add(
            np.random.default_rng(17).random((len(origins), edge ** len(out_dims))),
            origins,
        )
        row = 8 * int(np.prod(out_dims[1:]))
        slab = (linalg_mod.block_rows(row) + edge - 1) * row
        out, peak = traced_peak(acc.finish)
        assert np.shares_memory(out, acc.num)
        assert peak <= slab + (64 << 10), (peak, slab)

    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    @pytest.mark.parametrize("out_dims", [(23, 17), (11, 9, 7)], ids=["2d", "3d"])
    def test_slabs_equal_one_shot_spread(self, out_dims, rows, monkeypatch):
        rng = np.random.default_rng(18)
        edge, gamma = 4, 0.3
        ps = extract_low(rng.random(out_dims), edge)
        keep = rng.random(ps.count) < 0.7  # uneven counts, every sample covered
        last = np.array(out_dims) - edge
        keep[np.all((ps.origins % edge == 0) | (ps.origins == last), axis=1)] = True
        acc = OverlapAdd(out_dims, edge, gamma)
        acc.add(rng.random((keep.sum(), edge ** len(out_dims))), ps.origins[keep])
        expected = acc.num / _spread(acc.count, patch_weights(edge, 1, gamma))
        if rows is not None:
            monkeypatch.setattr(
                linalg_mod, "_BLOCK_BYTES", rows * 8 * int(np.prod(out_dims[1:]))
            )
        assert np.array_equal(acc.finish(), expected)

    @pytest.mark.parametrize(
        "gamma, copies, message",
        [(0.3, 0, "covered by no patch"), (746.5, 1, "underflow")],
    )
    def test_zero_weight_in_a_middle_slab(self, gamma, copies, message, monkeypatch):
        # edge-3 patches tile a 21 x 9 output, 16 copies of each but the one
        # at (9, 3), which has `copies`. At gamma=746.5 a patch corner weighs
        # about 2^-1077: 0 for one patch, 2^-1073 for sixteen. Slabs of 3
        # rows put that patch in rows 9-11, and the halo rows 7-8 hold no
        # origin, so they are not covered within the slab
        origins = np.indices((7, 3)).reshape(2, -1).T * 3
        counts = np.where(np.all(origins == [9, 3], axis=1), copies, 16)
        acc = OverlapAdd((21, 9), 3, gamma)
        acc.add(np.ones((counts.sum(), 9)), np.repeat(origins, counts, axis=0))
        zeros = np.argwhere(_spread(acc.count, patch_weights(3, 1, gamma)) == 0.0)
        assert set(zeros[:, 0]) == ({9, 11} if copies else {9, 10, 11})
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", 3 * 8 * 9)
        with pytest.raises(UncoveredPixel, match=message) as err:
            acc.finish()
        if copies:
            assert "covered by no patch" not in str(err.value)

    @pytest.mark.parametrize("out_dims", [(13, 11), (9, 11, 7)], ids=["2d", "3d"])
    def test_chunked_add_equals_one_chunk(self, out_dims, monkeypatch):
        rng = np.random.default_rng(19)
        ps = extract_low(rng.random(out_dims), 3)
        values = rng.random((ps.count, 3 ** len(out_dims)))
        expected = aggregate(values, ps.origins, 3, 0.4, out_dims)
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", 7 * 8 * values.shape[1])
        got = aggregate(values, ps.origins, 3, 0.4, out_dims)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_weights_match_stated_formula(self):
        gamma, edge = 0.25, 6
        w = patch_weights(edge, 2, gamma)
        for k in range(1, edge + 1):
            for l in range(1, edge + 1):
                expected = np.exp(
                    -gamma / 2 * ((k - (edge + 1) / 2) ** 2 + (l - (edge + 1) / 2) ** 2)
                )
                assert w[k - 1, l - 1] == pytest.approx(expected, rel=1e-12)


class TestLowTiles:
    @pytest.mark.parametrize("size", [1, 7, 1000])
    def test_tiles_concatenate_to_extract_low(self, size):
        image = np.random.default_rng(17).random((6, 9, 5))
        full = extract_low(image, 3)
        tiles = list(low_patch_tiles(image, 3, size))
        assert all(t.count <= size for t in tiles)
        np.testing.assert_array_equal(np.concatenate([t.data for t in tiles]), full.data)
        np.testing.assert_array_equal(
            np.concatenate([t.origins for t in tiles]), full.origins
        )

    def test_extent_below_tau(self):
        with pytest.raises(InvalidShape):
            next(low_patch_tiles(np.zeros((3, 8)), 4, 10))


class TestPerfectReconstruction:
    def test_2d(self):
        rng = np.random.default_rng(13)
        image = rng.random((14, 17))
        ps = extract_low(image, 4)
        out = aggregate(ps.data, ps.origins, 4, 0.5, image.shape)
        np.testing.assert_allclose(out, image, atol=1e-12)

    def test_3d(self):
        rng = np.random.default_rng(14)
        volume = rng.random((7, 8, 9))
        ps = extract_low(volume, 3)
        out = aggregate(ps.data, ps.origins, 3, 0.2, volume.shape)
        np.testing.assert_allclose(out, volume, atol=1e-12)
