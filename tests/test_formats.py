import dataclasses
import struct

import numpy as np
import pytest

from pcagmm import cli
from pcagmm.errors import (
    CorruptHeader,
    InvalidParameter,
    InvalidShape,
    NotPositiveDefinite,
    UnsupportedFormat,
    VersionMismatch,
)
from pcagmm.formats import MODEL_KINDS, load_model, read_image, save_model, write_image
from pcagmm.gmm import GmmParams
from pcagmm.linalg import random_stiefel
from pcagmm.patches import PatchGeometry
from pcagmm.pca_gmm import PcaGmmModel


def random_pcagmm(rng, K, n, d):
    alpha = rng.uniform(0.1, 1.0, K)
    return PcaGmmModel(
        alpha=alpha / alpha.sum(),
        bases=np.stack(
            [random_stiefel(n, d, seed=int(rng.integers(1 << 30))) for _ in range(K)]
        ),
        offsets=rng.standard_normal((K, n)),
        variances=rng.uniform(1.0, 5.0, (K, d)),
        sigma=float(rng.uniform(0.01, 1.0)),
    )


def pgmm1_pcagmm_bytes(K=2, n=3, d=2):
    """A PGMM1 PCA-GMM file: per component a frame, an offset, a reduced mean
    and a full d x d reduced covariance."""
    header = f"kind=pcagmm K={K} n={n} d={d} sigma=0.1 q=2 tau=1 dims=2\n"
    component = np.concatenate(
        [np.eye(n)[:, :d].ravel(), np.zeros(n), np.zeros(d), np.eye(d).ravel()]
    )
    payload = np.concatenate([np.full(K, 1.0 / K), np.tile(component, K)])
    return b"PGMM1\n" + header.encode("ascii") + payload.astype("<f8").tobytes()


def random_gmm(rng, K, n):
    alpha = rng.uniform(0.1, 1.0, K)
    covs = np.empty((K, n, n))
    for k in range(K):
        A = rng.standard_normal((n, n))
        covs[k] = A @ A.T + np.eye(n)
    return GmmParams(
        alpha=alpha / alpha.sum(), means=rng.standard_normal((K, n)), covs=covs
    )


class TestPgm:
    def test_full_scale_reads_as_one(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
        np.testing.assert_array_equal(read_image(path), [[1.0, 0.0]])

    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.random((9, 7))
        path = tmp_path / "x.pgm"
        write_image(path, image)
        assert np.abs(read_image(path) - image).max() <= 0.5 / 255 + 1e-12

    def test_sixteen_bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.random((5, 6))
        path = tmp_path / "x.pgm"
        write_image(path, image, maxval=65535)
        assert np.abs(read_image(path) - image).max() <= 0.5 / 65535 + 1e-15

    def test_write_clips(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_image(path, np.array([[-0.5, 1.5]]))
        np.testing.assert_array_equal(read_image(path), [[0.0, 1.0]])

    def test_write_holds_one_float_scratch(self, tmp_path, traced_peak):
        # the clipped, scaled and rounded copy, and the 8-bit samples
        image = 1.2 * np.random.default_rng(3).random((512, 512)) - 0.1
        path = tmp_path / "x.pgm"
        _, peak = traced_peak(write_image, path, image)
        assert peak <= 1.2 * image.nbytes, peak
        expected = np.rint(np.clip(image, 0.0, 1.0) * 255).astype("u1")
        assert path.read_bytes().endswith(expected.tobytes())

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_strided_images_write_in_raster_order(self, tmp_path, maxval):
        image = np.random.default_rng(4).random((6, 10))
        path = tmp_path / "x.pgm"
        for view in (image[:, ::2], np.asfortranarray(image), image.T):
            write_image(path, view, maxval=maxval)
            assert np.abs(read_image(path) - view).max() <= 0.5 / maxval + 1e-12

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 2\t1 \n255\n" + bytes([7, 9]))
        img = read_image(path)
        assert img.shape == (1, 2)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(CorruptHeader):
            read_image(path)

    @pytest.mark.parametrize("extents", [b"0 4", b"4 0", b"0 0", b"-2 -2"])
    def test_zero_extent(self, tmp_path, extents):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + extents + b"\n255\n")
        with pytest.raises(CorruptHeader, match="below 1"):
            read_image(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(UnsupportedFormat):
            read_image(path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(b"whatever")
        with pytest.raises(UnsupportedFormat):
            read_image(path)


class TestVolume:
    def test_float64_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        volume = rng.random((3, 4, 5))
        path = tmp_path / "v.vol"
        write_image(path, volume)
        np.testing.assert_array_equal(read_image(path), volume)

    def test_float64_write_copies_nothing(self, tmp_path, traced_peak):
        volume = np.random.default_rng(5).random((64, 64, 64))
        path = tmp_path / "v.vol"
        _, peak = traced_peak(write_image, path, volume)
        assert peak < 0.1 * volume.nbytes, peak
        np.testing.assert_array_equal(read_image(path), volume)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "u1", "<u2"])
    def test_strided_volumes_write_in_raster_order(self, tmp_path, dtype):
        volume = np.random.default_rng(6).random((4, 6, 10))
        path = tmp_path / "v.vol"
        for view in (volume[:, :, ::2], np.asfortranarray(volume), volume.T):
            write_image(path, view, vol_dtype=dtype)
            expected = np.asarray(view, dtype=dtype)
            if expected.dtype.kind == "u":
                expected = np.rint(view * np.iinfo(dtype).max).astype(dtype)
            np.testing.assert_array_equal(
                np.frombuffer(path.read_bytes()[20:], dtype=dtype), expected.ravel()
            )

    def test_integer_scaling(self, tmp_path):
        path = tmp_path / "v.vol"
        write_image(path, np.full((2, 2, 2), 1.0), vol_dtype="u1")
        np.testing.assert_array_equal(read_image(path), 1.0)
        write_image(path, np.full((2, 2, 2), 1.0), vol_dtype="<u2")
        np.testing.assert_array_equal(read_image(path), 1.0)

    def test_layout_x_fastest(self, tmp_path):
        volume = np.arange(24.0).reshape(2, 3, 4)  # (nz, ny, nx)
        path = tmp_path / "v.vol"
        write_image(path, volume)
        raw = path.read_bytes()
        assert raw[:4] == b"VOL1"
        nx, ny, nz = np.frombuffer(raw[4:16], dtype="<u4")
        assert (nx, ny, nz) == (4, 3, 2)
        payload = np.frombuffer(raw[20:], dtype="<f8")
        np.testing.assert_array_equal(payload[:4], volume[0, 0, :])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.vol"
        write_image(path, np.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptHeader):
            read_image(path)

    @pytest.mark.parametrize("extents", [(0, 3, 2), (4, 0, 2), (4, 3, 0)])
    def test_zero_extent(self, tmp_path, extents):
        path = tmp_path / "v.vol"
        path.write_bytes(b"VOL1" + struct.pack("<4I", *extents, 1))
        with pytest.raises(CorruptHeader, match="zero"):
            read_image(path)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples(self, tmp_path, dtype, value):
        volume = np.zeros((2, 3, 4))
        volume[1, 2, 0] = value
        path = tmp_path / "v.vol"
        write_image(path, volume, vol_dtype=dtype)
        with pytest.raises(CorruptHeader, match="NaN or infinite"):
            read_image(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "v.vol"
        path.write_bytes(b"VOL9" + bytes(16))
        with pytest.raises(UnsupportedFormat):
            read_image(path)


@pytest.mark.parametrize(
    "name, shape", [("x.pgm", (4, 0)), ("x.pgm", (0, 0)), ("v.vol", (2, 0, 3))]
)
def test_write_rejects_zero_extent(tmp_path, name, shape):
    # both readers reject a zero extent, so the writer must not produce one
    path = tmp_path / name
    with pytest.raises(InvalidShape, match="extents"):
        write_image(path, np.zeros(shape))
    assert not path.exists()


class TestModelFile:
    def test_pcagmm_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        model = random_pcagmm(rng, 2, 5, 2)
        geom = PatchGeometry(tau=4, q=2, dims=2)
        path = tmp_path / "m.pgmm"
        save_model(path, model, geom)
        loaded, loaded_geom = load_model(path)
        assert isinstance(loaded, PcaGmmModel)
        assert loaded_geom == geom
        assert loaded.sigma == model.sigma
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        np.testing.assert_array_equal(loaded.bases, model.bases)
        np.testing.assert_array_equal(loaded.offsets, model.offsets)
        np.testing.assert_array_equal(loaded.variances, model.variances)

    @pytest.mark.parametrize("kind", ["gmm", "pcagmm"])
    def test_save_load_save_is_byte_identical(self, tmp_path, kind):
        rng = np.random.default_rng(10)
        model = random_gmm(rng, 3, 4) if kind == "gmm" else random_pcagmm(rng, 3, 6, 2)
        first, second = tmp_path / "a.pgmm", tmp_path / "b.pgmm"
        save_model(first, model, PatchGeometry(tau=2, q=2, dims=3))
        save_model(second, *load_model(first))
        assert first.read_bytes()[:6] == b"PGMM2\n"
        assert second.read_bytes() == first.read_bytes()

    def test_pgmm1_pcagmm_file_must_be_retrained(self, tmp_path):
        path = tmp_path / "old.pgmm"
        path.write_bytes(pgmm1_pcagmm_bytes())
        with pytest.raises(VersionMismatch, match="retrain"):
            load_model(path)

    @pytest.mark.parametrize("command", ["superres", "inspect"])
    def test_pgmm1_pcagmm_file_exits_3_asking_to_retrain(self, tmp_path, capsys, command):
        model = tmp_path / "old.pgmm"
        model.write_bytes(pgmm1_pcagmm_bytes())
        low = tmp_path / "low.pgm"
        write_image(low, np.full((4, 4), 0.5))
        argv = {
            "superres": ["superres", "--low", low, "--model", model,
                         "--output", tmp_path / "o.pgm"],
            "inspect": ["inspect", "--model", model],
        }[command]
        assert cli.main([str(a) for a in argv]) == 3
        assert "retrain" in capsys.readouterr().err
        assert not (tmp_path / "o.pgm").exists()

    def test_pgmm1_gmm_file_loads_to_the_same_arrays(self, tmp_path):
        # the gmm payload is the same in both versions
        model = random_gmm(np.random.default_rng(11), 2, 3)
        path = tmp_path / "old.pgmm"
        save_model(path, model, PatchGeometry(tau=1, q=2, dims=2))
        path.write_bytes(b"PGMM1\n" + path.read_bytes()[6:])
        loaded, geom = load_model(path)
        assert geom == PatchGeometry(tau=1, q=2, dims=2)
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.covs, model.covs)

    def test_gmm_roundtrip_and_smaller_file(self, tmp_path):
        rng = np.random.default_rng(4)
        gmm_path, pca_path = tmp_path / "g.pgmm", tmp_path / "p.pgmm"
        save_model(gmm_path, random_gmm(rng, 2, 5))
        save_model(pca_path, random_pcagmm(rng, 2, 5, 5))
        loaded, geom = load_model(gmm_path)
        assert isinstance(loaded, GmmParams)
        assert geom is None
        assert gmm_path.stat().st_size < pca_path.stat().st_size

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", np.array([5.0, -4.0]), "simplex"),
            ("sigma", -1.0, "sigma"),
            ("bases", np.full((2, 5, 2), 0.5), "orthonormal"),
            ("sigma", 1e-300, "sigma"),  # sigma**2 underflows to 0
            ("sigma", 1e200, "sigma"),  # sigma**2 overflows
        ],
    )
    def test_invariant_violations_are_corrupt(self, tmp_path, field, value, message):
        model = random_pcagmm(np.random.default_rng(6), 2, 5, 2)
        setattr(model, field, value)
        path = tmp_path / "m.pgmm"
        save_model(path, model)
        with pytest.raises(CorruptHeader, match=message):
            load_model(path)

    @pytest.mark.parametrize("kind", ["gmm", "pcagmm"])
    def test_covariance_that_factors_only_after_a_shift_is_corrupt(
        self, tmp_path, kind
    ):
        # a zero covariance and diag(1, -1e-7) both factor once shifted by
        # 1e-6 times their mean diagonal; neither is positive definite
        rng = np.random.default_rng(9)
        if kind == "gmm":
            model = random_gmm(rng, 2, 5)
            model.covs[1] = 0.0
        else:
            model = random_pcagmm(rng, 2, 5, 2)
            model.variances[1] = [1.0, -1e-7]
        message = "covariance 1 is not positive definite" if kind == "gmm" else "variance"
        with pytest.raises(NotPositiveDefinite, match=message):
            model.validate()
        path = tmp_path / "m.pgmm"
        save_model(path, model)
        with pytest.raises(CorruptHeader, match="not positive"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("pcagmm", "variances", np.nan),
            ("pcagmm", "offsets", np.inf),
            ("pcagmm", "sigma", np.inf),
            ("gmm", "means", np.nan),
        ],
    )
    def test_non_finite_parameters_are_rejected(self, tmp_path, kind, field, value):
        rng = np.random.default_rng(8)
        if kind == "pcagmm":
            model = random_pcagmm(rng, 2, 5, 2)
        else:
            model = random_gmm(rng, 2, 5)
        if field == "sigma":
            model.sigma = value
        else:
            getattr(model, field)[1, 0] = value
        with pytest.raises(InvalidParameter, match="finite"):
            model.validate()
        path = tmp_path / "m.pgmm"
        save_model(path, model)
        with pytest.raises(CorruptHeader, match="finite"):
            load_model(path)

    def test_header_extents_below_one(self, tmp_path):
        # K + K * per_comp is 0 here, so the empty payload fits the header
        path = tmp_path / "m.pgmm"
        path.write_bytes(
            b"PGMM2\nkind=pcagmm K=-1 n=-1 d=0 sigma=0.1 q=0 tau=0 dims=0\n"
        )
        with pytest.raises(CorruptHeader, match="below 1"):
            load_model(path)

    def test_header_is_one_readable_line(self, tmp_path):
        path = tmp_path / "m.pgmm"
        save_model(path, random_gmm(np.random.default_rng(5), 1, 3))
        raw = path.read_bytes()
        assert raw[:6] == b"PGMM2\n"
        line = raw[6 : raw.index(b"\n", 6)].decode("ascii")
        assert line.startswith("kind=gmm K=1 n=3 d=3 sigma=0.0")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.pgmm"
        save_model(path, random_gmm(np.random.default_rng(6), 1, 3))
        raw = bytearray(path.read_bytes())
        raw[4:5] = b"9"
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_alien_magic(self, tmp_path):
        path = tmp_path / "m.pgmm"
        path.write_bytes(b"NOPE!\n")
        with pytest.raises(CorruptHeader):
            load_model(path)

    @pytest.mark.parametrize("change", [-1, -3, -8, 5])
    def test_payload_length_check(self, tmp_path, change):
        # the byte count is compared before the payload is decoded as float64
        path = tmp_path / "m.pgmm"
        save_model(path, random_gmm(np.random.default_rng(7), 2, 4))
        raw = path.read_bytes()
        path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(CorruptHeader, match="payload length"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, order",
        [("pcagmm", ["bases", "offsets", "variances"]), ("gmm", ["means", "covs"])],
    )
    def test_layout_alpha_then_components(self, tmp_path, kind, order):
        rng = np.random.default_rng(9)
        K = 3
        if kind == "pcagmm":
            model = random_pcagmm(rng, K, 4, 2)
        else:
            model = random_gmm(rng, K, 4)
        start = 0.0
        for name in ["alpha", *order]:
            shape = getattr(model, name).shape
            size = int(np.prod(shape))
            setattr(model, name, np.arange(start, start + size).reshape(shape))
            start += size
        path = tmp_path / "m.pgmm"
        save_model(path, model)
        raw = path.read_bytes()
        payload = np.frombuffer(raw[raw.index(b"\n", 6) + 1 :], dtype="<f8")
        expected = [model.alpha] + [
            getattr(model, name)[k].ravel() for k in range(K) for name in order
        ]
        np.testing.assert_array_equal(payload, np.concatenate(expected))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_roundtrips(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        K = int(rng.integers(1, 5))
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        path = tmp_path / "m.pgmm"
        if seed % 2:
            model = random_pcagmm(rng, K, n, d)
            save_model(path, model, PatchGeometry(tau=2, q=2, dims=2))
            loaded, _ = load_model(path)
            np.testing.assert_array_equal(loaded.bases, model.bases)
            np.testing.assert_array_equal(loaded.variances, model.variances)
            assert loaded.sigma == model.sigma
        else:
            model = random_gmm(rng, K, n)
            save_model(path, model)
            loaded, _ = load_model(path)
            np.testing.assert_array_equal(loaded.means, model.means)
            np.testing.assert_array_equal(loaded.covs, model.covs)
        np.testing.assert_array_equal(loaded.alpha, model.alpha)


def test_model_kinds_name_every_dataclass_field():
    # a model field without a table entry would be dropped from the file
    for kind, (cls, layout) in MODEL_KINDS.items():
        fields = {f.name for f in dataclasses.fields(cls)} - {"alpha", "sigma"}
        assert set(layout) == fields, kind
        assert set("".join(layout.values())) <= {"n", "d"}, kind
