"""File formats: binary PGM for 2D images, a raw volume container for 3D,
and the mixture-model container.

Intensities are [0, 1] floats in memory. Integer image formats scale by
their maximum sample value; writes clip to [0, 1] before quantization.
"""

import dataclasses
import math
import struct

import numpy as np

from .errors import (
    CorruptHeader,
    InvalidParameter,
    InvalidShape,
    NotPositiveDefinite,
    UnsupportedFormat,
    VersionMismatch,
)
from .gmm import GmmParams
from .patches import PatchGeometry
from .pca_gmm import PcaGmmModel

MODEL_MAGIC = b"PGMM2\n"
VOLUME_MAGIC = b"VOL1"
_VOL_DTYPES = {0: "<f4", 1: "<f8", 2: "u1", 3: "<u2"}
_VOL_CODES = {np.dtype(v): k for k, v in _VOL_DTYPES.items()}

# Each model kind's class and its per-component fields in payload order, with
# their extents in the header's n and d. The payload is alpha (K), then each
# component's fields in this order. A class's other dataclass fields are alpha
# and, for PCA-GMM, sigma, which travels in the header.
MODEL_KINDS = {
    "pcagmm": (
        PcaGmmModel,
        {"bases": "nd", "offsets": "n", "variances": "d"},
    ),
    "gmm": (GmmParams, {"means": "n", "covs": "nn"}),
}


# ---------------------------------------------------------------- images


def _parse_pgm(raw):
    if raw[:2] != b"P5":
        raise UnsupportedFormat("not a binary PGM (P5) file")
    pos, fields = 2, []
    while len(fields) < 3:
        if pos >= len(raw):
            raise CorruptHeader("truncated PGM header")
        c = raw[pos : pos + 1]
        if c == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            fields.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise CorruptHeader("non-numeric PGM header field") from exc
    if not 1 <= maxval <= 65535:
        raise CorruptHeader(f"PGM maxval {maxval} out of range")
    if min(width, height) < 1:
        raise CorruptHeader(f"PGM extents {width}x{height} are below 1")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    payload = raw[pos : pos + count * dtype.itemsize]
    if len(payload) != count * dtype.itemsize:
        raise CorruptHeader("truncated PGM payload")
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return data.astype(float) / maxval


def _quantized(image, maxval, dtype):
    """image clipped to [0, 1], scaled and rounded in one float scratch array."""
    scaled = np.clip(image, 0.0, 1.0)
    scaled *= maxval
    return np.rint(scaled, out=scaled).astype(dtype, order="C")


def _write_pgm(path, image, maxval):
    if image.ndim != 2:
        raise InvalidShape("PGM stores 2D images only")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    quantized = _quantized(image, maxval, dtype)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (image.shape[1], image.shape[0], maxval))
        fh.write(memoryview(quantized))


def _parse_volume(raw):
    if raw[:4] != VOLUME_MAGIC:
        raise UnsupportedFormat("not a VOL1 volume file")
    if len(raw) < 20:
        raise CorruptHeader("truncated VOL1 header")
    nx, ny, nz, code = struct.unpack("<4I", raw[4:20])
    if code not in _VOL_DTYPES:
        raise CorruptHeader(f"unknown VOL1 dtype code {code}")
    if 0 in (nx, ny, nz):
        raise CorruptHeader(f"VOL1 extents {nx}x{ny}x{nz} include a zero")
    dtype = np.dtype(_VOL_DTYPES[code])
    count = nx * ny * nz
    payload = raw[20:]
    if len(payload) != count * dtype.itemsize:
        raise CorruptHeader("VOL1 payload length does not match the extents")
    data = np.frombuffer(payload, dtype=dtype).reshape(nz, ny, nx)
    if dtype.kind == "u":
        return data.astype(float) / np.iinfo(dtype).max
    if not np.isfinite(data).all():
        raise CorruptHeader("VOL1 float payload holds NaN or infinite samples")
    return data.astype(float)


def _write_volume(path, volume, dtype):
    if volume.ndim != 3:
        raise InvalidShape("VOL1 stores 3D volumes only")
    dtype = np.dtype(dtype)
    if dtype not in _VOL_CODES:
        raise UnsupportedFormat(f"unsupported VOL1 dtype {dtype}")
    if dtype.kind == "u":
        data = _quantized(volume, np.iinfo(dtype).max, dtype)
    else:
        data = np.ascontiguousarray(volume, dtype)
    nz, ny, nx = volume.shape
    with open(path, "wb") as fh:
        fh.write(VOLUME_MAGIC)
        fh.write(struct.pack("<4I", nx, ny, nz, _VOL_CODES[dtype]))
        fh.write(memoryview(data))


def read_image(path):
    """Load a .pgm image or .vol volume as a float array in [0, 1]."""
    path = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".pgm"):
        return _parse_pgm(raw)
    if path.endswith(".vol"):
        return _parse_volume(raw)
    raise UnsupportedFormat(f"unknown image extension in {path!r}")


def write_image(path, image, maxval=255, vol_dtype="<f8"):
    """Write a 2D image to .pgm (clipped and quantized) or a 3D volume to
    .vol (float64 by default, hence lossless). Both readers reject a zero
    extent, so an empty image is rejected before the file is opened."""
    path = str(path)
    image = np.asarray(image, dtype=float)
    if 0 in image.shape:
        raise InvalidShape(f"cannot write an image with extents {image.shape}")
    if path.endswith(".pgm"):
        _write_pgm(path, image, maxval)
    elif path.endswith(".vol"):
        _write_volume(path, image, vol_dtype)
    else:
        raise UnsupportedFormat(f"unknown image extension in {path!r}")


# ---------------------------------------------------------------- models


def _kind(model):
    for kind, (cls, _) in MODEL_KINDS.items():
        if isinstance(model, cls):
            return kind
    raise InvalidShape(f"unsupported model type {type(model).__name__}")


def model_header(model, geom=None):
    """The model-file header line of a model and its patch geometry, without the
    newline; `pcagmm inspect` prints it as its first line."""
    d = getattr(model, "reduced_dim", model.dim)
    sigma = float(getattr(model, "sigma", 0.0))
    q, tau, dims = (geom.q, geom.tau, geom.dims) if geom is not None else (0, 0, 0)
    return (
        f"kind={_kind(model)} K={model.n_components} n={model.dim} d={d} "
        f"sigma={sigma!r} q={q} tau={tau} dims={dims}"
    )


def save_model(path, model, geom=None):
    """Serialize a mixture model with its patch geometry.

    Little-endian float64 payload after a human-readable key=value header
    line; the round trip is bit exact.
    """
    K = model.n_components
    arrays = [getattr(model, name) for name in MODEL_KINDS[_kind(model)][1]]
    rows = np.hstack([np.asarray(a, dtype="<f8").reshape(K, -1) for a in arrays])
    payload = np.concatenate([np.asarray(model.alpha, dtype="<f8"), rows.ravel()])
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + model_header(model, geom).encode("ascii") + b"\n")
        fh.write(payload.tobytes())


def load_model(path):
    """Deserialize (model, geometry); geometry is None when the file was
    saved without one."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pgmm1 = raw[:6] == b"PGMM1\n"  # differs from PGMM2 only in the pcagmm fields
    if raw[:6] != MODEL_MAGIC and not pgmm1:
        if raw[:4] == MODEL_MAGIC[:4]:
            raise VersionMismatch(f"unsupported model magic {raw[:6]!r}")
        raise CorruptHeader("not a mixture-model file")
    newline = raw.find(b"\n", 6)
    if newline < 0:
        raise CorruptHeader("missing model header line")
    try:
        fields = dict(
            item.split("=", 1) for item in raw[6:newline].decode("ascii").split()
        )
        kind = fields["kind"]
        K, n, d = int(fields["K"]), int(fields["n"]), int(fields["d"])
        sigma = float(fields["sigma"])
        q, tau, dims = int(fields["q"]), int(fields["tau"]), int(fields["dims"])
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise CorruptHeader("malformed model header line") from exc
    if kind not in MODEL_KINDS:
        raise CorruptHeader(f"unknown model kind {kind!r}")
    if pgmm1 and kind != "gmm":
        raise VersionMismatch(f"{kind} model file in the old PGMM1 layout; retrain it")
    if min(K, n, d) < 1:
        raise CorruptHeader(f"model header extents K={K} n={n} d={d} are below 1")
    cls, layout = MODEL_KINDS[kind]
    extent = {"n": n, "d": d}
    shapes = {name: [extent[axis] for axis in axes] for name, axes in layout.items()}
    sizes = [math.prod(shape) for shape in shapes.values()]
    body = raw[newline + 1 :]
    if len(body) != 8 * K * (1 + sum(sizes)):
        raise CorruptHeader("model payload length does not match the header")

    payload = np.frombuffer(body, dtype="<f8")
    parts = np.split(payload[K:].reshape(K, -1), np.cumsum(sizes)[:-1], axis=1)
    values = {
        name: part.reshape(K, *shape).copy()
        for (name, shape), part in zip(shapes.items(), parts)
    }
    values.update(alpha=payload[:K].copy(), sigma=sigma)
    model = cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)})
    geom = PatchGeometry(tau=tau, q=q, dims=dims) if q else None
    return _validated(model), geom


def _validated(model):
    try:
        model.validate()
    except (InvalidParameter, NotPositiveDefinite) as exc:
        raise CorruptHeader(f"model file fails parameter invariants: {exc}") from exc
    return model
