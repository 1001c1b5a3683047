"""The one file format of everything the pipeline writes and reads back.

A file is the magic bytes ``CTRLROM1``, a little-endian ``uint32`` header
length, a UTF-8 JSON header ``{"kind", "meta", "arrays": [[name, shape],
...]}``, then the arrays as raw little-endian float64 in header order
(row-major).  ``kind`` names what the file holds (``basis``,
``training_data`` or a regressor kind), ``meta`` its scalar settings.
``read`` checks the header, that the payload holds exactly the bytes the
shapes promise and that no number, in the meta or in an array, is a NaN or
an infinity, so a truncated, extended or non-finite file of any kind raises
instead of loading as different numbers.  Each kind's loader checks what
its values must be beyond that.
"""

import json
import math
import struct

import numpy as np

MAGIC = b"CTRLROM1"
_LENGTH = struct.Struct("<I")


def is_real(value):
    """Whether a header value is a JSON number: an ``int`` or ``float``, not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def write(path, kind, meta, arrays):
    """Write ``arrays`` (name -> array) under a header of ``kind`` and ``meta``."""
    arrays = {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()}
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_LENGTH.pack(len(blob)))
        fh.write(blob)
        for a in arrays.values():
            fh.write(a.tobytes())


def read(path, *kinds):
    """Read a file written by ``write`` whose kind is one of ``kinds``.

    Returns ``(kind, meta, arrays)`` with arrays as a name -> float64 array
    dict in header order.  Raises ``ValueError`` naming the file when it is
    not such a file, holds another kind, lists an array shape that is not a
    list of non-negative integers, its payload is not exactly the arrays
    its header lists, or a meta number or an array entry is a NaN or an
    infinity (naming the value or the array).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(MAGIC) + _LENGTH.size
    if data[: len(MAGIC)] != MAGIC or len(data) < start:
        raise ValueError(f"{path}: not a ctrlrom file")
    (size,) = _LENGTH.unpack_from(data, len(MAGIC))
    if len(data) < start + size:
        raise ValueError(f"{path}: file ends inside its {size}-byte header")
    try:
        header = json.loads(data[start : start + size].decode("utf-8"))
        kind, meta, listed = header["kind"], header["meta"], header["arrays"]
        shapes = [(str(name), shape) for name, shape in listed]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers decoding errors
        raise ValueError(f"{path}: malformed header ({exc})") from None
    if kind not in kinds:
        raise ValueError(f"{path}: holds a {kind!r} record, expected {' or '.join(kinds)}")
    names = {name for name, _ in shapes}
    if not isinstance(meta, dict) or len(names) < len(shapes) or not all(
        isinstance(shape, list) and all(is_real(d) and isinstance(d, int) and d >= 0 for d in shape)
        for _, shape in shapes
    ):
        raise ValueError(f"{path}: malformed header")
    for name, value in meta.items():
        if is_real(value) and not math.isfinite(value):
            raise ValueError(f"{path}: meta value {name} = {value!r} is not finite")
    counts = [math.prod(shape) for _, shape in shapes]
    payload = len(data) - start - size
    if payload != 8 * sum(counts):
        raise ValueError(
            f"{path}: payload holds {payload} bytes, its header promises {8 * sum(counts)}"
        )
    arrays, offset = {}, start + size
    for (name, shape), count in zip(shapes, counts):
        flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(flat).all():
            raise ValueError(f"{path}: array {name} holds a NaN or an infinity")
        arrays[name] = flat.reshape(shape).astype(float)
        offset += 8 * count
    return kind, meta, arrays
