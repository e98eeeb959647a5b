"""PLE1: a little-endian binary container for one embedding dataset.

Layout, in order, everything little-endian:

    magic            4 bytes, b"PLE1"
    version          u16 (currently 1)
    d, n, C          u32 each
    features         n * d float32, row-major
    labels           n int32, -1 = unlabeled
    ids              n uint64
    class names      C strings, each u16 byte length + UTF-8 bytes
    base_prototypes  C * d float32, row-major

Values are float64 in memory and float32 on disk. On read, row norms are
checked: drift up to core.NORM_TOLERANCE (1e-5), the most EmbeddingSet
accepts, is kept as stored (so write -> read -> write is byte-identical),
drift in (1e-5, 1e-3] is re-normalized, anything worse is an error.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress
from typing import Tuple

import numpy as np

from .core import NORM_TOLERANCE, UNLABELED, ClassSpace, EmbeddingSet, index_vector, max_norm_drift, unit_normalize

MAGIC = b"PLE1"
VERSION = 1

MAX_DRIFT = 1e-3


@contextmanager
def replacing(path: str, mode: str = "w", **open_kwargs):
    """Handle on a temporary file in path's directory, opened with ``mode``
    and ``open_kwargs``, that replaces ``path`` when the block completes. If
    the block raises, ``path`` is left as it was and the temporary file is
    removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_ple(path: str, data: EmbeddingSet, space: ClassSpace) -> None:
    """Serialize one embedding set plus its class space.

    Every input is checked before the file is touched, and the file is
    replaced only once it is written in full, so a failed write leaves an
    existing file at ``path`` as it was.
    """
    if data.d != space.d:
        raise ValueError("embedding and prototype dimensions differ")
    names = []
    for name in space.class_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"class name too long to serialize: {name[:32]}...")
        names.append(struct.pack("<H", len(raw)) + raw)
    with replacing(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<HIII", VERSION, data.d, data.n, space.C))
        for arr, dtype in ((data.features, "<f4"), (data.labels, "<i4"), (data.ids, "<u8")):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        fh.write(b"".join(names))
        fh.write(np.ascontiguousarray(space.base_prototypes, dtype="<f4").tobytes())


def _check_norms(mat: np.ndarray, what: str) -> np.ndarray:
    drift = max_norm_drift(mat)
    if drift > MAX_DRIFT:
        raise ValueError(f"{what} norm drift {drift:.3g} exceeds {MAX_DRIFT}")
    if drift > NORM_TOLERANCE:
        return unit_normalize(mat)
    return mat


def read_ple(path: str) -> Tuple[EmbeddingSet, ClassSpace]:
    """Load a PLE1 file back into (EmbeddingSet, ClassSpace). A label that is
    neither a class index below C nor the -1 sentinel is refused:
    ``labels must lie in [-1, C), got c`` names the first."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 6 or buf[:4] != MAGIC:
        raise ValueError("not a PLE1 file: bad magic")
    offset = 4

    def field(dtype: str, count: int) -> np.ndarray:
        """The next ``count`` values of ``dtype``: a read-only view of buf."""
        nonlocal offset
        end = offset + np.dtype(dtype).itemsize * count
        if end > len(buf):
            raise ValueError("not a PLE1 file: truncated payload")
        values = np.frombuffer(buf, dtype, count, offset)
        offset = end
        return values

    version = int(field("<u2", 1)[0])
    if version != VERSION:
        raise ValueError(f"not a PLE1 file: unsupported version {version}")
    d, n, C = (int(v) for v in field("<u4", 3))
    if d < 1 or n < 1 or C < 1:
        raise ValueError("not a PLE1 file: empty dimensions")

    features = field("<f4", n * d).astype(np.float64).reshape(n, d)
    labels = field("<i4", n).astype(np.int64)
    # A copy, so the loaded set does not keep the whole file buffer alive.
    ids = field("<u8", n).copy()
    names = []
    for c in range(C):
        raw = bytes(field("u1", int(field("<u2", 1)[0])))
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise ValueError(f"not a PLE1 file: class name {c} is not valid UTF-8") from None
    prototypes = field("<f4", C * d).astype(np.float64).reshape(C, d)
    if offset != len(buf):
        raise ValueError("not a PLE1 file: trailing bytes after payload")
    index_vector(labels, "labels", lo=UNLABELED, hi=C)

    features = _check_norms(features, "feature")
    prototypes = _check_norms(prototypes, "prototype")
    data = EmbeddingSet(features, labels, ids)
    space = ClassSpace(tuple(names), prototypes)
    return data, space


def read_named(path: str, role: str) -> Tuple[EmbeddingSet, ClassSpace]:
    """read_ple, with a ValueError that names the file: ``cannot read <role>
    '<path>': `` and then read_ple's own message."""
    try:
        return read_ple(path)
    except ValueError as exc:
        raise ValueError(f"cannot read {role} {path!r}: {exc}") from exc


def inspect_ple(path: str) -> dict:
    """Human-oriented summary of a PLE1 file."""
    data, space = read_named(path, "file")
    return {
        "path": path,
        "n": data.n,
        "d": data.d,
        "C": space.C,
        "labeled_rows": int(np.sum(data.labels >= 0)),
        "unlabeled_rows": int(np.sum(data.labels < 0)),
        "class_names": list(space.class_names),
        "max_norm_drift": max_norm_drift(data.features),
    }
