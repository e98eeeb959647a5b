"""PLE1 container tests.

The layout is re-implemented by hand here (struct.pack field by field) so the
writer is checked against an independent encoding of the documented format,
not against itself. Round trips must be byte-identical because drift from the
float32 quantization is far below the keep threshold.
"""

import struct

import numpy as np
import pytest

from plrefine.core import ClassSpace, EmbeddingSet, UNLABELED
from plrefine.fileio import inspect_ple, read_ple, write_ple
from plrefine.synth import SyntheticSpec, synth_generate


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _sample(rng, n=6, d=5, C=3, names=None):
    feats = _unit_rows(rng, n, d)
    labels = rng.integers(-1, C, size=n).astype(np.int64)
    ids = (10 + np.arange(n)).astype(np.uint64)
    data = EmbeddingSet(feats, labels, ids)
    space = ClassSpace(names or tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))
    return data, space


def _encode_reference(data, space):
    """Field-by-field little-endian encoding of the documented layout."""
    out = bytearray()
    out += b"PLE1"
    out += struct.pack("<H", 1)
    out += struct.pack("<III", data.d, data.n, space.C)
    out += data.features.astype("<f4").tobytes()
    out += data.labels.astype("<i4").tobytes()
    out += data.ids.astype("<u8").tobytes()
    for name in space.class_names:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
    out += space.base_prototypes.astype("<f4").tobytes()
    return bytes(out)


class TestWrite:
    def test_matches_reference_encoding(self, tmp_path):
        rng = np.random.default_rng(0)
        data, space = _sample(rng, names=("plain", "crème", "c2"))
        path = tmp_path / "a.ple"
        write_ple(str(path), data, space)
        assert path.read_bytes() == _encode_reference(data, space)

    def test_dimension_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        data, _ = _sample(rng, d=5)
        _, space = _sample(rng, d=6)
        with pytest.raises(ValueError, match="dimensions differ"):
            write_ple(str(tmp_path / "bad.ple"), data, space)

    def test_name_length_cap(self, tmp_path):
        rng = np.random.default_rng(2)
        data, _ = _sample(rng, C=2)
        space = ClassSpace(("ok", "x" * 70000), _unit_rows(rng, 2, 5))
        with pytest.raises(ValueError, match="class name too long"):
            write_ple(str(tmp_path / "long.ple"), data, space)


    def _earlier_file(self, tmp_path):
        rng = np.random.default_rng(3)
        data, space = _sample(rng, C=2)
        path = tmp_path / "kept.ple"
        write_ple(str(path), data, space)
        return rng, data, path, path.read_bytes()

    def test_too_long_name_keeps_earlier_file(self, tmp_path):
        # The name is checked before the file is touched: the earlier file
        # stays byte for byte and still reads.
        rng, data, path, before = self._earlier_file(tmp_path)
        space = ClassSpace(("ok", "x" * 70000), _unit_rows(rng, 2, 5))
        with pytest.raises(ValueError, match="class name too long"):
            write_ple(str(path), data, space)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.ple"]
        read_ple(str(path))

    def test_failed_write_midway_keeps_earlier_file(self, tmp_path):
        # A failure after the header went out (here the prototypes cannot be
        # read) leaves the earlier file and no temporary file behind.
        rng, data, path, before = self._earlier_file(tmp_path)

        class FailingSpace:
            d, C, class_names = 5, 2, ("a", "b")

            @property
            def base_prototypes(self):
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_ple(str(path), data, FailingSpace())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.ple"]


class TestRoundTrip:
    def test_arrays_survive(self, tmp_path):
        rng = np.random.default_rng(3)
        data, space = _sample(rng)
        path = tmp_path / "rt.ple"
        write_ple(str(path), data, space)
        back, back_space = read_ple(str(path))
        # float32 on disk: values equal after one quantization.
        assert np.array_equal(back.features, data.features.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.ids, data.ids)
        assert back_space.class_names == space.class_names
        assert back_space.partition is None

    def test_second_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        data, space = _sample(rng, n=12, d=9, C=4)
        first = tmp_path / "one.ple"
        second = tmp_path / "two.ple"
        write_ple(str(first), data, space)
        back, back_space = read_ple(str(first))
        write_ple(str(second), back, back_space)
        assert first.read_bytes() == second.read_bytes()

    def test_synthetic_task_round_trip(self, tmp_path):
        task = synth_generate(SyntheticSpec(C=4, d=8, labeled_per_class=1, unlabeled_per_class=6))
        path = tmp_path / "synth.ple"
        write_ple(str(path), task.train, task.space)
        back, back_space = read_ple(str(path))
        assert back.n == task.train.n
        assert back_space.C == task.space.C
        pred_before = np.argmax(task.train.features @ task.space.base_prototypes.T, axis=1)
        pred_after = np.argmax(back.features @ back_space.base_prototypes.T, axis=1)
        assert np.array_equal(pred_before, pred_after)


class TestReadErrors:
    def _write_valid(self, tmp_path):
        rng = np.random.default_rng(5)
        data, space = _sample(rng)
        path = tmp_path / "v.ple"
        write_ple(str(path), data, space)
        return path

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ple"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="bad magic"):
            read_ple(str(path))

    def test_unsupported_version(self, tmp_path):
        path = self._write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported version 9"):
            read_ple(str(path))

    def test_truncated_payload(self, tmp_path):
        path = self._write_valid(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(ValueError, match="truncated payload"):
            read_ple(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = self._write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_ple(str(path))

    def test_empty_dimensions(self, tmp_path):
        path = tmp_path / "empty.ple"
        path.write_bytes(b"PLE1" + struct.pack("<H", 1) + struct.pack("<III", 0, 4, 2))
        with pytest.raises(ValueError, match="empty dimensions"):
            read_ple(str(path))

    def test_label_beyond_class_count(self, tmp_path):
        """A label at or past C is refused at load time, not when a task is built."""
        rng = np.random.default_rng(8)
        data, space = _sample(rng, n=6, d=5, C=3)
        path = tmp_path / "label.ple"
        write_ple(str(path), data, space)
        raw = bytearray(path.read_bytes())
        at = 18 + 4 * data.n * data.d + 4 * 2  # third label
        raw[at : at + 4] = struct.pack("<i", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"labels must lie in \[-1, 3\), got 3"):
            read_ple(str(path))

    @pytest.mark.parametrize("bad", [0, 2])
    def test_class_name_not_utf8(self, tmp_path, bad):
        """A name whose bytes do not decode raises a plain ValueError naming
        the class, not the UnicodeDecodeError of the codec."""
        rng = np.random.default_rng(8)
        data, space = _sample(rng, n=6, d=5, C=3)
        path = tmp_path / "name.ple"
        write_ple(str(path), data, space)
        raw = bytearray(path.read_bytes())
        at = 18 + (4 * data.d + 4 + 8) * data.n + sum(2 + len(n) for n in space.class_names[:bad]) + 2
        raw[at] = 0xFF  # first byte of name `bad`
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as caught:
            read_ple(str(path))
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"not a PLE1 file: class name {bad} is not valid UTF-8"


class TestFuzz:
    """Seeded byte-level damage to a C=5, d=8 file. Truncated and random
    input must raise ValueError (UnicodeDecodeError is one); a bit flip
    either raises ValueError or, where the format cannot tell (a label moved
    to another class, a low mantissa bit), loads a set a task accepts."""

    CASES = 400

    def _good(self, tmp_path):
        rng = np.random.default_rng(11)
        data, space = _sample(rng, n=12, d=8, C=5, names=("a", "bé", "c", "dd", "e"))
        path = tmp_path / "good.ple"
        write_ple(str(path), data, space)
        return path.read_bytes(), tmp_path / "fuzz.ple"

    def test_truncation_rejected(self, tmp_path):
        good, path = self._good(tmp_path)
        rng = np.random.default_rng(12)
        for cut in rng.integers(0, len(good), size=self.CASES):
            path.write_bytes(good[:cut])
            with pytest.raises(ValueError):
                read_ple(str(path))

    def test_every_proper_prefix_rejected(self, tmp_path):
        """Each cut, including ones inside a multi-byte class name, raises
        ValueError with the message of what is missing, never another error."""
        good, path = self._good(tmp_path)
        for cut in range(len(good)):
            path.write_bytes(good[:cut])
            with pytest.raises(ValueError) as caught:
                read_ple(str(path))
            assert type(caught.value) is ValueError
            expected = "bad magic" if cut < 6 else "truncated payload"
            assert str(caught.value) == f"not a PLE1 file: {expected}"

    def test_bit_flips_rejected_or_well_formed(self, tmp_path):
        good, path = self._good(tmp_path)
        rng = np.random.default_rng(13)
        rejected = 0
        for _ in range(self.CASES):
            raw = bytearray(good)
            for bit in rng.integers(0, 8 * len(raw), size=rng.integers(1, 4)):
                raw[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(raw))
            try:
                data, space = read_ple(str(path))
            except ValueError:
                rejected += 1
                continue
            assert data.d == space.d
            assert data.labels.min() >= UNLABELED and data.labels.max() < space.C
        assert rejected > self.CASES // 10

    def test_random_bytes_rejected(self, tmp_path):
        _, path = self._good(tmp_path)
        rng = np.random.default_rng(14)
        for case in range(self.CASES):
            body = rng.integers(0, 256, size=rng.integers(0, 300), dtype=np.uint8).tobytes()
            if case % 2:
                body = b"PLE1" + struct.pack("<H", 1) + body
            path.write_bytes(body)
            with pytest.raises(ValueError):
                read_ple(str(path))


class TestNormDrift:
    def _scaled_file(self, tmp_path, factor):
        """Encode a file whose feature rows are scaled off the unit sphere."""
        rng = np.random.default_rng(6)
        data, space = _sample(rng)
        scaled_feats = data.features * factor

        out = bytearray()
        out += b"PLE1"
        out += struct.pack("<H", 1)
        out += struct.pack("<III", data.d, data.n, space.C)
        out += scaled_feats.astype("<f4").tobytes()
        out += data.labels.astype("<i4").tobytes()
        out += data.ids.astype("<u8").tobytes()
        for name in space.class_names:
            raw = name.encode("utf-8")
            out += struct.pack("<H", len(raw))
            out += raw
        out += space.base_prototypes.astype("<f4").tobytes()
        path = tmp_path / "drift.ple"
        path.write_bytes(bytes(out))
        return path

    def test_small_drift_renormalized(self, tmp_path):
        path = self._scaled_file(tmp_path, 1.0 + 2e-4)
        back, _ = read_ple(str(path))
        assert np.allclose(np.linalg.norm(back.features, axis=1), 1.0, atol=1e-9)

    def test_large_drift_rejected(self, tmp_path):
        path = self._scaled_file(tmp_path, 1.5)
        with pytest.raises(ValueError, match=r"feature norm drift .* exceeds 0.001"):
            read_ple(str(path))


    def test_non_finite_feature_rejected(self, tmp_path):
        """A NaN norm drift passes both drift thresholds; the container refuses it."""
        rng = np.random.default_rng(7)
        data, space = _sample(rng)
        path = tmp_path / "nan.ple"
        write_ple(str(path), data, space)
        raw = bytearray(path.read_bytes())
        raw[18:22] = np.array([np.nan], dtype="<f4").tobytes()  # first feature float
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="features must be finite"):
            read_ple(str(path))


class TestInspect:
    def test_summary_fields(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = _unit_rows(rng, 5, 4)
        labels = np.array([0, 1, UNLABELED, UNLABELED, 1], dtype=np.int64)
        data = EmbeddingSet(feats, labels, np.arange(5, dtype=np.uint64))
        space = ClassSpace(("a", "b"), _unit_rows(rng, 2, 4))
        path = tmp_path / "i.ple"
        write_ple(str(path), data, space)
        info = inspect_ple(str(path))
        assert info["n"] == 5
        assert info["d"] == 4
        assert info["C"] == 2
        assert info["labeled_rows"] == 3
        assert info["unlabeled_rows"] == 2
        assert info["class_names"] == ["a", "b"]
        assert info["max_norm_drift"] <= 1e-5
        assert info["path"].endswith("i.ple")
