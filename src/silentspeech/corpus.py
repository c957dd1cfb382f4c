"""Corpus data model, file formats, preprocessing, and splitting.

File formats:
  * Frame container (".artf"): 16-byte header -- magic ``ARTF``, u8 dtype
    code (0=u8, 1=f32 little-endian), u16 height, u16 width, u32 n_frames,
    3 reserved bytes -- followed by row-major frames.
  * Phone labels (".lab"): little-endian u16 phone indices, one per frame.
  * Manifest: JSON with top-level ``phones`` (distinct strings; a phone's
    label is its index) and ``records``. The record
    keys and the :class:`UtteranceRecord` fields they hold are listed once,
    in ``_RECORD_FIELDS``. Paths are stored relative to the manifest file;
    frames are read with ``read_frames(rec.root / rec.ult_path)``.

Readers open their files through :func:`errors.open_input` and
:func:`errors.read_text`, so bad input of any kind raises DataError naming
the file; :func:`load_manifest` prefixes errors about a record's frame or
label files with the utterance id.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, replace
from numbers import Integral
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DataError, NumericalError, UsageError, _array, _count, _real, open_input,
                     read_text)

MODES = ("modal", "silent", "whispered")
SPLITS = ("train", "validation", "test")

#: Channel offsets of one windowed sample relative to its anchor frame:
#: the anchor plus 3 neighbours on each side, 4 frames apart (12-frame span).
WINDOW_OFFSETS = (-12, -8, -4, 0, 4, 8, 12)

_ARTF_MAGIC = b"ARTF"
_ARTF_HEADER = struct.Struct("<4sBHHI3x")  # 16 bytes
_DTYPE_CODES = {0: np.dtype(np.uint8), 1: np.dtype("<f4")}
_CODE_FOR_KIND = {"u": 0, "i": 0, "f": 1}


# ---------------------------------------------------------------------------
# Binary containers


def write_frames(path: str | Path, frames: np.ndarray) -> None:
    """Write an (n, h, w) frame stack to the binary container.

    Integer input is stored as u8, so its values must lie in 0..255;
    floating input is stored as little-endian f32.
    """
    frames = _array(frames, "frame stack")
    if frames.ndim != 3 or frames.size == 0:
        raise DataError(f"frame stack must be non-empty (n, h, w), got shape {frames.shape}")
    code = _CODE_FOR_KIND.get(frames.dtype.kind)
    if code is None:
        raise DataError(f"unsupported frame dtype {frames.dtype}")
    if code == 0 and frames.dtype != np.uint8 and (frames.min() < 0 or frames.max() > 0xFF):
        raise DataError(f"{path}: integer frame values {frames.min()}..{frames.max()} "
                        "exceed the u8 range 0..255")
    out = frames.astype(_DTYPE_CODES[code], copy=False)
    n, h, w = out.shape
    if h > 0xFFFF or w > 0xFFFF:
        raise DataError(f"frame size {h}x{w} exceeds u16 header range")
    with open(path, "wb") as fh:
        fh.write(_ARTF_HEADER.pack(_ARTF_MAGIC, code, h, w, n))
        fh.write(np.ascontiguousarray(out).tobytes())


def _read_header(fh, path: str | Path) -> tuple[int, int, int, np.dtype]:
    raw = fh.read(_ARTF_HEADER.size)
    if len(raw) < _ARTF_HEADER.size:
        raise DataError(f"{path}: truncated frame header")
    magic, code, h, w, n = _ARTF_HEADER.unpack(raw)
    if magic != _ARTF_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if code not in _DTYPE_CODES:
        raise DataError(f"{path}: unknown dtype code {code}")
    return n, h, w, _DTYPE_CODES[code]


def read_frame_header(path: str | Path) -> tuple[int, int, int, np.dtype]:
    """Read (n_frames, height, width, dtype) without loading the payload."""
    with open_input(path) as fh:
        return _read_header(fh, path)


def read_frames(path: str | Path) -> np.ndarray:
    """Read a frame stack written by :func:`write_frames`.

    The payload size is checked against the file size before the array is
    allocated, and the payload is read straight into that array.
    """
    with open_input(path) as fh:
        n, h, w, dtype = _read_header(fh, path)
        size = os.fstat(fh.fileno()).st_size - _ARTF_HEADER.size
        if size != n * h * w * dtype.itemsize:
            raise DataError(f"{path}: payload has {size} bytes, header promises "
                            f"{n * h * w} values of {dtype.itemsize} bytes")
        frames = np.empty((n, h, w), dtype=dtype)
        if fh.readinto(frames) != frames.nbytes:
            raise DataError(f"{path}: file ended inside the payload")
    return frames


def write_features(path: str | Path, features: np.ndarray) -> None:
    """Write an (n, d) feature matrix as f32 frames of shape 1 x d."""
    features = _array(features, "features", np.float32)
    if features.ndim != 2:
        raise DataError(f"features must be (n, d), got shape {features.shape}")
    write_frames(path, features[:, None, :])


def read_features(path: str | Path) -> np.ndarray:
    """Read a feature matrix written by :func:`write_features`."""
    frames = read_frames(path)
    if frames.shape[1] != 1:
        raise DataError(f"{path}: expected height-1 feature frames, got {frames.shape}")
    return frames[:, 0, :].astype(np.float64)


def write_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = _array(labels, "labels")
    if labels.ndim != 1:
        raise DataError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and labels.dtype.kind not in "iu":
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() > 0xFFFF):
        raise DataError("label indices out of u16 range")
    with open(path, "wb") as fh:
        fh.write(labels.astype("<u2").tobytes())


def read_labels(path: str | Path) -> np.ndarray:
    with open_input(path) as fh:
        raw = fh.read()
    if len(raw) % 2:
        raise DataError(f"{path}: label file has an odd byte count ({len(raw)}); "
                        "expected u16 labels")
    data = np.frombuffer(raw, dtype="<u2")
    return data.astype(np.int64)


# ---------------------------------------------------------------------------
# Domain types


@dataclass
class UtteranceRecord:
    """Metadata for one utterance; its frame and label files stay on disk."""

    utt_id: str
    speaker_id: str
    session_id: str
    mode: str
    prompt: str
    syllable_count: int
    duration_s: float
    ult_path: str | None
    vid_path: str | None
    labels_path: str | None
    split: str
    root: Path = field(default_factory=Path, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DataError(f"{self.utt_id}: unknown mode {self.mode!r}")
        if self.split not in SPLITS:
            raise DataError(f"{self.utt_id}: unknown split {self.split!r}")
        if not 0.0 < self.duration_s < math.inf:
            raise DataError(f"{self.utt_id}: duration must be positive and finite, "
                            f"got {self.duration_s}")
        count = self.syllable_count
        if isinstance(count, bool) or not isinstance(count, Integral) or count < 1:
            raise DataError(f"{self.utt_id}: syllable_count must be >= 1 and an integer, "
                            f"got {count!r}")

    def phone_labels(self) -> np.ndarray | None:
        if self.labels_path is None:
            return None
        return read_labels(self.root / self.labels_path)


@dataclass
class Manifest:
    """All utterance records of a corpus plus its phone inventory."""

    phones: list[str]
    records: list[UtteranceRecord]
    root: Path = field(default_factory=Path, compare=False, repr=False)

    def by_split(self, split: str) -> list[UtteranceRecord]:
        return [r for r in self.records if r.split == split]

    def prompts(self, split: str) -> set[str]:
        return {r.prompt for r in self.by_split(split)}

    def validate_prompt_disjoint(self) -> None:
        shared = self.prompts("train") & self.prompts("test")
        if shared:
            raise DataError(f"prompts shared between train and test: {sorted(shared)[:5]}")


# ---------------------------------------------------------------------------
# Manifest I/O

_STR, _INT, _NUM, _PATH = (str,), (int,), (int, float), (str, type(None))
#: how error messages name each set of accepted JSON value types
_KIND_NAMES = {_STR: "a string", _INT: "an integer", _NUM: "a number",
               _PATH: "a string or null"}

#: (JSON key, UtteranceRecord field, accepted value types) of every manifest
#: record, in file order. JSON booleans are rejected even where numbers are
#: accepted.
_RECORD_FIELDS = (
    ("id", "utt_id", _STR),
    ("speaker", "speaker_id", _STR),
    ("session", "session_id", _STR),
    ("mode", "mode", _STR),
    ("prompt", "prompt", _STR),
    ("syllables", "syllable_count", _INT),
    ("duration_s", "duration_s", _NUM),
    ("ult_path", "ult_path", _PATH),
    ("vid_path", "vid_path", _PATH),
    ("labels_path", "labels_path", _PATH),
    ("split", "split", _STR),
)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    records = [{key: getattr(r, name) for key, name, _ in _RECORD_FIELDS}
               for r in manifest.records]
    payload = {"phones": list(manifest.phones), "records": records}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest.

    Frame payloads stay on disk; only container headers and label sizes are
    checked here.
    """
    path = Path(path)
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from exc

    if not isinstance(payload, dict):
        raise DataError(f"{path}: top level must be a JSON object")
    for key in ("phones", "records"):
        if key not in payload:
            raise DataError(f"{path}: missing top-level field {key!r}")
        if not isinstance(payload[key], list):
            raise DataError(f"{path}: top-level field {key!r} must be a list")
    phones = list(payload["phones"])
    first: dict[str, int] = {}  # index of each phone's first listing
    for i, phone in enumerate(phones):
        if not isinstance(phone, str):
            raise DataError(f"{path}: phone {i} must be a string, "
                            f"got {type(phone).__name__} {phone!r:.40}")
        if phone in first:
            raise DataError(f"{path}: phone {i} ({phone!r}) repeats phone {first[phone]}")
        first[phone] = i
    root = path.parent

    records = []
    for i, raw in enumerate(payload["records"]):
        if not isinstance(raw, dict):
            raise DataError(f"{path}: record {i} must be a JSON object")
        values: dict[str, object] = {}
        missing = []
        for key, name, kinds in _RECORD_FIELDS:
            if key not in raw:
                missing.append(key)
                continue
            value = raw[key]
            if not isinstance(value, kinds) or type(value) is bool:
                raise DataError(
                    f"{path}: record {i} ({raw.get('id', '?')!r}): {key!r} must be "
                    f"{_KIND_NAMES[kinds]}, got {type(value).__name__} {value!r:.40}")
            values[name] = value
        if missing:
            raise DataError(f"{path}: record {i} missing fields {missing}")
        try:
            values["duration_s"] = float(values["duration_s"])
            records.append(UtteranceRecord(**values, root=root))
        except (OverflowError, DataError) as exc:
            raise DataError(f"{path}: record {i}: {exc}") from exc

    manifest = Manifest(phones=phones, records=records, root=root)
    manifest.validate_prompt_disjoint()
    _check_record_files(manifest)
    return manifest


def _check_record_files(manifest: Manifest) -> None:
    """Check that each record's files can be read and that its label count
    matches its ultrasound frame count; DataError prefixed with the
    utterance id."""
    for r in manifest.records:
        try:
            n_ult = None
            for attr in ("ult_path", "vid_path"):
                rel = getattr(r, attr)
                if rel is None:
                    continue
                n, _, _, _ = read_frame_header(r.root / rel)
                if attr == "ult_path":
                    n_ult = n
            if r.labels_path is not None:
                p = r.root / r.labels_path
                with open_input(p) as fh:
                    size = os.fstat(fh.fileno()).st_size
                if size % 2:
                    raise DataError(f"label file {p} has an odd byte count ({size}); "
                                    "expected u16 labels")
                if n_ult is not None and size // 2 != n_ult:
                    raise DataError(f"{size // 2} phone labels for {n_ult} ultrasound frames")
        except DataError as exc:
            raise DataError(f"{r.utt_id}: {exc}") from exc


# ---------------------------------------------------------------------------
# Preprocessing


def normalize(sequences: list[np.ndarray]) -> tuple[float, float, list[np.ndarray]]:
    """Global zero-mean unit-variance statistics over all training pixels.

    Returns (mean, std, normalized copies). Statistics are computed once
    over the training split and must be re-applied to held-out data with
    :func:`apply_normalization`. ``sequences`` is a list of frame arrays:
    one array in its place would pass as a list of its rows, so it raises
    DataError.
    """
    if isinstance(sequences, np.ndarray):
        raise DataError(f"normalize needs a list of frame sequences, not one array "
                        f"of shape {sequences.shape}")
    if not sequences:
        raise DataError("cannot compute normalization statistics from an empty set")
    flat = np.concatenate([_array(s, f"sequence {i}", np.float64).ravel()
                           for i, s in enumerate(sequences)])
    mean = float(flat.mean())
    with np.errstate(invalid="ignore"):  # inf pixels: reported below
        std = float(flat.std())
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DataError("training pixels contain NaN or inf; "
                        f"normalization statistics are mean={mean}, std={std}")
    if std <= 0.0:
        raise NumericalError("training pixels are constant; zero variance")
    return mean, std, [apply_normalization(s, mean, std) for s in sequences]


def apply_normalization(frames: np.ndarray, mean: float, std: float) -> np.ndarray:
    """``(frames - mean) / std`` as float64; DataError unless the mean is
    finite and the std finite and positive."""
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0.0):
        raise DataError("normalization statistics need a finite mean and a finite, "
                        f"positive std; got mean={mean}, std={std}")
    return (_array(frames, "frames", np.float64) - mean) / std


def window_stack(frames: np.ndarray) -> np.ndarray:
    """Stack every anchor frame with its window neighbours: (n, 7, h, w).

    Out-of-range neighbour offsets clamp to the nearest valid frame, so
    there is exactly one sample per frame. The result is a read-only view
    of one edge-padded copy of the frames (n + 24 frames).
    """
    frames = _array(frames, "frames")
    if frames.ndim < 1 or frames.shape[0] < 1:
        raise DataError("cannot window an empty sequence")
    n = frames.shape[0]
    first, last = WINDOW_OFFSETS[0], WINDOW_OFFSETS[-1]
    padded = frames[np.clip(np.arange(first, n + last), 0, n - 1)]
    windows = sliding_window_view(padded, last - first + 1, axis=0)
    return np.moveaxis(windows[..., ::WINDOW_OFFSETS[1] - first], -1, 1)


# ---------------------------------------------------------------------------
# Splitting


def split_prompt_disjoint(manifest: Manifest, test_prompts: set[str],
                          val_fraction: float = 0.1, seed: int = 0) -> Manifest:
    """Tag records test/train/validation so train and test share no prompt.

    Every record whose prompt is in ``test_prompts`` goes to test; the rest
    are shuffled deterministically and split train/validation.
    """
    if isinstance(test_prompts, str):
        # ``in`` on a string tests for substrings: "p1" would take prompts "p" and "1"
        raise UsageError(f"test_prompts must be a set of prompts, not the string {test_prompts!r}")
    if not test_prompts:
        raise UsageError("test prompt set must be nonempty")
    val_fraction, seed = _real(val_fraction, "val_fraction"), _count(seed, "seed", 0)
    if not 0.0 <= val_fraction < 1.0:
        raise UsageError(f"val_fraction must be in [0, 1), got {val_fraction}")
    test_recs, rest = [], []
    for r in manifest.records:
        (test_recs if r.prompt in test_prompts else rest).append(r)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rest))
    n_val = int(round(val_fraction * len(rest)))
    val_idx = set(order[:n_val].tolist())

    tagged = [replace(r, split="test") for r in test_recs]
    for j, r in enumerate(rest):
        tagged.append(replace(r, split="validation" if j in val_idx else "train"))
    if not any(r.split == "train" for r in tagged):
        raise DataError("split left no training records")

    out = Manifest(phones=list(manifest.phones), records=tagged, root=manifest.root)
    out.validate_prompt_disjoint()
    return out
