"""Canonical corpus model: sensor grids, pressure frames, subjects, on-disk layout.

A corpus on disk is a directory with three files:

* ``manifest.json`` -- grid geometry, sensor ceiling, frame rate, feature mask.
* ``subjects.csv``  -- one row per subject: id, height (m), weight (kg), age.
* ``frames.csv``    -- one row per frame: id triple followed by the row-major
  cell values as decimal text.

Values survive a save/load round trip bit-exactly because floats are written
with ``repr`` (shortest round-trip form).

CSV tables go through ``read_csv``/``write_csv`` and JSON documents through
``read_json``/``write_json``. Every output file, and the corpus directory, is
written as a fresh sibling that then replaces it: the umask sets its mode,
and its parent directory must already exist.
"""

import csv
import json
import math
import numbers
import operator
import os
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

# The canonical per-frame features, in order; features.py computes them.
FEATURE_NAMES = (
    "max",
    "mode",
    "range",
    "entropy",
    "mean",
    "variance",
    "skewness",
    "kurtosis",
    "nonzero_count",
    "count_20_60",
    "count_60_100",
    "count_above_100",
    "num_isolines",
    "isoline_coord_sum",
)
FEATURE_COUNT = len(FEATURE_NAMES)
FULL_MASK = (True,) * FEATURE_COUNT
MIN_FEATURES = 12  # a dataset provides at least this many of the features

MANIFEST_NAME = "manifest.json"
MANIFEST_KEYS = ["rows", "cols", "sensor_ceiling", "frame_rate_hz", "feature_mask"]
SUBJECTS_NAME = "subjects.csv"
FRAMES_NAME = "frames.csv"
SUBJECTS_HEADER = ["subject_id", "height_m", "weight_kg", "age_years"]
# The columns that name a frame in frames.csv and features.csv; no two rows share them.
FRAME_KEY = ["subject_id", "posture_id", "frame_index"]

# Open interval of plausible BMI values (kg/m^2); anything outside is bad input.
BMI_BAND = (10.0, 60.0)

N_RAW_POSTURES = 17
N_POSTURE_GROUPS = 10


class CorpusLoadError(ValueError):
    """An on-disk corpus failed validation; the message names file and line."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry and range of one sensor mat. Row and column counts are
    positive ints (not bools); the ceiling and frame rate finite positive floats."""

    rows: int
    cols: int
    sensor_ceiling: float
    frame_rate_hz: float

    def __post_init__(self):
        for name in ("rows", "cols"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n <= 0:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
            object.__setattr__(self, name, int(n))
        for name in ("sensor_ceiling", "frame_rate_hz"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {x!r}")
            object.__setattr__(self, name, float(x))

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class PressureFrame:
    """One snapshot of the sensor grid.

    ``values`` is a read-only float64 array of shape ``(rows, cols)``, no other.
    """

    grid: GridSpec
    values: np.ndarray
    subject_id: str
    posture_id: int
    frame_index: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.rows, self.grid.cols):
            raise ValueError(f"frame shape {v.shape} does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("frame contains non-finite values")
        if v.min() < 0 or v.max() > self.grid.sensor_ceiling:
            raise ValueError(
                f"frame values outside [0, {self.grid.sensor_ceiling}]: "
                f"min={v.min()}, max={v.max()}"
            )
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def key(self) -> tuple:
        return (self.subject_id, self.posture_id, self.frame_index)


@dataclass(frozen=True)
class SubjectRecord:
    """Ground truth for one subject; BMI is derived from weight and height."""

    subject_id: str
    height_m: float
    weight_kg: float
    age_years: float | None = None
    bmi: float = field(init=False)  # weight_kg / height_m^2, set on construction

    def __post_init__(self):
        if not (self.height_m > 0) or not (self.weight_kg > 0):
            raise ValueError(
                f"subject {self.subject_id}: height and weight must be positive"
            )
        if self.age_years is not None and not (self.age_years > 0):
            raise ValueError(f"subject {self.subject_id}: age must be positive")
        bmi = compute_bmi(self.weight_kg, self.height_m)
        object.__setattr__(self, "bmi", bmi)
        lo, hi = BMI_BAND
        if not (lo < bmi < hi):
            raise ValueError(
                f"subject {self.subject_id}: bmi {bmi:.2f} outside sanity band ({lo:g}, {hi:g})"
            )


@dataclass(frozen=True)
class Corpus:
    """An in-memory corpus: grid, subjects, frames in canonical order, feature mask.

    Frames are sorted by ``(subject_id, posture_id, frame_index)`` on
    construction. The feature mask flags which of the 14 canonical features a
    dataset provides; :func:`check_mask` checks it.
    """

    grid: GridSpec
    subjects: dict[str, SubjectRecord]
    frames: tuple[PressureFrame, ...]
    feature_mask: tuple[bool, ...] = FULL_MASK
    name: str = "corpus"

    def __post_init__(self):
        object.__setattr__(self, "feature_mask", check_mask(self.feature_mask))
        for sid, rec in self.subjects.items():
            if sid != rec.subject_id:
                raise ValueError(f"subjects dict key {sid!r} != record id {rec.subject_id!r}")
        frames = tuple(sorted(self.frames, key=lambda f: f.key))
        prev_key = None
        for f in frames:
            if f.subject_id not in self.subjects:
                raise ValueError(f"frame references unknown subject {f.subject_id!r}")
            if f.grid != self.grid:
                raise ValueError(f"frame {f.key} grid differs from corpus grid")
            if f.key == prev_key:
                raise ValueError(f"duplicate frame key {f.key}")
            prev_key = f.key
        object.__setattr__(self, "frames", frames)

    @property
    def subject_ids(self) -> list[str]:
        return sorted(self.subjects)


def compute_bmi(weight_kg: float, height_m: float) -> float:
    """Body mass index, kg/m^2."""
    if not (weight_kg > 0):
        raise ValueError(f"weight must be positive, got {weight_kg}")
    if not (height_m > 0):
        raise ValueError(f"height must be positive, got {height_m}")
    return weight_kg / (height_m * height_m)


# ---------------------------------------------------------------------------
# Posture grouping
# ---------------------------------------------------------------------------

def load_posture_table(path: str | None = None) -> dict[int, int]:
    """17->10 posture group table; the default ships with the package.

    Raw ids 1..10 are the base posture groups; 11..17 are wedged variants that
    fold into the group of their flat analog. The table is a plain JSON object
    so deployments can swap it without touching code.
    """
    if path is None:
        path = resources.files(__package__) / "posture_groups.json"

    def parse(doc):
        table = {int(k): int(v) for k, v in doc.items()}
        if sorted(table) != list(range(1, N_RAW_POSTURES + 1)):
            raise ValueError("keys must be exactly the raw ids 1..17")
        if set(table.values()) != set(range(1, N_POSTURE_GROUPS + 1)):
            raise ValueError("values must cover the groups 1..10")
        for base in range(1, N_POSTURE_GROUPS + 1):
            if table[base] != base:
                raise ValueError(f"base posture {base} must map to itself, got {table[base]}")
        return table

    return read_json(path, "posture table", parse)


def merge_postures(raw_posture_id: int, table: dict[int, int] | None = None) -> int:
    """Map a raw posture id in 1..17 onto its group in 1..10."""
    if not (1 <= raw_posture_id <= N_RAW_POSTURES):
        raise ValueError(f"raw posture id must be in 1..17, got {raw_posture_id}")
    if table is None:
        table = load_posture_table()
    return table[raw_posture_id]


# ---------------------------------------------------------------------------
# On-disk layout
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _replacing(path: str, directory: bool = False):
    """Yield a fresh sibling of ``path``, made as ``open`` or ``mkdir`` makes it
    (the umask sets its mode; a missing parent raises FileNotFoundError; an
    error in making it names ``path``): a UTF-8 text file open for writing,
    newlines untranslated, or the name of an empty directory. It replaces
    ``path`` when the block ends, or is removed if the block raises; a
    directory at ``path`` is moved aside meanwhile, then removed."""
    parent, name = os.path.split(os.path.abspath(path))
    stem = os.path.join(parent, f".{name}.{os.urandom(4).hex()}")
    tmp, aside = stem + ".tmp", stem + ".old"
    try:
        if directory:
            os.mkdir(tmp)
        made = nullcontext(tmp) if directory else open(tmp, "x", newline="", encoding="utf-8")
    except OSError as e:  # name the output, not the sibling
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with made as out:
            yield out
        if directory and os.path.isdir(path):
            os.rename(path, aside)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isdir(aside):
            os.rename(aside, path)
        shutil.rmtree(tmp) if directory else os.unlink(tmp)
        raise
    if os.path.isdir(aside):
        shutil.rmtree(aside)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8, byte for byte (no newline translation), through
    a sibling that replaces ``path``, so a crash never leaves a half-written file."""
    with _replacing(path) as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and then each row of the iterable ``rows`` as CSV lines
    ending in CRLF, replacing ``path`` as :func:`atomic_write_text` does."""
    with _replacing(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str, doc: dict, indent: int | None = 2) -> None:
    """Write ``doc`` as JSON with sorted keys and a final newline, atomically."""
    atomic_write_text(path, json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def read_json(path: str, what: str, parse, error: type[Exception] = ValueError):
    """``parse(doc)`` of the JSON object in the UTF-8 file at ``path``. Bad JSON, a
    non-object, or a ValueError, TypeError or KeyError from ``parse`` raises
    ``error("<path>: not a <what>: ...")``; other exceptions propagate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(check_keys(json.load(fh)))
    except (ValueError, TypeError, KeyError) as e:
        raise error(f"{path}: not a {what}: {e}") from e


def check_keys(doc, required=(), allowed=None) -> dict:
    """``doc`` itself, once it is a JSON object with every key in ``required``
    and, unless ``allowed`` is None, no key outside ``required`` and ``allowed``."""
    if not isinstance(doc, dict):
        raise ValueError(f"a JSON {type(doc).__name__}, not an object")
    missing = sorted(set(required) - doc.keys())
    unexpected = [] if allowed is None else sorted(doc.keys() - set(required) - set(allowed))
    if missing or unexpected:
        raise ValueError(f"missing keys {missing}, unexpected keys {unexpected}")
    return doc


def check_mask(value, kept: int | None = None) -> tuple[bool, ...]:
    """``value`` as a tuple of Python bools, once it is a list, tuple or array of
    ``FEATURE_COUNT`` booleans (Python or numpy, not ints or strings), at least
    ``MIN_FEATURES`` true, and ``kept`` true if given (a model keeps one per
    input). Every mask that crosses a boundary passes here; else one ValueError."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(items, (list, tuple)) and len(items) == FEATURE_COUNT
            and all(isinstance(b, (bool, np.bool_)) for b in items)
            and MIN_FEATURES <= sum(items) and kept in (None, sum(items))):
        per_input = "" if kept is None else f" and one per model input ({kept})"
        raise ValueError(f"feature_mask must be {FEATURE_COUNT} booleans, at least "
                         f"{MIN_FEATURES} of them true{per_input}: got {value!r}")
    return tuple(map(bool, items))


def save_corpus(corpus: Corpus, root_path: str, extra_manifest: dict | None = None) -> None:
    """Write a corpus directory; the directory appears atomically.

    The three files are written into a sibling directory which then replaces
    ``root_path``, so a crash never leaves a half-written corpus.
    """
    manifest = {**(extra_manifest or {}), "name": corpus.name, **asdict(corpus.grid),
                "feature_mask": list(corpus.feature_mask)}
    with _replacing(root_path, directory=True) as tmp:
        write_json(os.path.join(tmp, MANIFEST_NAME), manifest)
        write_csv(os.path.join(tmp, SUBJECTS_NAME), SUBJECTS_HEADER, (
            [sid, _fmt(rec.height_m), _fmt(rec.weight_kg),
             "" if rec.age_years is None else _fmt(rec.age_years)]
            for sid, rec in sorted(corpus.subjects.items())))
        # repr of a Python float is _fmt of the numpy scalar, without boxing each cell
        write_csv(os.path.join(tmp, FRAMES_NAME), _frames_header(corpus.grid), (
            [f.subject_id, str(f.posture_id), str(f.frame_index),
             *map(repr, f.values.ravel().tolist())]
            for f in corpus.frames))


def _frames_header(grid: GridSpec) -> list[str]:
    return FRAME_KEY + [f"v{i}" for i in range(grid.n_cells)]


def read_csv(path: str, header: list[str], parse, key: list[str],
             error: type[Exception] = ValueError) -> list:
    """``parse(row, line)`` of each data row of a CSV file, in file order.

    The first row must equal ``header``, blank rows are skipped, every other
    row has ``len(header)`` fields, and no two items agree on the attributes
    named in ``key``. A breach, or a ValueError from ``parse``, raises
    ``error("<path>: line <n>: ...")``.
    """
    get_key = operator.attrgetter(*key)
    first_line: dict = {}
    items = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise error(f"{path}: line 1: bad header, expected {len(header)} fields "
                        f"{header[0]} .. {header[-1]}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                items.append(parse(row, line))
                k = get_key(items[-1])
                if first_line.setdefault(k, line) != line:
                    raise ValueError(f"duplicate {', '.join(key)} {k!r}, "
                                     f"first on line {first_line[k]}")
            except ValueError as e:
                raise error(f"{path}: line {line}: {e}") from e
    return items


def load_corpus(root_path: str) -> Corpus:
    """Load and fully validate a corpus directory.

    Raises :class:`CorpusLoadError` naming the offending file (and line where
    applicable) on any structural or range violation.
    """
    manifest_path = os.path.join(root_path, MANIFEST_NAME)
    subjects_path = os.path.join(root_path, SUBJECTS_NAME)
    frames_path = os.path.join(root_path, FRAMES_NAME)
    for p in (manifest_path, subjects_path, frames_path):
        if not os.path.isfile(p):
            raise CorpusLoadError(f"{p}: missing")

    def parse_manifest(doc):  # keys such as provenance are ignored
        check_keys(doc, MANIFEST_KEYS)
        grid = GridSpec(doc["rows"], doc["cols"], doc["sensor_ceiling"], doc["frame_rate_hz"])
        return grid, check_mask(doc["feature_mask"]), str(doc.get("name", "corpus"))

    grid, mask, name = read_json(manifest_path, "corpus manifest", parse_manifest,
                                 CorpusLoadError)

    def parse_subject(row, line):
        sid, height, weight, age = row
        return SubjectRecord(sid, float(height), float(weight),
                             float(age) if age != "" else None)

    subjects = {s.subject_id: s for s in read_csv(
        subjects_path, SUBJECTS_HEADER, parse_subject, ["subject_id"], CorpusLoadError)}

    def parse_frame(row, line):
        if row[0] not in subjects:
            raise ValueError(f"unknown subject {row[0]!r}")
        values = np.asarray(row[3:], dtype=np.float64).reshape(grid.rows, grid.cols)
        return PressureFrame(grid, values, row[0], int(row[1]), int(row[2]))

    frames = read_csv(frames_path, _frames_header(grid), parse_frame, FRAME_KEY,
                      CorpusLoadError)

    try:
        return Corpus(
            grid=grid, subjects=subjects, frames=tuple(frames),
            feature_mask=mask, name=name,
        )
    except ValueError as e:
        raise CorpusLoadError(f"{root_path}: {e}") from e
