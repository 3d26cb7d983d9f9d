"""Adapters converting the two public raw datasets into the canonical layout.

The papers behind the raw datasets do not ship a formal file-format spec, so
the layouts assumed here are documented in the README and kept behind flags:

* PmatData (PhysioNet): one directory per subject (``S1`` .. ``S13``), one
  text file per raw posture (``1.txt`` .. ``17.txt``), one frame per line as
  whitespace-separated row-major values. Subject height/weight/age come from a
  user-supplied CSV because the original publishes them only in prose. Raw
  posture ids are merged 17 -> 10 through the shipped table; frames from a
  merged recording are re-indexed after a gap so temporal filtering never
  bridges two recordings.

* HRL-ROS: one ``<subject_id>.npz`` per subject with arrays ``frames``
  (n, rows, cols), ``posture_ids`` (n,) and scalars ``height_m``,
  ``weight_kg`` and optional ``age_years`` (converted from the original
  python-2 pickles by the downloader; seated calibration poses are expected
  to be excluded at conversion time). Max and range features are masked
  because the distribution ships pre-normalized to 0..1024.
"""

import csv
import os
import re
import zipfile
import zlib

import numpy as np

from .dataset import (
    FEATURE_NAMES,
    Corpus,
    GridSpec,
    PressureFrame,
    SubjectRecord,
    load_posture_table,
    merge_postures,
    read_csv,
)

PMATDATA_GRID = GridSpec(rows=32, cols=64, sensor_ceiling=1000.0, frame_rate_hz=1.5)
HRLROS_GRID = GridSpec(rows=27, cols=64, sensor_ceiling=1024.0, frame_rate_hz=1.0)

# max and range carry no information once frames are pre-normalized
HRLROS_FEATURE_MASK = tuple(name not in ("max", "range") for name in FEATURE_NAMES)

SESSION_GAP = 2  # frame-index gap separating merged recordings


def read_subjects_csv(path: str) -> dict[str, SubjectRecord]:
    """Subject table with columns subject_id, height_m|height_cm, weight_kg, age_years."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if not header or header[0] != "subject_id":
        raise ValueError(f"{path}: line 1: expected a subject table header")
    cols = {name: i for i, name in enumerate(header)}
    if "height_m" in cols:
        h_col, h_scale = cols["height_m"], 1.0
    elif "height_cm" in cols:
        h_col, h_scale = cols["height_cm"], 0.01
    else:
        raise ValueError(f"{path}: line 1: need a height_m or height_cm column")
    if "weight_kg" not in cols:
        raise ValueError(f"{path}: line 1: need a weight_kg column")
    age_col = cols.get("age_years")

    def parse(row, line):
        age = "" if age_col is None else row[age_col]
        return SubjectRecord(row[0], float(row[h_col]) * h_scale, float(row[cols["weight_kg"]]),
                             float(age) if age != "" else None)

    subjects = {s.subject_id: s for s in read_csv(path, header, parse, ["subject_id"])}
    if not subjects:
        raise ValueError(f"{path}: no subjects found")
    return subjects


def ingest_pmatdata(
    raw_root: str,
    subjects_file: str,
    grid: GridSpec = PMATDATA_GRID,
    transpose: bool = False,
    posture_table_path: str | None = None,
    name: str = "pmatdata",
) -> Corpus:
    subjects = read_subjects_csv(subjects_file)
    table = load_posture_table(posture_table_path)

    subject_dirs = sorted(
        d for d in os.listdir(raw_root) if os.path.isdir(os.path.join(raw_root, d))
    )
    if not subject_dirs:
        raise ValueError(f"{raw_root}: no subject directories found")

    frames: list[PressureFrame] = []
    for sdir in subject_dirs:
        sid = sdir
        if sid not in subjects:
            raise ValueError(f"{raw_root}/{sdir}: subject missing from {subjects_file}")
        next_index: dict[int, int] = {}
        posture_files = sorted(
            (
                int(m.group(1)), fn
            )
            for fn in os.listdir(os.path.join(raw_root, sdir))
            if (m := re.fullmatch(r"(\d+)\.txt", fn))
        )
        if not posture_files:
            raise ValueError(f"{raw_root}/{sdir}: no posture files (N.txt) found")
        for raw_id, fn in posture_files:
            group = merge_postures(raw_id, table)
            start = next_index.get(group, 0)
            path = os.path.join(raw_root, sdir, fn)
            with open(path, "r", encoding="utf-8") as fh:
                count = 0
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        values = np.asarray(line.split(), dtype=np.float64)
                        if values.size != grid.n_cells:
                            raise ValueError(f"{values.size} values, expected {grid.n_cells}")
                        arr = values.reshape(
                            (grid.cols, grid.rows) if transpose else (grid.rows, grid.cols)
                        )
                        if transpose:
                            arr = arr.T
                        frames.append(
                            PressureFrame(
                                grid=grid,
                                values=arr,
                                subject_id=sid,
                                posture_id=group,
                                frame_index=start + count,
                            )
                        )
                    except ValueError as e:
                        raise ValueError(f"{path}: line {lineno}: {e}") from e
                    count += 1
            next_index[group] = start + count + SESSION_GAP

    return Corpus(
        grid=grid,
        subjects={sid: subjects[sid] for sid in subject_dirs},
        frames=tuple(frames),
        name=name,
    )


def ingest_hrlros(
    raw_root: str,
    grid: GridSpec = HRLROS_GRID,
    name: str = "hrlros",
) -> Corpus:
    npz_files = sorted(f for f in os.listdir(raw_root) if f.endswith(".npz"))
    if not npz_files:
        raise ValueError(f"{raw_root}: no per-subject .npz files found")

    subjects: dict[str, SubjectRecord] = {}
    frames: list[PressureFrame] = []
    for fn in npz_files:
        sid = fn[: -len(".npz")]
        path = os.path.join(raw_root, fn)
        try:  # a damaged or non-.npz file, or an array of the wrong kind
            # np.load leaves the file open when its zip is damaged, so the handle is ours
            with open(path, "rb") as fh, np.load(fh) as data:
                for key in ("frames", "posture_ids", "height_m", "weight_kg"):
                    if key not in data:
                        raise ValueError(f"missing array {key!r}")
                age = float(data["age_years"]) if "age_years" in data else None
                subjects[sid] = SubjectRecord(
                    subject_id=sid,
                    height_m=float(data["height_m"]),
                    weight_kg=float(data["weight_kg"]),
                    age_years=age,
                )
                raw_frames = np.asarray(data["frames"], dtype=np.float64)
                postures = np.asarray(data["posture_ids"], dtype=int)
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile, zlib.error) as e:
            raise ValueError(f"{path}: {e}") from e
        if raw_frames.ndim != 3 or raw_frames.shape[1:] != (grid.rows, grid.cols):
            raise ValueError(
                f"{path}: frames must be (n, {grid.rows}, {grid.cols}), "
                f"got {raw_frames.shape}"
            )
        if len(postures) != len(raw_frames):
            raise ValueError(f"{path}: posture_ids length mismatch")
        # a posture run resumed after another starts after a gap, as in ingest_pmatdata
        run_ends = np.append(postures[1:] != postures[:-1], True).tolist()
        next_index: dict[int, int] = {}
        for i in range(len(raw_frames)):
            pid = int(postures[i])
            idx = next_index.get(pid, 0)
            try:
                frames.append(
                    PressureFrame(
                        grid=grid,
                        values=raw_frames[i],
                        subject_id=sid,
                        posture_id=pid,
                        frame_index=idx,
                    )
                )
            except ValueError as e:
                raise ValueError(f"{path}: frame {i}: {e}") from e
            next_index[pid] = idx + 1 + SESSION_GAP * run_ends[i]

    return Corpus(
        grid=grid,
        subjects=subjects,
        frames=tuple(frames),
        feature_mask=HRLROS_FEATURE_MASK,
        name=name,
    )
