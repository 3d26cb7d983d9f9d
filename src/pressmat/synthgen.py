"""Deterministic synthetic pressure-map corpora with known BMI / identity truth.

Each subject is rendered as five anisotropic Gaussian blobs (head, torso,
pelvis, two legs). Blob amplitudes are proportional to body weight through
fixed per-blob mass fractions, longitudinal extent is proportional to body
height, so frame sums grow with weight and footprints grow with BMI. The
random source is numpy's PCG64 seeded explicitly, which is reproducible
bit-for-bit across platforms.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Corpus, GridSpec, PressureFrame, SubjectRecord

POSTURE_IDS = {"supine": 1, "right": 2, "left": 3}

# Fraction of body weight carried by each blob; sums to 1 so the total
# rendered amplitude stays linear in weight_kg.
MASS_FRACTIONS = np.array([0.08, 0.43, 0.33, 0.08, 0.08])
# Blob centers along the body axis as fractions of the body span.
LONG_POSITIONS = np.array([0.07, 0.32, 0.56, 0.82, 0.82])
# Lateral offsets in fractions of the body span (legs straddle the midline).
LAT_POSITIONS = np.array([0.0, 0.0, 0.0, -0.06, 0.06])
# Base standard deviations as fractions of the body span: (long, lat).
BASE_SIGMAS = np.array([
    [0.040, 0.035],   # head
    [0.110, 0.080],   # torso
    [0.070, 0.075],   # pelvis
    [0.130, 0.030],   # left leg
    [0.130, 0.030],   # right leg
])

AMPLITUDE_GAIN = 6.0        # kg -> sensor units at the blob center
BED_LENGTH_M = 2.0          # nominal mattress length spanned by the long axis
SIDE_SHIFT_FRACTION = 0.15  # of grid cols, per the side-posture convention
SIDE_LAT_SHRINK = 0.7


@dataclass(frozen=True)
class NoiseSpec:
    """Per-frame corruption: multiplicative gain noise, dropout, center jitter."""

    multiplicative_sigma: float = 0.0
    dropout_prob: float = 0.0
    jitter_sigma_cells: float = 0.0

    def __post_init__(self):
        for name in ("multiplicative_sigma", "dropout_prob", "jitter_sigma_cells"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.multiplicative_sigma < 0 or self.jitter_sigma_cells < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ValueError(f"dropout_prob must be in [0, 1], got {self.dropout_prob}")


@dataclass(frozen=True)
class BodyModel:
    """Blob parameters for one subject in the neutral (supine) pose.

    ``centers`` are (long, lat) grid coordinates, ``sigmas`` are (long, lat)
    standard deviations in cells and ``amplitudes`` are peak sensor values.
    """

    subject: SubjectRecord
    centers: np.ndarray      # (5, 2)
    sigmas: np.ndarray       # (5, 2)
    amplitudes: np.ndarray   # (5,)

    def __post_init__(self):
        if np.any(self.amplitudes < 0):
            raise ValueError("blob amplitudes must be non-negative")


def _long_lat_sizes(grid: GridSpec) -> tuple[int, int]:
    """Body lies along the longer grid axis."""
    if grid.cols >= grid.rows:
        return grid.cols, grid.rows
    return grid.rows, grid.cols


def body_model(subject: SubjectRecord, grid: GridSpec, rng: np.random.Generator) -> BodyModel:
    """Build the subject's blob layout; per-subject shape quirks come from ``rng``.

    The quirks (small center offsets and sigma factors) are what makes two
    subjects with similar BMI distinguishable, mimicking individual build.
    """
    n_long, n_lat = _long_lat_sizes(grid)
    span = n_long * subject.height_m / BED_LENGTH_M
    start = (n_long - span) / 2.0
    mid = (n_lat - 1) / 2.0

    # Heavier builds press a wider area at the same height.
    lat_scale = 0.8 + 0.2 * subject.bmi / 22.0

    center_quirk = rng.uniform(-1.5, 1.5, size=(5, 2))
    sigma_quirk = rng.uniform(0.9, 1.1, size=(5, 2))

    centers = np.empty((5, 2))
    centers[:, 0] = start + LONG_POSITIONS * span
    centers[:, 1] = mid + LAT_POSITIONS * span
    centers += center_quirk

    sigmas = BASE_SIGMAS * span * sigma_quirk
    sigmas[:, 1] *= lat_scale

    amplitudes = subject.weight_kg * MASS_FRACTIONS * AMPLITUDE_GAIN

    centers[:, 0] = np.clip(centers[:, 0], 0.0, n_long - 1.0)
    centers[:, 1] = np.clip(centers[:, 1], 0.0, n_lat - 1.0)
    return BodyModel(subject=subject, centers=centers, sigmas=sigmas, amplitudes=amplitudes)


def render_frame_values(
    model: BodyModel,
    grid: GridSpec,
    posture: str,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render one frame: posture offsets, jitter, noise, clip, integer quantize."""
    if posture not in POSTURE_IDS:
        raise ValueError(f"unknown posture {posture!r}")
    n_long, n_lat = _long_lat_sizes(grid)

    centers = model.centers.copy()
    sigmas = model.sigmas.copy()
    if posture != "supine":
        shift = SIDE_SHIFT_FRACTION * grid.cols
        centers[:, 1] += shift if posture == "right" else -shift
        sigmas[:, 1] *= SIDE_LAT_SHRINK
    if noise.jitter_sigma_cells > 0:
        centers = centers + rng.normal(0.0, noise.jitter_sigma_cells, size=centers.shape)
    centers[:, 0] = np.clip(centers[:, 0], 0.0, n_long - 1.0)
    centers[:, 1] = np.clip(centers[:, 1], 0.0, n_lat - 1.0)

    lon = np.arange(n_long)[:, None, None]   # (L, 1, 1)
    lat = np.arange(n_lat)[None, :, None]    # (1, W, 1)
    d_lon = (lon - centers[:, 0]) / sigmas[:, 0]
    d_lat = (lat - centers[:, 1]) / sigmas[:, 1]
    field = np.sum(model.amplitudes * np.exp(-0.5 * (d_lon**2 + d_lat**2)), axis=2)

    if noise.multiplicative_sigma > 0:
        gain = 1.0 + rng.normal(0.0, noise.multiplicative_sigma, size=field.shape)
        field *= np.maximum(gain, 0.0)
    if noise.dropout_prob > 0:
        field *= rng.random(field.shape) >= noise.dropout_prob

    field = np.clip(field, 0.0, grid.sensor_ceiling)
    field = np.rint(field)  # sensors report integral counts

    # field is (long, lat); orient back to (rows, cols)
    if grid.cols >= grid.rows:
        return field.T
    return field


def generate_corpus(
    n_subjects: int,
    frames_per_subject: int,
    postures: tuple[str, ...] = ("supine", "left", "right"),
    noise: NoiseSpec = NoiseSpec(),
    grid: GridSpec = GridSpec(32, 64, 1000.0, 1.5),
    seed: int = 0,
    name: str = "synthetic",
) -> Corpus:
    """Generate a labeled corpus; identical arguments and seed give identical bits.

    Subjects get heights in [1.55, 1.95] m and weights in [45, 110] kg.
    ``frames_per_subject`` frames are dealt round-robin over the requested
    postures.
    """
    if n_subjects < 2:
        raise ValueError(f"need at least 2 subjects, got {n_subjects}")
    if frames_per_subject < 1:
        raise ValueError("frames_per_subject must be >= 1")
    postures = tuple(postures)
    if not postures:
        raise ValueError("posture set must not be empty")
    for p in postures:
        if p not in POSTURE_IDS:
            raise ValueError(f"unknown posture {p!r}; choose from {sorted(POSTURE_IDS)}")

    rng = np.random.default_rng(seed)

    subjects: dict[str, SubjectRecord] = {}
    models: dict[str, BodyModel] = {}
    for i in range(n_subjects):
        sid = f"S{i + 1:02d}"
        height = rng.uniform(1.55, 1.95)
        weight = rng.uniform(45.0, 110.0)
        age = rng.uniform(20.0, 70.0)
        rec = SubjectRecord(subject_id=sid, height_m=height, weight_kg=weight, age_years=age)
        subjects[sid] = rec
        models[sid] = body_model(rec, grid, rng)

    frames: list[PressureFrame] = []
    for sid in sorted(subjects):
        counters = {p: 0 for p in postures}
        for j in range(frames_per_subject):
            posture = postures[j % len(postures)]
            values = render_frame_values(models[sid], grid, posture, noise, rng)
            frames.append(
                PressureFrame(
                    grid=grid,
                    values=values,
                    subject_id=sid,
                    posture_id=POSTURE_IDS[posture],
                    frame_index=counters[posture],
                )
            )
            counters[posture] += 1

    return Corpus(grid=grid, subjects=subjects, frames=tuple(frames), name=name)
