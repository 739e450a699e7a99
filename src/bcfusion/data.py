"""Corpus I/O, preprocessing, and the synthetic-signal generator.

On-disk corpus format
---------------------
One directory per corpus, holding a manifest plus one CSV per sample per
modality.  The manifest is UTF-8 CSV with header::

    id,face_path,pose_path,fps,label,split

Paths are resolved relative to the manifest's directory.  Sample files have
no header; rows are frames, columns are features, written at full precision
so that write -> read round-trips exactly.  Both are read as UTF-8, with or
without the byte-order mark that spreadsheet "CSV UTF-8" exports begin with.

Preprocessing mirrors how the models consume recordings: take the last
``window_seconds * fps`` frames, replace features with absolute differences
between consecutive frames (movement dynamics), and append one normalized
frame-index column per modality.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .config import (FRACTION, LABEL_RULES, NON_NEGATIVE, POSITIVE, TASKS, at_least, check,
                     located, one_of)

FACE_RAW_DIM = 674
POSE_RAW_DIM = 76
SPLITS = ("train", "validation", "test")
MANIFEST_HEADER = ["id", "face_path", "pose_path", "fps", "label", "split"]


class CorpusError(ValueError):
    """Raised for malformed manifests, sample files, or generator specs."""


@dataclass
class SampleDescriptor:
    id: str
    face_path: Path
    pose_path: Path
    fps: float
    label: float
    split: str


@dataclass
class RawSample:
    """Frame-aligned per-frame feature matrices for one recording."""

    id: str
    face_frames: np.ndarray
    pose_frames: np.ndarray
    fps: float
    label: float
    split: str


@dataclass
class ProcessedSample:
    """Windowed, differenced, index-augmented sequences ready for a model."""

    id: str
    face_seq: np.ndarray
    pose_seq: np.ndarray
    label: float
    split: str


# -- matrix files --------------------------------------------------------------

def write_matrix_csv(path: str | Path, array: np.ndarray) -> None:
    """Write a 2-D float matrix with enough digits for an exact round-trip."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise CorpusError(f"{path}: expected a 2-D matrix, got shape {arr.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row_format = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with path.open("w", encoding="utf-8", newline="") as fh:
        for row in arr:
            fh.write(row_format % tuple(row.tolist()))


def _unreadable_row(lines: list[str]) -> str:
    """``row n: <problem>`` for the first file line that ``np.loadtxt`` cannot read:
    a column count other than row 1's, or a field that is not a number."""
    width = len(lines[0].split(","))
    for row, line in enumerate(lines, start=1):
        columns = len(line.split(","))
        if columns != width:
            return f"row {row}: {columns} columns where row 1 has {width}"
        try:
            np.loadtxt([line], delimiter=",", dtype=np.float64, comments=None)
        except ValueError:
            return f"row {row}: unreadable numeric data {line!r}"
    return "unreadable numeric data"


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """A CSV file of finite numbers, one row per line: row n is file line n, so a
    blank or ``#``-led line before the last row is an error naming its line."""
    path = Path(path)
    # read_text turns \r\n and \r into \n; splitlines would also split at \f and \x1c-\x1e
    text = path.read_text(encoding="utf-8-sig", errors="replace").rstrip()
    if not text:
        raise CorpusError(f"{path}: no data rows")
    lines = text.split("\n")
    for row, line in enumerate(lines, start=1):
        if line.strip()[:1] in ("", "#"):
            raise CorpusError(f"{path}: row {row}: blank or '#' line inside the data")
    try:
        arr = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        raise CorpusError(f"{path}: {_unreadable_row(lines)}") from None
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise CorpusError(f"{path}: row {np.argmin(finite) + 1}: non-finite value")
    return arr


# -- manifests -----------------------------------------------------------------

def _parse_label(raw: str, task: str, row: int, path: Path) -> float:
    try:
        label = float(raw)
    except ValueError as exc:
        raise CorpusError(f"{path}: row {row}: bad label {raw!r}") from exc
    rule = LABEL_RULES[task]
    if not rule.admits(label):
        raise CorpusError(f"{path}: row {row}: {task} label must be {rule.text}, got {raw}")
    return label


def load_manifest(path: str | Path, task: str) -> list[SampleDescriptor]:
    """Parse a manifest into descriptors, in file order.

    Labels are held to ``task``'s domain in :data:`bcfusion.config.LABEL_RULES`;
    a task that has none is a ConfigError before the file is opened.
    """
    check("task", task, one_of(*TASKS))
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    root = path.parent
    descriptors: list[SampleDescriptor] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise CorpusError(f"{path}: expected header {','.join(MANIFEST_HEADER)!r}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(MANIFEST_HEADER):
                raise CorpusError(f"{path}: row {row_no}: expected "
                                  f"{len(MANIFEST_HEADER)} fields, got {len(row)}")
            sid, face_rel, pose_rel, fps_raw, label_raw, split = (v.strip() for v in row)
            if sid in seen:
                raise CorpusError(f"{path}: row {row_no}: duplicate id {sid!r}")
            seen.add(sid)
            try:
                fps = float(fps_raw)
            except ValueError as exc:
                raise CorpusError(f"{path}: row {row_no}: bad fps {fps_raw!r}") from exc
            if not POSITIVE.admits(fps):
                raise CorpusError(f"{path}: row {row_no}: fps must be a finite positive number")
            if split not in SPLITS:
                raise CorpusError(f"{path}: row {row_no}: split must be one of {SPLITS}")
            label = _parse_label(label_raw, task, row_no, path)
            face_path, pose_path = root / face_rel, root / pose_rel
            for column, p in zip(MANIFEST_HEADER[1:3], (face_path, pose_path)):
                if not p.exists():
                    raise FileNotFoundError(f"{path}: row {row_no}: missing sample file {p}")
                if not p.is_file():  # an empty path names the corpus directory
                    raise CorpusError(f"{path}: row {row_no}: sample {sid!r}: {column} {p} "
                                      f"is not a file")
            descriptors.append(SampleDescriptor(sid, face_path, pose_path, fps, label, split))
    return descriptors


def load_sample_features(desc: SampleDescriptor,
                         face_dim: int = FACE_RAW_DIM,
                         pose_dim: int = POSE_RAW_DIM) -> RawSample:
    """Load and frame-align one sample's modality files.

    Unequal frame counts are truncated to the shorter modality with a
    warning; a column-count mismatch is an error naming expected/actual.
    """
    face = read_matrix_csv(desc.face_path)
    pose = read_matrix_csv(desc.pose_path)
    if face.shape[1] != face_dim:
        raise CorpusError(f"{desc.face_path}: expected {face_dim} face columns, "
                          f"got {face.shape[1]}")
    if pose.shape[1] != pose_dim:
        raise CorpusError(f"{desc.pose_path}: expected {pose_dim} pose columns, "
                          f"got {pose.shape[1]}")
    if face.shape[0] != pose.shape[0]:
        t = min(face.shape[0], pose.shape[0])
        warnings.warn(f"sample {desc.id}: unequal frame counts "
                      f"(face {face.shape[0]}, pose {pose.shape[0]}); truncating to {t}")
        face, pose = face[:t], pose[:t]
    return RawSample(desc.id, face, pose, desc.fps, desc.label, desc.split)


# -- preprocessing ---------------------------------------------------------------

def preprocess(raw: RawSample, window_seconds: float = 3.0) -> ProcessedSample:
    """Window, difference, and index-augment one sample.

    Keeps the last ``window_seconds * fps`` frames, takes the absolute
    difference between consecutive frames per feature, and appends each
    modality's normalized frame index (frame / window length, in (0, 1)).
    Output length is window length - 1.  A window whose frame count
    overflows, and finite frames whose difference overflows, raise
    ``CorpusError`` naming the sample (and the window and fps, or the
    modality and the two file rows).
    """
    frames = window_seconds * raw.fps
    if not math.isfinite(frames):
        raise CorpusError(f"sample {raw.id}: a window of {window_seconds:g} s at {raw.fps:g} fps "
                          f"is not a finite number of frames")
    win = int(round(frames))
    if win < 2:
        raise CorpusError(f"sample {raw.id}: window of {win} frames is too short to difference")
    t_raw = raw.face_frames.shape[0]
    if t_raw < win:
        raise CorpusError(f"sample {raw.id}: recording has {t_raw} frames, "
                          f"window needs {win:g}")
    index_col = (np.arange(1, win, dtype=np.float64) / win)[:, None]

    def transform(frames: np.ndarray, modality: str) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflow is reported just below
            diffs = np.abs(np.diff(frames[-win:], axis=0))
        bad = ~np.isfinite(diffs).all(axis=1)
        if bad.any():
            row = len(frames) - win + int(np.argmax(bad)) + 1
            raise CorpusError(f"sample {raw.id}: {modality} rows {row}-{row + 1}: difference "
                              f"of consecutive frames is not finite")
        return np.hstack([diffs, index_col])

    return ProcessedSample(raw.id, transform(raw.face_frames, "face"),
                           transform(raw.pose_frames, "pose"), raw.label, raw.split)


def load_corpus(manifest_path: str | Path, task: str, window_seconds: float = 3.0,
                face_dim: int = FACE_RAW_DIM, pose_dim: int = POSE_RAW_DIM,
                ) -> dict[str, list[ProcessedSample]]:
    """Load every sample and group the preprocessed results by split."""
    corpus: dict[str, list[ProcessedSample]] = {s: [] for s in SPLITS}
    for desc in load_manifest(manifest_path, task):
        raw = load_sample_features(desc, face_dim=face_dim, pose_dim=pose_dim)
        corpus[desc.split].append(preprocess(raw, window_seconds))
    return corpus


# -- synthetic corpora -----------------------------------------------------------

SIGNAL_KINDS = ("single-modality", "redundant", "xor-cross-modal")
# A full-strength burst adds +0.5 and -0.5 to alternating frames of its stream.
BURST_AMPLITUDE = 0.5


@dataclass
class SynthSpec:
    """Recipe for a generated corpus with a planted cross-modal signal.

    ``single-modality`` plants a class-dependent motion burst in one modality
    (``modality``); ``redundant`` plants it in both; ``xor-cross-modal`` draws
    one independent burst flag per modality and labels the sample with their
    XOR, so neither modality alone predicts the label above chance.  Bursts
    land inside the trailing three seconds so any window of at least that
    length sees them.  Detection corpora are exactly class-balanced.
    """

    n_samples: int = 100
    t_raw: int = 90
    fps: float = 30.0
    kind: str = "redundant"
    noise: float = 0.05
    seed: int = 0
    task: str = "detection"
    face_dim: int = FACE_RAW_DIM
    pose_dim: int = POSE_RAW_DIM
    modality: str = "face"
    val_frac: float = 0.2
    test_frac: float = 0.0

    def validate(self, origin: Optional[Mapping[str, str]] = None) -> None:
        """Raise CorpusError for a bad setting; an error for a key that ``origin``
        maps to a ``path:line`` names that place (see :meth:`TrainConfig.validate`)."""
        for key, rule in SPEC_RULES.items():
            check(key, getattr(self, key), rule, origin, CorpusError)
        if self.task == "detection":
            need = 4 if self.kind == "xor-cross-modal" else 2
            if self.n_samples % need != 0:
                raise CorpusError(located(origin, "n_samples", f"detection corpora with kind "
                                          f"{self.kind!r} need n_samples divisible by {need} "
                                          f"for exact class balance"))
        if self.val_frac + self.test_frac >= 1:
            key = "test_frac" if origin and "test_frac" in origin else "val_frac"
            raise CorpusError(located(origin, key, "val_frac + test_frac must be below 1, got "
                                                   f"{self.val_frac!r} + {self.test_frac!r}"))


SPEC_RULES = {"n_samples": at_least(2), "t_raw": at_least(2), "fps": POSITIVE,
              "kind": one_of(*SIGNAL_KINDS), "noise": NON_NEGATIVE, "seed": at_least(0),
              "task": one_of(*TASKS), "face_dim": at_least(1), "pose_dim": at_least(1),
              "modality": one_of("face", "pose"), "val_frac": FRACTION, "test_frac": FRACTION}


def _split_counts(n: int, spec: SynthSpec) -> list[str]:
    n_val = int(round(n * spec.val_frac))
    n_test = int(round(n * spec.test_frac))
    n_train = n - n_val - n_test
    return ["train"] * n_train + ["validation"] * n_val + ["test"] * n_test


def _plan_samples(spec: SynthSpec, rng: np.random.Generator) -> list[dict]:
    """Decide burst flags, label, and split for every sample, then shuffle."""
    plans: list[dict] = []
    n = spec.n_samples
    if spec.task == "detection":
        if spec.kind == "xor-cross-modal":
            patterns = [(0, 0), (0, 1), (1, 0), (1, 1)] * (n // 4)
        else:
            flags = [1] * (n // 2) + [0] * (n // 2)
            if spec.kind == "single-modality":
                patterns = [(b, 0) if spec.modality == "face" else (0, b) for b in flags]
            else:
                patterns = [(b, b) for b in flags]
        # stratified splits keep every split class-balanced
        by_label: dict[float, list[tuple[int, int]]] = {}
        for pat in patterns:
            label = float(pat[0] ^ pat[1]) if spec.kind == "xor-cross-modal" else float(max(pat))
            by_label.setdefault(label, []).append(pat)
        for label, pats in sorted(by_label.items()):
            for pat, split in zip(pats, _split_counts(len(pats), spec)):
                plans.append({"burst_face": float(pat[0]), "burst_pose": float(pat[1]),
                              "label": label, "split": split})
    else:
        splits = _split_counts(n, spec)
        for i in range(n):
            if spec.kind == "xor-cross-modal":
                bf, bp = int(rng.integers(0, 2)), int(rng.integers(0, 2))
                label = 0.8 if bf ^ bp else -0.8
                plans.append({"burst_face": float(bf), "burst_pose": float(bp),
                              "label": label, "split": splits[i]})
            else:
                label = float(rng.uniform(-1.0, 1.0))
                strength = (label + 1.0) / 2.0
                bf = strength if spec.kind == "redundant" or spec.modality == "face" else 0.0
                bp = strength if spec.kind == "redundant" or spec.modality == "pose" else 0.0
                plans.append({"burst_face": bf, "burst_pose": bp,
                              "label": label, "split": splits[i]})
    rng.shuffle(plans)
    return plans


def _render_sample(plan: dict, spec: SynthSpec,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Build the two frame matrices for one planned sample."""
    t = spec.t_raw
    # burst segment sits inside the trailing 3-second stretch of the recording
    tail = min(t, int(round(3 * spec.fps)))
    seg_len = max(2, tail // 2)
    seg_hi = t - seg_len
    seg_lo = max(0, t - tail)
    start = int(rng.integers(seg_lo, seg_hi + 1)) if seg_hi > seg_lo else seg_lo

    def stream(dim: int, strength: float) -> np.ndarray:
        base = rng.normal(0.0, 1.0, size=(1, dim))
        frames = base + rng.normal(0.0, spec.noise, size=(t, dim))
        if strength > 0:
            wave = BURST_AMPLITUDE * strength * ((-1.0) ** np.arange(start, start + seg_len))
            frames[start:start + seg_len] += wave[:, None]
        return frames

    return stream(spec.face_dim, plan["burst_face"]), stream(spec.pose_dim, plan["burst_pose"])


def synth_generate(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write a complete corpus (manifest + per-sample files); returns the manifest path.

    Deterministic for a fixed seed: sample i is rendered from a generator
    seeded with (spec.seed, i), so regeneration is bitwise identical.
    """
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan_rng = np.random.default_rng([spec.seed, 0xC0])
    plans = _plan_samples(spec, plan_rng)
    rows = []
    for i, plan in enumerate(plans):
        sid = f"s{i:05d}"
        sample_rng = np.random.default_rng([spec.seed, i])
        face, pose = _render_sample(plan, spec, sample_rng)
        face_rel, pose_rel = f"{sid}_face.csv", f"{sid}_pose.csv"
        write_matrix_csv(out_dir / face_rel, face)
        write_matrix_csv(out_dir / pose_rel, pose)
        rows.append([sid, face_rel, pose_rel, "%.17g" % spec.fps, "%.17g" % plan["label"],
                     plan["split"]])
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return manifest
