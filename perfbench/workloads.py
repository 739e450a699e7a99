"""The three benchmark workloads and the output checks they make.

Every workload follows one user-facing path of the program through its
public API, in rounds: load a CSV corpus, then train and score (the
``bcfusion sweep`` path) or score saved checkpoints (the ``bcfusion eval``
path).  Set-up writes the corpus (and checkpoints) before timing starts and
is repeated so that its median can be reported; a warm-up call then lets
BLAS and the allocator reach steady state.

* ``paper_train``: paper widths (675/77 inputs, T = 89, float64); all eight
  topologies through ``run_training`` at batch 16 for one epoch of 16
  training and 8 validation samples.  Matmul and backward dominate; the
  data layer loads 24 samples per round and takes about 5% of it.  Batched
  GEMMs, Adam and tape memory show here.
* ``toy_sweep``: the acceptance-suite scale (7/5 inputs, T = 14, 16 samples,
  batch 16, agreement task); all eight topologies for 10 epochs.  FLOPs are
  negligible and cost follows the number of tape records, so Python overhead
  per op shows here and BLAS work barely does.
* ``corpus_eval``: 24 full-width recordings (90 frames at 30 fps) written
  as CSV, scored by seeded ``one_to_one`` and ``cross_to_one`` checkpoints:
  ``load_corpus`` -> ``load_checkpoint`` -> ``evaluate_metrics``.  No tape,
  backward or Adam, so a training-side change that slows per-sample scoring
  shows only here; the data layer takes about a quarter of the round.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from hostspeed import HostClock, Timing
from tracing import CHECK, ROUND, SETUP, WARMUP

TOPOLOGIES = reference.TOPOLOGIES
# Set-up runs at least this many times, and until this many seconds have passed.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 200


@dataclass
class Round:
    """One round: load time, then the time and samples of each timed call.

    Calls are keyed ``train:<topology>``, ``checkpoint:<topology>`` and
    ``eval:<topology>``; ``work_samples`` counts the samples the round trained
    (or scored, where it trains none).
    """

    load: Timing
    work_samples: int = 0
    times: dict[str, Timing] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, time: Timing, samples: int = 0) -> None:
        self.times[key] = time
        self.samples[key] = samples


@dataclass
class Outcome:
    """Operations attempted and failed; an exception or a failed check is a failure."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args):
        """Run one operation of the program and return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted and the run goes on
            self.failed += 1
            self.messages.append(f"{what} raised")
            print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def _flush(directory: Path) -> None:
    """fsync the files set-up wrote, so that the kernel does not write them back
    in the background during the next set-up or the timed rounds."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


class Workload:
    """Set-up, warm-up, timed rounds and checks of one workload."""

    name = ""
    samples_written = 0

    def __init__(self, bc, seed: int, work_dir: Path, tracer, outcome: Outcome):
        self.bc = bc
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.outcome = outcome
        self.clock = HostClock(tracer)

    def timed(self, what: str, fn, *args):
        """(result, Timing) of one counted call."""
        return self.clock.measure(self.outcome.call, what, fn, *args)

    def run(self, seconds: float) -> tuple[list[float], list[Round]]:
        """Set up (repeatedly), warm up, then run rounds until ``seconds`` have passed.

        Set-up times are wall-clock seconds: set-up writes files, its time follows
        the disk more than the CPU, and the host-speed calibration does not track it.
        """
        setup_times: list[float] = []
        while (len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS) \
                and len(setup_times) < SETUP_MAX_REPEATS:
            if setup_times:
                shutil.rmtree(target)
            target = self.work_dir / f"setup{len(setup_times)}"
            with self.tracer.phase(SETUP):
                t0 = perf_counter()
                self.setup(target)
                setup_times.append(perf_counter() - t0)
            _flush(target)
        with self.tracer.phase(CHECK):
            self.prepare_checks()
        with self.tracer.phase(WARMUP):
            self.warm_up()
        rounds = []
        deadline = perf_counter() + seconds
        while not rounds or perf_counter() < deadline:
            with self.tracer.phase(ROUND):
                rounds.append(self.round())
        with self.tracer.phase(CHECK):
            self.final_checks()
            problems = self.outcome.call("reference case", reference.check, self.bc, self.name)
            if problems is not None:
                self.outcome.check(not problems, "; ".join(problems))
        return setup_times, rounds

    def write_corpus(self, fn, *args):
        with self.tracer.span("bench.write_corpus"):
            return fn(*args)

    def load(self, manifest: Path, task: str, raw_dims: tuple[int, int]):
        """(corpus or None, Timing) of one ``load_corpus`` call."""
        return self.timed("load_corpus", self.bc.data.load_corpus,
                          manifest, task, 3.0, *raw_dims)

    def setup(self, target: Path) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def warm_up(self) -> None:
        """Untimed work that grows the heap to its peak: the first use of fresh
        memory pays page faults that later rounds do not."""
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass


class TrainingWorkload(Workload):
    """Load a synthetic corpus, then train and score every topology on it, per round."""

    spec_kw: dict = {}
    train_kw: dict = {}

    def setup(self, target: Path) -> None:
        spec = self.bc.data.SynthSpec(seed=self.seed, **self.spec_kw)
        self.manifest = self.write_corpus(self.bc.data.synth_generate, spec, target)
        self.raw_dims = (spec.face_dim, spec.pose_dim)
        self.task = spec.task
        self.samples_written += spec.n_samples
        self.histories: dict[str, list] = {}

    def splits(self, corpus: dict) -> dict:
        return corpus

    def config(self, topology: str, **overrides):
        bc = self.bc
        kw = dict(self.train_kw, **overrides)
        model = kw.pop("model", None) or bc.config.ModelConfig()
        return bc.config.TrainConfig(task=self.task, topology=topology, seed=self.seed,
                                     model=model, **kw)

    def warm_up(self) -> None:
        # one_to_one holds the largest tape, so one full batch of it reaches the peak
        corpus = self.bc.data.load_corpus(self.manifest, self.task, 3.0, *self.raw_dims)
        corpus = self.splits(corpus)
        few = {"train": corpus["train"], "validation": corpus["validation"][:1]}
        self.bc.training.run_training(few, self.config("one_to_one", epochs=1))

    def round(self) -> Round:
        out = self.outcome
        corpus, load = self.load(self.manifest, self.task, self.raw_dims)
        rnd = Round(load)
        if corpus is None:
            return rnd
        corpus = self.splits(corpus)
        for topology in TOPOLOGIES:
            cfg = self.config(topology)
            result, dt = self.timed(f"run_training {topology}", self.bc.training.run_training,
                                    corpus, cfg)
            if result is None:
                continue
            rnd.work_samples += len(corpus["train"]) * cfg.epochs
            rnd.add(f"train:{topology}", dt)
            history = [v for row in result.history for v in row[1:]]
            out.check(all(math.isfinite(v) for v in history),
                      f"{topology}: non-finite loss or metric in {result.history}")
            first = self.histories.setdefault(topology, result.history)
            out.check(result.history == first,
                      f"{topology}: same-seed training history differs between rounds")
            metrics, dt = self.timed(f"evaluate_metrics {topology}",
                                     self.bc.training.evaluate_metrics, result.model,
                                     corpus["validation"], self.task)
            if metrics is not None:
                rnd.add(f"eval:{topology}", dt, len(corpus["validation"]))
                out.check(math.isfinite(metrics["value"]),
                          f"{topology}: non-finite validation {metrics}")
        return rnd


class PaperTrain(TrainingWorkload):
    name = "paper_train"
    spec_kw = dict(n_samples=24, t_raw=90, fps=30.0, kind="redundant", task="detection",
                   val_frac=1 / 3)
    train_kw = dict(epochs=1, batch_size=16)


class ToySweep(TrainingWorkload):
    name = "toy_sweep"
    spec_kw = dict(n_samples=16, t_raw=20, fps=5.0, kind="redundant", task="agreement",
                   face_dim=6, pose_dim=4, val_frac=0.0)
    # short calls give more rounds per run, so the per-call medians resist host noise
    train_kw = dict(epochs=10, batch_size=16, learning_rate=0.01, weight_decay=0.0)

    def config(self, topology: str, **overrides):
        model = self.bc.config.toy_model_config(face_dim=7, pose_dim=5)
        return super().config(topology, model=model, **overrides)

    def splits(self, corpus: dict) -> dict:
        # as in the acceptance suite: the training samples double as the validation split
        return {"train": corpus["train"], "validation": corpus["train"], "test": []}


class CorpusEval(Workload):
    """Score seeded checkpoints on a full-width CSV corpus, per round."""

    name = "corpus_eval"
    n_samples = 24
    task = "agreement"

    def setup(self, target: Path) -> None:
        bc = self.bc
        rng = np.random.default_rng([self.seed, 0xE7A1])
        self.raws = reference.render_raw_samples(bc, rng, self.n_samples, 90, 30.0,
                                                 bc.data.FACE_RAW_DIM, bc.data.POSE_RAW_DIM,
                                                 self.task, "test")
        self.manifest = self.write_corpus(self._write, target)
        self.samples_written += self.n_samples
        self.checkpoints = []
        for topology in reference.EVAL_TOPOLOGIES:
            model = bc.models.build_model(topology, self.task, bc.config.ModelConfig(),
                                          rng_seed=self.seed)
            path = target / f"{topology}.npz"
            bc.models.save_checkpoint(model, path, extra_meta={"window_seconds": 3.0})
            self.checkpoints.append((topology, path))
        self.scores: dict[str, float] = {}

    def _write(self, target: Path) -> Path:
        """Write the in-memory recordings as a corpus: per-sample CSVs plus a manifest."""
        write = self.bc.data.write_matrix_csv
        rows = []
        for raw in self.raws:
            face, pose = f"{raw.id}_face.csv", f"{raw.id}_pose.csv"
            write(target / face, raw.face_frames)
            write(target / pose, raw.pose_frames)
            rows.append([raw.id, face, pose, "%.17g" % raw.fps, "%.17g" % raw.label, raw.split])
        manifest = target / "manifest.csv"
        with manifest.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.bc.data.MANIFEST_HEADER)
            writer.writerows(rows)
        return manifest

    def prepare_checks(self) -> None:
        self.expected = [self.bc.data.preprocess(raw, 3.0) for raw in self.raws]

    def warm_up(self) -> None:
        self.round()

    def round(self) -> Round:
        bc, out = self.bc, self.outcome
        corpus, load = self.load(self.manifest, self.task,
                                   (bc.data.FACE_RAW_DIM, bc.data.POSE_RAW_DIM))
        rnd = Round(load)
        if corpus is None:
            return rnd
        samples = corpus["test"]
        self._check_loaded(samples)
        for topology, path in self.checkpoints:
            loaded, dt = self.timed(f"load_checkpoint {topology}", bc.models.load_checkpoint,
                                    path)
            if loaded is None:
                continue
            rnd.add(f"checkpoint:{topology}", dt)
            metrics, dt = self.timed(f"evaluate_metrics {topology}",
                                     bc.training.evaluate_metrics, loaded[0], samples, self.task)
            if metrics is None:
                continue
            rnd.add(f"eval:{topology}", dt, len(samples))
            rnd.work_samples += len(samples)
            value = metrics["value"]
            first = self.scores.setdefault(topology, value)
            out.check(math.isfinite(value) and value == first,
                      f"{topology}: score {value!r} is non-finite or differs from {first!r}")
        return rnd

    def _check_loaded(self, samples: list) -> None:
        """The loaded arrays must equal, bit for bit, preprocess() of the samples written."""
        same = len(samples) == len(self.expected) and all(
            a.id == b.id and a.label == b.label and a.face_seq.dtype == b.face_seq.dtype
            and np.array_equal(a.face_seq, b.face_seq) and np.array_equal(a.pose_seq, b.pose_seq)
            for a, b in zip(samples, self.expected))
        self.outcome.check(same, "load_corpus arrays differ from preprocess() of the written samples")

    def final_checks(self) -> None:
        """Scoring the loaded checkpoints must equal scoring the models they were saved from."""
        bc = self.bc
        for topology, _ in self.checkpoints:
            model = bc.models.build_model(topology, self.task, bc.config.ModelConfig(),
                                          rng_seed=self.seed)
            value = bc.training.evaluate_metrics(model, self.expected, self.task)["value"]
            self.outcome.check(self.scores.get(topology) == value,
                               f"{topology}: checkpoint score {self.scores.get(topology)!r} "
                               f"!= in-memory model score {value!r}")


WORKLOADS = {w.name: w for w in (PaperTrain, ToySweep, CorpusEval)}
