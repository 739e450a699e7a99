"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions and classes of the bcfusion modules
from outside: it replaces module and class attributes for the length of the
run and puts the originals back afterwards, so the package source stays
untouched.  Every wrapped call becomes one span with a name, a start, an
end, a parent, the benchmark phase it ran in and the topology it served.
Spans stay in memory (in flat arrays) until the run ends; the per-layer
metrics are computed from them then.  A span's self time is its duration
minus the time its child spans cover.

Exact counts are taken at the same boundaries: tape records by the op that
owns each backward rule, matmul FLOPs from operand shapes, tape and gradient
bytes from array sizes at each backward pass, samples loaded and scored.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SETUP, WARMUP, ROUND, CHECK = range(4)
PHASE_NAMES = ("setup", "warmup", "round", "check")

# Ops whose backward rules land on the tape, by the function that defines the rule.
RECORD_OPS = ("matmul", "transpose", "add", "neg", "mul", "relu", "sigmoid", "log", "clip",
              "softmax", "layer_norm", "tsum", "tmean", "concat", "slice_cols")
# Ops whose time (forward self time plus backward-rule time) is reported.
TIMED_OPS = ("matmul", "softmax", "layer_norm", "slice_cols", "concat", "add", "mul")
MODULES = ("data", "models", "layers", "tensor", "training")
MIB = float(1 << 20)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: phases and spans cost nothing."""

    @contextmanager
    def phase(self, phase: int):
        yield

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Records spans and counts around calls into the bcfusion modules."""

    def __init__(self, topologies):
        self.topologies = list(topologies)
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._phase = array("b")
        self._tag = array("b")
        self._stack = [-1]
        self.phase_now = SETUP
        self.tag_now = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self._end)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._phase.append(self.phase_now)
        self._tag.append(self.tag_now)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def _count(self, key, n=1) -> None:
        self.counts[(self.phase_now,) + key] += n

    def _keep_max(self, key, value) -> None:
        k = (self.phase_now,) + key
        self.maxima[k] = max(self.maxima[k], value)

    @contextmanager
    def span(self, name: str):
        """Record the body as one span opened by the benchmark itself."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def phase(self, phase: int):
        """Run the body as one root span of the given benchmark phase."""
        previous = self.phase_now
        self.phase_now = phase
        try:
            with self.span("bench." + PHASE_NAMES[phase]):
                yield
        finally:
            self.phase_now = previous

    @contextmanager
    def _tagged(self, topology: str):
        previous = self.tag_now
        self.tag_now = self.topologies.index(topology)
        try:
            yield
        finally:
            self.tag_now = previous

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _patch(self, owner, attr: str, make) -> None:
        # A name the program no longer has is skipped: its metrics then read 0.
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, bc) -> None:
        """Wrap the public API of ``bc`` (a namespace holding the bcfusion modules)."""
        tensor, layers, models, training, data = bc.tensor, bc.layers, bc.models, bc.training, bc.data
        for op in RECORD_OPS + ("sub", "scale"):
            make = self._matmul if op == "matmul" else (lambda f, op=op: self._spanned("tensor." + op, f))
            self._patch(tensor, op, make)
        self._patch(tensor.Tape, "record", self._record)
        for owner in (tensor, training):
            self._patch(owner, "backward", self._backward)

        for name, attrs in (("Linear", ("__call__",)), ("MultiHeadAttention", ("__call__",)),
                            ("TransformerLayer", ("forward", "__call__"))):
            for attr in attrs:
                self._patch(getattr(layers, name, None), attr,
                            lambda f, n=name: self._spanned("layers." + n, f))
        for fn in ("scaled_dot_product_attention", "dropout", "add_positional_encoding",
                   "sinusoidal_positional_encoding", "mean_pool", "uniform_init"):
            self._patch(layers, fn, lambda f, n=fn: self._spanned("layers." + n, f))
        for fn in ("mean_pool", "add_positional_encoding"):
            self._patch(models, fn, lambda f, n=fn: self._spanned("layers." + n, f))

        for attr in ("forward", "__call__"):
            self._patch(models.FusionModel, attr, lambda f: self._forward(f, tensor.active_tape))
        for owner in (models, training):
            self._patch(owner, "build_model", lambda f: self._spanned("models.build_model", f))
        for fn in ("load_checkpoint", "save_checkpoint", "split_streams"):
            self._patch(models, fn, lambda f, n=fn: self._spanned("models." + n, f))

        self._patch(training, "run_training", self._run_training)
        self._patch(training, "evaluate_metrics", self._evaluate_metrics)
        for fn in ("combined_loss", "adam_step", "predict", "bce_loss", "mse_loss"):
            self._patch(training, fn, lambda f, n=fn: self._spanned("training." + n, f))

        self._patch(data, "load_sample_features", self._load_sample_features)
        for fn in ("load_corpus", "load_manifest", "preprocess", "read_matrix_csv",
                   "write_matrix_csv", "synth_generate"):
            self._patch(data, fn, lambda f, n=fn: self._spanned("data." + n, f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _matmul(self, fn):
        nid = self._id("tensor.matmul")

        def traced(a, b, *args, **kwargs):
            m, k, n = _gemm_dims(a, b)
            self._count(("flops",), 2 * m * k * n)
            i = self._open(nid)
            try:
                return fn(a, b, *args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _record(self, fn):
        def traced(tape, inputs, out, backward_fn, *args, **kwargs):
            op = backward_fn.__qualname__.split(".", 1)[0]
            op = op if op in RECORD_OPS else "other"
            self._count(("records", op, self.tag_now))
            nid = self._id(f"tensor.{op}.bw")
            gemm_flops = 0
            if op == "matmul":
                m, k, n = _gemm_dims(*inputs)
                gemm_flops = 2 * m * k * n * sum(t.requires_grad for t in inputs)

            def rule(g):
                if gemm_flops:
                    self._count(("flops",), gemm_flops)
                i = self._open(nid)
                try:
                    return backward_fn(g)
                finally:
                    self._close(i)

            rule.__wrapped__ = backward_fn
            return fn(tape, inputs, out, rule, *args, **kwargs)

        return traced

    def _backward(self, fn):
        nid = self._id("tensor.backward")

        def traced(output, tape, *args, **kwargs):
            # the scans get spans of their own so that no layer's self time pays for them
            with self.span("bench.scan_tape"):
                self._keep_max(("tape_bytes", self.tag_now), _tape_bytes(tape))
            i = self._open(nid)
            try:
                return fn(output, tape, *args, **kwargs)
            finally:
                self._close(i)
                with self.span("bench.scan_tape"):
                    self._keep_max(("grad_bytes", self.tag_now), _grad_bytes(tape))

        return traced

    def _forward(self, fn, active_tape):
        train_id, eval_id = self._id("models.forward.train"), self._id("models.forward.eval")

        def traced(model, *args, **kwargs):
            train = active_tape() is not None
            with self._tagged(model.topology.value):
                self._count(("forward", "train" if train else "eval", self.tag_now))
                i = self._open(train_id if train else eval_id)
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    self._close(i)

        return traced

    def _run_training(self, fn):
        spanned = self._spanned("training.run_training", fn)

        def traced(corpus, config, *args, **kwargs):
            with self._tagged(config.topology):
                return spanned(corpus, config, *args, **kwargs)

        return traced

    def _evaluate_metrics(self, fn):
        spanned = self._spanned("training.evaluate_metrics", fn)

        def traced(model, samples, *args, **kwargs):
            self._count(("evaluated",), len(samples))
            return spanned(model, samples, *args, **kwargs)

        return traced

    def _load_sample_features(self, fn):
        spanned = self._spanned("data.load_sample_features", fn)

        def traced(desc, *args, **kwargs):
            self._count(("csv_bytes",), os.path.getsize(desc.face_path)
                        + os.path.getsize(desc.pose_path))
            return spanned(desc, *args, **kwargs)

        return traced

    # -- metrics -----------------------------------------------------------------

    def per_layer_metrics(self, rounds: int, samples_written: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the timed rounds, as ``name -> (value, unit)``."""
        n = len(self._end)
        ids = np.frombuffer(self._name, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        phase = np.frombuffer(self._phase, dtype=np.int8)
        tag = np.frombuffer(self._tag, dtype=np.int8)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        in_round = phase == ROUND

        def select(name, phases=(ROUND,), topology=None):
            mask = (ids == self._ids.get(name, -1)) & np.isin(phase, phases)
            if topology is not None:
                mask &= tag == self.topologies.index(topology)
            return mask

        def total(name, **kw):
            return float(dur[select(name, **kw)].sum())

        def own(name):
            return float(self_time[select(name)].sum())

        def calls(name, **kw):
            return int(select(name, **kw).sum())

        def ms_per(seconds, count):
            return 1e3 * seconds / count if count else 0.0

        def count(*key):
            return self.counts[(ROUND,) + key]

        train_fwd = {t: count("forward", "train", i) for i, t in enumerate(self.topologies)}
        n_train = sum(train_fwd.values())
        n_eval = sum(count("forward", "eval", i) for i in range(len(self.topologies)))
        n_fwd = n_train + n_eval
        steps = calls("training.adam_step")
        loaded = calls("data.load_sample_features")
        round_s = total("bench.round") - total("bench.calibrate")
        records = Counter()
        for (ph, kind, *rest), v in self.counts.items():
            if ph == ROUND and kind == "records":
                records[rest[0]] += v
        matmul_s = own("tensor.matmul") + own("tensor.matmul.bw")

        m: dict[str, tuple[float, str]] = {}
        m["data.manifest_ms"] = (ms_per(total("data.load_manifest"), calls("data.load_manifest")), "ms")
        m["data.read_ms_per_sample"] = (ms_per(total("data.load_sample_features"), loaded), "ms")
        m["data.preprocess_ms_per_sample"] = (ms_per(total("data.preprocess"), loaded), "ms")
        m["data.csv_bytes_per_sample"] = (count("csv_bytes") / loaded if loaded else 0.0, "bytes")
        m["data.synth_ms_per_sample"] = (ms_per(total("bench.write_corpus", phases=(SETUP,)),
                                                samples_written), "ms")

        m["models.forward_train_ms_per_sample"] = (ms_per(total("models.forward.train"), n_train), "ms")
        m["models.forward_eval_ms_per_sample"] = (ms_per(total("models.forward.eval"), n_eval), "ms")
        builds = dict(phases=(SETUP, ROUND))
        m["models.build_ms"] = (ms_per(total("models.build_model", **builds),
                                       calls("models.build_model", **builds)), "ms")
        m["models.checkpoint_load_ms"] = (ms_per(total("models.load_checkpoint"),
                                                 calls("models.load_checkpoint")), "ms")
        for t in self.topologies:
            k = train_fwd[t]
            m[f"models.{t}.train_ms_per_sample"] = (
                ms_per(total("training.run_training", topology=t), k), "ms")
            m[f"models.{t}.forward_ms_per_sample"] = (
                ms_per(total("models.forward.train", topology=t), k), "ms")
            m[f"models.{t}.backward_ms_per_sample"] = (
                ms_per(total("tensor.backward", topology=t), k), "ms")

        m["layers.transformer_ms_per_sample"] = (ms_per(total("layers.TransformerLayer"), n_fwd), "ms")
        m["layers.attention_ms_per_sample"] = (ms_per(total("layers.MultiHeadAttention"), n_fwd), "ms")
        m["layers.linear_ms_per_sample"] = (ms_per(total("layers.Linear"), n_fwd), "ms")

        m["tensor.backward_ms_per_step"] = (ms_per(total("tensor.backward"), calls("tensor.backward")), "ms")
        m["tensor.records_per_sample"] = (sum(records.values()) / n_train if n_train else 0.0, "count")
        for op in RECORD_OPS + ("other",):
            m[f"tensor.records.{op}_per_sample"] = (records[op] / n_train if n_train else 0.0, "count")
        for op in TIMED_OPS:
            m[f"tensor.{op}.ms_per_sample"] = (
                ms_per(own(f"tensor.{op}") + own(f"tensor.{op}.bw"), n_fwd), "ms")
        flops = count("flops")
        m["tensor.matmul.gflop_per_sample"] = (flops / n_fwd / 1e9 if n_fwd else 0.0, "GFLOP")
        m["tensor.matmul.gflops"] = (flops / 1e9 / matmul_s if matmul_s else 0.0, "GFLOP/s")
        m["tensor.tape_mib_at_backward"] = (self._round_max("tape_bytes") / MIB, "MiB")
        m["tensor.grad_mib_after_backward"] = (self._round_max("grad_bytes") / MIB, "MiB")
        m["tensor.matmul.share_pct"] = (100.0 * matmul_s / round_s, "%")
        m["tensor.backward.share_pct"] = (100.0 * total("tensor.backward") / round_s, "%")

        m["training.loss_ms_per_sample"] = (ms_per(total("training.combined_loss"), n_train), "ms")
        m["training.adam_ms_per_step"] = (ms_per(total("training.adam_step"), steps), "ms")
        m["training.eval_ms_per_sample"] = (ms_per(total("training.evaluate_metrics"),
                                                   count("evaluated")), "ms")
        m["training.loop_self_ms_per_step"] = (ms_per(own("training.run_training"), steps), "ms")
        m["training.steps"] = (steps / rounds, "count")

        module_of = np.array([name.split(".", 1)[0] for name in self._names] or [""])
        span_module = module_of[ids[in_round]]
        for mod in MODULES:
            share = self_time[in_round][span_module == mod].sum()
            m[f"{mod}.share_pct"] = (100.0 * float(share) / round_s, "%")
        return m

    def _round_max(self, kind: str) -> float:
        return max((v for (ph, k, _), v in self.maxima.items() if ph == ROUND and k == kind),
                   default=0)

    def topology_table(self, metrics: dict) -> list[tuple[str, float, float, float, float]]:
        """Per trained topology: forward ms, backward ms and records per sample, tape MiB."""
        rows = []
        for i, t in enumerate(self.topologies):
            n = self.counts[(ROUND, "forward", "train", i)]
            if not n:
                continue
            records = sum(v for (ph, kind, *rest), v in self.counts.items()
                          if ph == ROUND and kind == "records" and rest[1] == i)
            rows.append((t, metrics[f"models.{t}.forward_ms_per_sample"][0],
                         metrics[f"models.{t}.backward_ms_per_sample"][0], records / n,
                         self.maxima[(ROUND, "tape_bytes", i)] / MIB))
        return rows


def _gemm_dims(a, b) -> tuple[int, int, int]:
    sa, sb = np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))
    m = sa[0] if len(sa) == 2 else 1
    return m, sa[-1], sb[-1] if len(sb) == 2 else 1


def _tape_bytes(tape) -> int:
    """Bytes the tape keeps alive: op outputs, constant inputs and arrays its rules close over.

    Parameters (leaves that need gradients) belong to the model, not the tape,
    and are left out.
    """
    outputs = {id(out) for _, out, _ in tape.records}
    seen: set[int] = set()
    total = 0

    def add(arr) -> None:
        nonlocal total
        if isinstance(arr, np.ndarray) and id(arr) not in seen:
            seen.add(id(arr))
            total += arr.nbytes

    for inputs, out, rule in tape.records:
        add(out.data)
        for t in inputs:
            if not t.requires_grad or id(t) in outputs:
                add(t.data)
        for cell in getattr(rule, "__wrapped__", rule).__closure__ or ():
            try:
                add(cell.cell_contents)
            except ValueError:  # an empty closure cell
                pass
    return total


def _grad_bytes(tape) -> int:
    """Bytes of gradient buffers held by tensors the tape references, after backward."""
    seen: set[int] = set()
    total = 0
    for inputs, out, _ in tape.records:
        for t in inputs + (out,):
            if t.grad is not None and id(t) not in seen:
                seen.add(id(t))
                total += t.grad.nbytes
    return total
