"""Topology wiring, determinism, parameter accounting, and checkpoint round-trips."""

import errno
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bcfusion import models, training
from bcfusion import tensor as T
from bcfusion.config import ConfigError, ModelConfig, toy_model_config
from bcfusion.data import ProcessedSample
from bcfusion.models import (ALL_TOPOLOGIES, FusionTopology, build_model, load_checkpoint,
                             parameter_breakdown, parameter_count, save_checkpoint)
from bcfusion.tensor import ShapeError, Tape, Tensor, backward
from bcfusion.training import combined_loss, loss_weights_for, minibatch_backward
from oracles import tiled_positional_encoding

TOY = toy_model_config()

N_INTERMEDIATES = {
    FusionTopology.ONE_STREAM: 0,
    FusionTopology.ONE_TO_ONE: 2,
    FusionTopology.ONE_TO_TWO: 3,
    FusionTopology.TWO_TO_ONE: 3,
    FusionTopology.CROSS_ATTENTION: 0,
    FusionTopology.CROSS_TO_ONE: 3,
    FusionTopology.FACE_ONLY: 0,
    FusionTopology.POSE_ONLY: 0,
}


def toy_inputs(seed=0, t=8):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(t, TOY.face_dim))),
            Tensor(rng.normal(size=(t, TOY.pose_dim))))


def read_meta(path):
    with np.load(path) as z:
        return json.loads(bytes(z["__meta__"]).decode("utf-8"))


def rewrite_meta(path, edit):
    """Apply ``edit`` to a checkpoint's meta in place."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = read_meta(path)
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


class TestBuildModel:
    def test_seeded_build_is_deterministic(self):
        a = build_model("one_stream", "detection", TOY, rng_seed=0)
        b = build_model("one_stream", "detection", TOY, rng_seed=0)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build_model("one_stream", "detection", TOY, rng_seed=0)
        b = build_model("one_stream", "detection", TOY, rng_seed=1)
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()))

    def test_stacked_topology_has_strictly_more_parameters(self):
        one = parameter_count(build_model("one_stream", "detection", TOY, 0))
        two = parameter_count(build_model("one_to_one", "detection", TOY, 0))
        assert two > one

    def test_cross_streams_share_common_width(self):
        model = build_model("cross_attention", "detection", TOY, 0)
        comp = model._components
        assert comp["face_proj"].d_out == comp["pose_proj"].d_out == TOY.d_cross
        assert comp["tf1x"].d_model == comp["tf2x"].d_model == TOY.d_cross

    def test_head_divisibility_is_enforced(self):
        bad = toy_model_config()
        bad.d_face = 9  # not a multiple of the 4 face heads
        with pytest.raises(ConfigError):
            build_model("face_only", "detection", bad, 0)

    def test_default_config_is_valid(self):
        ModelConfig().validate()

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            build_model("one_stream", "ranking", TOY, 0)


class TestForward:
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_both_tasks_run_one_forward_pass(self, topology):
        # detection heads emit logits: the same weights give the same finite
        # predictions, bit for bit, whatever the task
        face, pose = toy_inputs()
        detection = build_model(topology, "detection", TOY, rng_seed=0).forward(face, pose)
        agreement = build_model(topology, "agreement", TOY, rng_seed=0).forward(face, pose)
        for (tag_d, d), (tag_a, a) in zip([("final", detection.final)] + detection.intermediates,
                                          [("final", agreement.final)] + agreement.intermediates):
            assert tag_d == tag_a and np.isfinite(d.data.item())
            assert d.data.item() == a.data.item()

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_each_stage_is_pooled_once(self, topology):
        # a stage that is both supervised and pooled into the final head shares one
        # row_mean record between its head and the final head
        model = build_model(topology, "detection", TOY, rng_seed=0)
        with Tape() as tape:
            model.forward(*toy_inputs())
        # a record holds its input's gradient slot, one per stage output
        pooled = [inputs[0] for inputs, _, rule in tape.records
                  if rule.__qualname__.startswith("row_mean.")]
        spec = model.spec
        assert len(pooled) == len({id(slot) for slot in pooled}) == \
            len(set(spec.supervised + spec.pooled))

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_intermediate_count_matches_supervision_table(self, topology):
        model = build_model(topology, "detection", TOY, rng_seed=0)
        out = model.forward(*toy_inputs())
        assert len(out.intermediates) == N_INTERMEDIATES[topology]

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_forward_is_bitwise_deterministic(self, topology):
        model = build_model(topology, "detection", TOY, rng_seed=0)
        face, pose = toy_inputs()
        a = model.forward(face, pose)
        b = model.forward(face, pose)
        assert a.final.data.item() == b.final.data.item()
        for (tag_a, pa), (tag_b, pb) in zip(a.intermediates, b.intermediates):
            assert tag_a == tag_b and pa.data.item() == pb.data.item()

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_outputs_finite(self, topology):
        model = build_model(topology, "agreement", TOY, rng_seed=1)
        out = model.forward(*toy_inputs(seed=3))
        assert np.isfinite(out.final.data.item())

    def test_default_dims_full_window_forward(self):
        # the flagship configuration: 3 s at 30 fps -> 89 steps of 675/77-wide input
        cfg = ModelConfig()
        rng = np.random.default_rng(2)
        face = Tensor(rng.normal(size=(89, cfg.face_dim)))
        pose = Tensor(rng.normal(size=(89, cfg.pose_dim)))
        model = build_model("one_stream", "detection", cfg, rng_seed=0)
        rebuilt = build_model("one_stream", "detection", cfg, rng_seed=0)
        for (_, pa), (_, pb) in zip(model.named_parameters(), rebuilt.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        out = model.forward(face, pose)
        assert np.isfinite(out.final.data.item())

    def test_misaligned_modalities_rejected(self):
        # one (T, features) sequence each is a batch of one, and is named as such
        model = build_model("one_stream", "detection", TOY, 0)
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match=re.escape(
                "face (1, 8, 12) and pose (1, 7, 6) are not (B, T, 12) and (B, T, 6) "
                "stacks with B, T >= 1")):
            model.forward(Tensor(rng.normal(size=(8, TOY.face_dim))),
                          Tensor(rng.normal(size=(7, TOY.pose_dim))))

    def test_empty_sequence_rejected(self):
        model = build_model("one_stream", "detection", TOY, 0)
        with pytest.raises(ShapeError, match=re.escape(
                "face (1, 0, 12) and pose (1, 0, 6) are not (B, T, 12) and (B, T, 6) "
                "stacks with B, T >= 1")):
            model.forward(Tensor(np.zeros((0, TOY.face_dim))),
                          Tensor(np.zeros((0, TOY.pose_dim))))

    def test_wrong_width_rejected(self):
        model = build_model("one_stream", "detection", TOY, 0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((4, TOY.face_dim + 1))),
                          Tensor(np.zeros((4, TOY.pose_dim))))

    def test_cross_attention_sensitive_to_pose_with_face_fixed(self):
        model = build_model("cross_attention", "detection", TOY, rng_seed=0)
        face, pose = toy_inputs(seed=4)
        base = model.forward(face, pose).final.data.item()
        perturbed_pose = Tensor(pose.data + 0.5)
        moved = model.forward(face, perturbed_pose).final.data.item()
        assert abs(moved - base) > 0.0

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_pooled_prediction_invariant_under_joint_time_permutation(self, topology,
                                                                      monkeypatch):
        monkeypatch.setattr(models, "add_positional_encoding", lambda x, batch: x)
        cfg = toy_model_config(dropout=0.0)
        model = build_model(topology, "detection", cfg, rng_seed=0)
        rng = np.random.default_rng(5)
        face = rng.normal(size=(8, cfg.face_dim))
        pose = rng.normal(size=(8, cfg.pose_dim))
        perm = rng.permutation(8)
        a = model.forward(Tensor(face), Tensor(pose)).final.data.item()
        b = model.forward(Tensor(face[perm]), Tensor(pose[perm])).final.data.item()
        assert abs(a - b) < 1e-9

    def test_positional_encoding_breaks_permutation_invariance(self):
        model = build_model("one_stream", "detection", TOY, rng_seed=0)
        rng = np.random.default_rng(6)
        face = rng.normal(size=(8, TOY.face_dim))
        pose = rng.normal(size=(8, TOY.pose_dim))
        perm = np.roll(np.arange(8), 3)
        a = model.forward(Tensor(face), Tensor(pose)).final.data.item()
        b = model.forward(Tensor(face[perm]), Tensor(pose[perm])).final.data.item()
        assert abs(a - b) > 1e-12


class TestPositionalEncodingInPlace:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_forwards_and_gradients_match_out_of_place_oracle_bitwise(self, topology, dtype,
                                                                      monkeypatch):
        # the signal added in place to a fresh stream tensor, and the same signal
        # tiled and added out of place as an op of its own: every forward value, the
        # loss and every gradient of a mixed-length dropout step are the same bytes
        rng = np.random.default_rng(2)
        samples = [ProcessedSample(f"s{i}", rng.normal(size=(t, TOY.face_dim)),
                                   rng.normal(size=(t, TOY.pose_dim)), float(i % 2), "train")
                   for i, t in enumerate([5, 8, 5, 3, 8, 8])]

        def run():
            model = build_model(topology, "detection", TOY, rng_seed=0)
            for p in model.parameters():
                p.data = p.data.astype(dtype)
            seen = []
            for steps in (3, 5, 8):
                group = [s for s in samples if len(s.face_seq) == steps]
                out = model.forward(np.stack([s.face_seq for s in group]),
                                    np.stack([s.pose_seq for s in group]))
                seen += [p.data.tobytes() for _, p in [*out.intermediates, ("final", out.final)]]
            loss = minibatch_backward(model, samples, loss_weights_for(topology), "detection",
                                      np.random.default_rng(3))
            return seen, loss, [(p.grad.dtype, p.grad.tobytes()) for p in model.parameters()]

        in_place = run()
        monkeypatch.setattr(models, "add_positional_encoding", tiled_positional_encoding)
        assert run() == in_place
        assert in_place[2][0][0] == dtype


class TestTapeLiveness:
    """A training forward's tape keeps what its backward rules read and nothing
    else: an activation that no rule reads dies with the forward's locals."""

    TOPOLOGY = "one_to_one"

    def step(self, pin: bool):
        """One dropout training step of a toy ``one_to_one`` batch, watching the
        op outputs that no rule reads.  Returns, taken while the tape is still
        alive, whether each watched array (by label) and each input the first
        layer's attention reads are alive, then the gradients.  With ``pin``
        the watched arrays are kept alive through ``backward``."""
        model = build_model(self.TOPOLOGY, "detection", TOY, rng_seed=0)
        comp = model._components
        ffn2 = {comp[st].ffn2.w for st in ("tf1", "tf2")}
        proj = {comp["face_proj"].w, comp["pose_proj"].w}
        watched: dict[str, list] = {}
        read: list = []
        held: list = []

        def watch(label, array):
            if pin:
                held.append(array)
            watched.setdefault(label, []).append(weakref.ref(array))

        def spy(name, fn):
            def op(*args, **kwargs):
                out = fn(*args, **kwargs)
                if name == "linear" and args[1] in ffn2 | proj:
                    watch("ffn2" if args[1] in ffn2 else "projection", out.data)
                elif name == "concat":  # the fused projections, then the position signal
                    read.append(weakref.ref(out.data))  # in place: the first layer's input
                elif name == "attention":
                    watch(name, out.data)
                elif name == "layer_norm":
                    watched["last layer_norm"] = []
                    watch("last layer_norm", out.data)
                return out
            return op

        batch, steps = 2, 5
        rng = np.random.default_rng(3)
        face = rng.normal(size=(batch, steps, TOY.face_dim))
        pose = rng.normal(size=(batch, steps, TOY.pose_dim))
        keep = model.dropout_masks(batch * steps, rng)
        with pytest.MonkeyPatch.context() as mp, Tape() as tape:
            for name in ("linear", "attention", "concat", "layer_norm"):
                mp.setattr(T, name, spy(name, getattr(T, name)))
            out = model.forward(face, pose, keep=keep)
            loss = combined_loss(out, np.array([[1.0], [0.0]]), loss_weights_for(self.TOPOLOGY),
                                 "detection")
        del out
        alive = {label: [r() is not None for r in refs] for label, refs in watched.items()}
        alive["read"] = [r() is not None for r in read]
        backward(loss, tape)
        return alive, {n: p.grad for n, p in model.named_parameters()}

    def test_unread_activations_die_with_the_forward(self):
        alive, _ = self.step(pin=False)
        assert {label: len(flags) for label, flags in alive.items()} == {
            "projection": 2, "read": 1, "attention": 2, "ffn2": 2, "last layer_norm": 1}
        assert alive.pop("read") == [True]  # the first layer's input, which attention reads
        assert not any(any(flags) for flags in alive.values()), alive

    def test_gradients_do_not_depend_on_what_stays_alive(self):
        _, freed = self.step(pin=False)
        alive, pinned = self.step(pin=True)
        assert all(all(flags) for flags in alive.values())
        for name, g in pinned.items():
            assert freed[name].tobytes() == g.tobytes(), name


class TestRecordSlots:
    """The gradient traffic of a training step: every attention and layer_norm
    record takes a gradient into each of its inputs, and every linear record
    into each, but the stream projections' raw inputs.  Those ops save one
    fixed set of arrays, which is only what their rules read while this holds."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_dropout_step_records_carry_all_slots(self, topology, dtype, monkeypatch):
        model = build_model(topology, "detection", TOY, rng_seed=0)
        assert model.config.dropout > 0
        for p in model.parameters():
            p.data = p.data.astype(dtype)
        rng = np.random.default_rng(3)
        batch = [ProcessedSample(f"s{i}", rng.normal(size=(5, TOY.face_dim)),
                                 rng.normal(size=(5, TOY.pose_dim)), float(i), "train")
                 for i in range(2)]
        slots: dict[str, list[tuple]] = {}

        def spy(loss, tape):
            for inputs, _, rule in tape.records:
                slots.setdefault(rule.__qualname__.partition(".")[0], []).append(inputs)
            backward(loss, tape)

        monkeypatch.setattr(training, "backward", spy)
        minibatch_backward(model, batch, loss_weights_for(topology), "detection", rng)
        assert len(slots["attention"]) == len(slots["layer_norm"]) // 2 == len(model.spec.stages)
        assert {len(inputs) for inputs in slots["attention"]} == {6}
        assert {len(inputs) for inputs in slots["layer_norm"]} == {4}
        comp = model._components
        assert [inputs for inputs in slots["linear"] if len(inputs) != 3] == \
            [(comp[f"{s}_proj"].w, comp[f"{s}_proj"].b) for s in model.spec.streams]


class TestParameterCount:
    def test_linear_layer_count(self):
        from bcfusion.layers import Linear
        lin = Linear(2, 3, np.random.default_rng(0))
        assert sum(p.size for _, p in lin.named_parameters()) == 9

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_matches_registry_enumeration(self, topology):
        model = build_model(topology, "detection", TOY, 0)
        brute = 0
        for _, p in model.named_parameters():
            n = 1
            for dim in p.data.shape:
                n *= dim
            brute += n
        assert parameter_count(model) == brute

    def test_breakdown_sums_to_total(self):
        model = build_model("two_to_one", "detection", TOY, 0)
        breakdown = parameter_breakdown(model)
        assert sum(breakdown.values()) == parameter_count(model)
        assert "tf3" in breakdown


class TestCheckpoint:
    @pytest.mark.parametrize("topology", ["one_stream", "one_to_two", "cross_to_one"])
    def test_round_trip_reproduces_forward_bitwise(self, tmp_path, topology):
        model = build_model(topology, "detection", TOY, rng_seed=3)
        face, pose = toy_inputs(seed=8)
        before = model.forward(face, pose)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, extra_meta={"window_seconds": 3.0})
        loaded, meta = load_checkpoint(path)
        after = loaded.forward(face, pose)
        assert before.final.data.item() == after.final.data.item()
        for (_, pa), (_, pb) in zip(before.intermediates, after.intermediates):
            assert pa.data.item() == pb.data.item()
        assert meta["topology"] == topology
        assert meta["window_seconds"] == 3.0

    @pytest.mark.parametrize("cast", ["one", "all"])
    def test_rejects_parameters_not_all_float64_or_all_float32(self, tmp_path, cast):
        model = build_model("one_stream", "detection", TOY, rng_seed=0)
        params = dict(model.named_parameters())
        if cast == "one":
            params["tf1.attn.wq"].data = params["tf1.attn.wq"].data.astype(np.float32)
        else:
            for p in params.values():
                p.data = p.data.astype(np.float16)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        name = "tf1.attn.wq" if cast == "one" else next(iter(params))
        with pytest.raises(ValueError, match=rf"{path}: {name} is float(32|16)"):
            load_checkpoint(path)

    def test_loads_meta_with_retired_model_config_keys_bitwise(self, tmp_path):
        # version-1 files written while pre_norm, ffn_mult, the four head counts
        # and use_positional_encoding were settings hold a 16-key model_config;
        # the values every such file holds still load
        model = build_model("one_to_two", "detection", TOY, rng_seed=3)
        face, pose = toy_inputs(seed=8)
        before = model.forward(face, pose)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        assert list(read_meta(path)["model_config"]) == [f.name for f in fields(ModelConfig)]
        rewrite_meta(path, lambda meta: meta["model_config"].update(
            ffn_mult=2, pre_norm=False, face_heads=4, pose_heads=2, fused_heads=10, late_heads=8,
            use_positional_encoding=True))
        assert len(read_meta(path)["model_config"]) == 16
        loaded, _ = load_checkpoint(path)
        after = loaded.forward(face, pose)
        assert after.final.data.tobytes() == before.final.data.tobytes()
        for (_, pa), (_, pb) in zip(before.intermediates, after.intermediates):
            assert pa.data.tobytes() == pb.data.tobytes()

    @pytest.mark.parametrize("key, value", [("pre_norm", True), ("ffn_mult", 3),
                                            ("face_heads", 5),
                                            ("use_positional_encoding", False)])
    def test_rejects_retired_key_with_other_value(self, tmp_path, key, value):
        path = tmp_path / "model.npz"
        save_checkpoint(build_model("one_stream", "detection", TOY), path)
        rewrite_meta(path, lambda meta: meta["model_config"].update({key: value}))
        with pytest.raises(ValueError, match=rf"{path}: model_config key '{key}'"):
            load_checkpoint(path)

    def test_unreadable_archive_closes_its_file(self, tmp_path):
        # np.load on the path left the handle of a truncated archive to the collector
        path = tmp_path / "model.npz"
        save_checkpoint(build_model("one_stream", "detection", TOY), path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="not a readable"):
                load_checkpoint(path)
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_save_writes_the_bytes_of_an_in_memory_archive(self, tmp_path, dtype):
        # the archive np.savez builds in a BytesIO for the same meta and arrays
        model = build_model("one_to_two", "agreement", TOY, rng_seed=5)
        for _, p in model.named_parameters():
            p.data = p.data.astype(dtype)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, extra_meta={"window_seconds": 3.0})
        meta = json.dumps(read_meta(path), allow_nan=False).encode("utf-8")
        with io.BytesIO() as buf:
            np.savez(buf, __meta__=np.frombuffer(meta, dtype=np.uint8),
                     **{f"param:{name}": p.data for name, p in model.named_parameters()})
            assert path.read_bytes() == buf.getvalue()
        loaded, _ = load_checkpoint(path)
        for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert b.data.dtype == dtype and b.data.tobytes() == a.data.tobytes()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_save_keeps_the_previous_file_and_leaves_no_temporary(self, tmp_path, error):
        path = tmp_path / "model.npz"
        save_checkpoint(build_model("one_stream", "detection", TOY, rng_seed=1), path)
        previous = path.read_bytes()

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise error("disk gone")

        # the last parameter fails after every other one has been streamed out
        model = build_model("one_stream", "detection", TOY, rng_seed=2)
        list(model.named_parameters())[-1][1].data = Unwritable()
        with pytest.raises(error, match="disk gone"):
            save_checkpoint(model, path)
        assert path.read_bytes() == previous
        assert list(tmp_path.iterdir()) == [path]

    def test_disk_full_mid_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        save_checkpoint(build_model("one_stream", "detection", TOY, rng_seed=1), path)
        previous = path.read_bytes()
        real_open = Path.open

        class FillsUp:
            """A file that takes 1000 bytes, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh, self.room = fh, 1000

            def write(self, data):
                if len(data) > self.room:
                    self.fh.write(bytes(data)[:self.room])
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        def open_small(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return FillsUp(fh) if "w" in mode else fh

        monkeypatch.setattr(Path, "open", open_small)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(build_model("one_stream", "detection", TOY, rng_seed=2), path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert list(tmp_path.iterdir()) == [path]


# The RSS a checkpoint save or load adds, in parameter bytes, measured as the
# rise of ru_maxrss across the call in a fresh interpreter (tracemalloc does
# not see the pages an undrawn skeleton never touches).
_RSS_PROBE = """
import json, resource, sys
from bcfusion.config import ModelConfig
from bcfusion.models import build_model, load_checkpoint, parameter_count, save_checkpoint

def peak():
    kib = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kib

op, path = sys.argv[1:]
if op == "save":
    model = build_model("one_to_one", "agreement", ModelConfig(), rng_seed=0)
    before = peak()
    save_checkpoint(model, path)
else:
    before = peak()
    model, _ = load_checkpoint(path)
print(json.dumps((peak() - before) / (8 * parameter_count(model))))
"""


def checkpoint_rss_rise(op, path):
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE, op, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestCheckpointMemory:
    # a paper-width one_to_one: 9.48M float64 parameters, 72 MiB

    def test_save_streams_the_archive(self, tmp_path):
        # buffering the archive in memory added 1.12x
        assert checkpoint_rss_rise("save", tmp_path / "model.npz") < 0.5

    def test_load_draws_no_model_to_overwrite(self, tmp_path):
        # drawing a random model before binding the stored arrays added 2.08x
        path = tmp_path / "model.npz"
        checkpoint_rss_rise("save", path)
        assert checkpoint_rss_rise("load", path) < 1.5


# Per topology at toy_model_config() and seed 0, recorded before the topology
# table replaced the hand-written wiring: top-level component order, SHA-256
# of the ordered "name shape" parameter listing, SHA-256 of the concatenated
# initial values, and the eval-mode final output on toy_inputs().  A change
# in any of them breaks existing checkpoints and the benchmark's reference
# losses.
PINNED_WIRING = {
    "one_stream": ("face_proj pose_proj tf1 final",
        "90ada1a7de3e4da35b5d768a96ddb50473c9219207f1360b8c39ccb744fef15d",
        "65f3d7cc6535753db0baee510809a482a8303cafec41e894274ffd0e503aaf78",
        0.5299933812717881),
    "one_to_one": ("face_proj pose_proj tf1 tf2 head_tf1 head_tf2 final",
        "43e84e59ee4c060dbc8568aff8bdd8cd1949675e159e2338fb4f2804dc688622",
        "f2d16481ecaa2a9357027913ec01fd6c223d8b0814e2f025c3f61f2e93d1df4f",
        0.6279718965893747),
    "one_to_two": ("face_proj pose_proj tf1 tf2 tf3 head_tf1 head_tf2 head_tf3 final",
        "2ac4897df908a915ab5993f3264eafd49cb7e99bd15226edc6a516ffcdddc842",
        "e1bd6bec8f37fc0f3819524ad6e9f9297c659d7a1b8ad62c2601453edfa440fc",
        0.43105433314933705),
    "two_to_one": ("face_proj pose_proj tf1 tf2 tf3 head_tf1 head_tf2 head_tf3 final",
        "d880dca003bc189abe7d5a0142ed6e469588a1fbbc14c856e129eacb1d3b9a69",
        "8adc668d821f759157a75868c5f1b4bca0aa20272894f32ffd69ddf2f96e701e",
        0.545183864753171),
    "cross_attention": ("face_proj pose_proj tf1x tf2x final",
        "eb3374326604e10030ecd1310f1941d5fce008614dd939d26b7e5d00abc3bc79",
        "4495238c37008e920f7e5b05c29c629f2b9a65508867496920898b85dfc62b2a",
        0.3753983519291902),
    "cross_to_one": ("face_proj pose_proj tf1x tf2x tf3 head_tf1x head_tf2x head_tf3 final",
        "3dda4a450466ac8bce238e03e8e666352cd52fbebb289b99d78620d7409664e2",
        "8adc668d821f759157a75868c5f1b4bca0aa20272894f32ffd69ddf2f96e701e",
        0.5472736322374607),
    "face_only": ("face_proj tf1 final",
        "df35ae3d7f19a1fb7de3f502962db7e0e2880fdc095f97d73f882055ea6e733b",
        "f5fb424a4f7c48bf94ae8bfa578ac699e45ef5c03e925d019531f4bf1da4d7f0",
        0.33984904114234377),
    "pose_only": ("pose_proj tf1 final",
        "db09198156e732040a05302fe0a2b26f2a9e8f1c2437e97a1b857f8025fef606",
        "1e9d6c8f14223b1a723a9d37185494163d0c3afa16663cbe678abdbf4c58cfd1",
        0.30847104735759096),
}


class TestPinnedWiring:
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_layout_init_and_output_match_recorded_values(self, topology):
        components, layout_sha, init_sha, final = PINNED_WIRING[topology.value]
        model = build_model(topology, "detection", TOY, rng_seed=0)
        params = list(model.named_parameters())
        assert " ".join(dict.fromkeys(n.split(".", 1)[0] for n, _ in params)) == components
        layout = "\n".join(f"{n} {p.data.shape}" for n, p in params)
        assert hashlib.sha256(layout.encode()).hexdigest() == layout_sha
        values = b"".join(p.data.astype("<f8").tobytes() for _, p in params)
        assert hashlib.sha256(values).hexdigest() == init_sha
        # the recorded value is the detection probability, the sigmoid of the logit
        out = model.forward(*toy_inputs())
        np.testing.assert_allclose(1.0 / (1.0 + np.exp(-out.final.data.item())), final,
                                   rtol=1e-12, atol=0)
