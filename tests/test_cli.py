"""Command-line surface: subcommands, exit codes, artifacts, reproducibility."""

import json
import warnings

import numpy as np
import pytest

from bcfusion import cli, training
from bcfusion.cli import run_command
from bcfusion.config import toy_model_config
from bcfusion.models import build_model, load_checkpoint, parameter_count, save_checkpoint
from bcfusion.training import evaluate_metrics

SPEC_TEXT = """\
# tiny detection corpus
n_samples = 8
t_raw = 15
fps = 5
kind = redundant
noise = 0.05
seed = 9
task = detection
face_dim = 6
pose_dim = 4
val_frac = 0.25
"""

CONFIG_TEXT = """\
face_dim = 7
pose_dim = 5
d_face = 8
d_pose = 8
d_fused_face = 8
d_fused_pose = 2
d_cross = 8
ff_hidden = 8
epochs = 2
batch_size = 4
learning_rate = 0.01
"""


@pytest.fixture()
def corpus_dir(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SPEC_TEXT)
    out = tmp_path / "corpus"
    assert run_command(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def set_lines(text, *lines):
    """``text`` with each ``key = value`` of ``lines`` as its last lines, in place of
    the line that set that key before: a config key may appear once."""
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


def sole_error_line(capsys):
    """The one stderr line of a failed command that printed nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return line


def eval_with_edited_meta(tmp_path, edit):
    """Save a toy checkpoint, apply ``edit`` to its meta, and run ``eval`` on it."""
    model = build_model("one_stream", "detection", toy_model_config(face_dim=7, pose_dim=5))
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    assert run_command(["eval", "--checkpoint", str(path), "--manifest",
                        str(tmp_path / "missing.csv"), "--split", "validation"]) == 1
    return path


def overflow_face_rows(corpus_dir, sid="s00003"):
    """Put 1.5e308 and -1.5e308 into one column of the last-but-two and last-but-one
    face rows of sample ``sid``: every value is finite, their difference is not.
    Returns the 1-based file row numbers of the two."""
    path = corpus_dir / f"{sid}_face.csv"
    rows = path.read_text().splitlines()
    for i, value in ((-3, "1.5e308"), (-2, "-1.5e308")):
        rows[i] = value + rows[i][rows[i].index(","):]
    path.write_text("\n".join(rows) + "\n")
    return len(rows) - 2, len(rows) - 1


def huge_face_rows(corpus_dir, sid):
    """Make every face row of sample ``sid`` alternate between 0 and 1e308: every
    value and every frame difference is finite, but the first projection of
    1e308-sized differences is not."""
    path = corpus_dir / f"{sid}_face.csv"
    rows = path.read_text().splitlines()
    width = len(rows[0].split(","))
    path.write_text("".join(",".join(["1e308" if i % 2 else "0"] * width) + "\n"
                            for i in range(len(rows))))


def train_args(corpus_dir, config_file, out_dir, **extra):
    args = ["train", "--manifest", str(corpus_dir / "manifest.csv"),
            "--topology", extra.pop("topology", "one_stream"), "--task", "detection",
            "--config", str(config_file), "--out", str(out_dir), "--seed", "0"]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


class TestSynth:
    def test_writes_manifest_and_samples(self, corpus_dir, capsys):
        assert (corpus_dir / "manifest.csv").exists()
        assert len(list(corpus_dir.glob("*_face.csv"))) == 8

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT)
        run_command(["synth", "--spec", str(spec), "--out", str(tmp_path / "a")])
        run_command(["synth", "--spec", str(spec), "--out", str(tmp_path / "b"),
                     "--seed", "1234"])
        a = (tmp_path / "a" / "manifest.csv").read_text()
        b = (tmp_path / "b" / "manifest.csv").read_text()
        assert a != b

    def test_missing_spec_file_is_io_error(self, tmp_path):
        assert run_command(["synth", "--spec", str(tmp_path / "nope.cfg"),
                            "--out", str(tmp_path / "o")]) == 2

    def test_invalid_spec_is_validation_error(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_samples = 3\nkind = xor-cross-modal\n")
        assert run_command(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("line, key", [
        ("fps = inf", "fps"), ("fps = nan", "fps"), ("noise = nan", "noise"),
        ("noise = inf", "noise"),
    ])
    def test_non_finite_spec_value_rejected(self, tmp_path, capsys, line, key):
        spec = tmp_path / "spec.cfg"
        spec.write_text(set_lines(SPEC_TEXT, line))
        out = tmp_path / "o"
        assert run_command(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        n_lines = len(spec.read_text().splitlines())
        assert sole_error_line(capsys).startswith(
            f"error: {spec}:{n_lines}: config key {key!r} must be a finite")
        assert not out.exists()

    @pytest.mark.parametrize("lines, key, message", [
        ("val_frac = nan", "val_frac",
         "config key 'val_frac' must be a number in [0, 1), got nan"),
        ("val_frac = 0.5\ntest_frac = 0.5", "test_frac",
         "val_frac + test_frac must be below 1, got 0.5 + 0.5"),
        ("kind = xor-cross-modal\nn_samples = 6", "n_samples",
         "detection corpora with kind 'xor-cross-modal' need n_samples divisible by 4 for "
         "exact class balance"),
    ], ids=["nan_val_frac", "fraction_sum", "class_balance"])
    def test_bad_split_or_balance_names_its_line(self, tmp_path, capsys, lines, key, message):
        # a rule that joins two keys is reported at the line of one of them
        spec = tmp_path / "spec.cfg"
        spec.write_text(set_lines(SPEC_TEXT, *lines.split("\n")))
        out = tmp_path / "o"
        assert run_command(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        text = spec.read_text().splitlines()
        n_line = max(i for i, line in enumerate(text, start=1) if line.startswith(key + " "))
        assert sole_error_line(capsys) == f"error: {spec}:{n_line}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("flags, line", [(["--seed", "-3"], ""), ([], "seed = -3\n")],
                             ids=["flag", "spec_file"])
    def test_negative_seed_rejected_before_writing(self, tmp_path, capsys, flags, line):
        spec = tmp_path / "spec.cfg"
        spec.write_text(set_lines(SPEC_TEXT, *line.splitlines()))
        out = tmp_path / "o"
        assert run_command(["synth", "--spec", str(spec), "--out", str(out)] + flags) == 1
        # a value from the file names its line; a flag's does not
        where = f"{spec}:{len(spec.read_text().splitlines())}: " if line else ""
        assert sole_error_line(capsys) == \
            f"error: {where}config key 'seed' must be an integer >= 0, got -3"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("face_dim", 0), ("pose_dim", -3)])
    def test_stream_width_below_one_rejected_before_writing(self, tmp_path, capsys, key, value):
        spec = tmp_path / "spec.cfg"
        spec.write_text(set_lines(SPEC_TEXT, f"{key} = {value}"))
        out = tmp_path / "o"
        assert run_command(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        n_lines = len(spec.read_text().splitlines())
        assert sole_error_line(capsys) == \
            f"error: {spec}:{n_lines}: config key {key!r} must be an integer >= 1, got {value}"
        assert not out.exists()

    def test_amplitude_is_unknown_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT + "amplitude = 1.0\n")
        assert run_command(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        n_lines = len(SPEC_TEXT.splitlines()) + 1
        assert sole_error_line(capsys) == f"error: {spec}:{n_lines}: unknown config key 'amplitude'"

    def test_mistyped_spec_value_names_file_line_and_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT.replace("n_samples = 8", "n_samples = 8.5"))
        assert run_command(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert f"{spec}:2: config key 'n_samples'" in capsys.readouterr().err


class TestTrain:
    def test_writes_artifacts_and_json_stdout(self, corpus_dir, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_command(train_args(corpus_dir, config_file, out)) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["task"] == "detection" and record["topology"] == "one_stream"
        assert record["split"] == "validation" and record["n"] == 2
        assert (out / "checkpoint.npz").exists()
        assert (out / "history.csv").exists()
        assert (out / "metrics.json").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_metric" and len(history) == 3

    def test_scores_the_validation_split_once_per_epoch(self, corpus_dir, config_file,
                                                         tmp_path, monkeypatch):
        # the record reuses the best epoch's score instead of scoring the restored model again
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return evaluate_metrics(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate_metrics", counted)
        monkeypatch.setattr(cli, "evaluate_metrics", counted)
        assert run_command(train_args(corpus_dir, config_file, tmp_path / "run")) == 0
        assert calls == ["detection", "detection"]  # epochs = 2 in CONFIG_TEXT

    def test_seeded_runs_are_bitwise_identical(self, corpus_dir, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_command(train_args(corpus_dir, config_file, out_a)) == 0
        assert run_command(train_args(corpus_dir, config_file, out_b)) == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()

    def test_flag_overrides_config_file(self, corpus_dir, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        args = train_args(corpus_dir, config_file, out, epochs=1)
        assert run_command(args) == 0
        capsys.readouterr()
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 2  # header + single epoch

    def test_missing_manifest_is_io_error(self, config_file, tmp_path):
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--topology",
                "one_stream", "--task", "detection", "--config", str(config_file),
                "--out", str(tmp_path / "o")]
        assert run_command(args) == 2

    def test_mistyped_config_value_names_file_line_and_key(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG_TEXT.replace("epochs = 2", "epochs = 3.0"))
        assert run_command(train_args(corpus_dir, config, tmp_path / "run")) == 1
        assert f"{config}:9: config key 'epochs'" in capsys.readouterr().err

    def test_unknown_topology_rejected_before_corpus_loads(self, config_file, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(config_file.read_text() + "topology = bogus\n")
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--task", "detection",
                "--config", str(config), "--out", str(tmp_path / "o")]
        assert run_command(args) == 1
        err = capsys.readouterr().err
        assert "config key 'topology' must be one of one_stream, one_to_one" in err
        assert "got 'bogus'" in err

    @pytest.mark.parametrize("line", ["pre_norm = false", "ffn_mult = 2", "beta1 = 0.9",
                                      "beta2 = 0.999", "adam_eps = 1e-8",
                                      "loss_weights = 0.35,0.35,0.3", "face_heads = 4",
                                      "late_heads = 8", "use_positional_encoding = true"])
    def test_removed_setting_is_unknown_key(self, config_file, tmp_path, capsys, line):
        config = tmp_path / "old.cfg"
        config.write_text(config_file.read_text() + line + "\n")
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--topology",
                "one_stream", "--task", "detection", "--config", str(config),
                "--out", str(tmp_path / "o")]
        assert run_command(args) == 1
        n_lines = len(CONFIG_TEXT.splitlines()) + 1
        key = line.split(" ")[0]
        assert f"{config}:{n_lines}: unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("weight_decay = -1", "weight_decay"),
        ("weight_decay = nan", "weight_decay"),
        ("window_seconds = nan", "window_seconds"),
        ("window_seconds = inf", "window_seconds"),
    ])
    def test_non_finite_or_negative_setting_rejected_before_corpus_loads(
            self, config_file, tmp_path, capsys, line, key):
        config = tmp_path / "bad.cfg"
        config.write_text(set_lines(config_file.read_text(), line))
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--topology",
                "one_stream", "--task", "detection", "--config", str(config),
                "--out", str(tmp_path / "o")]
        assert run_command(args) == 1
        n_lines = len(config.read_text().splitlines())
        assert sole_error_line(capsys).startswith(
            f"error: {config}:{n_lines}: config key {key!r} must be a finite")

    @pytest.mark.parametrize("flags, line", [
        (["--seed", "-1"], ""), ([], "seed = -1\n"), (["--seed", "-1"], "seed = 5\n"),
    ], ids=["flag", "config_file", "flag_over_config_file"])
    def test_negative_seed_rejected_before_corpus_loads(self, config_file, tmp_path, capsys,
                                                        flags, line):
        config = tmp_path / "bad.cfg"
        config.write_text(config_file.read_text() + line)
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--topology",
                "one_stream", "--task", "detection", "--config", str(config),
                "--out", str(tmp_path / "o")]
        assert run_command(args + flags) == 1
        # a value from the file names its line; a flag's value, even over the file's, does not
        where = "" if flags else f"{config}:{len(CONFIG_TEXT.splitlines()) + 1}: "
        assert sole_error_line(capsys) == \
            f"error: {where}config key 'seed' must be an integer >= 0, got -1"

    @pytest.mark.parametrize("line, message", [
        ("epochs = 0", "config key 'epochs' must be an integer >= 1, got 0"),
        ("dropout = 1.0", "config key 'dropout' must be a number in [0, 1), got 1.0"),
    ])
    def test_other_bad_file_values_name_their_line(self, config_file, tmp_path, capsys,
                                                   line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(set_lines(config_file.read_text(), line))
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--config", str(config),
                "--out", str(tmp_path / "o")]
        assert run_command(args) == 1
        assert sole_error_line(capsys) == \
            f"error: {config}:{len(config.read_text().splitlines())}: {message}"

    def test_flag_overriding_a_bad_file_value_passes_validation(self, config_file, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(config_file.read_text() + "seed = -1\n")
        args = ["train", "--manifest", str(tmp_path / "missing.csv"), "--topology",
                "one_stream", "--task", "detection", "--config", str(config),
                "--out", str(tmp_path / "o"), "--seed", "3"]
        assert run_command(args) == 2  # valid settings: the missing manifest is what fails

    def test_overflowing_frame_difference_names_sample_and_rows(self, corpus_dir, config_file,
                                                                 tmp_path, capsys):
        # the corpus is rejected as it loads, not blamed on training as a divergence
        first, second = overflow_face_rows(corpus_dir)
        capsys.readouterr()
        assert run_command(train_args(corpus_dir, config_file, tmp_path / "run")) == 1
        assert sole_error_line(capsys) == (f"error: sample s00003: face rows {first}-{second}: "
                                           f"difference of consecutive frames is not finite")

    @pytest.mark.parametrize("window, fps", [("1e308", "5"), ("3", "1e308")],
                             ids=["window", "manifest_fps"])
    def test_window_of_unbounded_frame_count_names_sample_window_and_fps(
            self, corpus_dir, config_file, tmp_path, capsys, window, fps):
        manifest = corpus_dir / "manifest.csv"
        rows = manifest.read_text().splitlines()
        fields = rows[1].split(",")
        fields[3] = fps
        rows[1] = ",".join(fields)
        manifest.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_command(train_args(corpus_dir, config_file, tmp_path / "run",
                                      window=window)) == 1
        assert sole_error_line(capsys) == (f"error: sample {fields[0]}: a window of "
                                           f"{float(window):g} s at {float(fps):g} fps is not "
                                           f"a finite number of frames")

    @pytest.mark.parametrize("column, value", [(1, ""), (2, "."), (1, "sub")],
                             ids=["empty_face_path", "dot_pose_path", "directory_face_path"])
    def test_sample_path_that_names_no_file_names_its_row(self, corpus_dir, config_file,
                                                         tmp_path, capsys, column, value):
        # an empty path is the corpus directory itself: it exists, but is no file to read
        (corpus_dir / "sub").mkdir()
        manifest = corpus_dir / "manifest.csv"
        rows = manifest.read_text().splitlines()
        fields = rows[3].split(",")
        fields[column] = value
        rows[3] = ",".join(fields)
        manifest.write_text("\n".join(rows) + "\n")
        assert run_command(train_args(corpus_dir, config_file, tmp_path / "run")) == 1
        name = ("face_path", "pose_path")[column - 1]
        line = sole_error_line(capsys)
        assert line.startswith(f"error: {manifest}: row 4: sample {fields[0]!r}: {name} ")
        assert line.endswith(" is not a file")

    def test_repeated_config_key_names_both_lines(self, corpus_dir, tmp_path, capsys):
        # a later line used to win silently: this file trained 3 epochs
        config = tmp_path / "twice.cfg"
        config.write_text(CONFIG_TEXT + "epochs = 3\n")
        capsys.readouterr()
        assert run_command(train_args(corpus_dir, config, tmp_path / "run")) == 1
        n_lines = len(CONFIG_TEXT.splitlines()) + 1
        assert sole_error_line(capsys) == \
            f"error: {config}:{n_lines}: config key 'epochs' repeats line 9"
        assert not (tmp_path / "run").exists()

    def test_unequal_frame_counts_print_one_warning_line(self, corpus_dir, config_file,
                                                         tmp_path, capsys):
        pose = corpus_dir / "s00000_pose.csv"
        pose.write_text("".join(pose.read_text().splitlines(keepends=True)[:-1]))
        show, filters = warnings.showwarning, list(warnings.filters)
        capsys.readouterr()
        assert run_command(train_args(corpus_dir, config_file, tmp_path / "run", window=2)) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["metric_name"] == "accuracy"
        assert captured.err.splitlines() == [
            "warning: sample s00000: unequal frame counts (face 15, pose 14); truncating to 14"]
        # the warning machinery is as it was
        assert warnings.showwarning is show and warnings.filters == filters

    def test_width_mismatch_is_validation_error(self, corpus_dir, tmp_path):
        args = ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--topology",
                "one_stream", "--task", "detection", "--out", str(tmp_path / "o")]
        # no config: defaults expect 674/76-wide features
        assert run_command(args) == 1


class TestEval:
    def test_reproduces_training_metric(self, corpus_dir, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_command(train_args(corpus_dir, config_file, out)) == 0
        trained = json.loads(capsys.readouterr().out.strip())
        assert run_command(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                            "--manifest", str(corpus_dir / "manifest.csv"),
                            "--split", "validation"]) == 0
        evaluated = json.loads(capsys.readouterr().out.strip())
        assert evaluated["value"] == trained["value"]
        recorded = json.loads((out / "metrics.json").read_text())
        assert evaluated["value"] == recorded["value"]

    def test_empty_split_is_validation_error(self, corpus_dir, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_command(train_args(corpus_dir, config_file, out)) == 0
        capsys.readouterr()
        assert run_command(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                            "--manifest", str(corpus_dir / "manifest.csv"),
                            "--split", "test"]) == 1


    def test_non_finite_feature_is_validation_error(self, corpus_dir, config_file, tmp_path,
                                                    capsys):
        out = tmp_path / "run"
        assert run_command(train_args(corpus_dir, config_file, out)) == 0
        capsys.readouterr()
        sample = sorted(corpus_dir.glob("*_face.csv"))[0]
        rows = sample.read_text().splitlines()
        rows[1] = "nan" + rows[1][rows[1].index(","):]
        sample.write_text("\n".join(rows) + "\n")
        assert run_command(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                            "--manifest", str(corpus_dir / "manifest.csv"),
                            "--split", "validation"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{sample}: row 2: non-finite value" in captured.err

    @pytest.mark.parametrize("edit, key", [
        (lambda meta: meta["model_config"].update(n_layers=2), "n_layers"),
        (lambda meta: meta.pop("topology"), "topology"),
    ], ids=["unknown_key", "no_topology"])
    def test_malformed_checkpoint_meta_is_validation_error(self, tmp_path, capsys, edit, key):
        path = eval_with_edited_meta(tmp_path, edit)
        line = sole_error_line(capsys)
        assert line.startswith(f"error: {path}: ") and repr(key) in line

    @pytest.mark.parametrize("edit, key", [
        (lambda meta: meta["model_config"].update(d_face="8"), "d_face"),
        (lambda meta: meta.update(model_config=[8, 2]), "model_config"),
        (lambda meta: meta.update(topology="bogus"), "topology"),
    ], ids=["mistyped_value", "non_object_model_config", "unknown_topology"])
    def test_mistyped_checkpoint_meta_is_validation_error(self, tmp_path, capsys, edit, key):
        self.test_malformed_checkpoint_meta_is_validation_error(tmp_path, capsys, edit, key)

    @pytest.mark.parametrize("edit, where", [
        (lambda meta: meta["model_config"].update(d_fused_face=9),
         "model_config: d_fused_face + d_fused_pose (11) must be"),
        (lambda meta: meta.update(window_seconds=None),
         "config key 'window_seconds' must be a finite number > 0, got None"),
        (lambda meta: meta.update(window_seconds="abc"),
         "config key 'window_seconds' must be a finite number > 0, got 'abc'"),
    ], ids=["invalid_model_config", "null_window", "text_window"])
    def test_invalid_checkpoint_meta_names_file_and_key(self, tmp_path, capsys, edit, where):
        path = eval_with_edited_meta(tmp_path, edit)
        assert sole_error_line(capsys).startswith(f"error: {path}: {where}")

    @pytest.mark.parametrize("damage", ["first_half", "flipped_byte", "empty", "npy"])
    def test_unreadable_checkpoint_is_validation_error(self, tmp_path, capsys, damage):
        model = build_model("one_stream", "detection", toy_model_config(face_dim=7, pose_dim=5))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        if damage == "first_half":
            path.write_bytes(blob[:len(blob) // 2])
        elif damage == "flipped_byte":
            # inside the stored values of one parameter: the entry's CRC no longer matches
            values = dict(model.named_parameters())["tf1.attn.wq"].data.tobytes()
            blob[blob.find(values) + len(values) // 2] ^= 0xFF
            path.write_bytes(blob)
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        assert run_command(["eval", "--checkpoint", str(path), "--manifest",
                            str(tmp_path / "missing.csv"), "--split", "validation"]) == 1
        assert sole_error_line(capsys).startswith(
            f"error: {path}: not a readable bcfusion-checkpoint file (")

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    def test_non_finite_parameter_is_validation_error(self, corpus_dir, tmp_path, capsys, task):
        # scored, a NaN weight reads as accuracy 0.5 (NaN is class 0) or as an MSE of NaN
        model = build_model("one_stream", task, toy_model_config(face_dim=7, pose_dim=5))
        dict(model.named_parameters())["final.w"].data[0, 0] = np.nan
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        capsys.readouterr()
        assert run_command(["eval", "--checkpoint", str(path), "--manifest",
                            str(corpus_dir / "manifest.csv"), "--split", "validation"]) == 1
        assert sole_error_line(capsys) == \
            f"error: {path}: parameter final.w holds a non-finite value"

    def test_overflowing_prediction_is_validation_error(self, corpus_dir, tmp_path, capsys):
        # finite weights whose every prediction overflows: the layer's rows are all 1
        # (zero gain, unit bias), so the final head sums its width times 1e308
        model = build_model("one_stream", "agreement", toy_model_config(face_dim=7, pose_dim=5))
        params = dict(model.named_parameters())
        params["tf1.ln2_gain"].data[:] = 0.0
        params["tf1.ln2_bias"].data[:] = 1.0
        params["final.w"].data[:] = 1e308
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        capsys.readouterr()
        assert run_command(["eval", "--checkpoint", str(path), "--manifest",
                            str(corpus_dir / "manifest.csv"), "--split", "validation"]) == 1
        assert sole_error_line(capsys).startswith("error: non-finite prediction on sample ")

    def test_overflowing_metric_is_validation_error(self, corpus_dir, tmp_path, capsys):
        # every prediction is a finite 1e200, whose squared error overflows to inf
        model = build_model("one_stream", "agreement", toy_model_config(face_dim=7, pose_dim=5))
        params = dict(model.named_parameters())
        params["final.w"].data[:] = 0.0
        params["final.b"].data[:] = 1e200
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        capsys.readouterr()
        assert run_command(["eval", "--checkpoint", str(path), "--manifest",
                            str(corpus_dir / "manifest.csv"), "--split", "validation"]) == 1
        assert sole_error_line(capsys) == "error: non-finite mse (inf)"

    def test_overflowing_frame_difference_names_sample_and_rows(self, corpus_dir, tmp_path,
                                                                 capsys):
        model = build_model("one_stream", "detection", toy_model_config(face_dim=7, pose_dim=5))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        first, second = overflow_face_rows(corpus_dir)
        capsys.readouterr()
        assert run_command(["eval", "--checkpoint", str(path), "--manifest",
                            str(corpus_dir / "manifest.csv"), "--split", "validation"]) == 1
        assert sole_error_line(capsys) == (f"error: sample s00003: face rows {first}-{second}: "
                                           f"difference of consecutive frames is not finite")

    @pytest.mark.parametrize("fps", ["inf", "nan", "-inf"])
    def test_non_finite_manifest_fps_names_file_and_row(self, corpus_dir, tmp_path, capsys,
                                                         fps):
        path = tmp_path / "model.npz"
        save_checkpoint(build_model("one_stream", "detection",
                                    toy_model_config(face_dim=7, pose_dim=5)), path)
        manifest = corpus_dir / "manifest.csv"
        rows = manifest.read_text().splitlines()
        fields = rows[1].split(",")
        fields[3] = fps
        rows[1] = ",".join(fields)
        manifest.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_command(["eval", "--checkpoint", str(path), "--manifest", str(manifest),
                            "--split", "validation"]) == 1
        assert sole_error_line(capsys) == \
            f"error: {manifest}: row 2: fps must be a finite positive number"


class TestDocumentedLimits:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_finite_frames_that_overflow_the_first_projection(self, corpus_dir, config_file,
                                                              tmp_path, capsys, command):
        # frames of 1e308-scale values pass preprocessing (their differences are
        # finite) and overflow in the first projection: reported as a divergence
        # or a non-finite prediction that names samples, not file rows
        manifest = corpus_dir / "manifest.csv"
        ids = [row.split(",")[0] for row in manifest.read_text().splitlines()[1:]]
        for sid in ids:
            huge_face_rows(corpus_dir, sid)
        if command == "train":
            args = train_args(corpus_dir, config_file, tmp_path / "run")
        else:
            path = tmp_path / "model.npz"
            save_checkpoint(build_model("one_stream", "detection",
                                        toy_model_config(face_dim=7, pose_dim=5)), path)
            args = ["eval", "--checkpoint", str(path), "--manifest", str(manifest),
                    "--split", "validation"]
        capsys.readouterr()
        assert run_command(args) == 1  # and numpy's overflow warnings stay silent
        line = sole_error_line(capsys)
        if command == "train":
            assert line.startswith("error: training diverged at epoch 1: non-finite loss on "
                                   "samples s0")
        else:
            assert line == "error: non-finite prediction on sample s00001"


class TestGradcheck:
    def test_single_topology_passes(self, capsys):
        assert run_command(["gradcheck", "--topology", "one_stream"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        name, status, err = out[0].split()
        assert name == "one_stream" and status == "PASS" and float(err) <= 1e-4

    def test_failing_tolerance_returns_exit_3(self, capsys):
        assert run_command(["gradcheck", "--topology", "one_stream", "--tol", "0"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_negative_seed_rejected(self, capsys):
        assert run_command(["gradcheck", "--topology", "one_stream", "--seed", "-1"]) == 1
        assert sole_error_line(capsys) == "error: --seed must be an integer >= 0, got -1"

    @pytest.mark.parametrize("flag, value, message", [
        ("--step", "nan", "step h must be a finite number > 0, got nan"),
        ("--step", "inf", "step h must be a finite number > 0, got inf"),
        ("--tol", "inf", "tol must be a finite number >= 0, got inf"),
        ("--tol", "nan", "tol must be a finite number >= 0, got nan"),
        ("--tol", "-1", "tol must be a finite number >= 0, got -1.0"),
    ])
    def test_bad_step_or_tolerance_rejected_up_front(self, capsys, flag, value, message):
        # a usage error, not a gradient verdict: no PASS/FAIL line and no exit 0 or 3
        assert run_command(["gradcheck", "--topology", "pose_only", flag, value]) == 1
        assert sole_error_line(capsys) == f"error: gradcheck: {message}"


class TestSweep:
    def test_emits_eight_row_table(self, corpus_dir, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--manifest", str(corpus_dir / "manifest.csv"), "--task",
                "detection", "--config", str(config_file), "--out", str(out),
                "--seed", "0", "--epochs", "1"]
        assert run_command(args) == 0
        csv_lines = (out / "results.csv").read_text().splitlines()
        assert csv_lines[0] == "topology,metric,params,seconds"
        assert len(csv_lines) == 9
        names = [line.split(",")[0] for line in csv_lines[1:]]
        assert names == ["one_stream", "one_to_one", "one_to_two", "two_to_one",
                         "cross_attention", "cross_to_one", "face_only", "pose_only"]
        for line in csv_lines[1:]:
            _, metric, params, seconds = line.split(",")
            assert 0.0 <= float(metric) <= 1.0
            assert int(params) > 0 and float(seconds) >= 0.0
        assert (out / "results.txt").exists()
        stdout_lines = capsys.readouterr().out.strip().splitlines()
        assert stdout_lines == csv_lines

    def test_rows_match_single_topology_train_runs(self, corpus_dir, config_file, tmp_path,
                                                   capsys):
        # the sweep loads the corpus once; each row must still be what ``train`` reports
        out = tmp_path / "sweep"
        assert run_command(["sweep", "--manifest", str(corpus_dir / "manifest.csv"), "--task",
                            "detection", "--config", str(config_file), "--out", str(out),
                            "--seed", "0", "--epochs", "2"]) == 0
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        capsys.readouterr()
        for topology, metric, params, _ in rows:
            run = tmp_path / topology
            assert run_command(train_args(corpus_dir, config_file, run, topology=topology)) == 0
            record = json.loads(capsys.readouterr().out)
            assert float(metric) == record["value"], topology
            assert (out / topology / "metrics.json").read_bytes() == \
                (run / "metrics.json").read_bytes()
            assert (out / topology / "history.csv").read_bytes() == \
                (run / "history.csv").read_bytes()
            model, _ = load_checkpoint(run / "checkpoint.npz")
            assert int(params) == parameter_count(model)


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run_command(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert run_command(["gradcheck", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert run_command(["train", "--topology", "one_stream"]) == 1
