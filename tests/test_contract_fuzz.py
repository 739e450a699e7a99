"""Seeded bad-input harness: every subcommand keeps the CLI's error contract.

A fixed list of mutations of a manifest, a sample CSV, a config or spec line,
a checkpoint's bytes or a flag runs through :func:`bcfusion.cli.run_command`
in process.  Each must fail with exit 1 (validation) or 2 (I/O), print
nothing on stdout and exactly one ``error: `` line on stderr, besides
``warning: `` lines, and that line must name the file, row, line or sample at
fault.  No traceback, no ``nan`` or ``inf`` that the mutation did not write
itself, and no output directory may be left.
"""

import codecs
import io
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from bcfusion.cli import run_command
from bcfusion.config import toy_model_config
from bcfusion.models import build_model, save_checkpoint

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

SAMPLE = "s00001"  # the sample whose files the CSV mutations damage


@dataclass
class Expect:
    """What a failed run must print: its exit code, the texts its error line
    names, and the non-finite tokens the mutation wrote itself (which an
    error may echo)."""

    code: int
    names: tuple[str, ...]
    echo: tuple[str, ...] = ()
    warning: str = ""


class Work:
    """One case's copy of the corpus, config, spec and checkpoint."""

    def __init__(self, root: Path):
        self.root = root
        self.corpus = root / "corpus"
        self.manifest = self.corpus / "manifest.csv"
        self.config = root / "train.cfg"
        self.spec = root / "spec.cfg"
        self.checkpoint = root / "model.npz"
        self.out = root / "out"
        self.flags: list[str] = []  # gradcheck's flags

    def face(self, sid: str = SAMPLE) -> Path:
        return self.corpus / f"{sid}_face.csv"

    def pose(self, sid: str = SAMPLE) -> Path:
        return self.corpus / f"{sid}_pose.csv"

    def manifest_row(self, sid: str = SAMPLE) -> int:
        """The 1-based file row of sample ``sid`` in the manifest."""
        lines = self.manifest.read_text().splitlines()
        return next(i for i, line in enumerate(lines, 1) if line.startswith(sid + ","))


def edit_lines(path: Path, edit: Callable[[list[str]], list[str]]) -> None:
    """Replace the lines of ``path`` by ``edit`` of them."""
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))


def set_line(path: Path, row: int, edit: Callable[[str], str]) -> None:
    """Replace 1-based line ``row`` of ``path`` by ``edit`` of it."""
    edit_lines(path, lambda lines: [edit(line) if i == row else line
                                    for i, line in enumerate(lines, start=1)])


def set_field(path: Path, row: int, column: int, value: str) -> None:
    """Set field ``column`` of 1-based file row ``row`` of a CSV file to ``value``."""
    def edit(line):
        fields = line.split(",")
        fields[column] = value
        return ",".join(fields)
    set_line(path, row, edit)


def add_line(path: Path, line: str) -> int:
    """Append ``line``; returns its 1-based line number."""
    text = path.read_text() + line + "\n"
    path.write_text(text)
    return len(text.splitlines())


def replace_line(path: Path, key: str, line: str) -> int:
    """Replace the ``key = ...`` line by ``line``; returns its 1-based line number."""
    lines = path.read_text().splitlines()
    n = next(i for i, text in enumerate(lines) if text.split("=")[0].strip() == key)
    lines[n] = line
    path.write_text("".join(text + "\n" for text in lines))
    return n + 1


def rewrite_archive(path: Path, edit: Callable[[dict], None]) -> None:
    """Apply ``edit`` to the name -> array dict of the npz archive at ``path``."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    edit(arrays)
    with path.open("wb") as fh:
        np.savez(fh, **arrays)


def set_meta(arrays: dict, payload: bytes) -> None:
    arrays["__meta__"] = np.frombuffer(payload, dtype=np.uint8)


def edit_meta(edit: Callable[[dict], None]) -> Callable[[dict], None]:
    """An archive edit that applies ``edit`` to the checkpoint's meta dict."""
    def edit_arrays(arrays):
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        edit(meta)
        set_meta(arrays, json.dumps(meta).encode("utf-8"))
    return edit_arrays


# -- manifest mutations -------------------------------------------------------

def _manifest_field(column: int, value: str, *names: str, code: int = 1, echo=()):
    def mutate(w: Work) -> Expect:
        row = w.manifest_row()
        set_field(w.manifest, row, column, value)
        return Expect(code, (str(w.manifest), f"row {row}:") + names, echo)
    return mutate


def _manifest_header(w: Work) -> Expect:
    set_line(w.manifest, 1, lambda line: "id,face,pose,fps,label")
    return Expect(1, (str(w.manifest), "expected header"))


def _manifest_empty(w: Work) -> Expect:
    w.manifest.write_text("")
    return Expect(1, (str(w.manifest), "expected header"))


def _manifest_short_row(w: Work) -> Expect:
    row = w.manifest_row()
    set_line(w.manifest, row, lambda line: line.rsplit(",", 1)[0])
    return Expect(1, (str(w.manifest), f"row {row}:", "expected 6 fields, got 5"))


def _manifest_duplicate_id(w: Work) -> Expect:
    row, first = w.manifest_row(), w.manifest_row("s00000")
    set_field(w.manifest, row, 0, "s00000")
    return Expect(1, (str(w.manifest), f"row {max(row, first)}:", "duplicate id 's00000'"))


def _manifest_missing(w: Work) -> Expect:
    w.manifest.unlink()
    return Expect(2, (str(w.manifest),))


MANIFEST_MUTATIONS = {
    "header": _manifest_header,
    "empty": _manifest_empty,
    "short_row": _manifest_short_row,
    "duplicate_id": _manifest_duplicate_id,
    "fps_text": _manifest_field(3, "fast", "bad fps 'fast'"),
    "fps_inf": _manifest_field(3, "inf", "fps must be", echo=("inf",)),
    "fps_zero": _manifest_field(3, "0", "fps must be"),
    "label_two": _manifest_field(4, "2", "detection label"),
    "label_nan": _manifest_field(4, "nan", "detection label", echo=("nan",)),
    "split": _manifest_field(5, "holdout", "split must be"),
    "sample_file_missing": _manifest_field(1, "nope.csv", "missing sample file", "nope.csv",
                                           code=2),
    "sample_path_empty": _manifest_field(2, "", "pose_path", "is not a file"),
    "missing": _manifest_missing,
}


# -- sample CSV mutations -----------------------------------------------------

def _csv_field(pose: bool, row: int, value: str, echo=()):
    def mutate(w: Work) -> Expect:
        path = w.pose() if pose else w.face()
        set_field(path, row, 1, value)
        return Expect(1, (str(path), f"row {row}:"), echo)
    return mutate


def _csv_ragged_row(w: Work) -> Expect:
    set_line(w.face(), 4, lambda line: line.rsplit(",", 1)[0])
    return Expect(1, (str(w.face()), "row 4: 5 columns where row 1 has 6"))


def _csv_inserted_line(text: str, row: int):
    def mutate(w: Work) -> Expect:
        edit_lines(w.face(), lambda lines: lines[:row - 1] + [text] + lines[row - 1:])
        return Expect(1, (str(w.face()), f"row {row}: blank or '#' line"))
    return mutate


def _csv_extra_column(w: Work) -> Expect:
    edit_lines(w.pose(), lambda lines: [line + ",0" for line in lines])
    return Expect(1, (str(w.pose()), "expected 4 pose columns, got 5"))


def _csv_empty(w: Work) -> Expect:
    w.face().write_text("")
    return Expect(1, (str(w.face()), "no data rows"))


def _csv_short_pose(w: Work) -> Expect:
    edit_lines(w.pose(), lambda lines: lines[:-1])
    return Expect(1, (f"sample {SAMPLE}: recording has 14 frames",),
                  warning=f"warning: sample {SAMPLE}: unequal frame counts (face 15, pose 14); "
                          f"truncating to 14")


def _csv_overflowing_difference(w: Work) -> Expect:
    set_field(w.face(), 13, 0, "1.5e308")
    set_field(w.face(), 14, 0, "-1.5e308")
    return Expect(1, (f"sample {SAMPLE}: face rows 13-14",))


def _csv_missing(w: Work) -> Expect:
    w.pose().unlink()
    return Expect(2, (str(w.manifest), f"row {w.manifest_row()}:", str(w.pose())))


CSV_MUTATIONS = {
    "text_value": _csv_field(False, 3, "1.2.3"),
    "nan_value": _csv_field(False, 5, "nan", echo=("nan",)),
    "inf_value": _csv_field(True, 7, "-inf", echo=("inf",)),
    "ragged_row": _csv_ragged_row,
    "blank_line": _csv_inserted_line("", 6),
    "comment_line": _csv_inserted_line("# note", 2),
    "extra_column": _csv_extra_column,
    "empty": _csv_empty,
    "short_pose": _csv_short_pose,
    "overflowing_difference": _csv_overflowing_difference,
    "missing": _csv_missing,
}


# -- config and spec line mutations -------------------------------------------

def _line(file: str, line: str, *names: str, replaces: str = "", echo=()):
    """Append ``line`` to the config (or spec) file, or put it in place of the
    line of key ``replaces``; the error must name that file line."""
    def mutate(w: Work) -> Expect:
        path = getattr(w, file)
        n = replace_line(path, replaces, line) if replaces else add_line(path, line)
        return Expect(1, (f"{path}:{n}: ",) + names, echo)
    return mutate


def _bom(file: str, key: str, line: str, *names: str):
    """Lead the config (or spec) file with a UTF-8 byte-order mark and put ``line``
    in place of the line of ``key``: the mark is skipped, and the error must
    name that file line and the key as written."""
    def mutate(w: Work) -> Expect:
        path = getattr(w, file)
        n = replace_line(path, key, line)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return Expect(1, (f"{path}:{n}: ",) + names)
    return mutate


def _missing(file: str):
    def mutate(w: Work) -> Expect:
        path = getattr(w, file)
        path.unlink()
        return Expect(2, (str(path),))
    return mutate


def _config_window_too_long(w: Work) -> Expect:
    add_line(w.config, "window_seconds = 100")
    return Expect(1, ("recording has 15 frames, window needs 500",))


def _config_face_width(w: Work) -> Expect:
    replace_line(w.config, "face_dim", "face_dim = 8")
    return Expect(1, (str(w.face("s00000")), "expected 7 face columns, got 6"))


CONFIG_MUTATIONS = {
    "unknown_key": _line("config", "beta1 = 0.9", "unknown config key 'beta1'"),
    "retired_key": _line("config", "use_positional_encoding = false",
                         "unknown config key 'use_positional_encoding'"),
    "repeated_key": _line("config", "epochs = 3", "config key 'epochs' repeats line 9"),
    "no_equals": _line("config", "dropout 0.2", "expected 'key = value'"),
    "epochs_zero": _line("config", "epochs = 0", "'epochs' must be", replaces="epochs"),
    "batch_text": _line("config", "batch_size = four", "'batch_size' must be",
                        replaces="batch_size"),
    "learning_rate_nan": _line("config", "learning_rate = nan", "'learning_rate' must be",
                               replaces="learning_rate", echo=("nan",)),
    "weight_decay_negative": _line("config", "weight_decay = -1", "'weight_decay' must be"),
    "window_inf": _line("config", "window_seconds = inf", "'window_seconds' must be",
                        echo=("inf",)),
    "dropout_one": _line("config", "dropout = 1.0", "'dropout' must be"),
    "dtype": _line("config", "dtype = float16", "'dtype' must be"),
    "width_not_divisible": _line("config", "d_fused_face = 9", "d_fused_face + d_fused_pose (11)",
                                 replaces="d_fused_face"),
    "window_too_long": _config_window_too_long,
    "face_width": _config_face_width,
    # the mark leads the first line, a key
    "byte_order_mark": _bom("config", "face_dim", "face_dim = 0", "'face_dim' must be"),
    "missing": _missing("config"),
}

SPEC_MUTATIONS = {
    "unknown_key": _line("spec", "amplitude = 2", "unknown config key 'amplitude'"),
    "repeated_key": _line("spec", "seed = 10", "config key 'seed' repeats line 7"),
    "no_equals": _line("spec", "noise", "expected 'key = value'"),
    "unbalanced": _line("spec", "n_samples = 7", "n_samples divisible by 2",
                        replaces="n_samples"),
    "t_raw_text": _line("spec", "t_raw = long", "'t_raw' must be", replaces="t_raw"),
    "fps_nan": _line("spec", "fps = nan", "'fps' must be", replaces="fps", echo=("nan",)),
    "kind": _line("spec", "kind = loud", "'kind' must be", replaces="kind"),
    "val_frac_one": _line("spec", "val_frac = 1", "'val_frac' must be", replaces="val_frac"),
    # the mark leads the first line, a comment
    "byte_order_mark": _bom("spec", "n_samples", "n_samples = 7", "n_samples divisible by 2"),
    "missing": _missing("spec"),
}


# -- checkpoint byte mutations ------------------------------------------------

def _checkpoint_bytes(damage: Callable[[bytearray], bytes]):
    def mutate(w: Work) -> Expect:
        w.checkpoint.write_bytes(damage(bytearray(w.checkpoint.read_bytes())))
        return Expect(1, (f"{w.checkpoint}: not a readable bcfusion-checkpoint file",))
    return mutate


def _flip_middle_byte(blob: bytearray) -> bytes:
    # inside the stored parameter values: the entry's CRC no longer matches
    blob[len(blob) // 2] ^= 0xFF
    return bytes(blob)


def _npy_bytes(blob: bytearray) -> bytes:
    with io.BytesIO() as buf:
        np.save(buf, np.zeros(3))
        return buf.getvalue()


def _archive(edit: Callable[[dict], None], *names: str):
    def mutate(w: Work) -> Expect:
        rewrite_archive(w.checkpoint, edit)
        return Expect(1, (f"{w.checkpoint}: ",) + names)
    return mutate


def _checkpoint_missing(w: Work) -> Expect:
    w.checkpoint.unlink()
    return Expect(2, (str(w.checkpoint),))


CHECKPOINT_MUTATIONS = {
    "first_half": _checkpoint_bytes(lambda blob: bytes(blob[:len(blob) // 2])),
    "last_byte_dropped": _checkpoint_bytes(lambda blob: bytes(blob[:-1])),
    "flipped_byte": _checkpoint_bytes(_flip_middle_byte),
    "empty": _checkpoint_bytes(lambda blob: b""),
    "random_bytes": _checkpoint_bytes(
        lambda blob: np.random.default_rng(0).bytes(len(blob))),
    "npy": _checkpoint_bytes(_npy_bytes),
    "meta_not_json": _archive(lambda arrays: set_meta(arrays, b'{"format": '),
                              "not a readable"),
    "meta_not_utf8": _archive(lambda arrays: set_meta(arrays, b"\xff\xfe"), "not a readable"),
    "topology": _archive(edit_meta(lambda meta: meta.update(topology="ring")),
                         "'topology' must be"),
    "window": _archive(edit_meta(lambda meta: meta.update(window_seconds=-1)),
                       "'window_seconds' must be"),
    "retired_key": _archive(edit_meta(lambda meta: meta["model_config"].update(
        use_positional_encoding=False)), "model_config key 'use_positional_encoding'"),
    "no_model_config": _archive(edit_meta(lambda meta: meta.pop("model_config")),
                                "'model_config'"),
    "nan_parameter": _archive(lambda arrays: arrays["param:final.w"].fill(np.nan),
                              "parameter final.w"),
    "missing": _checkpoint_missing,
}


# -- gradcheck flag mutations -------------------------------------------------

def _flag(flag: str, value: str, name: str, echo=()):
    def mutate(w: Work) -> Expect:
        w.flags = [flag, value]
        return Expect(1, (name,), echo)
    return mutate


FLAG_MUTATIONS = {
    "tol_nan": _flag("--tol", "nan", "tol must be", echo=("nan",)),
    "tol_negative": _flag("--tol", "-1", "tol must be"),
    "step_zero": _flag("--step", "0", "step h must be"),
    "step_inf": _flag("--step", "inf", "step h must be", echo=("inf",)),
    "seed_negative": _flag("--seed", "-1", "--seed must be"),
}


# -- the commands ---------------------------------------------------------------

COMMANDS = {
    "synth": lambda w: ["synth", "--spec", str(w.spec), "--out", str(w.out)],
    "train": lambda w: ["train", "--manifest", str(w.manifest), "--topology", "one_stream",
                        "--task", "detection", "--config", str(w.config), "--out", str(w.out)],
    "eval": lambda w: ["eval", "--checkpoint", str(w.checkpoint), "--manifest",
                       str(w.manifest), "--split", "validation"],
    "gradcheck": lambda w: ["gradcheck", "--topology", "pose_only"] + w.flags,
    "sweep": lambda w: ["sweep", "--manifest", str(w.manifest), "--task", "detection",
                        "--config", str(w.config), "--out", str(w.out)],
}

CASES = [pytest.param(command, mutate, id=f"{command}-{kind}-{name}")
         for kind, mutations, commands in [
             ("manifest", MANIFEST_MUTATIONS, ("train", "eval", "sweep")),
             ("csv", CSV_MUTATIONS, ("train", "eval", "sweep")),
             ("config", CONFIG_MUTATIONS, ("train", "sweep")),
             ("spec", SPEC_MUTATIONS, ("synth",)),
             ("checkpoint", CHECKPOINT_MUTATIONS, ("eval",)),
             ("flag", FLAG_MUTATIONS, ("gradcheck",))]
         for command in commands
         for name, mutate in mutations.items()]

NON_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """A valid toy corpus, train config, spec and checkpoint that every case copies."""
    root = tmp_path_factory.mktemp("base")
    (root / "spec.cfg").write_text(SPEC_TEXT)
    (root / "train.cfg").write_text(CONFIG_TEXT)
    assert run_command(["synth", "--spec", str(root / "spec.cfg"),
                        "--out", str(root / "corpus")]) == 0
    model = build_model("one_stream", "detection", toy_model_config(face_dim=7, pose_dim=5))
    save_checkpoint(model, root / "model.npz", extra_meta={"window_seconds": 3.0})
    return root


def test_unmutated_inputs_pass(base, tmp_path, capsys):
    """The harness's inputs are valid: each failure below is its mutation's."""
    w = Work(tmp_path / "w")
    shutil.copytree(base, w.root)
    for command in ("synth", "train", "eval"):
        assert run_command(COMMANDS[command](w)) == 0, capsys.readouterr().err
        shutil.rmtree(w.out, ignore_errors=True)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, mutate", CASES)
def test_bad_input_keeps_the_error_contract(base, tmp_path, capsys, command, mutate):
    w = Work(tmp_path / "w")
    shutil.copytree(base, w.root)
    expect = mutate(w)
    capsys.readouterr()
    code = run_command(COMMANDS[command](w))
    captured = capsys.readouterr()
    assert code == expect.code, captured.err
    assert captured.out == ""
    lines = captured.err.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == 1, lines
    assert all(line.startswith("warning: ") for line in lines if line not in errors), lines
    if expect.warning:
        assert expect.warning in lines
    for name in expect.names:
        assert name in errors[0]
    assert "Traceback" not in captured.err
    own = captured.err.replace(str(w.root), "")
    assert {m.lower() for m in NON_FINITE.findall(own)} <= set(expect.echo), own
    assert not w.out.exists()
