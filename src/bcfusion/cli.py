"""Command-line entry point: corpus generation, training, evaluation,
gradient checking, and whole-table topology sweeps.

stdout carries only machine-readable payloads (JSON, CSV rows, or
space-separated result lines); anything meant for humans goes to stderr.
Exit codes: 0 success, 1 validation/contract error, 2 I/O error,
3 gradient-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (TASKS, TRAIN_RULES, ConfigError, ConfigMapping, ModelConfig, TrainConfig,
                     check, dataclass_from_mapping, parse_config_file)
from .data import SPLITS, CorpusError, SynthSpec, load_corpus, synth_generate
from .gradcheck import gradcheck_topology
from .models import ALL_TOPOLOGIES, load_checkpoint, parameter_count, save_checkpoint
from .training import (METRIC_NAMES, evaluate_metrics, metrics_record, run_training,
                       write_history_csv, write_metrics_json)

TOPOLOGY_NAMES = [t.value for t in ALL_TOPOLOGIES]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1 instead of 2."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bcfusion")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="key=value spec file")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train one topology")
    p.add_argument("--manifest", required=True)
    p.add_argument("--topology", choices=TOPOLOGY_NAMES, default=None)
    p.add_argument("--task", choices=TASKS, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--window", type=float, default=None, help="window length in seconds")

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=SPLITS, required=True)

    p = sub.add_parser("gradcheck", help="finite-difference verification at toy dims")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--topology", choices=TOPOLOGY_NAMES, default=None)
    group.add_argument("--all", action="store_true")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="train every topology and tabulate results")
    p.add_argument("--manifest", required=True)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    return parser


# -- helpers -------------------------------------------------------------------

def _settings(cls, path: str | None, flags: dict):
    """``cls`` read from the config file at ``path`` (if any), with each of
    ``flags`` (key -> value, None when the flag is not given) set over it,
    then validated: an error for a value from the file names its line."""
    mapping = parse_config_file(path) if path else ConfigMapping()
    obj = dataclass_from_mapping(cls, mapping)
    for key, value in flags.items():
        if value is not None:
            setattr(obj, key, value)
    obj.validate({key: where for key, where in mapping.origin.items() if flags.get(key) is None})
    return obj


def _load_train_config(args) -> TrainConfig:
    """The run's settings, checked before the corpus loads."""
    return _settings(TrainConfig, args.config, {
        "topology": getattr(args, "topology", None), "task": getattr(args, "task", None),
        "seed": args.seed, "epochs": getattr(args, "epochs", None),
        "learning_rate": getattr(args, "lr", None),
        "batch_size": getattr(args, "batch_size", None),
        "window_seconds": getattr(args, "window", None)})


def _load_corpus(manifest: str, task: str, window: float, model: ModelConfig) -> dict:
    """The corpus at the raw widths ``model`` takes, before the frame-index column."""
    return load_corpus(manifest, task, window,
                       face_dim=model.face_dim - 1, pose_dim=model.pose_dim - 1)


def _train_once(corpus: dict, cfg: TrainConfig, out_dir: Path) -> dict:
    result = run_training(corpus, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, out_dir / "checkpoint.npz",
                    extra_meta={"window_seconds": cfg.window_seconds, "seed": cfg.seed,
                                "best_epoch": result.best_epoch})
    write_history_csv(out_dir / "history.csv", result.history)
    metrics = {"metric_name": METRIC_NAMES[cfg.task], "value": result.best_val_metric,
               "n": len(corpus["validation"])}
    record = metrics_record(cfg.task, cfg.topology, "validation", metrics)
    write_metrics_json(out_dir / "metrics.json", record)
    record["params"] = parameter_count(result.model)
    return record


# -- subcommands --------------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = _settings(SynthSpec, args.spec, {"seed": args.seed})
    manifest = synth_generate(spec, args.out)
    print(json.dumps({"manifest": str(manifest), "n_samples": spec.n_samples,
                      "kind": spec.kind, "task": spec.task}, sort_keys=True, allow_nan=False))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_train_config(args)
    corpus = _load_corpus(args.manifest, cfg.task, cfg.window_seconds, cfg.model)
    record = _train_once(corpus, cfg, Path(args.out))
    record.pop("params")  # stdout carries exactly the documented metrics schema
    print(json.dumps(record, sort_keys=True, allow_nan=False))
    return 0


def _cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.checkpoint)
    window = meta.get("window_seconds", 3.0)
    check("window_seconds", window, TRAIN_RULES["window_seconds"],
          {"window_seconds": args.checkpoint})
    corpus = _load_corpus(args.manifest, model.task, window, model.config)
    samples = corpus[args.split]
    if not samples:
        raise ConfigError(f"split {args.split!r} is empty in {args.manifest}")
    metrics = evaluate_metrics(model, samples, model.task)
    print(json.dumps(metrics_record(model.task, model.topology.value, args.split, metrics),
                     sort_keys=True, allow_nan=False))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
    names = [args.topology] if args.topology else TOPOLOGY_NAMES
    all_passed = True
    for name in names:
        report = gradcheck_topology(name, tol=args.tol, h=args.step, seed=args.seed)
        status = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
        print(f"{name} {status} {report.max_rel_err:.3e}")
        for failure in report.failures:
            print(f"{name}: {failure}", file=sys.stderr)
    return 0 if all_passed else 3


def _cmd_sweep(args) -> int:
    base = _load_train_config(args)
    # every topology shares the task, the window and the stream widths
    corpus = _load_corpus(args.manifest, base.task, base.window_seconds, base.model)
    out_root = Path(args.out)
    records, rows = [], []
    for topology in TOPOLOGY_NAMES:
        cfg = replace(base, topology=topology, model=replace(base.model))
        started = time.perf_counter()
        record = _train_once(corpus, cfg, out_root / topology)
        elapsed = time.perf_counter() - started
        records.append(record)
        rows.append((topology, record["value"], record["params"], elapsed))
        print(f"{topology}: {record['metric_name']}={record['value']:.4f} "
              f"({elapsed:.1f}s)", file=sys.stderr)
    metric_name = records[0]["metric_name"]
    out_root.mkdir(parents=True, exist_ok=True)
    csv_lines = ["topology,metric,params,seconds"]
    csv_lines += ["%s,%.17g,%d,%.3f" % row for row in rows]
    (out_root / "results.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    width = max(len(t) for t in TOPOLOGY_NAMES)
    txt_lines = [f"{'topology'.ljust(width)}  {metric_name:>10}  {'params':>10}  {'seconds':>8}"]
    txt_lines += [f"{t.ljust(width)}  {m:>10.4f}  {p:>10d}  {s:>8.1f}" for t, m, p, s in rows]
    (out_root / "results.txt").write_text("\n".join(txt_lines) + "\n", encoding="utf-8")
    print("\n".join(csv_lines))
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one ``warning: <message>`` line, without the source line that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"synth": _cmd_synth, "train": _cmd_train, "eval": _cmd_eval,
                   "gradcheck": _cmd_gradcheck, "sweep": _cmd_sweep}[args.command]
        # every non-finite loss, gradient, prediction and metric is checked and
        # reported as an error line, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            return handler(args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CorpusError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
