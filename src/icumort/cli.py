"""Command-line pipeline: synth -> cohort -> featurize -> train -> evaluate.

Each stage writes its documented artifacts plus a JSON stage log (counts,
seed, wall time, artifact list) under ``<work>/logs/``. All randomness flows
from the single ``--seed`` through per-stage derivation, so stages are
independently reproducible and ``run-all`` equals the composition of the
individual stages. Errors exit nonzero with one ``error: ...`` line on
stderr.

Option defaults live in one place each: the synth and train options, with
their defaults, are the fields of ``config.SynthConfig`` and
``config.TrainConfig``; the rest are in ``_DEFAULTS`` below. An option's
type follows from its default (a bool is a switch; no default is a path,
or an integer for ``seed`` and ``synth_patients``). ``--config FILE`` reads
``key=value`` lines (dashes or underscores in keys, ``#`` comment lines,
``true``/``false`` for switches); flags on the command line win over it.

Each stage imports what it runs. At module level this file loads only the
standard library, ``errors`` and ``config``; every ``stage_*`` function
imports the modules and numpy it uses. Each stage runs as its own process,
so ``--help`` and ``cohort`` start without numpy and ``featurize`` loads
no model module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .config import SynthConfig, TrainConfig
from .errors import ConfigError, DataError, PipelineError

if TYPE_CHECKING:
    import numpy as np

    from .metrics import EvalReport

MODEL_LSTM = "LSTM"
MODEL_LR = "LogisticRegression"


def _write_stage_log(work_dir: Path, stage: str, seed, counts: dict,
                     artifacts: list[str], started: float,
                     warnings: list[str] | None = None) -> None:
    """Write a stage's JSON log; each warning also goes to stderr as one line."""
    for warning in warnings or ():
        print(f"warning: {warning}", file=sys.stderr)
    log_dir = work_dir / "logs"
    payload = {
        "stage": stage,
        "seed": seed,
        "counts": counts,
        "artifacts": artifacts,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    if warnings:
        payload["warnings"] = warnings
    with _writing(log_dir):
        log_dir.mkdir(parents=True, exist_ok=True)
        (log_dir / f"{stage}_log.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )


def _require(args: dict, *names: str) -> None:
    for name in names:
        if args.get(name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


@contextmanager
def _writing(path: Path):
    """Report a failure to create or write an output as a ConfigError that
    names the file the error names, else path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot write {exc.filename or path}: {exc.strerror or exc}"
        ) from exc


def stage_synth(args: dict) -> None:
    from . import synth
    from .seeding import derive_seed

    _require(args, "out", "seed", "synth_patients")
    started = time.monotonic()
    out_dir = Path(args["out"])
    config = _config_from_args(SynthConfig, args,
                               seed=derive_seed(args["seed"], "synth"))
    with _writing(out_dir):
        counts = synth.generate(config, out_dir)
    artifacts = [*sorted(f"{name}.csv" for name in synth.TABLES),
                 synth.MANIFEST_NAME]
    _write_stage_log(out_dir, "synth", args["seed"], counts, artifacts, started)
    print(f"synth: wrote {counts['events']} events for "
          f"{counts['patients']} patients to {out_dir}")


def stage_describe(args: dict) -> None:
    from . import synth

    _require(args, "data")
    summary = synth.describe(args["data"])
    text = summary.to_text()
    print(text)
    if args.get("out"):
        out_path = Path(args["out"])
        with _writing(out_path):
            out_path.write_text(text + "\n")


def _check_dirs(args: dict) -> tuple[Path, Path]:
    data_dir = Path(args["data"])
    work_dir = Path(args["work"])
    if data_dir.resolve() == work_dir.resolve():
        raise ConfigError("data and work directories must be distinct")
    with _writing(work_dir):
        work_dir.mkdir(parents=True, exist_ok=True)
    return data_dir, work_dir


def stage_cohort(args: dict) -> None:
    from . import cohort
    from .seeding import derive_seed
    from .tables import (ADMISSIONS, DIAGNOSES_ICD, ICUSTAYS, PATIENTS,
                         SERVICES, load_table, table_path)

    _require(args, "data", "work", "seed")
    started = time.monotonic()
    data_dir, work_dir = _check_dirs(args)
    tables, table_counts = {}, {}
    for name, schema in (("icustays", ICUSTAYS), ("patients", PATIENTS),
                         ("admissions", ADMISSIONS),
                         ("diagnoses_icd", DIAGNOSES_ICD),
                         ("services", SERVICES)):
        tables[name], stats = load_table(table_path(data_dir, name), schema)
        table_counts[f"{name}_rows_read"] = stats.rows_read
        table_counts[f"{name}_rows_dropped"] = stats.rows_dropped
    flag_ranges = (cohort.load_icd9_flags(args["icd9_flags"])
                   if args.get("icd9_flags") else None)
    surgical = (frozenset(s.strip().upper()
                          for s in args["surgical_services"].split(","))
                if args.get("surgical_services")
                else cohort.DEFAULT_SURGICAL_SERVICES)
    included, counts = cohort.build_cohort(
        tables["icustays"], tables["patients"], tables["admissions"],
        tables["diagnoses_icd"], tables["services"],
        flag_ranges=flag_ranges, surgical_services=surgical,
    )
    counts.update(table_counts)
    split = cohort.split_dataset(
        [s.subject_id for s in included], derive_seed(args["seed"], "split")
    )
    out_path = work_dir / "cohort.csv"
    with _writing(out_path):
        cohort.write_cohort_csv(out_path, included, split)
    for name in cohort.SPLITS:
        counts[f"split_{name}"] = sum(1 for v in split.values() if v == name)
    warnings = []
    if counts["label_flag_disagreements"]:
        warnings.append(
            f"expire flag disagreed with death timestamp on "
            f"{counts['label_flag_disagreements']} admission(s); "
            f"timestamp took precedence")
    _write_stage_log(work_dir, "cohort", args["seed"], counts,
                     ["cohort.csv"], started, warnings)
    print(f"cohort: {counts['included']} of {counts['stays_total']} stays "
          f"included ({counts['split_train']}/{counts['split_val']}/"
          f"{counts['split_test']} train/val/test)")


def stage_featurize(args: dict) -> None:
    from . import cohort, featurize
    from .items import load_registry
    from .seeding import derive_seed

    _require(args, "data", "work", "seed")
    started = time.monotonic()
    data_dir, work_dir = _check_dirs(args)
    stays, splits_by_subject = cohort.read_cohort_csv(work_dir / "cohort.csv")
    registry = load_registry(args.get("registry"))
    events, counts = featurize.collect_stay_events(data_dir, stays, registry)
    tensors, stats = featurize.featurize_cohort(
        stays, splits_by_subject, events,
        derive_seed(args["seed"], "featurize"),
        literal_means=args["literal_means"],
        literal_urine_pick=args["literal_urine_pick"],
        standardize=not args["no_standardize"],
    )
    split_by_stay = {s.icustay_id: splits_by_subject[s.subject_id] for s in stays}
    stats_payload = {
        "channel_means": stats.means.tolist(),
        "channel_sds": stats.sds.tolist(),
        "age_mean": stats.age_mean,
        "age_sd": stats.age_sd,
        "standardized": not args["no_standardize"],
        "literal_means": args["literal_means"],
        "literal_urine_pick": args["literal_urine_pick"],
        "seed": args["seed"],
    }
    with _writing(work_dir):
        featurize.write_features(work_dir, tensors, split_by_stay)
        (work_dir / "population_stats.json").write_text(
            json.dumps(stats_payload, indent=1, sort_keys=True) + "\n"
        )
    counts["tensors"] = len(tensors)
    _write_stage_log(
        work_dir, "featurize", args["seed"], counts,
        ["features_seq.csv", "features_static.csv", "population_stats.json"],
        started,
    )
    print(f"featurize: {len(tensors)} tensors from "
          f"{counts['events_matched']} matched events")


def _split_arrays(tensors, split_by_stay, split: str
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    import numpy as np

    chosen = [t for t in tensors if split_by_stay[t.stay_id] == split]
    if not chosen:
        raise ConfigError(f"split {split!r} is empty")
    seq = np.stack([t.seq for t in chosen])
    static = np.stack([t.static for t in chosen])
    labels = np.array([t.label for t in chosen], dtype=np.float64)
    return seq, static, labels


# mallopt parameters of glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap pages mapped, so training reuses them.

    Training frees each batch's forward cache (14.25 MB at B 32, T 48, H 64)
    before the next forward pass. By default glibc hands a freed heap top
    larger than twice its largest freed mmap chunk back to the system, so
    every batch page-faulted its cache in again: about 2,700 faults a batch
    with the former 16.6 MB cache, and a train stage 6-19% slower than with
    two caches alive. A 32 MB mmap threshold and a 64 MB trim threshold keep
    those pages for the next batch. C libraries without ``mallopt`` are left
    as they are.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def stage_train(args: dict) -> None:
    from . import baseline, featurize, nn, training
    from .seeding import derive_seed

    _require(args, "work", "seed")
    _keep_freed_heap()
    started = time.monotonic()
    work_dir = Path(args["work"])
    config = _config_from_args(TrainConfig, args,
                               seed=derive_seed(args["seed"], "train-stage"))
    config.validate()
    baseline.check_lambda(args["l2_lambda"])
    tensors, split_by_stay = featurize.read_features(work_dir)
    feature_stats = _read_population_stats(work_dir)
    train_data = _split_arrays(tensors, split_by_stay, "train")
    val_data = _split_arrays(tensors, split_by_stay, "val")
    # Fit the baseline first, so a one-class train split fails before training.
    lr_model = baseline.train_lr(baseline.last_hour_features(*train_data[:2]),
                                 train_data[2], lam=args["l2_lambda"])

    model, history = training.train(train_data, val_data, config)
    with _writing(work_dir):
        nn.save_checkpoint(model, work_dir / "lstm_checkpoint.bin")
        _write_model_manifest(work_dir, args, config, feature_stats)
        training.write_history_csv(work_dir / "training_history.csv", history)
        baseline.save_lr(lr_model, work_dir / "logreg_checkpoint.txt",
                         args["seed"])

    counts = {
        "train_stays": int(train_data[2].size),
        "val_stays": int(val_data[2].size),
        "epochs_run": len(history),
        "best_val_loss": min(h.val_loss for h in history),
    }
    _write_stage_log(
        work_dir, "train", args["seed"], counts,
        ["lstm_checkpoint.bin", "lstm_checkpoint.manifest.txt",
         "training_history.csv", "logreg_checkpoint.txt"],
        started,
    )
    print(f"train: {len(history)} epochs, best val loss "
          f"{counts['best_val_loss']:.5f}")


def _read_population_stats(work_dir: Path) -> dict:
    """The featurize stage's population_stats.json; {} where it is absent."""
    from .tables import read_artifact

    path = work_dir / "population_stats.json"
    if not path.exists():
        return {}
    try:
        stats = json.loads(read_artifact(path).decode("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(stats, dict):
        raise DataError(f"{path}: not a JSON object")
    return stats


def _write_model_manifest(work_dir: Path, args: dict, config: TrainConfig,
                          feature_stats: dict) -> None:
    lines = [
        "format ICUM1",
        f"global_seed {args['seed']}",
    ]
    for key, value in sorted(asdict(config).items()):
        lines.append(f"train.{key} {value}")
    for key in sorted(feature_stats):
        lines.append(f"features.{key} {feature_stats[key]}")
    (work_dir / "lstm_checkpoint.manifest.txt").write_text(
        "\n".join(lines) + "\n"
    )


def stage_evaluate(args: dict) -> None:
    from . import baseline, cohort, featurize, metrics, nn

    _require(args, "work")
    started = time.monotonic()
    work_dir = Path(args["work"])
    threshold = args["threshold"]
    if not 0.0 <= threshold <= 1.0:  # false for nan as well
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    tensors, split_by_stay = featurize.read_features(work_dir)
    model = nn.load_checkpoint(work_dir / "lstm_checkpoint.bin")
    lr_model = baseline.load_lr(work_dir / "logreg_checkpoint.txt")

    reports: list[tuple[str, str, EvalReport]] = []
    artifacts = ["metrics_report.csv", "model_comparison.csv"]
    test_scores: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for split in cohort.SPLITS:
        seq, static, labels = _split_arrays(tensors, split_by_stay, split)
        lstm_scores = nn.predict(model, seq, static)
        lr_scores = baseline.predict_lr(
            lr_model, baseline.last_hour_features(seq, static))
        reports.append((MODEL_LSTM, split,
                        metrics.evaluate_scores(lstm_scores, labels, threshold)))
        reports.append((MODEL_LR, split,
                        metrics.evaluate_scores(lr_scores, labels, threshold)))
        if split == "test":
            test_scores[MODEL_LSTM] = (lstm_scores, labels)
            test_scores[MODEL_LR] = (lr_scores, labels)

    with _writing(work_dir):
        metrics.write_report_csv(work_dir / "metrics_report.csv", reports)
        for name, fname in ((MODEL_LSTM, "roc_lstm_test.csv"),
                            (MODEL_LR, "roc_logreg_test.csv")):
            scores, labels = test_scores[name]
            metrics.write_roc_csv(work_dir / fname, scores, labels)
            artifacts.append(fname)
        table_text = render_comparison(
            [(m, r) for m, s, r in reports if s == "test"],
            work_dir / "model_comparison.csv",
        )
    print(table_text)
    # A one-class split has no AUC; JSON has no nan, so the log says null.
    counts = {f"{m}_{s}_auc": None if math.isnan(r.auc) else round(r.auc, 6)
              for m, s, r in reports}
    warnings = [
        f"{split} split holds one class; its AUC is nan"
        + ("; the test ROC files hold only a header" if split == "test" else "")
        for m, split, r in reports if m == MODEL_LSTM and not r.roc_points
    ]
    _write_stage_log(work_dir, "evaluate", args.get("seed"), counts,
                     artifacts, started, warnings)


def render_comparison(model_reports: list[tuple[str, EvalReport]],
                      csv_path: Path) -> str:
    """Fixed-order model table (3 decimals) on the test split, also written
    to ``csv_path``."""
    from .tables import write_artifact_rows

    header = ["Model", "Precision", "Recall", "F1", "AUC"]
    rows = [
        [name, f"{r.precision:.3f}", f"{r.recall:.3f}",
         f"{r.f1:.3f}", f"{r.auc:.3f}"]
        for name, r in model_reports
    ]
    write_artifact_rows(csv_path, header, rows)
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def run_all(args: dict) -> None:
    _require(args, "out", "seed")
    out_dir = Path(args["out"])
    if args.get("synth_patients"):
        data_dir = out_dir / "data"
        stage_synth({**args, "out": str(data_dir)})
    elif args.get("data"):
        data_dir = Path(args["data"])
    else:
        raise ConfigError("run-all needs either --synth-patients or --data")
    stage_args = {**args, "data": str(data_dir), "work": str(out_dir)}
    stage_cohort(stage_args)
    stage_featurize(stage_args)
    stage_train(stage_args)
    stage_evaluate(stage_args)


# Option names that differ from their config field names.
_OPTION_NAMES = {"n_patients": "synth_patients", "signal_mode": "signal",
                 "hidden_size": "hidden"}
# Options without a default that take integers; the others are paths or text.
_INT_OPTIONS = frozenset({"seed", "synth_patients"})


def _config_fields(config_cls) -> list:
    """The fields of a config that are options: all but the derived seed."""
    return [f for f in fields(config_cls) if f.name != "seed"]


def _config_defaults(config_cls) -> dict:
    """Options of a config dataclass with its defaults (None where it has none)."""
    return {_OPTION_NAMES.get(f.name, f.name):
            None if f.default is MISSING else f.default
            for f in _config_fields(config_cls)}


def _config_from_args(config_cls, args: dict, **derived):
    return config_cls(**{f.name: args[_OPTION_NAMES.get(f.name, f.name)]
                         for f in _config_fields(config_cls)}, **derived)


_COMMON_DEFAULTS = {
    "seed": None,
    "config": None,
}

_DEFAULTS: dict[str, dict] = {
    "synth": {
        **_COMMON_DEFAULTS,
        "out": None,
        **_config_defaults(SynthConfig),
    },
    "describe": {"data": None, "out": None, "config": None},
    "cohort": {
        **_COMMON_DEFAULTS,
        "data": None,
        "work": None,
        "icd9_flags": None,
        "surgical_services": None,
    },
    "featurize": {
        **_COMMON_DEFAULTS,
        "data": None,
        "work": None,
        "registry": None,
        "literal_means": False,
        "literal_urine_pick": False,
        "no_standardize": False,
    },
    "train": {
        **_COMMON_DEFAULTS,
        "work": None,
        **_config_defaults(TrainConfig),
        "l2_lambda": 1.0,
    },
    "evaluate": {
        **_COMMON_DEFAULTS,
        "work": None,
        "threshold": 0.5,
    },
}
_DEFAULTS["run-all"] = {
    key: value
    for cmd in ("synth", "cohort", "featurize", "train", "evaluate")
    for key, value in _DEFAULTS[cmd].items()
}


def _parse_flag(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise ValueError("expected a boolean")
    return text.lower() in ("true", "1")


def _converter(key: str, default):
    """Text-to-value conversion of one option, worked out from its default."""
    if isinstance(default, bool):
        return _parse_flag
    if default is None:
        return int if key in _INT_OPTIONS else str
    return type(default)


_STAGES = {
    "synth": stage_synth,
    "describe": stage_describe,
    "cohort": stage_cohort,
    "featurize": stage_featurize,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "run-all": run_all,
}


def _add_arguments(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        convert = _converter(key, default)
        kind = ({"action": "store_true"} if convert is _parse_flag
                else {"type": convert})
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=argparse.SUPPRESS, **kind)


def _parse_config_file(path: str, allowed: dict) -> dict:
    """Plain key=value config; CLI flags win on conflict."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 text") from exc
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config {path} line {line_no}: expected key=value")
        key, _, raw_value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in allowed:
            raise ConfigError(f"config {path} line {line_no}: unknown key {key}")
        try:
            values[key] = _converter(key, allowed[key])(raw_value.strip())
        except ValueError as exc:
            raise ConfigError(
                f"config {path} line {line_no}: bad value for {key}: {exc}"
            ) from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icumort",
        description="ICU in-hospital mortality pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "synth": "generate synthetic EHR-shaped tables",
        "describe": "summarize a data directory",
        "cohort": "select the cohort and assign splits",
        "featurize": "build 48x13 tensors and static features",
        "train": "train the LSTM and the logistic baseline",
        "evaluate": "score checkpoints and write reports",
        "run-all": "run every stage in sequence",
    }
    for command, defaults in _DEFAULTS.items():
        sp = sub.add_parser(command, help=helps[command])
        _add_arguments(sp, defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        namespace = build_parser().parse_args(argv)
        command = namespace.command
        cli_args = {k: v for k, v in vars(namespace).items() if k != "command"}
        args = dict(_DEFAULTS[command])
        if cli_args.get("config"):
            args.update(_parse_config_file(cli_args["config"], _DEFAULTS[command]))
        args.update(cli_args)
        _STAGES[command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of standard output has gone. Send what is still buffered
        # to /dev/null, so the flush at interpreter exit fails no second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
