"""Command-line pipeline: synth -> cohort -> featurize -> train -> evaluate.

Each stage writes its documented artifacts plus a JSON stage log (counts,
seed, wall time, artifact list) under ``<work>/logs/``. All randomness flows
from the single ``--seed`` through per-stage derivation, so stages are
independently reproducible and ``run-all`` equals the composition of the
individual stages. Errors exit nonzero with one ``error: ...`` line on
stderr.

Option defaults live in one place each: the synth and train options, with
their defaults, are the fields of ``synth.SynthConfig`` and
``training.TrainConfig``; the rest are in ``_DEFAULTS`` below. An option's
type follows from its default (a bool is a switch; no default is a path,
or an integer for ``seed`` and ``synth_patients``). ``--config FILE`` reads
``key=value`` lines (dashes or underscores in keys, ``#`` comment lines,
``true``/``false`` for switches); flags on the command line win over it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import baseline, cohort, featurize, metrics, nn, synth, training
from .errors import ConfigError, PipelineError
from .items import load_registry
from .seeding import derive_seed
from .tables import (
    ADMISSIONS,
    DIAGNOSES_ICD,
    ICUSTAYS,
    PATIENTS,
    SERVICES,
    load_table,
    table_path,
)

MODEL_LSTM = "LSTM"
MODEL_LR = "LogisticRegression"


def _write_stage_log(work_dir: Path, stage: str, seed, counts: dict,
                     artifacts: list[str], started: float,
                     warnings: list[str] | None = None) -> None:
    log_dir = work_dir / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "stage": stage,
        "seed": seed,
        "counts": counts,
        "artifacts": artifacts,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    if warnings:
        payload["warnings"] = warnings
    (log_dir / f"{stage}_log.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )


def _require(args: dict, *names: str) -> None:
    for name in names:
        if args.get(name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def stage_synth(args: dict) -> None:
    _require(args, "out", "seed", "synth_patients")
    started = time.monotonic()
    out_dir = Path(args["out"])
    config = _config_from_args(synth.SynthConfig, args,
                               seed=derive_seed(args["seed"], "synth"))
    counts = synth.generate(config, out_dir)
    artifacts = [*sorted(f"{name}.csv" for name in synth.TABLES),
                 synth.MANIFEST_NAME]
    _write_stage_log(out_dir, "synth", args["seed"], counts, artifacts, started)
    print(f"synth: wrote {counts['events']} events for "
          f"{counts['patients']} patients to {out_dir}")


def stage_describe(args: dict) -> None:
    _require(args, "data")
    summary = synth.describe(args["data"])
    text = summary.to_text()
    print(text)
    if args.get("out"):
        Path(args["out"]).write_text(text + "\n")


def _check_dirs(args: dict) -> tuple[Path, Path]:
    data_dir = Path(args["data"])
    work_dir = Path(args["work"])
    if data_dir.resolve() == work_dir.resolve():
        raise ConfigError("data and work directories must be distinct")
    work_dir.mkdir(parents=True, exist_ok=True)
    return data_dir, work_dir


def stage_cohort(args: dict) -> None:
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
    cohort.write_cohort_csv(out_path, included, split)
    for name in cohort.SPLITS:
        counts[f"split_{name}"] = sum(1 for v in split.assignments.values()
                                      if v == name)
    _write_stage_log(work_dir, "cohort", args["seed"], counts,
                     ["cohort.csv"], started)
    print(f"cohort: {counts['included']} of {counts['stays_total']} stays "
          f"included ({counts['split_train']}/{counts['split_val']}/"
          f"{counts['split_test']} train/val/test)")


def stage_featurize(args: dict) -> None:
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
    featurize.write_features(work_dir, tensors, split_by_stay)
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
    chosen = [t for t in tensors if split_by_stay[t.stay_id] == split]
    if not chosen:
        raise ConfigError(f"split {split!r} is empty")
    seq = np.stack([t.seq for t in chosen])
    static = np.stack([t.static for t in chosen])
    labels = np.array([t.label for t in chosen], dtype=np.float64)
    return seq, static, labels


def stage_train(args: dict) -> None:
    _require(args, "work", "seed")
    started = time.monotonic()
    work_dir = Path(args["work"])
    config = _config_from_args(training.TrainConfig, args,
                               seed=derive_seed(args["seed"], "train-stage"))
    config.validate()
    tensors, split_by_stay = featurize.read_features(work_dir)
    train_data = _split_arrays(tensors, split_by_stay, "train")
    val_data = _split_arrays(tensors, split_by_stay, "val")
    # Fit the baseline first, so a one-class train split fails before training.
    lr_model = baseline.train_lr(baseline.last_hour_features(*train_data[:2]),
                                 train_data[2], lam=args["l2_lambda"])

    model, history = training.train(train_data, val_data, config)
    nn.save_checkpoint(model, work_dir / "lstm_checkpoint.bin")
    _write_model_manifest(work_dir, args, config)
    training.write_history_csv(work_dir / "training_history.csv", history)
    baseline.save_lr(lr_model, work_dir / "logreg_checkpoint.txt", args["seed"])

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


def _write_model_manifest(work_dir: Path, args: dict,
                          config: training.TrainConfig) -> None:
    lines = [
        "format ICUM1",
        f"global_seed {args['seed']}",
    ]
    for key, value in sorted(asdict(config).items()):
        lines.append(f"train.{key} {value}")
    stats_path = work_dir / "population_stats.json"
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        for key in sorted(stats):
            lines.append(f"features.{key} {stats[key]}")
    (work_dir / "lstm_checkpoint.manifest.txt").write_text(
        "\n".join(lines) + "\n"
    )


def stage_evaluate(args: dict) -> None:
    _require(args, "work")
    started = time.monotonic()
    work_dir = Path(args["work"])
    threshold = args["threshold"]
    if not 0.0 <= threshold <= 1.0:  # false for nan as well
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    tensors, split_by_stay = featurize.read_features(work_dir)
    model = nn.load_checkpoint(work_dir / "lstm_checkpoint.bin")
    lr_model = baseline.load_lr(work_dir / "logreg_checkpoint.txt")

    reports: list[tuple[str, str, metrics.EvalReport]] = []
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
    counts = {f"{m}_{s}_auc": None if np.isnan(r.auc) else round(r.auc, 6)
              for m, s, r in reports}
    warnings = [
        f"{split} split holds one class; its AUC is nan"
        + ("; the test ROC files hold only a header" if split == "test" else "")
        for m, split, r in reports if m == MODEL_LSTM and not r.roc_points
    ]
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_stage_log(work_dir, "evaluate", args.get("seed"), counts,
                     artifacts, started, warnings)


def render_comparison(model_reports: list[tuple[str, metrics.EvalReport]],
                      csv_path: Path | None = None) -> str:
    """Fixed-order model table (3 decimals) on the test split."""
    if not model_reports:
        raise ConfigError("no evaluation reports to render")
    header = ["Model", "Precision", "Recall", "F1", "AUC"]
    rows = [
        [name, f"{r.precision:.3f}", f"{r.recall:.3f}",
         f"{r.f1:.3f}", f"{r.auc:.3f}"]
        for name, r in model_reports
    ]
    if csv_path is not None:
        csv_lines = [",".join(header)] + [",".join(row) for row in rows]
        Path(csv_path).write_text("\n".join(csv_lines) + "\n")
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


# Config fields the stages set themselves rather than take as options.
_DERIVED_FIELDS = frozenset({"seed", "missing_rate", "shuffle"})
# Option names that differ from their config field names.
_OPTION_NAMES = {"n_patients": "synth_patients", "signal_mode": "signal",
                 "hidden_size": "hidden"}
# Options without a default that take integers; the others are paths or text.
_INT_OPTIONS = frozenset({"seed", "synth_patients"})


def _config_fields(config_cls) -> list:
    return [f for f in fields(config_cls) if f.name not in _DERIVED_FIELDS]


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
        **_config_defaults(synth.SynthConfig),
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
        **_config_defaults(training.TrainConfig),
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
    parser = build_parser()
    namespace = parser.parse_args(argv)
    command = namespace.command
    cli_args = {k: v for k, v in vars(namespace).items() if k != "command"}
    args = dict(_DEFAULTS[command])
    try:
        if cli_args.get("config"):
            args.update(_parse_config_file(cli_args["config"], _DEFAULTS[command]))
        args.update(cli_args)
        _STAGES[command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
