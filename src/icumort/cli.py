"""Command-line pipeline: synth -> cohort -> featurize -> train -> evaluate.

Each stage writes its documented artifacts plus a JSON stage log (counts,
seed, wall time, artifact list) under ``<work>/logs/``. All randomness flows
from the single ``--seed`` through per-stage derivation, so stages are
independently reproducible and ``run-all`` equals the composition of the
individual stages. Errors exit nonzero with one ``error: ...`` line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
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
    config = synth.SynthConfig(
        n_patients=args["synth_patients"],
        seed=derive_seed(args["seed"], "synth"),
        mortality_rate=args["mortality_rate"],
        readmission_rate=args["readmission_rate"],
        long_stay_frac=args["long_stay_frac"],
        age_min=args["age_min"],
        age_max=args["age_max"],
        signal_mode=args["signal"],
        effect_size=args["effect_size"],
        missing_scale=args["missing_scale"],
        celsius_rate=args["celsius_rate"],
        error_text_rate=args["error_text_rate"],
        duplicate_rate=args["duplicate_rate"],
        missing_span_rate=args["missing_span_rate"],
    )
    counts = synth.generate(config, out_dir)
    if (config.celsius_rate or config.error_text_rate or config.duplicate_rate
            or config.missing_span_rate):
        injections = synth.inject_anomalies(out_dir, config)
        counts = {**counts,
                  **{f"injected_{k}": len(v) for k, v in injections.items()}}
    artifacts = sorted(p.name for p in out_dir.glob("*.csv"))
    artifacts.append(synth.MANIFEST_NAME)
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
    counts["split_train"] = sum(1 for v in split.assignments.values() if v == "train")
    counts["split_val"] = sum(1 for v in split.assignments.values() if v == "val")
    counts["split_test"] = sum(1 for v in split.assignments.values() if v == "test")
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
    tensors, split_by_stay = featurize.read_features(work_dir)
    train_data = _split_arrays(tensors, split_by_stay, "train")
    val_data = _split_arrays(tensors, split_by_stay, "val")
    # Fit the baseline first, so a one-class train split fails before training.
    lr_features = np.stack([
        baseline.last_hour_features(t) for t in tensors
        if split_by_stay[t.stay_id] == "train"
    ])
    lr_model = baseline.train_lr(lr_features, train_data[2],
                                 lam=args["l2_lambda"])

    config = training.TrainConfig(
        batch_size=args["batch_size"],
        max_epochs=args["max_epochs"],
        patience=args["patience"],
        seed=derive_seed(args["seed"], "train-stage"),
        learning_rate=args["learning_rate"],
        hidden_size=args["hidden"],
        monitor=args["monitor"],
    )
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
            lr_model, np.concatenate([seq[:, -1, :], static], axis=1)
        )
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


_COMMON_DEFAULTS = {
    "seed": None,
    "config": None,
}

_DEFAULTS: dict[str, dict] = {
    "synth": {
        **_COMMON_DEFAULTS,
        "out": None,
        "synth_patients": None,
        "mortality_rate": 0.115,
        "readmission_rate": 0.15,
        "long_stay_frac": 0.8,
        "age_min": 14.0,
        "age_max": 97.0,
        "signal": "none",
        "effect_size": 1.0,
        "missing_scale": 1.0,
        "celsius_rate": 0.25,
        "error_text_rate": 0.05,
        "duplicate_rate": 0.05,
        "missing_span_rate": 0.1,
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
        "hidden": 64,
        "batch_size": 32,
        "max_epochs": 10,
        "patience": 3,
        "learning_rate": 0.001,
        "l2_lambda": 1.0,
        "monitor": "loss",
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
_DEFAULTS["run-all"]["data"] = None
_DEFAULTS["run-all"]["out"] = None

_FLAG_KEYS = {"literal_means", "literal_urine_pick", "no_standardize"}
_INT_KEYS = {"seed", "synth_patients", "hidden", "batch_size", "max_epochs",
             "patience"}
_STR_KEYS = {"out", "data", "work", "config", "signal", "monitor",
             "icd9_flags", "surgical_services", "registry"}

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
    for key in defaults:
        flag = "--" + key.replace("_", "-")
        if key in _FLAG_KEYS:
            parser.add_argument(flag, dest=key, action="store_true",
                                default=argparse.SUPPRESS)
        elif key in _INT_KEYS:
            parser.add_argument(flag, dest=key, type=int,
                                default=argparse.SUPPRESS)
        elif key in _STR_KEYS:
            parser.add_argument(flag, dest=key, type=str,
                                default=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, dest=key, type=float,
                                default=argparse.SUPPRESS)


def _parse_config_file(path: str, allowed: dict) -> dict:
    """Plain key=value config; CLI flags win on conflict."""
    values: dict = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config {path} line {line_no}: expected key=value")
        key, _, raw_value = line.partition("=")
        key = key.strip().replace("-", "_")
        raw_value = raw_value.strip()
        if key not in allowed:
            raise ConfigError(f"config {path} line {line_no}: unknown key {key}")
        try:
            if key in _FLAG_KEYS:
                if raw_value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError("expected a boolean")
                values[key] = raw_value.lower() in ("true", "1")
            elif key in _INT_KEYS:
                values[key] = int(raw_value)
            elif key in _STR_KEYS:
                values[key] = raw_value
            else:
                values[key] = float(raw_value)
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
