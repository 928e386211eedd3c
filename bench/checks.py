"""Correctness checks on pipeline artifacts, written apart from the program.

Each check recomputes what an artifact must hold from the raw tables or
from properties the method guarantees, never from a stored copy of earlier
output. Rules are restated here from the documentation (cohort rules,
checkpoint layout, LSTM gate equations, rank AUC) rather than imported from
``icumort``, so a fault in the program cannot hide a fault in its check.

Every public ``check_*`` function returns a list of ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import struct
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

TS = "%Y-%m-%d %H:%M:%S"
EVENT_TABLES = ("CHARTEVENTS", "LABEVENTS", "OUTPUTEVENTS")
ALL_TABLES = ("PATIENTS", "ADMISSIONS", "ICUSTAYS", "DIAGNOSES_ICD",
              "SERVICES", *EVENT_TABLES)
HOURS = 48
N_CHANNELS = 13
# Channel names in column order of the hourly matrix.
CHANNEL_NAMES = ("GCS", "SBP", "HeartRate", "TempF", "PaO2", "FiO2",
                 "UrineOutput", "BUN", "WBC", "Bicarbonate", "Sodium",
                 "Potassium", "Bilirubin")
HEART_RATE_COLUMN = CHANNEL_NAMES.index("HeartRate")
CELSIUS_ITEMS = {"676", "223762"}
# Least LSTM-minus-logistic test AUC on temporal_trend data, where the two
# classes share their last-hour marginals by construction.
AUC_MARGIN = 0.15


def _ok(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(ok), detail


def table_file(data_dir: Path, name: str) -> Path:
    for candidate in (data_dir / f"{name}.csv", data_dir / f"{name}.csv.gz"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no table {name} in {data_dir}")


def read_rows(path: Path) -> list[dict[str, str]]:
    """All data rows of a plain or gzipped CSV as dicts."""
    raw = path.read_bytes()
    if path.suffix == ".gz":
        raw = gzip.decompress(raw)
    reader = csv.DictReader(io.StringIO(raw.decode("utf-8"), newline=""))
    return [row for row in reader if any(row.values())]


def load_tables(data_dir: Path, names=ALL_TABLES) -> dict[str, list[dict]]:
    return {name: read_rows(table_file(data_dir, name)) for name in names}


def _ts(text: str) -> datetime:
    return datetime.strptime(text, TS)


def _minute(charttime: str, intime: datetime) -> int:
    return int((_ts(charttime) - intime).total_seconds() // 60)


def registry_items(registry_csv: Path) -> dict[str, set[str]]:
    """Item ids per channel name, from the registry data file."""
    items: dict[str, set[str]] = {}
    with open(registry_csv, newline="") as fh:
        lines = [line for line in fh if not line.lstrip().startswith("#")]
    for row in csv.DictReader(lines):
        items.setdefault(row["channel"].strip(), set()).add(row["item_id"].strip())
    return items


# --- synth -----------------------------------------------------------------

def check_synth(data_dir: Path, tables: dict[str, list[dict]],
                registry: dict[str, set[str]], clean: bool) -> list:
    manifest = json.loads((data_dir / "synth_manifest.json").read_text())
    events = sum(len(tables[t]) for t in EVENT_TABLES)
    results = []
    if clean:
        results.append(_ok("synth.clean_row_count",
                           events == manifest["counts"]["events"],
                           f"{events} rows, manifest {manifest['counts']['events']}"))
        results.append(_ok("synth.no_injections", not manifest["injections"]))
        return results

    inj = manifest["injections"] or {}
    by_id = {t: {r["ROW_ID"]: r for r in tables[t]} for t in EVENT_TABLES}
    bad = [e for e in inj.get("celsius", [])
           if (r := by_id[e["table"]].get(str(e["row_id"]))) is None
           or r["ITEMID"] not in CELSIUS_ITEMS
           or r["VALUE"] != f"{round((e['fahrenheit'] - 32.0) * 5.0 / 9.0, 1):.1f}"]
    results.append(_ok("synth.celsius_rows", inj.get("celsius") and not bad,
                       f"{len(inj.get('celsius', []))} entries, {len(bad)} bad"))

    bad = [e for e in inj.get("error_text", [])
           if (r := by_id[e["table"]].get(str(e["row_id"]))) is None
           or r["VALUE"] != "ERROR"]
    results.append(_ok("synth.error_text_rows", inj.get("error_text") and not bad,
                       f"{len(inj.get('error_text', []))} entries, {len(bad)} bad"))

    # A duplicate is a second row of the same subject and item, seven
    # minutes away, whose value is within 3% of the original.
    keyed: dict[tuple, list[dict]] = {}
    for t in EVENT_TABLES:
        for r in tables[t]:
            keyed.setdefault((t, r["SUBJECT_ID"], r["ITEMID"], r["CHARTTIME"]),
                             []).append(r)
    bad = []
    for e in inj.get("duplicate", []):
        r = by_id[e["table"]].get(str(e["row_id"]))
        if r is None:
            bad.append(e)
            continue
        base = float(r["VALUE"])
        found = False
        for shift in (7, -7):
            when = (_ts(r["CHARTTIME"]) + timedelta(minutes=shift)).strftime(TS)
            for d in keyed.get((e["table"], r["SUBJECT_ID"], r["ITEMID"], when), []):
                value = _number(d["VALUE"])
                if d is not r and value is not None \
                        and abs(value - base) <= 0.031 * abs(base) + 0.05:
                    found = True
        if not found:
            bad.append(e)
    results.append(_ok("synth.duplicate_rows", inj.get("duplicate") and not bad,
                       f"{len(inj.get('duplicate', []))} entries, {len(bad)} bad"))

    # A removed span leaves no row of its channel inside its hours.
    stays = {r["ICUSTAY_ID"]: r for r in tables["ICUSTAYS"]}
    spans = inj.get("missing_span", [])
    wanted = {str(e["stay"]) for e in spans}
    hadm_to_stay = {stays[s]["HADM_ID"]: s for s in wanted}
    seen: dict[tuple[str, str], list[int]] = {}
    for t in EVENT_TABLES:
        for r in tables[t]:
            stay = r.get("ICUSTAY_ID") if "ICUSTAY_ID" in r and r["ICUSTAY_ID"] \
                else hadm_to_stay.get(r["HADM_ID"])
            if stay in wanted:
                seen.setdefault((stay, r["ITEMID"]), []).append(
                    _minute(r["CHARTTIME"], _ts(stays[stay]["INTIME"])))
    bad = []
    for e in spans:
        lo = e["start_hour"] * 60
        hi = min(e["start_hour"] + e["length"], HOURS) * 60  # rows past 48 h stay
        for item in registry[CHANNEL_NAMES[e["channel"]]]:
            if any(lo <= m < hi for m in seen.get((str(e["stay"]), item), [])):
                bad.append(e)
                break
        if e["removed"] < 1:
            bad.append(e)
    results.append(_ok("synth.missing_spans", spans and not bad,
                       f"{len(spans)} entries, {len(bad)} bad"))
    return results


# --- cohort ----------------------------------------------------------------

def read_cohort(work_dir: Path) -> list[dict]:
    with open(work_dir / "cohort.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def expected_cohort(tables: dict[str, list[dict]]) -> dict[str, tuple[str, str]]:
    """icustay_id -> (subject_id, label) by the documented inclusion rules."""
    dob = {r["SUBJECT_ID"]: _ts(r["DOB"]) for r in tables["PATIENTS"]}
    died = {r["HADM_ID"]: bool(r["DEATHTIME"]) for r in tables["ADMISSIONS"]}
    first: dict[str, tuple] = {}
    for r in tables["ICUSTAYS"]:
        key = (_ts(r["INTIME"]), int(r["ICUSTAY_ID"]))
        if r["SUBJECT_ID"] not in first or key < first[r["SUBJECT_ID"]][0]:
            first[r["SUBJECT_ID"]] = (key, r)
    out = {}
    for subject, (_, r) in first.items():
        intime, outtime = _ts(r["INTIME"]), _ts(r["OUTTIME"])
        years = (intime - dob[subject]).total_seconds() / (86400.0 * 365.2425)
        age = 91.4 if years > 89.0 else years
        if age >= 16.0 and outtime - intime > timedelta(hours=48):
            out[r["ICUSTAY_ID"]] = (subject, "1" if died[r["HADM_ID"]] else "0")
    return out


def check_cohort(tables: dict[str, list[dict]], cohort_rows: list[dict]) -> list:
    expected = expected_cohort(tables)
    got = {r["icustay_id"]: (r["subject_id"], r["label"]) for r in cohort_rows}
    n = len(cohort_rows)
    sizes = {s: sum(1 for r in cohort_rows if r["split"] == s)
             for s in ("train", "val", "test")}
    subjects = [r["subject_id"] for r in cohort_rows]
    return [
        _ok("cohort.stays_and_labels", n > 0 and got == expected,
            f"{n} rows, {len(expected)} expected, "
            f"{len(set(got.items()) ^ set(expected.items()))} differ"),
        _ok("cohort.split_sizes",
            sizes == {"test": n // 5, "val": n // 5, "train": n - 2 * (n // 5)},
            str(sizes)),
        _ok("cohort.one_split_per_subject", len(set(subjects)) == n),
    ]


# --- featurize -------------------------------------------------------------

def read_features(work_dir: Path):
    """(seq rows by stay: hour -> values, static rows by stay)."""
    seq: dict[str, dict[int, list[float]]] = {}
    with open(work_dir / "features_seq.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            hours = seq.setdefault(row[0], {})
            hour = int(row[1])
            hours[hour] = None if hour in hours else [float(v) for v in row[2:]]
    with open(work_dir / "features_static.csv", newline="") as fh:
        static = {row["stay_id"]: row for row in csv.DictReader(fh)}
    return seq, static


def check_featurize(tables: dict[str, list[dict]], cohort_rows: list[dict],
                    counts: dict, work_dir: Path,
                    registry: dict[str, set[str]]) -> list:
    own_rows = sum(len(tables[t]) for t in EVENT_TABLES)
    parts = ("events_matched", "events_unlisted_item", "events_outside_cohort",
             "events_outside_window", "events_unparseable_value",
             "events_malformed")
    seq, static = read_features(work_dir)
    cohort = {r["icustay_id"]: r for r in cohort_rows}
    whole = [s for s, hours in seq.items()
             if sorted(hours) == list(range(HOURS))
             and all(v is not None and len(v) == N_CHANNELS
                     and all(math.isfinite(x) for x in v)
                     for v in hours.values())]
    labels_ok = set(static) == set(cohort) and all(
        static[s]["label"] == cohort[s]["label"]
        and static[s]["split"] == cohort[s]["split"] for s in static)
    results = [
        _ok("featurize.events_read", counts["events_read"] == own_rows,
            f"log {counts['events_read']}, raw rows {own_rows}"),
        _ok("featurize.row_accounting",
            counts["events_read"] == sum(counts[p] for p in parts)),
        _ok("featurize.48_finite_hours_per_stay",
            set(seq) == set(cohort) and len(whole) == len(cohort),
            f"{len(whole)} whole of {len(cohort)} stays"),
        _ok("featurize.static_labels", labels_ok),
    ]
    results.append(_heart_rate_roundtrip(tables, cohort, seq, work_dir, registry))
    return results


def _heart_rate_roundtrip(tables, cohort, seq, work_dir, registry):
    """Hours with one raw heart-rate reading give it back once un-standardized."""
    stats = json.loads((work_dir / "population_stats.json").read_text())
    mean = stats["channel_means"][HEART_RATE_COLUMN]
    sd = max(stats["channel_sds"][HEART_RATE_COLUMN], 1e-6)
    if not stats["standardized"]:
        mean, sd = 0.0, 1.0
    sample = sorted(cohort, key=int)[::max(1, len(cohort) // 25)]
    intime = {s: _ts(cohort[s]["intime"]) for s in sample}
    hr_items = registry["HeartRate"]
    obs: dict[tuple[str, int], list[float]] = {}
    for r in tables["CHARTEVENTS"]:
        stay = r["ICUSTAY_ID"]
        if stay not in intime or r["ITEMID"] not in hr_items:
            continue
        value = _number(r["VALUENUM"])
        if value is None:
            value = _number(r["VALUE"])
        minute = _minute(r["CHARTTIME"], intime[stay])
        if value is not None and 0 <= minute < HOURS * 60:
            obs.setdefault((stay, minute // 60), []).append(value)
    single = [(k, v[0]) for k, v in obs.items() if len(v) == 1]
    bad = [(k, raw) for k, raw in single
           if abs(seq[k[0]][k[1]][HEART_RATE_COLUMN] * sd + mean - raw) > 1e-4]
    return _ok("featurize.heart_rate_roundtrip", single and not bad,
               f"{len(single)} hours checked on {len(sample)} stays, {len(bad)} bad")


def _number(text: str):
    try:
        v = float(text)
    except ValueError:
        return None
    return v if v == v else None


# --- evaluate --------------------------------------------------------------

def read_checkpoint(path: Path):
    """Documented layout: b'ICUM1', u32 H, then (u32 rows, u32 cols, f64[])
    for layer1..3 (w_x, w_h, b), head.w, head.b, all little-endian."""
    data = path.read_bytes()
    if data[:5] != b"ICUM1":
        raise ValueError("bad magic")
    (hidden,) = struct.unpack_from("<I", data, 5)
    pos, mats = 9, []
    for _ in range(11):
        rows, cols = struct.unpack_from("<II", data, pos)
        pos += 8
        mats.append(np.frombuffer(data, "<f8", rows * cols, pos).reshape(rows, cols))
        pos += rows * cols * 8
    if pos != len(data):
        raise ValueError("trailing bytes")
    layers = [(mats[3 * k], mats[3 * k + 1], mats[3 * k + 2][:, 0]) for k in range(3)]
    return hidden, layers, mats[9][:, 0], float(mats[10][0, 0])


def lstm_scores(checkpoint: Path, seq: np.ndarray, static: np.ndarray) -> np.ndarray:
    """Stacked LSTM, gates packed [i, f, g, o], zero initial state, then a
    sigmoid head on [h_48, static]."""
    hidden, layers, head_w, head_b = read_checkpoint(checkpoint)
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    x = seq
    for w_x, w_h, b in layers:
        h = np.zeros((seq.shape[0], hidden))
        c = np.zeros_like(h)
        out = []
        for t in range(seq.shape[1]):
            z = x[:, t] @ w_x.T + h @ w_h.T + b
            i, f = sig(z[:, :hidden]), sig(z[:, hidden:2 * hidden])
            g, o = np.tanh(z[:, 2 * hidden:3 * hidden]), sig(z[:, 3 * hidden:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out.append(h)
        x = np.stack(out, axis=1)
    return sig(x[:, -1] @ head_w[:hidden] + static @ head_w[hidden:] + head_b)


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U / (P N) with mid-ranks for ties."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def read_report(work_dir: Path) -> dict[tuple[str, str], dict]:
    with open(work_dir / "metrics_report.csv", newline="") as fh:
        return {(r["model"], r["split"]): r for r in csv.DictReader(fh)}


def check_evaluate(work_dir: Path, temporal: bool) -> list:
    seq_rows, static = read_features(work_dir)
    test = sorted((s for s, r in static.items() if r["split"] == "test"), key=int)
    seq = np.array([[seq_rows[s][h] for h in range(HOURS)] for s in test])
    stat = np.array([[float(v) for v in list(static[s].values())[1:8]] for s in test])
    labels = np.array([int(static[s]["label"]) for s in test])
    scores = lstm_scores(work_dir / "lstm_checkpoint.bin", seq, stat)
    report = read_report(work_dir)
    lstm, lr = report[("LSTM", "test")], report[("LogisticRegression", "test")]

    auc = rank_auc(scores, labels)
    pred = scores >= 0.5
    tp, fp = int(np.sum(pred & (labels == 1))), int(np.sum(pred & (labels == 0)))
    tn, fn = int(np.sum(~pred & (labels == 0))), int(np.sum(~pred & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    close = lambda a, b: abs(float(a) - b) <= 1e-6  # noqa: E731
    # Every distinct test score is a threshold of the exported ROC, in
    # descending order, so the scores themselves can be compared.
    with open(work_dir / "roc_lstm_test.csv", newline="") as fh:
        thresholds = [float(r["threshold"]) for r in csv.DictReader(fh)
                      if r["threshold"]]
    distinct = sorted(set(scores.tolist()), reverse=True)
    scores_ok = len(thresholds) == len(distinct) and all(
        abs(a - b) <= 1e-8 * max(abs(b), 1e-3) for a, b in zip(thresholds, distinct))
    results = [
        _ok("evaluate.lstm_test_scores", scores_ok,
            f"{len(distinct)} distinct scores, {len(thresholds)} ROC thresholds"),
        _ok("evaluate.lstm_test_auc", close(lstm["auc"], auc),
            f"report {lstm['auc']}, recomputed {auc:.9g}"),
        _ok("evaluate.confusion_at_0.5",
            [int(lstm[k]) for k in ("tp", "fp", "tn", "fn")] == [tp, fp, tn, fn],
            f"recomputed {tp}/{fp}/{tn}/{fn}"),
        _ok("evaluate.precision_recall_f1",
            close(lstm["precision"], precision) and close(lstm["recall"], recall)
            and close(lstm["f1"], f1)),
    ]
    if temporal:
        results.append(_ok("evaluate.lstm_beats_last_hour_lr",
                           float(lstm["auc"]) - float(lr["auc"]) >= AUC_MARGIN,
                           f"LSTM {lstm['auc']} vs LR {lr['auc']}"))
    return results


def check_gzip_only(data_dir: Path) -> list:
    plain = sorted(p.name for p in data_dir.glob("*.csv"))
    gz = sorted(p.name for p in data_dir.glob("*.csv.gz"))
    return [_ok("ingest.gzip_only", not plain and len(gz) == len(ALL_TABLES),
                f"plain {plain}, gz {len(gz)}")]
