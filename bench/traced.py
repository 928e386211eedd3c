"""Traced run: per-layer costs from spans around calls into each module.

The stage bodies of ``icumort.cli`` are restated here, in-process, so that
every call into a module's public function can be wrapped in a span. Spans
live only in this benchmark's files; the program is not instrumented. Each
span records name, start, end and parent; they are kept in memory and
written once, to ``trace.json``, when the run ends.

The pipeline runs three times: untraced to warm the process, traced, and
untraced again (only the five stage intervals are timed). The traced stage
total minus the second untraced one is the tracing overhead. After the
passes, ``collect_stay_events`` alternating with a parse-only drain of the
event tables, and repeated single calls of the LSTM, Adam and AUC kernels,
give the rates and per-call costs that the pipeline spans cannot separate.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from icumort import baseline, cohort, featurize, metrics, nn, synth, tables, training
from icumort.adam import AdamState, adam_step
from icumort.items import load_registry
from icumort.seeding import derive_seed

import run as bench

KERNEL_REPEATS = 7
INGEST_REPEATS = 2
PREDICT_REPEATS = 3
CLI_LAUNCHES = 3


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({"name": name,
                           "parent": self._open[-1] if self._open else None,
                           "start": time.perf_counter(), "end": None})
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))


class StageClock:
    """Times only the five stage intervals: the untraced pass."""

    def __init__(self) -> None:
        self.stage_s: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        if name not in bench.STAGES:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] = time.perf_counter() - started


def _arrays(tensors, split_by_stay, split):
    chosen = [t for t in tensors if split_by_stay[t.stay_id] == split]
    return (np.stack([t.seq for t in chosen]), np.stack([t.static for t in chosen]),
            np.array([t.label for t in chosen], dtype=np.float64))


def pipeline(wl, seed: int, base: Path, span) -> dict:
    """The five CLI stages with the same calls, seeds and options."""
    data, work = base / "data", base / "work"
    work.mkdir(parents=True)
    rates = {} if wl.anomalies else bench.CLEAN_RATES
    with span("synth"):
        config = synth.SynthConfig(
            n_patients=wl.patients, seed=derive_seed(seed, "synth"),
            signal_mode=wl.signal, effect_size=wl.effect_size,
            mortality_rate=wl.mortality_rate, **rates)
        with span("synth.generate"):
            synth_counts = synth.generate(config, data)
        if wl.anomalies:
            with span("synth.inject_anomalies"):
                synth.inject_anomalies(data, config)
    if wl.gzip:
        bench.gzip_tables(data)

    with span("cohort"):
        with span("tables.dimension"):
            loaded = [tables.load_table(tables.table_path(data, name), schema)[0]
                      for name, schema in (("icustays", tables.ICUSTAYS),
                                           ("patients", tables.PATIENTS),
                                           ("admissions", tables.ADMISSIONS),
                                           ("diagnoses_icd", tables.DIAGNOSES_ICD),
                                           ("services", tables.SERVICES))]
        with span("cohort.build"):
            included, _ = cohort.build_cohort(*loaded)
            split = cohort.split_dataset([s.subject_id for s in included],
                                         derive_seed(seed, "split"))
        cohort.write_cohort_csv(work / "cohort.csv", included, split)

    with span("featurize"):
        stays, splits_by_subject = cohort.read_cohort_csv(work / "cohort.csv")
        registry = load_registry()
        with span("featurize.collect"):
            events, counts = featurize.collect_stay_events(data, stays, registry)
        with span("featurize.assemble"):
            tensors, stats = featurize.featurize_cohort(
                stays, splits_by_subject, events, derive_seed(seed, "featurize"))
        split_by_stay = {s.icustay_id: splits_by_subject[s.subject_id] for s in stays}
        with span("featurize.write"):
            featurize.write_features(work, tensors, split_by_stay)
        (work / "population_stats.json").write_text(json.dumps({
            "channel_means": stats.means.tolist(),
            "channel_sds": stats.sds.tolist(),
            "standardized": True,
        }) + "\n")

    with span("train"):
        with span("featurize.read"):
            tensors, split_by_stay = featurize.read_features(work)
        train_data = _arrays(tensors, split_by_stay, "train")
        val_data = _arrays(tensors, split_by_stay, "val")
        config = training.TrainConfig(
            batch_size=wl.batch_size, max_epochs=wl.epochs, patience=wl.patience,
            seed=derive_seed(seed, "train-stage"), hidden_size=wl.hidden)
        with span("training.train"):
            model, history = training.train(train_data, val_data, config)
        nn.save_checkpoint(model, work / "lstm_checkpoint.bin")
        lr_features = np.concatenate([train_data[0][:, -1, :], train_data[1]], axis=1)
        with span("baseline.train_lr"):
            lr_model = baseline.train_lr(lr_features, train_data[2])

    with span("evaluate"):
        with span("featurize.read"):
            tensors, split_by_stay = featurize.read_features(work)
        model = nn.load_checkpoint(work / "lstm_checkpoint.bin")
        reports = []
        for name in cohort.SPLITS:
            seq, static, labels = _arrays(tensors, split_by_stay, name)
            with span("nn.predict"):
                lstm_scores = nn.predict(model, seq, static)
            with span("baseline.predict_lr"):
                lr_scores = baseline.predict_lr(
                    lr_model, np.concatenate([seq[:, -1, :], static], axis=1))
            with span("metrics.evaluate_scores"):
                reports.append(("LSTM", name,
                                metrics.evaluate_scores(lstm_scores, labels)))
            with span("metrics.evaluate_scores"):
                reports.append(("LogisticRegression", name,
                                metrics.evaluate_scores(lr_scores, labels)))
        metrics.write_report_csv(work / "metrics_report.csv", reports)
        metrics.write_roc_csv(work / "roc_lstm_test.csv", lstm_scores, labels)
        metrics.write_roc_csv(work / "roc_logreg_test.csv", lr_scores, labels)
    return {"synth_counts": synth_counts, "counts": counts, "model": model,
            "train": train_data, "val": val_data, "epochs": len(history),
            "n_stays": len(tensors), "stays": stays, "data": data}


def ingest_calls(ctx: dict, tracer: Tracer) -> dict[str, int]:
    """``collect_stay_events`` next to a parse-only drain of the same tables.

    The two alternate, so that the attribution estimate (collect minus
    drain) compares calls made close together in time.
    """
    data, stays, registry = ctx["data"], ctx["stays"], load_registry()
    rows = {}
    for _ in range(INGEST_REPEATS):
        with tracer.span("featurize.collect_stay_events"):
            featurize.collect_stay_events(data, stays, registry)
        for name in ("chartevents", "labevents", "outputevents"):
            with tracer.span(f"tables.parse.{name}"):
                it, stats = tables.parse_table(tables.table_path(data, name),
                                               tables.EVENT_SCHEMAS[name])
                for _ in it:
                    pass
            rows[name] = stats.rows_read
    return rows


def kernel_calls(ctx: dict, wl, tracer: Tracer) -> None:
    """Single calls of the training kernels at the workload's batch size."""
    seq, static, labels = ctx["train"]
    batch = slice(0, wl.batch_size)
    model = nn.copy_model(ctx["model"])
    params = dict(nn.named_params(model))
    state = AdamState()
    with tracer.span("kernels"):
        for _ in range(KERNEL_REPEATS):
            with tracer.span("nn.forward_batch"):
                _, cache = nn.forward_batch(seq[batch], static[batch], model,
                                            want_cache=True)
            with tracer.span("nn.backward_batch"):
                grads = nn.backward_batch(model, cache, labels[batch])
            with tracer.span("adam.adam_step"):
                adam_step(params, grads, state)
        seq_va, static_va, y_va = ctx["val"]
        for _ in range(PREDICT_REPEATS):
            with tracer.span("nn.predict.val"):
                scores = nn.predict(ctx["model"], seq_va, static_va)
        for _ in range(KERNEL_REPEATS):
            with tracer.span("metrics.auc_oracle"):
                metrics.auc_oracle(scores, y_va)


def traced_run(wl, seed: int, out: Path, ledger) -> dict:
    # The first pass only warms the process (allocator, page cache); the
    # overhead compares the traced pass with the untraced one after it.
    tracer, clock = Tracer(), StageClock()
    pipeline(wl, seed, out / "warm", StageClock().span)
    ctx = pipeline(wl, seed, out / "traced", tracer.span)
    pipeline(wl, seed, out / "untraced", clock.span)
    ledger.attempted += 3 * len(bench.STAGES)
    base = out / "traced"
    bench.check_all(ledger, wl, base / "data", base / "work", ctx["counts"])

    rows = ingest_calls(ctx, tracer)
    kernel_calls(ctx, wl, tracer)
    startup = bench.measure_setup(ledger, out / "setup.log", CLI_LAUNCHES)
    (out / "trace.json").write_text(json.dumps(tracer.spans) + "\n")

    t = tracer
    forward_ms = t.median("nn.forward_batch") * 1e3
    backward_ms = t.median("nn.backward_batch") * 1e3
    adam_ms = t.median("adam.adam_step") * 1e3
    predict_val_ms = t.median("nn.predict.val") * 1e3
    auc_ms = t.median("metrics.auc_oracle") * 1e3
    batches = ctx["epochs"] * math.ceil(ctx["train"][2].size / wl.batch_size)
    train_s = t.total("training.train")
    drain_s = sum(t.median(f"tables.parse.{n}") for n in rows)
    traced_total = sum(t.total(stage) for stage in bench.STAGES)
    untraced_total = sum(clock.stage_s.values())
    m = {
        "synth.generate.s": (t.total("synth.generate"), "s"),
        "synth.inject_anomalies.s": (t.total("synth.inject_anomalies"), "s"),
        "synth.events": (ctx["synth_counts"]["events"], "count"),
        **{f"tables.{n}.rows_per_s": (rows[n] / t.median(f"tables.parse.{n}"), "rows/s")
           for n in rows},
        "tables.dimension.s": (t.total("tables.dimension"), "s"),
        "cohort.build.s": (t.total("cohort.build"), "s"),
        "featurize.collect.s": (t.total("featurize.collect"), "s"),
        "featurize.attribute.s": (t.median("featurize.collect_stay_events") - drain_s,
                                  "s"),
        "featurize.assemble.s": (t.total("featurize.assemble"), "s"),
        "featurize.write.s": (t.total("featurize.write"), "s"),
        "featurize.read.s": (statistics.mean(t.durations("featurize.read")), "s"),
        "featurize.events_read": (ctx["counts"]["events_read"], "count"),
        "featurize.events_matched": (ctx["counts"]["events_matched"], "count"),
        "nn.forward_train.ms": (forward_ms, "ms/batch"),
        "nn.backward.ms": (backward_ms, "ms/batch"),
        "nn.predict.ms_per_stay": (t.total("nn.predict") * 1e3 / ctx["n_stays"], "ms"),
        "adam.step.ms": (adam_ms, "ms"),
        "training.train.s": (train_s, "s"),
        "training.batches": (batches, "count"),
        "training.self.s": (train_s - batches * (forward_ms + backward_ms + adam_ms) / 1e3
                            - ctx["epochs"] * (predict_val_ms + auc_ms) / 1e3, "s"),
        "metrics.auc_oracle.ms": (auc_ms, "ms"),
        "metrics.evaluate_scores.ms": (t.total("metrics.evaluate_scores") * 1e3, "ms"),
        "baseline.train_lr.s": (t.total("baseline.train_lr"), "s"),
        "baseline.predict_lr.ms": (t.total("baseline.predict_lr") * 1e3, "ms"),
        **{f"stage.{name}.s": (clock.stage_s[name], "s") for name in bench.STAGES},
        "cli.startup.s": (statistics.median(startup) if startup else 0.0, "s"),
        "trace.overhead.s": (traced_total - untraced_total, "s"),
    }
    ledger.lines.append(f"traced total {traced_total:.4f} s, untraced total "
                        f"{untraced_total:.4f} s")
    ledger.lines += [f"sha256 {v} {k}" for k, v in
                     bench.hash_work(base / "work").items()]
    return m
