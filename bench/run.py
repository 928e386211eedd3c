"""Pipeline benchmark for icumort.

Runs one named workload through the five CLI stages
(synth -> cohort -> featurize -> train -> evaluate), each stage as its own
``python -m icumort.cli <stage>`` process started after the previous one
ends: a closed loop with one client. Every stage is timed from outside, the
outputs are checked by ``checks.py``, and the last line of standard output
is one JSON object with the metrics named in ``BENCHMARK.json``.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 60 --trace 0

``--trace 1`` makes the separate traced run instead (see ``traced.py``),
which reports the per-layer metrics. Run it from the repository root or
anywhere else; it reads ``src/`` and writes only under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REGISTRY = SRC / "icumort" / "data" / "item_registry.csv"

# One BLAS thread: a fixed thread count keeps the artifacts byte-identical
# between runs, and one thread leaves the stage process a single core to use.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# `--help` launches before every round, so that set-up is sampled over the
# whole run and not only in its first seconds.
SETUP_LAUNCHES = 2
STAGES = ("synth", "cohort", "featurize", "train", "evaluate")
CLEAN_RATES = {"celsius_rate": 0.0, "error_text_rate": 0.0,
               "duplicate_rate": 0.0, "missing_span_rate": 0.0}


@dataclass(frozen=True)
class Workload:
    patients: int
    epochs: int
    anomalies: bool  # default anomaly rates when true, all four 0 otherwise
    gzip: bool  # tables gzipped and plain CSVs deleted after synth
    signal: str = "temporal_trend"
    effect_size: float = 2.0
    mortality_rate: float = 0.3
    batch_size: int = 32
    hidden: int = 64

    @property
    def patience(self) -> int:
        # Never below the epoch cap, so every epoch runs whatever the loss does.
        return self.epochs

    def synth_args(self) -> list[str]:
        args = ["--synth-patients", str(self.patients), "--signal", self.signal,
                "--effect-size", str(self.effect_size),
                "--mortality-rate", str(self.mortality_rate)]
        if not self.anomalies:
            for key, value in CLEAN_RATES.items():
                args += ["--" + key.replace("_", "-"), str(value)]
        return args


WORKLOADS = {
    "reproduce": Workload(patients=250, epochs=2, anomalies=True, gzip=False),
    "train-heavy": Workload(patients=200, epochs=10, anomalies=False, gzip=False),
    "ingest-gz": Workload(patients=300, epochs=2, anomalies=False, gzip=True),
}


def stage_argv(wl: Workload, stage: str, seed: int, data: Path, work: Path
               ) -> list[str]:
    common = ["--seed", str(seed)]
    if stage == "synth":
        return ["synth", "--out", str(data), *common, *wl.synth_args()]
    if stage in ("cohort", "featurize"):
        return [stage, "--data", str(data), "--work", str(work), *common]
    if stage == "train":
        return ["train", "--work", str(work), *common,
                "--max-epochs", str(wl.epochs), "--patience", str(wl.patience),
                "--batch-size", str(wl.batch_size), "--hidden", str(wl.hidden)]
    return ["evaluate", "--work", str(work), *common]


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def launch(argv: list[str], log: Path) -> tuple[float, float, float, int]:
    """Run one CLI process to its end; (wall s, CPU s, peak RSS MB, exit code).

    CPU time and peak resident set are the child's own, from its ``wait4``
    rusage.
    """
    with open(log, "ab") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "icumort.cli", *argv],
                                cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def gzip_tables(data: Path) -> None:
    """Gzip every table the way MIMIC-III ships, then delete the plain CSVs."""
    for path in sorted(data.glob("*.csv")):
        with open(path, "rb") as src, open(f"{path}.gz", "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as dst:
            shutil.copyfileobj(src, dst, 1 << 20)
        path.unlink()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_synth(data: Path) -> dict[str, str]:
    return {f"data/{p.name}": sha256(p) for p in sorted(data.glob("*.csv"))}


def hash_work(work: Path) -> dict[str, str]:
    names = ("cohort.csv", "features_seq.csv", "features_static.csv",
             "lstm_checkpoint.bin", "metrics_report.csv")
    return {f"work/{n}": sha256(work / n) for n in names}


class Ledger:
    """Operations attempted and failed, and check results, for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.lines: list[str] = []

    def launched(self, code: int, what: str) -> bool:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.lines.append(f"failed {what}: exit {code}")
        return code == 0

    def checked(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.correct = False
            self.lines.append(f"check {'ok' if ok else 'FAIL'} {name} {detail}".rstrip())

    def run_check(self, name: str, fn, *args) -> None:
        """A check that raises instead of returning counts as failed."""
        try:
            self.checked(fn(*args))
        except Exception as exc:  # a broken artifact must not end the run
            self.checked([(name, False, f"{type(exc).__name__}: {exc}")])


def check_all(ledger: Ledger, wl: Workload, data: Path, work: Path,
              counts: dict) -> None:
    """Every output check on one finished pipeline run."""
    import checks  # imports numpy: only once the timed rounds are over

    registry = checks.registry_items(REGISTRY)
    try:
        tables = checks.load_tables(data)
    except Exception as exc:
        ledger.checked([("tables.readable", False, str(exc))])
        return
    cohort_rows = checks.read_cohort(work)
    ledger.run_check("synth", checks.check_synth, data, tables, registry,
                     not wl.anomalies)
    ledger.run_check("cohort", checks.check_cohort, tables, cohort_rows)
    ledger.run_check("featurize", checks.check_featurize, tables, cohort_rows,
                     counts, work, registry)
    ledger.run_check("evaluate", checks.check_evaluate, work,
                     wl.signal == "temporal_trend")
    if wl.gzip:
        ledger.run_check("ingest", checks.check_gzip_only, data)


def run_round(wl: Workload, seed: int, base: Path, ledger: Ledger
              ) -> dict | None:
    """One pass through the five stage processes; None if a stage failed."""
    shutil.rmtree(base, ignore_errors=True)
    data, work = base / "data", base / "work"
    work.mkdir(parents=True)
    wall, cpu, rss, hashes = {}, {}, {}, {}
    for stage in STAGES:
        t, c, mb, code = launch(stage_argv(wl, stage, seed, data, work),
                                base / "stages.log")
        if not ledger.launched(code, stage):
            return None
        wall[stage], cpu[stage], rss[stage] = t, c, mb
        if stage == "synth":
            hashes.update(hash_synth(data))
            if wl.gzip:
                gzip_tables(data)
    hashes.update(hash_work(work))
    return {"wall": wall, "cpu": cpu, "rss": rss, "hashes": hashes}


def measure_setup(ledger: Ledger, log: Path, launches: int) -> list[float]:
    """Start-up of one CLI process: interpreter, numpy, every module, parser."""
    times = []
    for _ in range(launches):
        t, _, _, code = launch(["--help"], log)
        if ledger.launched(code, "--help"):
            times.append(t)
    return times


def timed_run(wl: Workload, seed: int, seconds: float, out: Path,
              ledger: Ledger) -> dict:
    base = out / "run"
    setup: list[float] = []
    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        setup += measure_setup(ledger, out / "setup.log", SETUP_LAUNCHES)
        result = run_round(wl, seed, base, ledger)
        round_s = time.perf_counter() - round_started
        if result is None:  # a stage failed: no whole round to measure
            return {}
        rounds.append(result)
        if len(rounds) > 1:
            ledger.checked(
                (f"identical {k}", v == rounds[0]["hashes"].get(k), "")
                for k, v in result["hashes"].items())
        if time.perf_counter() - started + round_s > seconds:
            break
    if not setup:
        return {}
    # Checked after the last round, not between rounds: a child's peak RSS
    # includes the parent's at launch, so the parent stays small until then.
    counts = json.loads((base / "work" / "logs" / "featurize_log.json")
                        .read_text())["counts"]
    check_all(ledger, wl, base / "data", base / "work", counts)
    import checks

    report = checks.read_report(base / "work")
    med = statistics.median
    metrics = {
        "setup_s": (med(setup), "s"),
        "total_s": (med([sum(r["wall"].values()) for r in rounds]), "s"),
        "peak_rss_mb": (med([max(r["rss"].values()) for r in rounds]), "MB"),
        "featurize_rss_mb": (med([r["rss"]["featurize"] for r in rounds]), "MB"),
        "lstm_test_auc": (float(report[("LSTM", "test")]["auc"]), "auc"),
    }
    # Stage wall times are printed, not reported as metrics: on a shared
    # 2-vCPU host each has spread from run to run by more than 0.25 of its
    # median, the widest bound a metric may carry.
    ledger.lines.append(f"{len(rounds)} rounds; median stage wall s: " + " ".join(
        f"{st}={med([r['wall'][st] for r in rounds]):.4f}" for st in STAGES))
    for k, v in rounds[0]["hashes"].items():
        ledger.lines.append(f"sha256 {v} {k}")
    (out / "rounds.json").write_text(json.dumps(
        {"setup_s": setup, "rounds": rounds}, indent=1) + "\n")
    return metrics


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so a running stage is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "icumort" / "cli.py").is_file():
        print(f"error: no icumort sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported in this process
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    wl = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ledger = Ledger()
    if args.trace:
        import traced

        metrics = traced.traced_run(wl, args.seed, out, ledger)
    else:
        metrics = timed_run(wl, args.seed, args.seconds, out, ledger)
    env = environment()
    print(" ".join(f"{k}={v}" for k, v in env.items()),
          f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(json.dumps(asdict(wl)))
    for line in ledger.lines:
        print(line)
    if not metrics:
        ledger.correct = False
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(
        {**result, "environment": env, "workload": asdict(wl)}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
