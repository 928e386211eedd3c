"""Self-check of the benchmark at a tiny size; asserts no timing.

1. Runs the benchmark's entry point, timed and traced, on a tiny workload
   and checks the form of the last output line against ``BENCHMARK.json``.
2. Corrupts a copy of the artifacts in three ways and shows that the check
   meant to catch each one fires:
   a flipped label in ``cohort.csv``, a perturbed weight in
   ``lstm_checkpoint.bin`` and a missing hour row in ``features_seq.csv``.

    python3 bench/selfcheck.py

Exits 0 when every assertion holds; takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = run.Workload(patients=100, epochs=1, anomalies=True, gzip=False)
SEED = 5


def last_json_line(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    assert code == 0, f"exit {code}"
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_form(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(names), \
        set(result["metrics"]) ^ set(names)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, metric
        assert metric["unit"] == names[name], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def failed_checks(data: Path, work: Path) -> set[str]:
    ledger = run.Ledger()
    counts = json.loads((work / "logs" / "featurize_log.json").read_text())["counts"]
    run.check_all(ledger, TINY, data, work, counts)
    return {line.split()[2] for line in ledger.lines if line.startswith("check FAIL")}


def corrupt_cohort_label(work: Path) -> None:
    lines = (work / "cohort.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index("label")
    cells[col] = "0" if cells[col] == "1" else "1"
    lines[1] = ",".join(cells)
    (work / "cohort.csv").write_text("\n".join(lines) + "\n")


def corrupt_checkpoint_weight(work: Path) -> None:
    path = work / "lstm_checkpoint.bin"
    data = bytearray(path.read_bytes())
    offset = 5 + 4 + 8  # magic, hidden size, shape of layer1.w_x
    (value,) = struct.unpack_from("<d", data, offset)
    struct.pack_into("<d", data, offset, value + 0.5)
    path.write_bytes(bytes(data))


def drop_hour_row(work: Path) -> None:
    path = work / "features_seq.csv"
    lines = path.read_text().splitlines()
    del lines[1 + 17]  # hour 17 of the first stay
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "cohort.stays_and_labels": corrupt_cohort_label,
    "evaluate.lstm_test_scores": corrupt_checkpoint_weight,
    "featurize.48_finite_hours_per_stay": drop_hour_row,
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS["reproduce"] = TINY
    argv = ["--workload", "reproduce", "--seed", str(SEED), "--seconds", "0"]
    check_form(last_json_line([*argv, "--trace", "1"]), spec["per_layer"])
    check_form(last_json_line([*argv, "--trace", "0"]), spec["end_to_end"])
    print("selfcheck: output form matches BENCHMARK.json, timed and traced")

    clean = run.OUT / "reproduce" / "run"
    assert not failed_checks(clean / "data", clean / "work"), "clean run fails"
    for expected, corrupt in CORRUPTIONS.items():
        copy = run.OUT / "selfcheck" / expected
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(clean, copy)
        corrupt(copy / "work")
        failed = failed_checks(copy / "data", copy / "work")
        assert expected in failed, f"{corrupt.__name__}: failed only {failed}"
        print(f"selfcheck: {corrupt.__name__} makes {expected} fail "
              f"(with {sorted(failed - {expected})})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
