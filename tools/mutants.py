"""Mutation audit: does every documented rule have a test that fails without it?

Each mutant breaks one rule that a module docstring or the command-line help
states, by replacing text in one source file. The runner copies the
repository's files that git does not ignore into ``<scratch>/tree``,
replacing any earlier copy, and checks that the unmutated copy passes the
tier-1 tests. Then it applies one mutant at a time, runs the tier-1 tests on
the copy (stopping at the first failure) and restores the file. A mutant is
"killed" when some test fails and "survived" when every test passes. The
repository itself is never edited.

    python tools/mutants.py /path/to/scratch            # every mutant
    python tools/mutants.py /path/to/scratch -k split   # names containing "split"

Exits 1 when a mutant survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# tests/test_mutants.py fails under every mutant, because a mutated text is
# no longer found; it checks this list, not the program, so it kills none.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/icumort
    edits: tuple[tuple[str, str], ...]  # (text, replacement), each found once


def _one(name: str, path: str, old: str, new: str) -> Mutant:
    return Mutant(name, path, ((old, new),))


MUTANTS = [
    # cohort: inclusion, first stay, age clamp, label, splits
    _one("cohort.age_at_least_16", "cohort.py",
         "return age_years >= MIN_AGE_YEARS", "return age_years > MIN_AGE_YEARS"),
    _one("cohort.stay_longer_than_48h", "cohort.py",
         "los > timedelta(hours=MIN_STAY_HOURS)",
         "los >= timedelta(hours=MIN_STAY_HOURS)"),
    _one("cohort.earliest_stay", "cohort.py",
         "(stay.intime, stay.icustay_id) < (cur.intime, cur.icustay_id)",
         "(stay.intime, stay.icustay_id) > (cur.intime, cur.icustay_id)"),
    _one("cohort.earliest_stay_tie_smaller_id", "cohort.py",
         "(stay.intime, stay.icustay_id) < (cur.intime, cur.icustay_id)",
         "(stay.intime, -stay.icustay_id) < (cur.intime, -cur.icustay_id)"),
    _one("cohort.clamp_above_89", "cohort.py",
         "if years > MAX_UNSHIFTED_AGE_YEARS:",
         "if years >= MAX_UNSHIFTED_AGE_YEARS:"),
    _one("cohort.clamp_to_91.4", "cohort.py",
         "SHIFTED_AGE_CLAMP = 91.4", "SHIFTED_AGE_CLAMP = 91.5"),
    _one("cohort.deathtime_wins_over_flag", "cohort.py",
         "    return admission.deathtime is not None\n",
         "    return admission.hospital_expire_flag == 1\n"),
    _one("cohort.val_size_floor", "cohort.py",
         "n_val = n // 5", "n_val = -(-n // 5)"),
    _one("cohort.test_size_floor", "cohort.py",
         "n_test = n // 5", "n_test = -(-n // 5)"),
    _one("cohort.icd9_bounds_inclusive", "cohort.py",
         "if lo <= value <= hi:", "if lo <= value < hi:"),
    # featurize: window, unit and sign rules, binning, imputation, scaling
    _one("featurize.window_starts_at_intime", "featurize.py",
         "0 <= minute < WINDOW_MINUTES", "0 < minute < WINDOW_MINUTES"),
    _one("featurize.window_ends_before_48h", "featurize.py",
         "0 <= minute < WINDOW_MINUTES", "0 <= minute <= WINDOW_MINUTES"),
    _one("featurize.celsius_to_fahrenheit", "featurize.py",
         "value * 9.0 / 5.0 + 32.0", "value * 9.0 / 5.0 + 31.0"),
    _one("featurize.irrigant_negative", "featurize.py",
         "                value = -value\n", "                value = value\n"),
    _one("featurize.urine_summed", "featurize.py",
         "(slot == URINE_SLOT) & (not literal_urine_pick)",
         "(slot == URINE_SLOT) & literal_urine_pick"),
    _one("featurize.gcs_nan_propagates", "featurize.py",
         "grid[:, 0] = grid[:, 13] + grid[:, 14] + grid[:, 15]",
         "grid[:, 0] = np.nansum(grid[:, 13:16], axis=1)"),
    _one("featurize.forward_fill_first", "featurize.py",
         "hours[np.maximum.accumulate(source), ", "hours[source, "),
    _one("featurize.train_only_statistics", "featurize.py",
         'splits[s.subject_id] == "train"', 'splits[s.subject_id] != "test"'),
    _one("featurize.sd_ddof_0", "featurize.py",
         "sds[c] = observed.std()", "sds[c] = observed.std(ddof=1)"),
    _one("featurize.sd_floor_1e-6", "featurize.py",
         "STANDARDIZE_EPS = 1e-6", "STANDARDIZE_EPS = 1e-3"),
    # metrics
    _one("metrics.threshold_inclusive", "metrics.py",
         "pred = scores >= threshold", "pred = scores > threshold"),
    _one("metrics.roc_tie_blocks", "metrics.py",
         "block_change = ranked[1:] != ranked[:-1]",
         "block_change = np.ones(ranked.size - 1, dtype=bool)"),
    _one("metrics.one_class_auc_nan", "metrics.py",
         'if _both_classes(labels_arr) else float("nan")',
         "if _both_classes(labels_arr) else 0.5"),
    # training and its configuration
    _one("training.early_stop_strict_improvement", "training.py",
         "value < self.best:", "value <= self.best:"),
    _one("training.patience_count", "training.py",
         "self.bad_epochs >= max(self.patience, 1)",
         "self.bad_epochs > max(self.patience, 1)"),
    _one("config.hidden_size_at_least_1", "config.py",
         "if self.hidden_size < 1:", "if self.hidden_size < 0:"),
    # tables: ids, row accounting, unread columns
    _one("tables.id_float_form_only_zeros", "tables.py",
         'if not dot or zeros.strip("0"):', "if not dot:"),
    _one("tables.dropped_rows_counted", "tables.py",
         "stats.rows_dropped += 1", "stats.rows_kept += 1"),
    Mutant("tables.unread_column_ignored", "tables.py", (
        ("class AdmissionRow:\n    hadm_id: int\n",
         "class AdmissionRow:\n    hadm_id: int\n"
         "    dischtime: Optional[datetime]\n"),
        ('AdmissionRow, (\n    ("hadm_id", _parse_int, True),\n',
         'AdmissionRow, (\n    ("hadm_id", _parse_int, True),\n'
         '    ("dischtime", parse_timestamp, False),\n'),
    )),
    Mutant("tables.cohort_reads_no_admittime", "tables.py", (
        ("class AdmissionRow:\n    hadm_id: int\n",
         "class AdmissionRow:\n    hadm_id: int\n    admittime: datetime\n"),
        ('AdmissionRow, (\n    ("hadm_id", _parse_int, True),\n',
         'AdmissionRow, (\n    ("hadm_id", _parse_int, True),\n'
         '    ("admittime", parse_timestamp, True),\n'),
    )),
    # nn: the initial weights
    _one("nn.init_keyed_by_name", "nn.py",
         "leading_uniforms(derive_seed(seed, name), arr.size)",
         "leading_uniforms(seed, arr.size)"),
    _one("nn.init_bound", "nn.py",
         "unit * (2 * bound) - bound", "unit * bound - bound"),
    # nn: backward's state rebuild from the cached gates
    _one("nn.rebuild_cs_starts_at_zero", "nn.py",
         "cs = np.zeros((t + 1, b, h))", "cs = np.ones((t + 1, b, h))"),
    _one("nn.rebuild_the_layer_below", "nn.py",
         "            _rebuild_states(cache.gates[-1], hs, cs, tanh_c)\n",
         "            _rebuild_states(cache.gates[0], hs, cs, tanh_c)\n"),
]


def copy_tree(dest: Path) -> None:
    """The repository's files that git does not ignore, as they are on
    disk, into dest."""
    shutil.rmtree(dest, ignore_errors=True)
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / rel, target)


def run_tests(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test or the last line of the output)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines() or [""]
    failed = [line.split()[1] for line in lines if line.startswith(
        ("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else lines[-1]


def mutated(text: str, mutant: Mutant) -> str:
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise SystemExit(f"error: {mutant.name}: {old!r} is not found "
                             f"exactly once in {mutant.path}")
        text = text.replace(old, new)
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scratch", type=Path,
                        help="directory for the copy, under tree/")
    parser.add_argument("-k", default="",
                        help="run only mutants whose name contains this")
    args = parser.parse_args(argv)
    selected = [m for m in MUTANTS if args.k in m.name]
    tree = args.scratch.resolve() / "tree"
    copy_tree(tree)
    for mutant in selected:  # every edit applies before any test runs
        mutated((tree / "src" / "icumort" / mutant.path).read_text(), mutant)
    passed, detail = run_tests(tree)
    if not passed:
        print(f"error: the unmutated copy fails: {detail}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in selected:
        path = tree / "src" / "icumort" / mutant.path
        started = time.monotonic()
        original = path.read_text()
        path.write_text(mutated(original, mutant))
        try:
            passed, detail = run_tests(tree)
        finally:
            path.write_text(original)
        survivors += passed
        print(f"{'survived' if passed else 'killed':8}  {mutant.name:40}  "
              f"{time.monotonic() - started:5.1f} s  "
              f"{'' if passed else detail}".rstrip(), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
