import argparse
import csv
import gzip
import hashlib
import json
import os
import random
import shutil
import struct
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from icumort import cli
from icumort.cli import main
from icumort.items import REGISTRY_PATH

_CLEAN = ["--celsius-rate", "0", "--error-text-rate", "0",
          "--duplicate-rate", "0", "--missing-span-rate", "0"]


def _log(work, stage):
    return json.loads((work / "logs" / f"{stage}_log.json").read_text())


def _child_env():
    """The environment of a child interpreter that imports this icumort."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cohort_log_counts_rows_of_every_dimension_table(tmp_path):
    data, work = tmp_path / "data", tmp_path / "work"
    assert main(["synth", "--out", str(data), "--seed", "3",
                 "--synth-patients", "30", *_CLEAN]) == 0
    stays_path = data / "ICUSTAYS.csv"
    stays_rows = len(stays_path.read_text().splitlines()) - 1
    with open(stays_path, "a") as fh:
        fh.write("999,10001,500000,not-an-id,synthetic,MICU,MICU,,,"
                 "2101-01-01 00:00:00,2101-01-05 00:00:00,4.0\n")

    assert main(["cohort", "--data", str(data), "--work", str(work),
                 "--seed", "3"]) == 0
    counts = _log(work, "cohort")["counts"]
    assert counts["icustays_rows_read"] == stays_rows + 1
    assert counts["icustays_rows_dropped"] == 1
    assert counts["stays_total"] == stays_rows
    for name in ("patients", "admissions", "diagnoses_icd", "services"):
        rows = len((data / f"{name.upper()}.csv").read_text().splitlines()) - 1
        assert counts[f"{name}_rows_read"] == rows
        assert counts[f"{name}_rows_dropped"] == 0


def test_unparseable_dischtime_keeps_its_admission(tmp_path):
    # The benchmark's reproduce data at seed 101; its cohort includes
    # admission 500001. No stage reads DISCHTIME, ADMITTIME or SUBJECT_ID.
    data, clean, work = tmp_path / "data", tmp_path / "clean", tmp_path / "work"
    assert main(["synth", "--out", str(data), "--seed", "101",
                 "--synth-patients", "250", "--signal", "temporal_trend",
                 "--effect-size", "2.0", "--mortality-rate", "0.3"]) == 0
    cohort_argv = ["cohort", "--data", str(data), "--seed", "101", "--work"]
    assert main([*cohort_argv, str(clean)]) == 0
    path = data / "ADMISSIONS.csv"
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    (row,) = [r for r in rows if r[header.index("HADM_ID")] == "500001"]
    for column in ("DISCHTIME", "ADMITTIME"):
        row[header.index(column)] = "2101-13-45 99:00:00"
    row[header.index("SUBJECT_ID")] = "x"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])

    assert main([*cohort_argv, str(work)]) == 0
    assert _log(work, "cohort")["counts"]["admissions_rows_dropped"] == 0
    assert ((work / "cohort.csv").read_bytes()
            == (clean / "cohort.csv").read_bytes())
    with open(work / "cohort.csv", newline="") as fh:
        assert "500001" in {r["hadm_id"] for r in csv.DictReader(fh)}


def test_evaluate_survives_a_one_class_test_split(tmp_path, capsys):
    # At this seed and size the 4-stay test split holds no death, while the
    # train and val splits hold both classes.
    out = tmp_path / "run"
    assert main(["run-all", "--out", str(out), "--seed", "1",
                 "--synth-patients", "30", "--max-epochs", "1", *_CLEAN]) == 0
    assert "warning: test split holds one class" in capsys.readouterr().err
    with open(out / "metrics_report.csv", newline="") as fh:
        rows = {(r["model"], r["split"]): r for r in csv.DictReader(fh)}
    assert len(rows) == 6
    for model in ("LSTM", "LogisticRegression"):
        test = rows[(model, "test")]
        assert (test["auc"], test["positives"]) == ("nan", "0")
        assert int(test["fp"]) + int(test["tn"]) == int(test["n"]) == 4
        assert rows[(model, "train")]["auc"] != "nan"
    for name in ("roc_lstm_test.csv", "roc_logreg_test.csv"):
        assert (out / name).read_text() == "fpr,tpr,threshold\n"
    log = _log(out, "evaluate")
    assert log["counts"]["LSTM_test_auc"] is None
    assert log["counts"]["LogisticRegression_test_auc"] is None
    assert isinstance(log["counts"]["LSTM_val_auc"], float)
    assert len(log["warnings"]) == 1


def test_train_rejects_a_death_free_train_split_before_training(
        tmp_path, capsys):
    # At this seed and size the train split holds no death.
    out = tmp_path / "run"
    assert main(["run-all", "--out", str(out), "--seed", "4",
                 "--synth-patients", "30", *_CLEAN]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "error: labels are single-class; cannot fit a classifier"]
    assert not (out / "lstm_checkpoint.bin").exists()
    assert not (out / "logreg_checkpoint.txt").exists()
    assert not (out / "logs" / "train_log.json").exists()


def test_evaluate_rejects_malformed_model_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run-all", "--out", str(out), "--seed", "3",
                 "--synth-patients", "30", "--max-epochs", "1", *_CLEAN]) == 0
    lstm, lr = out / "lstm_checkpoint.bin", out / "logreg_checkpoint.txt"
    lstm_bytes, lr_text = lstm.read_bytes(), lr.read_text()
    garbles = [
        (lstm, lstm_bytes[:7]),
        (lr, lr_text + "bias 1.0 2.0\n"),
        (lr, "".join("bias notanumber\n" if line.startswith("bias ") else line
                     for line in lr_text.splitlines(keepends=True))),
    ]
    for path, content in garbles:
        capsys.readouterr()
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main(["evaluate", "--work", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert path.name in err[0]
        lstm.write_bytes(lstm_bytes)
        lr.write_text(lr_text)
    assert main(["evaluate", "--work", str(out)]) == 0


# End-to-end promises of the CLI. Mortality 0.3 and a temporal signal keep
# both classes in every split of this 60-patient cohort.
_SEED = ["--seed", "7"]
_SYNTH_RUN = ["--synth-patients", "60", "--mortality-rate", "0.3",
              "--signal", "temporal_trend", "--effect-size", "2"]
_RUN = [*_SEED, *_SYNTH_RUN, "--max-epochs", "1"]

_ARTIFACTS = {
    *(f"data/{name}.csv" for name in (
        "ADMISSIONS", "CHARTEVENTS", "DIAGNOSES_ICD", "ICUSTAYS", "LABEVENTS",
        "OUTPUTEVENTS", "PATIENTS", "SERVICES")),
    "data/synth_manifest.json", "data/logs/synth_log.json",
    "cohort.csv", "features_seq.csv", "features_static.csv",
    "population_stats.json", "lstm_checkpoint.bin",
    "lstm_checkpoint.manifest.txt", "training_history.csv",
    "logreg_checkpoint.txt", "metrics_report.csv", "model_comparison.csv",
    "roc_lstm_test.csv", "roc_logreg_test.csv",
    *(f"logs/{stage}_log.json"
      for stage in ("cohort", "featurize", "train", "evaluate")),
}


def _tree(root):
    """Every file under root by relative path; stage logs without wall time."""
    files = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        content = path.read_bytes()
        if path.parent.name == "logs":
            content = json.loads(content)
            del content["wall_time_s"]
        files[path.relative_to(root).as_posix()] = content
    return files


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference") / "run"
    assert main(["run-all", "--out", str(out), *_RUN]) == 0
    return out


@pytest.fixture(scope="module")
def reference_run(reference_dir):
    return _tree(reference_dir)


def test_run_all_writes_every_documented_artifact(reference_run):
    assert set(reference_run) == _ARTIFACTS
    assert "warnings" not in reference_run["logs/evaluate_log.json"]
    for name, log in reference_run.items():
        if name.endswith("_log.json"):
            base = name.rsplit("logs/", 1)[0]
            for artifact in log["artifacts"]:
                assert base + artifact in reference_run


def test_run_all_equals_the_stages_run_one_by_one(reference_run, tmp_path):
    work = tmp_path / "run"
    data = work / "data"
    steps = [
        ["synth", "--out", str(data), *_SEED, *_SYNTH_RUN],
        ["cohort", "--data", str(data), "--work", str(work), *_SEED],
        ["featurize", "--data", str(data), "--work", str(work), *_SEED],
        ["train", "--work", str(work), *_SEED, "--max-epochs", "1"],
        ["evaluate", "--work", str(work), *_SEED],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    assert _tree(work) == reference_run


def test_a_second_run_gives_identical_bytes(reference_run, tmp_path):
    out = tmp_path / "run"
    assert main(["run-all", "--out", str(out), *_RUN]) == 0
    assert _tree(out) == reference_run


def test_recorded_configs_hold_only_options_and_the_seed(reference_run):
    # The seed a stage derives from --seed is the one recorded field that no
    # option sets under its own name.
    manifest = json.loads(reference_run["data/synth_manifest.json"])
    lines = reference_run["lstm_checkpoint.manifest.txt"].decode().splitlines()
    recorded = {
        "synth": set(manifest["config"]),
        "train": {line.split()[0].removeprefix("train.") for line in lines
                  if line.startswith("train.")},
    }
    for command, keys in recorded.items():
        options = {cli._OPTION_NAMES.get(key, key) for key in keys}
        assert "seed" in options
        assert options <= set(cli._COMMANDS[command].options), command


def test_config_file_values_match_flags_and_flags_win(reference_run, tmp_path):
    same = tmp_path / "same.cfg"
    same.write_text(
        "# the reference run's flags as key=value lines\n"
        "seed = 7\nsynth-patients = 60\nmax_epochs = 1\n\n"
        "mortality_rate=0.3\nsignal=temporal_trend\neffect_size=2\n"
        "literal_means = false\n"
    )
    assert main(["run-all", "--out", str(tmp_path / "same"),
                 "--config", str(same)]) == 0
    assert _tree(tmp_path / "same") == reference_run

    other = tmp_path / "other.cfg"
    other.write_text("seed=8\nsynth_patients=70\nmax_epochs=2\n"
                     "mortality_rate=0.2\nsignal=none\neffect_size=1\n")
    assert main(["run-all", "--out", str(tmp_path / "other"),
                 "--config", str(other), *_RUN]) == 0
    assert _tree(tmp_path / "other") == reference_run


# sha256 of the feature artifacts of the reference data in each featurize
# mode. A refactor of featurization keeps these bytes; a deliberate change
# to the features updates them.
_FEATURE_SHA256 = {
    "default": ([], (
        "56c44c969ac368397af97d742ae194f87ba77998b58299489e9dc026bebdf152",
        "ecda8d5957b53736d52aa27d7dfb7049977473569ced0930673799e91ebf051c",
        "1de0faa1f3990492b7152d706f2067a7a7704c2cd97cc865891612e52db84faf")),
    "literal": (["--literal-means", "--literal-urine-pick"], (
        "72f8a5ef51f4be145a63c846512e4ed785191f03911deef7ec6a72931129073b",
        "a4a2bcc1172a660d0b136af39fc92956f413248c1f1fdcb59f6e266db0be1f9e",
        "c0cbf1c8e691ef7dba0b4ccd3bafd82308e301e5f80e3b693fa902d577dff37f")),
    "no-standardize": (["--no-standardize"], (
        "4f34e3e1a6d9e5725a8e5d720a4b74bdbacc710db2a73bcf1b7fb340ea454f25",
        "95913d001b744a9f7710dfea6dfa7a49ee0326b4ac9d04d5f746579a790f02b3",
        "d69136c2cc92f512e456fd670ec9e07a95a9ed9f77c8239d1444db4d28534690")),
}


@pytest.mark.parametrize("mode", list(_FEATURE_SHA256))
def test_feature_artifacts_keep_their_bytes(reference_dir, tmp_path, mode):
    flags, pinned = _FEATURE_SHA256[mode]
    work = tmp_path / "run"
    work.mkdir()
    shutil.copy(reference_dir / "cohort.csv", work)
    assert main(["featurize", "--data", str(reference_dir / "data"),
                 "--work", str(work), *_SEED, *flags]) == 0
    names = ("features_seq.csv", "features_static.csv", "population_stats.json")
    assert tuple(hashlib.sha256((work / name).read_bytes()).hexdigest()
                 for name in names) == pinned


def _digests(root):
    """sha256 of every file under root; stage logs as sorted JSON."""
    return {name: hashlib.sha256(
                json.dumps(content, sort_keys=True).encode()
                if isinstance(content, dict) else content).hexdigest()
            for name, content in _tree(root).items()}


# sha256 of every artifact of the reference run-all in each featurize mode,
# with each stage log hashed as sorted JSON without its wall time. The run is
# a child process with one BLAS thread, as the bench runs it, because the
# model bytes depend on the BLAS; the pins were taken with numpy 2.4.6. A
# deliberate change to any of these bytes updates its pin.
_RUN_SHA256 = {
    "cohort.csv":
        "f9adad64261f78189f5f88b423ec93d81e8ba29e05f6b89679996c0eb61f0381",
    "data/ADMISSIONS.csv":
        "0c58b2e715fd6c1f4e6e8efd5f89c2533f6a9ceb619674eeacb7ba5e42e38c54",
    "data/CHARTEVENTS.csv":
        "6a598aeb187738b36043c6f52539a1bc116a9e3626c2983e78368ddebe9bec0a",
    "data/DIAGNOSES_ICD.csv":
        "fe141f7f50957a0f1befc223e4ff025fefd1fff44940cd325a9592630d4b793d",
    "data/ICUSTAYS.csv":
        "b70790a556b15503af66c632a3e993a7d3058e735965c4d57bc01c7f6055140d",
    "data/LABEVENTS.csv":
        "53ac3110fc1b30c6e9352ef41572fef375ae6820f76b83c464d6f77ab6d7c238",
    "data/OUTPUTEVENTS.csv":
        "d03c4f2186496d94006c093f9ea8a036e77de66d14895ea60ae80236b2456777",
    "data/PATIENTS.csv":
        "64e4d396095126b4d941774823cb1b63791a74a4ccd5f52025c18f340b3c472f",
    "data/SERVICES.csv":
        "e774a19ad6373dbb2e770bab232432c56029351ffdb797fb01cc4deac3183983",
    "data/logs/synth_log.json":
        "c7954bfe950e4657763dcfd538ebec3dfe952a2ea5a3ef3466adcc542508d919",
    "data/synth_manifest.json":
        "871b269351f645e2f302d4da48abd708760cc284b5b0621aa1c8c53113b42b96",
    "features_seq.csv":
        "56c44c969ac368397af97d742ae194f87ba77998b58299489e9dc026bebdf152",
    "features_static.csv":
        "ecda8d5957b53736d52aa27d7dfb7049977473569ced0930673799e91ebf051c",
    "logreg_checkpoint.txt":
        "206ea22fbe91c312bae7fea34f79c9cdf81b85e18063512e71b01f9b350a8d6b",
    "logs/cohort_log.json":
        "a72fff5e9590c7fb67ef9b134ef259517fb9c26ccc45977684397fbd30d7471a",
    "logs/evaluate_log.json":
        "cd73e5a4d70b4903b7892ba8a2c97968e5ac6c4b172d871d75c222ca64490c3b",
    "logs/featurize_log.json":
        "0e7879b6f0d9caaa1db826dd6313341f6b8dc4953581f00c4390798dd890feb6",
    "logs/train_log.json":
        "7239fcc9b87a3ce6e6a9a8ea2ce96d8df755ac6b5d5f3d4290887aacfadf0d6c",
    "lstm_checkpoint.bin":
        "eeb13f1ca1b6de779ff1dce60cdbd4535827cff9a623a3713a09f99807b80d72",
    "lstm_checkpoint.manifest.txt":
        "814a3679780d503e208950fc9634db1f9359558ece9324dc3fc92653163a90bf",
    "metrics_report.csv":
        "12e18172057ca786c1b5c0592d0e52bc6571a3a4963eacc6e692cd710ed8016e",
    "model_comparison.csv":
        "ee78f3a31a0426c422953a1e2c2a994c3f7f2c1ecc401fd2d583c3f276f7d80a",
    "population_stats.json":
        "1de0faa1f3990492b7152d706f2067a7a7704c2cd97cc865891612e52db84faf",
    "roc_logreg_test.csv":
        "644df96290f58a0d7642a047674032a80a2990e972909d1ed9a14fd6851a4ad2",
    "roc_lstm_test.csv":
        "898fadde3326846bc84182433e838b63499b020185d3380fd4b54d10bc7943d6",
    "training_history.csv":
        "894f3332da5b68cccc84c1366df9e375067c83721df1bf7e906e15704e6d0c39",
}


# The other two modes share the data tables, the cohort and the featurize
# log with the default run.
_LITERAL_RUN_SHA256 = {
    **_RUN_SHA256,
    "features_seq.csv":
        "72f8a5ef51f4be145a63c846512e4ed785191f03911deef7ec6a72931129073b",
    "features_static.csv":
        "a4a2bcc1172a660d0b136af39fc92956f413248c1f1fdcb59f6e266db0be1f9e",
    "logreg_checkpoint.txt":
        "4baeb6b73f6a27c2e1b91ab231c291f90958003391ca3dc69263ba2ad41c50c4",
    "logs/evaluate_log.json":
        "1b4b8d901e49e1e7602b537497482c1f642128183068fe28a39524ece778605d",
    "logs/train_log.json":
        "a23d1fce0b97ddbdbfe3e8e451d2f917acd413258edbab51120ca4768fe5fd83",
    "lstm_checkpoint.bin":
        "acc8de659af804d0073b7f370cd89252a26f2dea4c908740118ee18149ac8da6",
    "lstm_checkpoint.manifest.txt":
        "2c8c1dfd4a0580998cb04a3338b55a154f8d2db2cc0a5360d45675c20d38d452",
    "metrics_report.csv":
        "a21301954f8c9b2c4d022599e3c577ab0e689fb26bdb5abd4be8302966743f5d",
    "model_comparison.csv":
        "944e6056ffe7e99451020b4e485c7d1c04ff2ea7fadb275521bacfd6c3490c91",
    "population_stats.json":
        "c0cbf1c8e691ef7dba0b4ccd3bafd82308e301e5f80e3b693fa902d577dff37f",
    "roc_logreg_test.csv":
        "360437e7aaad3e969633912fb80c7d29f563071bbfae08f8ebbe19db99d807ee",
    "roc_lstm_test.csv":
        "7559d175323e9eac5684cf3ad1d3a3debcf9d1f0eb3fc76e8b1adb41a71a3cb8",
    "training_history.csv":
        "cfaf211c513f755882fc1fcd1aab6e5d8394a1ef49d396e7dd70c25460270209",
}
_NO_STANDARDIZE_RUN_SHA256 = {
    **_RUN_SHA256,
    "features_seq.csv":
        "4f34e3e1a6d9e5725a8e5d720a4b74bdbacc710db2a73bcf1b7fb340ea454f25",
    "features_static.csv":
        "95913d001b744a9f7710dfea6dfa7a49ee0326b4ac9d04d5f746579a790f02b3",
    "logreg_checkpoint.txt":
        "64d2b460ff22b4c5456e7fd52e290a8ac5eda2e72f022b54bcc2b5ed85d9349b",
    "logs/evaluate_log.json":
        "f15547c660b604faba85de4efc35d43aeda838c5fe0dd5fd8b3ebe9748a7cb3a",
    "logs/train_log.json":
        "032cf1fc8ae8a91113a866e762625923ba258cd0b032dd7ac6de12d0a914de59",
    "lstm_checkpoint.bin":
        "cdd26e36b4cd1e6ba0cecfcaafdd9ece64a18db68281386054aa4adb690988e8",
    "lstm_checkpoint.manifest.txt":
        "d8ac1895104e2d3718a9a785e62f0c3c5d6c5645fded2eefdf44d26df0e618ca",
    "metrics_report.csv":
        "063fe36c9ef605b4307240b91ec9650de2eae62b44cfc169588eed2aa062026d",
    "model_comparison.csv":
        "2e04b78adea32b2c46b8c496f1036c3b2bc3f39073d450ac8b6afe4aaa7190aa",
    "population_stats.json":
        "d69136c2cc92f512e456fd670ec9e07a95a9ed9f77c8239d1444db4d28534690",
    "roc_logreg_test.csv":
        "9b5ef4431895bea073ec492e6d6b39da0d373a477dc541ac6c6bcd424b69cd49",
    "roc_lstm_test.csv":
        "d2770ff5a5256713269e7bae88060c9e5348cf15953ccb6fa96598a64468793b",
    "training_history.csv":
        "c3fb141cd6680657c056086d13f921025eb0b92e2fa4d329775acfd3cc07685f",
}


@pytest.mark.parametrize("flags, pinned", [
    ([], _RUN_SHA256),
    (["--literal-means", "--literal-urine-pick"], _LITERAL_RUN_SHA256),
    (["--no-standardize"], _NO_STANDARDIZE_RUN_SHA256),
], ids=["default", "literal", "no-standardize"])
def test_run_all_artifacts_keep_their_bytes(tmp_path, flags, pinned):
    out = tmp_path / "run"
    env = dict(_child_env(), **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "-m", "icumort.cli", "run-all", "--out", str(out),
         *_RUN, *flags], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _digests(out) == pinned


_FEATURES = ("features_seq.csv", "features_static.csv", "population_stats.json")
_EVENT_TABLES = ("CHARTEVENTS", "LABEVENTS", "OUTPUTEVENTS")
_DIMENSION_TABLES = ("ADMISSIONS", "DIAGNOSES_ICD", "ICUSTAYS", "PATIENTS",
                     "SERVICES")


def _featurize_copy(data, work, *flags):
    """Cohort and featurize of a data directory; the featurize log."""
    dirs = ["--data", str(data), "--work", str(work), *_SEED]
    assert main(["cohort", *dirs]) == 0
    assert main(["featurize", *dirs, *flags]) == 0
    return _log(work, "featurize")


@pytest.mark.parametrize("tables", [_EVENT_TABLES, _DIMENSION_TABLES],
                         ids=["event", "dimension"])
def test_shuffled_table_rows_keep_the_features(reference_dir, reference_run,
                                               tmp_path, tables):
    # A urine cell adds its volumes in file order. Synth writes whole-number
    # volumes, which add exactly in any order. Only its jittered duplicates
    # carry a decimal, in a few cells, and the 9-digit artifact format hides
    # a last-bit change in their sums.
    data = tmp_path / "data"
    shutil.copytree(reference_dir / "data", data)
    rng = random.Random(0)
    for table in tables:
        path = data / f"{table}.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        path.write_text(header + "".join(rows))
    _featurize_copy(data, tmp_path / "run")
    for name in _FEATURES:
        assert (tmp_path / "run" / name).read_bytes() == reference_run[name]


def test_gzipped_tables_give_identical_artifacts(reference_dir, reference_run,
                                                 tmp_path):
    work = tmp_path / "run"
    data = work / "data"
    data.mkdir(parents=True)
    for path in (reference_dir / "data").glob("*.csv"):
        (data / f"{path.name}.gz").write_bytes(
            gzip.compress(path.read_bytes(), mtime=0))
    _featurize_copy(data, work)
    assert main(["train", "--work", str(work), *_SEED, "--max-epochs", "1"]) == 0
    assert main(["evaluate", "--work", str(work), *_SEED]) == 0
    got = {k: v for k, v in _tree(work).items() if not k.startswith("data/")}
    assert got == {k: v for k, v in reference_run.items()
                   if not k.startswith("data/")}


def test_reordered_registry_keeps_the_features(reference_dir, reference_run,
                                               tmp_path):
    header, *rows = REGISTRY_PATH.read_text().splitlines(keepends=True)
    rows = [row for row in rows if not row.startswith("#")]
    random.Random(0).shuffle(rows)
    registry = tmp_path / "registry.csv"
    registry.write_text(header + "".join(rows))
    _featurize_copy(reference_dir / "data", tmp_path / "run",
                    "--registry", str(registry))
    for name in _FEATURES:
        assert (tmp_path / "run" / name).read_bytes() == reference_run[name]


def test_rows_outside_the_cohort_change_only_their_count(reference_dir,
                                                         reference_run,
                                                         tmp_path):
    data = tmp_path / "data"
    shutil.copytree(reference_dir / "data", data)
    path = data / "CHARTEVENTS.csv"
    lines = path.read_text().splitlines(keepends=True)
    column = lines[0].rstrip("\n").split(",").index("ICUSTAY_ID")
    added = []
    for line in lines[1:11]:
        fields = line.split(",")
        fields[column] = "999999"  # no stay of the cohort
        added.append(",".join(fields))
    path.write_text("".join(lines + added))
    counts = _featurize_copy(data, tmp_path / "run")["counts"]
    for name in _FEATURES:
        assert (tmp_path / "run" / name).read_bytes() == reference_run[name]
    want = dict(reference_run["logs/featurize_log.json"]["counts"])
    want["events_read"] += len(added)
    want["events_outside_cohort"] += len(added)
    assert counts == want


_COMMON = {"seed": (int, None), "config": (str, None)}
_SYNTH = {
    "out": (str, None), "synth_patients": (int, None),
    "mortality_rate": (float, 0.115), "readmission_rate": (float, 0.15),
    "long_stay_frac": (float, 0.8), "age_min": (float, 14.0),
    "age_max": (float, 97.0), "signal": (str, "none"),
    "effect_size": (float, 1.0), "missing_scale": (float, 1.0),
    "celsius_rate": (float, 0.25), "error_text_rate": (float, 0.05),
    "duplicate_rate": (float, 0.05), "missing_span_rate": (float, 0.1),
}
_COHORT = {"data": (str, None), "work": (str, None),
           "icd9_flags": (str, None), "surgical_services": (str, None)}
_FEATURIZE = {"data": (str, None), "work": (str, None),
              "registry": (str, None), "literal_means": ("flag", False),
              "literal_urine_pick": ("flag", False),
              "no_standardize": ("flag", False)}
_TRAIN = {"work": (str, None), "hidden": (int, 64), "batch_size": (int, 32),
          "max_epochs": (int, 10), "patience": (int, 3),
          "learning_rate": (float, 0.001), "l2_lambda": (float, 1.0),
          "monitor": (str, "loss")}
_EVALUATE = {"work": (str, None), "threshold": (float, 0.5)}
_OPTIONS = {
    "synth": {**_COMMON, **_SYNTH},
    "describe": {"data": (str, None), "out": (str, None),
                 "config": (str, None)},
    "cohort": {**_COMMON, **_COHORT},
    "featurize": {**_COMMON, **_FEATURIZE},
    "train": {**_COMMON, **_TRAIN},
    "evaluate": {**_COMMON, **_EVALUATE},
    "run-all": {**_COMMON, **_SYNTH, **_COHORT, **_FEATURIZE, **_TRAIN,
                **_EVALUATE},
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_each_command_keeps_its_flags_types_and_defaults(command,
                                                         monkeypatch):
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(_OPTIONS)
    kinds = {}
    for action in commands.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert action.option_strings == ["--" + action.dest.replace("_", "-")]
        kinds[action.dest] = ("flag" if isinstance(action,
                                                   argparse._StoreTrueAction)
                              else action.type)
    seen = {}
    monkeypatch.setitem(cli._COMMANDS, command,
                        cli._COMMANDS[command]._replace(run=seen.update))
    assert main([command]) == 0
    assert {k: (kinds[k], seen[k]) for k in kinds} == _OPTIONS[command]
    assert set(seen) == set(kinds)


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("directory", "Is a directory"),
    (b"\xff\xfes\x00e\x00e\x00d\x00=\x007\x00\n\x00", "not UTF-8 text"),
    ("seed=seven\n", "line 1: bad value for seed"),
    ("# comment\nliteral_means=maybe\n", "line 2: bad value for literal_means"),
    ("seed=7\ncolour=red\n", "line 2: unknown key colour"),
    ("seed 7\n", "line 1: expected key=value"),
], ids=["missing", "directory", "utf-16", "bad-int", "bad-bool", "unknown-key",
        "no-equals"])
def test_bad_config_file_is_one_error_line(tmp_path, capsys, content,
                                           message):
    path = tmp_path / "run.cfg"
    if content == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert main(["featurize", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: config {path}")
    assert message in err[0]


_ARABIC_INDIC_DIGITS = str.maketrans("0123456789",
                                     "".join(map(chr, range(0x660, 0x66A))))


def _garbles(cell):
    """Text no artifact holds, in place of a cell: a word and, for a cell
    that starts with a digit, the cell with "_" after that digit and in
    Arabic-Indic digits, two spellings that int() and float() accept."""
    if not cell[:1].isdigit():
        return ["bogus"]
    return ["bogus", f"{cell[0]}_{cell[1:]}",
            cell.translate(_ARABIC_INDIC_DIGITS)]


@pytest.mark.parametrize("name, column, stages", [
    ("cohort.csv", "split", ["featurize"]),
    ("features_seq.csv", "stay_id", ["train", "evaluate"]),
    ("features_static.csv", "label", ["train", "evaluate"]),
    ("cohort.csv", "icustay_id", ["featurize"]),
    ("cohort.csv", "age_years", ["featurize"]),
    ("features_seq.csv", "hour", ["train", "evaluate"]),
    ("features_seq.csv", "c4", ["train", "evaluate"]),
    ("features_static.csv", "stay_id", ["train", "evaluate"]),
])
def test_garbled_artifact_is_one_error_line(reference_dir, tmp_path, capsys,
                                            name, column, stages):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    lines = (work / name).read_text().splitlines()
    cells = lines[1].split(",")
    index = lines[0].split(",").index(column)
    for garble in _garbles(cells[index]):
        garbled = [*cells[:index], garble, *cells[index + 1:]]
        (work / name).write_text(
            "\n".join([lines[0], ",".join(garbled), *lines[2:]]) + "\n")
        for stage in stages:
            capsys.readouterr()
            data = ["--data", str(work / "data")] if stage == "featurize" else []
            assert main([stage, *data, "--work", str(work), *_SEED]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1, (garble, err)
            assert err[0].startswith(f"error: {work / name}:2: "), (garble, err)


@pytest.mark.parametrize("new_stay_id, repeated", [
    (False, "icustay_id"), (True, "subject_id"),
], ids=["same-row", "same-patient"])
def test_repeated_cohort_row_is_one_error_line(reference_dir, tmp_path, capsys,
                                               new_stay_id, repeated):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    for name in ("features_seq.csv", "features_static.csv"):
        (work / name).unlink()
    lines = (work / "cohort.csv").read_text().splitlines()
    cells = lines[1].split(",")
    if new_stay_id:
        cells[0] = "999999999"
    lines.insert(2, ",".join(cells))
    (work / "cohort.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["featurize", "--data", str(work / "data"), "--work",
                 str(work), *_SEED]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    column = lines[0].split(",").index(repeated)
    assert err == [f"error: {work / 'cohort.csv'}:3: repeated {repeated} "
                   f"{cells[column]}"]
    assert not list(work.glob("features_*.csv"))


@pytest.mark.parametrize("age", ["nan", "inf"])
def test_non_finite_cohort_age_is_one_error_line(reference_dir, tmp_path,
                                                 capsys, age):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    for name in ("features_seq.csv", "features_static.csv"):
        (work / name).unlink()
    lines = (work / "cohort.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index("age_years")] = age
    lines[1] = ",".join(cells)
    (work / "cohort.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["featurize", "--data", str(work / "data"), "--work",
                 str(work), *_SEED]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {work / 'cohort.csv'}:2: age_years is not a "
                   f"finite number: '{age}'"]
    assert not list(work.glob("features_*.csv"))


@pytest.mark.parametrize("rates", [[], _CLEAN], ids=["anomalies", "clean"])
def test_synth_log_counts_the_data_rows_of_every_table(tmp_path, rates):
    data = tmp_path / "data"
    data.mkdir()
    (data / "NOTES.csv").write_text("a,b\n")  # not a generated table
    assert main(["synth", "--out", str(data), "--seed", "3",
                 "--synth-patients", "30", *rates]) == 0
    log = _log(data, "synth")
    counts = log["counts"]
    tables = sorted(p.name for p in data.glob("*.csv")
                    if p.name != "NOTES.csv")
    assert len(tables) == 8
    assert log["artifacts"] == [*tables, "synth_manifest.json"]
    assert "notes_rows" not in counts
    for name in tables:
        with open(data / name, newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        assert counts[f"{name[:-4].lower()}_rows"] == rows, name


@pytest.mark.parametrize("argv, message", [
    (["synth", "--effect-size", "nan"], "effect_size must be finite"),
    (["synth", "--age-min", "nan"], "age_min must be finite"),
    (["synth", "--age-max", "inf"], "age_max must be finite"),
    (["train", "--learning-rate", "-1"], "learning_rate must be finite and"),
    (["train", "--learning-rate", "nan"], "learning_rate must be finite and"),
    (["train", "--learning-rate", "inf"], "learning_rate must be finite and"),
    (["train", "--patience", "-1"], "patience must be nonnegative"),
    (["train", "--hidden", "0"], "hidden_size must be at least 1"),
    (["train", "--l2-lambda", "nan"], "l2_lambda must be finite and"),
    (["train", "--l2-lambda", "inf"], "l2_lambda must be finite and"),
    (["evaluate", "--threshold", "nan"], "threshold must be in [0, 1]"),
], ids=["effect-nan", "age-min-nan", "age-max-inf", "lr-negative", "lr-nan",
        "lr-inf", "patience-negative", "hidden-zero", "l2-nan", "l2-inf",
        "threshold-nan"])
def test_bad_config_value_is_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    where = (["--out", str(out), "--synth-patients", "20", "--signal",
              "temporal_trend"] if argv[0] == "synth" else ["--work", str(out)])
    assert main([*argv, *where, "--seed", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("with_data", [False, True], ids=["alone", "with-data"])
def test_run_all_synth_patients_zero_is_the_synth_error(reference_dir, tmp_path,
                                                        capsys, with_data):
    # 0 patients is given, not missing: run-all synthesizes and fails as
    # synth does, rather than asking for --data or running on the --data.
    out = tmp_path / "out"
    data = ["--data", str(reference_dir / "data")] if with_data else []
    assert main(["run-all", "--out", str(out), "--seed", "1",
                 "--synth-patients", "0", *data]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: n_patients must be at least 5"]
    assert not out.exists()


def _garble_labevents_bytes(data):
    with open(data / "LABEVENTS.csv", "ab") as fh:
        fh.write(b"\xff\xfe")


def _truncate_labevents_gz(data):
    raw = gzip.compress((data / "LABEVENTS.csv").read_bytes())
    (data / "LABEVENTS.csv.gz").write_bytes(raw[:len(raw) // 2])
    (data / "LABEVENTS.csv").unlink()


_REGISTRY_HEADER = "item_id,channel,subrole,source_table\n"
_ICD9_FLAGS = ("flag,code_lo,code_hi\naids,{},{}\nhem_malig,200,208.99\n"
               "metastatic,196,199.1\n")


@pytest.mark.parametrize("stage, garble, option, content, message", [
    ("featurize", _garble_labevents_bytes, None, None,
     "LABEVENTS.csv: not UTF-8 text"),
    ("featurize", _truncate_labevents_gz, None, None,
     "LABEVENTS.csv.gz: Compressed file ended"),
    ("featurize", None, "--registry",
     _REGISTRY_HEADER + "x1,HeartRate,plain,chartevents\n",
     "line 2: bad item id 'x1'"),
    ("featurize", None, "--registry",
     _REGISTRY_HEADER + "# a comment\n211,HeartRate\n",
     "line 3: expected 4 fields, found 2"),
    ("featurize", None, "--registry", None, "No such file or directory"),
    ("cohort", None, "--icd9-flags", None, "No such file or directory"),
    # A nan bound would never match a code, and an infinite one would leave
    # the range open-ended.
    ("cohort", None, "--icd9-flags", _ICD9_FLAGS.format("nan", "043"),
     "line 2: expected a flag and two numeric bounds"),
    ("cohort", None, "--icd9-flags", _ICD9_FLAGS.format("042", "inf"),
     "line 2: expected a flag and two numeric bounds"),
], ids=["labevents-not-utf8", "labevents-truncated-gz", "registry-bad-id",
        "registry-two-fields", "registry-missing", "icd9-flags-missing",
        "icd9-flags-nan-bound", "icd9-flags-inf-bound"])
def test_bad_raw_input_is_one_error_line(reference_dir, tmp_path, capsys,
                                         stage, garble, option, content,
                                         message):
    # A missing input file is an option naming a file that is not there.
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    if garble is not None:
        garble(work / "data")
    extra = []
    if option is not None:
        path = tmp_path / "input.csv"
        if content is not None:
            path.write_text(content)
        extra = [option, str(path)]
    assert main([stage, "--data", str(work / "data"), "--work", str(work),
                 *_SEED, *extra]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]


@pytest.mark.parametrize("command", ["synth", "describe", "cohort",
                                     "featurize"])
def test_unwritable_output_is_one_error_line(reference_dir, tmp_path, capsys,
                                             command):
    # describe writes a file into a missing directory; the others would
    # create their output directory where a regular file stands.
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    data = ["--data", str(reference_dir / "data")]
    argv, target = {
        "synth": (["--out", str(blocker), "--synth-patients", "20", *_SEED],
                  blocker),
        "describe": ([*data, "--out", str(tmp_path / "missing" / "d.txt")],
                     tmp_path / "missing" / "d.txt"),
        "cohort": ([*data, "--work", str(blocker), *_SEED], blocker),
        "featurize": ([*data, "--work", str(blocker), *_SEED], blocker),
    }[command]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {target}: ")
    assert blocker.read_text() == "kept\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["synth", "cohort", "featurize"])
def test_logs_that_is_a_file_is_one_error_line(reference_dir, tmp_path, capsys,
                                               command):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    shutil.rmtree(work / "logs")
    (work / "logs").write_text("kept\n")
    argv = {
        "synth": ["--out", str(work), "--synth-patients", "20"],
        "cohort": ["--data", str(work / "data"), "--work", str(work)],
        "featurize": ["--data", str(work / "data"), "--work", str(work)],
    }[command]
    capsys.readouterr()
    assert main([command, *argv, *_SEED]) == 2
    # cohort warns of the reference data's one expire flag disagreement.
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning: ")]
    assert err == [f"error: cannot write {work / 'logs'}: File exists"]
    assert (work / "logs").read_text() == "kept\n"


def test_infinite_event_value_counts_as_unparseable(reference_dir, tmp_path,
                                                    capsys):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    with open(work / "cohort.csv", newline="") as fh:
        intimes = {r["icustay_id"]: datetime.fromisoformat(r["intime"])
                   for r in csv.DictReader(fh)}
    path = work / "data" / "CHARTEVENTS.csv"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    stay, item, time, value, valuenum = (header.index(c) for c in (
        "ICUSTAY_ID", "ITEMID", "CHARTTIME", "VALUE", "VALUENUM"))
    # A heart-rate row inside its cohort stay's 48 h window.
    row = next(r for r in rows if r[item] in ("211", "220045")
               and r[stay] in intimes and r[valuenum]
               and timedelta(0) <= datetime.fromisoformat(r[time])
               - intimes[r[stay]] < timedelta(hours=47))
    row[value] = row[valuenum] = "inf"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])

    capsys.readouterr()
    assert main(["featurize", "--data", str(work / "data"), "--work",
                 str(work), *_SEED]) == 0
    assert capsys.readouterr().err == ""
    before = _log(reference_dir, "featurize")["counts"]
    after = _log(work, "featurize")["counts"]
    assert after == {**before,
                     "events_matched": before["events_matched"] - 1,
                     "events_unparseable_value":
                         before["events_unparseable_value"] + 1}


@pytest.mark.parametrize("stage, name", [
    ("cohort", "cohort.csv"),
    ("featurize", "features_seq.csv"),
    ("train", "lstm_checkpoint.bin"),
    ("evaluate", "metrics_report.csv"),
])
def test_output_that_is_a_directory_is_one_error_line(reference_dir, tmp_path,
                                                      capsys, stage, name):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    (work / name).unlink()
    (work / name).mkdir()
    data = ["--data", str(work / "data")] if stage in ("cohort",
                                                       "featurize") else []
    capsys.readouterr()
    assert main([stage, *data, "--work", str(work), *_SEED,
                 *(["--max-epochs", "1"] if stage == "train" else [])]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: cannot write {work / name}: Is a directory"]


@pytest.mark.parametrize("name", ["lstm_checkpoint.bin",
                                  "logreg_checkpoint.txt"])
def test_evaluate_reads_a_model_directory_as_one_error_line(
        reference_dir, tmp_path, capsys, name):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    (work / name).unlink()
    (work / name).mkdir()
    capsys.readouterr()
    assert main(["evaluate", "--work", str(work)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: cannot read {work / name}: Is a directory"]


def test_evaluate_rejects_a_nan_checkpoint_weight_as_one_error_line(
        reference_dir, tmp_path, capsys):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    path = work / "lstm_checkpoint.bin"
    blob = path.read_bytes()
    # The last 8 bytes hold the head bias.
    path.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
    capsys.readouterr()
    assert main(["evaluate", "--work", str(work)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {path}: head.b holds a non-finite value"]


@pytest.mark.parametrize("content", ["{not json", "[1, 2]", b"\xff\xfe{}", None])
def test_train_rejects_bad_population_stats_before_training(
        reference_dir, tmp_path, capsys, content):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    path = work / "population_stats.json"
    path.unlink()
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    (work / "lstm_checkpoint.bin").unlink()
    capsys.readouterr()
    assert main(["train", "--work", str(work), *_SEED,
                 "--max-epochs", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(path) in err[0]
    assert not (work / "lstm_checkpoint.bin").exists()


def test_closed_standard_output_is_one_error_line(reference_dir):
    # The reader closes its end of the pipe before the child writes, as
    # `| head -1` does once it has its line; a reader that closes after
    # reading one line races the child's last write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "icumort.cli", "describe",
             "--data", str(reference_dir / "data")],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(),
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "error: standard output was closed"]


def test_cohort_warns_of_expire_flag_disagreements(reference_dir, tmp_path,
                                                   capsys):
    # The reference data holds one admission whose expire flag contradicts
    # its death timestamp; flipping the flag of an agreeing one makes two.
    assert _log(reference_dir, "cohort")["counts"][
        "label_flag_disagreements"] == 1
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    with open(work / "cohort.csv", newline="") as fh:
        included = {r["hadm_id"] for r in csv.DictReader(fh)}
    path = work / "data" / "ADMISSIONS.csv"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    hadm, death, flag = (header.index(c) for c in (
        "HADM_ID", "DEATHTIME", "HOSPITAL_EXPIRE_FLAG"))
    row = next(r for r in rows if r[hadm] in included
               and r[flag] == ("1" if r[death] else "0"))
    row[flag] = "0" if row[death] else "1"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])

    capsys.readouterr()
    assert main(["cohort", "--data", str(work / "data"), "--work", str(work),
                 *_SEED]) == 0
    message = ("expire flag disagreed with death timestamp on 2 admission(s); "
               "timestamp took precedence")
    assert capsys.readouterr().err.splitlines() == [f"warning: {message}"]
    log = _log(work, "cohort")
    assert log["counts"]["label_flag_disagreements"] == 2
    assert log["warnings"] == [message]


def test_describe_prints_the_summary_and_out_writes_it(reference_dir,
                                                       tmp_path, capsys):
    data = reference_dir / "data"
    capsys.readouterr()
    assert main(["describe", "--data", str(data)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("patients: 60\n")
    assert "in_hospital_mortality_adult: " in printed
    out = tmp_path / "describe.txt"
    assert main(["describe", "--data", str(data), "--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    assert out.read_text() == printed  # the summary plus one newline


def test_describe_without_patients_table_is_one_error_line(reference_dir,
                                                           tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(reference_dir / "data", data)
    (data / "PATIENTS.csv").unlink()
    capsys.readouterr()
    assert main(["describe", "--data", str(data)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "PATIENTS.csv" in err[0]
    assert captured.out == ""


# Each stage process imports what it runs: the modules that must stay out of
# sys.modules after main() runs one command in a fresh interpreter.
_CHILD = """
import json, sys
from icumort.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""
_MODEL_MODULES = {f"icumort.{name}" for name in (
    "nn", "training", "baseline", "metrics", "adam")}
_STAGE_MODULES = {"icumort.synth", "icumort.cohort", "icumort.featurize",
                  "icumort.items", "icumort.tables", "icumort.seeding",
                  *_MODEL_MODULES}


@pytest.mark.parametrize("command, absent", [
    ("--help", {"numpy", *_STAGE_MODULES}),
    ("synth", _MODEL_MODULES),
    ("describe", _MODEL_MODULES),
    ("cohort", {"numpy", "numpy.random", "icumort.synth", "icumort.featurize",
                *_MODEL_MODULES}),
    ("featurize", {"numpy.random", "icumort.synth", *_MODEL_MODULES}),
    ("train", {"numpy.random", "icumort.synth"}),
    ("evaluate", {"numpy.random", "icumort.synth", "icumort.training"}),
])
def test_each_command_imports_only_what_it_runs(reference_dir, tmp_path,
                                                command, absent):
    work = tmp_path / "run"
    shutil.copytree(reference_dir, work)
    data = ["--data", str(work / "data")]
    argv = {
        "--help": [],
        "synth": ["--out", str(tmp_path / "new"), "--synth-patients", "20",
                  *_SEED],
        "describe": data,
        "cohort": [*data, "--work", str(work), *_SEED],
        "featurize": [*data, "--work", str(work), *_SEED],
        "train": ["--work", str(work), *_SEED, "--max-epochs", "1"],
        "evaluate": ["--work", str(work), *_SEED],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([command, *argv])],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "icumort.cli" in loaded
    assert loaded & absent == set()
