import csv
import json

from icumort.cli import main

_CLEAN = ["--celsius-rate", "0", "--error-text-rate", "0",
          "--duplicate-rate", "0", "--missing-span-rate", "0"]


def _log(work, stage):
    return json.loads((work / "logs" / f"{stage}_log.json").read_text())


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
