import csv
import hashlib
import io
from datetime import timedelta
from pathlib import Path

import pytest

from icumort import synth
from icumort.cohort import DAYS_PER_YEAR, build_cohort
from icumort.errors import ConfigError
from icumort.featurize import collect_stay_events
from icumort.items import CHANNELS, N_CHANNELS, load_registry
from icumort.synth import (
    SynthConfig,
    describe,
    generate,
    inject_anomalies,
    read_manifest,
    sample_patients,
)
from icumort.tables import (
    ADMISSIONS,
    DIAGNOSES_ICD,
    ICUSTAYS,
    PATIENTS,
    SERVICES,
    load_table,
    table_path,
)

EVENT_TABLES = ("CHARTEVENTS", "LABEVENTS", "OUTPUTEVENTS")
ALL_TABLES = EVENT_TABLES + (
    "PATIENTS", "ADMISSIONS", "ICUSTAYS", "DIAGNOSES_ICD", "SERVICES",
)


def _clean_config(n=60, seed=7, **kw):
    defaults = dict(celsius_rate=0.0, error_text_rate=0.0,
                    duplicate_rate=0.0, missing_span_rate=0.0)
    defaults.update(kw)
    return SynthConfig(n_patients=n, seed=seed, **defaults)


def _digest_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.glob("*.csv"))
    }


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_generation_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(_clean_config(n=100), a)
    generate(_clean_config(n=100), b)
    assert _digest_dir(a) == _digest_dir(b)


def test_different_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(_clean_config(n=30, seed=1), a)
    generate(_clean_config(n=30, seed=2), b)
    assert _digest_dir(a) != _digest_dir(b)


def test_all_tables_written_with_headers(tmp_path):
    generate(_clean_config(n=20), tmp_path)
    for name in ALL_TABLES:
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert rows[0].startswith("ROW_ID,")


def test_referential_integrity(tmp_path):
    generate(_clean_config(n=40), tmp_path)
    subjects = {r["SUBJECT_ID"] for r in _read_rows(tmp_path / "PATIENTS.csv")}
    hadms = {r["HADM_ID"] for r in _read_rows(tmp_path / "ADMISSIONS.csv")}
    stays = {r["ICUSTAY_ID"] for r in _read_rows(tmp_path / "ICUSTAYS.csv")}
    for name in EVENT_TABLES:
        for row in _read_rows(tmp_path / f"{name}.csv"):
            assert row["SUBJECT_ID"] in subjects
            assert row["HADM_ID"] in hadms
            if "ICUSTAY_ID" in row:
                assert row["ICUSTAY_ID"] in stays


def test_every_generated_item_id_is_in_the_registry(tmp_path):
    generate(_clean_config(n=40), tmp_path)
    registry = load_registry()
    for name in EVENT_TABLES:
        for row in _read_rows(tmp_path / f"{name}.csv"):
            assert int(row["ITEMID"]) in registry


def test_mortality_rate_realized_at_scale():
    profiles = sample_patients(SynthConfig(n_patients=10000, seed=7))
    rate = sum(p.label for p in profiles) / len(profiles)
    assert abs(rate - 0.115) < 0.01


def test_label_independent_of_features_in_none_mode():
    profiles = sample_patients(_clean_config(n=2000, signal_mode="none"))
    pos_age = [p.age for p in profiles if p.label]
    neg_age = [p.age for p in profiles if not p.label]
    assert abs(sum(pos_age) / len(pos_age) - sum(neg_age) / len(neg_age)) < 5.0


def test_static_only_mode_skews_positives_older():
    profiles = sample_patients(_clean_config(n=3000, signal_mode="static_only"))
    pos_age = [p.age for p in profiles if p.label]
    neg_age = [p.age for p in profiles if not p.label]
    assert sum(pos_age) / len(pos_age) > sum(neg_age) / len(neg_age) + 2.0


def test_long_stay_fraction_controls_cohort_size():
    lo = sample_patients(_clean_config(n=800, long_stay_frac=0.2))
    hi = sample_patients(_clean_config(n=800, long_stay_frac=0.9))

    def long_first(profiles):
        return sum(1 for p in profiles if p.stays[0].los_hours > 48)

    assert long_first(lo) < long_first(hi)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_patients=3, seed=1).validate()
    with pytest.raises(ConfigError):
        SynthConfig(n_patients=10, seed=1, mortality_rate=1.5).validate()
    with pytest.raises(ConfigError):
        SynthConfig(n_patients=10, seed=1, signal_mode="magic").validate()


class TestInjection:
    def test_celsius_rate_one_converts_every_temp_row(self, tmp_path):
        config = _clean_config(n=30, celsius_rate=1.0)
        generate(config, tmp_path)
        inject_anomalies(tmp_path, config)
        temps = [r for r in _read_rows(tmp_path / "CHARTEVENTS.csv")
                 if int(r["ITEMID"]) in (676, 678, 223761, 223762)]
        assert temps
        for row in temps:
            assert int(row["ITEMID"]) in (676, 223762)
            assert float(row["VALUENUM"]) < 50.0  # Celsius magnitudes

    def test_error_text_rate_roughly_realized(self, tmp_path):
        config = _clean_config(n=60, error_text_rate=0.1)
        generate(config, tmp_path)
        inject_anomalies(tmp_path, config)
        rows = _read_rows(tmp_path / "CHARTEVENTS.csv")
        frac = sum(r["VALUE"] == "ERROR" for r in rows) / len(rows)
        assert 0.06 < frac < 0.14

    def test_duplicate_manifest_points_at_real_duplicates(self, tmp_path):
        config = _clean_config(n=40, duplicate_rate=0.15)
        generate(config, tmp_path)
        injections = inject_anomalies(tmp_path, config)
        assert injections["duplicate"]
        # Each entry names a (stay, channel, hour) cell; the duplicated row
        # must exist in the rewritten file with a jittered value.
        by_table = {name: _read_rows(tmp_path / f"{name}.csv")
                    for name in EVENT_TABLES}
        entry = injections["duplicate"][0]
        rows = by_table[entry["table"]]
        base = [r for r in rows if int(r["ROW_ID"]) == entry["row_id"]]
        assert base
        twins = [r for r in rows
                 if r["CHARTTIME"][:14] == base[0]["CHARTTIME"][:14]
                 and r.get("ICUSTAY_ID") == base[0].get("ICUSTAY_ID")
                 and r["ITEMID"] == base[0]["ITEMID"]]
        assert len(twins) >= 2

    def test_manifest_written_and_merged(self, tmp_path):
        config = _clean_config(n=30, celsius_rate=0.5, missing_span_rate=0.3)
        generate(config, tmp_path)
        inject_anomalies(tmp_path, config)
        manifest = read_manifest(tmp_path)
        assert manifest["config"]["n_patients"] == 30
        assert set(manifest["injections"]) == {
            "celsius", "error_text", "duplicate", "missing_span",
        }

    def test_manifest_of_another_config_is_rejected(self, tmp_path):
        generate(_clean_config(n=20, celsius_rate=0.5), tmp_path)
        with pytest.raises(ConfigError, match="another synth config"):
            inject_anomalies(tmp_path, _clean_config(n=20, celsius_rate=0.4))

    def test_injection_deterministic(self, tmp_path):
        config = _clean_config(n=30, celsius_rate=0.4, error_text_rate=0.05,
                               duplicate_rate=0.05, missing_span_rate=0.2)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            generate(config, d)
            inject_anomalies(d, config)
        assert _digest_dir(a) == _digest_dir(b)


class TestDescribe:
    def _write(self, path: Path, name: str, header: str, rows: list[str]):
        (path / f"{name}.csv").write_text(
            "\n".join([header] + rows) + "\n"
        )

    def test_hand_computed_three_patient_fixture(self, tmp_path):
        # Patient 1: adult (50y), one 3-day stay, survives.
        # Patient 2: adult (80y), a 2-hour stay then a 5-day stay, dies.
        # Patient 3: child (10y), one 2-day stay.
        self._write(
            tmp_path, "PATIENTS", "ROW_ID,SUBJECT_ID,DOB",
            [
                "1,1,2051-01-01 00:00:00",
                "2,2,2021-01-01 00:00:00",
                "3,3,2091-01-01 00:00:00",
            ],
        )
        self._write(
            tmp_path, "ADMISSIONS",
            "ROW_ID,SUBJECT_ID,HADM_ID,ADMITTIME,ADMISSION_TYPE,DEATHTIME",
            [
                "1,1,10,2101-01-01 00:00:00,EMERGENCY,",
                "2,2,20,2101-01-01 00:00:00,EMERGENCY,2101-01-20 00:00:00",
                "3,3,30,2101-01-01 00:00:00,EMERGENCY,",
            ],
        )
        self._write(
            tmp_path, "ICUSTAYS",
            "ROW_ID,SUBJECT_ID,HADM_ID,ICUSTAY_ID,INTIME,OUTTIME",
            [
                "1,1,10,100,2101-01-01 00:00:00,2101-01-04 00:00:00",
                "2,2,20,200,2101-01-01 00:00:00,2101-01-01 02:00:00",
                "3,2,20,201,2101-01-02 00:00:00,2101-01-07 00:00:00",
                "4,3,30,300,2101-01-01 00:00:00,2101-01-03 00:00:00",
            ],
        )
        s = describe(tmp_path)
        assert s.patients == 3
        assert s.adult_patients == 2
        assert s.median_age_adult == pytest.approx(65.0, abs=0.1)
        assert s.mortality_adult == 0.5
        assert s.admissions == 3
        assert s.icu_stays == 4
        assert s.icu_stays_adult == 3
        assert s.long_icu_stays_adult == 2  # the 2h stay is not long
        assert s.first_long_icu_stays_adult == 2
        assert s.avg_los_long_days == pytest.approx(4.0, abs=1e-9)
        assert s.avg_los_days == pytest.approx((3 + 5 + 2 / 24) / 3, abs=1e-9)
        assert s.avg_los_first_long_days == pytest.approx(4.0, abs=1e-9)

    def test_empty_tables_warn(self, tmp_path):
        self._write(tmp_path, "PATIENTS", "ROW_ID,SUBJECT_ID,DOB", [])
        self._write(tmp_path, "ADMISSIONS",
                    "ROW_ID,SUBJECT_ID,HADM_ID,ADMITTIME,ADMISSION_TYPE", [])
        self._write(tmp_path, "ICUSTAYS",
                    "ROW_ID,SUBJECT_ID,HADM_ID,ICUSTAY_ID,INTIME,OUTTIME", [])
        s = describe(tmp_path)
        assert s.patients == 0
        assert s.warning
        assert "0" in s.to_text()

    def test_describe_runs_on_generated_data(self, tmp_path):
        generate(_clean_config(n=50), tmp_path)
        s = describe(tmp_path)
        assert s.patients == 50
        assert 0 < s.adult_patients <= 50
        assert s.icu_stays >= 50
        text = s.to_text()
        assert "adult_patients" in text


# sha256 of everything generate writes for one small config at the default
# anomaly rates. Speed-ups must keep these bytes; a deliberate change to the
# generated data updates them.
_PINNED_SHA256 = {
    "ADMISSIONS.csv": "e86c898be74d4988a5fcde12d8ea7abca916630bd0793057be4fc01d18ec984e",
    "CHARTEVENTS.csv": "80c88dd2033466024a27e37d798564e1663610da1a26a969acc4fac921464f9a",
    "DIAGNOSES_ICD.csv": "665651250b2530bdb4abcc9658d14df3e8a869cb7fef588117e75a0a16b58497",
    "ICUSTAYS.csv": "bd786e20480152dcd27139d0a34e64e2d9125aeb16848950e401fa7041a837c1",
    "LABEVENTS.csv": "6a8145e8dfba7e86fcc7e4e91017e070879fa41f8c85c371f8903c7646f3ff13",
    "OUTPUTEVENTS.csv": "e63ea59195ddb80b4cd6e97c3961158f97d2ad92f6d44651956b2cc7d0c79998",
    "PATIENTS.csv": "1a661a7fe64a03af298541d1e83067f2342d1b1e2f535a5a84423e372ee44a92",
    "SERVICES.csv": "d25e26b0b25b256cec3f3027be558c581777b099a552c02fe9f100609298c942",
    "synth_manifest.json": "3c2566a08ec6ed1f1545eede717d94f74245fde91b0781a9503b4be0691ef298",
}


def test_generated_and_injected_bytes_are_pinned(tmp_path):
    config = SynthConfig(n_patients=40, seed=11)
    generate(config, tmp_path)
    injections = inject_anomalies(tmp_path, config)
    assert all(injections.values())  # every anomaly kind is exercised
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == _PINNED_SHA256


def _trend_config(**rates):
    return SynthConfig(n_patients=60, seed=5, signal_mode="temporal_trend",
                       effect_size=2.0, mortality_rate=0.3,
                       readmission_rate=0.6, **rates)


_CLEAN_RATES = dict(celsius_rate=0.0, error_text_rate=0.0,
                    duplicate_rate=0.0, missing_span_rate=0.0)
_SHARED_TREND_SHA256 = {
    "ADMISSIONS.csv": "bd93fc5b1a89a392bbe24514ef5b1dde402ade8e12525ea282dcd91601af7e15",
    "DIAGNOSES_ICD.csv": "8eb6e861aa18891a48e35180be0254e945944b9dc86ddf3e3eacca1955e389fe",
    "ICUSTAYS.csv": "6af1f994270dd86d4619926bdfac4aaa73646f5f9920811da49a8072aa9f9049",
    "PATIENTS.csv": "9f00db71bcbbe8686a4fe095174a7a2f1f99bbf7f77e6c7b999920e0cde83f5e",
    "SERVICES.csv": "4f79fae393aa15dc5dd5db575fc2fddd5bde21f33d5b15e8445d2418a851224f",
}
# The same trend config, once clean and once at the default anomaly rates:
# readmissions, the trend ramp, irrigant pairs, pre-admission labs and every
# injection kind all occur in it.
_TREND_SHA256 = {
    "clean": {
        **_SHARED_TREND_SHA256,
        "CHARTEVENTS.csv": "c5a4fe6acc79d2c3d5ea233e2d3cb32a3b886fe97cb23e6d8020303136817852",
        "LABEVENTS.csv": "5ac5fcac367eca4907e915b1ecce094b7441f4f5b102c0e5db4af949c8ca2cfb",
        "OUTPUTEVENTS.csv": "cc7f2738055077a3ee6975625224453b9d38dec877d0698ebeae29559c5d63fb",
        "synth_manifest.json": "1c308c8d889466d64ac14891df1f66c3cb4d279dd7f26d993b8339fc5a4dd951",
    },
    "injected": {
        **_SHARED_TREND_SHA256,
        "CHARTEVENTS.csv": "41d01adfe75e33fed7ae4f6eea3ac4c0067e30369fde93c9f14f984f5b8c8288",
        "LABEVENTS.csv": "6669743d0cac307cd5f02cf8b70c0e6d5f1a95e7d3aefd38132f3590060c3a71",
        "OUTPUTEVENTS.csv": "e37100b24786862e0b2cef60414147d04c12c6510aa785dd33f54eec4069d3f3",
        "synth_manifest.json": "b9cb84f78c56bd94097a6e6ce94ac7192b1bce62e37b55923d7d18b2e090c5db",
    },
}


@pytest.mark.parametrize("variant", sorted(_TREND_SHA256))
def test_trend_config_bytes_are_pinned(tmp_path, variant):
    if variant == "clean":
        generate(_trend_config(**_CLEAN_RATES), tmp_path)
    else:
        config = _trend_config()
        generate(config, tmp_path)
        assert all(inject_anomalies(tmp_path, config).values())
    stays = _read_rows(tmp_path / "ICUSTAYS.csv")
    assert len({r["SUBJECT_ID"] for r in stays}) < len(stays)  # readmissions
    outputs = {r["ITEMID"] for r in _read_rows(tmp_path / "OUTPUTEVENTS.csv")}
    assert {"227488", "227489"} <= outputs  # irrigant pairs
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == _TREND_SHA256[variant]


@pytest.mark.parametrize("inject", [False, True], ids=["clean", "injected"])
def test_no_generated_field_needs_quoting(tmp_path, inject):
    config = _trend_config(**({} if inject else _CLEAN_RATES))
    generate(config, tmp_path)
    if inject:
        inject_anomalies(tmp_path, config)
    for name in ALL_TABLES:
        path = tmp_path / f"{name}.csv"
        with open(path, newline="") as src:
            rows = list(csv.reader(src))
        out = io.StringIO(newline="")
        csv.writer(out, lineterminator="\n").writerows(rows)
        assert out.getvalue().encode() == path.read_bytes(), name


def _readmission_patients(real_sample_patients):
    """Patient 10001 aged 50, with a 49.5 h first stay and, 6 h after it, a
    30 h second stay; every stay id renumbered in emission order."""
    def sample(config):
        profiles = real_sample_patients(config)
        first = profiles[0]
        intime = first.stays[0].intime
        first.age = 50.0
        first.dob = intime - timedelta(days=50.0 * DAYS_PER_YEAR)
        first.stays = [synth._StaySpec(0, intime, 49.5),
                       synth._StaySpec(0, intime + timedelta(hours=55.5), 30.0)]
        stays = [stay for p in profiles for stay in p.stays]
        for stay_id, stay in enumerate(stays, start=200001):
            stay.icustay_id = stay_id
        return profiles
    return sample


def _channel(slot: int) -> int:
    """The channel of a matched-event slot: coma-score parts are channel 0."""
    return slot if slot < N_CHANNELS else 0


# The value to write so that collection's unit and sign rules give back v.
_UNDO_VALUE_RULE = {"temp_c": lambda v: (v - 32) * 5 / 9,
                    "urine_in_irrigant": lambda v: -v}


def _featurize_attribution(data_dir: Path, entries, scratch: Path):
    """(stay, channel, hour) that featurization gives each (table, row id).

    The rows named by ``entries`` are copied alone into ``scratch``, each
    with its index as its collected value, and run through
    ``collect_stay_events``; a row it does not attribute is absent from the
    result.
    """
    marker = {key: i for i, key in enumerate(sorted(set(entries)))}
    registry = load_registry()
    scratch.mkdir()
    for name in EVENT_TABLES:
        with open(data_dir / f"{name}.csv", newline="") as src, \
                open(scratch / f"{name}.csv", "w", newline="") as dst:
            reader = csv.DictReader(src)
            writer = csv.DictWriter(dst, reader.fieldnames)
            writer.writeheader()
            for row in reader:
                i = marker.get((name, int(row["ROW_ID"])))
                if i is not None:
                    subrole = registry[int(row["ITEMID"])].subrole
                    row["VALUE"] = str(_UNDO_VALUE_RULE.get(subrole, int)(i))
                    if "VALUENUM" in row:
                        row["VALUENUM"] = row["VALUE"]
                    writer.writerow(row)
    found, _ = collect_stay_events(scratch, _cohort_of(data_dir), registry)
    keys = {i: key for key, i in marker.items()}
    return {keys[round(value)]: (stay, _channel(slot), minute // 60)
            for stay, slot, minute, value in zip(*found)}


def _cohort_of(data_dir: Path):
    loaded = [load_table(table_path(data_dir, name), schema)[0]
              for name, schema in (("icustays", ICUSTAYS), ("patients", PATIENTS),
                                   ("admissions", ADMISSIONS),
                                   ("diagnoses_icd", DIAGNOSES_ICD),
                                   ("services", SERVICES))]
    return build_cohort(*loaded)[0]


_READMISSION_RATES = dict(celsius_rate=0.0, error_text_rate=0.0,
                          duplicate_rate=1.0, missing_span_rate=0.0)


@pytest.mark.parametrize("fixture", ["trend", "readmission"])
def test_every_manifest_entry_matches_featurize(tmp_path, monkeypatch,
                                                fixture):
    if fixture == "trend":
        config = _trend_config()
    else:
        monkeypatch.setattr(synth, "sample_patients",
                            _readmission_patients(synth.sample_patients))
        config = SynthConfig(n_patients=5, seed=15, **_READMISSION_RATES)
    data = tmp_path / "data"
    generate(config, data)
    injections = inject_anomalies(data, config)
    temp_f = CHANNELS.index("TempF")
    cells = [((e["table"], e["row_id"]),
              (e["stay"], e.get("channel", temp_f), e["hour"]))
             for kind in ("celsius", "error_text", "duplicate")
             for e in injections[kind]]
    assert cells
    attributed = _featurize_attribution(data, [key for key, _ in cells],
                                        tmp_path / "rows")
    for key, cell in cells:
        assert attributed.get(key) == cell, key
    if fixture == "readmission":  # a second stay's lab, through hadm_id
        assert (("LABEVENTS", 54), (200001, 9, 45)) in cells

    events, _ = collect_stay_events(data, _cohort_of(data), load_registry())
    for span in injections["missing_span"]:
        assert span["removed"] > 0
        lo = span["start_hour"] * 60
        hi = lo + span["length"] * 60
        minutes = [m for stay, slot, m in zip(events.stay, events.slot,
                                              events.minute)
                   if (stay, _channel(slot)) == (span["stay"], span["channel"])]
        assert not [m for m in minutes if lo <= m < hi], span
    if fixture == "trend":
        assert injections["missing_span"]
