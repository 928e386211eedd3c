import re
from datetime import datetime, timedelta

import pytest

from icumort.cohort import (
    MEDICAL,
    CohortStay,
    SCHEDULED_SURGICAL,
    UNSCHEDULED_SURGICAL,
    admission_category,
    apply_inclusion,
    build_cohort,
    compute_age,
    comorbidity_flags,
    first_stay_per_patient,
    icd9_numeric,
    label_disagrees,
    label_mortality,
    load_icd9_flags,
    read_cohort_csv,
    split_dataset,
    write_cohort_csv,
)
from icumort.errors import ConfigError, DataError
from icumort.tables import AdmissionRow, PatientRow, StayRow

T0 = datetime(2101, 1, 1)


def stay(subject, stay_id, intime, los_hours, hadm=None):
    return StayRow(
        subject_id=subject,
        hadm_id=hadm if hadm is not None else subject * 10,
        icustay_id=stay_id,
        intime=intime,
        outtime=intime + timedelta(hours=los_hours),
    )


def admission(subject, hadm, admission_type="EMERGENCY", deathtime=None,
              flag=None):
    return AdmissionRow(
        subject_id=subject,
        hadm_id=hadm,
        admittime=T0 - timedelta(hours=4),
        dischtime=T0 + timedelta(days=10),
        deathtime=deathtime,
        admission_type=admission_type,
        hospital_expire_flag=flag,
    )


class TestFirstStay:
    def test_keeps_earliest_intime(self):
        stays = [
            stay(1, 11, T0 + timedelta(hours=100), 60),
            stay(1, 12, T0, 60),
        ]
        kept = first_stay_per_patient(stays)
        assert [s.icustay_id for s in kept] == [12]

    def test_single_stay_unchanged(self):
        stays = [stay(1, 11, T0, 60)]
        assert first_stay_per_patient(stays) == stays

    def test_tie_on_intime_keeps_smaller_id(self):
        stays = [stay(1, 7, T0, 60), stay(1, 3, T0, 60)]
        kept = first_stay_per_patient(stays)
        assert kept[0].icustay_id == 3


class TestComputeAge:
    def test_plain_arithmetic(self):
        age = compute_age(datetime(2000, 1, 1), datetime(2065, 1, 1))
        assert abs(age - 65.0) < 0.01

    def test_shifted_dob_clamps(self):
        dob = datetime(2101, 1, 1) - timedelta(days=300.1 * 365.2425)
        assert compute_age(dob, datetime(2101, 1, 1)) == 91.4

    def test_exactly_89_years_is_not_clamped(self):
        # 89 years of 365.2425 days is a whole number of seconds.
        dob = T0 - timedelta(seconds=89 * 31_556_952)
        assert compute_age(dob, T0) == 89.0
        assert compute_age(dob - timedelta(seconds=1), T0) == 91.4

    def test_dob_equal_to_intime_is_zero(self):
        assert compute_age(T0, T0) == 0.0

    def test_dob_after_intime_is_an_error(self):
        with pytest.raises(DataError):
            compute_age(T0 + timedelta(days=1), T0)


class TestInclusion:
    def test_boundary_age_and_los(self):
        assert apply_inclusion(stay(1, 1, T0, 49), 16.0) is True

    def test_underage_excluded(self):
        assert apply_inclusion(stay(1, 1, T0, 100), 15.9) is False

    def test_exact_48h_excluded(self):
        assert apply_inclusion(stay(1, 1, T0, 48.0), 70.0) is False


class TestLabel:
    def test_deathtime_present(self):
        adm = admission(1, 10, deathtime=T0 + timedelta(days=3), flag=1)
        assert label_mortality(adm) is True

    def test_deathtime_absent(self):
        assert label_mortality(admission(1, 10, flag=0)) is False

    def test_deathtime_wins_over_flag(self):
        adm = admission(1, 10, deathtime=T0 + timedelta(days=3), flag=0)
        assert label_mortality(adm) is True
        assert label_disagrees(adm) is True
        assert label_disagrees(admission(1, 10, flag=0)) is False


@pytest.fixture(scope="module")
def ranges():
    return load_icd9_flags()


class TestComorbidity:
    def test_aids_code(self, ranges):
        assert comorbidity_flags({"042"}, ranges) == (True, False, False)

    def test_no_codes(self, ranges):
        assert comorbidity_flags(set(), ranges) == (False, False, False)

    def test_hematologic_and_metastatic(self, ranges):
        assert comorbidity_flags({"1983", "2049"}, ranges) == (False, True, True)

    def test_dotless_parsing(self):
        assert icd9_numeric("1983") == 198.3
        assert icd9_numeric("0429") == 42.9
        assert icd9_numeric("042") == 42.0
        assert icd9_numeric("V3000") is None
        assert icd9_numeric("E8790") is None


class TestAdmissionCategory:
    def test_elective_surgical(self):
        assert admission_category("ELECTIVE", "CSURG") == SCHEDULED_SURGICAL

    def test_emergency_surgical(self):
        assert admission_category("EMERGENCY", "TSURG") == UNSCHEDULED_SURGICAL

    def test_medical_service(self):
        assert admission_category("EMERGENCY", "MED") == MEDICAL

    def test_missing_service_is_medical(self):
        assert admission_category("URGENT", None) == MEDICAL

    def test_newborn_is_a_pipeline_error(self):
        with pytest.raises(DataError, match="NEWBORN"):
            admission_category("NEWBORN", "MED")


class TestSplit:
    def test_floor_ratio_sizes(self):
        split = split_dataset(range(10), seed=1)
        sizes = {name: 0 for name in ("train", "val", "test")}
        for v in split.values():
            sizes[v] += 1
        assert sizes == {"train": 6, "val": 2, "test": 2}

    def test_minimum_viable_split(self):
        split = split_dataset(range(5), seed=1)
        counts = sorted(split.values())
        assert counts.count("train") == 3
        assert counts.count("val") == 1
        assert counts.count("test") == 1

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_sizes_round_down(self, n):
        counts = sorted(split_dataset(range(n), seed=1).values())
        assert counts.count("val") == 1
        assert counts.count("test") == 1
        assert counts.count("train") == n - 2

    def test_too_few_subjects(self):
        with pytest.raises(ConfigError):
            split_dataset(range(4), seed=1)

    def test_input_order_does_not_matter(self):
        ids = list(range(100, 150))
        a = split_dataset(ids, seed=9)
        b = split_dataset(list(reversed(ids)), seed=9)
        assert a == b

    def test_different_seed_changes_assignment(self):
        ids = list(range(60))
        a = split_dataset(ids, seed=1)
        b = split_dataset(ids, seed=2)
        assert a != b

    def test_partition_covers_everyone_once(self):
        ids = list(range(37))
        split = split_dataset(ids, seed=4)
        assert sorted(split) == ids


def test_build_cohort_end_to_end_counts():
    stays = [
        stay(1, 101, T0, 60, hadm=10),  # included
        stay(1, 102, T0 + timedelta(days=20), 60, hadm=10),  # readmission
        stay(2, 201, T0, 48, hadm=20),  # exactly 48h: excluded
        stay(3, 301, T0, 200, hadm=30),  # minor: excluded
    ]
    patients = [
        PatientRow(1, T0 - timedelta(days=40 * 365)),
        PatientRow(2, T0 - timedelta(days=40 * 365)),
        PatientRow(3, T0 - timedelta(days=10 * 365)),
    ]
    admissions = [
        admission(1, 10, deathtime=T0 + timedelta(days=5), flag=0),
        admission(2, 20),
        admission(3, 30),
    ]
    cohort, counts = build_cohort(stays, patients, admissions, [], [])
    assert [s.icustay_id for s in cohort] == [101]
    assert cohort[0].label_mortality is True
    assert cohort[0].admission_category == MEDICAL
    assert counts["included"] == 1
    assert counts["excluded_age"] == 1
    assert counts["excluded_short_stay"] == 1
    assert counts["label_flag_disagreements"] == 1


def test_build_cohort_missing_admission_names_hadm():
    stays = [stay(1, 101, T0, 60, hadm=77)]
    patients = [PatientRow(1, T0 - timedelta(days=40 * 365))]
    with pytest.raises(DataError, match="77"):
        build_cohort(stays, patients, [], [], [])


def _cohort_lines(tmp_path):
    stays = [
        CohortStay(icustay_id=100 + i, subject_id=i, hadm_id=10 * i,
                   intime=T0, age_years=60.5,
                   admission_category=MEDICAL, aids=False,
                   hematologic_malignancy=False, metastatic_cancer=bool(i),
                   label_mortality=bool(i))
        for i in (1, 2)
    ]
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, stays, {1: "train", 2: "test"})
    back, splits = read_cohort_csv(path)
    assert back == stays and splits == {1: "train", 2: "test"}
    return path, path.read_text().splitlines()


def _set_field(line_no, column, value):
    def garble(lines):
        cells = lines[line_no - 1].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[line_no - 1] = ",".join(cells)
    return garble


def _drop_column(column):
    def garble(lines):
        i = lines[0].split(",").index(column)
        lines[:] = [",".join(c for k, c in enumerate(line.split(",")) if k != i)
                    for line in lines]
    return garble


def _truncate_row(line_no):
    def garble(lines):
        lines[line_no - 1] = lines[line_no - 1].rsplit(",", 1)[0]
    return garble


@pytest.mark.parametrize("garble, line", [
    (_set_field(2, "icustay_id", "101a"), 2),
    (_set_field(3, "subject_id", "2.5"), 3),
    (_set_field(2, "age_years", "old"), 2),
    (_set_field(3, "hadm_id", ""), 3),
    (_set_field(2, "intime", "2101-13-01 00:00:00"), 2),
    (_set_field(3, "split", "bogus"), 3),
    (_set_field(2, "label", "2"), 2),
    (_set_field(2, "aids", "yes"), 2),
    (_set_field(3, "admission_category", "Unknown"), 3),
    (_truncate_row(3), 3),
    (_drop_column("split"), 1),
    (_drop_column("label"), 1),
])
def test_garbled_cohort_file_names_file_and_line(tmp_path, garble, line):
    path, lines = _cohort_lines(tmp_path)
    garble(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: "):
        read_cohort_csv(path)


@pytest.mark.parametrize("content", [None, b"\xff\xfeicustay_id\n"])
def test_unreadable_cohort_file_is_a_data_error(tmp_path, content):
    path = tmp_path / "cohort.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match=re.escape(str(path))):
        read_cohort_csv(path)
