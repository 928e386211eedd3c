"""Cohort construction: first stays, inclusion rules, labels, splits.

A patient enters the cohort through their earliest ICU stay only, and only
when they were at least 16 years old at admission and the stay lasted
strictly longer than 48 hours. The label is in-hospital death, read from the
admission's death timestamp. Splits are assigned per patient, never per
stay, with a portable seeded shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ConfigError, DataError
from .seeding import SplitMix64
from .tables import (
    TS_FORMAT,
    AdmissionRow,
    CsvInput,
    DiagnosisRow,
    PatientRow,
    ServiceRow,
    StayRow,
    finite_float,
    parse_digits,
    parse_timestamp,
    read_artifact_rows,
    write_artifact_rows,
)

DAYS_PER_YEAR = 365.2425
MIN_AGE_YEARS = 16.0
MIN_STAY_HOURS = 48.0

# De-identified records shift the birth date of patients older than 89, which
# makes the computed age land near 300; the conventional replacement age.
MAX_UNSHIFTED_AGE_YEARS = 89.0
SHIFTED_AGE_CLAMP = 91.4

SCHEDULED_SURGICAL = "ScheduledSurgical"
UNSCHEDULED_SURGICAL = "UnscheduledSurgical"
MEDICAL = "Medical"
ADMISSION_CATEGORIES = (SCHEDULED_SURGICAL, UNSCHEDULED_SURGICAL, MEDICAL)

DEFAULT_SURGICAL_SERVICES = frozenset(
    {"CSURG", "NSURG", "ORTHO", "PSURG", "SURG", "TSURG", "TRAUM", "VSURG"}
)

SPLITS = ("train", "val", "test")

ICD9_FLAGS_PATH = Path(__file__).parent / "data" / "icd9_flags.csv"


@dataclass
class CohortStay:
    """An included first ICU stay with label and static context."""

    icustay_id: int
    subject_id: int
    hadm_id: int
    intime: datetime
    age_years: float
    admission_category: str
    aids: bool
    hematologic_malignancy: bool
    metastatic_cancer: bool
    label_mortality: bool


def first_stay_per_patient(stays: Iterable[StayRow]) -> list[StayRow]:
    """Keep each subject's earliest stay; ties broken by smaller icustay_id."""
    best: dict[int, StayRow] = {}
    for stay in stays:
        cur = best.get(stay.subject_id)
        if cur is None or (stay.intime, stay.icustay_id) < (cur.intime, cur.icustay_id):
            best[stay.subject_id] = stay
    return [best[sid] for sid in sorted(best)]


def compute_age(dob: datetime, intime: datetime) -> float:
    """Age in years at ICU admission, with the de-identification clamp."""
    if dob > intime:
        raise DataError(f"dob {dob} is after intime {intime}")
    years = (intime - dob).total_seconds() / (86400.0 * DAYS_PER_YEAR)
    if years > MAX_UNSHIFTED_AGE_YEARS:
        return SHIFTED_AGE_CLAMP
    return years


def apply_inclusion(stay: StayRow, age_years: float) -> bool:
    """True iff age >= 16 and the stay is strictly longer than 48 hours."""
    los = stay.outtime - stay.intime
    return age_years >= MIN_AGE_YEARS and los > timedelta(hours=MIN_STAY_HOURS)


def label_mortality(admission: AdmissionRow) -> bool:
    """In-hospital death: the admission's death timestamp is present.

    The expire flag is intentionally not consulted; when the two disagree the
    timestamp wins (see label_disagrees for the audit count).
    """
    return admission.deathtime is not None


def label_disagrees(admission: AdmissionRow) -> bool:
    """True when the expire flag contradicts the death timestamp."""
    if admission.hospital_expire_flag is None:
        return False
    return (admission.deathtime is not None) != (admission.hospital_expire_flag == 1)


def icd9_numeric(code: str) -> Optional[float]:
    """Numeric value of a dotless ICD-9 code; None for V/E and other codes.

    The first three characters are the integer part, the rest are decimals
    ("1983" -> 198.3, "0429" -> 42.9).
    """
    code = code.strip().upper().replace(".", "")
    if not code or not code[: min(3, len(code))].isdigit():
        return None
    head, tail = code[:3], code[3:]
    if tail and not tail.isdigit():
        return None
    return float(f"{int(head)}.{tail}" if tail else head)


def load_icd9_flags(path: str | Path | None = None) -> dict[str, tuple[float, float]]:
    """Load comorbidity flag definitions as inclusive code ranges.

    An unreadable file and a row without a flag and two numeric bounds
    (columns ``flag,code_lo,code_hi``) are configuration errors."""
    path = Path(path) if path is not None else ICD9_FLAGS_PATH
    ranges: dict[str, tuple[float, float]] = {}
    csv_input = CsvInput(path, ConfigError)
    rows = iter(csv_input)
    header = next(rows, [])
    for row in rows:
        if not row:
            continue
        record = dict(zip(header, row))
        lo, hi = (finite_float(record.get(c, "")) for c in ("code_lo", "code_hi"))
        if "flag" not in record or lo is None or hi is None:
            raise ConfigError(f"icd9 flags {path} line {csv_input.line_num}: "
                              "expected a flag and two numeric bounds")
        flag = record["flag"].strip()
        if hi < lo:
            raise ConfigError(f"icd9 flags {path}: empty range for {flag}")
        ranges[flag] = (lo, hi)
    for flag in ("aids", "hem_malig", "metastatic"):
        if flag not in ranges:
            raise ConfigError(f"icd9 flags {path}: missing flag {flag}")
    return ranges


def comorbidity_flags(codes: Iterable[str],
                      flag_ranges: dict[str, tuple[float, float]]
                      ) -> tuple[bool, bool, bool]:
    """(aids, hematologic malignancy, metastatic cancer) from ICD-9 codes."""
    hits = {flag: False for flag in ("aids", "hem_malig", "metastatic")}
    for code in codes:
        value = icd9_numeric(code)
        if value is None:
            continue
        for flag, (lo, hi) in flag_ranges.items():
            if lo <= value <= hi:
                hits[flag] = True
    return hits["aids"], hits["hem_malig"], hits["metastatic"]


def admission_category(admission_type: str, curr_service: Optional[str],
                       surgical_services: frozenset[str] = DEFAULT_SURGICAL_SERVICES
                       ) -> str:
    """Severity-score admission category from admission type and service."""
    admission_type = admission_type.upper()
    if admission_type == "NEWBORN":
        raise DataError("NEWBORN admission reached categorization; "
                        "such stays must be excluded by the age filter")
    if admission_type not in ("ELECTIVE", "EMERGENCY", "URGENT"):
        raise DataError(f"unknown admission type {admission_type!r}")
    surgical = curr_service is not None and curr_service.upper() in surgical_services
    if not surgical:
        return MEDICAL
    return SCHEDULED_SURGICAL if admission_type == "ELECTIVE" else UNSCHEDULED_SURGICAL


def split_dataset(subject_ids: Iterable[int], seed: int) -> dict[int, str]:
    """Assign subjects to train/val/test at 60/20/20, deterministically.

    A sorted copy of the id set is shuffled with a seeded splitmix64
    Fisher-Yates shuffle, so the assignment is a pure function of
    (id set, seed) regardless of input order. Sizes are floor(0.2 n) for
    test and val, remainder train.
    """
    ids = sorted(set(subject_ids))
    n = len(ids)
    if n < 5:
        raise ConfigError(f"cannot split {n} subjects into nonempty train/val/test")
    rng = SplitMix64(seed)
    rng.shuffle(ids)
    n_test = n // 5
    n_val = n // 5
    assignments: dict[int, str] = {}
    for i, sid in enumerate(ids):
        if i < n_test:
            assignments[sid] = "test"
        elif i < n_test + n_val:
            assignments[sid] = "val"
        else:
            assignments[sid] = "train"
    return assignments


def build_cohort(
    stays: Sequence[StayRow],
    patients: Sequence[PatientRow],
    admissions: Sequence[AdmissionRow],
    diagnoses: Sequence[DiagnosisRow],
    services: Sequence[ServiceRow],
    flag_ranges: dict[str, tuple[float, float]] | None = None,
    surgical_services: frozenset[str] = DEFAULT_SURGICAL_SERVICES,
) -> tuple[list[CohortStay], dict[str, int]]:
    """Apply all cohort rules; returns (included stays, audit counts)."""
    flag_ranges = flag_ranges if flag_ranges is not None else load_icd9_flags()
    dob_by_subject = {p.subject_id: p.dob for p in patients}
    admission_by_hadm = {a.hadm_id: a for a in admissions}
    codes_by_hadm: dict[int, list[str]] = {}
    for d in diagnoses:
        codes_by_hadm.setdefault(d.hadm_id, []).append(d.icd9_code)
    # Service in effect at admission: earliest transfer row for the stay's
    # admission (ties broken by service name for order independence).
    service_by_hadm: dict[int, ServiceRow] = {}
    for s in services:
        cur = service_by_hadm.get(s.hadm_id)
        if cur is None or (s.transfertime, s.curr_service) < (cur.transfertime,
                                                              cur.curr_service):
            service_by_hadm[s.hadm_id] = s

    counts = {
        "stays_total": len(stays),
        "first_stays": 0,
        "excluded_no_dob": 0,
        "excluded_age": 0,
        "excluded_short_stay": 0,
        "label_flag_disagreements": 0,
        "included": 0,
    }
    cohort: list[CohortStay] = []
    for stay in first_stay_per_patient(stays):
        counts["first_stays"] += 1
        dob = dob_by_subject.get(stay.subject_id)
        if dob is None:
            counts["excluded_no_dob"] += 1
            continue
        age = compute_age(dob, stay.intime)
        if age < MIN_AGE_YEARS:
            counts["excluded_age"] += 1
            continue
        if not apply_inclusion(stay, age):
            counts["excluded_short_stay"] += 1
            continue
        admission = admission_by_hadm.get(stay.hadm_id)
        if admission is None:
            raise DataError(f"no admission row for hadm_id {stay.hadm_id}")
        if label_disagrees(admission):
            counts["label_flag_disagreements"] += 1
        label = label_mortality(admission)
        aids, hem, met = comorbidity_flags(
            codes_by_hadm.get(stay.hadm_id, ()), flag_ranges
        )
        service = service_by_hadm.get(stay.hadm_id)
        category = admission_category(
            admission.admission_type,
            service.curr_service if service else None,
            surgical_services,
        )
        cohort.append(
            CohortStay(
                icustay_id=stay.icustay_id,
                subject_id=stay.subject_id,
                hadm_id=stay.hadm_id,
                intime=stay.intime,
                age_years=age,
                admission_category=category,
                aids=aids,
                hematologic_malignancy=hem,
                metastatic_cancer=met,
                label_mortality=label,
            )
        )
        counts["included"] += 1
    return cohort, counts


_COHORT_HEADER = [
    "icustay_id", "subject_id", "hadm_id", "intime", "age_years",
    "admission_category", "aids", "hem_malig", "metastatic", "label", "split",
]


def write_cohort_csv(path: str | Path, cohort: Sequence[CohortStay],
                     split: Mapping[int, str]) -> None:
    write_artifact_rows(path, _COHORT_HEADER, (
        [s.icustay_id, s.subject_id, s.hadm_id, s.intime.strftime(TS_FORMAT),
         s.age_years, s.admission_category, int(s.aids),
         int(s.hematologic_malignancy), int(s.metastatic_cancer),
         int(s.label_mortality), split[s.subject_id]]
        for s in sorted(cohort, key=lambda s: s.icustay_id)
    ))


def parse_bit(text: str) -> bool:
    """A 0/1 field of a pipeline artifact; anything else is a ValueError."""
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, found {text!r}")
    return text == "1"


def parse_split(text: str) -> str:
    if text not in SPLITS:
        raise ValueError(f"unknown split {text!r}")
    return text


def read_cohort_csv(path: str | Path) -> tuple[list[CohortStay], dict[int, str]]:
    """Read a cohort file back; returns (stays, split by subject_id).

    A row that cannot have been written by ``write_cohort_csv``, a repeated
    stay or patient included, raises DataError naming the file and line.
    """
    stays: dict[int, CohortStay] = {}
    splits: dict[int, str] = {}

    def parse_row(row: list[str]) -> None:
        (icustay_id, subject_id, hadm_id, intime, age, category, aids,
         hem_malig, metastatic, label, split) = row
        if category not in ADMISSION_CATEGORIES:
            raise ValueError(f"unknown admission category {category!r}")
        age_years = finite_float(age)
        if age_years is None:
            raise ValueError(f"age_years is not a finite number: {age!r}")
        stay = CohortStay(
            icustay_id=parse_digits(icustay_id),
            subject_id=parse_digits(subject_id),
            hadm_id=parse_digits(hadm_id),
            intime=parse_timestamp(intime),
            age_years=age_years,
            admission_category=category,
            aids=parse_bit(aids),
            hematologic_malignancy=parse_bit(hem_malig),
            metastatic_cancer=parse_bit(metastatic),
            label_mortality=parse_bit(label),
        )
        if stay.icustay_id in stays:
            raise ValueError(f"repeated icustay_id {stay.icustay_id}")
        if stay.subject_id in splits:
            raise ValueError(f"repeated subject_id {stay.subject_id}")
        stays[stay.icustay_id] = stay
        splits[stay.subject_id] = parse_split(split)

    read_artifact_rows(path, _COHORT_HEADER, parse_row)
    return list(stays.values()), splits
