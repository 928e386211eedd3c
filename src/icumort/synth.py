"""Seeded synthetic EHR generator: schema-faithful CSVs at desk scale.

Produces the eight tables the pipeline reads, with referential integrity,
future-shifted timestamps (mimicking de-identification, including the
shifted birth dates of the very old), controllable cohort composition, and
three label-signal modes:

  * ``none``: labels drawn independently of everything.
  * ``static_only``: positives skew older with more comorbidities.
  * ``temporal_trend``: positive stays drift on heart rate (up) and systolic
    pressure (down) across hours 24-48, while the hour-47 marginals of the
    two classes coincide by construction. A model that reads the whole
    sequence can separate the classes; one that reads only the last hour
    cannot.

Event rows are emitted one stay at a time, patient by patient and stay by
stay. Within a stay the order is: the channels of ``_CHANNEL_ITEMS`` but
urine output, in that order and each hour by hour; the coma-score parts
(verbal, motor, eyes) hour by hour; urine output hour by hour, an irrigant
out/in pair right after its hour's volume; then the optional pre-admission
lab. Each row goes to the table the item registry names for its item, and
every table numbers its ROW_IDs 1, 2, ... in that emission order.

``inject_anomalies`` then dirties the files the way real exports are dirty
(Celsius temperature rows, "ERROR" value texts, duplicated same-hour
measurements, missing spans) and records a manifest so tests can verify the
cleaning stage recovered every case.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from itertools import islice, repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cohort import (
    DAYS_PER_YEAR,
    MAX_UNSHIFTED_AGE_YEARS,
    MIN_AGE_YEARS,
    apply_inclusion,
    compute_age,
    first_stay_per_patient,
)
from .errors import ConfigError
from .featurize import WINDOW_MINUTES
from .items import N_CHANNELS, ItemRegistry, load_registry, resolve_item
from .seeding import SplitMix64, derive_seed, derive_seed_many, leading_uniforms
from .tables import (
    ADMISSIONS,
    ICUSTAYS,
    PATIENTS,
    TS_FORMAT,
    load_table,
    parse_timestamp,
    table_path,
)

BASE_INTIME = datetime(2101, 1, 1)
MANIFEST_NAME = "synth_manifest.json"

# Each table's columns in file order, each with the row template field that
# fills it or its fixed text. {0} is the ROW_ID; event rows fill {1} subject,
# {2} admission, {3} stay, {4} item, {5} CHARTTIME, {6} value and {7} unit.
TABLES = {
    "PATIENTS": {"ROW_ID": "{0}", "SUBJECT_ID": "{1}", "GENDER": "{2}",
                 "DOB": "{3}", "DOD": "", "DOD_HOSP": "{4}", "DOD_SSN": "",
                 "EXPIRE_FLAG": "{5}"},
    "ADMISSIONS": {
        "ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
        "ADMITTIME": "{3}", "DISCHTIME": "{4}", "DEATHTIME": "{5}",
        "ADMISSION_TYPE": "{6}", "ADMISSION_LOCATION": "",
        "DISCHARGE_LOCATION": "", "INSURANCE": "Medicare", "LANGUAGE": "",
        "RELIGION": "", "MARITAL_STATUS": "", "ETHNICITY": "UNKNOWN",
        "EDREGTIME": "", "EDOUTTIME": "", "DIAGNOSIS": "",
        "HOSPITAL_EXPIRE_FLAG": "{7}", "HAS_CHARTEVENTS_DATA": "1"},
    "ICUSTAYS": {
        "ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
        "ICUSTAY_ID": "{3}", "DBSOURCE": "synthetic", "FIRST_CAREUNIT": "MICU",
        "LAST_CAREUNIT": "MICU", "FIRST_WARDID": "", "LAST_WARDID": "",
        "INTIME": "{4}", "OUTTIME": "{5}", "LOS": "{6}"},
    "CHARTEVENTS": {
        "ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
        "ICUSTAY_ID": "{3}", "ITEMID": "{4}", "CHARTTIME": "{5}",
        "STORETIME": "", "CGID": "", "VALUE": "{6}", "VALUENUM": "{6}",
        "VALUEUOM": "{7}", "WARNING": "", "ERROR": "", "RESULTSTATUS": "",
        "STOPPED": ""},
    "LABEVENTS": {
        "ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
        "ITEMID": "{4}", "CHARTTIME": "{5}", "VALUE": "{6}", "VALUENUM": "{6}",
        "VALUEUOM": "{7}", "FLAG": ""},
    "OUTPUTEVENTS": {
        "ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
        "ICUSTAY_ID": "{3}", "CHARTTIME": "{5}", "ITEMID": "{4}",
        "VALUE": "{6}", "VALUEUOM": "ml", "STORETIME": "", "CGID": "",
        "STOPPED": "", "NEWBOTTLE": "", "ISERROR": ""},
    "DIAGNOSES_ICD": {"ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
                      "SEQ_NUM": "{3}", "ICD9_CODE": "{4}"},
    "SERVICES": {"ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
                 "TRANSFERTIME": "{3}", "PREV_SERVICE": "",
                 "CURR_SERVICE": "{4}"},
}


def _default_missing() -> dict[str, float]:
    # Probability that a given hour has no measurement, per channel. Vitals
    # are charted most hours; labs are drawn a few times a day.
    return {
        "GCS": 0.35, "SBP": 0.25, "HeartRate": 0.15, "TempF": 0.5,
        "PaO2": 0.88, "FiO2": 0.8, "UrineOutput": 0.3, "BUN": 0.9,
        "WBC": 0.9, "Bicarbonate": 0.9, "Sodium": 0.88, "Potassium": 0.88,
        "Bilirubin": 0.92,
    }


@dataclass
class SynthConfig:
    n_patients: int
    seed: int
    mortality_rate: float = 0.115
    readmission_rate: float = 0.15
    long_stay_frac: float = 0.8
    age_min: float = 14.0
    age_max: float = 97.0
    signal_mode: str = "none"
    effect_size: float = 1.0
    missing_scale: float = 1.0
    missing_rate: dict[str, float] = field(default_factory=_default_missing)
    celsius_rate: float = 0.25
    error_text_rate: float = 0.05
    duplicate_rate: float = 0.05
    missing_span_rate: float = 0.1

    def validate(self) -> None:
        if self.n_patients < 5:
            raise ConfigError("n_patients must be at least 5")
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        rates = {
            "mortality_rate": self.mortality_rate,
            "readmission_rate": self.readmission_rate,
            "long_stay_frac": self.long_stay_frac,
            "celsius_rate": self.celsius_rate,
            "error_text_rate": self.error_text_rate,
            "duplicate_rate": self.duplicate_rate,
            "missing_span_rate": self.missing_span_rate,
            **{f"missing_rate[{k}]": v for k, v in self.missing_rate.items()},
        }
        for name, value in rates.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.age_min >= self.age_max or self.age_min < 0:
            raise ConfigError("age range must satisfy 0 <= age_min < age_max")
        if self.signal_mode not in ("none", "static_only", "temporal_trend"):
            raise ConfigError(f"unknown signal_mode {self.signal_mode!r}")
        if self.effect_size < 0 or self.missing_scale < 0:
            raise ConfigError("effect_size and missing_scale must be nonnegative")


# Per-channel value model: (mean, between-stay sd, within-stay sd, decimals).
_VALUE_MODEL = {
    "SBP": (120.0, 14.0, 8.0, 1),
    "HeartRate": (80.0, 12.0, 6.0, 1),
    "TempF": (98.6, 0.7, 0.4, 1),
    "PaO2": (95.0, 15.0, 10.0, 1),
    "FiO2": (50.0, 14.0, 5.0, 1),
    "BUN": (20.0, 8.0, 2.0, 1),
    "WBC": (9.0, 3.0, 0.8, 2),
    "Bicarbonate": (24.0, 4.0, 1.0, 1),
    "Sodium": (139.0, 4.0, 1.2, 1),
    "Potassium": (4.1, 0.5, 0.15, 2),
    "Bilirubin": (1.2, 0.8, 0.15, 2),
}

# Drift injected for positive-label stays in temporal_trend mode, reached
# linearly across hours 24-47: rising heart rate and fever, falling systolic
# pressure. The class means coincide at hour 47.
_TREND_DELTA = {"HeartRate": 24.0, "SBP": -28.0, "TempF": 1.5}

_CHANNEL_ITEMS = {
    "SBP": (51, 442, 455, 6701, 220179, 220050),
    "HeartRate": (211, 220045),
    "TempF": (678, 223761),
    "PaO2": (50821,),
    "FiO2": (223835, 3420, 3422, 50816),
    "UrineOutput": (40055, 226559, 40069, 43175),
    "BUN": (51006,),
    "WBC": (51300, 51301),
    "Bicarbonate": (50882,),
    "Sodium": (50983,),
    "Potassium": (50822, 50971),
    "Bilirubin": (50885,),
}
# Coma score item ids: verbal, motor and eyes components.
_GCS_ITEMS = ((723, 223900), (454, 223901), (184, 220739))
# The numeric channels in emission order, their item ids one row per channel
# (padded with 0, which no pick reaches) and their value formats.
_NUMERIC_CHANNELS = [c for c in _CHANNEL_ITEMS if c != "UrineOutput"]
_NUMERIC_ITEMS = np.array([
    _CHANNEL_ITEMS[c] + (0,) * (6 - len(_CHANNEL_ITEMS[c]))  # SBP has 6
    for c in _NUMERIC_CHANNELS
])
_NUMERIC_FORMATS = np.array([f"{{:.{_VALUE_MODEL[c][3]}f}}"
                             for c in _NUMERIC_CHANNELS])

_MEDICAL_SERVICES = ("MED", "CMED", "OMED", "NMED", "GU")
_SURGICAL_SERVICES = ("CSURG", "NSURG", "TSURG", "SURG", "ORTHO", "VSURG")
_BACKGROUND_ICD9 = ("4019", "25000", "41401", "5849", "51881", "2859", "42731")
_AIDS_CODES = ("042", "0429", "0431")
_HEM_CODES = ("20280", "20400", "20500", "20760")
_MET_CODES = ("1983", "1970", "19889", "1962")


def _fmt_ts(ts: datetime) -> str:
    return ts.strftime(TS_FORMAT)


class _TableWriter:
    """One table file: its header, its row template and its ROW_ID count."""

    def __init__(self, directory: Path, name: str):
        columns = TABLES[name]
        self._fh = open(directory / f"{name}.csv", "w", newline="")
        self._fh.write(",".join(columns) + "\n")
        self._template = ",".join(columns.values()) + "\n"
        self.rows = 0

    def write(self, shared: tuple, rows: Sequence[tuple] = ((),)) -> None:
        """Append one line per row, numbering the ROW_IDs (field {0}).

        Fields {1} on are the ``shared`` values, the same on every row, then
        the row's own values; by default one row with none. Shared values go
        into the template once per call (none holds a brace), so each line
        formats only its own fields. No generated value needs CSV quoting."""
        own = [f"{{{i}}}" for i in range(1, len(rows[0]) + 1)]
        fmt = self._template.format("{0}", *shared, *own).format
        lines = [fmt(row_id, *row)
                 for row_id, row in enumerate(rows, self.rows + 1)]
        self.rows += len(lines)
        self._fh.write("".join(lines))

    def close(self) -> None:
        self._fh.close()


@dataclass
class _StaySpec:
    icustay_id: int
    intime: datetime
    los_hours: float

    @property
    def outtime(self) -> datetime:
        return self.intime + timedelta(hours=self.los_hours)


@dataclass
class PatientProfile:
    """Everything about one synthetic patient except the event stream."""

    subject_id: int
    hadm_id: int
    age: float
    label: bool
    flag_inconsistent: bool
    admission_type: str
    service: str
    icd9_codes: list[str]
    stays: list[_StaySpec]
    dob: datetime


def sample_patients(config: SynthConfig) -> list[PatientProfile]:
    """Draw all patient-level structure; deterministic per (seed, config)."""
    profiles: list[PatientProfile] = []
    next_stay_id = 200001
    for i in range(config.n_patients):
        subject_id = 10001 + i
        rng = np.random.default_rng(derive_seed(config.seed, "synth", subject_id))
        label = bool(rng.random() < config.mortality_rate)
        age = float(rng.uniform(config.age_min, config.age_max))
        age_shift = float(rng.uniform(4.0, 12.0))
        if config.signal_mode == "static_only" and label:
            age = min(config.age_max, age + age_shift * config.effect_size)

        first_intime = BASE_INTIME + timedelta(
            minutes=int(rng.integers(0, 10 * 365 * 24 * 60))
        )
        if rng.random() < config.long_stay_frac:
            first_los = float(rng.uniform(49.0, 240.0))
        else:
            first_los = float(rng.uniform(2.0, 48.0))
        stays = [_StaySpec(next_stay_id, first_intime, first_los)]
        next_stay_id += 1
        while len(stays) < 3 and rng.random() < config.readmission_rate:
            gap = float(rng.uniform(6.0, 96.0))
            los = float(rng.uniform(5.0, 120.0))
            stays.append(
                _StaySpec(next_stay_id, stays[-1].outtime + timedelta(hours=gap), los)
            )
            next_stay_id += 1

        admission_type = str(
            rng.choice(["ELECTIVE", "EMERGENCY", "URGENT"], p=[0.2, 0.65, 0.15])
        )
        if admission_type == "ELECTIVE":
            surgical = rng.random() < 0.7
        else:
            surgical = rng.random() < 0.3
        service = str(
            rng.choice(_SURGICAL_SERVICES if surgical else _MEDICAL_SERVICES)
        )

        boost = (1.0 + 2.5 * config.effect_size
                 if config.signal_mode == "static_only" and label else 1.0)
        codes = list(rng.choice(_BACKGROUND_ICD9, size=2, replace=False))
        if rng.random() < min(1.0, 0.02 * boost):
            codes.append(str(rng.choice(_AIDS_CODES)))
        if rng.random() < min(1.0, 0.05 * boost):
            codes.append(str(rng.choice(_HEM_CODES)))
        if rng.random() < min(1.0, 0.08 * boost):
            codes.append(str(rng.choice(_MET_CODES)))

        if age > MAX_UNSHIFTED_AGE_YEARS:
            dob = first_intime - timedelta(days=300.2 * DAYS_PER_YEAR)
        else:
            dob = first_intime - timedelta(days=age * DAYS_PER_YEAR)
        flag_inconsistent = bool(rng.random() < 0.01)
        profiles.append(
            PatientProfile(
                subject_id=subject_id,
                hadm_id=500000 + i,
                age=age,
                label=label,
                flag_inconsistent=flag_inconsistent,
                admission_type=admission_type,
                service=service,
                icd9_codes=codes,
                stays=stays,
                dob=dob,
            )
        )
    return profiles


def _stay_channel_values(rng: np.random.Generator, channel: str,
                         horizon: int, label: bool,
                         config: SynthConfig) -> np.ndarray:
    """Hourly true values for one stay and channel (before missingness)."""
    mean, between, within, _ = _VALUE_MODEL[channel]
    base = mean + between * rng.standard_normal()
    values = base + within * rng.standard_normal(horizon)
    if (config.signal_mode == "temporal_trend" and label
            and channel in _TREND_DELTA):
        hours = np.arange(horizon)
        ramp = np.clip((hours - 24.0) / 23.0, 0.0, 1.0)
        values += _TREND_DELTA[channel] * config.effect_size * (ramp - 1.0)
    return values


def _presence_mask(rng: np.random.Generator, missing: float, scale: float,
                   horizon: int) -> np.ndarray:
    p_missing = min(1.0, missing * scale)
    return rng.random(horizon) >= p_missing


def generate(config: SynthConfig, out_dir: str | Path) -> dict:
    """Write the eight tables plus a manifest; byte-deterministic per seed."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = load_registry()
    profiles = sample_patients(config)

    writers = {name: _TableWriter(out_dir, name) for name in TABLES}
    counts = {"patients": 0, "stays": 0, "events": 0}
    try:
        for profile in profiles:
            counts["patients"] += 1
            rng = np.random.default_rng(
                derive_seed(config.seed, "synth-events", profile.subject_id)
            )
            last_out = profile.stays[-1].outtime
            admit = profile.stays[0].intime - timedelta(
                minutes=int(rng.integers(60, 12 * 60))
            )
            disch = last_out + timedelta(minutes=int(rng.integers(12 * 60, 240 * 60)))
            death = _fmt_ts(disch) if profile.label else ""
            flag = int(profile.label)
            if profile.flag_inconsistent:
                flag = 1 - flag
            ids = (profile.subject_id, profile.hadm_id)
            writers["PATIENTS"].write((
                profile.subject_id, "F" if rng.random() < 0.5 else "M",
                _fmt_ts(profile.dob), death, int(profile.label),
            ))
            writers["ADMISSIONS"].write((
                *ids, _fmt_ts(admit), _fmt_ts(disch), death,
                profile.admission_type, flag,
            ))
            writers["SERVICES"].write((*ids, _fmt_ts(admit), profile.service))
            writers["DIAGNOSES_ICD"].write(
                ids, list(enumerate(profile.icd9_codes, start=1)))
            for stay in profile.stays:
                counts["stays"] += 1
                writers["ICUSTAYS"].write((
                    *ids, stay.icustay_id, _fmt_ts(stay.intime),
                    _fmt_ts(stay.outtime), f"{stay.los_hours / 24.0:.4f}",
                ))
                counts["events"] += _write_stay_events(
                    writers, registry, rng, profile, stay, config
                )
    finally:
        for writer in writers.values():
            writer.close()

    manifest = {
        "config": asdict(config),
        "counts": counts,
        "injections": None,
    }
    _write_manifest(out_dir, manifest)
    return counts


def _write_stay_events(writers, registry: ItemRegistry,
                       rng: np.random.Generator, profile: PatientProfile,
                       stay: _StaySpec, config: SynthConfig) -> int:
    """Events for one stay, in emission order, one write per table; a couple
    of hours beyond the 48h window exercise the half-open window downstream."""
    horizon = min(int(math.ceil(stay.los_hours)), 50)

    # Numeric channels, channel by channel and hour by hour within each.
    draws = []
    for channel in _NUMERIC_CHANNELS:
        draws.append((
            _stay_channel_values(rng, channel, horizon, profile.label, config),
            _presence_mask(rng, config.missing_rate[channel],
                           config.missing_scale, horizon),
            rng.integers(0, 60, size=horizon),
            rng.integers(0, len(_CHANNEL_ITEMS[channel]), size=horizon),
        ))
    values, present, offsets, item_pick = map(np.array, zip(*draws))
    channels, hours = np.nonzero(present)
    items = _NUMERIC_ITEMS[channels, item_pick[channels, hours]].tolist()
    minutes = (hours * 60 + offsets[channels, hours]).tolist()
    texts = list(map(str.format, _NUMERIC_FORMATS[channels].tolist(),
                     values[channels, hours].tolist()))

    # Coma score: three integer components, all charted together most of the
    # time, with occasional single-component dropouts.
    present = _presence_mask(
        rng, config.missing_rate["GCS"], config.missing_scale, horizon
    )
    scores = np.stack([
        rng.integers(3, 6, size=horizon),  # verbal
        rng.integers(4, 7, size=horizon),  # motor
        rng.integers(2, 5, size=horizon),  # eyes
    ], axis=1)
    offsets = rng.integers(0, 60, size=horizon)
    drop = rng.random(horizon) < 0.05
    skip = np.where(drop, rng.integers(0, 3, size=horizon), -1)
    hours, parts = np.nonzero(present[:, None]
                              & (np.arange(3) != skip[:, None]))
    picks = [_GCS_ITEMS[part] for part in parts.tolist()]
    items += [pick[int(rng.integers(0, len(pick)))] for pick in picks]
    minutes += (hours * 60 + offsets[hours]).tolist()
    texts += map(str, scores[hours, parts].tolist())

    # Urine output volumes, with an occasional irrigant in/out pair.
    present = _presence_mask(
        rng, config.missing_rate["UrineOutput"], config.missing_scale, horizon
    )
    volumes = rng.uniform(20.0, 150.0, size=horizon)
    offsets = rng.integers(0, 60, size=horizon)
    urine_items = _CHANNEL_ITEMS["UrineOutput"]
    item_pick = rng.integers(0, len(urine_items), size=horizon)
    irrigant = rng.random(horizon)
    for hour in np.flatnonzero(present).tolist():
        minute = hour * 60 + int(offsets[hour])
        items.append(urine_items[item_pick[hour]])
        minutes.append(minute)
        texts.append(f"{volumes[hour]:.0f}")
        if irrigant[hour] < 0.04:
            out_vol = float(rng.uniform(50.0, 200.0))
            in_vol = float(rng.uniform(10.0, 0.8 * out_vol))
            items += (227489, 227488)
            minutes += (minute, minute)
            texts += (f"{out_vol:.0f}", f"{in_vol:.0f}")

    # A pre-admission lab to exercise window filtering downstream.
    if rng.random() < 0.3:
        minutes.append(-int(rng.integers(60, 600)))
        items.append(50882)
        texts.append(f"{float(rng.uniform(20.0, 28.0)):.1f}")

    charttimes = [t.replace("T", " ") for t in np.datetime_as_string(
        np.datetime64(stay.intime, "s")
        + np.array(minutes, dtype="timedelta64[m]"), unit="s").tolist()]
    rows: dict[str, list[tuple]] = {}
    for row in zip(items, charttimes, texts,
                   map(_UNITS.get, items, repeat(""))):
        rows.setdefault(registry.item_table[row[0]], []).append(row)
    ids = (profile.subject_id, profile.hadm_id, stay.icustay_id)
    for table, table_rows in rows.items():
        writers[table.upper()].write(ids, table_rows)
    return len(items)


_UNITS = {
    678: "?F", 223761: "?F", 676: "?C", 223762: "?C",
    211: "bpm", 220045: "bpm",
    51: "mmHg", 442: "mmHg", 455: "mmHg", 6701: "mmHg", 220179: "mmHg",
    220050: "mmHg", 50821: "mmHg",
}


def _write_manifest(data_dir: Path, manifest: dict) -> None:
    path = Path(data_dir) / MANIFEST_NAME
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def read_manifest(data_dir: str | Path) -> dict:
    return json.loads((Path(data_dir) / MANIFEST_NAME).read_text())


def _preview_windows(data_dir: Path) -> dict:
    """First stays likely to enter the cohort (adult, stay > 48h).

    Used only to decide which injected anomalies are verifiable downstream;
    injection itself applies to every row.
    """
    stays, _ = load_table(table_path(data_dir, "icustays"), ICUSTAYS)
    patients, _ = load_table(table_path(data_dir, "patients"), PATIENTS)
    dob = {p.subject_id: p.dob for p in patients}
    windows: dict[int, tuple[int, datetime]] = {}
    hadm_windows: dict[int, tuple[int, datetime]] = {}
    for stay in first_stay_per_patient(stays):
        birth = dob.get(stay.subject_id)
        if birth is None or birth > stay.intime:
            continue
        if not apply_inclusion(stay, compute_age(birth, stay.intime)):
            continue
        windows[stay.icustay_id] = (stay.icustay_id, stay.intime)
        hadm_windows[stay.hadm_id] = (stay.icustay_id, stay.intime)
    return {"icustay": windows, "hadm": hadm_windows}


# Rows per block of an event table in inject_anomalies: enough to amortise
# one vectorised seed derivation, small enough that holding the block's rows
# adds under 1 MB to the synth process's peak memory.
_INJECT_BLOCK_ROWS = 1024
# Most coins one row can draw: Celsius, error text, duplicate, jitter.
_INJECT_COINS = 4


def _keyed_rows(reader, i_row: int, seed: int, table_name: str):
    """Yield (row, row id, first coins of the row's keyed stream) per row.

    Rows are read in fixed blocks, and each block's coins come from one
    vectorised seed derivation over its row ids.
    """
    while block := list(islice(reader, _INJECT_BLOCK_ROWS)):
        row_ids = [int(row[i_row]) for row in block]
        coins = leading_uniforms(
            derive_seed_many(seed, "inject", table_name, keys=row_ids),
            _INJECT_COINS,
        )
        yield from zip(block, row_ids, coins.tolist())


def inject_anomalies(data_dir: str | Path, config: SynthConfig) -> dict:
    """Dirty the generated event files in place and record a manifest.

    Applies, per event row and keyed by (seed, table, row id): Celsius
    conversion of Fahrenheit temperature rows, "ERROR" value texts, and
    duplicated same-hour measurements; plus removal of whole (stay, channel)
    hour spans. Entries are recorded only when the row lands inside the 48h
    window of a stay expected to enter the cohort, so every manifest entry
    is verifiable against the featurized output.

    Rows are processed in blocks of about a thousand. Each block's coins
    come from one vectorised derivation over its row ids, and a row's coins
    are the first draws of ``SplitMix64(derive_seed(seed, "inject", table,
    row_id))``, consumed in the same order as a per-row stream would, so the
    output does not depend on the block size.
    """
    config.validate()
    data_dir = Path(data_dir)
    registry = load_registry()
    windows = _preview_windows(data_dir)
    stay_windows, hadm_windows = windows["icustay"], windows["hadm"]

    spans: dict[tuple[int, int], tuple[int, int]] = {}
    span_removed: dict[tuple[int, int], int] = {}
    if config.missing_span_rate > 0:
        for stay_id, _ in stay_windows.values():
            for channel_idx in range(N_CHANNELS):
                rng = SplitMix64(
                    derive_seed(config.seed, "inject", "span", stay_id, channel_idx)
                )
                if rng.uniform() < config.missing_span_rate:
                    start = rng.randbelow(40)
                    length = 4 + rng.randbelow(9)
                    spans[(stay_id, channel_idx)] = (start, length)

    injections = {"celsius": [], "error_text": [], "duplicate": [],
                  "missing_span": []}
    temp_swap = {678: 676, 223761: 223762}

    for table_name in ("CHARTEVENTS", "LABEVENTS", "OUTPUTEVENTS"):
        path = data_dir / f"{table_name}.csv"
        tmp = path.with_suffix(".tmp")
        appended: list[list[str]] = []
        with open(path, newline="") as src, open(tmp, "w", newline="") as dst:
            reader = csv.reader(src)
            writer = csv.writer(dst, lineterminator="\n")
            header = next(reader)
            writer.writerow(header)
            idx = {name: i for i, name in enumerate(header)}
            i_row, i_item, i_hadm = idx["ROW_ID"], idx["ITEMID"], idx["HADM_ID"]
            i_time, i_value = idx["CHARTTIME"], idx["VALUE"]
            i_stay = idx.get("ICUSTAY_ID")
            i_valuenum = idx.get("VALUENUM")
            i_uom = idx.get("VALUEUOM")
            max_row_id = 0
            for row, row_id, coins in _keyed_rows(reader, i_row, config.seed,
                                                  table_name):
                max_row_id = max(max_row_id, row_id)
                item_id = int(row[i_item])
                resolved = resolve_item(registry, item_id)
                stay_hour: Optional[tuple[int, int]] = None
                charttime: Optional[datetime] = None
                if resolved is not None:
                    key = None
                    if i_stay is not None and row[i_stay]:
                        key = stay_windows.get(int(row[i_stay]))
                    elif row[i_hadm]:
                        key = hadm_windows.get(int(row[i_hadm]))
                    if key is not None:
                        stay_id, intime = key
                        charttime = parse_timestamp(row[i_time])
                        minute = int((charttime - intime).total_seconds()
                                     // 60)
                        if 0 <= minute < WINDOW_MINUTES:
                            stay_hour = (stay_id, minute // 60)

                channel_idx = resolved[0].channel_index if resolved else None
                subrole = resolved[1] if resolved else None

                # Whole-span removal first: the row simply disappears.
                if stay_hour is not None and channel_idx is not None:
                    span = spans.get((stay_hour[0], channel_idx))
                    if span and span[0] <= stay_hour[1] < span[0] + span[1]:
                        key = (stay_hour[0], channel_idx)
                        span_removed[key] = span_removed.get(key, 0) + 1
                        continue

                coin = iter(coins)
                value_text = row[i_value]
                is_temp_f = subrole == "temp_f"
                converted = False
                if is_temp_f and next(coin) < config.celsius_rate:
                    fahrenheit = float(value_text)
                    celsius = round((fahrenheit - 32.0) * 5.0 / 9.0, 1)
                    row[i_item] = str(temp_swap[item_id])
                    row[i_value] = f"{celsius:.1f}"
                    if i_valuenum is not None:
                        row[i_valuenum] = f"{celsius:.1f}"
                    if i_uom is not None:
                        row[i_uom] = "?C"
                    converted = True
                    if stay_hour is not None:
                        injections["celsius"].append({
                            "table": table_name, "row_id": row_id,
                            "stay": stay_hour[0], "hour": stay_hour[1],
                            "fahrenheit": fahrenheit, "celsius": celsius,
                        })
                errored = False
                if (not converted and channel_idx is not None
                        and next(coin) < config.error_text_rate):
                    row[i_value] = "ERROR"
                    if i_valuenum is not None:
                        row[i_valuenum] = ""
                    errored = True
                    if stay_hour is not None:
                        injections["error_text"].append({
                            "table": table_name, "row_id": row_id,
                            "stay": stay_hour[0], "channel": channel_idx,
                            "hour": stay_hour[1],
                        })
                if (not errored and channel_idx is not None
                        and next(coin) < config.duplicate_rate):
                    dup = list(row)
                    base_value = float(row[i_value])
                    jitter = 0.97 + 0.06 * next(coin)  # stays plausible
                    new_value = round(base_value * jitter, 1)
                    dup[i_value] = f"{new_value:.1f}"
                    if i_valuenum is not None:
                        dup[i_valuenum] = f"{new_value:.1f}"
                    if charttime is None:
                        charttime = parse_timestamp(row[i_time])
                    # Shift a few minutes without leaving the hour bucket,
                    # which is measured from the stay's admission minute.
                    if stay_hour is not None:
                        offset_in_hour = minute % 60
                        shift = 7 if offset_in_hour < 53 else -7
                    else:
                        shift = 7
                    dup[i_time] = _fmt_ts(charttime + timedelta(minutes=shift))
                    appended.append(dup)
                    if stay_hour is not None:
                        injections["duplicate"].append({
                            "table": table_name, "row_id": row_id,
                            "stay": stay_hour[0], "channel": channel_idx,
                            "hour": stay_hour[1],
                        })
                writer.writerow(row)
            for extra in appended:
                max_row_id += 1
                extra[i_row] = str(max_row_id)
                writer.writerow(extra)
        os.replace(tmp, path)

    for (stay_id, channel_idx), (start, length) in sorted(spans.items()):
        removed = span_removed.get((stay_id, channel_idx), 0)
        if removed:
            injections["missing_span"].append({
                "stay": stay_id, "channel": channel_idx,
                "start_hour": start, "length": length, "removed": removed,
            })

    manifest = read_manifest(data_dir)
    manifest["injections"] = injections
    _write_manifest(data_dir, manifest)
    return injections


@dataclass
class DescribeSummary:
    patients: int = 0
    adult_patients: int = 0
    median_age_adult: float = 0.0
    mortality_adult: float = 0.0
    admissions: int = 0
    icu_stays: int = 0
    icu_stays_adult: int = 0
    long_icu_stays_adult: int = 0
    first_long_icu_stays_adult: int = 0
    avg_los_long_days: float = 0.0
    avg_los_days: float = 0.0
    avg_los_first_long_days: float = 0.0
    warning: str = ""

    def to_text(self) -> str:
        lines = [
            f"patients: {self.patients}",
            f"adult_patients: {self.adult_patients}",
            f"median_age_adult: {self.median_age_adult:.1f}",
            f"in_hospital_mortality_adult: {self.mortality_adult:.3f}",
            f"admissions: {self.admissions}",
            f"icu_stays: {self.icu_stays}",
            f"icu_stays_adult: {self.icu_stays_adult}",
            f"long_icu_stays_adult: {self.long_icu_stays_adult}",
            f"first_long_icu_stays_adult: {self.first_long_icu_stays_adult}",
            f"avg_los_long_stays_days: {self.avg_los_long_days:.2f}",
            f"avg_los_stays_days: {self.avg_los_days:.2f}",
            f"avg_los_first_long_stays_days: {self.avg_los_first_long_days:.2f}",
        ]
        if self.warning:
            lines.append(f"warning: {self.warning}")
        return "\n".join(lines)


def describe(data_dir: str | Path) -> DescribeSummary:
    """Summary statistics of a data directory (synthetic or real).

    Adults are patients at least 16 years old at their first ICU admission
    (first hospital admission when they have no stay); long stays last at
    least 4 hours; the first long stay is each adult's earliest long stay.
    In-hospital mortality is the fraction of adults with a death timestamp
    on any admission.
    """
    data_dir = Path(data_dir)
    patients, _ = load_table(table_path(data_dir, "patients"), PATIENTS)
    admissions, _ = load_table(table_path(data_dir, "admissions"), ADMISSIONS)
    stays, _ = load_table(table_path(data_dir, "icustays"), ICUSTAYS)
    summary = DescribeSummary(
        patients=len(patients), admissions=len(admissions), icu_stays=len(stays)
    )
    if not patients:
        summary.warning = "empty tables"
        return summary

    first_admit: dict[int, datetime] = {}
    died: set[int] = set()
    for a in admissions:
        if a.subject_id not in first_admit or a.admittime < first_admit[a.subject_id]:
            first_admit[a.subject_id] = a.admittime
        if a.deathtime is not None:
            died.add(a.subject_id)
    first_stay_time: dict[int, datetime] = {}
    for s in stays:
        if (s.subject_id not in first_stay_time
                or s.intime < first_stay_time[s.subject_id]):
            first_stay_time[s.subject_id] = s.intime

    adult_ages: dict[int, float] = {}
    for p in patients:
        ref = first_stay_time.get(p.subject_id) or first_admit.get(p.subject_id)
        if ref is None or p.dob > ref:
            continue
        age = compute_age(p.dob, ref)
        if age >= MIN_AGE_YEARS:
            adult_ages[p.subject_id] = age
    summary.adult_patients = len(adult_ages)
    if adult_ages:
        summary.median_age_adult = float(np.median(list(adult_ages.values())))
        summary.mortality_adult = (
            sum(1 for sid in adult_ages if sid in died) / len(adult_ages)
        )

    adult_stays = [s for s in stays if s.subject_id in adult_ages]
    summary.icu_stays_adult = len(adult_stays)
    los_days = [
        (s.outtime - s.intime).total_seconds() / 86400.0 for s in adult_stays
    ]
    long_stays = [
        s for s in adult_stays
        if s.outtime - s.intime >= timedelta(hours=4)
    ]
    summary.long_icu_stays_adult = len(long_stays)
    first_long = first_stay_per_patient(long_stays)
    summary.first_long_icu_stays_adult = len(first_long)
    if los_days:
        summary.avg_los_days = float(np.mean(los_days))
    if long_stays:
        summary.avg_los_long_days = float(np.mean(
            [(s.outtime - s.intime).total_seconds() / 86400.0 for s in long_stays]
        ))
    if first_long:
        summary.avg_los_first_long_days = float(np.mean(
            [(s.outtime - s.intime).total_seconds() / 86400.0 for s in first_long]
        ))
    return summary
