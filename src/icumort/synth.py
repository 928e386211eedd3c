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

When any anomaly rate is above 0, the same pass dirties the event rows the
way real exports are dirty. Each row draws its coins from a stream keyed by
(seed, table, ROW_ID): a Fahrenheit temperature row may turn Celsius, a value
may become the text "ERROR", and a row may gain a same-hour duplicate. Rows
inside a missing (stay, channel) hour span are dropped, and their ROW_IDs
stay as gaps. The duplicates follow each table's last row, numbered on from
its last ROW_ID. The manifest records every anomaly that featurization will
see, by the stay and hour that ``featurize.attribute_event`` gives its row,
so tests can check that cleaning recovered each case; ``inject_anomalies``
reads those entries back.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from itertools import count, repeat
from operator import itemgetter
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
from .config import SynthConfig
from .errors import ConfigError
from .featurize import attribute_event
from .items import N_CHANNELS, Item, load_registry
from .seeding import SplitMix64, derive_seed, derive_seed_many, leading_uniforms
from .tables import (
    ADMISSIONS,
    ICUSTAYS,
    PATIENTS,
    TS_FORMAT,
    StayRow,
    load_table,
    parse_timestamp,
    table_path,
)

BASE_INTIME = datetime(2101, 1, 1)
MANIFEST_NAME = "synth_manifest.json"

# Each table's columns in file order, each with the row template field that
# fills it or its fixed text. {0} is the ROW_ID; event rows fill {1} subject,
# {2} admission, {3} stay, {4} item, {5} CHARTTIME, {6} VALUE, {7} VALUENUM
# and {8} unit.
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
        "STORETIME": "", "CGID": "", "VALUE": "{6}", "VALUENUM": "{7}",
        "VALUEUOM": "{8}", "WARNING": "", "ERROR": "", "RESULTSTATUS": "",
        "STOPPED": ""},
    "LABEVENTS": {
        "ROW_ID": "{0}", "SUBJECT_ID": "{1}", "HADM_ID": "{2}",
        "ITEMID": "{4}", "CHARTTIME": "{5}", "VALUE": "{6}", "VALUENUM": "{7}",
        "VALUEUOM": "{8}", "FLAG": ""},
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

# Probability that a given hour has no measurement, per channel, before
# ``missing_scale``. Vitals are charted most hours; labs are drawn a few
# times a day.
_MISSING_RATE = {
    "GCS": 0.35, "SBP": 0.25, "HeartRate": 0.15, "TempF": 0.5,
    "PaO2": 0.88, "FiO2": 0.8, "UrineOutput": 0.3, "BUN": 0.9,
    "WBC": 0.9, "Bicarbonate": 0.9, "Sodium": 0.88, "Potassium": 0.88,
    "Bilirubin": 0.92,
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


# Placeholders for a row's own fields, {1} on: more than any table has.
_OWN_FIELDS = tuple(f"{{{i}}}" for i in range(1, 10))


class _TableWriter:
    """One table file: its header, its row template and its ROW_ID count."""

    def __init__(self, directory: Path, name: str):
        columns = TABLES[name]
        self._fh = open(directory / f"{name}.csv", "w", newline="")
        self._fh.write(",".join(columns) + "\n")
        self._template = ",".join(columns.values()) + "\n"
        self.last_id = 0  # ROW_IDs taken, by written and left-out rows
        self.rows = 0  # data lines written
        self._held: list[str] = []

    def write(self, shared: tuple, rows: Sequence[Optional[tuple]] = ((),)
              ) -> None:
        """Append one line per row, numbering the ROW_IDs (field {0}).

        Fields {1} on are the ``shared`` values, the same on every row, then
        the row's own values (any past the template's fields are ignored);
        by default one row with none. A None row keeps its ROW_ID but writes
        no line. Shared values go into the template once per call (none
        holds a brace). No generated value needs CSV quoting."""
        fmt = self._template.format("{0}", *shared, *_OWN_FIELDS).format
        lines = [fmt(row_id, *row)
                 for row_id, row in enumerate(rows, self.last_id + 1)
                 if row is not None]
        self.last_id += len(rows)
        self.rows += len(lines)
        self._fh.write("".join(lines))

    def hold(self, shared: tuple, row: tuple) -> None:
        """Keep a row to append, numbered on, after the table's last row."""
        self._held.append(self._template.format("", *shared, *row))

    def close(self) -> None:
        """Append the held rows and close the file."""
        self._fh.write("".join(f"{row_id}{line}" for row_id, line in
                               enumerate(self._held, self.last_id + 1)))
        self.rows += len(self._held)
        self._held = []
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
            minutes=int(rng.integers(0, 10 * 365 * 24 * 60)))
        first_los = float(rng.uniform(49.0, 240.0)
                          if rng.random() < config.long_stay_frac
                          else rng.uniform(2.0, 48.0))
        stays = [_StaySpec(next_stay_id, first_intime, first_los)]
        next_stay_id += 1
        while len(stays) < 3 and rng.random() < config.readmission_rate:
            gap = float(rng.uniform(6.0, 96.0))
            los = float(rng.uniform(5.0, 120.0))
            stays.append(_StaySpec(
                next_stay_id, stays[-1].outtime + timedelta(hours=gap), los))
            next_stay_id += 1

        admission_type = str(rng.choice(["ELECTIVE", "EMERGENCY", "URGENT"],
                                        p=[0.2, 0.65, 0.15]))
        surgical = rng.random() < (0.7 if admission_type == "ELECTIVE" else 0.3)
        service = str(rng.choice(_SURGICAL_SERVICES if surgical
                                 else _MEDICAL_SERVICES))

        boost = (1.0 + 2.5 * config.effect_size
                 if config.signal_mode == "static_only" and label else 1.0)
        codes = list(rng.choice(_BACKGROUND_ICD9, size=2, replace=False))
        for flag_codes, rate in ((_AIDS_CODES, 0.02), (_HEM_CODES, 0.05),
                                 (_MET_CODES, 0.08)):
            if rng.random() < min(1.0, rate * boost):
                codes.append(str(rng.choice(flag_codes)))

        years = 300.2 if age > MAX_UNSHIFTED_AGE_YEARS else age
        dob = first_intime - timedelta(days=years * DAYS_PER_YEAR)
        flag_inconsistent = bool(rng.random() < 0.01)
        profiles.append(PatientProfile(
            subject_id=subject_id, hadm_id=500000 + i, age=age, label=label,
            flag_inconsistent=flag_inconsistent, admission_type=admission_type,
            service=service, icd9_codes=codes, stays=stays, dob=dob,
        ))
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


def _presence_mask(rng: np.random.Generator, config: SynthConfig,
                   channel: str, horizon: int) -> np.ndarray:
    p_missing = min(1.0, _MISSING_RATE[channel] * config.missing_scale)
    return rng.random(horizon) >= p_missing


def generate(config: SynthConfig, out_dir: str | Path) -> dict:
    """Write the eight tables plus a manifest; byte-deterministic per seed.

    Injects anomalies into the event rows as it writes them when any of the
    four anomaly rates is above 0; otherwise the manifest's ``injections``
    is null. Returns the manifest's counts, plus the data rows written to
    each table (``<table>_rows``) and, when it injects, the manifest entries
    of each anomaly kind (``injected_<kind>``).
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = load_registry()
    injecting = (config.celsius_rate or config.error_text_rate
                 or config.duplicate_rate or config.missing_span_rate)
    anomalies = _Anomalies(config, registry) if injecting else None

    writers = {name: _TableWriter(out_dir, name) for name in TABLES}
    counts = {"patients": 0, "stays": 0, "events": 0}
    try:
        for profile in sample_patients(config):
            counts["patients"] += 1
            rng = np.random.default_rng(
                derive_seed(config.seed, "synth-events", profile.subject_id))
            admit = profile.stays[0].intime - timedelta(
                minutes=int(rng.integers(60, 12 * 60)))
            disch = profile.stays[-1].outtime + timedelta(
                minutes=int(rng.integers(12 * 60, 240 * 60)))
            death = _fmt_ts(disch) if profile.label else ""
            flag = int(profile.label != profile.flag_inconsistent)
            ids = (profile.subject_id, profile.hadm_id)
            dob = _fmt_ts(profile.dob)
            writers["PATIENTS"].write((
                profile.subject_id, "F" if rng.random() < 0.5 else "M",
                dob, death, int(profile.label),
            ))
            writers["ADMISSIONS"].write((
                *ids, _fmt_ts(admit), _fmt_ts(disch), death,
                profile.admission_type, flag,
            ))
            writers["SERVICES"].write((*ids, _fmt_ts(admit), profile.service))
            writers["DIAGNOSES_ICD"].write(
                ids, list(enumerate(profile.icd9_codes, start=1)))
            stay_rows = []
            for stay in profile.stays:
                counts["stays"] += 1
                times = _fmt_ts(stay.intime), _fmt_ts(stay.outtime)
                writers["ICUSTAYS"].write((
                    *ids, stay.icustay_id, *times,
                    f"{stay.los_hours / 24.0:.4f}",
                ))
                stay_rows.append(StayRow(*ids, stay.icustay_id,
                                         *map(parse_timestamp, times)))
            if anomalies is not None:
                anomalies.admit(stay_rows, parse_timestamp(dob))
            for stay in profile.stays:
                counts["events"] += _write_stay_events(
                    writers, registry, rng, profile, stay, config, anomalies
                )
    finally:
        for writer in writers.values():
            writer.close()

    injections = anomalies.manifest_entries() if anomalies else None
    (out_dir / MANIFEST_NAME).write_text(json.dumps(
        {"config": asdict(config), "counts": counts, "injections": injections},
        sort_keys=True) + "\n")
    return {
        **counts,
        **{f"{name.lower()}_rows": w.rows for name, w in writers.items()},
        **{f"injected_{k}": len(v) for k, v in (injections or {}).items()},
    }


def _write_stay_events(writers, registry: dict[int, Item],
                       rng: np.random.Generator, profile: PatientProfile,
                       stay: _StaySpec, config: SynthConfig,
                       anomalies: Optional[_Anomalies]) -> int:
    """Events for one stay, in emission order, one write per table; a couple
    of hours beyond the 48h window exercise the half-open window downstream.
    Returns the rows emitted, before any anomaly."""
    horizon = min(int(math.ceil(stay.los_hours)), 50)

    # Numeric channels, channel by channel and hour by hour within each.
    draws = []
    for channel in _NUMERIC_CHANNELS:
        draws.append((
            _stay_channel_values(rng, channel, horizon, profile.label, config),
            _presence_mask(rng, config, channel, horizon),
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
    present = _presence_mask(rng, config, "GCS", horizon)
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
    present = _presence_mask(rng, config, "UrineOutput", horizon)
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

    stamps = (np.datetime64(stay.intime, "s")
              + np.array(minutes, dtype="timedelta64[m]"))
    charttimes = [t.replace("T", " ") for t in
                  np.datetime_as_string(stamps, unit="s").tolist()]
    # A row: item, CHARTTIME, VALUE, VALUENUM, unit, and the CHARTTIME as a
    # datetime when anomalies are injected (past the template's fields).
    rows: dict[str, list[tuple]] = {}
    for row in zip(items, charttimes, texts, texts,
                   map(_UNITS.get, items, repeat("")),
                   repeat(None) if anomalies is None else stamps.tolist()):
        rows.setdefault(registry[row[0]].table.upper(), []).append(row)
    ids = (profile.subject_id, profile.hadm_id, stay.icustay_id)
    for table, table_rows in rows.items():
        writer = writers[table]
        if anomalies is not None:
            table_rows = anomalies.inject(table, writer, ids, table_rows)
        writer.write(ids, table_rows)
    return len(items)


_UNITS = {
    678: "?F", 223761: "?F",
    211: "bpm", 220045: "bpm",
    51: "mmHg", 442: "mmHg", 455: "mmHg", 6701: "mmHg", 220179: "mmHg",
    220050: "mmHg", 50821: "mmHg",
}


def read_manifest(data_dir: str | Path) -> dict:
    return json.loads((Path(data_dir) / MANIFEST_NAME).read_text())


# Fahrenheit temperature items and their Celsius twins.
_CELSIUS_ITEMS = {678: 676, 223761: 223762}
# Most coins one row can draw: Celsius, error text, duplicate, jitter.
_INJECT_COINS = 4


class _Anomalies:
    """The anomalies of one ``generate`` pass and their manifest entries."""

    def __init__(self, config: SynthConfig, registry: dict[int, Item]):
        self.config = config
        self.registry = registry
        self.by_icustay: dict[int, StayRow] = {}
        self.by_hadm: dict[int, StayRow] = {}
        # (stay, channel) -> [start hour, length in hours, rows removed]
        self.spans: dict[tuple[int, int], list[int]] = {}
        self.injections = {"celsius": [], "error_text": [], "duplicate": []}

    def admit(self, stays: list[StayRow], dob: datetime) -> None:
        """Take one patient's stays and birth date as the tables hold them:
        keep the stay expected to enter the cohort and draw its spans."""
        (first,) = first_stay_per_patient(stays)
        self.by_icustay, self.by_hadm = {}, {}
        if dob > first.intime or not apply_inclusion(
                first, compute_age(dob, first.intime)):
            return
        self.by_icustay[first.icustay_id] = self.by_hadm[first.hadm_id] = first
        for channel in range(N_CHANNELS):
            rng = SplitMix64(derive_seed(self.config.seed, "inject", "span",
                                         first.icustay_id, channel))
            if rng.uniform() < self.config.missing_span_rate:
                self.spans[(first.icustay_id, channel)] = [
                    rng.randbelow(40), 4 + rng.randbelow(9), 0]

    def inject(self, table: str, writer: _TableWriter, ids: tuple,
               rows: list[tuple]) -> list[Optional[tuple]]:
        """One stay's rows of one table as written: None for a row in a
        missing span; each duplicate is held for the table's end."""
        config = self.config
        first_id = writer.last_id + 1
        coins = leading_uniforms(derive_seed_many(
            config.seed, "inject", table,
            keys=np.arange(first_id, first_id + len(rows))), _INJECT_COINS)
        icustay_id = ids[2] if "ICUSTAY_ID" in TABLES[table] else None
        out: list[Optional[tuple]] = []
        for row_id, (item, charttime, value, valuenum, unit, when), coin in zip(
                count(first_id), rows, coins.tolist()):
            channel, subrole, _ = self.registry[item]
            stay, minute = attribute_event(icustay_id, ids[1], when,
                                           self.by_icustay, self.by_hadm)
            if minute is not None:
                span = self.spans.get((stay.icustay_id, channel))
                if span and span[0] <= minute // 60 < span[0] + span[1]:
                    span[2] += 1
                    out.append(None)
                    continue
            coin = iter(coin)
            fired = {}
            if subrole == "temp_f" and next(coin) < config.celsius_rate:
                fahrenheit = float(value)
                celsius = round((fahrenheit - 32.0) * 5.0 / 9.0, 1)
                item, unit = _CELSIUS_ITEMS[item], "?C"
                value = valuenum = f"{celsius:.1f}"
                fired["celsius"] = {"fahrenheit": fahrenheit,
                                    "celsius": celsius}
            elif next(coin) < config.error_text_rate:
                value, valuenum = "ERROR", ""
                fired["error_text"] = {"channel": channel}
            if "error_text" not in fired and next(coin) < config.duplicate_rate:
                jitter = 0.97 + 0.06 * next(coin)  # stays plausible
                copy = f"{round(float(value) * jitter, 1):.1f}"
                # Shift a few minutes without leaving the hour bucket, which
                # is measured from the stay's admission minute.
                shift = -7 if minute is not None and minute % 60 >= 53 else 7
                writer.hold(ids, (item, _fmt_ts(when + timedelta(minutes=shift)),
                                  copy, copy, unit))
                fired["duplicate"] = {"channel": channel}
            for kind, fields in fired.items():
                if minute is not None:
                    self.injections[kind].append({
                        "table": table, "row_id": row_id,
                        "stay": stay.icustay_id, "hour": minute // 60, **fields})
            out.append((item, charttime, value, valuenum, unit))
        return out

    def manifest_entries(self) -> dict:
        """Entries by kind; tables in file order, which is by name, and each
        table's entries by row id."""
        for entries in self.injections.values():
            entries.sort(key=itemgetter("table", "row_id"))
        return {**self.injections, "missing_span": [
            {"stay": stay, "channel": channel, "start_hour": start,
             "length": length, "removed": removed}
            for (stay, channel), (start, length, removed)
            in sorted(self.spans.items()) if removed
        ]}


def inject_anomalies(data_dir: str | Path, config: SynthConfig) -> dict:
    """The injections ``generate`` recorded in ``data_dir``'s manifest.

    Reads no event table and writes nothing; a manifest of another config
    is a ConfigError. Kept because ``bench/traced.py`` times it after
    ``generate``, and every call the benchmark makes is public API.
    """
    manifest = read_manifest(data_dir)
    if manifest["config"] != asdict(config):
        raise ConfigError(f"{data_dir}: manifest of another synth config")
    return manifest["injections"]


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
    for a in admissions:
        first_admit[a.subject_id] = min(
            a.admittime, first_admit.get(a.subject_id, a.admittime))
    died = {a.subject_id for a in admissions if a.deathtime is not None}
    first_stay_time = {s.subject_id: s.intime
                       for s in first_stay_per_patient(stays)}

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
        summary.mortality_adult = len(died & adult_ages.keys()) / len(adult_ages)

    adult_stays = [s for s in stays if s.subject_id in adult_ages]
    long_stays = [s for s in adult_stays
                  if s.outtime - s.intime >= timedelta(hours=4)]
    first_long = first_stay_per_patient(long_stays)
    summary.icu_stays_adult = len(adult_stays)
    summary.long_icu_stays_adult = len(long_stays)
    summary.first_long_icu_stays_adult = len(first_long)
    summary.avg_los_days = _mean_los_days(adult_stays)
    summary.avg_los_long_days = _mean_los_days(long_stays)
    summary.avg_los_first_long_days = _mean_los_days(first_long)
    return summary


def _mean_los_days(stays: Sequence[StayRow]) -> float:
    days = [(s.outtime - s.intime).total_seconds() / 86400.0 for s in stays]
    return float(np.mean(days)) if days else 0.0
