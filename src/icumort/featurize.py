"""Hourly feature tensors: cleaning, binning, imputation, standardization.

Each included stay becomes a dense 48x13 matrix (rows are hours since ICU
admission, columns are the fixed channel order) plus a 7-element static
vector [age, scheduled-surgical, unscheduled-surgical, medical, aids,
hematologic malignancy, metastatic cancer] and the binary label.

Cleaning rules:
  * temperatures are converted to Fahrenheit;
  * when an hour holds several values of one channel, one is picked with a
    generator keyed by (stay, channel, hour), except urine volumes which are
    summed (they are additive; a flag restores the literal pick);
  * NaN marks an unobserved hour until imputation, which forward-fills
    missing hours, back-fills leading gaps, and gives fully unobserved
    channels the population mean.

Population means and standard deviations come from the training split only
(a flag restores pooling over all splits), and standardization of sequential
values and age is on by default.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .cohort import (
    MEDICAL,
    SCHEDULED_SURGICAL,
    UNSCHEDULED_SURGICAL,
    CohortStay,
    parse_bit,
    parse_split,
)
from .errors import ConfigError, DataError
from .items import CHANNELS, N_CHANNELS, ItemRegistry, parse_numeric, resolve_item
from .seeding import SplitMix64, derive_seed
from .tables import parse_table, read_artifact_rows, table_path, EVENT_SCHEMAS

WINDOW_HOURS = 48
WINDOW_MINUTES = WINDOW_HOURS * 60
STANDARDIZE_EPS = 1e-6

GCS_SUBROLES = ("gcs_verbal", "gcs_motor", "gcs_eyes")

# A per-stay bucket is a list of (minute offset, value, subrole) per channel.
StayEvents = list  # list[list[tuple[int, float, str]]]


@dataclass
class PopulationStats:
    """Per-channel mean/sd of observed values plus age statistics."""

    means: np.ndarray  # (13,)
    sds: np.ndarray  # (13,)
    age_mean: float
    age_sd: float


@dataclass
class FeatureTensor:
    stay_id: int
    seq: np.ndarray  # (48, 13) float64, dense
    static: np.ndarray  # (7,) float64
    label: int


def to_fahrenheit(value: float, subrole: str) -> float:
    """Normalize a temperature reading to Fahrenheit."""
    if subrole == "temp_c":
        return value * 9.0 / 5.0 + 32.0
    if subrole == "temp_f":
        return value
    raise ConfigError(f"not a temperature subrole: {subrole!r}")


def bin_hourly(events: Iterable[tuple[int, float]], seed: int) -> list[float]:
    """Reduce (minute, value) events to one value per hour slot, NaN if none.

    A lone value passes through; several values in one hour are resolved by
    a uniform pick from a generator keyed by (seed, hour), after sorting the
    candidates so the result does not depend on event file order. Events
    outside the 48 hour window are ignored.
    """
    per_hour: list[list[tuple[int, float]]] = [[] for _ in range(WINDOW_HOURS)]
    for minute, value in events:
        if 0 <= minute < WINDOW_MINUTES:
            per_hour[minute // 60].append((minute, value))
    slots = [math.nan] * WINDOW_HOURS
    for hour, candidates in enumerate(per_hour):
        if not candidates:
            continue
        if len(candidates) == 1:
            slots[hour] = candidates[0][1]
            continue
        candidates.sort()
        pick = SplitMix64(derive_seed(seed, hour)).randbelow(len(candidates))
        slots[hour] = candidates[pick][1]
    return slots


def bin_hourly_sum(events: Iterable[tuple[int, float]]) -> list[float]:
    """Sum all contributions that fall in each hour slot (volumes add)."""
    slots = [math.nan] * WINDOW_HOURS
    for minute, value in events:
        if 0 <= minute < WINDOW_MINUTES:
            hour = minute // 60
            slots[hour] = value if math.isnan(slots[hour]) else slots[hour] + value
    return slots


def impute(hours: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Impute a stay's (48, 13) array channel by channel.

    Forward-fill, then back-fill the leading gap; a channel with no
    observation takes its population mean. Observed values are never
    altered. Idempotent: imputing a dense array returns it unchanged.
    """
    if not np.isfinite(means).all():
        raise ConfigError("population means must be finite")
    observed = ~np.isnan(hours)
    # The hour to copy from: the last observed one so far, else the first.
    rows = np.arange(WINDOW_HOURS)[:, None]
    source = np.where(observed, rows, observed.argmax(axis=0))
    filled = hours[np.maximum.accumulate(source), np.arange(hours.shape[1])]
    return np.where(observed.any(axis=0), filled, means)


def compute_population_stats(hours: np.ndarray, ages: Iterable[float]
                             ) -> PopulationStats:
    """Per-channel mean/sd over observed (pre-imputation) hourly values.

    ``hours`` stacks the (48, 13) arrays of the fitting stays; each channel's
    non-NaN values are taken in stay-then-hour order. Uses the population
    standard deviation (ddof 0). A channel with no observation anywhere is a
    configuration error naming the channel.
    """
    means = np.zeros(N_CHANNELS)
    sds = np.zeros(N_CHANNELS)
    for c, channel in enumerate(CHANNELS):
        column = hours[..., c]
        observed = column[~np.isnan(column)]
        if not observed.size:
            raise ConfigError(
                f"channel {channel.name} has no observed value in the "
                "training split; cannot compute its population mean"
            )
        means[c] = observed.mean()
        sds[c] = observed.std()
    age_arr = np.asarray(list(ages), dtype=np.float64)
    if age_arr.size == 0:
        raise ConfigError("no ages available for population statistics")
    return PopulationStats(
        means=means, sds=sds,
        age_mean=float(age_arr.mean()), age_sd=float(age_arr.std()),
    )


def static_vector(stay: CohortStay) -> np.ndarray:
    """Raw (unscaled) static vector in the documented order."""
    return np.array(
        [
            stay.age_years,
            1.0 if stay.admission_category == SCHEDULED_SURGICAL else 0.0,
            1.0 if stay.admission_category == UNSCHEDULED_SURGICAL else 0.0,
            1.0 if stay.admission_category == MEDICAL else 0.0,
            1.0 if stay.aids else 0.0,
            1.0 if stay.hematologic_malignancy else 0.0,
            1.0 if stay.metastatic_cancer else 0.0,
        ],
        dtype=np.float64,
    )


def assemble_hourly(stay_id: int, stay_events: StayEvents, global_seed: int,
                    literal_urine_pick: bool = False) -> np.ndarray:
    """Pre-imputation (48, 13) hourly array of one stay, NaN where unobserved.

    Applies unit conversion, the coma-score component sum (an hour missing
    any component stays NaN), the urine summation rule, and the keyed
    per-hour pick for duplicated measurements.
    """
    columns: list[list[float]] = []
    for channel in CHANNELS:
        events = stay_events[channel.channel_index]
        base_seed = derive_seed(global_seed, "featurize", stay_id,
                                channel.channel_index)
        if channel.name == "GCS":
            verbal, motor, eyes = (
                bin_hourly([(m, v) for m, v, r in events if r == subrole],
                           derive_seed(base_seed, k + 1))
                for k, subrole in enumerate(GCS_SUBROLES)
            )
            columns.append([v + m + e for v, m, e in zip(verbal, motor, eyes)])
        elif channel.name == "TempF":
            converted = [(m, to_fahrenheit(v, r)) for m, v, r in events]
            columns.append(bin_hourly(converted, base_seed))
        elif channel.name == "UrineOutput":
            signed = [(m, -v if r == "urine_in_irrigant" else v)
                      for m, v, r in events]
            if literal_urine_pick:
                columns.append(bin_hourly(signed, base_seed))
            else:
                columns.append(bin_hourly_sum(signed))
        else:
            columns.append(bin_hourly([(m, v) for m, v, _ in events], base_seed))
    return np.array(columns).T


def attribute_event(icustay_id: Optional[int], hadm_id: Optional[int],
                    charttime: datetime, by_icustay: Mapping, by_hadm: Mapping
                    ) -> tuple:
    """The pipeline's only event-to-stay attribution rule.

    An event with a stay id belongs to that cohort stay, with no fallback to
    its admission; an event without one (lab events carry only the admission
    id) belongs to the cohort stay of its admission. The lookups map ids to
    cohort stays, anything with an ``intime``. Returns (stay, minute since
    the stay's INTIME): (None, None) outside the cohort, and (stay, None)
    outside the stay's 48 hour window.
    """
    if icustay_id is not None:
        stay = by_icustay.get(icustay_id)
    else:
        stay = by_hadm.get(hadm_id)
    if stay is None:
        return None, None
    minute = int((charttime - stay.intime).total_seconds() // 60)
    return stay, minute if 0 <= minute < WINDOW_MINUTES else None


def collect_stay_events(data_dir: str | Path, cohort: Sequence[CohortStay],
                        registry: ItemRegistry
                        ) -> tuple[dict[int, StayEvents], dict[str, int]]:
    """Stream the three event tables and bucket usable values per stay.

    An event is kept when its item is in the registry, ``attribute_event``
    places it in a cohort stay's 48 hour window and its value parses as a
    number. Every row read lands in ``events_matched`` or in exactly one of
    the ``events_*`` drop counters.
    """
    by_icustay = {s.icustay_id: s for s in cohort}
    by_hadm = {s.hadm_id: s for s in cohort}
    events: dict[int, StayEvents] = {
        s.icustay_id: [[] for _ in range(N_CHANNELS)] for s in cohort
    }
    counts: dict[str, int] = {
        "events_read": 0,
        "events_matched": 0,
        "events_unlisted_item": 0,
        "events_outside_cohort": 0,
        "events_outside_window": 0,
        "events_unparseable_value": 0,
        "events_malformed": 0,
    }
    for table in ("chartevents", "labevents", "outputevents"):
        path = table_path(data_dir, table)
        rows, stats = parse_table(path, EVENT_SCHEMAS[table])
        for event in rows:
            resolved = resolve_item(registry, event.item_id)
            if resolved is None:
                counts["events_unlisted_item"] += 1
                continue
            stay, minute = attribute_event(event.icustay_id, event.hadm_id,
                                           event.charttime, by_icustay, by_hadm)
            if stay is None:
                counts["events_outside_cohort"] += 1
                continue
            if minute is None:
                counts["events_outside_window"] += 1
                continue
            value = parse_numeric(event.value_num, event.value_text)
            if value is None:
                counts["events_unparseable_value"] += 1
                continue
            channel, subrole = resolved
            events[stay.icustay_id][channel.channel_index].append(
                (minute, value, subrole)
            )
            counts["events_matched"] += 1
        counts["events_read"] += stats.rows_read
        counts["events_malformed"] += stats.rows_dropped
    return events, counts


def featurize_cohort(
    cohort: Sequence[CohortStay],
    splits: Mapping[int, str],
    events: Mapping[int, StayEvents],
    global_seed: int,
    *,
    literal_means: bool = False,
    literal_urine_pick: bool = False,
    standardize: bool = True,
) -> tuple[list[FeatureTensor], PopulationStats]:
    """Bin every stay, fit population statistics, and emit dense tensors.

    Statistics come from the training split unless ``literal_means`` pools
    all splits. Stays are processed in stay-id order; all randomness is
    keyed, so the output is independent of input ordering.
    """
    ordered = sorted(cohort, key=lambda s: s.icustay_id)
    hours = np.empty((len(ordered), WINDOW_HOURS, N_CHANNELS))
    for x, stay in zip(hours, ordered):
        x[...] = assemble_hourly(stay.icustay_id, events[stay.icustay_id],
                                 global_seed, literal_urine_pick)
    fit = np.array([literal_means or splits[s.subject_id] == "train"
                    for s in ordered], dtype=bool)
    if not fit.any():
        raise ConfigError("training split is empty; cannot fit population stats")
    stats = compute_population_stats(
        hours[fit], (s.age_years for s, f in zip(ordered, fit) if f))
    # One stay at a time and in place: a whole-stack impute would hold
    # several more copies of the stack at once.
    for x in hours:
        x[...] = impute(x, stats.means)
    static = np.stack([static_vector(s) for s in ordered])
    if standardize:
        hours -= stats.means
        hours /= np.maximum(stats.sds, STANDARDIZE_EPS)
        static[:, 0] -= stats.age_mean
        static[:, 0] /= max(stats.age_sd, STANDARDIZE_EPS)
    finite = np.isfinite(hours).all(axis=(1, 2)) & np.isfinite(static).all(axis=1)
    if not finite.all():
        stay = ordered[int(np.argmin(finite))]
        raise DataError(f"non-finite feature for stay {stay.icustay_id}")
    tensors = [FeatureTensor(s.icustay_id, x, v, int(s.label_mortality))
               for s, x, v in zip(ordered, hours, static)]
    return tensors, stats


_SEQ_HEADER = ["stay_id", "hour"] + [f"c{i}" for i in range(N_CHANNELS)]
_STATIC_HEADER = ["stay_id", "age_s", "cat_ss", "cat_us", "cat_med",
                  "aids", "hem", "met", "label", "split"]


def write_features(out_dir: str | Path, tensors: Sequence[FeatureTensor],
                   split_by_stay: Mapping[int, str]) -> tuple[Path, Path]:
    """Write the two feature CSVs (9 significant digits, stay-id order)."""
    out_dir = Path(out_dir)
    seq_path = out_dir / "features_seq.csv"
    static_path = out_dir / "features_static.csv"
    ordered = sorted(tensors, key=lambda t: t.stay_id)
    with open(seq_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SEQ_HEADER)
        for t in ordered:
            for hour in range(WINDOW_HOURS):
                writer.writerow(
                    [t.stay_id, hour] + [f"{v:.9g}" for v in t.seq[hour]]
                )
    with open(static_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_STATIC_HEADER)
        for t in ordered:
            writer.writerow(
                [t.stay_id]
                + [f"{v:.9g}" for v in t.static]
                + [t.label, split_by_stay[t.stay_id]]
            )
    return seq_path, static_path


def _finite_floats(fields: Sequence[str]) -> list[float]:
    values = [float(v) for v in fields]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return values


def read_features(work_dir: str | Path
                  ) -> tuple[list[FeatureTensor], dict[int, str]]:
    """Read feature CSVs back; returns (tensors, split by stay_id).

    A row that cannot have been written by ``write_features`` (an hour
    outside 0-47, a repeated stay or hour, a non-finite value, a label other
    than 0/1, an unknown split) raises DataError naming the file and line,
    as does a stay without all 48 hourly rows or without a static row.
    """
    work_dir = Path(work_dir)
    seq_path = work_dir / "features_seq.csv"
    static_path = work_dir / "features_static.csv"
    seq_by_stay: dict[int, np.ndarray] = {}
    try:
        for line, row in read_artifact_rows(seq_path, _SEQ_HEADER):
            stay_id, hour = int(row[0]), int(row[1])
            if not 0 <= hour < WINDOW_HOURS:
                raise ValueError(f"hour {hour} is outside 0-{WINDOW_HOURS - 1}")
            seq = seq_by_stay.get(stay_id)
            if seq is None:
                seq = seq_by_stay[stay_id] = np.full(
                    (WINDOW_HOURS, N_CHANNELS), np.nan
                )
            elif not math.isnan(seq[hour, 0]):
                raise ValueError(f"repeated hour {hour} of stay {stay_id}")
            seq[hour] = _finite_floats(row[2:])
    except ValueError as exc:
        raise DataError(f"{seq_path}:{line}: {exc}") from exc
    tensors: list[FeatureTensor] = []
    split_by_stay: dict[int, str] = {}
    try:
        for line, row in read_artifact_rows(static_path, _STATIC_HEADER):
            stay_id = int(row[0])
            seq = seq_by_stay.get(stay_id)
            if stay_id in split_by_stay:
                raise ValueError(f"repeated stay {stay_id}")
            if seq is None or np.isnan(seq).any():
                raise ValueError(f"incomplete hourly rows for stay {stay_id}")
            tensors.append(
                FeatureTensor(
                    stay_id=stay_id,
                    seq=seq,
                    static=np.array(_finite_floats(row[1:8])),
                    label=int(parse_bit(row[8])),
                )
            )
            split_by_stay[stay_id] = parse_split(row[9])
    except ValueError as exc:
        raise DataError(f"{static_path}:{line}: {exc}") from exc
    if len(tensors) != len(seq_by_stay):
        raise DataError(f"{seq_path} holds stays that {static_path} lacks")
    return tensors, split_by_stay
