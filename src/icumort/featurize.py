"""Hourly feature tensors: cleaning, binning, imputation, standardization.

Each included stay becomes a dense 48x13 matrix (rows are hours since ICU
admission, columns are the fixed channel order) plus a 7-element static
vector [age, scheduled-surgical, unscheduled-surgical, medical, aids,
hematologic malignancy, metastatic cancer] and the binary label.

The usable events become one ``MatchedEvents`` record of four flat arrays
in file order: stay id, slot, minute and value. Slots 0-12 are the
channels, 13-15 the coma-score parts. Collection converts temperatures to
Fahrenheit and makes irrigant inflow negative. One binning rule groups all
stays' events by cell (stay, hour, slot): a lone value passes through,
urine volumes are summed (a flag restores the literal pick), and any other
cell picks one value with a generator keyed by (stay, channel, hour). The
coma score sums its three parts, NaN in an hour missing any of them.

NaN marks an unobserved hour until imputation, which forward-fills missing
hours, back-fills leading gaps, and gives fully unobserved channels the
population mean. Population means and standard deviations come from the
training split only (a flag restores pooling over all splits), and
standardization of sequential values and age is on by default.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
from .items import CHANNELS, N_CHANNELS, Item, parse_numeric
from .seeding import SplitMix64, derive_seed
from .tables import (EVENT_SCHEMAS, finite_float, parse_table,
                     read_artifact_rows, table_path, write_artifact_rows)

WINDOW_HOURS = 48
WINDOW_MINUTES = WINDOW_HOURS * 60
STANDARDIZE_EPS = 1e-6

# The coma-score parts follow the channels as slots 13-15.
GCS_PART_SLOTS = {"gcs_verbal": 13, "gcs_motor": 14, "gcs_eyes": 15}
N_SLOTS = N_CHANNELS + len(GCS_PART_SLOTS)
URINE_SLOT = CHANNELS.index("UrineOutput")


class MatchedEvents(NamedTuple):
    """Usable events in file order, one entry per event in each array."""

    stay: array  # "q": ICU stay id
    slot: array  # "b": channel index, or a coma-score part slot
    minute: array  # "i": minutes since the stay's INTIME, in 0..2879
    value: array  # "d": temperatures in Fahrenheit, irrigant inflow negative


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
                f"channel {channel} has no observed value in the "
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


def bin_events(events: MatchedEvents, stay_ids: Sequence[int],
               global_seed: int, literal_urine_pick: bool = False
               ) -> np.ndarray:
    """Pre-imputation (stays, 48, 13) hourly array, NaN where unobserved.

    Rows follow the ascending ``stay_ids``; other stays' events are ignored.
    A cell (stay, hour, slot) with one value passes it through. A urine cell
    sums its values in file order unless ``literal_urine_pick``. Any other
    cell takes a uniform pick, keyed by (stay, channel[, part], hour), among
    its candidates sorted by (minute, value) with ties in file order, so the
    result does not depend on event file order. The GCS column is the sum
    of the three part slots.
    """
    ids = np.asarray(stay_ids, dtype=np.int64)
    stay = np.asarray(events.stay)
    known = np.isin(stay, ids)
    minute = np.asarray(events.minute)[known]
    value = np.asarray(events.value)[known]
    slot = np.asarray(events.slot)[known]
    cell = ((np.searchsorted(ids, stay[known]) * WINDOW_HOURS + minute // 60)
            * N_SLOTS + slot)
    summed = (slot == URINE_SLOT) & (not literal_urine_pick)
    # A summed cell keeps file order: its minute and value keys are zeroed.
    order = np.lexsort((np.where(summed, 0.0, value),
                        np.where(summed, 0, minute), cell))
    cell, value, summed = cell[order], value[order], summed[order]
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    count = np.diff(first, append=cell.size)
    binned = value[first]
    summed = summed[first]
    # A left fold from the first volume, one position at a time.
    for k in range(1, int(count.max(initial=1))):
        more = summed & (count > k)
        binned[more] += value[first[more] + k]
    for i in np.flatnonzero(~summed & (count > 1)):
        row, hour, s = map(int, np.unravel_index(
            cell[first[i]], (ids.size, WINDOW_HOURS, N_SLOTS)))
        part = s >= N_CHANNELS  # a coma-score part hangs off channel 0
        seed = derive_seed(global_seed, "featurize", int(ids[row]),
                           0 if part else s)
        if part:
            seed = derive_seed(seed, s - N_CHANNELS + 1)
        pick = SplitMix64(derive_seed(seed, hour)).randbelow(int(count[i]))
        binned[i] = value[first[i] + pick]
    grid = np.full((ids.size * WINDOW_HOURS, N_SLOTS), np.nan)
    grid.flat[cell[first]] = binned
    grid[:, 0] = grid[:, 13] + grid[:, 14] + grid[:, 15]  # verbal+motor+eyes
    return grid[:, :N_CHANNELS].reshape(ids.size, WINDOW_HOURS, N_CHANNELS)


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
                        registry: Mapping[int, Item]
                        ) -> tuple[MatchedEvents, dict[str, int]]:
    """Stream the three event tables and keep the usable events.

    An event is kept when its item is in the registry, ``attribute_event``
    places it in a cohort stay's 48 hour window and its value parses as a
    number. Every row read lands in ``events_matched`` or in exactly one of
    the ``events_*`` drop counters.
    """
    by_icustay = {s.icustay_id: s for s in cohort}
    by_hadm = {s.hadm_id: s for s in cohort}
    events = MatchedEvents(array("q"), array("b"), array("i"), array("d"))
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
            item = registry.get(event.item_id)
            if item is None:
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
            channel, subrole, _ = item
            if subrole == "temp_c":
                value = value * 9.0 / 5.0 + 32.0
            elif subrole == "urine_in_irrigant":
                value = -value
            events.stay.append(stay.icustay_id)
            events.slot.append(GCS_PART_SLOTS.get(subrole, channel))
            events.minute.append(minute)
            events.value.append(value)
            counts["events_matched"] += 1
        counts["events_read"] += stats.rows_read
        counts["events_malformed"] += stats.rows_dropped
    return events, counts


def featurize_cohort(
    cohort: Sequence[CohortStay],
    splits: Mapping[int, str],
    events: MatchedEvents,
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
    hours = bin_events(events, [s.icustay_id for s in ordered], global_seed,
                       literal_urine_pick)
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
STATIC_FEATURES = ("age_s", "cat_ss", "cat_us", "cat_med", "aids", "hem", "met")
_STATIC_HEADER = ["stay_id", *STATIC_FEATURES, "label", "split"]


def write_features(out_dir: str | Path, tensors: Sequence[FeatureTensor],
                   split_by_stay: Mapping[int, str]) -> None:
    """Write the two feature CSVs (stay-id order)."""
    ordered = sorted(tensors, key=lambda t: t.stay_id)
    write_artifact_rows(Path(out_dir) / "features_seq.csv", _SEQ_HEADER, (
        [t.stay_id, hour, *values]
        for t in ordered for hour, values in enumerate(t.seq.tolist())
    ))
    write_artifact_rows(Path(out_dir) / "features_static.csv", _STATIC_HEADER, (
        [t.stay_id, *t.static.tolist(), t.label, split_by_stay[t.stay_id]]
        for t in ordered
    ))


def _finite_floats(fields: Sequence[str]) -> list[float]:
    values = [finite_float(v) for v in fields]
    if None in values:
        raise ValueError(f"not a finite number: {fields[values.index(None)]!r}")
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

    def parse_seq_row(row: list[str]) -> None:
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

    read_artifact_rows(seq_path, _SEQ_HEADER, parse_seq_row)
    tensors: list[FeatureTensor] = []
    split_by_stay: dict[int, str] = {}

    def parse_static_row(row: list[str]) -> None:
        stay_id, *static, label, split = row
        stay_id = int(stay_id)
        seq = seq_by_stay.get(stay_id)
        if stay_id in split_by_stay:
            raise ValueError(f"repeated stay {stay_id}")
        if seq is None or np.isnan(seq).any():
            raise ValueError(f"incomplete hourly rows for stay {stay_id}")
        tensors.append(FeatureTensor(stay_id=stay_id, seq=seq,
                                     static=np.array(_finite_floats(static)),
                                     label=int(parse_bit(label))))
        split_by_stay[stay_id] = parse_split(split)

    read_artifact_rows(static_path, _STATIC_HEADER, parse_static_row)
    if len(tensors) != len(seq_by_stay):
        raise DataError(f"{seq_path} holds stays that {static_path} lacks")
    return tensors, split_by_stay
