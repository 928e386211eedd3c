import csv
import math
import re
from array import array
from datetime import datetime, timedelta

import numpy as np
import pytest

from icumort.cohort import CohortStay, MEDICAL
from icumort.errors import ConfigError, DataError
from icumort.featurize import (
    GCS_PART_SLOTS,
    FeatureTensor,
    MatchedEvents,
    bin_events,
    collect_stay_events,
    compute_population_stats,
    featurize_cohort,
    impute,
    read_features,
    static_vector,
    write_features,
)
from icumort.items import CHANNELS, N_CHANNELS, load_registry
from icumort.seeding import SplitMix64, derive_seed

T0 = datetime(2101, 1, 1)


def make_stay(stay_id=100, label=False, age=50.0):
    return CohortStay(
        icustay_id=stay_id,
        subject_id=stay_id,
        hadm_id=10,
        intime=T0,
        outtime=T0 + timedelta(hours=72),
        age_years=age,
        admission_category=MEDICAL,
        aids=False,
        hematologic_malignancy=False,
        metastatic_cancer=True,
        label_mortality=label,
    )


def unobserved():
    return np.full((48, N_CHANNELS), np.nan)


HEART_RATE, URINE = 2, 6


def matched(*rows):
    """A MatchedEvents record of (stay, slot, minute, value) rows in order."""
    stay, slot, minute, value = zip(*rows) if rows else ((), (), (), ())
    return MatchedEvents(array("q", stay), array("b", slot),
                         array("i", minute), array("d", value))


class TestToFahrenheit:
    def test_celsius_conversion(self, registry, tmp_path):
        events = [_event(676, 60, 37.0), _event(223762, 120, 0.0)]
        hours = binned_from_csv(tmp_path, make_stay(), events, registry, 1)
        assert hours[1, 3] == pytest.approx(98.6)
        assert hours[2, 3] == 32.0

    def test_fahrenheit_passthrough(self, registry, tmp_path):
        hours = binned_from_csv(tmp_path, make_stay(), [_event(678, 60, 98.6)],
                                registry, 1)
        assert hours[1, 3] == 98.6

    def test_other_subrole_rejected(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("item_id,channel,subrole,source_table\n"
                        "678,TempF,plain,chartevents\n")
        with pytest.raises(ConfigError, match="does not fit channel TempF"):
            load_registry(path)


class TestBinHourly:
    def test_single_event_lands_in_its_hour(self):
        hours = bin_events(matched((1, HEART_RATE, 3 * 60 + 15, 80.0)), [1], 1)
        assert hours.shape == (1, 48, N_CHANNELS)
        assert hours[0, 3, HEART_RATE] == 80.0
        hours[0, 3, HEART_RATE] = np.nan
        assert np.isnan(hours).all()

    def test_duplicate_hour_pick_is_deterministic(self):
        events = [(1, HEART_RATE, 5 * 60 + 1, 10.0),
                  (1, HEART_RATE, 5 * 60 + 40, 20.0)]
        first = bin_events(matched(*events), [1], 7)[0, 5, HEART_RATE]
        assert first in (10.0, 20.0)
        assert bin_events(matched(*events), [1], 7)[0, 5, HEART_RATE] == first
        assert bin_events(matched(*reversed(events)), [1],
                          7)[0, 5, HEART_RATE] == first

    def test_pick_varies_with_seed(self):
        events = matched(*((1, HEART_RATE, 0, float(v)) for v in range(10)))
        picks = {bin_events(events, [1], s)[0, 0, HEART_RATE]
                 for s in range(30)}
        assert len(picks) > 1

    def test_event_at_window_end_is_ignored(self, registry, tmp_path):
        hours = binned_from_csv(tmp_path, make_stay(),
                                [_event(211, 48 * 60, 1.0)], registry, 1)
        assert np.isnan(hours).all()

    def test_sum_binning_adds_volumes(self):
        events = matched((1, URINE, 120, 100.0), (1, URINE, 130, 50.0),
                         (1, URINE, 300, 30.0))
        slots = bin_events(events, [1], 1)[0, :, URINE]
        assert slots[2] == 150.0
        assert slots[5] == 30.0
        assert math.isnan(slots[0])

    def test_other_stays_events_are_ignored(self):
        events = matched((1, HEART_RATE, 0, 70.0), (2, HEART_RATE, 0, 80.0),
                         (3, HEART_RATE, 0, 90.0))
        hours = bin_events(events, [1, 3], 1)
        assert list(hours[:, 0, HEART_RATE]) == [70.0, 90.0]


def gcs_hours(verbal, motor, eyes):
    """The GCS column binned from {hour: value} events of each component."""
    rows = [(1, slot, hour * 60 + 5, value)
            for slot, values in zip(GCS_PART_SLOTS.values(),
                                    (verbal, motor, eyes))
            for hour, value in values.items()]
    return bin_events(matched(*rows), [1], global_seed=3)[0, :, 0]


class TestAggregateGcs:
    def test_full_components_sum(self):
        assert gcs_hours({0: 5.0}, {0: 6.0}, {0: 4.0})[0] == 15.0

    def test_minimal_score(self):
        ones = dict.fromkeys(range(48), 1.0)
        assert list(gcs_hours(ones, ones, ones)) == [3.0] * 48

    def test_any_missing_component_blanks_the_hour(self):
        out = gcs_hours({2: 5.0}, dict.fromkeys(range(3), 6.0),
                        dict.fromkeys(range(3), 4.0))
        assert np.isnan(out[0]) and np.isnan(out[1]) and out[2] == 15.0
        assert np.isnan(out[3:]).all()


class TestImpute:
    def test_forward_then_backward_trace(self):
        hours = unobserved()
        hours[[1, 4], 2] = [7.0, 9.0]
        out = impute(hours, np.zeros(N_CHANNELS))
        assert list(out[:, 2]) == [7.0, 7.0, 7.0, 7.0] + [9.0] * 44

    def test_all_missing_takes_population_mean(self):
        means = np.arange(N_CHANNELS) + 80.0
        out = impute(unobserved(), means)
        assert np.array_equal(out, np.broadcast_to(means, (48, N_CHANNELS)))

    def test_fully_observed_unchanged(self):
        hours = np.arange(48.0 * N_CHANNELS).reshape(48, N_CHANNELS)
        assert np.array_equal(impute(hours, np.zeros(N_CHANNELS)), hours)

    def test_idempotent_and_preserves_observations(self):
        hours = unobserved()
        hours[[1, 3], 0] = [3.0, 8.0]
        hours[10, 5] = 2.0
        once = impute(hours, np.full(N_CHANNELS, 5.0))
        assert np.array_equal(impute(once, np.full(N_CHANNELS, 5.0)), once)
        assert once[1, 0] == 3.0 and once[3, 0] == 8.0 and once[10, 5] == 2.0
        assert not np.isnan(once).any()

    def test_matches_a_loop_reference(self):
        def reference(column, mean):
            observed = [v for v in column if not math.isnan(v)]
            if not observed:
                return [mean] * len(column)
            out, last = [], observed[0]
            for v in column:
                last = last if math.isnan(v) else v
                out.append(last)
            return out

        rng = np.random.default_rng(0)
        for density in (0.0, 0.05, 0.3, 0.9, 1.0):
            hours = rng.normal(size=(48, N_CHANNELS))
            hours[rng.random((48, N_CHANNELS)) >= density] = np.nan
            means = rng.normal(size=N_CHANNELS)
            out = impute(hours, means)
            for c in range(N_CHANNELS):
                assert list(out[:, c]) == reference(list(hours[:, c]), means[c])

    def test_non_finite_mean_is_an_error(self):
        with pytest.raises(ConfigError):
            impute(unobserved(), np.full(N_CHANNELS, np.inf))


class TestPopulationStats:
    def test_two_point_channel(self):
        # Two stays, one observation each in channel 0.
        hours = np.stack([unobserved(), unobserved()])
        hours[:, 0, 1:] = 1.0
        hours[0, 0, 0] = 10.0
        hours[1, 7, 0] = 20.0
        stats = compute_population_stats(hours, ages=[40.0, 60.0])
        assert stats.means[0] == 15.0
        assert stats.sds[0] == 5.0
        assert (stats.age_mean, stats.age_sd) == (50.0, 10.0)

    def test_single_observation_has_zero_sd(self):
        hours = unobserved()[None]
        hours[0, 0] = 7.0
        stats = compute_population_stats(hours, ages=[40.0])
        assert stats.means[3] == 7.0
        assert stats.sds[3] == 0.0

    def test_empty_channel_is_an_error_naming_it(self):
        hours = unobserved()[None]
        hours[0, 0, :12] = 7.0
        with pytest.raises(ConfigError, match="Bilirubin"):
            compute_population_stats(hours, ages=[40.0])


def observing(stay_id, value):
    """Event rows that observe every channel once, at hour 0, at value."""
    verbal, motor, eyes = GCS_PART_SLOTS.values()
    return [(stay_id, slot, 0, value) for slot in range(1, N_CHANNELS)] + [
        (stay_id, verbal, 0, value - 2.0), (stay_id, motor, 0, 1.0),
        (stay_id, eyes, 0, 1.0)]


def featurize_values(stays, values, splits, **options):
    """featurize_cohort over stays that each observe every channel at a value."""
    events = matched(*(row for s, v in zip(stays, values)
                       for row in observing(s.icustay_id, v)))
    splits = {s.subject_id: split for s, split in zip(stays, splits)}
    return featurize_cohort(stays, splits, events, global_seed=1, **options)


class TestStandardize:
    def test_mean_maps_to_zero_and_flags_pass_through(self):
        stays = [make_stay(101, age=40.0), make_stay(102, age=60.0),
                 make_stay(103)]
        tensors, stats = featurize_values(stays, [2.0, 6.0, 4.0],
                                          ["train", "train", "val"])
        assert list(stats.means) == [4.0] * N_CHANNELS
        assert list(stats.sds) == [2.0] * N_CHANNELS
        low, high, middle = tensors
        assert np.all(low.seq == -1.0) and np.all(high.seq == 1.0)
        assert np.all(middle.seq == 0.0)
        assert [t.static[0] for t in tensors] == [-1.0, 1.0, 0.0]
        for t in tensors:
            assert list(t.static[1:]) == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]

    def test_unstandardized_tensors_keep_raw_values(self):
        stays = [make_stay(101, age=40.0), make_stay(102)]
        tensors, _ = featurize_values(stays, [2.0, 6.0], ["train", "val"],
                                      standardize=False)
        assert np.all(tensors[1].seq == 6.0)
        assert tensors[0].static[0] == 40.0

    def test_constant_channel_guard(self):
        # sd 0 channels hold a constant, so entries sit at the mean and the
        # guarded denominator never blows up.
        stays = [make_stay(101), make_stay(102)]
        tensors, stats = featurize_values(stays, [9.0, 9.0], ["train", "val"])
        assert np.all(stats.sds == 0.0)
        for t in tensors:
            assert np.all(t.seq == 0.0)
            assert np.all(np.isfinite(t.seq))

    def test_non_finite_value_is_a_data_error(self):
        stays = [make_stay(101), make_stay(102)]
        with pytest.raises(DataError, match="non-finite feature for stay 102"):
            featurize_values(stays, [9.0, np.inf], ["train", "val"])

    def test_empty_training_split_is_an_error(self):
        with pytest.raises(ConfigError, match="training split is empty"):
            featurize_values([make_stay(101)], [9.0], ["val"])


_EVENT_HEADER = ["SUBJECT_ID", "HADM_ID", "ICUSTAY_ID", "ITEMID", "CHARTTIME",
                 "VALUE", "VALUENUM"]


def _field(value):
    return "" if value is None else value


def _event(item_id, minute, value, stay_id=100, text=None, hadm_id=10):
    """One event-table row; a None id or value leaves its field blank."""
    charttime = (T0 + timedelta(minutes=minute)).strftime("%Y-%m-%d %H:%M:%S")
    return [1, _field(hadm_id), _field(stay_id), item_id, charttime,
            _field(value) if text is None else text, _field(value)]


def write_events(data_dir, registry, events):
    """Write rows to the event table the registry names for their item."""
    data_dir.mkdir(parents=True, exist_ok=True)
    by_table = {"chartevents": [], "labevents": [], "outputevents": []}
    for row in events:
        by_table[registry.item_table.get(row[3], "chartevents")].append(row)
    for table, rows in by_table.items():
        with open(data_dir / f"{table.upper()}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_EVENT_HEADER)
            writer.writerows(rows)


def binned_from_csv(data_dir, stay, events, registry, global_seed):
    """One stay's pre-imputation hours by the pipeline's path from CSVs."""
    write_events(data_dir, registry, events)
    found, _ = collect_stay_events(data_dir, [stay], registry)
    return bin_events(found, [stay.icustay_id], global_seed)[0]


def hours_from_csv(data_dir, stay, events, registry, global_seed, mean=0.0):
    """One stay's imputed hours by the pipeline's path from event CSVs."""
    hours = binned_from_csv(data_dir, stay, events, registry, global_seed)
    return impute(hours, np.full(N_CHANNELS, mean))


@pytest.fixture(scope="module")
def registry():
    return load_registry()


class TestBuildTensor:
    def test_zero_events_gives_population_mean_matrix(self, registry,
                                                      tmp_path):
        hours = hours_from_csv(tmp_path, make_stay(), [], registry,
                               global_seed=1, mean=5.0)
        assert np.all(hours == 5.0)
        static = static_vector(make_stay())
        assert static[0] == 50.0
        assert static[1:4].sum() == 1.0

    def test_golden_hand_traced_matrix(self, registry, tmp_path):
        # Hand-placed events across five channels; everything else stays at
        # the population mean. Expected columns are written out literally.
        events = [
            _event(211, 3 * 60 + 10, 80.0),              # heart rate, hour 3
            _event(676, 5 * 60, 37.0),                    # 37 C -> 98.6 F
            _event(723, 10, 5.0),                         # coma components
            _event(454, 20, 6.0),
            _event(184, 30, 4.0),
            _event(40055, 2 * 60 + 5, 100.0),             # urine, summed
            _event(40055, 2 * 60 + 50, 50.0),
            _event(51006, 10 * 60, 20.0),                 # BUN step change
            _event(51006, 40 * 60, 30.0),
        ]
        hours = hours_from_csv(tmp_path, make_stay(), events, registry,
                               global_seed=1)
        assert list(hours[:, 2]) == [80.0] * 48
        assert list(hours[:, 3]) == [98.6] * 48
        assert list(hours[:, 0]) == [15.0] * 48
        assert list(hours[:, 6]) == [150.0] * 48
        assert list(hours[:, 7]) == [20.0] * 40 + [30.0] * 8
        for idle in (1, 4, 5, 8, 9, 10, 11, 12):
            assert list(hours[:, idle]) == [0.0] * 48

    def test_label_passthrough(self):
        stays = [make_stay(101, label=True), make_stay(102)]
        tensors, _ = featurize_values(stays, [1.0, 2.0], ["train", "val"])
        assert [(t.stay_id, t.label) for t in tensors] == [(101, 1), (102, 0)]

    def test_irrigant_inflow_subtracted(self, registry, tmp_path):
        events = [
            _event(227489, 60, 200.0),  # irrigant/urine out
            _event(227488, 61, 80.0),   # irrigant in
        ]
        hours = hours_from_csv(tmp_path, make_stay(), events, registry,
                               global_seed=1)
        assert hours[1, 6] == 120.0

    def test_window_and_stay_filtering(self, registry, tmp_path):
        events = [
            _event(211, 48 * 60, 99.0),           # at window end: ignored
            _event(211, 60, 80.0, stay_id=999),   # other stay: ignored
        ]
        hours = hours_from_csv(tmp_path, make_stay(), events, registry,
                               global_seed=1, mean=1.0)
        assert np.all(hours[:, 2] == 1.0)

    def test_deterministic_across_runs(self, registry, tmp_path):
        events = [
            _event(211, 5 * 60 + 1, 70.0),
            _event(211, 5 * 60 + 2, 90.0),
        ]
        a = hours_from_csv(tmp_path / "a", make_stay(), events, registry,
                           global_seed=42)
        b = hours_from_csv(tmp_path / "b", make_stay(),
                           list(reversed(events)), registry, global_seed=42)
        assert np.array_equal(a, b)


_BAD_TIME = _event(211, 60, 80.0)
_BAD_TIME[4] = "not a time"


@pytest.mark.parametrize("row, counter, bucket", [
    (_event(211, 60, 80.0), "events_matched", (2, 60, 80.0)),
    # Lab rows carry no stay id: the admission id names the stay.
    (_event(51006, 600, 20.0, stay_id=None), "events_matched", (7, 600, 20.0)),
    (_event(999999, 60, 1.0), "events_unlisted_item", None),
    (_event(211, 60, 80.0, stay_id=999), "events_outside_cohort", None),
    (_event(51006, 600, 20.0, stay_id=None, hadm_id=77),
     "events_outside_cohort", None),
    (_event(211, 60, 80.0, stay_id=None, hadm_id=None),
     "events_outside_cohort", None),
    (_event(211, -1, 80.0), "events_outside_window", None),
    (_event(211, 48 * 60, 80.0), "events_outside_window", None),
    (_event(211, 60, None, text="ERROR"), "events_unparseable_value", None),
    (_BAD_TIME, "events_malformed", None),
])
def test_collect_counts_each_row_once(registry, tmp_path, row, counter,
                                      bucket):
    other = make_stay(stay_id=200)
    other.subject_id, other.hadm_id = 2, 20
    write_events(tmp_path, registry, [row])
    events, counts = collect_stay_events(tmp_path, [make_stay(), other],
                                         registry)
    assert counts == {name: int(name in ("events_read", counter))
                      for name in counts}
    assert len(counts) == 7
    assert events == (matched() if bucket is None else matched((100, *bucket)))


def test_gcs_partial_components():
    verbal, motor, eyes = GCS_PART_SLOTS.values()
    events = matched(
        (1, verbal, 10, 5.0),
        (1, motor, 20, 6.0),
        # eyes missing in hour 0
        (1, verbal, 70, 4.0),
        (1, motor, 80, 6.0),
        (1, eyes, 90, 4.0),
    )
    hours = bin_events(events, [1], global_seed=3)[0]
    assert hours.shape == (48, N_CHANNELS)
    assert np.isnan(hours[0, 0])
    assert hours[1, 0] == 14.0
    assert np.isnan(hours[:, 1:]).all()


# The per-column loop binning that bin_events replaced, kept as a reference:
# per-stay lists of (minute, value, subrole) tuples for each channel.
def reference_bin_hourly(events, seed):
    per_hour = [[] for _ in range(48)]
    for minute, value in events:
        per_hour[minute // 60].append((minute, value))
    slots = [math.nan] * 48
    for hour, candidates in enumerate(per_hour):
        if len(candidates) == 1:
            slots[hour] = candidates[0][1]
        elif candidates:
            candidates.sort()
            pick = SplitMix64(derive_seed(seed, hour)).randbelow(len(candidates))
            slots[hour] = candidates[pick][1]
    return slots


def reference_bin_hourly_sum(events):
    slots = [math.nan] * 48
    for minute, value in events:
        hour = minute // 60
        slots[hour] = value if math.isnan(slots[hour]) else slots[hour] + value
    return slots


def reference_assemble_hourly(stay_id, stay_events, global_seed,
                              literal_urine_pick):
    columns = []
    for channel in CHANNELS:
        events = stay_events[channel.channel_index]
        base_seed = derive_seed(global_seed, "featurize", stay_id,
                                channel.channel_index)
        if channel.name == "GCS":
            verbal, motor, eyes = (
                reference_bin_hourly([(m, v) for m, v, r in events
                                      if r == subrole],
                                     derive_seed(base_seed, k + 1))
                for k, subrole in enumerate(GCS_PART_SLOTS))
            columns.append([v + m + e for v, m, e in zip(verbal, motor, eyes)])
        elif channel.name == "TempF":
            converted = [(m, v * 9.0 / 5.0 + 32.0 if r == "temp_c" else v)
                         for m, v, r in events]
            columns.append(reference_bin_hourly(converted, base_seed))
        elif channel.name == "UrineOutput":
            signed = [(m, -v if r == "urine_in_irrigant" else v)
                      for m, v, r in events]
            columns.append(reference_bin_hourly(signed, base_seed)
                           if literal_urine_pick
                           else reference_bin_hourly_sum(signed))
        else:
            columns.append(reference_bin_hourly([(m, v) for m, v, _ in events],
                                                base_seed))
    return np.array(columns).T


@pytest.mark.parametrize("literal_urine_pick", [False, True])
def test_bin_events_matches_a_loop_reference(registry, tmp_path,
                                             literal_urine_pick):
    rng = np.random.default_rng(5)
    items = sorted(registry.entries)
    eyes = [i for i in items if registry.entries[i][1] == "gcs_eyes"]
    table_order = ["chartevents", "labevents", "outputevents"]
    stays = [make_stay(stay_id) for stay_id in (300, 100, 200)]
    gcs_observed = False
    for density in (0.1, 1.0, 4.0, 12.0):
        rows = []
        for stay in stays:
            # Stay 200 drops every coma-score eyes item.
            allowed = [i for i in items
                       if stay.icustay_id != 200 or i not in eyes]
            # Few distinct hours and minutes, so cells hold several values
            # and candidates tie on minute.
            hours = rng.integers(0, 48, size=4)
            for _ in range(int(density * 48)):
                minute = int(rng.choice(hours)) * 60 + int(rng.integers(0, 3))
                value = round(float(rng.random()) * 4.0, 1)
                rows.append((int(rng.choice(allowed)), minute, value,
                             stay.icustay_id))
        data = tmp_path / f"density{density}"
        write_events(data, registry, [_event(item, minute, value, stay_id=sid)
                                      for item, minute, value, sid in rows])
        found, _ = collect_stay_events(data, stays, registry)
        ids = [100, 200, 300]
        seed = int(rng.integers(0, 2**32))
        binned = bin_events(found, ids, seed, literal_urine_pick)
        # Collection reads the chart, lab and output tables in that order.
        rows.sort(key=lambda r: table_order.index(registry.item_table[r[0]]))
        stay_events = {sid: [[] for _ in range(N_CHANNELS)] for sid in ids}
        for item, minute, value, sid in rows:
            channel, subrole = registry.entries[item]
            stay_events[sid][channel.channel_index].append(
                (minute, value, subrole))
        reference = np.stack([
            reference_assemble_hourly(sid, stay_events[sid], seed,
                                      literal_urine_pick) for sid in ids])
        assert binned.tobytes() == reference.tobytes(), density
        assert np.isnan(binned[1, :, 0]).all()
        gcs_observed |= not np.isnan(binned[:, :, 0]).all()
    assert gcs_observed


def constant_tensor(stay_id, label):
    """A tensor whose hourly values all equal its stay id."""
    stay = make_stay(stay_id=stay_id, label=label)
    return FeatureTensor(stay_id, np.full((48, N_CHANNELS), float(stay_id)),
                         static_vector(stay), int(label))


def test_feature_csv_round_trip(tmp_path):
    tensors = [constant_tensor(sid, sid % 2 == 0) for sid in (101, 102, 103)]
    split = {101: "train", 102: "val", 103: "test"}
    write_features(tmp_path, tensors, split)
    back, split_back = read_features(tmp_path)
    assert split_back == split
    for orig, loaded in zip(tensors, back):
        assert loaded.stay_id == orig.stay_id
        assert loaded.label == orig.label
        assert np.allclose(loaded.seq, orig.seq, atol=1e-7)
        assert np.allclose(loaded.static, orig.static, atol=1e-7)


def _feature_files(tmp_path):
    tensors = [constant_tensor(sid, sid == 102) for sid in (101, 102)]
    write_features(tmp_path, tensors, {101: "train", 102: "val"})
    return {name: (tmp_path / f"features_{name}.csv").read_text().splitlines()
            for name in ("seq", "static")}


def _set_cell(line_no, column, value):
    def garble(lines):
        cells = lines[line_no - 1].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[line_no - 1] = ",".join(cells)
    return garble


def _repeat_row(line_no):
    return lambda lines: lines.insert(line_no, lines[line_no - 1])


def _delete_row(line_no):
    return lambda lines: lines.pop(line_no - 1)


def _truncate(line_no):
    def garble(lines):
        lines[line_no - 1] = lines[line_no - 1].rsplit(",", 1)[0]
    return garble


# Line 2 of features_seq.csv is hour 0 of stay 101, line 50 hour 0 of stay
# 102; line 2 of features_static.csv is stay 101, line 3 stay 102.
@pytest.mark.parametrize("name, garble, where", [
    ("seq", _set_cell(2, "stay_id", "x101"), "seq.csv:2"),
    ("seq", _set_cell(7, "hour", "5.0"), "seq.csv:7"),
    ("seq", _set_cell(3, "c4", "high"), "seq.csv:3"),
    ("seq", _set_cell(50, "c0", ""), "seq.csv:50"),
    ("seq", _set_cell(9, "c12", "nan"), "seq.csv:9"),
    ("seq", _set_cell(2, "hour", "99"), "seq.csv:2"),
    ("seq", _set_cell(2, "hour", "-1"), "seq.csv:2"),
    ("seq", _set_cell(3, "hour", "0"), "seq.csv:3"),
    ("seq", _repeat_row(20), "seq.csv:21"),
    ("seq", _truncate(4), "seq.csv:4"),
    ("seq", _delete_row(30), "static.csv:2"),
    ("seq", lambda lines: lines.__setitem__(0, "stay,hour"), "seq.csv:1"),
    ("static", _set_cell(3, "stay_id", "102x"), "static.csv:3"),
    ("static", _set_cell(2, "age_s", "old"), "static.csv:2"),
    ("static", _set_cell(2, "met", ""), "static.csv:2"),
    ("static", _set_cell(3, "label", "2"), "static.csv:3"),
    ("static", _set_cell(2, "split", "bogus"), "static.csv:2"),
    ("static", _truncate(3), "static.csv:3"),
    ("static", _repeat_row(2), "static.csv:3"),
    ("static", _set_cell(3, "stay_id", "103"), "static.csv:3"),
])
def test_garbled_feature_files_name_file_and_line(tmp_path, name, garble,
                                                   where):
    lines = _feature_files(tmp_path)[name]
    garble(lines)
    (tmp_path / f"features_{name}.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"features_{where}: ")):
        read_features(tmp_path)


def test_feature_stays_without_a_static_row_are_rejected(tmp_path):
    lines = _feature_files(tmp_path)["static"]
    (tmp_path / "features_static.csv").write_text("\n".join(lines[:2]) + "\n")
    with pytest.raises(DataError, match="features_seq.csv holds stays"):
        read_features(tmp_path)


@pytest.mark.parametrize("name", ["seq", "static"])
def test_unreadable_feature_file_is_a_data_error(tmp_path, name):
    _feature_files(tmp_path)
    (tmp_path / f"features_{name}.csv").write_bytes(b"\xff\xfestay_id\n")
    with pytest.raises(DataError, match=f"features_{name}.csv"):
        read_features(tmp_path)
    (tmp_path / f"features_{name}.csv").unlink()
    with pytest.raises(DataError, match=f"features_{name}.csv"):
        read_features(tmp_path)
