import dataclasses
import gzip
import random
from datetime import datetime

import numpy as np
import pytest

from icumort.errors import SchemaError
from icumort.tables import (
    ADMISSIONS,
    CHARTEVENTS,
    DIAGNOSES_ICD,
    EVENT_SCHEMAS,
    ICUSTAYS,
    PATIENTS,
    SERVICES,
    load_table,
    parse_table,
    parse_timestamp,
    read_artifact,
    read_artifact_rows,
    table_path,
    write_artifact_rows,
)
from icumort.errors import DataError


@pytest.fixture
def parse_text(tmp_path):
    """Parse CSV text written to a file; returns (records, stats)."""

    def parse(text, schema=CHARTEVENTS):
        path = tmp_path / f"{schema.name}.csv"
        path.write_text(text)
        rows, stats = parse_table(path, schema)
        return list(rows), stats

    return parse


def test_single_valid_row(parse_text):
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n1,211,2101-01-01 10:00:00,80\n"
    records, stats = parse_text(text)
    assert len(records) == 1
    assert records[0].subject_id == 1
    assert records[0].item_id == 211
    assert records[0].value_num == 80.0
    assert stats.rows_dropped == 0
    assert stats.rows_read == stats.rows_kept + stats.rows_dropped == 1


def test_bad_timestamp_skipped_under_skip_policy(parse_text):
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n1,211,not a date,80\n"
    records, stats = parse_text(text)
    assert records == []
    assert stats.rows_dropped == 1
    assert stats.rows_read == 1


def test_missing_required_column_names_it(parse_text):
    text = "SUBJECT_ID,CHARTTIME,VALUENUM\n1,2101-01-01 10:00:00,80\n"
    with pytest.raises(SchemaError, match="itemid"):
        parse_text(text)


def test_header_matching_is_case_insensitive(parse_text):
    text = "subject_id,ItemID,charttime,ValueNum\n1,211,2101-01-01 10:00:00,80\n"
    records, _ = parse_text(text)
    assert len(records) == 1


def test_row_with_text_value_only_is_kept(parse_text):
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUE\n1,211,2101-01-01 10:00:00,ERROR\n"
    records, _ = parse_text(text)
    assert records[0].value_num is None
    assert records[0].value_text == "ERROR"


def test_row_with_no_value_is_malformed(parse_text):
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUE,VALUENUM\n1,211,2101-01-01 10:00:00,,\n"
    records, stats = parse_text(text)
    assert records == []
    assert stats.rows_dropped == 1


def test_stats_invariant_on_mixed_file(parse_text):
    text = (
        "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n"
        "1,211,2101-01-01 10:00:00,80\n"
        "x,211,2101-01-01 10:00:00,80\n"
        "2,211,bad,80\n"
        "3,211,2101-01-01 10:00:00,81\n"
    )
    records, stats = parse_text(text)
    assert stats.rows_read == 4
    assert stats.rows_kept == len(records) == 2
    assert stats.rows_read == stats.rows_kept + stats.rows_dropped


def test_icustays_rejects_outtime_before_intime(parse_text):
    text = (
        "SUBJECT_ID,HADM_ID,ICUSTAY_ID,INTIME,OUTTIME\n"
        "1,10,100,2101-01-02 00:00:00,2101-01-01 00:00:00\n"
    )
    records, stats = parse_text(text, ICUSTAYS)
    assert records == []
    assert stats.rows_dropped == 1


def test_admissions_optional_fields(parse_text):
    text = (
        "SUBJECT_ID,HADM_ID,ADMITTIME,ADMISSION_TYPE,DEATHTIME,"
        "HOSPITAL_EXPIRE_FLAG\n"
        "1,10,2101-01-01 00:00:00,emergency,,\n"
    )
    records, _ = parse_text(text, ADMISSIONS)
    assert records[0].admission_type == "EMERGENCY"
    assert records[0].deathtime is None
    assert records[0].hospital_expire_flag is None


_TS = [datetime(2101, 1, d, d, d, d) for d in range(1, 4)]

# For each table, a row whose every column holds a distinct value, and the
# record fields those values must land in. Positional construction would
# swap two same-typed columns listed out of field order; this catches it.
_DISTINCT_ROWS = [
    *((schema, {"subject_id": "1", "hadm_id": "2", "icustay_id": "3",
                "itemid": "4", "charttime": str(_TS[0]), "valuenum": "5.5",
                "value": "six", "valueuom": "seven"},
       {"subject_id": 1, "hadm_id": 2, "icustay_id": 3, "item_id": 4,
        "charttime": _TS[0], "value_num": 5.5, "value_text": "six"})
      for schema in EVENT_SCHEMAS.values()),
    (ICUSTAYS, {"subject_id": "1", "hadm_id": "2", "icustay_id": "3",
                "intime": str(_TS[0]), "outtime": str(_TS[1])},
     {"subject_id": 1, "hadm_id": 2, "icustay_id": 3, "intime": _TS[0],
      "outtime": _TS[1]}),
    (PATIENTS, {"subject_id": "1", "dob": str(_TS[0])},
     {"subject_id": 1, "dob": _TS[0]}),
    (ADMISSIONS, {"subject_id": "1", "hadm_id": "2", "admittime": str(_TS[0]),
                  "dischtime": str(_TS[1]), "deathtime": str(_TS[2]),
                  "admission_type": "urgent", "hospital_expire_flag": "3"},
     {"subject_id": 1, "hadm_id": 2, "admittime": _TS[0], "dischtime": _TS[1],
      "deathtime": _TS[2], "admission_type": "URGENT",
      "hospital_expire_flag": 3}),
    (DIAGNOSES_ICD, {"subject_id": "1", "hadm_id": "2", "icd9_code": "v30"},
     {"subject_id": 1, "hadm_id": 2, "icd9_code": "V30"}),
    (SERVICES, {"subject_id": "1", "hadm_id": "2", "transfertime": str(_TS[0]),
                "curr_service": "med"},
     {"subject_id": 1, "hadm_id": 2, "transfertime": _TS[0],
      "curr_service": "MED"}),
]


@pytest.mark.parametrize("schema, row, expected", _DISTINCT_ROWS,
                         ids=[schema.name for schema, _, _ in _DISTINCT_ROWS])
def test_every_column_lands_in_its_own_field(parse_text, schema, row,
                                             expected):
    # The schema reads every column of the row but VALUEUOM, in field order.
    assert [name for name, _, _ in schema.columns] == [
        n for n in row if n != "valueuom"]
    # Header in reverse, with an unused column, so file order cannot help.
    names = ["unused", *reversed(row)]
    text = (",".join(n.upper() for n in names) + "\n"
            + ",".join(["x", *(row[n] for n in reversed(row))]) + "\n")
    records, stats = parse_text(text, schema)
    assert stats.rows_kept == 1
    assert dataclasses.asdict(records[0]) == expected


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999", "nan"])
@pytest.mark.parametrize("schema, text", [
    (CHARTEVENTS, "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n"
                  "{},211,2101-01-01 10:00:00,80\n1,211,2101-01-01 11:00:00,81\n"),
    (ICUSTAYS, "SUBJECT_ID,HADM_ID,ICUSTAY_ID,INTIME,OUTTIME\n"
               "1,{},100,2101-01-01 00:00:00,2101-01-04 00:00:00\n"
               "2,20,200,2101-01-01 00:00:00,2101-01-04 00:00:00\n"),
], ids=["event", "dimension"])
def test_non_finite_id_is_a_malformed_row(parse_text, schema, text, value):
    records, stats = parse_text(text.format(value), schema)
    assert (stats.rows_read, stats.rows_kept, stats.rows_dropped) == (2, 1, 1)
    assert len(records) == 1


def test_integral_float_id_is_accepted(parse_text):
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n7.0,211.0,2101-01-01,80\n"
    records, _ = parse_text(text)
    assert (records[0].subject_id, records[0].item_id) == (7, 211)


def test_non_finite_valuenum_falls_back_to_the_text_value(parse_text):
    text = ("SUBJECT_ID,ITEMID,CHARTTIME,VALUE,VALUENUM\n"
            "1,211,2101-01-01 10:00:00,80,inf\n"
            "2,211,2101-01-01 10:00:00,,inf\n")
    records, stats = parse_text(text)
    assert [(r.value_num, r.value_text) for r in records] == [(None, "80")]
    assert stats.rows_dropped == 1


def test_row_longer_than_the_header_ignores_extra_fields(parse_text):
    # The fourth field is not read as the absent VALUENUM, so the row has
    # no value at all.
    text = "SUBJECT_ID,ITEMID,CHARTTIME\n1,211,2101-01-01 10:00:00,80\n"
    records, stats = parse_text(text)
    assert records == [] and stats.rows_dropped == 1


def test_gzip_path_supported(tmp_path):
    path = tmp_path / "CHARTEVENTS.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n")
        fh.write("1,211,2101-01-01 10:00:00,80\n")
    records, _ = load_table(path, CHARTEVENTS)
    assert len(records) == 1


def test_table_path_error_names_expected_file(tmp_path):
    with pytest.raises(DataError, match="CHARTEVENTS.csv"):
        table_path(tmp_path, "chartevents")


def test_parse_timestamp_accepts_bare_date():
    assert parse_timestamp("2101-01-02").hour == 0
    with pytest.raises(ValueError):
        parse_timestamp("01/02/2101")


def _strptime_reference(text):
    # The parser before the fromisoformat fast path, kept as the reference.
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"bad timestamp {text!r}")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


_TIMESTAMP_CORPUS = [
    "2101-01-02 03:04:05",
    "2199-12-31 23:59:59",
    "2101-1-2 3:4:5",  # single-digit fields
    "2101-01-2 03:04:05",
    "2101-01-02 3:04:05",
    "2101-01-02T03:04:05",  # T separator
    " 2101-01-02 03:04:05",  # surrounding spaces
    "2101-01-02 03:04:05 ",
    " 2101-01-02 ",
    "2101-01-02\t03:04:05",
    "2101-01-02  03:04:05",
    "2101-01-02 03:04:60",  # second 60
    "2101-01-02 03:60:05",
    "2101-01-02 24:00:00",
    "2101-02-29 00:00:00",
    "2100-02-29 00:00:00",
    "0000-01-01 00:00:00",
    "２１０１-０１-０２ ０３:０４:０５",  # Unicode digits
    "٢١٠١-٠١-٠٢ ٠٣:٠٤:٠٥",
    "2101-01-02 03:04:0５",
    "2101-01-02",  # bare date
    "2101-1-2",
    "2101-01-02 ",
    "2101-01-02 03:04",
    "2101-01-02 03:04:05.5",
    "2101-01-02 03:04:05Z",
    "2101-01-02 03:04:5Z",
    "2101-01-02 03:04:+5",
    "+101-01-02 03:04:05",
    "garbage",  # garbage
    "",
    "----:--:--:--:--:--",
    "2101-01-02 03:04:05+00:00",
]


@pytest.mark.parametrize("text", _TIMESTAMP_CORPUS)
def test_parse_timestamp_matches_strptime_on_corpus(text):
    assert _outcome(parse_timestamp, text) == _outcome(_strptime_reference, text)


def test_parse_timestamp_matches_strptime_on_random_fixed_width_strings():
    # Every 19-character string with the separators of the fast path goes
    # through fromisoformat first; it must accept exactly what strptime does.
    # Start from valid timestamps and garble 0-2 of their digit positions.
    rng = random.Random(20120758)
    alphabet = "0123456789 +-:.TZ０٣"
    digit_offsets = [i for i in range(19) if i not in (4, 7, 10, 13, 16)]
    for _ in range(5000):
        chars = list(f"{rng.randrange(1, 10000):04d}-{rng.randrange(0, 14):02d}-"
                     f"{rng.randrange(0, 33):02d} {rng.randrange(0, 26):02d}:"
                     f"{rng.randrange(0, 62):02d}:{rng.randrange(0, 62):02d}")
        for offset in rng.sample(digit_offsets, rng.randrange(3)):
            chars[offset] = rng.choice(alphabet)
        text = "".join(chars)
        assert (_outcome(parse_timestamp, text)
                == _outcome(_strptime_reference, text)), text


def test_write_artifact_rows_formats_each_field_kind(tmp_path):
    path = tmp_path / "artifact.csv"
    write_artifact_rows(path, ["a", "b"], [
        [7, "text"],
        [0.1, np.float64(1 / 3)],
        [float("nan"), None],
        [1e-12, 123456789012.0],
        ["a,b", 2.5],
    ])
    assert path.read_bytes() == (
        b"a,b\n"
        b"7,text\n"
        b"0.1,0.333333333\n"
        b"nan,\n"
        b"1e-12,1.23456789e+11\n"
        b'"a,b",2.5\n'
    )


def test_write_artifact_rows_reads_back_through_read_artifact_rows(tmp_path):
    path = tmp_path / "artifact.csv"
    write_artifact_rows(path, ["id", "x"], [[1, 0.25], [2, None]])
    rows = []
    read_artifact_rows(path, ["id", "x"], rows.append)
    assert rows == [["1", "0.25"], ["2", ""]]


def test_read_artifact_rows_maps_a_parse_error_to_its_line(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text("id,x\n1,0.5\n2,oops\n")

    def parse_row(row):
        float(row[1])

    with pytest.raises(DataError) as info:
        read_artifact_rows(path, ["id", "x"], parse_row)
    assert str(info.value) == (
        f"{path}:3: could not convert string to float: 'oops'")
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("text, message", [
    ("id,y\n1,2\n", ":1: expected the header id,x"),
    ("", ":1: expected the header id,x"),
    ("id,x\n1,2\n3\n", ":3: expected 2 fields, found 1"),
], ids=["wrong-header", "empty", "short-row"])
def test_read_artifact_rows_rejects_a_row_it_could_not_have_written(
        tmp_path, text, message):
    path = tmp_path / "artifact.csv"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        read_artifact_rows(path, ["id", "x"], lambda row: None)
    assert str(info.value) == f"{path}{message}"


def test_read_artifact_names_an_unreadable_file(tmp_path):
    (tmp_path / "blob.bin").write_bytes(b"\x00\x01")
    assert read_artifact(tmp_path / "blob.bin") == b"\x00\x01"
    with pytest.raises(DataError) as info:
        read_artifact(tmp_path)
    assert str(info.value) == f"cannot read {tmp_path}: Is a directory"
    with pytest.raises(DataError, match="No such file or directory"):
        read_artifact(tmp_path / "absent.bin")
