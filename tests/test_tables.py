import gzip
import io
import random
from datetime import datetime

import pytest

from icumort.errors import SchemaError
from icumort.tables import (
    ADMISSIONS,
    CHARTEVENTS,
    ICUSTAYS,
    load_table,
    parse_table,
    parse_timestamp,
    table_path,
)
from icumort.errors import DataError


def _parse_all(text, schema=CHARTEVENTS, policy="skip"):
    rows, stats = parse_table(io.BytesIO(text.encode()), schema, policy)
    return list(rows), stats


def test_single_valid_row():
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n1,211,2101-01-01 10:00:00,80\n"
    records, stats = _parse_all(text)
    assert len(records) == 1
    assert records[0].subject_id == 1
    assert records[0].item_id == 211
    assert records[0].value_num == 80.0
    assert stats.rows_dropped == 0
    assert stats.rows_read == stats.rows_kept + stats.rows_dropped == 1


def test_bad_timestamp_skipped_under_skip_policy():
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n1,211,not a date,80\n"
    records, stats = _parse_all(text)
    assert records == []
    assert stats.rows_dropped == 1
    assert stats.rows_read == 1


def test_strict_mode_reports_line_number_including_header():
    text = (
        "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n"
        "1,211,2101-01-01 10:00:00,80\n"
        "2,211,2101-01-01 11:00:00\n"  # data row 2 = physical line 3
        "3,211,2101-01-01 12:00:00,82\n"
    )
    rows, _ = parse_table(io.BytesIO(text.encode()), CHARTEVENTS, "strict")
    with pytest.raises(SchemaError, match="line 3"):
        list(rows)


def test_missing_required_column_names_it():
    text = "SUBJECT_ID,CHARTTIME,VALUENUM\n1,2101-01-01 10:00:00,80\n"
    with pytest.raises(SchemaError, match="itemid"):
        parse_table(io.BytesIO(text.encode()), CHARTEVENTS)


def test_header_matching_is_case_insensitive():
    text = "subject_id,ItemID,charttime,ValueNum\n1,211,2101-01-01 10:00:00,80\n"
    records, _ = _parse_all(text)
    assert len(records) == 1


def test_row_with_text_value_only_is_kept():
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUE\n1,211,2101-01-01 10:00:00,ERROR\n"
    records, _ = _parse_all(text)
    assert records[0].value_num is None
    assert records[0].value_text == "ERROR"


def test_row_with_no_value_is_malformed():
    text = "SUBJECT_ID,ITEMID,CHARTTIME,VALUE,VALUENUM\n1,211,2101-01-01 10:00:00,,\n"
    records, stats = _parse_all(text)
    assert records == []
    assert stats.rows_dropped == 1


def test_chunked_stream_yields_identical_records():
    lines = ["SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM"]
    for i in range(50):
        lines.append(f"{i},211,2101-01-01 {i % 24:02d}:00:00,{70 + i}")
    text = "\n".join(lines) + "\n"

    class Chunked(io.RawIOBase):
        # Returns at most 7 bytes per read to exercise buffering.
        def __init__(self, data: bytes):
            self._data = data
            self._pos = 0

        def readable(self):
            return True

        def readinto(self, b):
            chunk = self._data[self._pos : self._pos + min(len(b), 7)]
            b[: len(chunk)] = chunk
            self._pos += len(chunk)
            return len(chunk)

    whole, _ = _parse_all(text)
    chunked_rows, _ = parse_table(
        io.BufferedReader(Chunked(text.encode())), CHARTEVENTS
    )
    assert list(chunked_rows) == whole


def test_stats_invariant_on_mixed_file():
    text = (
        "SUBJECT_ID,ITEMID,CHARTTIME,VALUENUM\n"
        "1,211,2101-01-01 10:00:00,80\n"
        "x,211,2101-01-01 10:00:00,80\n"
        "2,211,bad,80\n"
        "3,211,2101-01-01 10:00:00,81\n"
    )
    records, stats = _parse_all(text)
    assert stats.rows_read == 4
    assert stats.rows_kept == len(records) == 2
    assert stats.rows_read == stats.rows_kept + stats.rows_dropped


def test_icustays_rejects_outtime_before_intime():
    text = (
        "SUBJECT_ID,HADM_ID,ICUSTAY_ID,INTIME,OUTTIME\n"
        "1,10,100,2101-01-02 00:00:00,2101-01-01 00:00:00\n"
    )
    records, stats = _parse_all(text, schema=ICUSTAYS)
    assert records == []
    assert stats.rows_dropped == 1


def test_admissions_optional_fields():
    text = (
        "SUBJECT_ID,HADM_ID,ADMITTIME,ADMISSION_TYPE,DEATHTIME,"
        "HOSPITAL_EXPIRE_FLAG\n"
        "1,10,2101-01-01 00:00:00,emergency,,\n"
    )
    records, _ = _parse_all(text, schema=ADMISSIONS)
    assert records[0].admission_type == "EMERGENCY"
    assert records[0].deathtime is None
    assert records[0].hospital_expire_flag is None


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
