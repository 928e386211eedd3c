"""Streaming CSV ingestion for MIMIC-shaped tables, and the artifact format.

Tables arrive as plain or gzipped CSV files with a header row. Column names
are matched case-insensitively. Each table's ``TableSchema`` lists the
columns that a stage reads, once, in record-field order, with the parse of
a non-empty value and whether the column is required. Every other column is
ignored, so an unparseable value there never drops a row. Event tables
are never loaded whole: ``parse_table`` yields records in file order while
counting rows read, kept, and dropped.

Timestamps are parsed as naive ``YYYY-MM-DD HH:MM:SS`` (the de-identified
distribution format); a bare date is accepted and taken as midnight. The
accepted strings are exactly those of ``datetime.strptime`` with those two
formats. A strict fast path sends only 19-character strings with ``-``, ``-``,
`` ``, ``:`` and ``:`` at offsets 4, 7, 10, 13 and 16 to the much cheaper
``datetime.fromisoformat``; any other string, and any string it rejects,
falls back to ``strptime``, so single-digit fields, other separators and
surrounding spaces are accepted or rejected as before.

Every CSV artifact a stage writes for the next goes through
``write_artifact_rows`` (one dialect, ``\\n`` line ends, floats as ``.9g``,
``None`` as an empty field) and back through ``read_artifact_rows``, whose
errors name ``<path>:<line>``. ``read_artifact`` reads any other artifact.
"""

from __future__ import annotations

import csv
import gzip
import math
import sys
import zlib
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import DataError, PipelineError, SchemaError

TS_FORMAT = "%Y-%m-%d %H:%M:%S"


@dataclass(slots=True)
class RawEvent:
    """One timestamped measurement row from an event table."""

    hadm_id: Optional[int]
    icustay_id: Optional[int]
    item_id: int
    charttime: datetime
    value_num: Optional[float]
    value_text: Optional[str]

    def __post_init__(self) -> None:
        if self.item_id <= 0:
            raise ValueError(f"item id must be positive, got {self.item_id}")
        if self.value_num is None and self.value_text is None:
            raise ValueError("row has neither a numeric nor a text value")


@dataclass(slots=True)
class StayRow:
    subject_id: int
    hadm_id: int
    icustay_id: int
    intime: datetime
    outtime: datetime

    def __post_init__(self) -> None:
        if self.outtime <= self.intime:
            raise ValueError("outtime must be after intime")


@dataclass(slots=True)
class PatientRow:
    subject_id: int
    dob: datetime


@dataclass(slots=True)
class AdmissionRow:
    hadm_id: int
    deathtime: Optional[datetime]
    admission_type: str
    hospital_expire_flag: Optional[int]


@dataclass(slots=True)
class AdmissionTimes:
    subject_id: int
    admittime: datetime
    deathtime: Optional[datetime]


@dataclass(slots=True)
class DiagnosisRow:
    hadm_id: int
    icd9_code: str


@dataclass(slots=True)
class ServiceRow:
    hadm_id: int
    transfertime: datetime
    curr_service: str


@dataclass
class ParseStats:
    """Row accounting for one table parse. rows_read = rows_kept + rows_dropped."""

    rows_read: int = 0
    rows_kept: int = 0
    rows_dropped: int = 0


@dataclass(frozen=True)
class TableSchema:
    """One table's record type and its columns, in record-field order.

    Each column is ``(name, parse, required)``: the lower-case header name,
    the parse of a non-empty value (a ValueError makes the row malformed),
    and whether an empty or absent value makes the row malformed rather
    than ``None``. A required column missing from the header fails the
    whole table.
    """

    name: str
    record: type
    columns: tuple[tuple[str, Callable[[str], object], bool], ...]


def parse_timestamp(text: str) -> datetime:
    if (len(text) == 19 and text[4] == "-" and text[7] == "-"
            and text[10] == " " and text[13] == ":" and text[16] == ":"):
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass
    for fmt in (TS_FORMAT, "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"bad timestamp {text!r}")


def parse_digits(text: str) -> int:
    """The whole number that ``text`` spells in plain ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a whole number: {text!r}")
    return int(text)


def _parse_int(text: str) -> int:
    if text.isascii() and text.isdigit():
        return int(text)
    # Some exports write integer ids as floats: digits, ".", then only zeros.
    whole, dot, zeros = text.partition(".")
    if not dot or zeros.strip("0"):
        raise ValueError(f"not an integer: {text!r}")
    return parse_digits(whole)


def finite_float(text: str) -> Optional[float]:
    """The finite float that ``text`` spells, else None (nan and inf too)."""
    # float() would also take a digit-group "_" and any Unicode digit.
    if not text.isascii() or "_" in text:
        return None
    try:
        f = float(text)
    except ValueError:
        return None
    return f if math.isfinite(f) else None


_EVENT_COLUMNS = (
    ("hadm_id", _parse_int, False),
    ("icustay_id", _parse_int, False),
    ("itemid", _parse_int, True),
    ("charttime", parse_timestamp, True),
    # Lenient: an unparseable or non-finite VALUENUM is None, not malformed.
    ("valuenum", finite_float, False),
    ("value", str, False),
)

CHARTEVENTS = TableSchema("chartevents", RawEvent, _EVENT_COLUMNS)
LABEVENTS = TableSchema("labevents", RawEvent, _EVENT_COLUMNS)
OUTPUTEVENTS = TableSchema("outputevents", RawEvent, _EVENT_COLUMNS)
ICUSTAYS = TableSchema("icustays", StayRow, (
    ("subject_id", _parse_int, True),
    ("hadm_id", _parse_int, True),
    ("icustay_id", _parse_int, True),
    ("intime", parse_timestamp, True),
    ("outtime", parse_timestamp, True),
))
PATIENTS = TableSchema("patients", PatientRow, (
    ("subject_id", _parse_int, True),
    ("dob", parse_timestamp, True),
))
ADMISSIONS = TableSchema("admissions", AdmissionRow, (
    ("hadm_id", _parse_int, True),
    ("deathtime", parse_timestamp, False),
    ("admission_type", str.upper, True),
    ("hospital_expire_flag", _parse_int, False),
))
# Only ``synth.describe`` reads who was admitted when.
ADMISSION_TIMES = TableSchema("admissions", AdmissionTimes, (
    ("subject_id", _parse_int, True),
    ("admittime", parse_timestamp, True),
    ("deathtime", parse_timestamp, False),
))
DIAGNOSES_ICD = TableSchema("diagnoses_icd", DiagnosisRow, (
    ("hadm_id", _parse_int, True),
    ("icd9_code", str.upper, True),
))
SERVICES = TableSchema("services", ServiceRow, (
    ("hadm_id", _parse_int, True),
    ("transfertime", parse_timestamp, True),
    ("curr_service", str.upper, True),
))

EVENT_SCHEMAS = {
    "chartevents": CHARTEVENTS,
    "labevents": LABEVENTS,
    "outputevents": OUTPUTEVENTS,
}


class CsvInput:
    """The rows of one CSV file, read under one error mapping.

    Every input file the pipeline reads goes through here. Iterating opens
    the file, decompressing a path that ends in ``.gz``, and yields each
    row's fields; ``line_num`` is the physical line of the last row. A file
    that cannot be opened, read, decompressed or decoded as UTF-8, and a row
    the CSV reader rejects, raise ``error`` naming the file and, for a bad
    row, its line.
    """

    def __init__(self, path: str | Path, error: type[PipelineError] = DataError):
        self.path = path
        self.error = error
        self._reader = None

    @property
    def line_num(self) -> int:
        return self._reader.line_num if self._reader is not None else 0

    def __iter__(self) -> Iterator[list[str]]:
        opener = gzip.open if Path(self.path).suffix == ".gz" else open
        try:
            with opener(self.path, "rt", encoding="utf-8", newline="") as fh:
                self._reader = csv.reader(fh)
                yield from self._reader
        except csv.Error as exc:
            raise self.error(f"{self.path}:{self.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.path}: not UTF-8 text ({exc.reason})"
                             ) from exc
        except (OSError, EOFError, zlib.error) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise self.error(f"cannot read {self.path}: {reason}") from exc


def parse_table(path: str | Path, schema: TableSchema
                ) -> tuple[Iterator, ParseStats]:
    """Stream-parse one CSV table file into ``schema.record`` records.

    The header is validated eagerly; a missing required column raises
    SchemaError naming the column. Returns (record iterator, stats); the
    stats are complete once the iterator is exhausted. A malformed row (an
    empty required value, a value its column's parse rejects, or a record
    that fails its own checks) is counted as dropped and skipped. A file
    that cannot be read raises DataError (see ``CsvInput``).
    """
    lines = iter(CsvInput(path))
    header = next(lines, None)
    if header is None:
        raise SchemaError(f"{schema.name}: file is empty, header row required")
    col_idx = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [name for name, _, required in schema.columns
               if required and name not in col_idx]
    if missing:
        lines.close()
        raise SchemaError(
            f"{schema.name}: missing required column(s): {', '.join(missing)}"
        )
    # An absent column takes an index no row reaches, so it reads as empty.
    take = [(col_idx.get(name, sys.maxsize), parse, required, name)
            for name, parse, required in schema.columns]
    record = schema.record
    stats = ParseStats()

    def rows() -> Iterator:
        for row in lines:
            if not row:
                continue
            stats.rows_read += 1
            n = len(row)
            fields = []
            try:
                for i, parse, required, name in take:
                    text = row[i].strip() if i < n else ""
                    if text:
                        fields.append(parse(text))
                    elif required:
                        raise ValueError(f"missing value for {name}")
                    else:
                        fields.append(None)
                built = record(*fields)
            except ValueError:
                stats.rows_dropped += 1
                continue
            stats.rows_kept += 1
            yield built

    return rows(), stats


def load_table(path: str | Path, schema: TableSchema
               ) -> tuple[list, ParseStats]:
    """Eagerly parse a whole table (for the small dimension tables)."""
    it, stats = parse_table(path, schema)
    return list(it), stats


def write_artifact_rows(path: str | Path, header: Sequence[str],
                        rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV artifact: the header, then each row of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [format(v, ".9g") if isinstance(v, float) else v for v in row]
            for row in rows)


def read_artifact_rows(path: str | Path, header: Sequence[str],
                       parse_row: Callable[[list[str]], None]) -> None:
    """Call ``parse_row`` on the fields of each row of a CSV artifact.

    An unreadable or undecodable file, a header other than ``header``, a
    row without one field per column and a ValueError from ``parse_row``
    raise DataError naming the file and, where it is known, the line.
    """
    csv_input = CsvInput(path)
    lines = iter(csv_input)
    try:
        if next(lines, None) != list(header):
            raise DataError(f"{path}:1: expected the header {','.join(header)}")
        for row in lines:
            if len(row) != len(header):
                raise DataError(f"{path}:{csv_input.line_num}: expected "
                                f"{len(header)} fields, found {len(row)}")
            try:
                parse_row(row)
            except ValueError as exc:
                raise DataError(f"{path}:{csv_input.line_num}: {exc}") from exc
    finally:
        lines.close()


def read_artifact(path: str | Path) -> bytes:
    """The bytes of a non-CSV artifact; an unreadable file is a DataError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def table_path(data_dir: str | Path, table_name: str) -> Path:
    """Locate a table file in a data directory, trying common spellings."""
    data_dir = Path(data_dir)
    for candidate in (
        f"{table_name.upper()}.csv",
        f"{table_name.upper()}.csv.gz",
        f"{table_name.lower()}.csv",
        f"{table_name.lower()}.csv.gz",
    ):
        path = data_dir / candidate
        if path.exists():
            return path
    raise DataError(
        f"missing table file: expected {data_dir / (table_name.upper() + '.csv')}"
    )
