"""Streaming CSV ingestion for MIMIC-shaped tables.

Tables arrive as plain or gzipped CSV with a header row. Column names are
matched case-insensitively and extra columns are ignored. Event tables are
never loaded whole: ``parse_table`` yields records in file order while
counting rows read, kept, and dropped.

Timestamps are parsed as naive ``YYYY-MM-DD HH:MM:SS`` (the de-identified
distribution format); a bare date is accepted and taken as midnight. The
accepted strings are exactly those of ``datetime.strptime`` with those two
formats. A strict fast path sends only 19-character strings with ``-``, ``-``,
`` ``, ``:`` and ``:`` at offsets 4, 7, 10, 13 and 16 to the much cheaper
``datetime.fromisoformat``; any other string, and any string it rejects,
falls back to ``strptime``, so single-digit fields, other separators and
surrounding spaces are accepted or rejected as before.
"""

from __future__ import annotations

import csv
import gzip
import io
import zlib
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .errors import DataError, PipelineError, SchemaError

TS_FORMAT = "%Y-%m-%d %H:%M:%S"


@dataclass(slots=True)
class RawEvent:
    """One timestamped measurement row from an event table."""

    subject_id: int
    hadm_id: Optional[int]
    icustay_id: Optional[int]
    item_id: int
    charttime: datetime
    value_num: Optional[float]
    value_text: Optional[str]
    unit: Optional[str]


@dataclass(slots=True)
class StayRow:
    subject_id: int
    hadm_id: int
    icustay_id: int
    intime: datetime
    outtime: datetime


@dataclass(slots=True)
class PatientRow:
    subject_id: int
    dob: datetime


@dataclass(slots=True)
class AdmissionRow:
    subject_id: int
    hadm_id: int
    admittime: datetime
    dischtime: Optional[datetime]
    deathtime: Optional[datetime]
    admission_type: str
    hospital_expire_flag: Optional[int]


@dataclass(slots=True)
class DiagnosisRow:
    subject_id: int
    hadm_id: int
    icd9_code: str


@dataclass(slots=True)
class ServiceRow:
    subject_id: int
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
    name: str
    required: tuple[str, ...]
    optional: tuple[str, ...]
    build: Callable[[dict[str, str]], object] = field(compare=False)


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


def _req(values: dict[str, str], col: str) -> str:
    v = values.get(col)
    if v is None:
        raise ValueError(f"missing value for {col}")
    return v


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    # Some exports format integer ids as floats ("123.0").
    f = float(text)
    i = int(f)
    if i != f:
        raise ValueError(f"not an integer: {text!r}")
    return i


def _req_int(values: dict[str, str], col: str) -> int:
    return _parse_int(_req(values, col))


def _opt_int(values: dict[str, str], col: str) -> Optional[int]:
    v = values.get(col)
    return None if v is None else _parse_int(v)


def _req_ts(values: dict[str, str], col: str) -> datetime:
    return parse_timestamp(_req(values, col))


def _opt_ts(values: dict[str, str], col: str) -> Optional[datetime]:
    v = values.get(col)
    return None if v is None else parse_timestamp(v)


def _opt_float(values: dict[str, str], col: str) -> Optional[float]:
    v = values.get(col)
    if v is None:
        return None
    try:
        f = float(v)
    except ValueError:
        return None
    return f if f == f else None


def _build_event(values: dict[str, str]) -> RawEvent:
    item_id = _req_int(values, "itemid")
    if item_id <= 0:
        raise ValueError(f"item id must be positive, got {item_id}")
    value_num = _opt_float(values, "valuenum")
    value_text = values.get("value")
    if value_num is None and value_text is None:
        raise ValueError("row has neither a numeric nor a text value")
    return RawEvent(
        subject_id=_req_int(values, "subject_id"),
        hadm_id=_opt_int(values, "hadm_id"),
        icustay_id=_opt_int(values, "icustay_id"),
        item_id=item_id,
        charttime=_req_ts(values, "charttime"),
        value_num=value_num,
        value_text=value_text,
        unit=values.get("valueuom"),
    )


def _build_stay(values: dict[str, str]) -> StayRow:
    intime = _req_ts(values, "intime")
    outtime = _req_ts(values, "outtime")
    if outtime <= intime:
        raise ValueError("outtime must be after intime")
    return StayRow(
        subject_id=_req_int(values, "subject_id"),
        hadm_id=_req_int(values, "hadm_id"),
        icustay_id=_req_int(values, "icustay_id"),
        intime=intime,
        outtime=outtime,
    )


def _build_patient(values: dict[str, str]) -> PatientRow:
    return PatientRow(
        subject_id=_req_int(values, "subject_id"),
        dob=_req_ts(values, "dob"),
    )


def _build_admission(values: dict[str, str]) -> AdmissionRow:
    return AdmissionRow(
        subject_id=_req_int(values, "subject_id"),
        hadm_id=_req_int(values, "hadm_id"),
        admittime=_req_ts(values, "admittime"),
        dischtime=_opt_ts(values, "dischtime"),
        deathtime=_opt_ts(values, "deathtime"),
        admission_type=_req(values, "admission_type").upper(),
        hospital_expire_flag=_opt_int(values, "hospital_expire_flag"),
    )


def _build_diagnosis(values: dict[str, str]) -> DiagnosisRow:
    return DiagnosisRow(
        subject_id=_req_int(values, "subject_id"),
        hadm_id=_req_int(values, "hadm_id"),
        icd9_code=_req(values, "icd9_code").upper(),
    )


def _build_service(values: dict[str, str]) -> ServiceRow:
    return ServiceRow(
        subject_id=_req_int(values, "subject_id"),
        hadm_id=_req_int(values, "hadm_id"),
        transfertime=_req_ts(values, "transfertime"),
        curr_service=_req(values, "curr_service").upper(),
    )


_EVENT_REQUIRED = ("subject_id", "itemid", "charttime")
_EVENT_OPTIONAL = ("hadm_id", "icustay_id", "value", "valuenum", "valueuom")

CHARTEVENTS = TableSchema("chartevents", _EVENT_REQUIRED, _EVENT_OPTIONAL, _build_event)
LABEVENTS = TableSchema("labevents", _EVENT_REQUIRED, _EVENT_OPTIONAL, _build_event)
OUTPUTEVENTS = TableSchema("outputevents", _EVENT_REQUIRED, _EVENT_OPTIONAL, _build_event)
ICUSTAYS = TableSchema(
    "icustays",
    ("subject_id", "hadm_id", "icustay_id", "intime", "outtime"),
    (),
    _build_stay,
)
PATIENTS = TableSchema("patients", ("subject_id", "dob"), (), _build_patient)
ADMISSIONS = TableSchema(
    "admissions",
    ("subject_id", "hadm_id", "admittime", "admission_type"),
    ("dischtime", "deathtime", "hospital_expire_flag"),
    _build_admission,
)
DIAGNOSES_ICD = TableSchema(
    "diagnoses_icd", ("subject_id", "hadm_id", "icd9_code"), (), _build_diagnosis
)
SERVICES = TableSchema(
    "services",
    ("subject_id", "hadm_id", "transfertime", "curr_service"),
    (),
    _build_service,
)

EVENT_SCHEMAS = {
    "chartevents": CHARTEVENTS,
    "labevents": LABEVENTS,
    "outputevents": OUTPUTEVENTS,
}


def _open_text(source) -> tuple[io.TextIOBase, bool]:
    """Open a path or binary/text stream as text. Returns (handle, owns)."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8",
                                    newline=""), True
        return open(path, newline="", encoding="utf-8"), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # Binary file-like (anything with a read() returning bytes).
    return io.TextIOWrapper(source, newline=""), False


class CsvInput:
    """The rows of one CSV path or stream, read under one error mapping.

    Every input file the pipeline reads goes through here. Iterating opens
    the source, decompressing a path that ends in ``.gz``, and yields each
    row's fields; ``line_num`` is the physical line of the last row. A file
    that cannot be opened, read, decompressed or decoded as UTF-8, and a row
    the CSV reader rejects, raise ``error`` naming the file and, for a bad
    row, its line.
    """

    def __init__(self, source, error: type[PipelineError] = DataError):
        self.source = source
        self.name = source if isinstance(source, (str, Path)) else "input"
        self.error = error
        self._reader = None

    @property
    def line_num(self) -> int:
        return self._reader.line_num if self._reader is not None else 0

    def __iter__(self) -> Iterator[list[str]]:
        try:
            fh, owns = _open_text(self.source)
            try:
                self._reader = csv.reader(fh)
                yield from self._reader
            finally:
                if owns:
                    fh.close()
        except csv.Error as exc:
            raise self.error(f"{self.name}:{self.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.name}: not UTF-8 text ({exc.reason})"
                             ) from exc
        except (OSError, EOFError, zlib.error) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise self.error(f"cannot read {self.name}: {reason}") from exc


def parse_table(source, schema: TableSchema, error_policy: str = "skip"
                ) -> tuple[Iterator, ParseStats]:
    """Stream-parse one CSV table into typed records.

    The header is validated eagerly; a missing required column raises
    SchemaError naming the column. Returns (record iterator, stats); the
    stats are complete once the iterator is exhausted. Under
    ``error_policy="skip"`` malformed rows are counted and skipped; under
    ``"strict"`` the first malformed row raises SchemaError with its
    1-based physical line number (header included). A file that cannot be
    read raises DataError (see ``CsvInput``).
    """
    if error_policy not in ("skip", "strict"):
        raise SchemaError(f"unknown error policy {error_policy!r}")
    csv_input = CsvInput(source)
    lines = iter(csv_input)
    header = next(lines, None)
    if header is None:
        raise SchemaError(f"{schema.name}: file is empty, header row required")
    col_idx = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [c for c in schema.required if c not in col_idx]
    if missing:
        lines.close()
        raise SchemaError(
            f"{schema.name}: missing required column(s): {', '.join(missing)}"
        )
    take = [(c, col_idx[c]) for c in (*schema.required, *schema.optional)
            if c in col_idx]
    stats = ParseStats()

    def rows() -> Iterator:
        for row in lines:
            if not row:
                continue
            stats.rows_read += 1
            values: dict[str, str] = {}
            for name, i in take:
                if i < len(row):
                    v = row[i].strip()
                    if v:
                        values[name] = v
            try:
                record = schema.build(values)
            except ValueError as exc:
                stats.rows_dropped += 1
                if error_policy == "strict":
                    raise SchemaError(
                        f"{schema.name}: malformed row at line "
                        f"{csv_input.line_num}: {exc}"
                    ) from exc
                continue
            stats.rows_kept += 1
            yield record

    return rows(), stats


def load_table(source, schema: TableSchema, error_policy: str = "skip"
               ) -> tuple[list, ParseStats]:
    """Eagerly parse a whole table (for the small dimension tables)."""
    it, stats = parse_table(source, schema, error_policy)
    return list(it), stats


def read_artifact_rows(path: str | Path, header: Sequence[str]
                       ) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each row of a CSV the pipeline wrote.

    An unreadable or undecodable file, a header other than ``header`` and a
    row without one field per column raise DataError naming the file and,
    where it is known, the line.
    """
    csv_input = CsvInput(path)
    lines = iter(csv_input)
    if next(lines, None) != list(header):
        lines.close()
        raise DataError(f"{path}:1: expected the header {','.join(header)}")
    for row in lines:
        if len(row) != len(header):
            raise DataError(f"{path}:{csv_input.line_num}: expected "
                            f"{len(header)} fields, found {len(row)}")
        yield csv_input.line_num, row


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
