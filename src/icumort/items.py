"""Feature channel names and the item id registry.

The 13 sequential channels cover the time-varying part of the severity
feature set; ``CHANNELS`` names them in feature-matrix column order. Each
channel aggregates one or more raw item ids; the mapping ships as a package
data file (``data/item_registry.csv``) so corrections do not require a code
change. ``load_registry`` maps each item id to one ``Item`` record: its
channel's column, its subrole and the event table that synth writes its rows
to. Featurize keys on item id alone, so it reads an item's rows from any
event table.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional

from .errors import ConfigError
from .tables import EVENT_SCHEMAS, CsvInput, finite_float, parse_digits

# The subroles a channel's items may carry; other channels' items are plain.
CHANNEL_SUBROLES = {
    "GCS": ("gcs_verbal", "gcs_motor", "gcs_eyes"),
    "TempF": ("temp_f", "temp_c"),
    "UrineOutput": ("plain", "urine_in_irrigant", "urine_out_irrigant"),
}

# Column order of the hourly feature matrix. Fixed here, never inferred from
# registry file row order.
CHANNELS = (
    "GCS", "SBP", "HeartRate", "TempF", "PaO2", "FiO2", "UrineOutput",
    "BUN", "WBC", "Bicarbonate", "Sodium", "Potassium", "Bilirubin",
)
N_CHANNELS = len(CHANNELS)

REGISTRY_PATH = Path(__file__).parent / "data" / "item_registry.csv"


class Item(NamedTuple):
    """One registry row: what an item id measures and where synth writes it."""

    channel: int  # the channel's column in CHANNELS order
    subrole: str
    table: str  # a key of tables.EVENT_SCHEMAS


def load_registry(path: str | Path | None = None) -> dict[int, Item]:
    """Load the item registry from CSV (``item_id,channel,subrole,source_table``).

    Lines starting with ``#`` are comments. An unreadable file, a row with
    fewer than four fields or an item id that is not a positive integer in
    plain digits, duplicate item ids, unknown channels, and a subrole that
    does not fit its channel are configuration errors naming the file and,
    for a row, its line.
    """
    path = Path(path) if path is not None else REGISTRY_PATH
    registry: dict[int, Item] = {}
    csv_input = CsvInput(path, ConfigError)
    rows = (row for row in csv_input if any(f.strip() for f in row)
            and not row[0].lstrip().startswith("#"))
    header = next(rows, None)
    if header is None or [h.strip().lower() for h in header] != [
        "item_id", "channel", "subrole", "source_table",
    ]:
        rows.close()
        raise ConfigError(f"registry {path}: bad header")
    for row in rows:
        where = f"registry {path} line {csv_input.line_num}"
        if len(row) < 4:
            raise ConfigError(f"{where}: expected 4 fields, found {len(row)}")
        try:
            item_id = parse_digits(row[0].strip())
        except ValueError:
            item_id = 0
        if item_id < 1:
            raise ConfigError(f"{where}: bad item id {row[0]!r}")
        channel_name, subrole, table = (f.strip() for f in row[1:4])
        if channel_name not in CHANNELS:
            raise ConfigError(f"{where}: unknown channel {channel_name!r}")
        if subrole not in CHANNEL_SUBROLES.get(channel_name, ("plain",)):
            raise ConfigError(f"{where}: subrole {subrole!r} does not fit "
                              f"channel {channel_name}")
        if table not in EVENT_SCHEMAS:
            raise ConfigError(f"{where}: unknown table {table!r}")
        if item_id in registry:
            raise ConfigError(f"{where}: duplicate item id {item_id}")
        registry[item_id] = Item(CHANNELS.index(channel_name), subrole, table)
    if not registry:
        raise ConfigError(f"registry {path}: no entries")
    return registry


def parse_numeric(value_num: Optional[float], value_text: Optional[str]
                  ) -> Optional[float]:
    """Best-effort numeric value of an event row.

    Prefers the numeric column; otherwise attempts to parse the text column.
    Non-numeric or non-finite text (error markers and the like) yields
    None, which downstream treats as a missing observation.
    """
    if value_num is not None:
        return value_num
    return None if value_text is None else finite_float(value_text)
