"""Feature channel definitions and the item id registry.

The 13 sequential channels cover the time-varying part of the severity
feature set. Each channel aggregates one or more raw item ids; the mapping
ships as a package data file (``data/item_registry.csv``) so corrections do
not require a code change. Resolution keys on item id alone, so featurize
reads an item's rows from any event table; the registry's source_table
column names the table that synth writes the item's rows to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .tables import CsvInput, finite_float

# The subroles a channel's items may carry; other channels' items are plain.
CHANNEL_SUBROLES = {
    "GCS": ("gcs_verbal", "gcs_motor", "gcs_eyes"),
    "TempF": ("temp_f", "temp_c"),
    "UrineOutput": ("plain", "urine_in_irrigant", "urine_out_irrigant"),
}

SOURCE_TABLES = ("chartevents", "labevents", "outputevents")


@dataclass(frozen=True)
class FeatureChannel:
    channel_index: int
    name: str


# Column order of the hourly feature matrix. Fixed here, never inferred from
# registry file row order.
CHANNELS: tuple[FeatureChannel, ...] = (
    FeatureChannel(0, "GCS"),
    FeatureChannel(1, "SBP"),
    FeatureChannel(2, "HeartRate"),
    FeatureChannel(3, "TempF"),
    FeatureChannel(4, "PaO2"),
    FeatureChannel(5, "FiO2"),
    FeatureChannel(6, "UrineOutput"),
    FeatureChannel(7, "BUN"),
    FeatureChannel(8, "WBC"),
    FeatureChannel(9, "Bicarbonate"),
    FeatureChannel(10, "Sodium"),
    FeatureChannel(11, "Potassium"),
    FeatureChannel(12, "Bilirubin"),
)

CHANNEL_BY_NAME = {c.name: c for c in CHANNELS}
N_CHANNELS = len(CHANNELS)


class ItemRegistry:
    """Mapping from raw item id to (FeatureChannel, subrole)."""

    def __init__(self, entries: dict[int, tuple[FeatureChannel, str]],
                 item_table: dict[int, str]):
        self.entries = entries
        self.item_table = item_table


def default_registry_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("icumort").joinpath("data/item_registry.csv")))


def load_registry(path: str | Path | None = None) -> ItemRegistry:
    """Load the item registry from CSV (``item_id,channel,subrole,source_table``).

    Lines starting with ``#`` are comments. An unreadable file, a row with
    fewer than four fields or a non-integer item id, duplicate item ids,
    unknown channels, and a subrole that does not fit its channel are
    configuration errors naming the file and, for a row, its line.
    """
    path = Path(path) if path is not None else default_registry_path()
    entries: dict[int, tuple[FeatureChannel, str]] = {}
    item_table: dict[int, str] = {}
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
            item_id = int(row[0])
        except ValueError:
            raise ConfigError(f"{where}: bad item id {row[0]!r}") from None
        channel_name, subrole, table = (f.strip() for f in row[1:4])
        if channel_name not in CHANNEL_BY_NAME:
            raise ConfigError(f"{where}: unknown channel {channel_name!r}")
        if subrole not in CHANNEL_SUBROLES.get(channel_name, ("plain",)):
            raise ConfigError(f"{where}: subrole {subrole!r} does not fit "
                              f"channel {channel_name}")
        if table not in SOURCE_TABLES:
            raise ConfigError(f"{where}: unknown table {table!r}")
        if item_id in entries:
            raise ConfigError(f"{where}: duplicate item id {item_id}")
        entries[item_id] = (CHANNEL_BY_NAME[channel_name], subrole)
        item_table[item_id] = table
    if not entries:
        raise ConfigError(f"registry {path}: no entries")
    return ItemRegistry(entries, item_table)


def resolve_item(registry: ItemRegistry, item_id: int
                 ) -> Optional[tuple[FeatureChannel, str]]:
    """Return the (channel, subrole) for an item id, or None if unlisted."""
    return registry.entries.get(item_id)


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
