import pytest

from icumort.errors import ConfigError
from icumort.items import (
    CHANNELS,
    N_CHANNELS,
    load_registry,
    parse_numeric,
    resolve_item,
)


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_thirteen_channels_with_unique_contiguous_indices():
    assert N_CHANNELS == 13
    assert [c.channel_index for c in CHANNELS] == list(range(13))
    assert len({c.name for c in CHANNELS}) == 13


def test_registry_covers_every_listed_item_exactly_once(registry):
    # 59 ids across the 13 channels; uniqueness is enforced at load time.
    assert len(registry.entries) == 59
    per_channel = {c.name: [i for i, (channel, _) in registry.entries.items()
                            if channel == c] for c in CHANNELS}
    assert sum(len(v) for v in per_channel.values()) == 59
    assert len(per_channel["UrineOutput"]) == 26
    assert len(per_channel["GCS"]) == 6


def test_resolve_known_items(registry):
    channel, subrole = resolve_item(registry, 220045)
    assert channel.name == "HeartRate"
    assert subrole == "plain"
    channel, subrole = resolve_item(registry, 676)
    assert channel.name == "TempF"
    assert subrole == "temp_c"
    channel, subrole = resolve_item(registry, 227488)
    assert channel.name == "UrineOutput"
    assert subrole == "urine_in_irrigant"


def test_unlisted_item_resolves_to_none(registry):
    assert resolve_item(registry, 999999) is None


def test_quirky_ids_ship_as_listed(registry):
    # 950824 (likely a typo upstream) and 190 are deliberately kept.
    assert resolve_item(registry, 950824)[0].name == "Sodium"
    assert resolve_item(registry, 190)[0].name == "FiO2"
    # Potassium resolution keys on item id even though the shipped table
    # column calls them chart items.
    assert resolve_item(registry, 50971)[0].name == "Potassium"
    assert registry.item_table[50971] == "chartevents"


def test_duplicate_item_id_rejected(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        "item_id,channel,subrole,source_table\n"
        "211,HeartRate,plain,chartevents\n"
        "211,SBP,plain,chartevents\n"
    )
    with pytest.raises(ConfigError, match="duplicate"):
        load_registry(path)


def test_parse_numeric_prefers_numeric_column():
    assert parse_numeric(7.4, None) == 7.4
    assert parse_numeric(7.4, "ignored") == 7.4


def test_parse_numeric_error_text_is_missing():
    assert parse_numeric(None, "ERROR") is None
    assert parse_numeric(None, None) is None
    for text in ("nan", "inf", "-inf", "1e999"):
        assert parse_numeric(None, text) is None


def test_parse_numeric_parses_numeric_text():
    assert parse_numeric(None, "98.6") == 98.6
    assert parse_numeric(None, " 12 ") == 12.0
