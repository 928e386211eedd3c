import re

import pytest

from icumort.errors import ConfigError
from icumort.items import CHANNELS, N_CHANNELS, Item, load_registry, parse_numeric


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_thirteen_channels_with_unique_contiguous_indices():
    assert N_CHANNELS == len(CHANNELS) == 13
    assert len(set(CHANNELS)) == 13
    assert [CHANNELS.index(name) for name in CHANNELS] == list(range(13))


def test_registry_covers_every_listed_item_exactly_once(registry):
    # 59 ids across the 13 channels; uniqueness is enforced at load time.
    assert len(registry) == 59
    per_channel = {name: [i for i, item in registry.items() if item.channel == c]
                   for c, name in enumerate(CHANNELS)}
    assert sum(len(v) for v in per_channel.values()) == 59
    assert len(per_channel["UrineOutput"]) == 26
    assert len(per_channel["GCS"]) == 6


def test_resolve_known_items(registry):
    assert registry[220045] == Item(CHANNELS.index("HeartRate"), "plain",
                                    "chartevents")
    assert registry[676] == Item(CHANNELS.index("TempF"), "temp_c",
                                 "chartevents")
    assert registry[227488] == Item(CHANNELS.index("UrineOutput"),
                                    "urine_in_irrigant", "outputevents")


def test_unlisted_item_resolves_to_none(registry):
    assert registry.get(999999) is None


def test_quirky_ids_ship_as_listed(registry):
    # 950824 (likely a typo upstream) and 190 are deliberately kept.
    assert CHANNELS[registry[950824].channel] == "Sodium"
    assert CHANNELS[registry[190].channel] == "FiO2"
    # Potassium resolution keys on item id even though the shipped table
    # column calls them chart items.
    assert registry[50971] == Item(CHANNELS.index("Potassium"), "plain",
                                   "chartevents")


def test_duplicate_item_id_rejected(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        "item_id,channel,subrole,source_table\n"
        "211,HeartRate,plain,chartevents\n"
        "211,SBP,plain,chartevents\n"
    )
    with pytest.raises(ConfigError, match="duplicate"):
        load_registry(path)


@pytest.mark.parametrize("item_id", [
    "-211", "2_20045", "+211", "0", pytest.param("9" * 5000, id="5000-digits"),
])
def test_item_id_outside_plain_positive_digits_rejected(tmp_path, item_id):
    path = tmp_path / "registry.csv"
    path.write_text(
        "item_id,channel,subrole,source_table\n"
        "220045,HeartRate,plain,chartevents\n"
        f"{item_id},SBP,plain,chartevents\n"
    )
    with pytest.raises(ConfigError,
                       match=re.escape(f"line 3: bad item id '{item_id}'")):
        load_registry(path)


def test_item_id_may_carry_surrounding_spaces(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("item_id,channel,subrole,source_table\n"
                    " 211 ,HeartRate,plain,chartevents\n")
    assert load_registry(path) == {
        211: Item(CHANNELS.index("HeartRate"), "plain", "chartevents")}


def test_parse_numeric_prefers_numeric_column():
    assert parse_numeric(7.4, None) == 7.4
    assert parse_numeric(7.4, "ignored") == 7.4


def test_parse_numeric_error_text_is_missing():
    assert parse_numeric(None, "ERROR") is None
    assert parse_numeric(None, None) is None
    for text in ("nan", "inf", "-inf", "1e999", "1_0.5", "\u0661\u0662"):
        assert parse_numeric(None, text) is None


def test_parse_numeric_parses_numeric_text():
    assert parse_numeric(None, "98.6") == 98.6
    assert parse_numeric(None, " 12 ") == 12.0
