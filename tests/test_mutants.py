"""The mutation audit's edits still match the source they mutate.

``tools/mutants.py`` stops with an error on an edit whose text is not found
exactly once, so a refactor that moves a mutated line would otherwise break
the audit unnoticed until its next run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_edit_is_found_exactly_once(mutant):
    text = (ROOT / "src" / "icumort" / mutant.path).read_text()
    try:
        assert mutants.mutated(text, mutant) != text
    except SystemExit as exc:
        pytest.fail(str(exc))
