"""The census reasons file names functions that exist, each with a reason.

``tests/census.py --check`` runs every entry point (minutes); this is the
part that needs none of them: every key of ``census_reasons.json`` must
still be a ``def`` under ``src/repro`` and carry a one-line reason, so a
rename or a deletion cannot leave a stale entry behind.
"""

import json

from census import REASONS, functions

ENTRIES = json.loads(REASONS.read_text())
DEFINED = {function.name for function in functions()}


def test_the_file_holds_reasons():
    assert ENTRIES


def test_every_entry_names_a_def():
    assert sorted(set(ENTRIES) - DEFINED) == []


def test_every_reason_is_one_nonempty_line():
    assert [name for name, reason in ENTRIES.items()
            if not reason.strip() or "\n" in reason] == []
