"""Every entry of ``tests/ledger.json`` is what its call returns; the test
ids are the ledger's keys."""

import json

import pytest

from zerosum import enumeration

import ledger
from ledger import LEDGER


@pytest.mark.parametrize("key", sorted(LEDGER))
def test_ledger_entry(key):
    assert ledger.run(key) == LEDGER[key]


@pytest.mark.parametrize("key", sorted(k for k in LEDGER if k.split()[0] in ledger.SEARCHES))
def test_search_entry_at_two_jobs(monkeypatch, key):
    """Forked over two workers, a search returns what test_ledger_entry
    checks jobs=1 returns."""
    monkeypatch.setattr(enumeration, "_SERIAL_NODES", 64)  # so that jobs=2 forks
    assert ledger.run(key, jobs=2) == LEDGER[key]


def test_a_malformed_ledger_is_rejected(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text('{\n "a": {\n  "n": 1,\n  "n": 2\n }\n}\n')
    with pytest.raises(ValueError, match="duplicated key 'n'"):
        ledger.load(path)
    path.write_text(json.dumps(LEDGER, sort_keys=True) + "\n")
    with pytest.raises(ValueError, match="not in the form"):
        ledger.load(path)
    path.write_text(ledger.dumps(LEDGER))
    assert ledger.load(path) == LEDGER
