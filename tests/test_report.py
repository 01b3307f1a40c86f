import hashlib
import json
import random

import pytest

from zerosum.groups import group
from zerosum.lifting import _family_rows
from zerosum.report import Report, Stopwatch
from zerosum.sequences import Sequence


def test_passed_reflects_counterexamples_and_status():
    assert Report("c", {}).passed
    assert not Report("c", {}, counterexamples=[{"bad": 1}]).passed
    assert not Report("c", {}, status="budget exceeded").passed


def test_json_shape():
    r = Report("c", {"n": 3}, orbits_scanned=7, elapsed_ms=12, details={"k": 1})
    obj = r.to_json_obj()
    assert obj["check"] == "c" and obj["params"] == {"n": 3}
    assert obj["passed"] is True and obj["elapsed_ms"] == 12
    assert "status" not in obj
    assert json.loads(r.to_json()) == obj


def test_timing_excluded_for_comparison():
    a = Report("c", {"n": 3}, orbits_scanned=7, elapsed_ms=12)
    b = Report("c", {"n": 3}, orbits_scanned=7, elapsed_ms=99)
    assert a.to_json(timing=False) == b.to_json(timing=False)
    assert a.to_json() != b.to_json()


def test_stopwatch_measures_something():
    with Stopwatch() as sw:
        sum(range(1000))
    assert sw.elapsed_ms >= 0


# a passing item-1 report lists no samples, so its ledger entry cannot see a
# changed sample stream; these pin it: sha256 of the JSON list of
# to_json_obj() of the Sequences of the first 500 samples of _family_rows,
# taken when the sampler moved to plain bulk uniform draws (values below N
# from the top bits of getrandbits words)
PINNED_STREAM_DIGESTS = {
    (8, 11): "cee2fef12cd97df09322fcbf83600017008bbc9d99d5c4e302c2265f188d7843",
    (8, 2026): "afdcb43f89c010351d76a5526741c35e5554fc53301f4b0545a4f7d3f75df697",
    (20, 11): "efb231e3303b65efce8cd568204d004fd9b1d66b9bd8418a46981b2acdd05597",
    (20, 2026): "a06e14f1858c17805599615230c8dafa82d193a8bdc83cb7328d93a7d1791f02",
}


@pytest.mark.parametrize("N,seed", sorted(PINNED_STREAM_DIGESTS))
def test_item1_sample_stream_matches_pinned_digest(N, seed):
    grp, mults = group(N), [N - 1] + [1] * N
    objs = [Sequence(grp, zip(row, mults)).to_json_obj()
            for rows in _family_rows(N, random.Random(seed), 500) for row in rows.tolist()]
    text = json.dumps(objs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STREAM_DIGESTS[(N, seed)]
