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
# from the top bits of getrandbits words).  Re-pinned when _ROWS went from
# 256 to 512: the 500 samples are now one chunk, drawn as one block of
# residues and then one of automorphisms, where they were two chunks of 256
# and 244, so a seed gives other samples.  The int64 sampler with _ROWS set
# to 512 gives these digests, and the int32 one with _ROWS set to 256 the
# old ones, so the row dtype moves no value.
PINNED_STREAM_DIGESTS = {
    (8, 11): "23562b1fd0d8003c2fb25592ed1135c3772245f7f47830be96e80e7f979a3735",
    (8, 2026): "307a8cca81dcada3427eead145edd90e7d81489dbe320f568759814d95a42704",
    (20, 11): "4b049c9d233f4d7c64af193687a65fe6be67982c3e7654c9e2d8debcd6d0fb73",
    (20, 2026): "6958efc7709c78d7218c8140fddcd4465f195c889bece7bb186d9c12a9841926",
}


@pytest.mark.parametrize("N,seed", sorted(PINNED_STREAM_DIGESTS))
def test_item1_sample_stream_matches_pinned_digest(N, seed):
    grp, mults = group(N), [N - 1] + [1] * N
    objs = [Sequence(grp, zip(row, mults)).to_json_obj()
            for rows in _family_rows(N, random.Random(seed), 500) for row in rows.tolist()]
    text = json.dumps(objs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STREAM_DIGESTS[(N, seed)]
