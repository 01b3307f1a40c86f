import hashlib
import json
import random

import pytest

from zerosum.groups import group
from zerosum.lifting import _coset_form_sample, verify_propbfix_item1
from zerosum.perturbation import verify_perturbation
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
    assert json.loads(r.to_json(pretty=True)) == obj


def test_timing_excluded_for_comparison():
    a = Report("c", {"n": 3}, orbits_scanned=7, elapsed_ms=12)
    b = Report("c", {"n": 3}, orbits_scanned=7, elapsed_ms=99)
    assert a.to_json(timing=False) == b.to_json(timing=False)
    assert a.to_json() != b.to_json()


def test_stopwatch_measures_something():
    with Stopwatch() as sw:
        sum(range(1000))
    assert sw.elapsed_ms >= 0


# sha256 of to_json(timing=False), taken from a run of commit c8b2c3b, the
# parent of the speed-ups to matches_eq1, the Sequence constructor, perturb
# and has_short_zero_sum; a speed-up must leave these reports byte-identical
PINNED_DIGESTS = {
    ("perturbation", 4, "I"): "29f206d6f5f2c8854ab841aeb079994a408bbfe320e8e56e755d22684bc10491",
    ("perturbation", 4, "II"): "cd4ad80c138659a7da8f7f73390e13eae9db1b6640af04b23e51417597687fe0",
    ("perturbation", 4, "III"): "f58c71bb5aa2b582d5b126ab9295c5b831b31b3d1cd5cab8f56aa701563d63dd",
    ("perturbation", 5, "I"): "bc1bd5b95e08591555d02e1b6cc20a8e210e46de7f23e87d53401ab65748ba62",
    ("perturbation", 5, "II"): "c46efdaa139403e5ebc49eb7c7214128ba0bb392abcc34bd8d660272430c2285",
    ("perturbation", 5, "III"): "0205789fb654600042f72925bca3566b0977a752fa00c0eb3d09aa8dd327f61a",
    ("perturbation", 6, "I"): "e3ecf48e1f5ebbbd648e59d924952c6bf9d3188b281c63a99699d97b2c891427",
    ("perturbation", 6, "II"): "5f388bd8c3dc8d8171a833e4c6748a8a8a84faad9fb369aa311d940cae801035",
    ("perturbation", 6, "III"): "d5d9ade82d7e28ead7aa1d1f99c271cfc5e58783840458334e49178e028bfa10",
    ("propbfix-item1", 4, 2): "303ed5cfa3ed2da81f985baddb00c5c57b29493fc16b285f3dc1c35b207a44e6",
    ("propbfix-item1", 4, 5): "af90bf7fde5b004fa0f546cf0dd647b26884a81c7a566120c185f1f71ddfc8da",
}


def _pinned_report(check, a, b):
    if check == "perturbation":
        return verify_perturbation(a, b)
    return verify_propbfix_item1(a, b, samples=2000, seed=11)


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS, key=repr))
def test_report_matches_pinned_digest(key):
    text = _pinned_report(*key).to_json(timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[key]


# a passing item-1 report lists no samples, so the digests above cannot see
# a changed sample stream; these pin it: sha256 of the JSON list of
# to_json_obj() of the Sequences of the first 500 _coset_form_sample draws, taken from a run
# of commit 5963332, before the samples were built in one step
PINNED_STREAM_DIGESTS = {
    (8, 11): "e23919f629696f51c69f1b4f8bb0178ee2f4c9846f614ec2740211409006c1ad",
    (8, 2026): "26b300b7f94ef5d699fa4408d6dcc9557c3770e47bb926fe5e14005baec02801",
    (20, 11): "0abbe7766640fe9a2cae01a5e39bb2e183fbe009fff4310d21dcd9e00f4ae43d",
    (20, 2026): "e47ce173f9c2ca04a37cd64c8e04aa7e487a4f9aa8e68907776ba8db42e56a4b",
}


@pytest.mark.parametrize("N,seed", sorted(PINNED_STREAM_DIGESTS))
def test_item1_sample_stream_matches_pinned_digest(N, seed):
    grp, rng = group(N), random.Random(seed)
    objs = [Sequence(grp, _coset_form_sample(grp, rng)).to_json_obj() for _ in range(500)]
    text = json.dumps(objs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STREAM_DIGESTS[(N, seed)]
