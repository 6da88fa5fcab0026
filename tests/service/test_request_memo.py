"""The resolution memo is exact.

``JobRequest.make`` resolves a spelling once per process: the same
arguments, each value with its type, return the request they returned
before.  Over drawn spellings a memoized ``make`` and a fresh one (the
memo emptied) return the same request — compared by ``repr``, which
keeps ``True``, ``1`` and ``1.0`` apart where ``==`` does not — and the
same store key, or the same refusal.  A refused spelling is refused on
every call and never remembered, a scenario registered again between
two identical spellings is resolved again, and the memo never holds
more than its cap.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import get_scenario, register_scenario
from repro.scenarios.gemm import GemmConfig
from repro.service import JobRequest
from repro.service import request as request_module
from repro.service.request import RequestError, request_store_key

#: Field values, with the spellings ``==`` cannot tell apart among them.
VALUES = st.one_of(
    st.sampled_from([True, False, 1, 1.0, 0, 0.0, -0.0, 4, 4.0, 8]),
    st.booleans(),
    st.integers(-1, 64),
    st.floats(-1, 64, allow_nan=False),
    st.text(max_size=2),
)

#: Mostly gemm's own fields, and one it does not have.
CONFIGS = st.dictionaries(
    st.sampled_from(["m", "k", "n", "tile_k", "double_buffer", "nope"]),
    VALUES,
    max_size=3,
)

SPELLINGS = st.fixed_dictionaries({
    "scenario": st.sampled_from(["gemm", "gemm:k=32,tile_k=8", "no-such"]),
    "config": CONFIGS,
    "seed": st.one_of(st.integers(0, 3), st.booleans()),
    "options": st.sampled_from([{}, {"mode": "codegen"}]),
    "check": st.one_of(st.booleans(), st.integers(0, 2)),
})


def attempt(call):
    """``call()``, or the name of what it raised: a request ``make``
    accepts may still fail to key (a float where inputs want an int)."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error).__name__


def outcome(spelling):
    """What ``make`` answers a spelling: the request, exactly, and its
    store key — or the refusal."""
    try:
        request = JobRequest.make(**spelling)
    except RequestError as error:
        return "refused", str(error)
    return (
        repr(request),
        attempt(request.key),
        attempt(lambda: request_store_key(request)),
    )


def fresh(spelling):
    with mock.patch.object(request_module, "_RESOLVED", {}):
        return outcome(spelling)


@settings(max_examples=150, deadline=None)
@given(spelling=SPELLINGS)
def test_a_memoized_make_is_a_fresh_make(spelling):
    first = outcome(spelling)
    assert outcome(spelling) == first == fresh(spelling)


def test_true_one_and_one_point_oh_are_three_spellings():
    values = (True, 1, 1.0)
    for _ in range(2):  # resolved, then memoized
        requests = [
            JobRequest.make("gemm", config={"double_buffer": value})
            for value in values
        ]
        assert [type(dict(r.config)["double_buffer"]) for r in requests] == [
            bool, int, float,
        ]
        assert len({r.key() for r in requests}) == 3


@pytest.mark.parametrize(
    "spelling",
    [
        {"scenario": "no-such"},
        {"scenario": "gemm", "config": {"nope": 1}},
        {"scenario": "gemm", "config": {"m": [1]}},
        {"scenario": "gemm", "config": {"k": 30}},
        {"scenario": "gemm", "options": {"mode": "warp"}},
        {"scenario": "gemm", "options": {"turbo": True}},
    ],
    ids=str,
)
def test_a_refused_spelling_is_refused_every_time(spelling):
    before = dict(request_module._RESOLVED)
    for _ in range(3):
        with pytest.raises(RequestError):
            JobRequest.make(**spelling)
    assert request_module._RESOLVED == before


@dataclasses.dataclass(frozen=True)
class WideGemmConfig(GemmConfig):
    m: int = 8


def test_a_scenario_registered_again_resolves_again():
    original = get_scenario("gemm")
    first = JobRequest.make("gemm", config={"k": 32})
    assert JobRequest.make("gemm", config={"k": 32}) is first
    register_scenario(
        dataclasses.replace(original, config_cls=WideGemmConfig), replace=True
    )
    try:
        again = JobRequest.make("gemm", config={"k": 32})
        assert dict(first.config)["m"] == 4 and dict(again.config)["m"] == 8
        assert JobRequest.make("gemm", config={"k": 32}) is again
    finally:
        register_scenario(original, replace=True)
    assert JobRequest.make("gemm", config={"k": 32}) == first


def test_the_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(request_module, "_MEMO_CAP", 8)
    monkeypatch.setattr(request_module, "_RESOLVED", {})
    for seed in range(50):
        JobRequest.make("fir", seed=seed)
        assert 1 <= len(request_module._RESOLVED) <= 8
