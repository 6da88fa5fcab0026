"""A parse is construction: ``parse_module`` and ``parse_op`` run with
automatic collection held off (``repro.permanent.paused``) and leave the
collector exactly as they found it, on every way out."""

from __future__ import annotations

import gc

import pytest

from repro import permanent
from repro.ir import ParseError, parse_module, parse_op, print_op
from repro.scenarios import get_scenario

MODULE = (
    "builtin.module() ({\n"
    "  %0 = arith.constant() {value = 1 : i32} : () -> i32\n"
    "}) : () -> ()\n"
)
OP = "%0 = arith.constant() {value = 1 : i32} : () -> i32"
BAD = "%0 = arith.constant() {value = 1 : i32} : () -> "

PARSERS = {"parse_module": (parse_module, MODULE), "parse_op": (parse_op, OP)}


@pytest.fixture(autouse=True)
def collector_restored():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture(params=sorted(PARSERS))
def parser(request):
    return PARSERS[request.param]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_is_left_as_found(parser, enabled):
    parse, text = parser
    (gc.enable if enabled else gc.disable)()
    parse(text)
    assert gc.isenabled() is enabled


def test_inside_an_outer_pause_the_collector_stays_off(parser):
    parse, text = parser
    gc.enable()
    with permanent.paused():
        parse(text)
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_parse_error_leaves_the_collector_as_found(enabled):
    for parse in (parse_module, parse_op):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ParseError):
            parse(BAD)
        assert gc.isenabled() is enabled


def test_no_automatic_collection_fires_while_parsing():
    pipeline = get_scenario("pipeline")
    cfg = pipeline.configure(stage="systolic", n=2, c=2, h=8, w=8, fh=3, fw=3)
    text = print_op(pipeline.build(cfg))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.enable()
    gc.collect()  # an empty young generation: the call itself cannot fill it
    gc.callbacks.append(count)
    try:
        module = parse_module(text)
    finally:
        gc.callbacks.remove(count)
    assert started == []
    assert sum(1 for _ in module.walk()) > 700  # more than gen 0 holds
