"""Every lowering pass is a checked refinement: each row of
``PASS_CONTRACTS`` (``tests/differential.py``) under its id, a registered
pass that no row refines named, and two bugs planted here — never in
``src/`` — each failing a named row."""

import numpy as np
import pytest

from repro.ir import PassError
from repro.passes import (
    Pass, equeue_passes, manager, register_pass, registered_passes,
)
from tests.conftest import conv2d_reference
from tests.differential import PASS_CONTRACTS, refine, uncovered_passes


@pytest.mark.parametrize("name", PASS_CONTRACTS)
def test_every_pass_is_a_refinement(name):
    refine(PASS_CONTRACTS[name])


def test_every_registered_pass_has_a_row():
    assert not uncovered_passes(), f"no contract refines {uncovered_passes()}"


def test_a_pass_without_a_row_fails_by_name(monkeypatch):
    monkeypatch.setattr(manager, "_PASS_REGISTRY", registered_passes())

    @register_pass
    class Unchecked(Pass):
        pass_name = "unchecked"

    assert uncovered_passes() == ["unchecked"]


@pytest.mark.parametrize("name, buffer, answer", [
    ("linalg-to-affine:n=2,c=2,h=5,w=5,fh=2,fw=2", "ofmap",
     lambda given: conv2d_reference(given["ifmap"], given["weight"])),
    ("matmul-to-affine", "c", lambda given: given["a"] @ given["b"]),
])
def test_both_sides_of_a_linalg_row_compute_numpys_answer(name, buffer, answer):
    expected = answer(PASS_CONTRACTS[name].inputs)
    for done in refine(PASS_CONTRACTS[name]):
        np.testing.assert_array_equal(done.result.buffer(buffer), expected)


def test_a_merge_that_skips_its_prologue_write_fails(monkeypatch):
    merge = equeue_passes.MergeMemcpyLaunchPass.run

    def skips_the_write(self, module):
        merge(self, module)
        launch = equeue_passes.find_launch(module, self.option("launch"))
        launch.regions[0].entry_block.ops[1].erase()

    monkeypatch.setattr(
        equeue_passes.MergeMemcpyLaunchPass, "run", skips_the_write
    )
    with pytest.raises(AssertionError, match=r"buffers \['dst', 'out'\]"):
        refine(PASS_CONTRACTS["merge-memcpy-launch"])


def test_a_launch_missing_a_capture_fails(monkeypatch):
    captures = equeue_passes._collect_captures
    monkeypatch.setattr(
        equeue_passes, "_collect_captures", lambda moved: captures(moved)[1:]
    )
    with pytest.raises(PassError, match="after pass 'launch'"):
        refine(PASS_CONTRACTS["launch"])
