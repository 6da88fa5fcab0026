"""The §V lowering passes: what a contract row does not state — the
errors they raise and the structure they leave.  What each pass keeps of
a program is held by ``PASS_CONTRACTS`` (``test_pass_contracts.py``)."""

import pytest

from repro import ir
from repro.dialects import memref
from repro.ir import PassError
from repro.passes import PassManager
from repro.passes.equeue_passes import find_launch
from repro.sim import simulate
from tests.differential import (
    MEMCPY,
    PASS_CONTRACTS,
    conv_program,
    parallel_program,
    staged_program,
)

PARALLEL = "parallel-to-equeue{comp=grid,proc_template=pe_{0}}"


def lowered(module, pipeline):
    PassManager.parse(pipeline).run(module)
    return [op.name for op in module.walk()]


@pytest.mark.parametrize("build, pipeline, message", [
    (conv_program, "allocate-buffer{memory=ghost}", "no value named"),
    (staged_program, "launch{proc=kernel}", "no top-level computation"),
    (staged_program, "split-launch{launch=use,at=0}", "out of range"),
    (conv_program, "reassign-buffer{from=ifmap,to=weight}", "types differ"),
])
def test_a_pass_refuses_with_a_message(build, pipeline, message):
    with pytest.raises(PassError, match=message):
        lowered(build(), pipeline)


def test_linalg_to_affine_nests_six_loops_or_flattens_to_three():
    names = lowered(conv_program(), "convert-linalg-to-affine-loops")
    assert names.count("affine.for") == 6 and "linalg.conv2d" not in names
    # equeue-read-write leaves no affine access.
    names = lowered(conv_program(), "convert-linalg-to-affine-loops,equeue-read-write")
    assert not {"affine.load", "affine.store"} & set(names)
    flat = lowered(conv_program(), "convert-linalg-to-affine-loops{flatten=true}")
    # Flattening recovers the indices by div/rem.
    assert flat.count("affine.for") == 3 and "arith.divsi" in flat


def test_allocate_buffer_moves_the_allocs_its_prefix_names():
    for options, moved in (("", 3), (",prefix=if", 1)):
        names = lowered(conv_program(), f"allocate-buffer{{memory=sram{options}}}")
        assert names.count("equeue.alloc") == moved
        assert names.count("memref.alloc") == 3 - moved


def test_launch_captures_the_three_buffers_and_is_awaited():
    module = conv_program()
    lowered(module, "allocate-buffer{memory=sram},launch{proc=kernel,label=work}")
    launch = find_launch(module, "work")
    after = launch.parent.ops[launch.parent.index_of(launch) + 1]
    assert len(launch.captured) == 3 and after.name == "equeue.await"


@pytest.mark.parametrize("pipeline, launches", [
    ("memcpy-to-launch", 2), ("merge-memcpy-launch{launch=use}", 1),
])
def test_a_copy_pass_leaves_no_memcpy(pipeline, launches):
    names = lowered(staged_program(), f"{MEMCPY},{pipeline}")
    assert "equeue.memcpy" not in names and names.count("equeue.launch") == launches


def test_split_launch_names_its_halves():
    module = staged_program()
    lowered(module, "split-launch{launch=use,at=1}")
    launches = [op for op in module.walk() if op.name == "equeue.launch"]
    assert [op.get_attr("label") for op in launches] == ["use_0", "use_1"]


def test_parallel_unrolls_to_four_launches_from_one_start():
    module = parallel_program()
    assert "affine.parallel" not in lowered(module, PARALLEL)
    launches = [op for op in module.walk() if op.name == "equeue.launch"]
    assert len(launches) == 4
    assert len({id(launch.operand(0)) for launch in launches}) == 1


def test_lower_extraction_folds_templates_and_paths():
    module = PASS_CONTRACTS["lower-extraction"].build()
    lowered(module, "lower-extraction")
    comps = [op for op in module.walk() if op.name == "equeue.get_comp"]
    assert not any(op.has_attr("name_template") for op in comps)
    used = [op.get_attr("name") for op in comps if op.result().has_uses]
    assert used == ["pe_1", "row.pe_0"]


def test_unrolled_copies_of_a_named_value_go_unnamed():
    """A name hint names one value, and the engine names a buffer after
    its ``alloc``'s: four copies of a body that allocates ``%scratch``
    are four buffers, none of them ``scratch``."""
    module = parallel_program()
    loop, = [op for op in module.walk() if op.name == "affine.parallel"]
    body = ir.Builder(ir.InsertionPoint.at_begin(loop.body))
    memref.alloc(body, [1], ir.i32).name_hint = "scratch"
    loop.body.ops[2].result().name_hint = "doubled"
    assert "%scratch" in ir.print_op(module)
    lowered(module, PARALLEL)
    text = ir.print_op(module)
    assert "%scratch" not in text and "%doubled" not in text
    assert ir.print_op(ir.parse_module(text)) == text
    result = simulate(module)
    scratch = [name for name in result.buffers if name != "buf"]
    assert len(scratch) == len(set(scratch)) == 4
