"""Block-plan compilation: the compile-once/execute-many fast path (§VI-C).

The generic engine of :mod:`repro.sim.engine` is an *interpreter*: every
execution of a block re-walks ``block.ops``, re-looks-up each handler in
the dispatch table, and re-parses static attributes.  That is the price of
generality the paper measures against SCALE-Sim (Fig. 9's up-to-7x
wall-clock gap) — and it is pure overhead, because a block's structure
never changes during a simulation while hot blocks (PE step bodies, loop
bodies) execute thousands to millions of times.

This module removes the overhead the way compiled simulators (Manticore,
GSIM) do: each block is walked **once** and lowered into a
:class:`BlockPlan` — a flat list of pre-bound *steps* with the handler
lookup, ``get_attr`` parsing, operand-tuple decomposition, and
flush/trace decisions all resolved at compile time.  Executing a block
then just replays the plan.  Observable behaviour (cycle counts, buffer
contents, traffic statistics, busy time, even the scheduler-event count)
is bit-identical to the interpreted path; the
``EngineOptions(mode="interpret")`` escape hatch keeps the interpreter
available for differential testing.

Plans integrate with the tiered event-wheel scheduler of
:mod:`repro.sim.kernel`: the durations their steps yield reach
``Simulator.schedule_bucket`` (a calendar-wheel bucket append for the
common 1–64 cycle latencies), their event waits resume through the
zero-delay microtask ring (``schedule_soon``), and a plan that never
suspends completes through :meth:`BlockPlan.execute` without touching
the scheduler — or allocating a generator frame — at all.

Step kinds
==========

=================  ========================================================
``K_CONST``        bind a constant into the environment (no call at all)
``K_SITE``         the same for a constant of a launch body compiled once
                   per *shape*: the value comes from the launch site's
                   constant vector (see "Shapes and sites" below)
``K_DYN``          pre-bound closure returning a local cycle cost *or* a
                   generator (arith, reads/writes, coarse models) — the
                   hot kind, checked first by both executors.  A scalar
                   read/write that has to wait takes the value and
                   counts the traffic in the step, and returns the
                   wait every tier shares (:func:`_blocked_read`,
                   :func:`_blocked_write`)
``K_FLUSH_CALL``   flush pending cycles, then a plain call (launch, memcpy,
                   control events — their handlers never suspend)
``K_GEN``          flush pending cycles, then drive a generator: an await,
                   or a *fork–join step* — a run of launches, their
                   ``control_and`` and its ``await`` (:func:`step_ops`),
                   issued by one function that waits on one countdown
``K_CTRL``         structured control flow (scf.if / affine loops); no
                   flush — inner ops flush themselves on demand
``K_RET``          flush, resolve the block's return values, stop
``K_ANY``          an op with a handler but no step compiler, outside
                   ``_NEEDS_FLUSH``: the handler, pre-bound — the one kind
                   the code generator cannot express
=================  ========================================================

A step that only ever costs cycles is a ``K_DYN`` too: the executors'
``type(result) is int`` check is its whole dispatch.

Loops
=====

An ``affine.for`` has one form per tier: under replay the closure
:func:`_c_for` builds — a generator that enters the body's plan once per
iteration — and, in the generated body of the plan that holds it, a
native ``for`` statement with the loop body's steps in place (a
generator function: :func:`_suspends`).

Shapes and sites
================

An ``equeue.launch`` body is a closed term over its block arguments, and
a generated array stamps the same body out once per PE with different
``arith.constant`` values.  :func:`_shape_key` gives a body a structural
key — op names, attributes, argument and result types, operands as
positions over the whole body tree, constant *values* left out — and
:meth:`PlanCache.bind_site` compiles plan steps once per key, against
the first body seen with it.  Every launch of such a body binds its
captures to that representative's block arguments and carries a
:class:`BodySite`: its own constant vector plus one :class:`BlockPlan`
*view* per plan of the shape (shared steps, own generated body).  The
execution count and the emitted source belong to the shape; a site whose
shape got hot instantiates its own function from the shape's code object
with its constants as defaults.  What stops a body from being shared,
and what keeps a constant in the key, is listed at :func:`_shape_key`.
"""

from __future__ import annotations

import collections
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.attributes import attr_to_python
from ..ir.types import IndexType, MemRefType
from ..obs.spans import span as _span
from . import interp, oplib
from .components import MemoryModel

(
    K_CONST, K_DYN, K_FLUSH_CALL, K_GEN, K_CTRL, K_RET, K_ANY, K_SITE,
) = range(8)

#: Environment key under which a launch body finds the :class:`BodySite`
#: it runs for (only bodies compiled once per shape carry one).
_SITE = object()

_EMPTY: List[object] = []

#: Step kinds a plan may contain while still being executable *inline* —
#: without allocating a generator — as long as no step actually suspends.
#: See :func:`_inline_run`.  (A plan with the others — an ``await``,
#: returned values — replays through :meth:`BlockPlan.run`, and its
#: generated body can only be of the suspending kind.)
_INLINEABLE = frozenset({K_CONST, K_SITE, K_DYN, K_CTRL, K_FLUSH_CALL})

#: Executions a plan replays before ``mode=codegen`` swaps in its
#: generated body: measured cost of
#: generating a body (0.37 ms) ÷ measured gain per execution of one
#: (4.9 µs) ≈ 75, rounded down to a power of two — ``docs/performance.md``,
#: "Default mode", has the readings.  A block entered fewer times never
#: reaches ``compile()``; a systolic PE body crosses it a tenth of the
#: way into its first simulation.  Not an option: tests patch it.
TIER_UP_EXECUTIONS = 64


class BlockPlan:
    """A compiled block: a flat list of ``(kind, payload, extra)`` steps.

    Under ``mode=codegen`` a plan counts its executions in ``runs`` (the
    count lives as long as the plan, so it carries over between
    simulations sharing a :class:`PlanCache`) and how many of them
    suspended in ``suspensions``; past :data:`TIER_UP_EXECUTIONS` it
    gains ``compiled`` — the specialized Python function
    :func:`repro.sim.codegen.compile_block_body` instantiates from this
    plan's steps, of the kind :func:`_suspends` picks from those two
    counts.  ``tier`` is the cache that does the swap; ``None`` in plan
    mode and for a plan the emitter cannot express (an uncompiled
    extension op, ``K_ANY``), where ``compiled`` stays ``None`` for
    good.

    A launch site's *view* of a plan compiled once per shape shares that
    :class:`ShapePlan`'s ``steps`` and names it in ``shape`` — the
    threshold is compared against the shape's counts, summed over every
    site — while ``compiled`` is the site's own function, instantiated
    for the :class:`BodySite` in ``site``.

    ``block`` is the block the steps were compiled from — for a view,
    the representative's, whose SSA values the steps name: the code
    generator tells values defined inside its tree from values the
    body is entered with by it.
    """

    __slots__ = (
        "steps", "inlineable", "compiled", "runs", "suspensions", "tier",
        "shape", "site", "block",
    )

    def __init__(self, steps, tier, block):
        self.steps = steps
        self.inlineable = all(k in _INLINEABLE for k, _, _ in steps)
        self.compiled = None
        self.runs = 0
        self.suspensions = 0
        self.tier = tier
        self.shape = None
        self.site = None
        self.block = block

    def execute(self, ex, env):
        """Run a block entered from the env ``env`` — a nested block, the
        top-level one — under the inline/suspend protocol: ``None`` when
        the plan completed without suspending (the hot case — no
        generator frame was allocated), else a generator the caller must
        drive to finish the remaining work; it returns what
        ``equeue.return_values`` names, if the block ends in one.  A
        launch body is entered with its captures instead
        (``engine._Dispatcher.dispatch``)."""
        if self.compiled is not None:
            return self.compiled(ex, env)
        return _cold_run(self, ex, env)

    def run(self, ex, env, steps=None):
        """Execute the plan; a generator with the engine's yield protocol.

        Mirrors ``Engine._run_block`` exactly: int costs accumulate into
        the pending counter, generator steps flush first (except
        structured control flow), and ``equeue.return_values`` flushes and
        resolves the returned runtime values.  ``steps`` overrides the
        step list when resuming after an :func:`_inline_run` suspension.
        """
        if steps is None:
            steps = self.steps
        returns = _EMPTY
        for kind, a, b in steps:
            if kind == K_DYN:
                result = a(ex, env)
                if type(result) is int:
                    if result:
                        ex.pending += result
                else:
                    if ex.pending:
                        pending, ex.pending = ex.pending, 0
                        yield pending
                    yield from result
            elif kind == K_CONST:
                env[a] = b
            elif kind == K_FLUSH_CALL:
                if ex.pending:
                    pending, ex.pending = ex.pending, 0
                    yield pending
                a(ex, env)
            elif kind == K_CTRL:
                gen = a(ex, env)
                if gen is not None:
                    yield from gen
            elif kind == K_GEN:
                if ex.pending:
                    pending, ex.pending = ex.pending, 0
                    yield pending
                yield from a(ex, env)
            elif kind == K_ANY:
                # Uncompiled extension op outside _NEEDS_FLUSH: like the
                # interpreter, int costs accumulate and generators run
                # without a flush.
                result = a(ex, env)
                if type(result) is int:
                    if result:
                        ex.pending += result
                else:
                    yield from result
            elif kind == K_SITE:
                # Only a suspended shared body resumes here (shared
                # plans are inlineable): last in line.
                env[a] = env[_SITE].consts[b]
            else:  # K_RET
                if ex.pending:
                    pending, ex.pending = ex.pending, 0
                    yield pending
                resolve = b
                returns = [resolve(env, v) for v in a]
                break
        return returns


def _inline_run(plan, ex, env):
    """Run an inlineable plan without a generator if nothing suspends.

    Returns ``None`` when the plan completed, or a generator that finishes
    the remaining work when a step produced a suspension (a contended
    read/write, a flush with pending cycles, nested control flow that
    itself suspended).  Callers treat the result exactly like a ``K_CTRL``
    step result.  Hot launch bodies — e.g. a systolic PE's guarded
    read/mac/write step — complete inline on every execution.
    """
    steps = plan.steps
    for index, (kind, a, b) in enumerate(steps):
        if kind == K_DYN:
            result = a(ex, env)
            if type(result) is int:
                if result:
                    ex.pending += result
                continue
            return _resume(plan, ex, env, result, index, True)
        elif kind == K_CONST:
            env[a] = b
        elif kind == K_SITE:
            env[a] = env[_SITE].consts[b]
        elif kind == K_FLUSH_CALL:
            if ex.pending:
                return plan.run(ex, env, steps[index:])
            a(ex, env)
        else:  # K_CTRL
            result = a(ex, env)
            if result is not None:
                return _resume(plan, ex, env, result, index, False)
    return None


def entry_env(site, arguments, values) -> dict:
    """THE env of a launch body that runs as a plan, interpreted or
    replayed after a deopt: the :class:`BodySite` it runs for under
    ``_SITE`` (``None``: a body of its own), and its block
    ``arguments`` bound to the capture ``values``, in order."""
    env = dict(zip(arguments, values))
    env[_SITE] = site
    return env


def _cold_run(plan, ex, env, values=None):
    """Enter a plan that has no generated body: replay it, or — once
    ``mode=codegen`` has seen it :data:`TIER_UP_EXECUTIONS` times —
    generate the body and run that from this entry on (a launch body's
    with its capture ``values``).  What the replays did is what the
    body's kind is chosen from: an entry whose replay handed a
    generator back is counted as suspended."""
    cache = plan.tier
    if cache is None:
        if plan.inlineable:
            return _inline_run(plan, ex, env)
        return plan.run(ex, env)
    plan.runs = runs = plan.runs + 1
    # A site's view: the counts are the shape's, over all sites.
    counted = plan.shape
    if counted is None:
        counted = plan
    else:
        counted.runs = runs = counted.runs + 1
    if runs > TIER_UP_EXECUTIONS:
        body = cache.tier_up(plan)
        return body(ex, env) if values is None else body(ex, *values)
    if not plan.inlineable:
        return plan.run(ex, env)
    suspended = _inline_run(plan, ex, env)
    if suspended is not None:
        counted.suspensions += 1
    return suspended


def _suspends(plan) -> bool:
    """Which kind of generated body ``plan`` gets: the *suspending* kind
    (a generator function: a step that waits yields in place) or the
    *inline* kind (a plain function that returns ``None``, or hands the
    rest of the entry to :func:`_resume` the rare time a step waits).

    A plan with an ``await`` or returned values in it has no inline
    form, and one that holds an ``affine.for`` suspends on every
    replayed entry — the loop step (:func:`_c_for`) *is* a generator —
    so its loop is a native ``for`` of the suspending kind, whatever the
    threshold.  Otherwise the replays decide: a generator frame costs an
    entry about 0.9 µs (the 4x4 WS program's 11 093 entries with each
    kind forced), one suspension of the inline kind about 6 µs
    (``_resume`` plus :meth:`BlockPlan.run` over the rest of the
    steps), so the suspending kind pays from one suspended entry in
    seven or so — one in eight, as a power of two.  Nothing observable
    depends on the choice (``tests/sim/test_suspending_bodies.py``
    forces each)."""
    if not plan.inlineable or any(map(_is_for, plan.steps)):
        return True
    counted = plan.shape or plan
    return counted.suspensions * 8 > counted.runs


def _is_for(step) -> bool:
    """Is ``step`` an ``affine.for`` (:func:`_c_for`)?"""
    kind, _, meta = step
    return kind == K_CTRL and meta is not None and meta[0] == "for"


def _resume(plan, ex, env, gen, index, flush):
    """Finish a suspended :func:`_inline_run`: drive the pending
    generator (flushing first for ``K_DYN``), then the remaining steps."""
    if flush and ex.pending:
        pending, ex.pending = ex.pending, 0
        yield pending
    yield from gen
    yield from plan.run(ex, env, plan.steps[index + 1:])


class ShapePlan(BlockPlan):
    """A plan compiled once for every launch body of one shape.

    Nothing executes it directly: a site runs its own view of it
    (``site.plans[index]``).  The shape's steps — shared by all those
    views — reach a nested plan through :meth:`execute`, which forwards
    to the view of the site the body is running for.  ``emitted`` is
    what the code generator keeps once the shape got hot: the code
    object, how to fill its defaults in for a site, and which of them a
    site has to hold ``int``s in for the typed body to be its.
    """

    __slots__ = ("index", "emitted")

    def __init__(self, steps, tier, index, block):
        super().__init__(steps, tier, block)
        self.index = index
        self.emitted = None

    def execute(self, ex, env):
        return env[_SITE].plans[self.index].execute(ex, env)

    def view(self, site) -> BlockPlan:
        plan = BlockPlan.__new__(BlockPlan)
        plan.steps = self.steps
        plan.inlineable = self.inlineable
        plan.compiled = None
        plan.runs = 0
        plan.suspensions = 0
        plan.tier = self.tier
        plan.shape = self
        plan.site = site
        plan.block = self.block
        return plan


class BodyShape:
    """One compiled launch-body structure: the representative block the
    steps were compiled against (sites bind their captures to *its*
    arguments), the plans of its body tree — the body's own last — with
    the block each was compiled from, and that block's position in the
    key walk, which is how a site's own blocks find their views."""

    __slots__ = ("block", "plans", "blocks", "positions")

    def __init__(self, block):
        self.block = block
        self.plans: List[ShapePlan] = []
        self.blocks: List[object] = []
        self.positions: List[int] = []


class BodySite:
    """What one launch site of a shared body owns: the values of its
    abstracted ``arith.constant`` ops, in key order, its views of the
    shape's plans, and the shape.  Found by the shared steps as
    ``env[_SITE]``."""

    __slots__ = ("consts", "plans", "shape")

    def __init__(self, consts, shape: BodyShape):
        self.consts = consts
        self.plans = [plan.view(self) for plan in shape.plans]
        self.shape = shape


class SiteIndex(tuple):
    """An all-constant index list of a shared body: the representative's
    coordinates, and for each the slot of a site's constant vector it
    comes from (``None``: the constant stayed in the key).  Replay reads
    the indices from the environment like any dynamic index; generated
    code gets them folded per site by :meth:`at`."""

    def __new__(cls, values, slots):
        self = super().__new__(cls, values)
        self.slots = tuple(slots)
        return self

    def at(self, consts) -> Tuple[int, ...]:
        return tuple(
            value if slot is None else int(consts[slot])
            for value, slot in zip(self, self.slots)
        )


class _Unshareable(Exception):
    """Raised by :func:`_shape_key`; carries ``'<reason>:<op>'``."""


#: Ops whose handlers key state on the op's own identity
#: (``engine._elaborated``, a buffer named after the result): two launch
#: sites must never run one such op.
_IDENTITY_OPS = frozenset({"equeue.alloc", "equeue.get_comp", "memref.alloc"})

#: Region ops constant abstraction continues through: all but a nested
#: launch, whose body is a site of its own that every outer site would
#: share.
_ABSTRACTS_INTO = frozenset({"scf.if", "affine.for", "affine.parallel"})


def _unshareable(op) -> Optional[str]:
    """Why ``op`` (not in :data:`_SHAREABLE`) keeps its body per-site;
    ``None`` for the one op that is shareable conditionally."""
    name = op.name
    if name == "equeue.return_values":
        return f"K_RET:{name}" if op.operands else None
    if name == "equeue.await":
        return f"K_GEN:{name}"
    if name in _IDENTITY_OPS or name in _STRUCTURE_OPS:
        return f"identity:{name}"
    return f"K_ANY:{name}"


def _shape_key(block):
    """``(key, consts, values, blocks)`` of a launch body: its
    structural key, the values of the constants the key leaves out, the
    SSA values those constants define (same order), and the blocks of
    the body tree in walk order.

    The key is a flat tuple over the whole body tree: block-argument
    types, then per op its name, each operand as the position of its
    definition in the walk, its attributes, its result types, and a
    bracket around each nested block.  Two bodies with equal keys differ
    only in the *values* of their abstracted ``arith.constant`` ops, so
    plan steps compiled for one serve the other.  The fences:

    * an op that is not inlineable (``equeue.await``, returned values,
      uncompiled extension ops) or bears identity (:data:`_IDENTITY_OPS`,
      structure ops) raises :class:`_Unshareable` — the body is compiled
      on its own, as every body was;
    * a constant below a nested launch stays in the key
      (:data:`_ABSTRACTS_INTO`); attributes — loop bounds, labels,
      signatures, memcpy counts — and types always do;
    * an operand defined outside the body (not IsolatedFromAbove) is
      unshareable too.

    SSA name hints are not part of the key: no shareable op reads them.
    """
    numbers: Dict[object, int] = {}
    parts: List[object] = []
    consts: List[object] = []
    values: List[object] = []
    blocks: List[object] = []
    try:
        _key_block(block, numbers, parts, consts, values, blocks)
    except KeyError:
        raise _Unshareable("escapes:equeue.launch") from None
    return tuple(parts), tuple(consts), values, blocks


def _key_block(block, numbers, parts, consts, values, blocks) -> None:
    """Append ``block``'s part of a shape key; ``values is None`` where
    constants are no longer abstracted."""
    # Screened before anything nested is walked: a kernel body that
    # awaits the 64 PE bodies it launched is turned away without keying
    # them.
    for op in block.ops:
        if op.name not in _SHAREABLE:
            reason = _unshareable(op)
            if reason is not None:
                raise _Unshareable(reason)
    blocks.append(block)
    append = parts.append
    for argument in block.arguments:
        numbers[argument] = len(numbers)
        _key_type(parts, argument.type)
    for op in block.ops:
        name = op.name
        append(name)
        for operand in op.operands:
            append(numbers[operand.value])
        attributes = op.attributes
        if values is not None and name == "arith.constant":
            value = attributes["value"]
            append(type(value))
            consts.append(value.value)
            values.append(op.results[0])
        elif attributes:
            append(tuple(attributes.items()))
        for result in op.results:
            numbers[result] = len(numbers)
            append(result.type)
        if op.regions:
            inner = values if name in _ABSTRACTS_INTO else None
            for region in op.regions:
                for nested in region.blocks:
                    append("(")
                    _key_block(nested, numbers, parts, consts, inner, blocks)
                append(")")


def _stamp_walk(representative, stamp, consts, blocks, abstract=True) -> None:
    """The ``consts`` and ``blocks`` :func:`_shape_key` gives of
    ``stamp``, a copy of ``representative`` but for its constants'
    values (:attr:`PlanCache.stamps`), without building a key: the two
    trees are walked in lockstep, the structure read off the
    representative and only constant values and blocks off the stamp."""
    blocks.append(stamp)
    for model, op in zip(representative.ops, stamp.ops):
        if model.regions:
            inner = abstract and model.name in _ABSTRACTS_INTO
            for model_region, region in zip(model.regions, op.regions):
                for model_block, block in zip(model_region.blocks, region.blocks):
                    _stamp_walk(model_block, block, consts, blocks, inner)
        elif abstract and model.name == "arith.constant":
            consts.append(op.attributes["value"].value)


def _key_type(parts, type_) -> None:
    """Append the type of a block argument to a shape key: a memref as
    its rank and element type — all a step compiler
    (:func:`_buffer_rank`) or the emitter reads off one; a buffer's
    dimensions are the buffer's, at run time — anything else as itself.
    (A result's type is kept whole: no shareable op makes a buffer.)"""
    if type(type_) is MemRefType:
        parts += (MemRefType, len(type_.shape), type_.element_type)
    else:
        parts.append(type_)


#: What a :class:`PlanCache` counts, stated once: ``(cache attribute,
#: ProfilingSummary field, metric name, help)``.  The cache's attributes,
#: its :meth:`~PlanCache.counters` snapshot, a run's delta on its summary
#: and the registry export are all read off this table.
PLAN_COUNTERS = (
    ("compiled", "plans_compiled", "engine.plans_compiled",
     "Block plans compiled"),
    ("hits", "plan_cache_hits", "engine.plan_cache_hits",
     "Block-plan cache hits"),
    ("plan_shapes", "plan_shapes", "engine.plan_shapes",
     "Launch-body shapes compiled"),
    ("plans_shared", "plans_shared", "engine.plans_shared",
     "Launch bodies bound to an already compiled shape"),
    ("codegen_blocks", "blocks_codegenned", "engine.blocks_codegenned",
     "Blocks lowered to Python source"),
    ("codegen_shared", "codegen_code_shared", "engine.codegen_code_shared",
     "Generated bodies instantiated from an already-compiled shape"),
    ("codegen_tiered_up", "codegen_tiered_up", "engine.codegen_tiered_up",
     "Generated bodies swapped in for a plan that had been replaying"),
    ("codegen_typed", "codegen_typed", "engine.codegen_typed",
     "Generated bodies that start with a typed prologue"),
    ("codegen_suspending", "codegen_suspending", "engine.codegen_suspending",
     "Generated bodies of the suspending kind (generator functions)"),
)

#: The same for what it counts by reason, ``"<kind>:<what>" -> count``
#: (a ``collections.Counter`` each; exported as one metric per reason,
#: ``"K_ANY:ext.tick"`` -> ``engine.codegen_fallbacks.k_any.ext.tick``):
#:
#: * why launch bodies were compiled on their own, by the first op in
#:   the way (``"identity:equeue.alloc"``);
#: * entries a generated body handed back to plan replay because a value
#:   it was entered with is not of the type it was compiled for, by what
#:   its prologue found (``"int:numpy.int64"``);
#: * why plans can never be code-generated: the first step of each that
#:   the emitter cannot express (``"K_ANY:<op>"``).
PLAN_REASONS = (
    ("plan_share_declined", "plan_share_declined",
     "engine.plan_share_declined",
     "Launch bodies compiled on their own, by the op in the way"),
    ("codegen_deopts", "codegen_deopts", "engine.codegen_deopts",
     "Entries a typed body handed to plan replay, by what its prologue "
     "found"),
    ("codegen_fallbacks", "codegen_fallback_reasons",
     "engine.codegen_fallbacks",
     "Plans codegen can never take, by the first step the emitter cannot "
     "express"),
)


class PlanCache:
    """A cache of compiled plans plus fast-path statistics.

    A cache serves one engine at a time but *outlives* engines: compiled
    steps reach engine state through ``cache.engine`` (one indirection)
    rather than capturing a specific instance, so a cache attached to a
    fresh engine replays every previously compiled plan — the
    cross-simulation half of compile-once/execute-many (see
    :mod:`repro.sim.batch`, whose compile cache serves all its programs
    from one of these).  Plans are keyed by block identity and pin their
    block (cached entries keep the IR alive, so a recycled ``id`` can
    never alias a stale plan; a program's entries go, with :meth:`forget`,
    before its IR is let go).  What is compiled depends on the engine's
    plan-relevant configuration (:meth:`_key`), so there is one table of
    plans, shapes and sites per configuration seen and :meth:`attach`
    selects the engine's: runs that alternate between two
    configurations each find what they compiled last time.

    Launch bodies are compiled once per *shape* (:meth:`bind_site`): the
    entry ``plans`` holds for such a body is the launch site's view of
    its shape's plan.  A shape is not a program's: bodies of two modules
    with one key share it — steps, emitted code and execution count.
    """

    def __init__(self, engine=None):
        self.engine = engine
        for attribute, _, _, _ in PLAN_COUNTERS:
            setattr(self, attribute, 0)
        for attribute, _, _, _ in PLAN_REASONS:
            setattr(self, attribute, collections.Counter())
        self.codegen = False
        self.detailed = False
        #: What was compiled under each configuration, by :meth:`_key`:
        #: ``(plans, shapes, sites, _memos)`` — the attached one's are
        #: this object's attributes of those names.  ``plans``:
        #: ``id(block) -> (block, plan)``; ``shapes``: launch-body shapes
        #: by structural key; ``sites``: every launch body seen,
        #: ``id(block) -> (block, arguments, site)``; ``_memos``:
        #: last-seen-memory memo cells of compiled access steps, reset on
        #: detach so they cannot pin a completed engine's component tree.
        #: All three lose a program's blocks when it goes
        #: (:meth:`forget`).
        self._tables: Dict[tuple, tuple] = {}
        #: While a shape compiles: its record, and the slot of the site
        #: constant vector each abstracted constant's SSA value reads.
        self._shape: Optional[BodyShape] = None
        self._slots: Dict[object, int] = {}
        self.clear()
        if engine is not None:
            self.attach(engine)

    def clear(self) -> None:
        """Forget everything compiled, under every configuration (plans
        pin the blocks they were compiled from)."""
        self._tables.clear()
        self.plans: Dict[int, Tuple[object, BlockPlan]] = {}
        self.shapes: Dict[tuple, BodyShape] = {}
        self.sites: Dict[int, tuple] = {}
        self._memos: List[list] = []
        #: The program simulating now may bring what its build knows:
        #: launch-body block -> the block it is a copy of, but for its
        #: constants' values (``repro.sim.batch.CachedProgram.stamps``).
        #: Each entry is consumed as its stamp binds (:meth:`_bind_site`).
        self.stamps: Dict[object, object] = {}

    def access_memo(self, op) -> list:
        """A ``[last_memory, cost, block]`` memo cell for an access step
        of ``op``, registered for detach; the op's block is what
        :meth:`forget` drops it by."""
        memo = [None, -1, op.parent]
        self._memos.append(memo)
        return memo

    def forget(self, blocks) -> List[object]:
        """Drop what was compiled for ``blocks`` — the ``id``s of every
        block of one or more programs, all alive — under every
        configuration, breaking the cycles it held.  A shape goes with
        its representative, so a body of another program bound to it
        can no longer run: those bodies are returned, and the caller
        forgets their programs too."""
        bound = []
        for plans, shapes, sites, memos in self._tables.values():
            for key in blocks:
                entry = plans.pop(key, None)
                if entry is not None:
                    entry[1].compiled = entry[1].site = None
                sites.pop(key, None)
            memos[:] = [memo for memo in memos if id(memo[2]) not in blocks]
            dead = [key for key, shape in shapes.items()
                    if id(shape.block) in blocks]
            for key in dead:
                for plan in shapes.pop(key).plans:
                    plan.emitted = None
            if dead:
                bound += [block for block, _, site in sites.values()
                          if site and id(site.shape.block) in blocks]
        return bound

    @staticmethod
    def _key(engine):
        """The configuration baked into compiled steps at compile time.

        The execution mode participates so plan-mode and codegen-mode
        artifacts are never mixed within one table (a ``compiled`` body
        emitted for one plan must not serve a run that asked for pure
        plan replay, and vice versa)."""
        options = engine.options
        return (
            type(engine),
            _detailed(options),
            options.mode is ExecutionMode.CODEGEN,
        )

    def detach(self) -> None:
        """Stop serving an engine (steps dereference ``cache.engine`` only
        while a run executes).  Long-lived caches — the process-wide
        compile cache keeps one — must not pin a completed engine's
        buffers and simulator state in memory; that includes the access
        steps' last-seen-memory memos."""
        self.engine = None
        for memo in self._memos:
            memo[0] = None
            memo[1] = -1

    def attach(self, engine) -> "PlanCache":
        """Serve ``engine``, from the table of its configuration."""
        key = self._key(engine)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = ({}, {}, {}, [])
        self.plans, self.shapes, self.sites, self._memos = table
        self.engine = engine
        options = engine.options
        self.detailed = _detailed(options)
        self.codegen = options.mode is ExecutionMode.CODEGEN
        return self

    def counters(self) -> Dict[str, object]:
        """Cumulative statistics by ``ProfilingSummary`` field: a
        snapshot an engine takes when it attaches and hands back to
        :meth:`since` for its run's own share."""
        snapshot = {
            field: getattr(self, attribute)
            for attribute, field, _, _ in PLAN_COUNTERS
        }
        for attribute, field, _, _ in PLAN_REASONS:
            snapshot[field] = getattr(self, attribute).copy()
        return snapshot

    def since(self, base: Dict[str, object]) -> Dict[str, object]:
        """What was counted after the :meth:`counters` snapshot ``base``,
        as ``ProfilingSummary`` fields.  A shared cache accumulates
        across simulations, but each run reports only its own
        compiles/hits (so a fully warm run shows ``plans_compiled == 0``
        and pure cache hits)."""
        delta = {
            field: getattr(self, attribute) - base[field]
            for attribute, field, _, _ in PLAN_COUNTERS
        }
        for attribute, field, _, _ in PLAN_REASONS:
            delta[field] = dict(getattr(self, attribute) - base[field])
        return delta

    def tier_up(self, plan: BlockPlan):
        """Generate ``plan``'s body and swap it in; returns the body.
        For a site's view that is one emit per shape and one function —
        the shape's code, this site's constants — per site."""
        from .codegen import compile_block_body

        with _span("codegen.compile", steps=len(plan.steps)):
            plan.compiled, shared, typed, suspending = compile_block_body(
                plan
            )
        self.codegen_blocks += 1
        self.codegen_shared += shared
        self.codegen_typed += typed
        self.codegen_suspending += suspending
        # Had the plan (for a view: its shape) replayed before this entry?
        replays = min((plan.shape or plan).runs - 1, TIER_UP_EXECUTIONS)
        self.codegen_tiered_up += replays > 0
        return plan.compiled

    def bind_site(self, block) -> BlockPlan:
        """The plan a launch of ``block`` runs: when the body shares a
        shape, its :class:`BodySite`'s view of the shape's plan (its
        captures bind to the representative's arguments, and the site
        carries this body's constants), else the body's own plan."""
        entry = self.sites.get(id(block))
        if entry is None:
            with _span("plan.compile", ops=len(block.ops)):
                entry = self.sites[id(block)] = self._bind_site(block)
        site = entry[2]
        return self.plan_for(block) if site is None else site.plans[-1]

    def _bind_site(self, block):
        # A stamp whose representative has a shape here has that shape;
        # anything else — a declined or unbound representative included
        # — is keyed, which is always correct.
        representative = self.stamps.pop(block, None)
        if representative is not None:
            bound = self.sites.get(id(representative))
            if bound is not None and bound[2] is not None:
                consts, blocks = [], []
                _stamp_walk(representative, block, consts, blocks)
                self.plans_shared += 1
                return self._site(block, bound[2].shape, tuple(consts), blocks)
        try:
            key, consts, values, blocks = _shape_key(block)
        except _Unshareable as declined:
            self.plan_share_declined[str(declined)] += 1
            return block, block.arguments, None
        shape = self.shapes.get(key)
        if shape is None:
            shape = self._shape = BodyShape(block)
            self._slots = {value: slot for slot, value in enumerate(values)}
            try:
                self._compile_block(block)
            finally:
                self._shape = None
                self._slots = {}
            position = {id(b): i for i, b in enumerate(blocks)}
            shape.positions = [position[id(b)] for b in shape.blocks]
            self.shapes[key] = shape
            self.plan_shapes += 1
        else:
            self.plans_shared += 1
        return self._site(block, shape, consts, blocks)

    def _site(self, block, shape: BodyShape, consts, blocks):
        # ``plans`` stays total: each of the site's own blocks that has
        # a plan answers with the site's view of it.
        site = BodySite(consts, shape)
        for view, position in zip(site.plans, shape.positions):
            self.plans[id(blocks[position])] = (blocks[position], view)
        return block, shape.block.arguments, site

    def plan_for(self, block) -> BlockPlan:
        """The cached plan for a block, compiling on first use."""
        entry = self.plans.get(id(block))
        if entry is None:
            return self.compile(block)
        self.hits += 1
        return entry[1]

    def compile(self, block) -> BlockPlan:
        with _span("plan.compile", ops=len(block.ops)):
            return self._compile_block(block)

    def _compile_block(self, block) -> BlockPlan:
        steps = []
        declined = None
        for item in step_ops(block):
            step = self._compile_op(item)
            steps.append(step)
            if declined is None and step[0] == K_ANY:
                declined = f"K_ANY:{item.name}"
        # Nothing is generated here: a body is emitted when executions
        # enter this plan often enough (:func:`_cold_run`), so sub-plans
        # that a parent's body flattens never reach ``compile()``.  An
        # op the compiler has no description of is the one thing the
        # emitter cannot express: such a plan replays however hot.
        tier = self if self.codegen and declined is None else None
        shape = self._shape
        if shape is None:
            plan = BlockPlan(steps, tier, block)
        else:
            plan = ShapePlan(steps, tier, len(shape.plans), block)
            shape.plans.append(plan)
            shape.blocks.append(block)
        if self.codegen and declined is not None:
            self.codegen_fallbacks[declined] += 1
        self.plans[id(block)] = (block, plan)
        self.compiled += 1
        return plan

    # ------------------------------------------------------------------
    # Per-op compilation
    # ------------------------------------------------------------------

    def _compile_op(self, op):
        engine = self.engine
        if type(op) is tuple:  # a fork–join step: the members issue it
            return (K_GEN, LaunchSite(*op[:-2]).issue, None)
        name = op.name
        if name == "equeue.return_values":
            return (K_RET, tuple(o.value for o in op.operands), engine._resolve)
        compiler = _COMPILERS.get(name)
        if compiler is not None:
            return compiler(self, engine, op)
        handler = engine._handlers.get(name)
        if handler is None:
            raise EngineError(f"no simulation handler for op {name!r}")
        # Fallback for handler-table extensions the compiler does not
        # specialize: pre-bind the handler and classify by flush need.
        # Methods of the engine itself are unbound and re-bound through
        # ``cache.engine`` so the step stays valid across engine reuse.
        func = getattr(handler, "__func__", None)
        if func is not None and getattr(handler, "__self__", None) is engine:
            step = _bound(self, func, op)
        else:
            def step(ex, env, _h=handler, _op=op):
                return _h(ex, _op, env)

        if name in _NEEDS_FLUSH:
            return (K_DYN, step, None)
        return (K_ANY, _maybe_trace(self, op, step), None)


def step_ops(block) -> list:
    """What each step of ``block``'s plan is compiled from, in step
    order — THE walk from ops to steps, which the code generator
    retraces.  Structure ops are left out (elaborated at the top level,
    they have nothing to replay); the walk stops at the terminator,
    keeping an ``equeue.return_values`` only if it returns values (an
    empty one's flush is the caller's own post-plan flush, and leaving
    it out keeps value-less launch bodies inlineable); and a fork–join
    step is one item, the tuple of its ops (:func:`_fork_join`)."""
    items, ops, after = [], block.ops, 0
    for index, op in enumerate(ops):
        if index < after:
            continue  # an op of the fork–join step just taken
        name = op.name
        if name == "equeue.return_values":
            if op.operands:
                items.append(op)
            break
        if name in ("affine.yield", "scf.yield"):
            break
        group = _fork_join(ops, index) if name == "equeue.launch" else None
        if group is not None:
            items.append(group)
            after = index + len(group)
        elif name not in _STRUCTURE_OPS:
            items.append(op)
        elif block.parent_op.parent is not None:
            raise EngineError(
                f"{name} must appear at module top level (found inside a launch body)"
            )
    return items


def _fork_join(ops, first) -> Optional[tuple]:
    """The fork–join step of the run of ``equeue.launch`` ops that
    starts at ``ops[first]``, or ``None``: two or more launches with no
    value results, then at once an ``equeue.control_and`` of exactly
    their done events, in order, then at once an ``equeue.await`` of it
    — and nothing else reads a done event or the join.  What a
    systolic step is."""
    if first and ops[first - 1].name == "equeue.launch":
        return None  # not where the run starts
    end = first
    while end < len(ops) and ops[end].name == "equeue.launch":
        end += 1
    members = ops[first:end]
    if len(members) < 2 or [op.name for op in ops[end:end + 2]] != [
        "equeue.control_and", "equeue.await",
    ]:
        return None
    join, wait = ops[end:end + 2]
    dones = [member.results[0] for member in members]
    if (
        join.operand_values == dones
        and wait.operand_values == [join.result()]
        and all(len(m.results) == 1 for m in members)
        and all(len(value.uses) == 1 for value in (*dones, join.result()))
    ):
        return (*members, join, wait)
    return None


def _detailed(options) -> bool:
    """Does every timed op inside a launch body leave a trace record?"""
    return bool(options.trace and options.detailed_trace)


def _emittable(cache, meta):
    """A step's inline-expansion metadata as the code generator may see
    it: withheld under detailed tracing, where the traced wrapper of
    the step's closure must run — the emitter then calls the closure,
    and nothing the step defines becomes a typed local.  ``"int"``
    still certifies that the closure returns a plain int."""
    return "int" if cache.detailed else meta


def _maybe_trace(cache, op, fn):
    """Wrap an int-cost step with the detailed-trace record the
    interpreter emits for non-zero local costs."""
    if not cache.detailed:
        return fn
    label = op.get_attr("signature", op.name)

    def traced(ex, env, _fn=fn, _label=label, _c=cache):
        cost = _fn(ex, env)
        if type(cost) is int and cost:
            engine = _c.engine
            engine.trace.record(
                _label,
                "operation",
                "Processor",
                ex.proc.path,
                engine.sim.now + ex.pending,
                cost,
            )
        return cost

    return traced


_COMPILERS = {}


def _compiles(*names):
    def register(fn):
        for compiler_name in names:
            _COMPILERS[compiler_name] = fn
        return fn

    return register


# -- constants and arithmetic -------------------------------------------------


@_compiles("arith.constant")
def _c_constant(cache, engine, op):
    result = op.result()
    slot = cache._slots.get(result)
    if slot is not None:
        return (K_SITE, result, slot)
    return (K_CONST, result, op.get_attr("value"))


@_compiles(
    "arith.addi", "arith.subi", "arith.muli", "arith.divsi", "arith.remsi",
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.maxsi",
    "arith.minsi", "arith.andi", "arith.ori", "arith.xori", "arith.shli",
    "arith.shrsi", "arith.cmpi", "arith.select", "arith.index_cast",
)
def _c_arith(cache, engine, op):
    name = op.name
    attrs = {k: attr_to_python(v) for k, v in op.attributes.items()}
    result = op.result()
    operand_ssa = tuple(o.value for o in op.operands)
    is_free = (
        isinstance(result.type, IndexType)
        or any(isinstance(v.type, IndexType) for v in operand_ssa)
        or name == "arith.index_cast"
    )
    resolve = engine._resolve
    fn = interp.binary_callable(name)
    # Inline-expansion metadata for the codegen emitter: enough to emit
    # the step's body as straight-line source instead of a closure call
    # (see :func:`_emittable` for when it is withheld).
    meta = "int"
    if fn is not None and len(operand_ssa) == 2:
        s0, s1 = operand_ssa
        raw = interp.raw_int_callable(name)

        if raw is not None:
            meta = ("arith2", s0, s1, result, raw, fn, is_free, resolve)

            def step(ex, env):
                try:
                    a = env[s0]
                    b = env[s1]
                except KeyError:
                    a = resolve(env, s0)
                    b = resolve(env, s1)
                if type(a) is int and type(b) is int:
                    env[result] = raw(a, b)
                else:
                    if type(a) is Future:
                        a = a.value
                    if type(b) is Future:
                        b = b.value
                    env[result] = fn(a, b)
                return 0 if is_free else ex.proc.spec.arith_cycles
        else:
            meta = ("barith2", s0, s1, result, fn, is_free, resolve)

            def step(ex, env):
                try:
                    a = env[s0]
                    b = env[s1]
                except KeyError:
                    a = resolve(env, s0)
                    b = resolve(env, s1)
                if type(a) is Future:
                    a = a.value
                if type(b) is Future:
                    b = b.value
                env[result] = fn(a, b)
                return 0 if is_free else ex.proc.spec.arith_cycles
    elif name == "arith.cmpi" and len(operand_ssa) == 2:
        s0, s1 = operand_ssa
        compare = interp.compare_callable(attrs["predicate"])
        meta = ("cmp", s0, s1, result, compare, is_free, resolve)

        def step(ex, env):
            try:
                a = env[s0]
                b = env[s1]
            except KeyError:
                a = resolve(env, s0)
                b = resolve(env, s1)
            if type(a) is Future:
                a = a.value
            if type(b) is Future:
                b = b.value
            verdict = compare(a, b)
            if verdict is True:
                env[result] = 1
            elif verdict is False:
                env[result] = 0
            elif isinstance(verdict, np.ndarray):
                env[result] = verdict.astype(np.int8)
            else:
                env[result] = int(bool(verdict))
            return 0 if is_free else ex.proc.spec.arith_cycles
    else:
        evaluate = interp.evaluate_arith

        def step(ex, env):
            operands = [resolve(env, v) for v in operand_ssa]
            env[result] = evaluate(name, operands, attrs)
            return 0 if is_free else ex.proc.spec.arith_cycles

    # The "int" tag certifies the step always returns a plain int (never a
    # generator), letting generated code skip the type dispatch; the richer
    # tuples above let it inline the whole body.  Plan-mode replay ignores
    # the extra slot entirely.
    return (K_DYN, _maybe_trace(cache, op, step), _emittable(cache, meta))


@_compiles("equeue.op")
def _c_external(cache, engine, op):
    op_function = oplib.lookup(op.get_attr("signature"))
    operand_ssa = tuple(o.value for o in op.operands)
    result_ssa = tuple(op.results)
    func = op_function.func
    cycles = op_function.cycles
    fixed_cycles = None if callable(cycles) else int(cycles)
    resolve = engine._resolve

    def step(ex, env):
        operands = [resolve(env, v) for v in operand_ssa]
        results = oplib.first_results(func(*operands), len(result_ssa))
        env.update(zip(result_ssa, results))
        if fixed_cycles is not None:
            return fixed_cycles
        return int(cycles(operands))

    meta = "int"
    if fixed_cycles is not None:
        meta = ("extern", operand_ssa, result_ssa, func, fixed_cycles, resolve)
    return (K_DYN, _maybe_trace(cache, op, step), _emittable(cache, meta))


# -- pre-bound handler steps ---------------------------------------------------


def _bound(cache, func, op):
    """A step calling the *unbound* engine function ``func`` on whichever
    engine the cache currently serves — the indirection that makes plans
    reusable across engines (cross-simulation caching)."""

    def step(ex, env, _c=cache, _f=func, _op=op):
        return _f(_c.engine, ex, _op, env)

    return step


_MISSING = object()


def _static_index_tuple(indices_ssa, slots):
    """The compile-time value of an all-``arith.constant`` index list,
    as ``(folded, const_idx)``: what the replayed step may bake in, and
    what the code generator folds.

    PE step bodies address their flow/stationary registers with constant
    coordinates baked in by the generators; folding them at plan-compile
    time removes every per-execution environment lookup and ``int()``
    conversion from those accesses.  Both are ``None`` when any index is
    dynamic (a block argument or computed value) and the same tuple when
    all are constants of this block alone.  When one is a constant a
    shared body abstracts (``slots``, from the cache) the coordinates
    are the launch site's, not the step's: replay reads them from the
    environment like dynamic ones (``folded`` is ``None``) and
    ``const_idx`` is a :class:`SiteIndex`, folded per site only in the
    site's generated body.
    """
    values = []
    for ssa in indices_ssa:
        owner = getattr(ssa, "owner", None)
        if owner is None or getattr(owner, "name", None) != "arith.constant":
            return None, None
        values.append(int(owner.get_attr("value")))
    if slots and not slots.keys().isdisjoint(indices_ssa):
        return None, SiteIndex(
            values, [slots.get(ssa) for ssa in indices_ssa]
        )
    folded = tuple(values)
    return folded, folded


def _plain_access_cost(memory, is_write) -> int:
    """Single-element access cost for a memory with no per-access state,
    or -1 when the memory model is address/state-dependent (``Cache``)."""
    if (
        type(memory).get_read_or_write_cycles
        is MemoryModel.get_read_or_write_cycles
    ):
        return memory.access_cycles(1, is_write, 0)
    return -1


def _waits_inline(cache) -> bool:
    """May a scalar access that has to wait be taken without the general
    handler?  Not under detailed tracing: the handler makes the
    ``read``/``write`` trace record of the wait."""
    return not cache.detailed


def _blocked_read(queue, cost, conn, nbytes):
    """THE wait of a read — every tier's: the interpreter's handlers
    return it, plan replay's steps return it and a suspending generated
    body drives it with ``yield from``.  The caller has taken the value
    and counted the memory's traffic; the executor has flushed the
    pending cycles before it first resumes this, so ``now`` is the
    flushed one.  Book the memory's queue, then the connection's from
    where the memory is done, and wait for the later end."""
    now = queue.sim.now
    end = queue.book(cost)[1] if cost else now
    if conn is not None:
        transfer = conn.transfer_cycles(nbytes)
        conn.record(nbytes, transfer, is_write=False)
        if transfer:
            end = max(end, conn.read_queue.book(transfer, at=end)[1])
    if end > now:
        yield end - now


def _blocked_write(queue, cost, conn, nbytes, array, target, stored):
    """THE wait of a write, the same way: the connection first, the
    memory's queue from where the connection is done — and
    ``array[target] = stored`` once both are booked, so a read that
    another processor makes during the flush sees the old element."""
    now = end = queue.sim.now
    if conn is not None:
        transfer = conn.transfer_cycles(nbytes)
        conn.record(nbytes, transfer, is_write=True)
        if transfer:
            end = conn.write_queue.book(transfer, at=now)[1]
    if cost:
        end = max(end, queue.book(cost, at=end)[1])
    array[target] = stored
    if end > now:
        yield end - now


def _buffer_rank(ssa) -> Optional[int]:
    buffer_type = ssa.type
    if not isinstance(buffer_type, MemRefType):
        return None
    return len(buffer_type.shape)


def _scalar_access(cache, engine, op, leading, memref):
    """What :func:`_c_read` and :func:`_c_write` share: the static
    decomposition of a full-rank element access, or ``None`` when the
    op is the general handler's — a tensor or partial access, or a
    connected one that is posted or has a trace record to leave.

    ``memref``: the op is the ``memref``/``affine`` spelling of the
    access — the same operand layout with neither a connection nor a
    posted form, and its own handler."""
    posted, buffer_ssa, conn_ssa, indices_ssa = engine._read_write_static(
        op, leading
    )
    rank = _buffer_rank(buffer_ssa)
    if rank is None or rank == 0 or len(indices_ssa) != rank:
        return None
    # A wait is taken here (:func:`_blocked_read`) unless the access is
    # posted — it never waits — or traced op by op, or a memref one: its
    # handler stores the element before it books the queue.
    waits = not (posted or memref) and _waits_inline(cache)
    if conn_ssa is not None and not waits:
        return None
    folded, const_idx = _static_index_tuple(indices_ssa, cache._slots)
    return (
        posted, waits, buffer_ssa, conn_ssa, indices_ssa, folded, const_idx,
        cache.access_memo(op),
    )


@_compiles("equeue.read", "affine.load", "memref.load")
def _c_read(cache, engine, op):
    memref = op.name != "equeue.read"
    handler = type(engine)._h_memref_load if memref else type(engine)._h_read
    general = _bound(cache, handler, op)
    static = _scalar_access(cache, engine, op, 1, memref)
    if static is None:
        return (K_DYN, general, None)
    (
        posted, waits, buffer_ssa, conn_ssa, indices_ssa, folded, const_idx,
        state,
    ) = static
    result = op.result()
    resolve = engine._resolve

    # Scalar element read: for stateless memories the cost is
    # address-independent (``state``: last-seen memory and its 1-element
    # read cost, -1: the handler's), so zero-cost and posted accesses
    # complete without touching the schedule queue — the hot path of PE
    # register traffic — and one that has to wait leaves only the
    # booking to a generator.  ``ndarray.item(*indices)`` yields the
    # Python scalar directly, skipping the intermediate NumPy scalar of
    # plain indexing.
    def step(ex, env):
        try:
            buffer = env[buffer_ssa]
        except KeyError:
            buffer = resolve(env, buffer_ssa)
        if type(buffer) is Future:
            buffer = buffer.value
        memory = buffer.memory
        if memory is not state[0]:
            state[1] = _plain_access_cost(memory, False)
            state[0] = memory
        cost = state[1]
        conn = None
        if conn_ssa is not None:
            conn = resolve(env, conn_ssa)
            if cost == 0 and conn.bandwidth <= 0:
                return general(ex, env)  # nothing to wait for
        if cost == 0 or (cost > 0 and (posted or waits)):
            try:
                # int(Future) raises TypeError, a missing binding KeyError;
                # both mean "take the general handler".
                value = buffer.array.item(
                    *(folded or [int(env[s]) for s in indices_ssa])
                )
            except (KeyError, TypeError):
                return general(ex, env)
            # The value is the one in the buffer *now*, before any
            # pending cycles are flushed: another processor may store
            # over it while they elapse.
            env[result] = value
            nbytes = buffer.element_bits >> 3
            memory.bytes_read += nbytes
            memory.reads += 1
            if conn is None:
                if not cost:
                    return 0
                if posted:
                    memory.queue.posted_busy_cycles += cost
                    return 0
            return _blocked_read(memory.queue, cost, conn, nbytes)
        return general(ex, env)

    # One layout for every scalar read the emitter inlines, and one for
    # every write; a connected access is the step's alone.
    meta = None
    if conn_ssa is None:
        meta = (
            "read", buffer_ssa, result, posted, state, const_idx,
            indices_ssa, resolve, waits,
        )
    return (K_DYN, step, meta)


@_compiles("equeue.write", "affine.store", "memref.store")
def _c_write(cache, engine, op):
    memref = op.name != "equeue.write"
    handler = type(engine)._h_memref_store if memref else type(engine)._h_write
    general = _bound(cache, handler, op)
    static = _scalar_access(cache, engine, op, 2, memref)
    if static is None:
        return (K_DYN, general, None)
    (
        posted, waits, buffer_ssa, conn_ssa, indices_ssa, folded, const_idx,
        state,
    ) = static
    value_ssa = op.operand(0)
    resolve = engine._resolve
    # An ndarray value is reshaped to the target's, as ``_h_write`` does
    # (the memref handler stores what it is given).
    reshape = not memref

    def step(ex, env):
        try:
            buffer = env[buffer_ssa]
        except KeyError:
            buffer = resolve(env, buffer_ssa)
        if type(buffer) is Future:
            buffer = buffer.value
        memory = buffer.memory
        if memory is not state[0]:
            state[1] = _plain_access_cost(memory, True)
            state[0] = memory
        cost = state[1]
        conn = None
        if conn_ssa is not None:
            conn = resolve(env, conn_ssa)
            if cost == 0 and conn.bandwidth <= 0:
                return general(ex, env)  # nothing to wait for
        if cost == 0 or (cost > 0 and (posted or waits)):
            stored = env.get(value_ssa, _MISSING)
            if stored is _MISSING or type(stored) is Future:
                return general(ex, env)
            if folded is not None:
                target = folded
            else:
                try:
                    # int(Future) raises TypeError, a missing binding
                    # KeyError; both mean "take the general handler".
                    target = tuple([int(env[s]) for s in indices_ssa])
                except (KeyError, TypeError):
                    return general(ex, env)
            if reshape and isinstance(stored, np.ndarray):
                stored = stored.reshape(buffer.array[target].shape)
            blocked = conn is not None or (cost > 0 and not posted)
            if not blocked:
                buffer.array[target] = stored
            nbytes = buffer.element_bits >> 3
            memory.bytes_written += nbytes
            memory.writes += 1
            if blocked:
                return _blocked_write(
                    memory.queue, cost, conn, nbytes, buffer.array, target,
                    stored,
                )
            if cost:
                memory.queue.posted_busy_cycles += cost
            return 0
        return general(ex, env)

    meta = None
    if conn_ssa is None:
        meta = (
            "write", buffer_ssa, value_ssa, posted, state, const_idx,
            indices_ssa, resolve, waits, reshape,
        )
    return (K_DYN, step, meta)


@_compiles("equeue.launch")
def _c_launch(cache, engine, op):
    # The step is the launch site's own issue function: nothing between
    # the plan (or the generated body) and THE definition of a launch.
    return (K_FLUSH_CALL, LaunchSite(op).issue, None)


@_compiles("equeue.memcpy")
def _c_memcpy(cache, engine, op):
    return (K_FLUSH_CALL, _bound(cache, type(engine)._memcpy_impl, op), None)


@_compiles("equeue.control_start")
def _c_control_start(cache, engine, op):
    return (
        K_FLUSH_CALL, _bound(cache, type(engine)._control_start_impl, op), None
    )


@_compiles("equeue.control_and")
def _c_control_and(cache, engine, op):
    return (
        K_FLUSH_CALL, _bound(cache, type(engine)._control_and_impl, op), None
    )


@_compiles("equeue.control_or")
def _c_control_or(cache, engine, op):
    return (
        K_FLUSH_CALL, _bound(cache, type(engine)._control_or_impl, op), None
    )


@_compiles("equeue.await")
def _c_await(cache, engine, op):
    return (K_GEN, _bound(cache, type(engine)._h_await, op), None)


@_compiles(
    "equeue.alloc", "equeue.get_comp", "equeue.dealloc", "memref.alloc",
    "memref.dealloc", "memref.copy", "linalg.conv2d", "linalg.matmul",
    "linalg.fill",
)
def _c_local(cache, engine, op):
    cls = type(engine)
    handlers = {
        "equeue.alloc": cls._h_alloc_runtime,
        "equeue.get_comp": cls._h_get_comp_runtime,
        "equeue.dealloc": cls._h_dealloc,
        "memref.alloc": cls._h_memref_alloc,
        "memref.dealloc": cls._h_dealloc,
        "memref.copy": cls._h_memref_copy,
        "linalg.conv2d": cls._h_conv2d,
        "linalg.matmul": cls._h_matmul,
        "linalg.fill": cls._h_fill,
    }
    step = _bound(cache, handlers[op.name], op)
    return (K_DYN, _maybe_trace(cache, op, step), "int")


# -- structured control flow ---------------------------------------------------


@_compiles("scf.if")
def _c_if(cache, engine, op):
    cond_ssa = op.operand(0)
    then_block = op.regions[0].entry_block
    then_plan = cache.compile(then_block) if then_block.ops else None
    else_plan = None
    if len(op.regions) == 2:
        else_block = op.regions[1].entry_block
        if else_block.ops:
            else_plan = cache.compile(else_block)
    resolve = engine._resolve

    def step(ex, env):
        try:
            cond = env[cond_ssa]
        except KeyError:
            cond = resolve(env, cond_ssa)
        if type(cond) is Future:
            cond = cond.value
        if type(cond) is int:
            taken = cond != 0
        elif isinstance(cond, np.ndarray):
            taken = bool(cond.any())
        else:
            taken = bool(int(cond))
        plan = then_plan if taken else else_plan
        if plan is None:
            return None
        return plan.execute(ex, env)

    # ("if", ...) metadata: the codegen emitter expands the condition
    # dispatch and direct branch-body calls inline (plan replay ignores
    # the extra slot for K_CTRL).
    return (K_CTRL, step, ("if", cond_ssa, then_plan, else_plan, resolve))


@_compiles("affine.for")
def _c_for(cache, engine, op):
    body = op.regions[0].entry_block
    body_plan = cache.compile(body)
    induction = body.arguments[0]
    loop_range = range(op.lower_bound, op.upper_bound, op.step)

    def step(ex, env):
        for i in loop_range:
            env[induction] = i
            suspended = body_plan.execute(ex, env)
            if suspended is not None:
                yield from suspended

    # The ("for", ...) metadata lets a suspending generated body flatten
    # the loop into a native ``for`` — no generator frame per loop —
    # while plan replay keeps using the step closure (the executors
    # ignore the extra slot of K_CTRL).
    return (K_CTRL, step, ("for", body_plan, induction, loop_range))


@_compiles("affine.parallel")
def _c_parallel(cache, engine, op):
    body = op.regions[0].entry_block
    body_plan = cache.compile(body)
    args = tuple(body.arguments)
    points = list(
        itertools.product(*[range(lb, ub, st) for lb, ub, st in op.ranges])
    )

    def step(ex, env):
        for point in points:
            for arg, coordinate in zip(args, point):
                env[arg] = coordinate
            suspended = body_plan.execute(ex, env)
            if suspended is not None:
                yield from suspended

    return (K_CTRL, step, None)


# plan <-> engine import each other.  Both sides import at the bottom,
# after their own definitions, so the cycle resolves once at import time in
# whichever order the two load, and the step compilers above read plain
# module globals instead of re-importing per compiled op.
from .engine import (  # noqa: E402
    _NEEDS_FLUSH,
    _STRUCTURE_OPS,
    EngineError,
    ExecutionMode,
    Future,
    LaunchSite,
)

#: Ops a launch body may contain and still be compiled once per shape:
#: everything the compiler specializes into an inlineable step, minus the
#: identity-bearing ones (``equeue.return_values`` joins when it returns
#: nothing — :func:`_unshareable`).
_SHAREABLE = (
    frozenset(_COMPILERS) - _IDENTITY_OPS - {"equeue.await"}
) | {"affine.yield", "scf.yield"}
