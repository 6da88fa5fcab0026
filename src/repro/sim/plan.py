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
                   counts the traffic in the step, and returns only the
                   booking as a generator (:func:`_blocked_read`)
``K_FLUSH_CALL``   flush pending cycles, then a plain call (launch, memcpy,
                   control events — their handlers never suspend)
``K_GEN``          flush pending cycles, then drive a generator (await)
``K_CTRL``         structured control flow (scf.if / affine loops); no
                   flush — inner ops flush themselves on demand
``K_VEC``          a vectorized ``affine.for`` (see below)
``K_RET``          flush, resolve the block's return values, stop
``K_ANY``          an op with a handler but no step compiler, outside
                   ``_NEEDS_FLUSH``: the handler, pre-bound — the one kind
                   the code generator cannot express
=================  ========================================================

(``K_CYCLES`` — a closure guaranteed to return an int — still exists as a
name, but the compiler emits ``K_DYN`` for those steps: the executors'
``type(result) is int`` check subsumes it, and one hot branch beats two.)

Vectorized loops
================

An ``affine.for`` body that is *contention-free* — pure ``arith`` plus
scalar reads/writes of zero-cost, uncontended memories (registers,
streams, the ideal memref store) with statically analysable index
structure — observes no global time at all: every op either accumulates
pending cycles or touches a queue-less memory.  Its plan therefore
collapses the whole trip count into one batched NumPy evaluation: the
induction variable becomes an ``arange``, gathers/scatters replace
per-element loads/stores, reductions (``x[i] += f(iv)`` with a
loop-invariant index) fold into a single exact integer sum, and the
aggregate cycle cost is charged in one pending-counter update.  Integer
lanes are widened to int64 and float lanes to float64 so the batched
arithmetic matches the interpreter's exact Python-scalar arithmetic
bit-for-bit on the final (element-typed) stores.  A cheap runtime guard
re-checks what static analysis cannot see — memory kinds, buffer
aliasing, scatter-address injectivity — and falls back to scalar plan
replay when it fails, so the fast path is always safe to attempt.

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
from ..ir.types import IndexType, IntegerType, MemRefType
from ..obs.spans import span as _span
from . import interp, oplib
from .components import Buffer, MemoryModel

(
    K_CONST, K_CYCLES, K_DYN, K_FLUSH_CALL, K_GEN, K_CTRL, K_VEC, K_RET,
    K_ANY, K_SITE,
) = range(10)

#: Environment key under which a launch body finds the :class:`BodySite`
#: it runs for (only bodies compiled once per shape carry one).
_SITE = object()

_EMPTY: List[object] = []

#: arith ops the vectorizer may evaluate elementwise.  Everything is exact
#: in the widened int64/float64 lanes except shifts (whose Python-int
#: semantics have no 64-bit equivalent) and signed div/rem, which go
#: through float64 and are therefore only admitted on (small) index values.
_VEC_ARITH = frozenset(
    {
        "arith.addi", "arith.subi", "arith.muli", "arith.maxsi",
        "arith.minsi", "arith.andi", "arith.ori", "arith.xori",
        "arith.addf", "arith.subf", "arith.mulf", "arith.divf",
        "arith.cmpi", "arith.select", "arith.index_cast",
        "arith.divsi", "arith.remsi",
    }
)
_VEC_INDEX_ONLY = frozenset({"arith.divsi", "arith.remsi"})

V_STEP, V_CONST, V_READ, V_WRITE, V_REDUCE = range(5)


#: Step kinds a plan may contain while still being executable *inline* —
#: without allocating a generator — as long as no step actually suspends.
#: See :func:`_inline_run`.  (A plan with the others — an ``await``,
#: returned values — replays through :meth:`BlockPlan.run`, and its
#: generated body can only be of the suspending kind.)
_INLINEABLE = frozenset(
    {K_CONST, K_SITE, K_CYCLES, K_DYN, K_CTRL, K_VEC, K_FLUSH_CALL}
)

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
        """Run under the inline/suspend protocol: ``None`` when the plan
        completed without suspending (the hot case — no generator frame
        was allocated), else a generator the caller must drive to finish
        the remaining work; it returns what ``equeue.return_values``
        names, if the block ends in one."""
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
            elif kind == K_CYCLES:
                cost = a(ex, env)
                if cost:
                    ex.pending += cost
            elif kind == K_FLUSH_CALL:
                if ex.pending:
                    pending, ex.pending = ex.pending, 0
                    yield pending
                a(ex, env)
            elif kind == K_CTRL:
                gen = a(ex, env)
                if gen is not None:
                    yield from gen
            elif kind == K_VEC:
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
        else:  # K_CYCLES / K_CTRL / K_VEC
            result = a(ex, env)
            if result is None:
                continue
            if type(result) is int:
                if result:
                    ex.pending += result
                continue
            return _resume(plan, ex, env, result, index, False)
    return None


def _cold_run(plan, ex, env):
    """Enter a plan that has no generated body: replay it, or — once
    ``mode=codegen`` has seen it :data:`TIER_UP_EXECUTIONS` times —
    generate the body and run that from this entry on.  What the
    replays did is what the body's kind is chosen from: an entry whose
    replay handed a generator back is counted as suspended."""
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
        return cache.tier_up(plan)(ex, env)
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
    form.  Otherwise the replays decide: a generator frame costs an
    entry about 0.9 µs (the 4x4 WS program's 11 093 entries with each
    kind forced), one suspension of the inline kind about 6 µs
    (``_resume`` plus :meth:`BlockPlan.run` over the rest of the
    steps), so the suspending kind pays from one suspended entry in
    seven or so — one in eight, as a power of two.  Nothing observable
    depends on the choice (``tests/sim/test_suspending_bodies.py``
    forces each)."""
    if not plan.inlineable:
        return True
    counted = plan.shape or plan
    return counted.suspensions * 8 > counted.runs


def _resume(plan, ex, env, gen, index, flush):
    """Finish a suspended :func:`_inline_run`: drive the pending
    generator (flushing first for ``K_DYN``), then the remaining steps."""
    if flush and ex.pending:
        pending, ex.pending = ex.pending, 0
        yield pending
    yield from gen
    yield from plan.run(ex, env, plan.steps[index + 1:])


def _step_body(plan, ex, env):
    """Execute one loop-body iteration under the inline/suspend protocol.

    Every scalar loop (compiled ``affine.for`` / ``affine.parallel`` and
    the vectorizer's guard fallback) goes through here; the engine's
    launch path uses :meth:`BlockPlan.execute` directly.  Returns ``None``
    when the iteration completed inline, or a generator the caller must
    drive.
    """
    return plan.execute(ex, env)


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
    abstracted ``arith.constant`` ops, in key order, and its views of
    the shape's plans.  Found by the shared steps as ``env[_SITE]``."""

    __slots__ = ("consts", "plans")

    def __init__(self, consts, shape: BodyShape):
        self.consts = consts
        self.plans = [plan.view(self) for plan in shape.plans]


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

#: Region ops constant abstraction continues through.  Below a loop the
#: vectoriser bakes constants into its batched program, and a nested
#: launch body is a site of its own that every outer site would share.
_ABSTRACTS_INTO = frozenset({"scf.if"})


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
    * a constant below a loop or a nested launch stays in the key
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
        append(argument.type)
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


class PlanCache:
    """A cache of compiled plans plus fast-path statistics.

    A cache serves one engine at a time but *outlives* engines: compiled
    steps reach engine state through ``cache.engine`` (one indirection)
    rather than capturing a specific instance, so a cache attached to a
    fresh engine simulating the same module replays every previously
    compiled plan — the cross-simulation half of compile-once/execute-many
    (see :mod:`repro.sim.batch`).  Plans are keyed by block identity and
    pin their block (cached entries keep the IR alive, so a recycled
    ``id`` can never alias a stale plan).  :meth:`attach` flushes the
    store when the new engine's plan-relevant configuration differs from
    the one the plans were compiled under.

    Launch bodies are compiled once per *shape* (:meth:`bind_site`): the
    entry ``plans`` holds for such a body is the launch site's view of
    its shape's plan.
    """

    def __init__(self, engine=None):
        self.engine = engine
        self.plans: Dict[int, Tuple[object, BlockPlan]] = {}
        self.compiled = 0
        self.hits = 0
        self.vector_loops = 0
        self.vector_iterations = 0
        self.vector_fallbacks = 0
        self.vectorize = False
        self.codegen = False
        self.detailed = False
        self.codegen_blocks = 0
        self.codegen_shared = 0
        self.codegen_tiered_up = 0
        self.codegen_typed = 0
        self.codegen_suspending = 0
        #: Why plans can never be code-generated: the first step of each
        #: that the emitter cannot express, ``"K_ANY:<op>"`` -> count.
        self.codegen_fallbacks = collections.Counter()
        #: Entries a generated body handed back to plan replay because a
        #: value it was entered with is not of the type it was compiled
        #: for, by what its prologue found: ``"int:numpy.int64"`` -> count.
        self.codegen_deopts = collections.Counter()
        #: Launch-body shapes by structural key, and every launch body
        #: seen: ``id(block) -> (block, arguments, site)``.
        self.shapes: Dict[tuple, BodyShape] = {}
        self.sites: Dict[int, tuple] = {}
        self.plan_shapes = 0
        self.plans_shared = 0
        #: Why launch bodies were compiled on their own, by the first op
        #: in the way: ``"identity:equeue.alloc"`` -> count.
        self.plan_share_declined = collections.Counter()
        #: While a shape compiles: its record, and the slot of the site
        #: constant vector each abstracted constant's SSA value reads.
        self._shape: Optional[BodyShape] = None
        self._slots: Dict[object, int] = {}
        self._config_key = None
        #: Last-seen-memory memo cells of compiled access steps; reset on
        #: detach so they cannot pin a completed engine's component tree.
        self._memos: List[list] = []
        if engine is not None:
            self.attach(engine)

    def access_memo(self) -> list:
        """A ``[last_memory, cost]`` memo cell, registered for detach."""
        memo = [None, -1]
        self._memos.append(memo)
        return memo

    @staticmethod
    def _key(engine):
        """The configuration baked into compiled steps at compile time.

        The execution mode participates so a cache reattached under a
        different mode flushes: plan-mode and codegen-mode artifacts are
        never mixed within one store (a ``compiled`` body emitted for one
        plan must not survive into a run that asked for pure plan replay,
        and vice versa)."""
        options = engine.options
        return (
            type(engine),
            _detailed(options),
            bool(options.vectorize_loops),
            options.mode is ExecutionMode.CODEGEN,
        )

    def detach(self) -> None:
        """Stop serving an engine (steps dereference ``cache.engine`` only
        while a run executes).  Long-lived caches — the process-wide
        compile cache keeps one per structure — must not pin a completed
        engine's buffers and simulator state in memory; that includes the
        access steps' last-seen-memory memos."""
        self.engine = None
        for memo in self._memos:
            memo[0] = None
            memo[1] = -1

    def attach(self, engine) -> "PlanCache":
        """Serve ``engine``; flush plans compiled under a different config."""
        key = self._key(engine)
        if self._config_key is not None and key != self._config_key:
            self.plans.clear()
            self.shapes.clear()
            self.sites.clear()
            self._memos.clear()
        self._config_key = key
        self.engine = engine
        options = engine.options
        self.detailed = _detailed(options)
        # Vectorization changes nothing observable except per-op detailed
        # trace records, which an aggregated evaluation cannot emit.
        self.vectorize = options.vectorize_loops and not self.detailed
        self.codegen = options.mode is ExecutionMode.CODEGEN
        return self

    def counters(self) -> Tuple[int, ...]:
        """Cumulative statistics (engines snapshot these for per-run deltas)."""
        return (
            self.compiled,
            self.hits,
            self.vector_loops,
            self.vector_iterations,
            self.vector_fallbacks,
            self.codegen_blocks,
            self.codegen_shared,
            self.codegen_tiered_up,
            self.plan_shapes,
            self.plans_shared,
            self.codegen_typed,
            self.codegen_suspending,
        )

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

    def bind_site(self, block):
        """``(arguments, site)`` for a launch of ``block``: the block
        arguments its captures bind to, and the :class:`BodySite` its
        environment carries — the representative's arguments and this
        body's constants when the body shares a shape, else the body's
        own arguments and ``None`` (it compiles on first execution, as
        every block does)."""
        entry = self.sites.get(id(block))
        if entry is None:
            with _span("plan.compile", ops=len(block.ops)):
                entry = self.sites[id(block)] = self._bind_site(block)
        return entry[1], entry[2]

    def _bind_site(self, block):
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
        engine = self.engine
        for op in block.ops:
            name = op.name
            if name == "equeue.return_values":
                # An empty return compiles to nothing: there are no values
                # to resolve, and its flush is indistinguishable from the
                # caller's own post-plan flush (the engine's launch path
                # flushes pending cycles immediately after the plan).
                # Dropping the step keeps value-less launch bodies — the
                # hot case — inlineable end to end.
                if op.operands:
                    steps.append(
                        (
                            K_RET,
                            tuple(o.value for o in op.operands),
                            engine._resolve,
                        )
                    )
                break
            if name in ("affine.yield", "scf.yield"):
                break
            step = self._compile_op(op)
            if step is not None:
                steps.append(step)
                if declined is None and step[0] == K_ANY:
                    declined = f"K_ANY:{name}"
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
        name = op.name
        compiler = _COMPILERS.get(name)
        if compiler is not None:
            return compiler(self, engine, op)
        if name in _STRUCTURE_OPS:
            if id(op) not in engine._elaborated:
                raise EngineError(
                    f"{name} must appear at module top level (found inside "
                    "a launch body)"
                )
            return None  # fully handled at elaboration; nothing to replay
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
        results = func(*operands)
        if results is None:
            results = ()
        for ssa, value in zip(result_ssa, results):
            env[ssa] = value
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
    """What is left of a scalar read that has to wait, once its step has
    taken the value and counted the traffic and the executor has flushed
    the pending cycles (so ``now`` is the flushed one): book the
    memory's queue, then the connection's from where the memory is done,
    as :meth:`Engine._h_read` does, and wait for the later end."""
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
    """The same for a scalar write, in :meth:`Engine._h_write`'s order:
    the connection first, the memory's queue from where the connection
    is done — and the element is stored once both are booked, so a read
    that another processor makes during the flush sees the old one."""
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


def _scalar_access(cache, engine, op, leading):
    """What :func:`_c_read` and :func:`_c_write` share: the static
    decomposition of a full-rank element access, or ``None`` when the
    op is the general handler's — a tensor or partial access, or a
    connected one that is posted or has a trace record to leave."""
    posted, buffer_ssa, conn_ssa, indices_ssa = engine._read_write_static(
        op, leading
    )
    rank = _buffer_rank(buffer_ssa)
    if rank is None or rank == 0 or len(indices_ssa) != rank:
        return None
    # A wait is taken here (:func:`_blocked_read`) unless the access is
    # posted — it never waits — or traced op by op.
    waits = not posted and _waits_inline(cache)
    if conn_ssa is not None and not waits:
        return None
    folded, const_idx = _static_index_tuple(indices_ssa, cache._slots)
    return (
        posted, waits, buffer_ssa, conn_ssa, indices_ssa, folded, const_idx,
        cache.access_memo(),
    )


@_compiles("equeue.read")
def _c_read(cache, engine, op):
    general = _bound(cache, type(engine)._h_read, op)
    static = _scalar_access(cache, engine, op, 1)
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

    # One layout for every scalar read the emitter inlines (memref loads
    # are the unposted case), and one for every write; a connected
    # access is the step's alone.
    meta = None
    if conn_ssa is None:
        meta = (
            "read", buffer_ssa, result, posted, state, const_idx,
            indices_ssa, resolve, waits,
        )
    return (K_DYN, step, meta)


@_compiles("equeue.write")
def _c_write(cache, engine, op):
    general = _bound(cache, type(engine)._h_write, op)
    static = _scalar_access(cache, engine, op, 2)
    if static is None:
        return (K_DYN, general, None)
    (
        posted, waits, buffer_ssa, conn_ssa, indices_ssa, folded, const_idx,
        state,
    ) = static
    value_ssa = op.operand(0)
    resolve = engine._resolve

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
            blocked = conn is not None or (cost > 0 and not posted)
            if isinstance(stored, np.ndarray):
                if blocked:
                    return general(ex, env)
                buffer.array[target] = np.asarray(stored).reshape(
                    buffer.array[target].shape
                )
            elif not blocked:
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

    # (The last slot: an ndarray value is reshaped to the target's.)
    meta = None
    if conn_ssa is None:
        meta = (
            "write", buffer_ssa, value_ssa, posted, state, const_idx,
            indices_ssa, resolve, waits, True,
        )
    return (K_DYN, step, meta)


@_compiles("affine.load", "memref.load")
def _c_load(cache, engine, op):
    general = _bound(cache, type(engine)._h_memref_load, op)
    buffer_ssa = op.operand(0)
    indices_ssa = tuple(op.operand_values[1:])
    result = op.result()
    resolve = engine._resolve
    state = cache.access_memo()
    folded, const_idx = _static_index_tuple(indices_ssa, cache._slots)

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
        if state[1] == 0:
            if folded is not None:
                env[result] = buffer.array.item(*folded)
            else:
                try:
                    env[result] = buffer.array.item(
                        *[int(env[s]) for s in indices_ssa]
                    )
                except (KeyError, TypeError):
                    return general(ex, env)
            memory.bytes_read += buffer.element_bits >> 3
            memory.reads += 1
            return 0
        return general(ex, env)

    # (A load that has to wait stays the handler's: ``False``.)
    meta = (
        "read", buffer_ssa, result, False, state, const_idx, indices_ssa,
        resolve, False,
    )
    return (K_DYN, step, meta)


@_compiles("affine.store", "memref.store")
def _c_store(cache, engine, op):
    general = _bound(cache, type(engine)._h_memref_store, op)
    value_ssa = op.operand(0)
    buffer_ssa = op.operand(1)
    indices_ssa = tuple(op.operand_values[2:])
    resolve = engine._resolve
    state = cache.access_memo()
    folded, const_idx = _static_index_tuple(indices_ssa, cache._slots)

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
        if state[1] == 0:
            stored = env.get(value_ssa, _MISSING)
            if stored is _MISSING or type(stored) is Future:
                return general(ex, env)
            if folded is not None:
                target = folded
            else:
                try:
                    target = tuple([int(env[s]) for s in indices_ssa])
                except (KeyError, TypeError):
                    return general(ex, env)
            buffer.array[target] = stored
            memory.bytes_written += buffer.element_bits >> 3
            memory.writes += 1
            return 0
        return general(ex, env)

    meta = (
        "write", buffer_ssa, value_ssa, False, state, const_idx,
        indices_ssa, resolve, False, False,
    )
    return (K_DYN, step, meta)


@_compiles("equeue.launch")
def _c_launch(cache, engine, op):
    # The step is the launch site's own issue method: nothing between
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
    # The ("for", ...) metadata lets the codegen emitter flatten the loop
    # into the generated body — no generator frame per loop — while plan
    # replay keeps using the step closures (both executors ignore the
    # extra slot of K_CTRL and K_VEC).  A suspending body flattens a
    # vectorized loop too, behind :meth:`_VectorLoop.attempt`.
    meta = ("for", body_plan, induction, loop_range)
    if cache.vectorize:
        vec = _try_vectorize(cache, body, induction, loop_range, body_plan)
        if vec is not None:
            cache.vector_loops += 1
            return (K_VEC, vec, meta)

    def step(ex, env):
        for i in loop_range:
            env[induction] = i
            suspended = _step_body(body_plan, ex, env)
            if suspended is not None:
                yield from suspended

    return (K_CTRL, step, meta)


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
            suspended = _step_body(body_plan, ex, env)
            if suspended is not None:
                yield from suspended

    return (K_CTRL, step, None)


# ---------------------------------------------------------------------------
# The vectorized affine.for fast path
# ---------------------------------------------------------------------------


def _buffer_rank(ssa) -> Optional[int]:
    buffer_type = ssa.type
    if not isinstance(buffer_type, MemRefType):
        return None
    return len(buffer_type.shape)


def _element_bytes(ssa) -> int:
    return getattr(ssa.type.element_type, "width", 32) // 8


class _Access:
    """One scalar read or write inside a vectorization candidate."""

    __slots__ = (
        "op", "buffer_ssa", "index_ssa", "value_ssa", "result_ssa",
        "nbytes", "is_write", "varying",
    )

    def __init__(self, op, buffer_ssa, index_ssa, value_ssa, result_ssa,
                 is_write):
        self.op = op
        self.buffer_ssa = buffer_ssa
        self.index_ssa = tuple(index_ssa)
        self.value_ssa = value_ssa
        self.result_ssa = result_ssa
        self.nbytes = _element_bytes(buffer_ssa)
        self.is_write = is_write
        self.varying = False


def _classify_access(engine, op):
    """Decompose a read/write op into an :class:`_Access`, or ``None``
    when the op's shape disqualifies the loop (connections, partial
    indexing, whole-buffer transfers)."""
    name = op.name
    if name == "equeue.read":
        posted, buffer_ssa, conn_ssa, indices = engine._read_write_static(op, 1)
        if conn_ssa is not None:
            return None
        access = _Access(op, buffer_ssa, indices, None, op.result(), False)
    elif name == "equeue.write":
        posted, buffer_ssa, conn_ssa, indices = engine._read_write_static(op, 2)
        if conn_ssa is not None:
            return None
        access = _Access(op, buffer_ssa, indices, op.operand(0), None, True)
    elif name in ("affine.load", "memref.load"):
        access = _Access(
            op, op.operand(0), op.operand_values[1:], None, op.result(), False
        )
    elif name in ("affine.store", "memref.store"):
        access = _Access(
            op, op.operand(1), op.operand_values[2:], op.operand(0), None, True
        )
    else:
        return None
    rank = _buffer_rank(access.buffer_ssa)
    if rank is None or rank == 0 or len(access.index_ssa) != rank:
        return None  # whole-buffer or sliced access: stays scalar
    return access


def _single_user(value):
    users = value.users()
    return users[0] if len(users) == 1 and len(value.uses) == 1 else None


def _try_vectorize(cache, body, induction, loop_range, body_plan):
    """Compile a contention-free loop body into a batched program.

    Returns a :class:`_VectorLoop` or ``None`` when any op falls outside
    the analysable subset.  The *runtime* part of the safety argument
    (zero-cost memories, aliasing, scatter injectivity) lives in the guard
    inside :meth:`_VectorLoop.attempt`.
    """
    engine = cache.engine
    ops = list(body.ops)
    if ops and ops[-1].name in ("affine.yield", "scf.yield"):
        ops = ops[:-1]
    if not ops:
        return None
    varying = {induction}
    accesses: List[_Access] = []
    entries = []  # (tag, op-or-access)
    charged = 0
    for op in ops:
        name = op.name
        if name == "arith.constant":
            entries.append(("const", op))
            continue
        if name in _VEC_ARITH:
            operand_ssa = [o.value for o in op.operands]
            is_free = (
                isinstance(op.result().type, IndexType)
                or any(isinstance(v.type, IndexType) for v in operand_ssa)
                or name == "arith.index_cast"
            )
            if name in _VEC_INDEX_ONLY and not is_free:
                return None  # div/rem on data: float64 rounding risk
            if not is_free:
                charged += 1
            if any(v in varying for v in operand_ssa):
                varying.add(op.result())
            entries.append(("arith", op))
            continue
        access = _classify_access(engine, op)
        if access is None:
            return None
        access.varying = any(v in varying for v in access.index_ssa)
        if not access.is_write and access.varying:
            varying.add(access.result_ssa)
        accesses.append(access)
        entries.append(("access", access))

    reads = [a for a in accesses if not a.is_write]
    writes = [a for a in accesses if a.is_write]
    by_buffer: Dict[object, List[_Access]] = {}
    for access in accesses:
        by_buffer.setdefault(access.buffer_ssa, []).append(access)

    reductions: Dict[object, Tuple[_Access, _Access, object]] = {}
    for write in writes:
        if write.varying:
            continue
        # Loop-invariant store address: only legal as the classic integer
        # reduction  buf[i] = buf[i] + partial  with the load feeding
        # exactly that add and the add feeding exactly this store.
        element = write.buffer_ssa.type.element_type
        if not isinstance(element, IntegerType):
            return None
        # A BlockArgument's owner is a Block, not an Operation — only an
        # OpResult of arith.addi qualifies as the reduction accumulator.
        adder = getattr(write.value_ssa, "owner", None)
        if adder is None or getattr(adder, "name", None) != "arith.addi":
            return None
        if _single_user(write.value_ssa) is not write.op:
            return None
        lhs, rhs = adder.operand(0), adder.operand(1)
        load = None
        partial = None
        for candidate, other in ((lhs, rhs), (rhs, lhs)):
            for read in reads:
                if (
                    read.result_ssa is candidate
                    and read.buffer_ssa is write.buffer_ssa
                    and read.index_ssa == write.index_ssa
                ):
                    load, partial = read, other
                    break
            if load is not None:
                break
        if load is None or _single_user(load.result_ssa) is not adder:
            return None
        if len(by_buffer[write.buffer_ssa]) != 2:  # exactly the load+store
            return None
        reductions[write.buffer_ssa] = (load, write, partial)

    plain_writes = [w for w in writes if w.varying]
    # One varying store per buffer SSA keeps the injectivity check simple.
    write_ssas = [w.buffer_ssa for w in plain_writes]
    if len(set(write_ssas)) != len(write_ssas):
        return None
    read_ssas = {
        r.buffer_ssa for r in reads
        if r.buffer_ssa not in reductions
    }
    if read_ssas & set(write_ssas):
        return None
    if set(write_ssas) & set(reductions):
        return None

    # Lower to the vector program, dropping the reduction load/add pairs
    # (they fold into the committed sum).
    skipped_ops = set()
    for load, write, _partial in reductions.values():
        skipped_ops.add(id(load.op))
        skipped_ops.add(id(_single_user(load.result_ssa)))
    program = []
    for tag, payload in entries:
        if tag == "const":
            program.append(
                (V_CONST, (payload.result(), payload.get_attr("value")), None)
            )
        elif tag == "arith":
            if id(payload) in skipped_ops:
                continue
            kind, fn, _ = _c_arith(cache, engine, payload)
            program.append((V_STEP, fn, None))
        else:  # access
            access = payload
            if id(access.op) in skipped_ops:
                continue
            if access.is_write:
                if access.buffer_ssa in reductions:
                    load, write, partial = reductions[access.buffer_ssa]
                    program.append(
                        (
                            V_REDUCE,
                            (access.buffer_ssa, access.index_ssa, partial),
                            (load.nbytes, write.nbytes),
                        )
                    )
                else:
                    program.append(
                        (
                            V_WRITE,
                            (access.buffer_ssa, access.index_ssa,
                             access.value_ssa),
                            access.nbytes,
                        )
                    )
            else:
                program.append(
                    (
                        V_READ,
                        (access.buffer_ssa, access.index_ssa,
                         access.result_ssa),
                        (access.nbytes, access.varying),
                    )
                )

    buffer_ssas = sorted(by_buffer, key=id)
    return _VectorLoop(
        cache,
        induction,
        loop_range,
        body_plan,
        program,
        charged,
        buffer_ssas,
        frozenset(read_ssas),
        tuple(write_ssas),
        frozenset(reductions),
    )


def _uncontended(memory) -> bool:
    """True when accesses are free and stateless: no schedule-queue
    interaction, no per-access model state (rules out ``CacheModel``)."""
    return (
        memory.spec.cycles_per_access == 0
        and type(memory).get_read_or_write_cycles
        is MemoryModel.get_read_or_write_cycles
    )


class _VectorLoop:
    """Runtime executor for a vectorized ``affine.for``.

    Calling it either performs the whole loop (returning ``None``) or
    returns a generator that replays the scalar plan when a runtime guard
    fails (:meth:`attempt` is the first half alone).
    """

    __slots__ = (
        "cache", "induction", "loop_range", "body_plan", "program",
        "charged", "buffer_ssas", "read_ssas", "write_ssas", "reduce_ssas",
        "trip",
    )

    def __init__(self, cache, induction, loop_range, body_plan, program,
                 charged, buffer_ssas, read_ssas, write_ssas, reduce_ssas):
        self.cache = cache
        self.induction = induction
        self.loop_range = loop_range
        self.body_plan = body_plan
        self.program = program
        self.charged = charged
        self.buffer_ssas = buffer_ssas
        self.read_ssas = read_ssas
        self.write_ssas = write_ssas
        self.reduce_ssas = reduce_ssas
        self.trip = len(loop_range)

    def _scalar(self, ex, env):
        plan = self.body_plan
        induction = self.induction
        for i in self.loop_range:
            env[induction] = i
            suspended = _step_body(plan, ex, env)
            if suspended is not None:
                yield from suspended

    def __call__(self, ex, env):
        if self.attempt(ex, env):
            return None
        return self._scalar(ex, env)

    def _guard_failed(self) -> bool:
        self.cache.vector_fallbacks += 1
        return False

    def attempt(self, ex, env) -> bool:
        """Perform the whole loop if the runtime guards allow it; when
        one fails no buffer or counter has been touched, and the caller
        runs the scalar loop — ``_scalar``, or a generated body's own."""
        trip = self.trip
        if trip == 0:
            return True
        engine = self.cache.engine
        resolve = engine._resolve

        # -- runtime guard: memory kinds and aliasing ------------------
        buffers = {}
        for ssa in self.buffer_ssas:
            runtime = resolve(env, ssa)
            if not isinstance(runtime, Buffer) or not _uncontended(
                runtime.memory
            ):
                return self._guard_failed()
            buffers[ssa] = runtime
        written = [buffers[s] for s in self.write_ssas]
        written += [buffers[s] for s in self.reduce_ssas]
        written_ids = {id(b) for b in written}
        if len(written_ids) != len(written):
            return self._guard_failed()
        if written_ids & {id(buffers[s]) for s in self.read_ssas}:
            return self._guard_failed()

        # -- batched evaluation (no buffer mutation yet) ---------------
        env[self.induction] = np.arange(
            self.loop_range.start,
            self.loop_range.stop,
            self.loop_range.step,
            dtype=np.int64,
        )
        scatters = []
        reduces = []
        stats = []  # (memory, nbytes, is_write)
        for tag, a, b in self.program:
            if tag == V_STEP:
                a(ex, env)
            elif tag == V_CONST:
                env[a[0]] = a[1]
            elif tag == V_READ:
                buffer_ssa, index_ssa, result_ssa = a
                nbytes, is_varying = b
                buffer = buffers[buffer_ssa]
                indices = tuple(resolve(env, v) for v in index_ssa)
                if is_varying:
                    lane = buffer.array[indices]
                    # Widen to the interpreter's exact Python-scalar
                    # arithmetic: int64 for ints, float64 for floats.
                    if lane.dtype.kind in "iub":
                        lane = lane.astype(np.int64)
                    elif lane.dtype.kind == "f":
                        lane = lane.astype(np.float64)
                    env[result_ssa] = lane
                else:
                    value = buffer.array[tuple(int(i) for i in indices)]
                    env[result_ssa] = (
                        value.item() if hasattr(value, "item") else value
                    )
                stats.append((buffer.memory, nbytes, False))
            elif tag == V_WRITE:
                buffer_ssa, index_ssa, value_ssa = a
                buffer = buffers[buffer_ssa]
                indices = tuple(resolve(env, v) for v in index_ssa)
                scatters.append((buffer, indices, resolve(env, value_ssa)))
                stats.append((buffer.memory, b, True))
            else:  # V_REDUCE
                buffer_ssa, index_ssa, partial_ssa = a
                buffer = buffers[buffer_ssa]
                indices = tuple(int(resolve(env, v)) for v in index_ssa)
                reduces.append((buffer, indices, resolve(env, partial_ssa)))
                read_nbytes, write_nbytes = b
                stats.append((buffer.memory, read_nbytes, False))
                stats.append((buffer.memory, write_nbytes, True))

        # -- scatter-address injectivity guard -------------------------
        for buffer, indices, _value in scatters:
            flat = np.ravel_multi_index(
                tuple(
                    np.broadcast_to(np.asarray(i, dtype=np.int64), (trip,))
                    for i in indices
                ),
                buffer.array.shape,
                mode="wrap",
            )
            if len(np.unique(flat)) != trip:
                return self._guard_failed()

        # -- commit: buffers, statistics, aggregate cycles -------------
        for buffer, indices, value in scatters:
            buffer.array[indices] = value
        for buffer, indices, partial in reduces:
            if isinstance(partial, np.ndarray):
                total = int(partial.sum(dtype=np.int64))
            else:
                total = int(partial) * trip
            buffer.array[indices] = int(buffer.array[indices]) + total
        for memory, nbytes, is_write in stats:
            if is_write:
                memory.bytes_written += trip * nbytes
                memory.writes += trip
            else:
                memory.bytes_read += trip * nbytes
                memory.reads += trip
        if self.charged:
            ex.pending += trip * self.charged * ex.proc.spec.arith_cycles
        self.cache.vector_iterations += trip
        return True


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
