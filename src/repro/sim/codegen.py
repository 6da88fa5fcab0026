"""Plan-to-Python source codegen: the ``mode=codegen`` execution path.

:mod:`repro.sim.plan` already removes the interpreter's per-execution
dispatch (handler lookup, attribute parsing) by lowering each block into
a flat step list — but *replaying* a plan still pays one dynamic dispatch
per step: a loop over ``(kind, payload, extra)`` tuples with a kind
branch and an indirect call each time.  Compiled simulators (CVC-style
flow-graph compilation, Manticore, GSIM) show the remaining win comes
from eliminating exactly that loop: emit straight-line target code per
block and let the host interpreter see it whole.

This module does the Python equivalent.  :func:`compile_block_body`
walks a :class:`~repro.sim.plan.BlockPlan` once and emits a specialized
Python function — one statement group per step, with:

* constants bound as default arguments (no store, no call at all),
* hot ``arith`` bodies (raw-int binary ops, generic binary ops,
  ``cmpi``) and ``scf.if`` condition dispatch expanded *inline* from the
  compiler's step metadata — the register/ALU traffic of a PE step body
  runs without a single intermediate Python call,
* the IR's static types used (see "Typed bodies" below): ``index``
  arithmetic is plain expressions over Python locals, and the values a
  body is entered with are looked up and checked once, not per use,
* the per-processor arith cost (``ex.proc.spec.arith_cycles``) hoisted
  to one attribute chain per block execution,
* ``affine.for`` loops flattened into native ``for`` statements (plan
  mode pays a generator frame per loop execution), with loop bodies
  recursively inlined,
* everything the body's hot path refers to — SSA values, pre-bound
  callables, and every per-site constant (static indices, fixed cycle
  counts, folded attribute values) — bound as a default argument
  (``LOAD_FAST``, no cell or global lookups; what only its slow paths
  read sits behind one, ``_cold``, since a call copies every default
  into the frame); guaranteed-int steps skip the suspension type
  dispatch entirely.

A compiled simulator only wins if compiling is cheap (CVC) and spent
where the activity is (GSIM), so three things keep ``compile()`` rare:

* **call-driven** — nothing is generated when a plan is compiled.  The
  plan cache calls in here when executions actually *enter* a plan as a
  body often enough (:func:`~repro.sim.plan._cold_run`), so branch and
  loop sub-plans that their parent's body flattens are never emitted;
* **shape-shared** — because the emitted text names no object, it
  depends on a block's structure alone.  :data:`_SHAPES` maps that text
  to its code object process-wide: the sixteen PE bodies of one array,
  the same body in another program and in another sweep signature all
  run one ``compile()`` and differ only in ``__defaults__``;
* **hot blocks only** — a plan replays until it has run
  :data:`~repro.sim.plan.TIER_UP_EXECUTIONS` times.

The two kinds of body
=====================

A generated function is entered with what its block is entered with —
a launch body, ``fn(ex, *captures)``: the capture values its entry
carries, in block-argument order, and no env (the dispatcher's call);
any other block, ``fn(ex, env)``: the env it runs in
(:meth:`~repro.sim.plan.BlockPlan.execute`) — and is ``None`` when the
body completed without suspending, else a generator the caller drives,
in one of two kinds, from the one emitter (same step expansions, same
typed prologue, same deopt tier):

* an **inline** body is a plain function.  It returns ``None`` (the hot
  case — no generator frame at all), or, the rare time a step waits,
  *returns* a generator that finishes the entry through the plan
  machinery: ``_resume`` / ``BlockPlan.run`` for the plan's remaining
  steps (:meth:`_Emitter.handback` composes the chain out of flattened
  branches).  What a systolic PE body gets: it never suspends;
* a **suspending** body is a generator function: where an inline body
  returns, it *yields* — ``if ex.pending: … yield`` for a flush,
  ``yield from`` for an ``await`` or a handler's generator, ``return
  [...]`` for ``equeue.return_values`` — and goes on in generated code.
  Nothing is handed back to plan replay, so its ``affine.for`` nests
  are native loops at *every* depth (text grows with the op count,
  nothing is unrolled), and a scalar ``equeue.read``/``equeue.write``
  that has to wait is emitted in place, phase by phase in the general
  handler's order (:data:`_READ_ORDER`, :data:`_WRITE_ORDER`): value
  and traffic counters, flush, ``queue.book`` at the flushed ``now``,
  the store, ``yield end - now``.  What every body that holds a loop,
  awaits or returns values gets.

:func:`~repro.sim.plan._suspends` picks the kind when the body is
generated: from whether the plan has an inline form at all, whether it
holds a loop (a replayed loop step always suspends), and otherwise from
what the block's replays did.  Either way observable behaviour — cycle
counts, buffer contents, busy time, traffic, scheduler-event counts — is
bit-identical to plan replay and to the interpreter; the differential
suites prove it across every registered scenario with each kind forced
(``tests/sim/test_suspending_bodies.py``).

Fallback rules
==============

A plan can never be generated (counted in ``codegen_fallbacks`` under
its reason, ``K_ANY:<op>``) when it contains a step the emitter cannot
express: an op the plan compiler has no description of, run by its
pre-bound handler.  Such a plan replays however hot it gets — inside a
generated body too, which enters it as a plan — so codegen mode is
always safe to request.  Under detailed tracing the arith metadata is
withheld by the compiler (the traced wrapper must run), and the emitter
falls back to closure calls for those steps while still flattening the
rest; an access that waits goes to the general handler, which makes the
trace record of the wait.

Typed bodies
============

Plan replay finds out what every value *is* each time it reads one:
``try: env[k] / except KeyError``, ``type(x) is Future``, ``type(x) is
int``, ``isinstance(x, ndarray)``, ``int(x)``.  The IR already says:
an ``index`` or integer value is a Python ``int`` unless something
unusual is going on.  So the emitter keeps such a value in a Python
local and spells its consumers as expressions (``_n5 = _n4 - _v2`` …
``if _n7:`` … ``_x9.array.item(_n4, _n5)``), on three conditions:

* a value the body *defines* is typed only by construction — a
  constant, arithmetic on ints, ``cmpi`` of ints, a flattened loop's
  induction variable; read results and buffers are locals too, known
  only not to be a ``Future``; anything defined by a step the emitter
  does not follow stays in ``env`` and is read dynamically;
* a value the body is *entered with* (a block argument, a value of an
  enclosing block — :func:`_in_tree` draws the line) is a launch body's
  argument, or loaded from ``env``, and checked, exactly (``type(x) is
  int``), in a prologue that runs before any side effect; an entry that
  fails is replayed from its first step by
  :func:`~repro.sim.plan._inline_run` (:meth:`BlockPlan.run` for a plan
  with no inline form) — the replay tier is the deopt tier
  (:func:`_deopt`, counted by reason in ``codegen_deopts``), in the env
  :func:`~repro.sim.plan.entry_env` builds of a launch body's
  arguments;
* whether a shared body's constants are ``int``s is each launch site's
  own matter, settled when its function is instantiated
  (:func:`_site_guard`).

A local is written to ``env`` only for a reader: where it is defined
when one of its uses reads ``env`` (a step closure, a nested plan that
is not flattened), and, before a slow path that goes on by replay
(``_resume``, ``BlockPlan.run``, a waiting access's handler), exactly
the locals that path reads.  So a PE body keeps its values in locals
alone, and inline bodies flatten ``scf.if`` at every depth, as
suspending bodies do.  A launch body has an env only where something
reads one: built from its arguments once, after the prologue, when a
line outside every slow path does, else by each slow path that reads
one — a deopt, a handback, a waiting access's handler.  (A block
outside every launch body writes every local through: its env is the
engine's, read after the run and by captures.)
"""

from __future__ import annotations

import builtins
import itertools
import weakref
from contextlib import contextmanager
from types import CodeType, FunctionType, SimpleNamespace
from typing import Optional

import numpy as np

from ..ir.types import IndexType, IntegerType
from ..ir.values import BlockArgument
from .engine import Future
from .oplib import first_results
from .plan import (
    _MISSING,
    BlockPlan,
    K_CONST,
    K_CTRL,
    K_DYN,
    K_FLUSH_CALL,
    K_GEN,
    K_RET,
    K_SITE,
    ShapePlan,
    SiteIndex,
    _inline_run,
    _plain_access_cost,
    _resume,
    _suspends,
    entry_env,
    step_ops,
)

__all__ = ["compile_block_body", "source_of"]

#: Monotonic id for generated code filenames (aids tracebacks).
_SERIAL = itertools.count(1)

#: Emitted source -> the function code object ``compile()`` made of it:
#: THE process-wide table of generated code.  A shape lives as long as
#: some plan's body uses it.
_SHAPES = weakref.WeakValueDictionary()

#: Globals of every generated function: builtins only.
_GLOBALS = {"__builtins__": builtins}


#: Typed arithmetic: when both operands are Python ints known to the
#: emitter, an op is the expression :mod:`repro.sim.interp`'s raw-int
#: evaluator computes, in place of a call to it.
_INT_EXPR = {
    "arith.addi": "{0} + {1}",
    "arith.subi": "{0} - {1}",
    "arith.muli": "{0} * {1}",
    "arith.maxsi": "{0} if {0} >= {1} else {1}",
    "arith.minsi": "{0} if {0} <= {1} else {1}",
    "arith.andi": "{0} & {1}",
    "arith.ori": "{0} | {1}",
    "arith.xori": "{0} ^ {1}",
    "arith.shli": "{0} << {1}",
    "arith.shrsi": "{0} >> {1}",
}
#: ``divsi``/``remsi`` of two ints, where the truncated result is the
#: floored one (a non-negative dividend over a positive divisor); the
#: :mod:`repro.sim.interp` call otherwise.
_DIV_EXPR = {"arith.divsi": "//", "arith.remsi": "%"}
_CMP_EXPR = {
    "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
}

#: A scalar access that has to wait, phase by phase, in the order
#: :meth:`Engine._h_read` and :meth:`Engine._h_write` go through them:
#: the value is read, and the traffic counted, *before* the pending
#: cycles are flushed (another processor may store over the element
#: while they elapse); the queue is booked at the flushed ``now``; a
#: write stores its element once the booking is made.
_READ_ORDER = ("value", "count", "flush", "book", "wait")
_WRITE_ORDER = ("count", "flush", "book", "apply", "wait")

#: Flushing the pending cycles, in a body that may yield.
_FLUSH = (
    "if ex.pending:",
    "    _p = ex.pending",
    "    ex.pending = 0",
    "    yield _p",
)

#: The entry check of a typed local, as emitted.  Exact: a ``bool``, a
#: ``numpy.int64`` or an ``ndarray`` lane is not what ``_INT_EXPR`` and a
#: bare ``ndarray.item(i, j)`` were written for.
_INT_CHECK = "type({0}) is not int"


def _is_int_type(value) -> bool:
    return isinstance(value.type, (IndexType, IntegerType))


def _in_tree(value, root) -> bool:
    """Is ``value`` defined while the body compiled from ``root`` runs —
    by an op of its block tree, or as the argument of a nested block —
    rather than before the body is entered?

    The fence of the typed prologue: it may load a value the body is
    entered with (an argument of ``root`` itself, a value of an
    enclosing block), never one the body defines.  What ``env`` holds
    under such a value at entry is what the previous loop iteration, or
    the previous entry with this env, left there.
    """
    if isinstance(value, BlockArgument):
        block = value.owner
        if block is root:
            return False
    else:
        block = value.owner.parent
    while block is not None:
        if block is root:
            return True
        op = block.parent_op
        block = op.parent if op is not None else None
    return False


def _type_name(value) -> str:
    cls = type(value)
    module = cls.__module__
    if module == "builtins" or module.startswith("repro."):
        return cls.__name__
    return f"{module}.{cls.__name__}"


def _site_guard(defaults, constants):
    """Why a site can never run its shape's typed body — a constant the
    body consumes as an ``int`` is not one at this site — or ``None``."""
    for position in constants:
        if type(defaults[position]) is not int:
            return f"int:{_type_name(defaults[position])}"
    return None


def _deopt(plan, ex, env, loads, reason):
    """The deopt tier of a typed body: its prologue — which runs before
    anything has a side effect — found a value the body was not compiled
    for, so this entry replays the plan, which takes any value.  Counted
    under what was found: ``int:numpy.int64`` (an ``index`` value that
    is not an ``int``), ``value:Future``, ``value:unbound``; ``reason``
    is given when the site's own constants were at fault."""
    if reason is None:
        for ssa, is_int in loads:
            value = env.get(ssa, _MISSING)
            if value is _MISSING:
                reason = "value:unbound"
            elif is_int and type(value) is not int:
                reason = f"int:{_type_name(value)}"
            elif type(value) is Future:
                reason = "value:Future"
            else:
                continue
            break
    plan.tier.codegen_deopts[reason] += 1
    if plan.inlineable:
        return _inline_run(plan, ex, env)
    return plan.run(ex, env)


def _stepped(step, ex, env):
    """A step closure under the suspension protocol, as a generator: the
    slow path of a suspending body's inlined access."""
    result = step(ex, env)
    if type(result) is int:
        if result:
            ex.pending += result
    else:
        if ex.pending:
            pending, ex.pending = ex.pending, 0
            yield pending
        yield from result


def _writes_through(root) -> bool:
    """Does the body of ``root`` write every local to ``env``?  Outside
    every launch body, yes: that env is the engine's own, which
    ``SimulationResult.value_of`` reads after the run and a capture
    falls back on."""
    op = root.parent_op
    while op is not None and op.name != "equeue.launch":
        op = op.parent and op.parent.parent_op
    return op is None


class _Emitter:
    """Accumulates source lines plus the objects they reference.

    The body is *typed* against ``root``, the block its plan was
    compiled from.  An SSA value whose Python value is known not to be
    a ``Future`` lives in a Python local, and one the emitter knows to
    be an ``int`` — an ``index``/integer constant, the result of
    arithmetic on such values, a flattened loop's induction variable,
    an ``index``/integer value checked at entry — is consumed as a
    plain expression.  Values the body is entered with (:func:`_in_tree`
    says which) are loaded and checked once, in a prologue; values it
    defines in ways the emitter does not follow (closure calls,
    launches, nested plans) are read from ``env`` where they are used,
    with every dynamic check.

    A local reaches ``env`` only for a reader.  Each write is a
    placeholder line ``(ssa, indent, local, spill)`` until the whole
    body has been emitted and :attr:`env_reads` — what closure steps and
    nested plans entered as plans read — is known: a write where a value
    is defined stays if the value is in it, a spill before a slow path
    if it is not (the definition wrote it then).

    What a slow path — a deopt, a handback, a waiting access's handler
    — binds is not a default argument, which every call would copy into
    the frame: it is bound in :attr:`cold`, the ``_cold`` namespace the
    slow path reads it from (:meth:`named`; plans are bound where a slow
    path names them, not where they are flattened).
    """

    def __init__(self, root, suspending):
        self.root = root
        #: A launch body: entered with its captures as its arguments,
        #: and no env.
        op = root.parent_op
        self.launch = op is not None and op.name == "equeue.launch"
        #: The kind of body: a generator function in which a step that
        #: waits yields in place, or a plain function that returns what
        #: is left of the entry as a generator (:meth:`handback`).
        self.suspending = suspending
        self.lines = []
        #: The default arguments: what the hot path binds.
        self.bindings = {}
        #: What only slow paths read: the ``_cold`` namespace, bound in
        #: a slow path and read from it as ``_cold.<name>``.
        self.cold = {}
        #: The plan the body is emitted for (bound as ``_plan``).
        self.root_plan = None
        #: For a :class:`~repro.sim.plan.ShapePlan`: the bindings that
        #: are a launch site's own, as ``name -> f(site)``.
        self.recipes = {}
        self.needs_arith_cycles = False
        #: SSA value -> ``(local name, is a checked int)``.
        self.locals = {}
        #: The prologue: ``(local, env key binding, SSA value, int?)``.
        self.loads = []
        #: Bindings of the constants the IR types ``index``/integer —
        #: the body may consume them as ints: verified per site when a
        #: function is instantiated.
        self.int_constants = []
        #: SSA values read through ``env`` where the body goes on: the
        #: operands of step closures it calls, and what nested plans it
        #: enters as plans use.
        self.env_reads = set()
        #: Inside a slow path: its mark (:meth:`slow_path`).
        self._slow = False
        #: Does a line outside every slow path read ``env``?
        self.hot_env = False
        self._serial = 0
        self._names_by_id = {}
        self._ops = {}
        self._reads = {}

    def bind(self, prefix, value):
        # One binding per object: shared callables (``engine._resolve``)
        # and SSA values used twice collapse to a single default argument
        # (to one in ``_cold`` in a slow path).
        return self.named(self._name(prefix, value), value)

    def _name(self, prefix, value):
        key = (id(value), not self._slow)
        name = self._names_by_id.get(key)
        if name is None:
            self._serial += 1
            name = self._names_by_id[key] = f"_{prefix}{self._serial}"
        return name

    def named(self, name, value):
        """``name`` bound to ``value`` — a default argument, or, in a
        slow path, in ``_cold`` — as the body spells it."""
        if self._slow:
            self.cold[name] = value
            return "_cold." + name
        self.bindings[name] = value
        return name

    def site(self, prefix, value, recipe=None):
        """A per-site constant (an index, a cycle count, a folded
        attribute): always its own default argument, never a literal and
        never merged with an equal one, so the emitted text depends on
        the block's structure alone and every block of that structure
        shares one code object.  ``recipe(site)`` computes the value for
        a launch site of a shared body."""
        self._serial += 1
        name = f"_{prefix}{self._serial}"
        if recipe is not None:
            self.recipes[name] = recipe
        return self.named(name, value)

    def plan(self, plan):
        """``plan`` as a binding (the body's own: ``_plan``); a shared
        plan stands for the launch site's view of it."""
        name = "_plan" if plan is self.root_plan else self._name("p", plan)
        if type(plan) is ShapePlan:
            self.recipes[name] = lambda site, _i=plan.index: site.plans[_i]
        return self.named(name, plan)

    def entry(self, plan):
        """``plan.execute``, likewise — a nested plan entered as a plan,
        which reads what it uses from ``env``."""
        self.env_reads |= self.block_reads(plan.block)
        recipe = None
        if type(plan) is ShapePlan:
            def recipe(site, _i=plan.index):
                return site.plans[_i].execute
        return self.site("e", plan.execute, recipe)

    def _item(self, buf, const_idx):
        """``buf.array.item(i, j)`` with the static coordinates bound."""
        names = []
        slots = getattr(const_idx, "slots", itertools.repeat(None))
        for i, slot in zip(const_idx, slots):
            recipe = None
            if slot is not None:
                def recipe(site, _s=slot):
                    return int(site.consts[_s])
            names.append(self.site("j", i, recipe))
        return f"{buf}.array.item({', '.join(names)})"

    def _target(self, const_idx):
        """The static coordinates as one bound tuple (a store target)."""
        if type(const_idx) is SiteIndex:
            return self.site(
                "g", const_idx, lambda site: const_idx.at(site.consts)
            )
        return self.site("g", const_idx)

    def line(self, indent, text):
        if type(text) is tuple:  # an env write: (ssa, local, spill)
            ssa, name, spill = text
            self.lines.append((ssa, "    " * indent, name, spill))
        else:
            self.lines.append("    " * indent + text)
            if "env" in text:
                if self._slow:
                    self._slow[1] = True
                else:
                    self.hot_env = True

    @contextmanager
    def slow_path(self, indent, opens=True):
        """The lines emitted inside are a slow path (unless not
        ``opens``, or it is part of one already): ``[indent, reads
        env]`` and ``None`` mark where it starts and ends."""
        if not opens or self._slow:
            yield
            return
        self._slow = [indent, False]
        self.lines.append(self._slow)
        yield
        self.lines.append(None)
        self._slow = False

    def block(self, indent, texts):
        for text in texts:
            self.line(indent, text)

    def empty_since(self, mark):
        """Has nothing but placeholders been emitted since ``mark``?  (A
        suite of those may come out empty.)"""
        return all(type(text) is tuple for text in self.lines[mark:])

    def text(self, prologue):
        """``(parameters, lines)``: the body's parameters — what it is
        entered with — and its lines after ``prologue``, each env write
        resolved: one where a value is defined stays if something reads
        ``env`` for it, a spill if nothing did (else the definition wrote
        it).

        A launch body is entered with its captures: the parameters are
        its block arguments, in order.  It builds the env its slow
        paths run in from them (:func:`~repro.sim.plan.entry_env`) —
        once, after the prologue, if a line outside every slow path
        reads ``env``, else (and in the prologue's) at the start of each
        slow path that does.  Any other body is entered with the env it
        runs in."""
        through = _writes_through(self.root)
        lines, slow = [], {}
        for text in (*prologue, *self.lines):
            if type(text) is list:  # a slow path starts: [indent, reads env]
                slow[len(lines)] = self._slow = text
            elif text is None:  # ... and ends
                self._slow = False
            elif type(text) is str:
                lines.append(text)
            else:
                ssa, indent, name, spill = text
                if not spill if through else (ssa in self.env_reads) != spill:
                    lines.append(f"{indent}env[{self.bind('k', ssa)}] = {name}")
                    if self._slow:
                        self._slow[1] = True
                    else:
                        self.hot_env = True
        if not self.launch:
            return "ex, env", lines
        captures = [
            self.locals.get(argument, (f"_arg{i}",))[0]
            for i, argument in enumerate(self.root.arguments)
        ]

        def build(indent):
            plan = self.plan(self.root_plan)
            return (
                f"{'    ' * indent}env = {self.named('_mkenv', entry_env)}("
                f"{plan}.site, {plan}.block.arguments, "
                f"({''.join(f'{name}, ' for name in captures)}))"
            )

        out, body = [], sum(type(text) is str for text in prologue)
        for at, text in enumerate(lines):
            if at == body and self.hot_env:  # built once, after the prologue
                out.append(build(1))
            mark = slow.get(at)
            if mark and mark[1] and (not self.hot_env or at < body):
                self._slow = mark
                out.append(build(mark[0]))
                self._slow = False
            out.append(text)
        return ", ".join(["ex", *captures]), out

    # -- what replay reads -------------------------------------------------

    def op_reads(self, op):
        """The values ``op`` reads: its operands and those of every op
        in its regions (a fork–join step: its ops')."""
        if type(op) is tuple:
            return set().union(*map(self.op_reads, op))
        found = self._reads.get(id(op))
        if found is None:
            found = self._reads[id(op)] = {
                value for inner in op.walk() for value in inner.operand_values
            }
        return found

    def block_reads(self, block):
        return set().union(*map(self.op_reads, block.ops))

    def step_ops(self, plan):
        ops = self._ops.get(id(plan))
        if ops is None:
            ops = self._ops[id(plan)] = step_ops(plan.block)
            assert len(ops) == len(plan.steps)
        return ops

    def closure_reads(self, at):
        """The step at ``at`` is its closure, called where the body goes
        on: what its op reads, it reads from ``env``."""
        plan, index, _ = at
        self.env_reads |= self.op_reads(self.step_ops(plan)[index])

    def tail_reads(self, plan, first):
        """What replaying ``plan`` from step ``first`` on reads."""
        return set().union(*map(self.op_reads, self.step_ops(plan)[first:]))

    def store(self, ssa, name):
        """``env[ssa] = name`` where ``ssa`` is defined: kept if
        something reads ``env`` for it."""
        return (ssa, name, False)

    def spill(self, indent, reads, skip=()):
        """Write the locals ``reads`` names to ``env`` — those not
        written where they were defined — before a slow path reads
        them there.  (Prologue loads came from ``env``; ``skip``: what
        was spilled already, and the op's own result, which its slow
        path binds.)"""
        loaded = {ssa for _, _, ssa, _ in self.loads}
        for ssa, (name, _) in self.locals.items():
            if ssa in reads and ssa not in skip and ssa not in loaded:
                self.line(indent, (ssa, name, True))

    # -- where a body waits ------------------------------------------------

    def flush(self, indent):
        self.block(indent, _FLUSH)

    def handback(self, indent, at, first, gen, skip=()):
        """``return`` from an inline body the generator ``gen()`` spells
        that finishes the entry by replay: from step ``first`` of the
        plan being emitted, then after the step of each plan it was
        flattened into (``at``: :meth:`emit_plan`'s position).  The
        locals that replay reads are spilled first."""
        plan, _, frames = at
        reads = self.tail_reads(plan, first)
        with self.slow_path(indent):
            gen = gen()
            for outer, index in reversed(frames):
                reads |= self.tail_reads(outer, index + 1)
                gen = (
                    f"{self.resume()}({self.plan(outer)}, ex, env, {gen}, "
                    f"{index}, False)"
                )
            self.spill(indent, reads, skip)
            self.line(indent, f"return {gen}")

    def resume(self):
        return self.named("_resume", _resume)

    def suspend(self, indent, at, flush, skip=()):
        """A step produced the generator ``_r``: a suspending body
        drives it where it stands; an inline one hands it back, with
        the rest of the entry — :func:`~repro.sim.plan._resume` has the
        plan's remaining steps."""
        if self.suspending:
            if flush:
                self.flush(indent)
            self.line(indent, "yield from _r")
        else:
            plan, index, _ = at
            self.handback(
                indent, at, index + 1,
                lambda: f"{self.resume()}({self.plan(plan)}, ex, env, _r, "
                f"{index}, {flush})",
                skip,
            )

    def flattens(self, plan):
        """Are ``plan``'s steps emitted in place where a body enters it?
        A suspending body takes everything the emitter can express, an
        inline one what never suspends by kind — at any depth."""
        if self.suspending:
            return plan.tier is not None
        return plan.inlineable

    # -- typed locals --------------------------------------------------------

    def local(self, ssa):
        """``(name, is_int)`` of the Python local holding ``ssa``, or
        ``None`` when it has to be read from ``env`` where it is used.
        A value the body is entered with gets its prologue load here."""
        found = self.locals.get(ssa)
        if found is None and not _in_tree(ssa, self.root):
            is_int = _is_int_type(ssa)
            name = self.define(ssa, is_int)
            key = None if self.launch else self.bind("k", ssa)
            self.loads.append((name, key, ssa, is_int))
            found = name, is_int
        return found

    def define(self, ssa, is_int=False, name=None):
        """A fresh local (or ``name``) for a value this body defines."""
        if name is None:
            self._serial += 1
            name = f"_{'n' if is_int else 'x'}{self._serial}"
        self.locals[ssa] = (name, is_int)
        return name

    def operand(self, indent, ssa, scratch, resolve):
        """``(expression, is_int)`` for reading ``ssa``: its local, or
        — after emitting the load with resolve fallback and ``Future``
        unwrapping every dynamic read starts with — ``scratch``."""
        found = self.local(ssa)
        if found is not None:
            return found
        key = self.bind("k", ssa)
        rs = self.bind("rs", resolve)
        self.line(indent, "try:")
        self.line(indent + 1, f"{scratch} = env[{key}]")
        self.line(indent, "except KeyError:")
        self.line(indent + 1, f"{scratch} = {rs}(env, {key})")
        self.line(indent, f"if type({scratch}) is {self.named('_Future', Future)}:")
        self.line(indent + 1, f"{scratch} = {scratch}.value")
        return scratch, False

    def _index(self, ssa):
        """One dynamic coordinate as an expression, and whether it can
        raise (``int()`` of a ``Future``, a missing binding)."""
        found = self.local(ssa)
        if found is None:
            return f"int(env[{self.bind('k', ssa)}])", True
        name, is_int = found
        return (name, False) if is_int else (f"int({name})", True)

    def _indices(self, indices_ssa):
        parts = [self._index(ssa) for ssa in indices_ssa]
        return (
            ", ".join(text for text, _ in parts),
            any(raises for _, raises in parts),
        )

    # -- inline step bodies ------------------------------------------------

    def _arith_cost(self, indent, is_free):
        if not is_free:
            self.needs_arith_cycles = True
            self.line(indent, "ex.pending += _ac")

    def _store(self, indent, result, expr, is_int=False):
        """``result = expr`` in a local, typed or not."""
        name = self.define(result, is_int)
        self.block(indent, self._stores(result, name, expr))

    def _stores(self, result, name, expr):
        return [f"{name} = {expr}", self.store(result, name)]

    def emit_arith2(self, indent, meta):
        _, s0, s1, result, raw, fn, is_free, resolve = meta
        a, a_int = self.operand(indent, s0, "_a", resolve)
        b, b_int = self.operand(indent, s1, "_b", resolve)
        expr = _INT_EXPR.get(result.owner.name)
        if a_int and b_int and expr is not None:
            self._store(indent, result, expr.format(a, b), True)
        else:
            # The raw-int dispatch, testing the operands not known to be.
            ints = " and ".join(
                f"type({name}) is int"
                for name, known in ((a, a_int), (b, b_int))
                if not known
            )
            self._store(
                indent, result,
                f"{self.bind('f', raw)}({a}, {b}) if {ints or True}"
                f" else {self.bind('g', fn)}({a}, {b})",
            )
        self._arith_cost(indent, is_free)

    def emit_barith2(self, indent, meta):
        _, s0, s1, result, fn, is_free, resolve = meta
        a, a_int = self.operand(indent, s0, "_a", resolve)
        b, b_int = self.operand(indent, s1, "_b", resolve)
        call = f"{self.bind('g', fn)}({a}, {b})"
        # divsi/remsi of two ints is an int (or raises): the operator
        # itself where truncating is flooring.
        symbol = _DIV_EXPR.get(result.owner.name)
        is_int = a_int and b_int and symbol is not None
        if is_int:
            call = f"{a} {symbol} {b} if {a} >= 0 and {b} > 0 else {call}"
        self._store(indent, result, call, is_int)
        self._arith_cost(indent, is_free)

    def emit_cmp(self, indent, meta):
        _, s0, s1, result, compare, is_free, resolve = meta
        a, a_int = self.operand(indent, s0, "_a", resolve)
        b, b_int = self.operand(indent, s1, "_b", resolve)
        if a_int and b_int:
            symbol = _CMP_EXPR[result.owner.get_attr("predicate")]
            self._store(indent, result, f"1 if {a} {symbol} {b} else 0", True)
        else:
            name = self.define(result)
            cmp = self.bind("c", compare)
            self.line(indent, f"_v = {cmp}({a}, {b})")
            self.line(indent, "if _v is True:")
            self.line(indent + 1, f"{name} = 1")
            self.line(indent, "elif _v is False:")
            self.line(indent + 1, f"{name} = 0")
            ndarray = self.named("_ndarray", np.ndarray)
            self.line(indent, f"elif isinstance(_v, {ndarray}):")
            self.line(indent + 1, f"{name} = _v.astype({self.named('_int8', np.int8)})")
            self.line(indent, "else:")
            self.line(indent + 1, f"{name} = int(bool(_v))")
            self.line(indent, self.store(result, name))
        self._arith_cost(indent, is_free)

    def _emit_branch(self, indent, branch_plan, at):
        """One arm of an inlined ``scf.if``: flatten the branch body when
        possible, else enter its plan (which tiers up on its own)."""
        if self.flattens(branch_plan):
            # Plan mode returns the branch's suspension generator from
            # the K_CTRL step; _resume then finishes this plan after
            # the if.
            plan, index, frames = at
            mark = len(self.lines)
            self.emit_plan(branch_plan, indent, (*frames, (plan, index)))
            if self.empty_since(mark):
                self.line(indent, "pass")
        else:
            branch_exec = self.entry(branch_plan)
            self.line(indent, f"_r = {branch_exec}(ex, env)")
            self.line(indent, "if _r is not None:")
            self.suspend(indent + 1, at, False)

    def emit_if(self, indent, meta, at):
        _, cond_ssa, then_plan, else_plan, resolve = meta
        cond, is_int = self.operand(indent, cond_ssa, "_c", resolve)
        if is_int:
            taken, not_taken = f"if {cond}:", f"if not {cond}:"
        else:
            self.line(indent, f"if type({cond}) is int:")
            self.line(indent + 1, f"_t = {cond} != 0")
            ndarray = self.named("_ndarray", np.ndarray)
            self.line(indent, f"elif isinstance({cond}, {ndarray}):")
            self.line(indent + 1, f"_t = bool({cond}.any())")
            self.line(indent, "else:")
            self.line(indent + 1, f"_t = bool(int({cond}))")
            taken, not_taken = "if _t:", "if not _t:"

        if then_plan is not None and else_plan is not None:
            self.line(indent, taken)
            self._emit_branch(indent + 1, then_plan, at)
            self.line(indent, "else:")
            self._emit_branch(indent + 1, else_plan, at)
        elif then_plan is not None or else_plan is not None:
            self.line(indent, taken if then_plan is not None else not_taken)
            self._emit_branch(indent + 1, then_plan or else_plan, at)

    # -- inlined buffer accesses -------------------------------------------

    def _emit_buffer_head(self, indent, buffer_ssa, state, is_write, resolve):
        """Shared preamble of every scalar buffer fast path: the buffer
        (resolved and unwrapped unless a local holds it) and the
        last-seen-memory memo, refreshed, its cost in ``_co``.  Returns
        the buffer's name."""
        buf, _ = self.operand(indent, buffer_ssa, "_u", resolve)
        st = self.bind("m", state)
        pac = self.bind("pc", _plain_access_cost)
        self.line(indent, f"_m = {buf}.memory")
        self.line(indent, f"if _m is not {st}[0]:")
        self.line(indent + 1, f"{st}[1] = {pac}(_m, {is_write})")
        self.line(indent + 1, f"{st}[0] = _m")
        self.line(indent, f"_co = {st}[1]")
        return buf

    def _emit_step(self, indent, step, at, slow=False, result=None):
        """A ``K_DYN`` step closure called under the suspension protocol
        — all there is to a step the emitter has no expansion for, and
        the ``slow`` path of a read/write fast path (the closure falls
        back on the general handler by itself; in a suspending body that
        is one line, :func:`_stepped`).  It binds the op's result in
        ``env``; a typed body that goes on picks it up.  What the
        closure reads is in ``env``: written where it was defined, or,
        on a slow path, spilled here."""
        with self.slow_path(indent, slow):
            s = self.bind("s", step)
            pickup = None
            if result is not None:
                name = self.locals[result][0]
                pickup = f"{name} = env[{self.bind('k', result)}]"
            spilled = ()
            if slow:
                plan, index, _ = at
                spilled = self.op_reads(self.step_ops(plan)[index])
                self.spill(indent, spilled)
                spilled = spilled | {result}
            else:
                self.closure_reads(at)
            if self.suspending and slow:
                stepped = self.named("_stepped", _stepped)
                self.line(indent, f"yield from {stepped}({s}, ex, env)")
                if pickup:
                    self.line(indent, pickup)
                return
            self.line(indent, f"_r = {s}(ex, env)")
            self.line(indent, "if type(_r) is int:")
            self.line(indent + 1, "if _r:")
            self.line(indent + 2, "ex.pending += _r")
            if pickup:
                self.line(indent + 1, pickup)
            self.line(indent, "else:")
            self.suspend(indent + 1, at, True, spilled)

    def _emit_cost_test(self, indent, posted, order, phases):
        """Open the fast path: the test of the access's cost.  Where a
        suspending body takes an access that has to wait itself, that
        branch comes first — ``phases`` (else ``None``) in ``order``,
        around the flush and the booking."""
        test = "if"
        if phases is not None:
            phases["flush"] = _FLUSH
            phases["book"] = ("_q = _m.queue", "_e = _q.book(_co)[1]")
            phases["wait"] = ("yield _e - _q.sim.now",)
            self.line(indent, "if _co > 0:")
            for phase in order:
                self.block(indent + 1, phases[phase])
            test = "elif"
        self.line(indent, f"{test} _co {'>= 0' if posted else '== 0'}:")

    def _stats(self, buf, traffic, count):
        """The memory's traffic counters for one element access."""
        return (
            f"_m.{traffic} += {buf}.element_bits >> 3", f"_m.{count} += 1",
        )

    def _emit_fast(self, indent, posted, stats):
        self.block(indent, stats)
        if posted:
            self.line(indent, "if _co:")
            self.line(indent + 1, "_m.queue.posted_busy_cycles += _co")

    def emit_read(self, indent, meta, step, at):
        (
            _, buffer_ssa, result, posted, state, const_idx, indices_ssa,
            resolve, waits,
        ) = meta
        buf = self._emit_buffer_head(indent, buffer_ssa, state, False, resolve)
        if const_idx is not None:
            item, raises = self._item(buf, const_idx), False
        else:
            idx, raises = self._indices(indices_ssa)
            item = f"{buf}.array.item({idx})"
        stores = self._stores(result, self.define(result), item)
        stats = self._stats(buf, "bytes_read", "reads")

        def slow(level):
            self._emit_step(level, step, at, True, result)

        outer = indent
        waiting = None
        if self.suspending and waits and not raises:
            waiting = {"value": stores, "count": stats}
        self._emit_cost_test(indent, posted, _READ_ORDER, waiting)
        indent += 1
        if raises:  # for want of an int: the handler's to sort out
            self.line(indent, "try:")
            self.block(indent + 1, stores)
            self.line(indent, "except (KeyError, TypeError):")
            slow(indent + 1)
            self.line(indent, "else:")
            indent += 1
        else:
            self.block(indent, stores)
        self._emit_fast(indent, posted, stats)
        self.line(outer, "else:")
        slow(outer + 1)

    def emit_write(self, indent, meta, step, at):
        (
            _, buffer_ssa, value_ssa, posted, state, const_idx, indices_ssa,
            resolve, waits, reshape,
        ) = meta
        buf = self._emit_buffer_head(indent, buffer_ssa, state, True, resolve)
        outer = indent

        def slow(level):
            self._emit_step(level, step, at, True)

        # The value: checked for a Future or a missing binding unless a
        # local holds it.  The target: the static coordinates folded,
        # else a tuple that may want an int.
        stored, is_int = self.local(value_ssa) or ("_w", False)
        if const_idx is not None:
            target, raises = self._target(const_idx), False
        else:
            idx, raises = self._indices(indices_ssa)
            target = f"({idx},)"
        stats = self._stats(buf, "bytes_written", "writes")
        waiting = None
        if self.suspending and waits and stored != "_w" and not raises:
            waiting = {
                "count": stats,
                "apply": self._apply(buf, target, stored, reshape, is_int),
            }
        self._emit_cost_test(indent, posted, _WRITE_ORDER, waiting)
        indent += 1
        if stored == "_w":
            val = self.bind("k", value_ssa)
            miss = self.named("_MISS", _MISSING)
            self.line(indent, f"_w = env.get({val}, {miss})")
            self.line(
                indent,
                f"if _w is {miss} or type(_w) is {self.named('_Future', Future)}:",
            )
            slow(indent + 1)
            self.line(indent, "else:")
            indent += 1
        if raises:
            self.line(indent, "try:")
            self.line(indent + 1, f"_tg = {target}")
            self.line(indent, "except (KeyError, TypeError):")
            slow(indent + 1)
            self.line(indent, "else:")
            indent += 1
            target = "_tg"
        self.block(indent, self._apply(buf, target, stored, reshape, is_int))
        self._emit_fast(indent, posted, stats)
        self.line(outer, "else:")
        slow(outer + 1)

    def _apply(self, buf, target, stored, reshape, is_int):
        """The statements storing one element."""
        plain = f"{buf}.array[{target}] = {stored}"
        if not reshape or is_int:
            return (plain,)
        return (
            f"if isinstance({stored}, {self.named('_ndarray', np.ndarray)}):",
            f"    {buf}.array[{target}] = {self.named('_np', np)}.asarray("
            f"{stored}).reshape({buf}.array[{target}].shape)",
            "else:",
            "    " + plain,
        )

    def emit_extern(self, indent, meta):
        _, operand_ssa, result_ssa, func, fixed_cycles, resolve = meta
        fu = self.bind("f", func)
        args = ", ".join(self._resolved(v, resolve) for v in operand_ssa)
        self.line(indent, f"_vres = {fu}({args})")
        if result_ssa:
            # The results are locals: one value each, or the error of
            # an operation function that returned fewer.
            names = [self.define(ssa) for ssa in result_ssa]
            self.line(indent, "try:")
            for at, name in enumerate(names):
                self.line(indent + 1, f"{name} = _vres[{at}]")
            self.line(indent, "except (TypeError, IndexError):")
            with self.slow_path(indent + 1):
                first = self.bind("fr", first_results)
                self.line(
                    indent + 1,
                    f"{', '.join(names)}, = {first}(_vres, {len(names)})",
                )
            for ssa, name in zip(result_ssa, names):
                self.line(indent, self.store(ssa, name))
        if fixed_cycles:
            self.line(indent, f"ex.pending += {self.site('d', fixed_cycles)}")

    def _resolved(self, ssa, resolve):
        """``resolve(env, ssa)`` as an expression: the local, if any."""
        found = self.local(ssa)
        if found:
            return found[0]
        return f"{self.bind('rs', resolve)}(env, {self.bind('k', ssa)})"

    # -- per-plan emission -------------------------------------------------

    def emit_plan(self, plan, indent, frames):
        """Emit the statement sequence for ``plan``'s steps.

        ``frames`` are the plans this one was flattened into, outermost
        first, each with the step that entered this one:
        an inline body hands a suspension anywhere back through
        ``_resume`` chains over all of them (:meth:`handback`), so it
        finishes every plan it was flattened into exactly like the
        plan-mode generator stack would.  A suspending body yields where
        it stands.
        """
        steps = plan.steps
        for index, (kind, a, b) in enumerate(steps):
            at = (plan, index, frames)
            if kind == K_CONST or kind == K_SITE:
                # The binding is the local; a shared body's constant is
                # the launch site's.  Whether an index constant is an
                # ``int`` is the site's to say: checked when the function
                # is instantiated, not here.
                recipe = None
                if kind == K_SITE:
                    def recipe(site, _s=b):
                        return site.consts[_s]
                val = self.site("v", b if kind == K_CONST else None, recipe)
                self.define(a, _is_int_type(a), val)
                self.line(indent, self.store(a, val))
                if _is_int_type(a):
                    self.int_constants.append(val)
            elif kind == K_DYN and type(b) is tuple and b:
                tag = b[0]
                if tag == "arith2":
                    self.emit_arith2(indent, b)
                elif tag == "barith2":
                    self.emit_barith2(indent, b)
                elif tag == "cmp":
                    self.emit_cmp(indent, b)
                elif tag == "read":
                    self.emit_read(indent, b, a, at)
                elif tag == "write":
                    self.emit_write(indent, b, a, at)
                elif tag == "extern":
                    self.emit_extern(indent, b)
                else:  # unknown metadata: conservative closure call
                    self._emit_step(indent, a, at)
            elif kind == K_DYN and b == "int":
                # Certified by the compiler to return a plain int: no
                # type dispatch, no suspension path.
                self.closure_reads(at)
                s = self.bind("s", a)
                self.line(indent, f"_r = {s}(ex, env)")
                self.line(indent, "if _r:")
                self.line(indent + 1, "ex.pending += _r")
            elif kind == K_DYN:
                self._emit_step(indent, a, at)
            elif kind == K_FLUSH_CALL:
                s = self.bind("s", a)
                if self.suspending:
                    self.flush(indent)
                else:
                    self.line(indent, "if ex.pending:")
                    self.handback(
                        indent + 1, at, index,
                        lambda: f"{self.plan(plan)}.run(ex, env, "
                        f"{self.bind('t', steps[index:])})",
                    )
                self.closure_reads(at)
                self.line(indent, f"{s}(ex, env)")
            elif kind == K_GEN:
                self.closure_reads(at)
                self.flush(indent)
                self.line(indent, f"yield from {self.bind('s', a)}(ex, env)")
            elif kind == K_RET:
                # The block's last step.  (Only a launch body's values
                # go anywhere: nested, they are resolved and dropped.)
                self.flush(indent)
                values = ", ".join(self._resolved(v, b) for v in a)
                self.line(
                    indent, f"{'' if frames else 'return '}[{values}]"
                )
            elif (
                kind == K_CTRL and type(b) is tuple and b and b[0] == "if"
            ):
                self.emit_if(indent, b, at)
            elif kind == K_CTRL and self.suspending and b and b[0] == "for":
                self._emit_for(indent, b, at)
            else:
                # A K_CTRL the body has no expansion for: its step
                # closure — ``affine.parallel``, and the loop an inline
                # body meets in a flattened branch.
                self.closure_reads(at)
                s = self.bind("s", a)
                self.line(indent, f"_r = {s}(ex, env)")
                self.line(indent, "if _r is not None:")
                self.suspend(indent + 1, at, False)

    def _emit_for(self, indent, meta, at):
        """An ``affine.for`` of a suspending body: a native loop — plan
        mode pays a generator frame here on every execution."""
        _, body_plan, induction, loop_range = meta
        plan, index, frames = at
        # ``range`` yields ints: the induction variable is typed.
        var = self.define(induction, True)
        self.line(indent, f"for {var} in {self.bind('r', loop_range)}:")
        mark = len(self.lines)
        self.line(indent + 1, self.store(induction, var))
        if self.flattens(body_plan):
            self.emit_plan(body_plan, indent + 1, (*frames, (plan, index)))
        else:  # a plan the emitter cannot express: entered as a plan
            self.line(indent + 1, f"_r = {self.entry(body_plan)}(ex, env)")
            self.line(indent + 1, "if _r is not None:")
            self.line(indent + 2, "yield from _r")
        if self.empty_since(mark):
            self.line(indent + 1, "pass")

    def prologue(self):
        """The lines before the body: check what it is entered with —
        loaded from ``env`` first, unless it is a launch body's argument
        — and hand the entry to :func:`_deopt` if it is not what the
        body was compiled for.  Nothing before or in it has a side
        effect.  (A launch body's arguments are never a ``Future``: the
        dispatcher resolves every capture that may be one.)"""
        lines = []
        if self.loads or self.int_constants:
            # ``_guard``: why this *site* can never run the typed body
            # (``None``: it can).
            guard = self.named("_guard", None)
            loads = tuple((ssa, is_int) for _, _, ssa, is_int in self.loads)
            self._slow = mark = [2, True]  # the deopt is a slow path
            deopt = (
                f"{self.named('_deopt', _deopt)}({self.plan(self.root_plan)}, "
                f"ex, env, {self.named('_loads', loads)}, {guard})"
            )
            self._slow = False
            if self.suspending:  # (a replay that did not suspend: None)
                deopt = f"(yield from {deopt} or ())"
            deopt = [mark, "        return " + deopt, None]
            checks = [guard]
            if self.launch:
                arguments = self.root.arguments
                for name, _, ssa, is_int in self.loads:
                    if ssa not in arguments:  # never what it is entered with
                        checks.append("True")
                    elif is_int:
                        checks.append(_INT_CHECK.format(name))
            elif self.loads:
                lines.append("    try:")
                for name, key, _, is_int in self.loads:
                    lines.append(f"        {name} = env[{key}]")
                    checks.append(
                        _INT_CHECK.format(name) if is_int
                        else f"type({name}) is {self.named('_Future', Future)}"
                    )
                lines += ["    except KeyError:", *deopt]
            lines += [f"    if {' or '.join(checks)}:", *deopt]
        if self.needs_arith_cycles:
            lines.append("    _ac = ex.proc.spec.arith_cycles")
        return lines


def _emit(plan: BlockPlan, suspending: bool):
    """``(code, shared, values, recipes, checks, cold)`` for ``plan``:
    the body's code object, of the kind asked for (``shared``: some
    block had compiled the same text already), the values of everything
    it names — its default arguments, then what its ``_cold`` default
    holds under the names ``cold`` — and, for a
    :class:`~repro.sim.plan.ShapePlan`, which of those are a launch
    site's own, as ``position -> f(site)``.  ``checks`` is ``None`` for
    a body without a typed prologue, else where its guard and the
    constants it consumes as ints sit among the values."""
    emitter = _Emitter(plan.block, suspending)
    emitter.root_plan = plan
    emitter.emit_plan(plan, 1, ())
    if not suspending:
        emitter.line(1, "return None")
    elif emitter.empty_since(0):
        emitter.line(1, "pass")

    entered, lines = emitter.text(emitter.prologue())
    hot, cold = list(emitter.bindings), list(emitter.cold)
    params = [entered, *hot, *(["_cold"] if cold else [])]
    source = "def _plan_body({params}):\n{body}\n".format(
        params=", ".join(params), body="\n".join(lines)
    )
    code = _SHAPES.get(source)
    shared = code is not None
    if not shared:
        module = compile(source, f"<plan-codegen-{next(_SERIAL)}>", "exec")
        code = _SHAPES[source] = next(
            c for c in module.co_consts if isinstance(c, CodeType)
        )
    # A name may be hot and cold both (``_plan``): one value in each.
    names = hot + cold
    recipes = [
        (at, emitter.recipes[name])
        for at, name in enumerate(names) if name in emitter.recipes
    ]
    checks = None
    if "_guard" in emitter.bindings:
        checks = (
            hot.index("_guard"),
            [hot.index(name) for name in emitter.int_constants],
        )
    values = [*emitter.bindings.values(), *emitter.cold.values()]
    return code, shared, values, recipes, checks, cold


def compile_block_body(plan: BlockPlan):
    """Emit and instantiate the specialized body for ``plan``; returns
    ``(fn, shared, typed, suspending)``.

    ``fn`` is entered with what the block is entered with: a launch
    body's ``fn(ex, *captures)``, any other block's ``fn(ex, env)`` —
    :meth:`~repro.sim.plan.BlockPlan.execute`'s contract — and returns
    ``None`` or a generator, in one of two kinds,
    :func:`~repro.sim.plan._suspends` says which: an *inline* body is a
    plain function that returns ``None`` when nothing suspended, and a
    *suspending* body is a generator function (``suspending``).
    Everything the body references is a default argument (``LOAD_FAST``
    at execution time, no global or closure lookups) — what only its
    slow paths read, behind the one default ``_cold`` — so the emitted
    text names no object and ``compile()`` runs once per *shape*:
    ``shared`` is true when an earlier block — of this program or any
    other in the process — already compiled the same text, and ``fn``
    differs from that block's body only in ``__defaults__``.
    :func:`source_of` returns the text.

    A launch site's view of a shared plan is not even emitted twice: the
    first hot site emits the shape's body — in the kind the shape's
    replays, over all sites, call for — and every site — that one
    included — gets a function of that code object whose per-site
    defaults (constants, folded index tuples, its views of nested plans)
    are filled in from the site.

    ``typed``: the body starts with a typed prologue.  The text is
    typed by the IR's static types alone, so it is the shape's; whether
    a constant it consumes as an ``int`` *is* one is each site's own
    matter, settled here: a site with one that is not gets the guard
    that sends its every entry to :func:`_deopt`.
    """
    shape = plan.shape
    if shape is None:
        suspending = _suspends(plan)
        code, shared, values, _, checks, cold = _emit(plan, suspending)
    else:
        shared = shape.emitted is not None
        if not shared:
            suspending = _suspends(plan)
            code, shared, *emitted = _emit(shape, suspending)
            shape.emitted = (code, *emitted, suspending)
        code, values, recipes, checks, cold, suspending = shape.emitted
        values = values.copy()
        site = plan.site
        for position, recipe in recipes:
            values[position] = recipe(site)
    if checks is not None:
        guard, constants = checks
        values[guard] = _site_guard(values, constants)
    hot = len(values) - len(cold)
    defaults = values[:hot]
    if cold:
        defaults.append(SimpleNamespace(**dict(zip(cold, values[hot:]))))
    fn = FunctionType(code, _GLOBALS, "_plan_body", tuple(defaults))
    return fn, shared, checks is not None, suspending


def source_of(fn) -> Optional[str]:
    """The emitted source of a generated body (kept once per shape, as
    the shape table's key — not once per function)."""
    for source, code in _SHAPES.items():
        if code is fn.__code__:
            return source
    return None
