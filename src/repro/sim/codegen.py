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
walks an inlineable :class:`~repro.sim.plan.BlockPlan` once and emits a
specialized Python function — one statement group per step, with:

* constant binds folded to plain dict stores (no call at all),
* hot ``arith`` bodies (raw-int binary ops, generic binary ops,
  ``cmpi``) and ``scf.if`` condition dispatch expanded *inline* from the
  compiler's step metadata — the register/ALU traffic of a PE step body
  runs without a single intermediate Python call,
* the per-processor arith cost (``ex.proc.spec.arith_cycles``) hoisted
  to one attribute chain per block execution,
* scalar ``affine.for`` loops flattened into native ``for`` statements
  (plan mode pays a generator frame per loop execution), with loop
  bodies recursively inlined up to :data:`_MAX_FLATTEN_DEPTH` levels,
* everything the body refers to — SSA values, pre-bound callables, and
  every per-site constant (static indices, fixed cycle counts, folded
  attribute values) — bound as a default argument (``LOAD_FAST``, no
  cell or global lookups); guaranteed-int steps skip the suspension
  type dispatch entirely.

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

The generated function honors the same inline/suspend protocol as
:func:`~repro.sim.plan._inline_run`: it returns ``None`` when the body
completed without suspending (the hot case — no generator frame at
all), or a generator finishing the remaining work when a step suspended.
Suspension paths re-enter the plan machinery (``_resume`` /
``BlockPlan.run``), so observable behaviour — cycle counts, buffer
contents, busy time, traffic, scheduler-event counts — is bit-identical
to plan replay and to the interpreter; the differential suite proves it
across every registered scenario.

Fallback rules
==============

A plan can never be generated (counted in ``codegen_fallbacks`` under
its reason, e.g. ``K_GEN:equeue.await``) when it is not inlineable — it
contains ``K_GEN``, ``K_RET``, or ``K_ANY`` steps whose flush/return
semantics need the full generator executor.  Such plans replay through
the plan path however hot they get, so codegen mode is always safe to
request.  Under detailed tracing the arith metadata is withheld by the
compiler (the traced wrapper must run), and the emitter falls back to
closure calls for those steps while still flattening the rest.
"""

from __future__ import annotations

import builtins
import itertools
import weakref
from types import CodeType, FunctionType
from typing import Optional

import numpy as np

from .engine import Future
from .plan import (
    _MISSING,
    BlockPlan,
    K_CONST,
    K_CTRL,
    K_CYCLES,
    K_DYN,
    K_FLUSH_CALL,
    K_SITE,
    K_VEC,
    ShapePlan,
    SiteIndex,
    _plain_access_cost,
    _resume,
)

__all__ = ["compile_block_body", "source_of"]

#: Loop nests deeper than this call the (itself codegen'd) body function
#: per iteration instead of inlining its statements.
_MAX_FLATTEN_DEPTH = 2

#: Monotonic id for generated code filenames (aids tracebacks).
_SERIAL = itertools.count(1)

#: Emitted source -> the function code object ``compile()`` made of it:
#: THE process-wide table of generated code.  A shape lives as long as
#: some plan's body uses it.
_SHAPES = weakref.WeakValueDictionary()

#: Globals of every generated function: builtins only.
_GLOBALS = {"__builtins__": builtins}


def _for_resume(plan, ex, env, gen, body_exec, induction, it, steps_rest):
    """Finish a suspended inlined ``affine.for``: drive the pending body
    generator, run the remaining iterations under the inline/suspend
    protocol, then the plan's remaining steps.  Mirrors what the scalar
    loop step closure plus :func:`~repro.sim.plan._resume` do in plan
    mode (structured control flow never flushes first)."""
    yield from gen
    for i in it:
        env[induction] = i
        suspended = body_exec(ex, env)
        if suspended is not None:
            yield from suspended
    yield from plan.run(ex, env, steps_rest)


class _Emitter:
    """Accumulates source lines plus the objects they reference."""

    def __init__(self):
        self.lines = []
        self.bindings = {}
        #: For a :class:`~repro.sim.plan.ShapePlan`: the bindings that
        #: are a launch site's own, as ``name -> f(site)``.
        self.recipes = {}
        self.needs_arith_cycles = False
        self._serial = 0
        self._names_by_id = {}

    def bind(self, prefix, value):
        # One binding per object: shared callables (``engine._resolve``)
        # and SSA values used twice collapse to a single default argument.
        name = self._names_by_id.get(id(value))
        if name is None:
            name = self._names_by_id[id(value)] = self.site(prefix, value)
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
        self.bindings[name] = value
        if recipe is not None:
            self.recipes[name] = recipe
        return name

    def plan(self, plan):
        """``plan`` as a default argument; a shared plan stands for the
        launch site's view of it."""
        name = self.bind("p", plan)
        if type(plan) is ShapePlan:
            self.recipes[name] = lambda site, _i=plan.index: site.plans[_i]
        return name

    def entry(self, plan):
        """``plan.execute``, likewise."""
        name = self.site("e", plan.execute)
        if type(plan) is ShapePlan:
            self.recipes[name] = (
                lambda site, _i=plan.index: site.plans[_i].execute
            )
        return name

    def _item(self, const_idx):
        """``_u.array.item(i, j)`` with the static coordinates bound."""
        names = []
        slots = getattr(const_idx, "slots", itertools.repeat(None))
        for i, slot in zip(const_idx, slots):
            recipe = None
            if slot is not None:
                def recipe(site, _s=slot):
                    return int(site.consts[_s])
            names.append(self.site("j", i, recipe))
        return f"_u.array.item({', '.join(names)})"

    def _target(self, const_idx):
        """The static coordinates as one bound tuple (a store target)."""
        if type(const_idx) is SiteIndex:
            return self.site(
                "g", const_idx, lambda site: const_idx.at(site.consts)
            )
        return self.site("g", const_idx)

    def line(self, indent, text):
        self.lines.append("    " * indent + text)

    # -- inline step bodies ------------------------------------------------

    def _load_pair(self, indent, s0, s1, resolve):
        """The two-operand environment load with resolve fallback every
        binary arith step starts with."""
        a = self.bind("a", s0)
        b = self.bind("b", s1)
        rs = self.bind("rs", resolve)
        self.line(indent, "try:")
        self.line(indent + 1, f"_a = env[{a}]")
        self.line(indent + 1, f"_b = env[{b}]")
        self.line(indent, "except KeyError:")
        self.line(indent + 1, f"_a = {rs}(env, {a})")
        self.line(indent + 1, f"_b = {rs}(env, {b})")

    def _arith_cost(self, indent, is_free):
        if not is_free:
            self.needs_arith_cycles = True
            self.line(indent, "ex.pending += _ac")

    def emit_arith2(self, indent, meta):
        _, s0, s1, result, raw, fn, is_free, resolve = meta
        self._load_pair(indent, s0, s1, resolve)
        out = self.bind("o", result)
        rawn = self.bind("f", raw)
        fnn = self.bind("g", fn)
        self.line(indent, "if type(_a) is int and type(_b) is int:")
        self.line(indent + 1, f"env[{out}] = {rawn}(_a, _b)")
        self.line(indent, "else:")
        self.line(indent + 1, "if type(_a) is _Future:")
        self.line(indent + 2, "_a = _a.value")
        self.line(indent + 1, "if type(_b) is _Future:")
        self.line(indent + 2, "_b = _b.value")
        self.line(indent + 1, f"env[{out}] = {fnn}(_a, _b)")
        self._arith_cost(indent, is_free)

    def emit_barith2(self, indent, meta):
        _, s0, s1, result, fn, is_free, resolve = meta
        self._load_pair(indent, s0, s1, resolve)
        out = self.bind("o", result)
        fnn = self.bind("g", fn)
        self.line(indent, "if type(_a) is _Future:")
        self.line(indent + 1, "_a = _a.value")
        self.line(indent, "if type(_b) is _Future:")
        self.line(indent + 1, "_b = _b.value")
        self.line(indent, f"env[{out}] = {fnn}(_a, _b)")
        self._arith_cost(indent, is_free)

    def emit_cmp(self, indent, meta):
        _, s0, s1, result, compare, is_free, resolve = meta
        self._load_pair(indent, s0, s1, resolve)
        out = self.bind("o", result)
        cmp = self.bind("c", compare)
        self.line(indent, "if type(_a) is _Future:")
        self.line(indent + 1, "_a = _a.value")
        self.line(indent, "if type(_b) is _Future:")
        self.line(indent + 1, "_b = _b.value")
        self.line(indent, f"_v = {cmp}(_a, _b)")
        self.line(indent, "if _v is True:")
        self.line(indent + 1, f"env[{out}] = 1")
        self.line(indent, "elif _v is False:")
        self.line(indent + 1, f"env[{out}] = 0")
        self.line(indent, "elif isinstance(_v, _ndarray):")
        self.line(indent + 1, f"env[{out}] = _v.astype(_int8)")
        self.line(indent, "else:")
        self.line(indent + 1, f"env[{out}] = int(bool(_v))")
        self.bindings.setdefault("_ndarray", np.ndarray)
        self.bindings.setdefault("_int8", np.int8)
        self._arith_cost(indent, is_free)

    def _emit_branch(self, indent, branch_plan, branch_wrap, depth):
        """One arm of an inlined ``scf.if``: flatten the branch body when
        possible, else enter its plan (which tiers up on its own)."""
        if depth < _MAX_FLATTEN_DEPTH and branch_plan.inlineable:
            mark = len(self.lines)
            branch_name = self.plan(branch_plan)
            self.emit_plan(
                branch_plan, branch_name, indent, branch_wrap, depth + 1
            )
            if len(self.lines) == mark:  # empty branch body
                self.line(indent, "pass")
        else:
            branch_exec = self.entry(branch_plan)
            self.line(indent, f"_r = {branch_exec}(ex, env)")
            self.line(indent, "if _r is not None:")
            self.line(indent + 1, branch_wrap("_r"))

    def emit_if(self, indent, meta, index, plan_name, wrap, depth):
        _, cond_ssa, then_plan, else_plan, resolve = meta
        cond = self.bind("q", cond_ssa)
        rs = self.bind("rs", resolve)
        self.line(indent, "try:")
        self.line(indent + 1, f"_c = env[{cond}]")
        self.line(indent, "except KeyError:")
        self.line(indent + 1, f"_c = {rs}(env, {cond})")
        self.line(indent, "if type(_c) is _Future:")
        self.line(indent + 1, "_c = _c.value")
        self.line(indent, "if type(_c) is int:")
        self.line(indent + 1, "_t = _c != 0")
        self.line(indent, "elif isinstance(_c, _ndarray):")
        self.line(indent + 1, "_t = bool(_c.any())")
        self.line(indent, "else:")
        self.line(indent + 1, "_t = bool(int(_c))")
        self.bindings.setdefault("_ndarray", np.ndarray)

        def branch_wrap(gen):
            # Plan mode returns the branch's suspension generator from the
            # K_CTRL step; _resume then finishes this plan after the if.
            return wrap(
                f"_resume({plan_name}, ex, env, {gen}, {index}, False)"
            )

        if then_plan is not None and else_plan is not None:
            self.line(indent, "if _t:")
            self._emit_branch(indent + 1, then_plan, branch_wrap, depth)
            self.line(indent, "else:")
            self._emit_branch(indent + 1, else_plan, branch_wrap, depth)
        elif then_plan is not None or else_plan is not None:
            guard = "if _t:" if then_plan is not None else "if not _t:"
            self.line(indent, guard)
            self._emit_branch(
                indent + 1, then_plan or else_plan, branch_wrap, depth
            )

    # -- inlined buffer accesses -------------------------------------------

    def _emit_buffer_head(self, indent, buffer_ssa, state, is_write, resolve):
        """Shared preamble of every scalar buffer fast path: resolve the
        buffer, unwrap a Future, refresh the last-seen-memory memo."""
        buf = self.bind("u", buffer_ssa)
        rs = self.bind("rs", resolve)
        st = self.bind("m", state)
        pac = self.bind("pc", _plain_access_cost)
        self.line(indent, "try:")
        self.line(indent + 1, f"_u = env[{buf}]")
        self.line(indent, "except KeyError:")
        self.line(indent + 1, f"_u = {rs}(env, {buf})")
        self.line(indent, "if type(_u) is _Future:")
        self.line(indent + 1, "_u = _u.value")
        self.line(indent, "_m = _u.memory")
        self.line(indent, f"if _m is not {st}[0]:")
        self.line(indent + 1, f"{st}[1] = {pac}(_m, {is_write})")
        self.line(indent + 1, f"{st}[0] = _m")
        return st

    def _emit_general(self, indent, general, index, plan_name, wrap):
        """The slow-path handler call of a read/write fast path, under the
        K_DYN suspension protocol."""
        gn = self.bind("h", general)
        self.line(indent, f"_r = {gn}(ex, env)")
        self.line(indent, "if type(_r) is int:")
        self.line(indent + 1, "if _r:")
        self.line(indent + 2, "ex.pending += _r")
        self.line(indent, "else:")
        self.line(
            indent + 1,
            wrap(f"_resume({plan_name}, ex, env, _r, {index}, True)"),
        )

    def _read_stats(self, indent, posted):
        self.line(indent, "_m.bytes_read += _u.element_bits >> 3")
        self.line(indent, "_m.reads += 1")
        if posted:
            self.line(indent, "if _co:")
            self.line(indent + 1, "_m.queue.posted_busy_cycles += _co")

    def _write_stats(self, indent, posted):
        self.line(indent, "_m.bytes_written += _u.element_bits >> 3")
        self.line(indent, "_m.writes += 1")
        if posted:
            self.line(indent, "if _co:")
            self.line(indent + 1, "_m.queue.posted_busy_cycles += _co")

    def emit_read(self, indent, meta, index, plan_name, wrap):
        _, buffer_ssa, result, posted, state, const_idx, general, resolve = (
            meta
        )
        st = self._emit_buffer_head(indent, buffer_ssa, state, False, resolve)
        out = self.bind("o", result)
        self.line(indent, f"_co = {st}[1]")
        cond = "_co >= 0" if posted else "_co == 0"
        self.line(indent, f"if {cond}:")
        self.line(indent + 1, f"env[{out}] = {self._item(const_idx)}")
        self._read_stats(indent + 1, posted)
        self.line(indent, "else:")
        self._emit_general(indent + 1, general, index, plan_name, wrap)

    def emit_readx(self, indent, meta, index, plan_name, wrap):
        _, buffer_ssa, result, posted, state, indices_ssa, general, resolve = (
            meta
        )
        st = self._emit_buffer_head(indent, buffer_ssa, state, False, resolve)
        out = self.bind("o", result)
        self.line(indent, f"_co = {st}[1]")
        cond = "_co >= 0" if posted else "_co == 0"
        self.line(indent, f"if {cond}:")
        idx = ", ".join(
            f"int(env[{self.bind('x', s)}])" for s in indices_ssa
        )
        self.line(indent + 1, "try:")
        self.line(indent + 2, f"env[{out}] = _u.array.item({idx})")
        self.line(indent + 1, "except (KeyError, TypeError):")
        self._emit_general(indent + 2, general, index, plan_name, wrap)
        self.line(indent + 1, "else:")
        self._read_stats(indent + 2, posted)
        self.line(indent, "else:")
        self._emit_general(indent + 1, general, index, plan_name, wrap)

    def emit_write(self, indent, meta, index, plan_name, wrap):
        (
            _, buffer_ssa, value_ssa, posted, state, const_idx, indices_ssa,
            general, resolve,
        ) = meta
        st = self._emit_buffer_head(indent, buffer_ssa, state, True, resolve)
        val = self.bind("w", value_ssa)
        self.bindings.setdefault("_MISS", _MISSING)
        self.bindings.setdefault("_np", np)
        self.bindings.setdefault("_ndarray", np.ndarray)
        self.line(indent, f"_co = {st}[1]")
        cond = "_co >= 0" if posted else "_co == 0"
        self.line(indent, f"if {cond}:")
        self.line(indent + 1, f"_w = env.get({val}, _MISS)")
        self.line(indent + 1, "if _w is _MISS or type(_w) is _Future:")
        self._emit_general(indent + 2, general, index, plan_name, wrap)
        self.line(indent + 1, "else:")
        if const_idx is not None:
            tgt = self._target(const_idx)
            self._emit_write_store(indent + 2, tgt, posted)
        else:
            idx = ", ".join(
                f"int(env[{self.bind('x', s)}])" for s in indices_ssa
            )
            self.line(indent + 2, "try:")
            self.line(indent + 3, f"_tg = ({idx},)")
            self.line(indent + 2, "except (KeyError, TypeError):")
            self._emit_general(indent + 3, general, index, plan_name, wrap)
            self.line(indent + 2, "else:")
            self._emit_write_store(indent + 3, "_tg", posted)
        self.line(indent, "else:")
        self._emit_general(indent + 1, general, index, plan_name, wrap)

    def _emit_write_store(self, indent, tgt, posted):
        self.line(indent, "if isinstance(_w, _ndarray):")
        self.line(
            indent + 1,
            f"_u.array[{tgt}] = _np.asarray(_w).reshape("
            f"_u.array[{tgt}].shape)",
        )
        self.line(indent, "else:")
        self.line(indent + 1, f"_u.array[{tgt}] = _w")
        self._write_stats(indent, posted)

    def emit_load(self, indent, meta, index, plan_name, wrap):
        _, buffer_ssa, result, state, const_idx, indices_ssa, general, \
            resolve = meta
        st = self._emit_buffer_head(indent, buffer_ssa, state, False, resolve)
        out = self.bind("o", result)
        self.line(indent, f"if {st}[1] == 0:")
        if const_idx is not None:
            self.line(indent + 1, f"env[{out}] = {self._item(const_idx)}")
            self.line(indent + 1, "_m.bytes_read += _u.element_bits >> 3")
            self.line(indent + 1, "_m.reads += 1")
        else:
            idx = ", ".join(
                f"int(env[{self.bind('x', s)}])" for s in indices_ssa
            )
            self.line(indent + 1, "try:")
            self.line(indent + 2, f"env[{out}] = _u.array.item({idx})")
            self.line(indent + 1, "except (KeyError, TypeError):")
            self._emit_general(indent + 2, general, index, plan_name, wrap)
            self.line(indent + 1, "else:")
            self.line(indent + 2, "_m.bytes_read += _u.element_bits >> 3")
            self.line(indent + 2, "_m.reads += 1")
        self.line(indent, "else:")
        self._emit_general(indent + 1, general, index, plan_name, wrap)

    def emit_store(self, indent, meta, index, plan_name, wrap):
        _, buffer_ssa, value_ssa, state, const_idx, indices_ssa, general, \
            resolve = meta
        st = self._emit_buffer_head(indent, buffer_ssa, state, True, resolve)
        val = self.bind("w", value_ssa)
        self.bindings.setdefault("_MISS", _MISSING)
        self.line(indent, f"if {st}[1] == 0:")
        self.line(indent + 1, f"_w = env.get({val}, _MISS)")
        self.line(indent + 1, "if _w is _MISS or type(_w) is _Future:")
        self._emit_general(indent + 2, general, index, plan_name, wrap)
        self.line(indent + 1, "else:")
        if const_idx is not None:
            tgt = self._target(const_idx)
            self.line(indent + 2, f"_u.array[{tgt}] = _w")
            self.line(indent + 2, "_m.bytes_written += _u.element_bits >> 3")
            self.line(indent + 2, "_m.writes += 1")
        else:
            idx = ", ".join(
                f"int(env[{self.bind('x', s)}])" for s in indices_ssa
            )
            self.line(indent + 2, "try:")
            self.line(indent + 3, f"_tg = ({idx},)")
            self.line(indent + 2, "except (KeyError, TypeError):")
            self._emit_general(indent + 3, general, index, plan_name, wrap)
            self.line(indent + 2, "else:")
            self.line(indent + 3, "_u.array[_tg] = _w")
            self.line(
                indent + 3, "_m.bytes_written += _u.element_bits >> 3"
            )
            self.line(indent + 3, "_m.writes += 1")
        self.line(indent, "else:")
        self._emit_general(indent + 1, general, index, plan_name, wrap)

    def emit_extern(self, indent, meta):
        _, operand_ssa, result_ssa, func, fixed_cycles, resolve = meta
        fu = self.bind("f", func)
        rs = self.bind("rs", resolve)
        args = ", ".join(
            f"{rs}(env, {self.bind('x', v)})" for v in operand_ssa
        )
        self.line(indent, f"_vres = {fu}({args})")
        if result_ssa:
            rsn = self.bind("y", result_ssa)
            self.line(indent, "if _vres is None:")
            self.line(indent + 1, "_vres = ()")
            self.line(indent, f"for _ssa, _val in zip({rsn}, _vres):")
            self.line(indent + 1, "env[_ssa] = _val")
        if fixed_cycles:
            self.line(indent, f"ex.pending += {self.site('n', fixed_cycles)}")

    # -- per-plan emission -------------------------------------------------

    def emit_plan(self, plan, plan_name, indent, wrap, depth):
        """Emit the statement sequence for ``plan``'s steps.

        ``wrap`` turns a suspension-generator expression into the full
        ``return`` statement for this nesting level — for nested loops it
        composes ``_for_resume`` chains outward, so a suspension anywhere
        resumes the whole flattened nest exactly like the plan-mode
        generator stack would.
        """
        steps = plan.steps
        for index, (kind, a, b) in enumerate(steps):
            if kind == K_CONST:
                key = self.bind("k", a)
                val = self.site("v", b)
                self.line(indent, f"env[{key}] = {val}")
            elif kind == K_SITE:
                # The same store; the value is the launch site's.
                key = self.bind("k", a)
                val = self.site("v", None, lambda site, _s=b: site.consts[_s])
                self.line(indent, f"env[{key}] = {val}")
            elif kind == K_DYN and type(b) is tuple and b:
                tag = b[0]
                if tag == "arith2":
                    self.emit_arith2(indent, b)
                elif tag == "barith2":
                    self.emit_barith2(indent, b)
                elif tag == "cmp":
                    self.emit_cmp(indent, b)
                elif tag == "read":
                    self.emit_read(indent, b, index, plan_name, wrap)
                elif tag == "readx":
                    self.emit_readx(indent, b, index, plan_name, wrap)
                elif tag == "write":
                    self.emit_write(indent, b, index, plan_name, wrap)
                elif tag == "load":
                    self.emit_load(indent, b, index, plan_name, wrap)
                elif tag == "store":
                    self.emit_store(indent, b, index, plan_name, wrap)
                elif tag == "extern":
                    self.emit_extern(indent, b)
                else:  # unknown metadata: conservative closure call
                    self._emit_dyn_call(indent, a, index, plan_name, wrap)
            elif kind == K_DYN and b == "int":
                # Certified by the compiler to return a plain int: no
                # type dispatch, no suspension path.
                s = self.bind("s", a)
                self.line(indent, f"_r = {s}(ex, env)")
                self.line(indent, "if _r:")
                self.line(indent + 1, "ex.pending += _r")
            elif kind == K_DYN:
                self._emit_dyn_call(indent, a, index, plan_name, wrap)
            elif kind == K_FLUSH_CALL:
                s = self.bind("s", a)
                tail = self.bind("t", steps[index:])
                self.line(indent, "if ex.pending:")
                self.line(
                    indent + 1, wrap(f"{plan_name}.run(ex, env, {tail})")
                )
                self.line(indent, f"{s}(ex, env)")
            elif (
                kind == K_CTRL and type(b) is tuple and b and b[0] == "if"
            ):
                self.emit_if(indent, b, index, plan_name, wrap, depth)
            elif (
                kind == K_CTRL and type(b) is tuple and b and b[0] == "for"
            ):
                self._emit_for(
                    indent, b, index, plan, plan_name, wrap, depth
                )
            else:  # generic K_CTRL / K_VEC / K_CYCLES
                s = self.bind("s", a)
                self.line(indent, f"_r = {s}(ex, env)")
                self.line(indent, "if _r is not None:")
                self.line(indent + 1, "if type(_r) is int:")
                self.line(indent + 2, "if _r:")
                self.line(indent + 3, "ex.pending += _r")
                self.line(indent + 1, "else:")
                self.line(
                    indent + 2,
                    wrap(
                        f"_resume({plan_name}, ex, env, _r, {index}, False)"
                    ),
                )

    def _emit_dyn_call(self, indent, step, index, plan_name, wrap):
        s = self.bind("s", step)
        self.line(indent, f"_r = {s}(ex, env)")
        self.line(indent, "if type(_r) is int:")
        self.line(indent + 1, "if _r:")
        self.line(indent + 2, "ex.pending += _r")
        self.line(indent, "else:")
        self.line(
            indent + 1,
            wrap(f"_resume({plan_name}, ex, env, _r, {index}, True)"),
        )

    def _emit_for(self, indent, meta, index, plan, plan_name, wrap, depth):
        """Scalar affine.for with flattening metadata: a native loop —
        plan mode pays a generator frame here on every execution."""
        _, body_plan, induction, loop_range = meta
        body_exec = self.entry(body_plan)
        ind = self.bind("i", induction)
        rng = self.bind("r", loop_range)
        tail = self.bind("t", plan.steps[index + 1:])
        it = f"_it{index}_{depth}"
        self.line(indent, f"{it} = iter({rng})")
        self.line(indent, f"for _i in {it}:")
        self.line(indent + 1, f"env[{ind}] = _i")

        def body_wrap(gen):
            return wrap(
                f"_for_resume({plan_name}, ex, env, {gen}, {body_exec}, "
                f"{ind}, {it}, {tail})"
            )

        if depth < _MAX_FLATTEN_DEPTH and body_plan.inlineable:
            body_name = self.plan(body_plan)
            self.emit_plan(
                body_plan, body_name, indent + 1, body_wrap, depth + 1
            )
        else:
            self.line(indent + 1, f"_r = {body_exec}(ex, env)")
            self.line(indent + 1, "if _r is not None:")
            self.line(indent + 2, body_wrap("_r"))


def _emit(plan: BlockPlan):
    """``(code, shared, defaults, recipes)`` for an inlineable ``plan``:
    the body's code object (``shared``: some block had compiled the same
    text already), the default arguments binding everything it names,
    and — for a :class:`~repro.sim.plan.ShapePlan` — which of those are
    a launch site's own, as ``position -> f(site)``."""
    emitter = _Emitter()
    emitter.bindings["_plan"] = plan
    if type(plan) is ShapePlan:
        emitter.recipes["_plan"] = lambda site, _i=plan.index: site.plans[_i]
    emitter.bindings["_resume"] = _resume
    emitter.bindings["_for_resume"] = _for_resume
    emitter.bindings["_Future"] = Future
    emitter.emit_plan(plan, "_plan", 1, lambda gen: f"return {gen}", 0)
    emitter.line(1, "return None")

    prologue = []
    if emitter.needs_arith_cycles:
        prologue.append("    _ac = ex.proc.spec.arith_cycles")
    source = "def _plan_body(ex, env, {params}):\n{body}\n".format(
        params=", ".join(emitter.bindings),
        body="\n".join(prologue + emitter.lines),
    )
    code = _SHAPES.get(source)
    shared = code is not None
    if not shared:
        module = compile(source, f"<plan-codegen-{next(_SERIAL)}>", "exec")
        code = _SHAPES[source] = next(
            c for c in module.co_consts if isinstance(c, CodeType)
        )
    recipes = [
        (position, emitter.recipes[name])
        for position, name in enumerate(emitter.bindings)
        if name in emitter.recipes
    ]
    return code, shared, list(emitter.bindings.values()), recipes


def compile_block_body(plan: BlockPlan):
    """Emit and instantiate the specialized body for an inlineable
    ``plan``; returns ``(fn, shared)``.

    ``fn`` has the ``_inline_run`` contract — ``fn(ex, env)`` → ``None``
    or a generator.  Everything the body references is a default
    argument (``LOAD_FAST`` at execution time, no global or closure
    lookups), so the emitted text names no object and ``compile()`` runs
    once per *shape*: ``shared`` is true when an earlier block — of this
    program or any other in the process — already compiled the same
    text, and ``fn`` differs from that block's body only in
    ``__defaults__``.  :func:`source_of` returns the text.

    A launch site's view of a shared plan is not even emitted twice: the
    first hot site emits the shape's body, and every site — that one
    included — gets a function of that code object whose per-site
    defaults (constants, folded index tuples, its views of nested plans)
    are filled in from the site.
    """
    shape = plan.shape
    if shape is None:
        code, shared, defaults, _ = _emit(plan)
    else:
        shared = shape.emitted is not None
        if not shared:
            code, shared, defaults, recipes = _emit(shape)
            shape.emitted = code, defaults, recipes
        code, defaults, recipes = shape.emitted
        defaults = defaults.copy()
        site = plan.site
        for position, recipe in recipes:
            defaults[position] = recipe(site)
    return FunctionType(code, _GLOBALS, "_plan_body", tuple(defaults)), shared


def source_of(fn) -> Optional[str]:
    """The emitted source of a generated body (kept once per shape, as
    the shape table's key — not once per function)."""
    for source, code in _SHAPES.items():
        if code is fn.__code__:
            return source
    return None
