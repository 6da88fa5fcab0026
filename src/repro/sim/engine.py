"""The generic EQueue simulation engine (§IV).

The engine executes a verified EQueue module:

1. **Elaboration** — top-level structure ops (``create_*``, ``alloc``,
   hierarchy ops) are evaluated once, building the component model.
2. **Simulation** — the top-level block runs as an implicit host process;
   every processor/DMA runs its own event-queue loop (the paper's
   setup-entry / check-queue / schedule / finish stages map onto
   :meth:`_Dispatcher.dispatch` and :meth:`_Dispatcher.begin`).
3. **Reporting** — profiling summary (§IV-B) plus an optional Chrome trace.

Timing and function are separated: op handlers compute real values (NumPy)
while charging cycles to processors, memories, and connections.  Handlers
for purely local ops return an integer cost that accumulates into a pending
counter; the counter is flushed into the DES kernel only when an op needs
an accurate global timestamp (launch/memcpy issue, contended memory or
connection access, events).  This keeps tight compute loops cheap without
changing observable timing.

Execution has three interchangeable strategies, selected by one
:class:`ExecutionMode` (``EngineOptions.mode``):

* ``interpret`` — :meth:`Engine._run_block` walks ``block.ops`` and
  dispatches through the handler table on every execution.  Simple,
  always available, and the reference semantics.
* ``plan`` — on first execution each block is lowered by
  :mod:`repro.sim.plan` into a :class:`~repro.sim.plan.BlockPlan` of
  pre-bound step closures (handler lookup, attribute parsing, operand
  decomposition, and flush/trace decisions resolved once); subsequent
  executions replay the cached plan.  Never generates code: the
  differential oracle for the mode below.
* ``codegen`` (the default) — plan replay, until a block has been
  entered often enough (``plan.TIER_UP_EXECUTIONS``) for generated code
  to repay its cost; the block's plan is then lowered by
  :mod:`repro.sim.codegen` into specialized Python *source* —
  straight-line code with the step dispatch loop gone, constants bound
  as arguments, and ``affine.for`` bodies flattened: a plain function
  for a block that never suspends, a generator function (waits are
  ``yield``s in place) for one that does —
  ``compile()``d once per *shape* (every block of the same structure,
  in any program, shares the code object) and swapped in at the block's
  next entry.  Plans the emitter cannot express keep replaying.

Observable results (cycle counts, buffers, statistics, even the
scheduler-event count) are bit-identical across all three modes; see
``docs/performance.md`` for the full story.
:func:`resolve_execution_mode` is the one canonical normalization
point from mode spellings onto the enum.

Orthogonally, ``EngineOptions.scheduler`` selects the DES scheduler
backend: the tiered event wheel (``"wheel"``, default — microtask ring
for zero-delay resumes, calendar buckets for short latencies, heap
overflow for far-future times) or the classic binary heap (``"heap"``,
the reference both must match bit-for-bit; see
:mod:`repro.sim.kernel`).
"""

from __future__ import annotations

import enum
import itertools
import time as _time
import weakref
from dataclasses import dataclass, field
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..dialects.affine import ForOp, ParallelOp
from ..ir.attributes import attr_to_python
from ..ir.diagnostics import IRError
from ..ir.module import ModuleOp
from ..ir.operation import Operation
from ..ir.types import IndexType, MemRefType, TensorType
from ..ir.values import OpResult, Value
from ..ir.verifier import verified, verify
from . import interp, oplib
from .components import (
    Buffer,
    ComponentGroup,
    ConnectionModel,
    DMAModel,
    EventEntry,
    MemoryModel,
    MemorySpec,
    ProcessorModel,
    memory_spec,
    register_memory_kind,
)
from .kernel import AllOf, Process, SimEvent, all_of, any_of, make_simulator
from .profiling import ConnectionReport, MemoryReport, ProfilingSummary
from .tracing import TraceRecorder
from ..obs import metrics as _obs_metrics
from ..obs.spans import span as _span

__all__ = [
    "Engine", "EngineError", "EngineOptions", "ExecutionMode", "Future",
    "SimulationResult", "resolve_execution_mode", "simulate",
    # Re-exported for callers catching both error kinds / checking types.
    "IRError", "TensorType",
]


class EngineError(Exception):
    """Raised for runtime simulation errors (deadlock, unresolved values)."""


class ExecutionMode(str, enum.Enum):
    """The execution-path selector: one enum for CLI, engine, sweeps,
    and the service tier.

    A ``str`` subclass, so resolved modes compare equal to their plain
    spellings (``options.mode == "codegen"``) and serialize as strings
    in stats records, journal headers, and store keys.
    """

    #: The reference interpreter (:meth:`Engine._run_block`).
    INTERPRET = "interpret"
    #: Compile-once/execute-many block plans (:mod:`repro.sim.plan`).
    PLAN = "plan"
    #: Plans plus specialized Python source for each block that runs
    #: often enough to repay it (:mod:`repro.sim.codegen`).
    CODEGEN = "codegen"


def resolve_execution_mode(
    mode: Union[str, ExecutionMode, None],
) -> ExecutionMode:
    """THE canonical normalization point for execution-path selection.

    Maps an :class:`ExecutionMode`, its string spelling, or ``None``
    (the default, ``codegen``) onto one resolved mode.  Every surface
    that accepts a mode — :class:`EngineOptions`, ``equeue-sim --mode``,
    the service request layer — routes through here, so an unknown
    spelling is rejected with the same message everywhere, and
    ``resolve_execution_mode(None)`` is the only place the default is
    spelled: the CLI and the service derive the mode they leave out of
    journal headers and store keys from it.
    """
    if mode is None:
        return ExecutionMode.CODEGEN
    try:
        return ExecutionMode(mode)
    except ValueError:
        valid = ", ".join(m.value for m in ExecutionMode)
        raise ValueError(
            f"unknown execution mode {mode!r}; valid modes: {valid}"
        ) from None


@dataclass
class EngineOptions:
    """Knobs for the simulation engine."""

    #: Record a Chrome trace (adds overhead; off by default).
    trace: bool = False
    #: Also trace every timed op inside launch bodies, not just launches.
    detailed_trace: bool = False
    #: Error when allocations exceed a memory's declared capacity.
    strict_capacity: bool = False
    #: Coarse per-MAC cost for unlowered ``linalg`` ops (the deliberately
    #: conservative first-order model at the top of the Fig. 1 abstraction
    #: ladder: 3 reads + 1 write on a serialized SRAM + multiply + add +
    #: one addressing cycle).  Finer stages reveal the overlap this model
    #: ignores, which is why simulated runtime drops along the pipeline
    #: (Fig. 11b).
    linalg_mac_cycles: int = 7
    #: Cycles per element for ``linalg.fill``.
    fill_cycles_per_element: int = 1
    #: Stop the simulation after this many cycles (0 = unlimited).
    max_cycles: int = 0
    #: Verify the module before executing it, unless it is unchanged
    #: since it last verified (:func:`repro.ir.verifier.verified`).
    #: ``False`` trusts the module as handed over (e.g. programs served
    #: from the cross-simulation compile cache, which verify once at
    #: build time).
    verify_module: bool = True
    #: Execution path: ``interpret`` | ``plan`` | ``codegen`` (an
    #: :class:`ExecutionMode` or its string spelling; ``None`` means the
    #: default, ``resolve_execution_mode(None)`` — ``codegen``).  After
    #: construction this is always a resolved :class:`ExecutionMode`.
    mode: Union[str, ExecutionMode, None] = None
    #: Discrete-event scheduler backend: ``"wheel"`` (the tiered
    #: microtask-ring + calendar-wheel scheduler, the default) or
    #: ``"heap"`` (the classic binary-heap reference).  Both produce
    #: bit-identical simulations; the heap is kept as an escape hatch
    #: mirroring ``mode=interpret`` (see ``--scheduler`` on equeue-sim).
    scheduler: str = "wheel"
    #: Cap on retained Chrome-trace records (0 = unbounded, the
    #: historical behaviour).  Long service-mode runs with tracing on
    #: truncate the trace (``trace.dropped`` counts the overflow)
    #: instead of exhausting memory.
    trace_max_records: int = 0

    def __post_init__(self):
        self.mode = resolve_execution_mode(self.mode)


class Future:
    """A launch result that materializes when the launch completes."""

    __slots__ = ("done", "index")

    def __init__(self, done: SimEvent, index: int):
        self.done = done
        self.index = index

    @property
    def value(self):
        if not self.done.triggered:
            raise EngineError(
                "use of a launch result before the launch finished — "
                "missing await or event dependency"
            )
        returns = self.done.value
        return returns[self.index]


@dataclass
class SimulationResult:
    """Everything a simulation produces."""

    cycles: int
    summary: ProfilingSummary
    trace: TraceRecorder
    buffers: Dict[str, Buffer]
    #: True when the run stopped at ``max_cycles`` before completing.
    truncated: bool = False
    _env: Dict[Value, object] = field(default_factory=dict, repr=False)

    def buffer(self, name: str) -> np.ndarray:
        """The final contents of a named top-level buffer."""
        try:
            return self.buffers[name].array
        except KeyError:
            raise EngineError(
                f"no buffer named {name!r}; known: {sorted(self.buffers)}"
            ) from None

    def value_of(self, value: Value):
        """The runtime value bound to a top-level SSA value."""
        runtime = self._env.get(value)
        if isinstance(runtime, Future):
            return runtime.value
        return runtime


class LaunchSite:
    """What is known of one ``equeue.launch`` op — or of the members of
    one fork–join step (:func:`~repro.sim.plan.step_ops`) — before it
    runs, as the site's :attr:`issue` function: the SSA values of the
    dependencies, targets and captures, each member's label and a lone
    launch's results are the function's default arguments — and, from
    its first issue on, what each member's body runs as: its plan
    (``PlanCache.bind_site``: the site's view of its shape's plan when
    the body shares a shape), or, interpreted, its block.

    :attr:`issue` is THE definition of issuing a launch: the interpreter
    calls it through its per-op memo, a compiled plan has it as the
    step itself, a generated body calls it directly.  A lone launch is
    the group of one: a plain function that binds its done event (and
    a ``Future`` per value result).  A fork–join step is a generator
    function: every member's entry gets one :class:`_Countdown` as its
    done, and the step yields the one event that fires — no done event
    per member, no ``control_and`` and no ``await`` wait of its own.
    Its code is made once per layout, process-wide (:func:`_issue_code`):
    each distinct dependency, target and capture is read into a local
    once, and each member is what its body is entered with — the body,
    the capture values in block-argument order, and the positions that
    may hold a launch ``Future`` — with no env built.  A member whose
    target idles and whose dependency has triggered is handed to the
    target's dispatcher (:class:`_Dispatcher`); any other is enqueued
    as an :class:`EventEntry`.  Binding swaps the function's defaults
    in place, so whoever holds it from before the first issue calls the
    bound function.
    """

    __slots__ = ("ops", "keys", "issue")

    def __init__(self, *ops: Operation):
        self.ops = ops
        layout, self.keys = _layout(ops)
        unbound = [(_UNBOUND, ()) for _ in ops]
        self.issue = FunctionType(
            _issue_code(layout), globals(), "issue", self._defaults(self, unbound)
        )

    def _defaults(self, owner, members) -> tuple:
        """``members``: per op, what its body runs as and the positions
        of the captures that may hold a ``Future``."""
        ops = self.ops
        defaults = [owner, *self.keys]
        for op, (body, futures) in zip(ops, members):
            defaults += (body, op.get_attr("label") or "launch", futures)
        if len(ops) == 1:  # a lone launch: its done event, its values
            defaults += (ops[0].results[0], ops[0].results[1:])
        return tuple(defaults)

    def bind(self, plans: Optional["PlanCache"]) -> Callable:
        """Bind :attr:`issue` to what ``plans`` runs the bodies as (the
        interpreter: none, and the bodies' own blocks); returns it."""
        members = []
        for op in self.ops:
            block = op.regions[0].entry_block
            # Only a launch's value results are ever bound to a Future
            # (below, the sole constructor), so which captures can hold
            # one is known from the op alone; the dispatcher resolves
            # exactly those before the body starts.
            futures = tuple(
                position
                for position, ssa in enumerate(
                    op.operand_values[2:2 + len(block.arguments)]
                )
                if type(ssa) is OpResult
                and ssa.index
                and ssa.owner.name == "equeue.launch"
            )
            body = plans.bind_site(block) if plans else block
            members.append((body, futures))
        self.issue.__defaults__ = self._defaults(None, members)
        return self.issue


class _Countdown:
    """The ``done`` of every member of a fork–join step: the dispatcher
    counts it down as each member finishes, and the last fires
    :attr:`event`, the one event the step waits on."""

    __slots__ = ("remaining", "event")

    def __init__(self, remaining: int, event: SimEvent):
        self.remaining = remaining
        self.event = event


#: What a site's :attr:`LaunchSite.issue` holds for its body site until
#: its first issue binds it.
_UNBOUND = object()

#: Layout -> the code object of an issue function, compiled once per
#: layout process-wide, kept while a site uses it (as ``codegen._SHAPES``).
_ISSUE_CODES = weakref.WeakValueDictionary()


def _layout(ops) -> tuple:
    """``(layout, keys)`` of launch ops: ``keys`` are their distinct
    dependencies, targets and captures (the SSA values, first seen
    first, in that order), and ``layout`` — the key of their issue code
    — says per op which of each it reads, and how many there are."""
    deps, targets, captures = {}, {}, {}
    members = []
    for op in ops:
        dep, target, *values = op.operand_values
        count = len(op.regions[0].entry_block.arguments)
        members.append((
            deps.setdefault(dep, len(deps)),
            targets.setdefault(target, len(targets)),
            tuple([captures.setdefault(v, len(captures)) for v in values[:count]]),
        ))
    layout = (tuple(members), len(deps), len(targets), len(captures))
    return layout, (*deps, *targets, *captures)


def _issue_code(layout: tuple) -> CodeType:
    """The issue function of launches laid out as ``layout``: each
    dependency and target looked up as it nearly always is, and
    resolved otherwise; the captures read into locals — one missing or
    ``None`` sends them all through :func:`_capture`; each member, with
    its capture values as one tuple, handed to its target's dispatcher
    — where an enqueue would wake it — when the target idles and the
    dependency has triggered, and enqueued otherwise.  A lone launch
    binds its done event; a group's members share a :class:`_Countdown`,
    and the function yields the event it fires."""
    code = _ISSUE_CODES.get(layout)
    if code is not None:
        return code
    members, deps, targets, count = layout
    values = [f"_v{i}" for i in range(count)]
    group = len(members) > 1
    params = [
        "ex", "env", "_ls", *(f"_d{j}" for j in range(deps)),
        *(f"_t{j}" for j in range(targets)), *(f"_c{i}" for i in range(count)),
    ]
    for i in range(len(members)):
        params += (f"_s{i}", f"_l{i}", f"_f{i}")
    params += () if group else ("_done", "_values")
    rebind = "_ls.bind(ex.engine._plans)(ex, env)"
    lines = [
        f"def issue({', '.join(params)}):",
        "    if _s0 is _UNBOUND:",
        f"        return {f'(yield from {rebind})' if group else rebind}",
    ]
    for j in range(deps):
        lines += [
            f"    dep{j} = env.get(_d{j})",
            f"    if type(dep{j}) is not SimEvent:",
            f"        dep{j} = Engine._resolve(env, _d{j})",
        ]
    for j in range(targets):
        lines += [
            f"    target{j} = env.get(_t{j})",
            f"    if not isinstance(target{j}, ProcessorModel):",
            f"        target{j} = Engine._resolve(env, _t{j})",
            f"        if not isinstance(target{j}, ProcessorModel):",
            "            raise EngineError('launch target is not a processor')",
        ]
    if values:
        lines += [
            "    try:",
            *(f"        {v} = env[_c{i}]" for i, v in enumerate(values)),
            f"        if {' is None or '.join(values)} is None:",
            "            raise KeyError",
            "    except KeyError:",
            *(f"        {v} = _capture(ex, env, _c{i})" for i, v in enumerate(values)),
        ]
    lines += ["    done = SimEvent(ex.sim, 'launch.done')", "    soon = ex._soon"]
    if group:
        lines.append(f"    done, join = _Countdown({len(members)}, done), done")
    for i, (dep, target, captures) in enumerate(members):
        launch = f"_s{i}, ({''.join(f'_v{c}, ' for c in captures)}), _f{i}"
        lines += [
            f"    idle = target{target}.wake",
            f"    if idle is not None and dep{dep}.triggered:",
            f"        target{target}.wake = None",
            f"        idle.launch = ({launch}, done, _l{i})",
            "        soon(idle._begin)",
            "    else:",
            f"        target{target}.enqueue(EventEntry('launch', dep{dep}, "
            f"done, ({launch}), _l{i}))",
        ]
    if group:
        lines.append("    yield join")
    else:
        lines += [
            "    env[_done] = done",
            "    if _values:",
            "        for index, result in enumerate(_values):",
            "            env[result] = Future(done, index)",
        ]
    source = "\n".join(lines) + "\n"
    module = compile(source, f"<launch-issue-{len(members)}>", "exec")
    code = _ISSUE_CODES[layout] = next(
        c for c in module.co_consts if isinstance(c, CodeType)
    )
    return code


def _resolved(values: tuple, futures: tuple) -> tuple:
    """``values`` with the launch results at ``futures`` resolved (the
    entry's dependency guarantees each has finished)."""
    values = list(values)
    for position in futures:
        if type(values[position]) is Future:
            values[position] = values[position].value
    return tuple(values)


def _capture(ex, env, ssa):
    """A captured value an issue did not find bound in ``env`` (or
    found ``None``): the engine's env has top-level values."""
    value = env.get(ssa)
    if value is None:
        value = ex.engine.env.get(ssa)
        if value is None:
            raise EngineError(f"unbound captured value {ssa!r}")
    return value


class _Dispatcher(Process):
    """One processor's event-queue loop — the paper's four stages: set
    up the entry, check the queue head, schedule, finish — as plain
    scheduler callbacks.

    :meth:`begin` is the one definition of starting what runs on the
    processor (stage 3) and :meth:`dispatch` of finishing it (stage 4),
    after which it sets up and checks the queue head (stages 1 and 2)
    and begins each entry that is ready, for as long as their bodies
    complete in no time — a loop, so thousands of zero-cycle bodies
    queued on one processor run iteratively.  A launch carries what its
    body runs as — a plan, or interpreted, its block — and its capture
    values: a generated body is called with them as its arguments, the
    plan tier and the interpreter get the env
    :func:`~repro.sim.plan.entry_env` builds of them.

    A launch issued onto the idle processor (:attr:`ProcessorModel.wake`
    holds this object) whose dependency has triggered is the queue head
    the moment it arrives: the issue hands it over as :attr:`launch`,
    with no :class:`EventEntry`, and puts :meth:`begin` on the microtask
    ring where an enqueue would have put :meth:`dispatch` — the *begin*
    callback.  A busy processor, an untriggered dependency, a memcpy and
    the top block take the queue; what lands on it while a handed launch
    waits to begin or runs is dispatched when that launch finishes.
    :meth:`dispatch` is on the scheduler when an entry lands on the idle
    processor (``ProcessorModel.enqueue`` calls :meth:`__call__`), once
    at start, when the head entry's dependency triggers, and as the
    *finish* callback once the cycles a body left pending have elapsed;
    a body done at once is finished inside :meth:`begin`.  Finishing
    counts a fork–join step's :class:`_Countdown` down in place.  Each
    of these is one callback where an enqueued launch had one, at the
    same point, so event counts and ring order are those of the queue.

    A body that really suspends — a suspending generated body, an
    inline one or a plan that hit a contended access, a non-inlineable
    plan, an interpreted block, a memcpy — is a generator, driven by
    the :class:`Process` this object also is: its requests go through
    ``Process._handle`` and its resumes are ``Process._tick``
    callbacks, one per request as under any process.  When it ends,
    :meth:`_finished` hands its value back to :meth:`dispatch`.  A
    generator that ends at its first ``send`` is done at once.

    It is also the execution state bodies run against (``ex`` in the
    handlers, plan steps and generated code): the processor and the
    pending-cycles accumulator, which every body leaves at zero.
    """

    __slots__ = (
        "engine", "proc", "pending", "plans", "trace", "launch", "done",
        "label", "start", "returns", "_begin", "_dispatch", "_on_dep",
    )

    def __init__(self, engine: "Engine", proc: ProcessorModel):
        super().__init__(engine.sim, None, f"loop:{proc.name}")
        self.engine = engine
        self.proc = proc
        self.pending = 0
        self.plans = engine._plans
        self.trace = engine.trace if engine.options.trace else None
        #: What :meth:`begin` begins: a launch's body, capture values,
        #: ``Future`` positions, done and label (a memcpy or the top
        #: block: ``None``, its entry, ``None``, done and label).
        self.launch: Optional[tuple] = None
        #: While a callback that finishes it is outstanding: the done,
        #: label and start cycle of what runs, and what its body returned.
        self.done: Union[SimEvent, _Countdown, None] = None
        self.label = ""
        self.start = 0
        self.returns: object = _NO_RETURNS
        self._begin = self.begin
        self._dispatch = self.dispatch
        self._on_dep = self._dep_triggered

    def __call__(self) -> None:
        """Wake the idle processor: an entry landed on its queue."""
        self._soon(self._dispatch)

    def _dep_triggered(self, _event: SimEvent) -> None:
        self._soon(self._dispatch)

    def _finished(self, returns) -> None:
        """The suspended body of what runs ran to its end."""
        self.generator = None
        self.returns = _NO_RETURNS if returns is None else returns
        pending = self.pending
        if pending:
            self.pending = 0
            self.sim.schedule_bucket(pending, self._dispatch)
        else:
            self.dispatch()

    def begin(self, looped: bool = False) -> bool:
        """Stage 3: begin :attr:`launch` — the begin callback of a launch
        handed over at issue, and what :meth:`dispatch` calls
        (``looped``) for a queued entry.  A body that suspends is driven
        from here on; one that leaves cycles pending is finished by
        :meth:`dispatch` once they have elapsed; one done at once is
        finished by the loop that called it, or here.  True when it is
        done and its caller finishes it."""
        body, values, futures, self.done, self.label = self.launch
        self.launch = None
        sim = self.sim
        self.start = sim.now
        plans = self.plans
        if body is None:  # a memcpy or the top block: ``values`` is the entry
            suspended = self._run_entry(values)
        else:
            # What the body runs as and its capture values were bound
            # when the launch was issued; only captured launch results
            # are left to resolve.
            if futures:
                values = _resolved(values, futures)
            if plans is None:
                suspended = self.engine._run_block(
                    self, body, entry_env(None, body.arguments, values)
                )
            elif body.compiled is not None:
                # A hot body whose generated code never suspends
                # completes without a generator frame.
                suspended = body.compiled(self, *values)
            else:
                suspended = _cold_run(
                    body, self,
                    entry_env(body.site, body.block.arguments, values),
                    values,
                )
        self.returns = _NO_RETURNS
        if suspended is not None:
            try:
                request = suspended.send(None)
            except StopIteration as stop:
                if stop.value is not None:
                    self.returns = stop.value
            else:
                self.generator = suspended
                self._handle(request)
                return False
        pending = self.pending
        if pending:
            # The trailing flush: it ends when the cycles its body
            # accumulated have elapsed.
            self.pending = 0
            sim.schedule_bucket(pending, self._dispatch)
            return False
        if looped:
            return True
        self.dispatch()
        return False

    def dispatch(self) -> None:
        """Stage 4 — finish what ran, if anything — then stages 1 and 2
        for as long as queued entries are ready and done at once."""
        proc = self.proc
        while True:
            done = self.done
            if done is not None:
                self.done = None
                now = self.sim.now
                start = self.start
                proc.busy_cycles += now - start
                proc.executed_events += 1
                if self.trace is not None:
                    self.trace.record(
                        self.label, "operation", "Processor", proc.path,
                        start, now - start,
                    )
                if type(done) is _Countdown:
                    done.remaining -= 1
                    if not done.remaining:
                        done.event.trigger()
                else:
                    done.trigger(self.returns)
            queue = proc.queue
            if not queue:
                proc.wake = self
                return
            entry = queue[0]
            dep = entry.dep
            if not dep.triggered:
                dep.on_trigger(self._on_dep)
                return
            queue.popleft()
            if entry.kind == "launch":
                self.launch = (*entry.payload, entry.done, entry.label)
            else:
                self.launch = (
                    None, entry, None, entry.done, entry.label or entry.kind
                )
            if not self.begin(True):
                return

    def _run_entry(self, entry: EventEntry):
        """Start a queued entry that is not a launch: a memcpy, or the
        top block — which runs in the engine env, so top-level bindings
        persist into the result."""
        if entry.kind == "memcpy":
            return self.engine._exec_memcpy(entry)
        block, env = entry.payload
        if self.plans is None:
            return self.engine._run_block(self, block, env)
        return self.plans.plan_for(block).execute(self, env)


_STRUCTURE_OPS = frozenset(
    {
        "equeue.create_proc",
        "equeue.create_mem",
        "equeue.create_dma",
        "equeue.create_comp",
        "equeue.add_comp",
        "equeue.create_connection",
    }
)


def _unstalled(memory, conn, mem_cycles, nbytes, is_write):
    """Charge an access that stalls nothing: one that costs no cycles,
    or a posted (prefetched) one — it charges the resources, so busy time
    and bandwidth statistics stay honest, without stalling the issuing
    processor (double-buffered edge registers)."""
    if mem_cycles and memory.queue is not None:
        memory.queue.posted_busy_cycles += mem_cycles
    if conn is not None:
        transfer = conn.transfer_cycles(nbytes)
        conn.record(nbytes, transfer, is_write=is_write)
        queue = conn.write_queue if is_write else conn.read_queue
        if transfer and queue is not None:
            queue.posted_busy_cycles += transfer


#: Ops whose handlers read or publish global simulation time and therefore
#: require the locally-accumulated cycles to be flushed first.
_NEEDS_FLUSH = frozenset(
    {
        "equeue.launch",
        "equeue.memcpy",
        "equeue.read",
        "equeue.write",
        "equeue.await",
        "equeue.control_start",
        "equeue.control_and",
        "equeue.control_or",
        "affine.load",
        "affine.store",
        "memref.load",
        "memref.store",
    }
)


class Engine:
    """Executes one EQueue module."""

    def __init__(
        self,
        module: ModuleOp,
        options: Optional[EngineOptions] = None,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        plan_cache: Optional["PlanCache"] = None,
    ):
        self.module = module
        self.options = options or EngineOptions()
        self.inputs = dict(inputs or {})
        self.sim = make_simulator(self.options.scheduler)
        self.env: Dict[Value, object] = {}
        self.processors: List[ProcessorModel] = []
        self.memories: List[MemoryModel] = []
        self.connections: List[ConnectionModel] = []
        self.buffers: Dict[str, Buffer] = {}
        self.trace = TraceRecorder(
            enabled=self.options.trace,
            max_records=self.options.trace_max_records or None,
        )
        self._elaborated: set = set()
        self._name_counter = 0
        self._ideal_memory: Optional[MemoryModel] = None
        self._handlers: Dict[str, Callable] = self._build_handler_table()
        # Memoized per-op static facts (attributes don't change during
        # simulation); keyed by id(op).  This matters because interpreted
        # loops execute the same ops millions of times.
        self._static: Dict[int, tuple] = {}
        if self.options.mode is not ExecutionMode.INTERPRET:
            # An externally provided cache makes compilation survive this
            # engine: plans compiled here replay in later engines that
            # attach the same cache (see repro.sim.batch).  Attachment is
            # deferred to run() so constructing several engines on one
            # cache never re-points it under an engine that is about to
            # execute; the summary reports per-run counter deltas against
            # the run-start snapshot.
            self._plans: Optional["PlanCache"] = (
                plan_cache if plan_cache is not None else PlanCache()
            )
        else:
            self._plans = None
        self._plan_base = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        try:
            return self._run()
        finally:
            if self._plans is not None:
                self._plans.detach()

    def _run(self) -> SimulationResult:
        started = _time.perf_counter()
        if self._plans is not None:
            self._plans.attach(self)
            self._plan_base = self._plans.counters()
        if self.options.verify_module and not verified(self.module):
            with _span("engine.verify"):
                verify(self.module)
        with _span("engine.elaborate"):
            self._elaborate()
        for name, data in self.inputs.items():
            if name not in self.buffers:
                raise EngineError(
                    f"input {name!r} does not match any buffer; "
                    f"known: {sorted(self.buffers)}"
                )
            target = self.buffers[name].array
            target[...] = np.asarray(data).reshape(target.shape)
        host = self._make_processor("host", "Host")
        top_dep = self.sim.event("top.start")
        top_dep.trigger(None)
        top_done = self.sim.event("top.done")
        entry = EventEntry(
            kind="top",
            dep=top_dep,
            done=top_done,
            # The top block shares the engine env so top-level results
            # (e.g. awaited launch returns) are observable afterwards.
            payload=(self.module.body, self.env),
            label="top",
        )
        host.enqueue(entry)
        for proc in self.processors:
            self.sim.schedule_soon(_Dispatcher(self, proc).dispatch)
        until = self.options.max_cycles or None
        with _span("engine.des_run", mode=self.options.mode.value):
            self.sim.run(until=until)
        truncated = until is not None and not top_done.triggered
        if not truncated:
            self._check_deadlock()
        elapsed = _time.perf_counter() - started
        cycles = self.sim.now
        summary = self._build_summary(elapsed, cycles)
        self._record_metrics(summary)
        return SimulationResult(
            cycles=cycles,
            summary=summary,
            trace=self.trace,
            buffers=dict(self.buffers),
            truncated=truncated,
            _env=self.env,
        )

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------

    def _elaborate(self) -> None:
        for op in self.module.body.ops:
            if op.name in _STRUCTURE_OPS or op.name in (
                "equeue.alloc",
                "equeue.get_comp",
                "arith.constant",
            ):
                self._elaborate_op(op)

    def _elaborate_op(self, op: Operation) -> None:
        name = op.name
        if name == "equeue.create_proc":
            proc = self._make_processor(self._hint(op, "proc"), op.get_attr("kind"))
            self.env[op.result()] = proc
        elif name == "equeue.create_mem":
            self.env[op.result()] = self._make_memory(op)
        elif name == "equeue.create_dma":
            dma = DMAModel(self._hint(op, "dma"))
            self.processors.append(dma)
            self.env[op.result()] = dma
        elif name == "equeue.create_comp":
            group = ComponentGroup(self._hint(op, "comp"))
            for comp_name, operand in zip(op.names, op.operand_values):
                group.add(comp_name, self._value_of(operand))
            self.env[op.result()] = group
        elif name == "equeue.add_comp":
            group = self._value_of(op.operand(0))
            if not isinstance(group, ComponentGroup):
                raise EngineError("add_comp target is not a composite component")
            for comp_name, operand in zip(op.names, op.operand_values[1:]):
                group.add(comp_name, self._value_of(operand))
        elif name == "equeue.get_comp":
            group = self._value_of(op.operand(0))
            self.env[op.result()] = group.lookup(self._comp_path(op, self.env))
        elif name == "equeue.create_connection":
            conn = ConnectionModel(
                self._hint(op, "conn"),
                op.get_attr("kind"),
                op.get_attr("bandwidth", 0),
            )
            conn.attach(self.sim)
            self.connections.append(conn)
            self.env[op.result()] = conn
        elif name == "equeue.alloc":
            self.env[op.result()] = self._make_buffer(op)
        elif name == "arith.constant":
            self.env[op.result()] = op.get_attr("value")
        else:  # pragma: no cover - guarded by caller
            raise EngineError(f"cannot elaborate {name}")
        self._elaborated.add(id(op))

    def _make_processor(self, name: str, kind: str) -> ProcessorModel:
        proc = ProcessorModel(name, kind)
        self.processors.append(proc)
        return proc

    def _make_memory(self, op: Operation) -> MemoryModel:
        kind = op.get_attr("kind")
        spec = memory_spec(kind)
        name = self._hint(op, "mem")
        size = op.get_attr("size")
        data_bits = op.get_attr("data_bits")
        banks = op.get_attr("banks", 1)
        ports = op.get_attr("ports", 1)
        if spec.factory is not None:
            memory = spec.factory(name, size, data_bits, banks, ports)
        else:
            memory = MemoryModel(name, kind, size, data_bits, banks, ports)
        memory.attach(self.sim)
        self.memories.append(memory)
        return memory

    def _make_buffer(self, op: Operation) -> Buffer:
        memory = self._value_of(op.operand(0))
        if not isinstance(memory, MemoryModel):
            raise EngineError("equeue.alloc target is not a memory")
        buffer_type: MemRefType = op.result().type
        dtype = interp.numpy_dtype_for(buffer_type.element_type)
        bits = getattr(buffer_type.element_type, "width", 32)
        name = self._hint(op, "buffer")
        buffer = Buffer(
            name,
            memory,
            tuple(buffer_type.shape),
            dtype,
            bits,
            base_address=memory.allocated_elements,
        )
        memory.allocate(buffer.num_elements, strict=self.options.strict_capacity)
        self.buffers[name] = buffer
        return buffer

    def _hint(self, op: Operation, default: str) -> str:
        if op.results and op.results[0].name_hint:
            return op.results[0].name_hint
        label = op.get_attr("label")
        if label:
            return label
        self._name_counter += 1
        return f"{default}{self._name_counter}"

    @property
    def launches_executed(self) -> int:
        """Total processor-queue entries executed (launches + memcpys).

        Derived from the per-processor counters instead of a separate
        engine-level increment in the hot entry loop.
        """
        return sum(proc.executed_events for proc in self.processors)

    @property
    def ideal_memory(self) -> MemoryModel:
        """Backing store for plain ``memref`` buffers (zero-latency)."""
        if self._ideal_memory is None:
            try:
                memory_spec("Ideal")
            except Exception:
                register_memory_kind("Ideal", MemorySpec(cycles_per_access=0))
            self._ideal_memory = MemoryModel(
                "ideal", "Ideal", size=1 << 62, data_bits=32, banks=1, ports=1
            )
            self._ideal_memory.attach(self.sim)
            self.memories.append(self._ideal_memory)
        return self._ideal_memory

    # ------------------------------------------------------------------
    # Queue entries that are not launches
    # ------------------------------------------------------------------

    def _exec_memcpy(self, entry: EventEntry):
        source, destination, conn, src_offset, dst_offset, count = entry.payload
        if isinstance(source, Future):
            source = source.value
        if isinstance(destination, Future):
            destination = destination.value
        elements = count if count is not None else source.num_elements
        nbytes = elements * source.element_bits // 8
        now = self.sim.now
        read_cycles = source.memory.access_cycles(
            elements, False, source.base_address + (src_offset or 0)
        )
        write_cycles = destination.memory.access_cycles(
            elements, True, destination.base_address + (dst_offset or 0)
        )
        end = now
        if read_cycles and source.memory.queue is not None:
            _, end_r = source.memory.queue.book(read_cycles)
            end = max(end, end_r)
        if conn is not None:
            transfer = conn.transfer_cycles(nbytes)
            if transfer and conn.write_queue is not None:
                _, end_c = conn.write_queue.book(transfer, at=now)
                end = max(end, end_c)
            conn.record(nbytes, transfer, is_write=True)
            conn.record(nbytes, transfer, is_write=False)
        if write_cycles and destination.memory.queue is not None:
            _, end_w = destination.memory.queue.book(write_cycles)
            end = max(end, end_w)
        source.memory.record_read(nbytes)
        destination.memory.record_write(nbytes)
        duration = end - now
        if duration:
            yield duration
        # Functional effect: copy (shapes may differ; flat slice semantics).
        src_flat = source.array.ravel()
        dst_flat = destination.array.ravel()
        src_base = src_offset or 0
        dst_base = dst_offset or 0
        dst_flat[dst_base : dst_base + elements] = src_flat[
            src_base : src_base + elements
        ]
        return []

    # ------------------------------------------------------------------
    # Block execution
    # ------------------------------------------------------------------

    def _run_block(self, ex: _Dispatcher, block, env: Dict[Value, object]):
        """Execute a block's ops; returns the terminator's operand values."""
        returns: List[object] = []
        for op in block.ops:
            name = op.name
            if name == "equeue.return_values":
                yield from self._flush(ex)
                returns = [self._resolve(env, v) for v in op.operand_values]
                break
            if name in ("affine.yield", "scf.yield"):
                break
            handler = self._handlers.get(name)
            if handler is None:
                raise EngineError(f"no simulation handler for op {name!r}")
            result = handler(ex, op, env)
            if result is None:
                continue
            if isinstance(result, int):
                if self.options.trace and self.options.detailed_trace and result:
                    self.trace.record(
                        op.get_attr("signature", name),
                        "operation",
                        "Processor",
                        ex.proc.path,
                        self.sim.now + ex.pending,
                        result,
                    )
                ex.pending += result
                continue
            # Generator handler.  Ops that observe or publish global time
            # (events, queue bookings) need the pending cycles flushed
            # first; structured control flow does not — its inner ops flush
            # themselves on demand.
            if name in _NEEDS_FLUSH:
                yield from self._flush(ex)
            yield from result
        return returns

    def _flush(self, ex: _Dispatcher):
        if ex.pending:
            pending, ex.pending = ex.pending, 0
            yield pending

    # ------------------------------------------------------------------
    # Value plumbing
    # ------------------------------------------------------------------

    def _value_of(self, value: Value):
        try:
            runtime = self.env[value]
        except KeyError:
            raise EngineError(
                f"value {value!r} has no runtime binding (is the module "
                "structured with all components at top level?)"
            ) from None
        return runtime

    @staticmethod
    def _resolve(env: Dict[Value, object], value: Value):
        try:
            runtime = env[value]
        except KeyError:
            raise EngineError(f"unbound SSA value {value!r} during simulation")
        if isinstance(runtime, Future):
            return runtime.value
        return runtime

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _build_handler_table(self) -> Dict[str, Callable]:
        table: Dict[str, Callable] = {
            "arith.constant": self._h_constant,
            "arith.cmpi": self._h_arith,
            "arith.select": self._h_arith,
            "arith.index_cast": self._h_arith,
            "equeue.control_start": self._h_control_start,
            "equeue.control_and": self._h_control_and,
            "equeue.control_or": self._h_control_or,
            "equeue.await": self._h_await,
            "equeue.launch": self._h_launch,
            "equeue.memcpy": self._h_memcpy,
            "equeue.read": self._h_read,
            "equeue.write": self._h_write,
            "equeue.alloc": self._h_alloc_runtime,
            "equeue.dealloc": self._h_dealloc,
            "equeue.get_comp": self._h_get_comp_runtime,
            "equeue.op": self._h_external_op,
            "affine.for": self._h_for,
            "affine.parallel": self._h_parallel,
            "scf.if": self._h_if,
            "affine.load": self._h_memref_load,
            "affine.store": self._h_memref_store,
            "memref.alloc": self._h_memref_alloc,
            "memref.dealloc": self._h_dealloc,
            "memref.load": self._h_memref_load,
            "memref.store": self._h_memref_store,
            "memref.copy": self._h_memref_copy,
            "linalg.conv2d": self._h_conv2d,
            "linalg.matmul": self._h_matmul,
            "linalg.fill": self._h_fill,
        }
        for arith_name in (
            "arith.addi", "arith.subi", "arith.muli", "arith.divsi",
            "arith.remsi", "arith.addf", "arith.subf", "arith.mulf",
            "arith.divf", "arith.maxsi", "arith.minsi", "arith.andi",
            "arith.ori", "arith.xori", "arith.shli", "arith.shrsi",
        ):
            table[arith_name] = self._h_arith
        for structure_name in _STRUCTURE_OPS:
            table[structure_name] = self._h_structure_noop
        return table

    # -- structure ops encountered during execution -------------------------

    def _h_structure_noop(self, ex, op, env):
        if id(op) not in self._elaborated:
            raise EngineError(
                f"{op.name} must appear at module top level (found inside a "
                "launch body)"
            )
        return 0

    def _h_alloc_runtime(self, ex, op, env):
        if id(op) not in self._elaborated:
            self._elaborate_op(op)
        env[op.result()] = self.env[op.result()]
        return 0

    def _h_get_comp_runtime(self, ex, op, env):
        if id(op) in self._elaborated:
            env[op.result()] = self.env[op.result()]
            return 0
        group = self._resolve(env, op.operand(0))
        env[op.result()] = group.lookup(self._comp_path(op, env))
        return 0

    def _comp_path(self, op, env) -> str:
        """Resolve a get_comp name, expanding vector-form templates."""
        template = op.get_attr("name_template")
        if template is None:
            return op.get_attr("name")
        indices = [int(self._resolve(env, v)) for v in op.operand_values[1:]]
        return template.format(*indices)

    # -- arithmetic -----------------------------------------------------------

    def _h_constant(self, ex, op, env):
        cached = self._static.get(id(op))
        if cached is None:
            cached = (op.result(), op.get_attr("value"))
            self._static[id(op)] = cached
        env[cached[0]] = cached[1]
        return 0

    def _h_arith(self, ex, op, env):
        cached = self._static.get(id(op))
        if cached is None:
            attrs = {k: attr_to_python(v) for k, v in op.attributes.items()}
            is_free = (
                isinstance(op.result().type, IndexType)
                or any(
                    isinstance(v.type, IndexType) for v in op.operand_values
                )
                or op.name == "arith.index_cast"
            )
            operand_ssa = tuple(o.value for o in op.operands)
            cached = (attrs, is_free, op.result(), operand_ssa, op.name)
            self._static[id(op)] = cached
        attrs, is_free, result_ssa, operand_ssa, name = cached
        operands = [self._resolve(env, v) for v in operand_ssa]
        env[result_ssa] = interp.evaluate_arith(name, operands, attrs)
        return 0 if is_free else ex.proc.spec.arith_cycles

    # -- events -----------------------------------------------------------------

    def _control_start_impl(self, ex, op, env):
        event = self.sim.event("control_start")
        event.trigger(None)
        env[op.result()] = event

    def _h_control_start(self, ex, op, env):
        def gen():
            self._control_start_impl(ex, op, env)
            return
            yield  # pragma: no cover

        return gen()

    def _control_and_impl(self, ex, op, env):
        deps = [self._resolve(env, v) for v in op.operand_values]
        env[op.result()] = all_of(self.sim, deps, "control_and")

    def _h_control_and(self, ex, op, env):
        def gen():
            self._control_and_impl(ex, op, env)
            return
            yield  # pragma: no cover

        return gen()

    def _control_or_impl(self, ex, op, env):
        deps = [self._resolve(env, v) for v in op.operand_values]
        env[op.result()] = any_of(self.sim, deps, "control_or")

    def _h_control_or(self, ex, op, env):
        def gen():
            self._control_or_impl(ex, op, env)
            return
            yield  # pragma: no cover

        return gen()

    def _h_await(self, ex, op, env):
        def gen():
            deps = [self._resolve(env, v) for v in op.operand_values]
            pending = [d for d in deps if not d.triggered]
            if pending:
                yield AllOf(pending)

        return gen()

    # -- launch / memcpy -----------------------------------------------------------

    def _h_launch(self, ex, op, env):
        site = self._static.get(id(op))
        if site is None:
            site = self._static[id(op)] = LaunchSite(op)

        def gen():
            site.issue(ex, env)
            return
            yield  # pragma: no cover

        return gen()

    def _memcpy_impl(self, ex, op, env):
        dep = self._resolve(env, op.operand(0))
        source = env.get(op.operand(1), self.env.get(op.operand(1)))
        destination = env.get(op.operand(2), self.env.get(op.operand(2)))
        dma = self._resolve(env, op.operand(3))
        conn = (
            self._resolve(env, op.operand(4))
            if op.get_attr("connected", False)
            else None
        )
        src_offset = dst_offset = None
        count = None
        if op.get_attr("offset_operands", False):
            offset_values = op.offsets
            src_offset = int(self._resolve(env, offset_values[0]))
            dst_offset = int(self._resolve(env, offset_values[1]))
            count = op.get_attr("count")
        if not isinstance(dma, ProcessorModel):
            raise EngineError("memcpy executor is not a DMA/processor")
        done = self.sim.event("memcpy.done")
        entry = EventEntry(
            kind="memcpy",
            dep=dep,
            done=done,
            payload=(source, destination, conn, src_offset, dst_offset, count),
            label=op.get_attr("label", "memcpy"),
        )
        dma.enqueue(entry)
        env[op.result()] = done

    def _h_memcpy(self, ex, op, env):
        def gen():
            self._memcpy_impl(ex, op, env)
            return
            yield  # pragma: no cover

        return gen()

    # -- reads and writes --------------------------------------------------------------

    def _linear_index(self, buffer: Buffer, indices: Sequence[int]) -> int:
        if not indices:
            return buffer.base_address
        strides = buffer.element_strides
        offset = buffer.base_address
        for i, stride in zip(indices, strides):
            offset += int(i) * stride
        return offset

    def _read_write_static(self, op, leading: int):
        """Memoized operand decomposition for read/write ops."""
        cached = self._static.get(id(op))
        if cached is None:
            connected = bool(op.get_attr("connected", False))
            posted = bool(op.get_attr("posted", False))
            values = op.operand_values
            buffer_ssa = values[leading - 1]
            conn_ssa = values[leading] if connected else None
            index_start = leading + (1 if connected else 0)
            indices_ssa = tuple(values[index_start:])
            cached = (posted, buffer_ssa, conn_ssa, indices_ssa)
            self._static[id(op)] = cached
        return cached

    def _h_read(self, ex, op, env):
        posted, buffer_ssa, conn_ssa, indices_ssa = self._read_write_static(
            op, 1
        )
        buffer = self._resolve(env, buffer_ssa)
        conn = self._resolve(env, conn_ssa) if conn_ssa is not None else None
        indices = [self._resolve(env, v) for v in indices_ssa]
        if indices:
            value = buffer.array[tuple(int(i) for i in indices)]
            if isinstance(value, np.ndarray):
                value = value.copy()
                elements = int(value.size)
            else:
                value = value.item() if hasattr(value, "item") else value
                elements = 1
            nbytes = elements * buffer.element_bits // 8
        else:
            elements = buffer.num_elements
            value = buffer.array.copy()
            nbytes = buffer.nbytes
        buffer.memory.record_read(nbytes)
        address = self._linear_index(buffer, indices)
        mem_cycles = buffer.memory.access_cycles(elements, False, address)
        env[op.result()] = value
        if posted or mem_cycles == 0 and (conn is None or conn.bandwidth <= 0):
            if mem_cycles or conn is not None:  # something to charge
                _unstalled(buffer.memory, conn, mem_cycles, nbytes, False)
            return 0
        wait = _blocked_read(buffer.memory.queue, mem_cycles, conn, nbytes)
        if self.options.trace and self.options.detailed_trace:
            return self._traced_wait("read", ex, wait)
        return wait

    def _h_write(self, ex, op, env):
        posted, buffer_ssa, conn_ssa, indices_ssa = self._read_write_static(
            op, 2
        )
        value = self._resolve(env, op.operands[0].value)
        buffer = self._resolve(env, buffer_ssa)
        conn = self._resolve(env, conn_ssa) if conn_ssa is not None else None
        indices = [self._resolve(env, v) for v in indices_ssa]
        array = buffer.array
        if indices:
            target = tuple(int(i) for i in indices)
            remaining = array.shape[len(indices):]
            elements = int(np.prod(remaining)) if remaining else 1
            nbytes = elements * buffer.element_bits // 8
            if isinstance(value, np.ndarray):
                value = value.reshape(array[target].shape)
        else:
            target = Ellipsis
            elements = buffer.num_elements
            nbytes = buffer.nbytes
            if isinstance(value, np.ndarray):
                array, target, value = array.ravel(), slice(None), value.ravel()
        buffer.memory.record_write(nbytes)
        address = self._linear_index(buffer, indices)
        mem_cycles = buffer.memory.access_cycles(elements, True, address)
        if posted or mem_cycles == 0 and (conn is None or conn.bandwidth <= 0):
            if mem_cycles or conn is not None:  # something to charge
                _unstalled(buffer.memory, conn, mem_cycles, nbytes, True)
            array[target] = value
            return 0
        wait = _blocked_write(
            buffer.memory.queue, mem_cycles, conn, nbytes, array, target, value
        )
        if self.options.trace and self.options.detailed_trace:
            return self._traced_wait("write", ex, wait)
        return wait

    def _traced_wait(self, name, ex, wait):
        """A blocked access's ``wait``, leaving the detailed trace's record
        of it."""
        now = self.sim.now
        for cycles in wait:
            self.trace.record(
                name, "operation", "Processor", ex.proc.path, now, cycles
            )
            yield cycles

    def _h_dealloc(self, ex, op, env):
        buffer = self._resolve(env, op.operand(0))
        if isinstance(buffer, Buffer):
            buffer.memory.deallocate(buffer.num_elements)
        return 0

    # -- external ops -------------------------------------------------------------------

    def _h_external_op(self, ex, op, env):
        cached = self._static.get(id(op))
        if cached is None:
            op_function = oplib.lookup(op.get_attr("signature"))
            cached = (
                op_function,
                tuple(o.value for o in op.operands),
                tuple(op.results),
            )
            self._static[id(op)] = cached
        op_function, operand_ssa, result_ssa = cached
        operands = [self._resolve(env, v) for v in operand_ssa]
        results = op_function.func(*operands)
        results = oplib.first_results(results, len(result_ssa))
        env.update(zip(result_ssa, results))
        return op_function.cycle_count(operands)

    # -- loops ------------------------------------------------------------------------------

    def _h_for(self, ex, op: ForOp, env):
        body = op.regions[0].entry_block
        induction = body.arguments[0]

        def gen():
            for i in range(op.lower_bound, op.upper_bound, op.step):
                env[induction] = i
                yield from self._run_block(ex, body, env)

        return gen()

    def _h_if(self, ex, op, env):
        cond = self._resolve(env, op.operand(0))
        taken = bool(int(cond)) if not isinstance(cond, np.ndarray) else bool(
            cond.any()
        )
        block = None
        if taken:
            block = op.regions[0].entry_block
        elif len(op.regions) == 2:
            block = op.regions[1].entry_block
        if block is None or not block.ops:
            return 0

        def gen():
            yield from self._run_block(ex, block, env)

        return gen()

    def _h_parallel(self, ex, op: ParallelOp, env):
        # Unlowered affine.parallel executes sequentially on the current
        # processor; --parallel-to-equeue turns it into concurrent launches.
        body = op.regions[0].entry_block
        args = body.arguments
        ranges = op.ranges

        def gen():
            spaces = [range(lb, ub, st) for lb, ub, st in ranges]
            for point in itertools.product(*spaces):
                for arg, coordinate in zip(args, point):
                    env[arg] = coordinate
                yield from self._run_block(ex, body, env)

        return gen()

    # -- ideal memref ops ----------------------------------------------------------------------

    def _h_memref_alloc(self, ex, op, env):
        buffer_type: MemRefType = op.result().type
        dtype = interp.numpy_dtype_for(buffer_type.element_type)
        bits = getattr(buffer_type.element_type, "width", 32)
        name = self._hint(op, "ideal_buf")
        buffer = Buffer(
            name, self.ideal_memory, tuple(buffer_type.shape), dtype, bits
        )
        self.buffers.setdefault(name, buffer)
        env[op.result()] = buffer
        return 0

    def _h_memref_load(self, ex, op, env):
        buffer = self._resolve(env, op.operand(0))
        indices = tuple(int(self._resolve(env, v)) for v in op.operand_values[1:])
        value = buffer.array[indices]
        env[op.result()] = value.item() if hasattr(value, "item") else value
        buffer.memory.record_read(buffer.element_bits // 8)
        cycles = buffer.memory.access_cycles(1, False, self._linear_index(buffer, indices))
        return cycles and _blocked_read(buffer.memory.queue, cycles, None, 0)

    def _h_memref_store(self, ex, op, env):
        value = self._resolve(env, op.operand(0))
        buffer = self._resolve(env, op.operand(1))
        indices = tuple(int(self._resolve(env, v)) for v in op.operand_values[2:])
        buffer.array[indices] = value
        buffer.memory.record_write(buffer.element_bits // 8)
        cycles = buffer.memory.access_cycles(1, True, self._linear_index(buffer, indices))
        # Stored before the flush: what waits is the memory's booking
        # alone, the same as a load's.
        return cycles and _blocked_read(buffer.memory.queue, cycles, None, 0)

    def _h_memref_copy(self, ex, op, env):
        source = self._resolve(env, op.operand(0))
        destination = self._resolve(env, op.operand(1))
        destination.array[...] = source.array
        source.memory.record_read(source.nbytes)
        destination.memory.record_write(destination.nbytes)
        return 0

    # -- linalg (coarse models) ----------------------------------------------------------------

    def _h_conv2d(self, ex, op, env):
        from ..dialects.linalg import Conv2DOp

        assert isinstance(op, Conv2DOp)
        ifmap = self._resolve(env, op.operand(0))
        weight = self._resolve(env, op.operand(1))
        ofmap = self._resolve(env, op.operand(2))
        dims = op.conv_dims
        result = _conv2d_reference(ifmap.array, weight.array)
        ofmap.array[...] = ofmap.array + result
        element_bytes = ifmap.element_bits // 8
        # Coarse traffic model: every MAC touches ifmap, weight, and the
        # output partial sum (read + write).
        ifmap.memory.record_read(dims.macs * element_bytes)
        weight.memory.record_read(dims.macs * element_bytes)
        ofmap.memory.record_read(dims.macs * element_bytes)
        ofmap.memory.record_write(dims.macs * element_bytes)
        return dims.macs * self.options.linalg_mac_cycles

    def _h_matmul(self, ex, op, env):
        a = self._resolve(env, op.operand(0))
        b = self._resolve(env, op.operand(1))
        c = self._resolve(env, op.operand(2))
        c.array[...] = c.array + a.array @ b.array
        macs = a.array.shape[0] * a.array.shape[1] * b.array.shape[1]
        element_bytes = a.element_bits // 8
        a.memory.record_read(macs * element_bytes)
        b.memory.record_read(macs * element_bytes)
        c.memory.record_read(macs * element_bytes)
        c.memory.record_write(macs * element_bytes)
        return macs * self.options.linalg_mac_cycles

    def _h_fill(self, ex, op, env):
        value = self._resolve(env, op.operand(0))
        target = self._resolve(env, op.operand(1))
        target.array[...] = value
        target.memory.record_write(target.nbytes)
        return target.num_elements * self.options.fill_cycles_per_element

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _check_deadlock(self) -> None:
        stuck: List[str] = []
        for proc in self.processors:
            for entry in proc.queue:
                stuck.append(f"{entry.label or entry.kind} on {proc.name}")
        if stuck:
            raise EngineError(
                "simulation deadlocked; events never became ready: "
                + ", ".join(stuck[:10])
                + (" ..." if len(stuck) > 10 else "")
            )

    def _build_summary(self, elapsed: float, cycles: int) -> ProfilingSummary:
        connections = {
            c.path: ConnectionReport(
                name=c.path,
                kind=c.kind,
                bandwidth=c.bandwidth,
                bytes_read=c.bytes_read,
                bytes_written=c.bytes_written,
                busy_read_cycles=(
                    c.read_queue.total_busy_cycles
                    if c.read_queue is not None
                    else 0
                ),
                busy_write_cycles=(
                    c.write_queue.total_busy_cycles
                    if c.write_queue is not None
                    else 0
                ),
                peak_bandwidth=c.peak_bandwidth,
                total_cycles=cycles,
            )
            for c in self.connections
        }
        memories = {
            m.path: MemoryReport(
                name=m.path,
                kind=m.kind,
                bytes_read=m.bytes_read,
                bytes_written=m.bytes_written,
                reads=m.reads,
                writes=m.writes,
                total_cycles=cycles,
            )
            for m in self.memories
        }
        # The plan cache's share of the summary (``plan.PLAN_COUNTERS``):
        # this run's own, against the attach-time snapshot.  Interpreted,
        # every such field keeps its zero.
        plans = {}
        if self._plans is not None:
            plans = self._plans.since(self._plan_base)
            plans["codegen_fallbacks"] = sum(
                plans["codegen_fallback_reasons"].values()
            )
        sim = self.sim
        return ProfilingSummary(
            execution_time_s=elapsed,
            cycles=cycles,
            connections=connections,
            memories=memories,
            scheduler_events=sim.processed_events,
            scheduler=sim.kind,
            microtask_events=sim.microtask_events,
            wheel_events=sim.wheel_events,
            heap_events=sim.heap_events,
            launches_executed=self.launches_executed,
            execution_mode=self.options.mode.value,
            **plans,
        )

    def _record_metrics(self, summary: ProfilingSummary) -> None:
        """Fold one finished run into the process metrics registry.

        Aggregated once per run — never per simulated event — so
        metrics add a fixed handful of ``obs`` calls to a run of any
        length (the ``telemetry`` row of ``tests/test_call_budget.py``
        pins them).  A single ``is None`` test when disabled.
        """
        registry = _obs_metrics.METRICS
        if registry is None:
            return
        registry.counter(
            "engine.runs", "Completed engine runs"
        ).inc()
        registry.counter(
            "engine.cycles", "Total simulated cycles across runs"
        ).inc(summary.cycles)
        registry.counter(
            "engine.scheduler_events", "DES events processed"
        ).inc(summary.scheduler_events)
        registry.counter(
            "engine.launches",
            "Queue entries executed: equeue.launch bodies and memcpys",
        ).inc(summary.launches_executed)
        for _, field, metric, text in PLAN_COUNTERS:
            registry.counter(metric, text).inc(getattr(summary, field))
        for _, field, metric, text in PLAN_REASONS:
            for reason, count in getattr(summary, field).items():
                # "identity:equeue.alloc" ->
                # engine.plan_share_declined.identity.equeue.alloc
                registry.counter(
                    f"{metric}.{reason.lower().replace(':', '.')}", text
                ).inc(count)
        registry.counter(
            "engine.trace_records_dropped", "Trace records over max_records"
        ).inc(self.trace.dropped)
        registry.histogram(
            "engine.run_seconds", "Wall-clock seconds per engine run"
        ).observe(summary.execution_time_s)


def _conv2d_reference(ifmap: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Direct convolution, the functional ground truth for linalg.conv2d."""
    c, h, w = ifmap.shape
    n, wc, fh, fw = weight.shape
    if wc != c:
        raise EngineError("conv2d channel mismatch")
    eh, ew = h - fh + 1, w - fw + 1
    out = np.zeros((n, eh, ew), dtype=ifmap.dtype)
    for filter_index in range(n):
        for dy in range(fh):
            for dx in range(fw):
                patch = ifmap[:, dy : dy + eh, dx : dx + ew]
                out[filter_index] += np.tensordot(
                    weight[filter_index, :, dy, dx], patch, axes=(0, 0)
                )
    return out


def simulate(
    module: ModuleOp,
    options: Optional[EngineOptions] = None,
    inputs: Optional[Dict[str, np.ndarray]] = None,
    plan_cache: Optional["PlanCache"] = None,
) -> SimulationResult:
    """Convenience wrapper: build an engine and run it.

    ``inputs`` maps top-level buffer names to arrays loaded into them after
    elaboration, before simulation starts.  ``plan_cache`` lets repeated
    simulations of the same module share compiled block plans — and, in
    codegen mode, their generated code objects (the cross-simulation
    compile cache; ignored in interpret mode).
    """
    return Engine(module, options, inputs, plan_cache=plan_cache).run()


# engine <-> plan import each other; see the note at the bottom of plan.py.
from .plan import _EMPTY as _NO_RETURNS  # noqa: E402
from .plan import (  # noqa: E402
    PLAN_COUNTERS,
    PLAN_REASONS,
    PlanCache,
    _blocked_read,
    _blocked_write,
    _cold_run,
    entry_env,
)
