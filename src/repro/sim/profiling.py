"""Profiling summary (§IV-B).

After a simulation the engine produces a :class:`ProfilingSummary` with:

* wall-clock execution time of the simulation itself,
* simulated runtime in cycles,
* per-connection read/write bandwidth, the maximum bandwidth, and the
  *max-bandwidth portion* — the fraction of simulated time a channel spent
  at its bandwidth limit (the statistic the paper recommends for sizing
  interfaces),
* total bytes read/written per memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional


@dataclass
class ConnectionReport:
    name: str
    kind: str
    bandwidth: int  # bytes/cycle; 0 = unconstrained
    bytes_read: int
    bytes_written: int
    busy_read_cycles: int
    busy_write_cycles: int
    peak_bandwidth: float
    total_cycles: int

    @property
    def avg_read_bandwidth(self) -> float:
        return self.bytes_read / self.total_cycles if self.total_cycles else 0.0

    @property
    def avg_write_bandwidth(self) -> float:
        return self.bytes_written / self.total_cycles if self.total_cycles else 0.0

    @property
    def max_bandwidth_portion_read(self) -> float:
        """Fraction of simulated time spent at max read bandwidth."""
        if self.total_cycles == 0 or self.bandwidth <= 0:
            return 0.0
        return min(1.0, self.busy_read_cycles / self.total_cycles)

    @property
    def max_bandwidth_portion_write(self) -> float:
        if self.total_cycles == 0 or self.bandwidth <= 0:
            return 0.0
        return min(1.0, self.busy_write_cycles / self.total_cycles)


@dataclass
class MemoryReport:
    name: str
    kind: str
    bytes_read: int
    bytes_written: int
    reads: int
    writes: int
    total_cycles: int

    @property
    def avg_read_bandwidth(self) -> float:
        return self.bytes_read / self.total_cycles if self.total_cycles else 0.0

    @property
    def avg_write_bandwidth(self) -> float:
        return self.bytes_written / self.total_cycles if self.total_cycles else 0.0


@dataclass
class ProfilingSummary:
    """Everything §IV-B says the engine reports."""

    execution_time_s: float
    cycles: int
    connections: Dict[str, ConnectionReport] = field(default_factory=dict)
    memories: Dict[str, MemoryReport] = field(default_factory=dict)
    scheduler_events: int = 0
    launches_executed: int = 0
    #: Scheduler backend that ran the simulation (``"wheel"`` | ``"heap"``).
    scheduler: str = "wheel"
    #: Callbacks served by the zero-delay microtask ring (wheel scheduler).
    microtask_events: int = 0
    #: Callbacks served by a calendar-wheel bucket (short delays).
    wheel_events: int = 0
    #: Callbacks served by the far-future overflow heap (every event, for
    #: the heap scheduler).
    heap_events: int = 0
    #: Block plans compiled by the compile-once/execute-many fast path
    #: (0 when the engine ran fully interpreted).
    plans_compiled: int = 0
    #: Block executions served from the plan cache.
    plan_cache_hits: int = 0
    #: Launch-body shapes compiled: one set of plans per structural key
    #: (:func:`repro.sim.plan._shape_key`), whatever the site count.
    plan_shapes: int = 0
    #: Launch bodies bound to a shape some other body had compiled —
    #: each of these compiled nothing.
    plans_shared: int = 0
    #: Launch bodies compiled on their own, by the op that kept them
    #: from sharing a shape, as ``"<reason>:<op name>"``.
    plan_share_declined: Dict[str, int] = field(default_factory=dict)
    #: Hot block plans given a generated Python body (``mode=codegen``).
    blocks_codegenned: int = 0
    #: ... of which instantiated from a shape some block had already
    #: compiled (``blocks_codegenned - codegen_code_shared`` is the
    #: number of ``compile()`` calls the run made).
    codegen_code_shared: int = 0
    #: ... of which swapped in for a plan that had been replaying.
    codegen_tiered_up: int = 0
    #: ... of which start with a typed prologue: the values the body is
    #: entered with are loaded and type-checked once, and ``index``
    #: arithmetic on them is plain Python expressions.
    codegen_typed: int = 0
    #: ... of which are of the *suspending* kind — generator functions,
    #: in which a step that waits yields in place: what a block whose
    #: replays kept suspending, or that awaits or returns values, gets.
    codegen_suspending: int = 0
    #: Entries a typed body handed back to plan replay because a value
    #: it was entered with was not of the type it was compiled for, as
    #: ``"<kind>:<type found>"`` (``int:numpy.int64``, ``value:Future``).
    codegen_deopts: Dict[str, int] = field(default_factory=dict)
    #: Plans compiled this run that codegen can never take (an op the
    #: plan compiler has no description of); they replay as plans
    #: however hot they get.
    codegen_fallbacks: int = 0
    #: ``codegen_fallbacks`` by cause: the first step of each plan that
    #: the emitter cannot express, as ``"<step kind>:<op name>"``.
    codegen_fallback_reasons: Dict[str, int] = field(default_factory=dict)
    #: Resolved :class:`~repro.sim.engine.ExecutionMode` value the run
    #: executed under ("" for records written before modes existed).
    execution_mode: str = ""

    # -- aggregate helpers (Fig. 11 of tests/integration/test_paper_figures.py)

    def bandwidth_by_memory_kind(self, kind: str, write: bool = False) -> float:
        """Aggregate average bandwidth over all memories of ``kind``."""
        total = 0
        for report in self.memories.values():
            if report.kind == kind:
                total += report.bytes_written if write else report.bytes_read
        return total / self.cycles if self.cycles else 0.0

    def memory_named(self, name: str) -> Optional[MemoryReport]:
        for key, report in self.memories.items():
            if key == name or key.endswith("." + name) or report.name == name:
                return report
        return None

    # -- machine-readable round-trip serialization ---------------------------
    #
    # One stats format shared by ``equeue-sim --stats-json``, the service
    # result store's blobs, and ``equeue-serve`` responses: plain dicts of
    # JSON-native scalars with stable keys, reconstructible bit-identically.

    def to_dict(self) -> Dict:
        """A JSON-serializable dict of every field (stable keys).

        Nested connection/memory reports become plain field dicts; the
        result round-trips through :meth:`from_dict` to an equal summary
        (``from_dict(s.to_dict()) == s``).
        """
        # One flat copy, field by field (``dataclasses.asdict`` deep-copies
        # every leaf, recursively): the dict-valued fields hold scalars
        # or reports of scalars, so one level is a full copy.
        record = {}
        for name in _SUMMARY_FIELDS:
            value = getattr(self, name)
            report_fields = _REPORT_FIELDS.get(name)
            if report_fields is not None:
                value = {
                    key: {f: getattr(report, f) for f in report_fields}
                    for key, report in sorted(value.items())
                }
            elif type(value) is dict:
                value = dict(value)
            record[name] = value
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "ProfilingSummary":
        """Reconstruct a summary from :meth:`to_dict` output.

        Unknown keys are ignored and missing counter fields take their
        defaults, so records written by older code versions still load.
        """
        known = {f.name for f in fields(cls) if f.init}
        payload = {
            key: value for key, value in record.items() if key in known
        }
        def load(report_cls, report):
            report_known = {f.name for f in fields(report_cls) if f.init}
            return report_cls(
                **{k: v for k, v in report.items() if k in report_known}
            )

        payload["connections"] = {
            name: load(ConnectionReport, report)
            for name, report in record.get("connections", {}).items()
        }
        payload["memories"] = {
            name: load(MemoryReport, report)
            for name, report in record.get("memories", {}).items()
        }
        return cls(**payload)

    def format(self) -> str:
        """Human-readable summary table."""
        lines: List[str] = []
        lines.append("=== EQueue simulation summary ===")
        lines.append(f"simulator execution time: {self.execution_time_s:.4f} s")
        lines.append(f"simulated runtime:        {self.cycles} cycles")
        lines.append(f"scheduler events:         {self.scheduler_events}")
        lines.append(
            f"scheduler tiers:          {self.scheduler} "
            f"({self.microtask_events} microtask, {self.wheel_events} wheel, "
            f"{self.heap_events} heap)"
        )
        lines.append(f"launches executed:        {self.launches_executed}")
        if self.plans_compiled or self.plan_cache_hits:
            declined = ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(self.plan_share_declined.items())
            )
            lines.append(
                f"block plans:              {self.plans_compiled} compiled, "
                f"{self.plan_cache_hits} cache hits, "
                f"{self.plan_shapes} body shapes "
                f"({self.plans_shared} bodies shared one, "
                f"{sum(self.plan_share_declined.values())} declined"
                + (f": {declined})" if declined else ")")
            )
        if (
            self.blocks_codegenned
            or self.codegen_fallbacks
            or self.codegen_deopts
        ):
            reasons = ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(
                    self.codegen_fallback_reasons.items()
                )
            )
            deopts = ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(self.codegen_deopts.items())
            )
            lines.append(
                f"codegen blocks:           {self.blocks_codegenned} "
                f"generated ({self.codegen_code_shared} shared code, "
                f"{self.codegen_tiered_up} tiered up, "
                f"{self.codegen_suspending} suspending, "
                f"{self.codegen_typed} typed), "
                f"{self.codegen_fallbacks} fallbacks"
                + (f" ({reasons})" if reasons else "")
                + f", {sum(self.codegen_deopts.values())} deopts"
                + (f" ({deopts})" if deopts else "")
            )
        if self.connections:
            lines.append("-- connections (bytes/cycle) --")
            header = (
                f"{'name':24} {'kind':10} {'bw':>6} {'rd BW':>8} {'wr BW':>8} "
                f"{'rd@max':>7} {'wr@max':>7}"
            )
            lines.append(header)
            for name in sorted(self.connections):
                c = self.connections[name]
                bw = "inf" if c.bandwidth <= 0 else str(c.bandwidth)
                lines.append(
                    f"{name:24} {c.kind:10} {bw:>6} "
                    f"{c.avg_read_bandwidth:8.3f} {c.avg_write_bandwidth:8.3f} "
                    f"{c.max_bandwidth_portion_read:7.2%} "
                    f"{c.max_bandwidth_portion_write:7.2%}"
                )
        if self.memories:
            lines.append("-- memories --")
            header = (
                f"{'name':24} {'kind':10} {'bytes rd':>10} {'bytes wr':>10} "
                f"{'rd BW':>8} {'wr BW':>8}"
            )
            lines.append(header)
            for name in sorted(self.memories):
                m = self.memories[name]
                lines.append(
                    f"{name:24} {m.kind:10} {m.bytes_read:>10} "
                    f"{m.bytes_written:>10} {m.avg_read_bandwidth:8.3f} "
                    f"{m.avg_write_bandwidth:8.3f}"
                )
        return "\n".join(lines)


#: Field names, in declaration order (the key order of ``to_dict``).
_SUMMARY_FIELDS = tuple(f.name for f in fields(ProfilingSummary))
#: The fields holding reports by name, and the fields of a report.
_REPORT_FIELDS = {
    "connections": tuple(f.name for f in fields(ConnectionReport)),
    "memories": tuple(f.name for f in fields(MemoryReport)),
}
