"""The generic timed discrete-event simulation engine for EQueue programs."""

from .batch import (
    CachedProgram,
    ChunkDeadlineError,
    CompileCache,
    CompileCacheStats,
    ResilienceStats,
    SweepInterrupted,
    SweepRunner,
    default_jobs,
    deterministic_conv_inputs,
    process_compile_cache,
    sample_conv_inputs,
    structural_signature,
)
from .journal import (
    JOURNAL_KIND,
    JournalError,
    SweepJournal,
    load_journal,
)
from .components import (
    Buffer,
    CacheModel,
    Component,
    ComponentError,
    ComponentGroup,
    ConnectionModel,
    DMAModel,
    EventEntry,
    MemoryModel,
    MemorySpec,
    ProcessorModel,
    ProcessorSpec,
    memory_spec,
    processor_spec,
    register_memory_kind,
    register_processor_kind,
)
from .engine import (
    Engine,
    EngineError,
    EngineOptions,
    ExecutionMode,
    Future,
    SimulationResult,
    resolve_execution_mode,
    simulate,
)
from .kernel import (
    WHEEL_SIZE,
    AllOf,
    AnyOf,
    HeapSimulator,
    Process,
    ScheduleQueue,
    SimEvent,
    SimulationError,
    Simulator,
    all_of,
    any_of,
    make_simulator,
)
from .oplib import OpFunction, OpLibError, lookup, register_op_function
from .plan import BlockPlan, PlanCache
from .profiling import ConnectionReport, MemoryReport, ProfilingSummary
from .tracing import TraceRecord, TraceRecorder
from .visualize import render_lanes, render_trace, utilization

__all__ = [
    "Buffer", "CacheModel", "Component", "ComponentError", "ComponentGroup",
    "ConnectionModel", "DMAModel", "EventEntry", "MemoryModel", "MemorySpec",
    "ProcessorModel", "ProcessorSpec", "memory_spec", "processor_spec",
    "register_memory_kind", "register_processor_kind",
    "Engine", "EngineError", "EngineOptions", "ExecutionMode", "Future",
    "SimulationResult", "resolve_execution_mode", "simulate",
    "CachedProgram", "CompileCache", "CompileCacheStats", "SweepRunner",
    "default_jobs", "deterministic_conv_inputs", "process_compile_cache",
    "sample_conv_inputs", "structural_signature",
    "AllOf", "AnyOf", "HeapSimulator", "Process", "ScheduleQueue",
    "SimEvent", "SimulationError", "Simulator", "WHEEL_SIZE", "all_of",
    "any_of", "make_simulator",
    "OpFunction", "OpLibError", "lookup", "register_op_function",
    "BlockPlan", "PlanCache",
    "ConnectionReport", "MemoryReport", "ProfilingSummary",
    "TraceRecord", "TraceRecorder",
    "render_lanes", "render_trace", "utilization",
]
