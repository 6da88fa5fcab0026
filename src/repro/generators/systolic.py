"""Systolic-array EQueue program generator (§VI-B).

Builds a cycle-level EQueue model of an ``Ah x Aw`` systolic array running a
convolution under one of the three dataflows of §VI-A:

* **WS** (weight stationary): weights stay in PE registers; ifmap values
  flow right, partial sums flow down.
* **IS** (input stationary): im2col ifmap patches stay; weights flow right,
  partial sums flow down.
* **OS** (output stationary): partial sums stay in PE accumulators; the two
  operand streams flow right and down and results drain at fold end.

All three reduce to one streaming engine — a stationary matrix tile on the
array and ``T`` skewed input vectors per fold — which is exactly why the
paper's lowering pipeline can share passes between dataflows.  The mapping
is:

=========  =====================  ==================  ===============
dataflow   stationary (D1 x D2)   streamed (T)        outputs
=========  =====================  ==================  ===============
WS         W   (Fh*Fw*C x N)      X patches (Eh*Ew)   out[n, e]
IS         X^T (Fh*Fw*C x Eh*Ew)  W rows    (N)       out[e, n]
OS         accumulators (N x Eh*Ew)  reduction (Fh*Fw*C)  drained tile
=========  =====================  ==================  ===============

Folds: ``ceil(D1/Ah) * ceil(D2/Aw)`` — the loop-iteration law of §VI-E.
Per-fold cycles emerge from the discrete-event simulation as
``2*Ah + Aw + T - 2`` (stationary fill + skew + streaming), the same form
as SCALE-Sim's weight-stationary timing equation.

The time loop is *interpreted* (one ``affine.for`` in the kernel body), so
the IR stays small while the engine still executes one event per PE per
cycle.  Flow registers are double-buffered (A/B by step parity), which is
how a real systolic array avoids read/write races within a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..dialects import arith, scf
from ..dialects.equeue import EQueueBuilder
from ..dialects.linalg import ConvDims
from ..ir import Block, Builder, InsertionPoint, create_module, i32, index, verify
from ..ir.attributes import integer_attr
from ..ir.module import ModuleOp
from ..ir.values import Value

DATAFLOWS = ("WS", "IS", "OS")


@dataclass(frozen=True)
class SystolicConfig:
    """A systolic array + convolution workload configuration."""

    dataflow: str
    array_height: int  # Ah
    array_width: int   # Aw
    dims: ConvDims

    def __post_init__(self):
        if self.dataflow not in DATAFLOWS:
            raise ValueError(f"dataflow must be one of {DATAFLOWS}")
        if self.array_height <= 0 or self.array_width <= 0:
            raise ValueError("array dimensions must be positive")
        self.dims.validate()

    # -- mapping ------------------------------------------------------------

    @property
    def d1(self) -> int:
        """Rows of the stationary tile (mapped onto array rows)."""
        dims = self.dims
        if self.dataflow == "OS":
            return dims.n
        return dims.fh * dims.fw * dims.c

    @property
    def d2(self) -> int:
        """Columns of the stationary tile (mapped onto array columns)."""
        dims = self.dims
        if self.dataflow == "WS":
            return dims.n
        return dims.eh * dims.ew

    @property
    def stream_length(self) -> int:
        """T: input vectors streamed per fold."""
        dims = self.dims
        if self.dataflow == "WS":
            return dims.eh * dims.ew
        if self.dataflow == "IS":
            return dims.n
        return dims.fh * dims.fw * dims.c

    @property
    def folds_rows(self) -> int:
        return math.ceil(self.d1 / self.array_height)

    @property
    def folds_cols(self) -> int:
        return math.ceil(self.d2 / self.array_width)

    @property
    def loop_iterations(self) -> int:
        """⌈D1/Ah⌉ x ⌈D2/Aw⌉ — the §VI-E iteration-count law."""
        return self.folds_rows * self.folds_cols

    @property
    def expected_cycles(self) -> int:
        """Closed-form total the DES should reproduce exactly."""
        ah, aw, t = self.array_height, self.array_width, self.stream_length
        per_fold = 2 * ah + aw + t - 2
        return self.loop_iterations * per_fold

    @property
    def ofmap_write_bytes(self) -> int:
        """SRAM ofmap traffic: one 4-byte write per column per streamed
        vector per fold (WS/IS), or one tile drain per fold (OS)."""
        if self.dataflow == "OS":
            tile = self.array_height * self.array_width
            return self.loop_iterations * tile * 4
        return self.loop_iterations * self.stream_length * self.array_width * 4

    def average_ofmap_write_bw(self) -> float:
        return self.ofmap_write_bytes / self.expected_cycles


@dataclass
class SystolicProgram:
    """A generated module plus data marshalling helpers."""

    module: ModuleOp
    config: SystolicConfig
    buffer_names: Dict[str, str] = field(default_factory=dict)
    #: Each stamped PE body's block -> the block of its class's first
    #: body, which it copies: what the build knows and a plan cache can
    #: use (:class:`repro.sim.batch.CachedProgram` hands it over).
    stamps: Dict[Block, Block] = field(default_factory=dict)

    def prepare_inputs(
        self, ifmap: np.ndarray, weights: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Lay out ifmap/weights into the program's SRAM buffers."""
        return _prepare_inputs(self.config, ifmap, weights)

    def extract_ofmap(self, result) -> np.ndarray:
        """Recover the logical ofmap (N x Eh x Ew) from the output SRAM."""
        return _extract_ofmap(self.config, result)


# ---------------------------------------------------------------------------
# Data marshalling
# ---------------------------------------------------------------------------


def matmul_dims(m: int, k: int, n: int) -> ConvDims:
    """Matrix multiply as a degenerate convolution.

    ``C[m, n] = sum_k A[m, k] * B[k, n]`` is exactly a 1x1 convolution with
    ``k`` channels over an ``m x 1`` image producing ``n`` filters, so the
    systolic generator runs matmuls unchanged (Kung's original systolic
    use case).  Pass the result to :class:`SystolicConfig`; lay out
    ``A`` as the ifmap ``(k, m, 1)`` and ``B.T`` as the weights
    ``(n, k, 1, 1)``; the extracted "ofmap" ``(n, m, 1)`` is ``(A @ B).T``.
    """
    return ConvDims(n=n, c=k, h=m, w=1, fh=1, fw=1)


def matmul_inputs(a: np.ndarray, b: np.ndarray):
    """(ifmap, weights) layouts for running ``a @ b`` on the array."""
    a = np.asarray(a)
    b = np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"contraction mismatch: {a.shape} @ {b.shape}")
    ifmap = a.T.reshape(k, m, 1)
    weights = b.T.reshape(n, k, 1, 1)
    return ifmap, weights


def matmul_output(ofmap: np.ndarray) -> np.ndarray:
    """Recover ``A @ B`` from the extracted ofmap ``(n, m, 1)``."""
    return ofmap[:, :, 0].T


def im2col(ifmap: np.ndarray, dims: ConvDims) -> np.ndarray:
    """X[e, k] with e=(y,x) over Eh*Ew and k=(c,dy,dx) over Fh*Fw*C."""
    x = np.zeros((dims.eh * dims.ew, dims.c * dims.fh * dims.fw), ifmap.dtype)
    for y in range(dims.eh):
        for xx in range(dims.ew):
            patch = ifmap[:, y : y + dims.fh, xx : xx + dims.fw]
            x[y * dims.ew + xx, :] = patch.ravel()
    return x


def weight_matrix(weights: np.ndarray, dims: ConvDims) -> np.ndarray:
    """W[k, n] with k over (c, dy, dx) and n over filters."""
    return weights.reshape(dims.n, -1).T.copy()


def _blocked_stationary(
    stationary: np.ndarray, cfg: SystolicConfig
) -> np.ndarray:
    """Pad to fold multiples and lay out fold-major: [fold][Ah*Aw] flat."""
    ah, aw = cfg.array_height, cfg.array_width
    padded = np.zeros((cfg.folds_rows * ah, cfg.folds_cols * aw), stationary.dtype)
    padded[: stationary.shape[0], : stationary.shape[1]] = stationary
    flat = np.zeros(cfg.folds_rows * cfg.folds_cols * ah * aw, stationary.dtype)
    fold = 0
    for fr in range(cfg.folds_rows):
        for fc in range(cfg.folds_cols):
            tile = padded[fr * ah : (fr + 1) * ah, fc * aw : (fc + 1) * aw]
            flat[fold * ah * aw : (fold + 1) * ah * aw] = tile.ravel()
            fold += 1
    return flat


def _pad_stream(stream: np.ndarray, width: int) -> np.ndarray:
    """Pad stream matrix [T, D] columns up to ``width``."""
    t, d = stream.shape
    padded = np.zeros((t, width), stream.dtype)
    padded[:, :d] = stream
    return padded


def _prepare_inputs(
    cfg: SystolicConfig, ifmap: np.ndarray, weights: np.ndarray
) -> Dict[str, np.ndarray]:
    dims = cfg.dims
    ifmap = np.asarray(ifmap, dtype=np.int32)
    weights = np.asarray(weights, dtype=np.int32)
    x = im2col(ifmap, dims)
    w = weight_matrix(weights, dims)
    d1_pad = cfg.folds_rows * cfg.array_height
    d2_pad = cfg.folds_cols * cfg.array_width
    if cfg.dataflow == "WS":
        return {
            "stat_flat": _blocked_stationary(w, cfg),
            "stream_sram": _pad_stream(x, d1_pad),  # [T=EhEw, D1]
        }
    if cfg.dataflow == "IS":
        return {
            "stat_flat": _blocked_stationary(x.T, cfg),
            "stream_sram": _pad_stream(w.T, d1_pad),  # [T=N, D1]
        }
    # OS: the row stream carries W (indexed by filter n = array row) and
    # the column stream carries X patches (indexed by output e = column),
    # both streaming over the reduction index k.
    return {
        "row_stream_sram": _pad_stream(w, d1_pad),     # [T=K, D1=N]: W[k, n]
        "col_stream_sram": _pad_stream(x.T, d2_pad),   # [T=K, D2=EhEw]: X[e, k]^T
    }


def _extract_ofmap(cfg: SystolicConfig, result) -> np.ndarray:
    dims = cfg.dims
    ah, aw = cfg.array_height, cfg.array_width
    if cfg.dataflow == "WS":
        out = result.buffer("out_sram")  # [D2_pad, T]
        mat = out[: dims.n, :].T  # [T, N] -> out[e, n]
        return mat.T.reshape(dims.n, dims.eh, dims.ew)
    if cfg.dataflow == "IS":
        out = result.buffer("out_sram")  # [D2_pad=EhEw, T=N]
        mat = out[: dims.eh * dims.ew, : dims.n]  # out[e, n]
        return mat.T.reshape(dims.n, dims.eh, dims.ew)
    # OS: fold-major tiles of the (N x EhEw) output matrix.
    flat = result.buffer("out_flat")
    full = np.zeros((cfg.folds_rows * ah, cfg.folds_cols * aw), flat.dtype)
    fold = 0
    for fr in range(cfg.folds_rows):
        for fc in range(cfg.folds_cols):
            tile = flat[fold * ah * aw : (fold + 1) * ah * aw].reshape(ah, aw)
            full[fr * ah : (fr + 1) * ah, fc * aw : (fc + 1) * aw] = tile
            fold += 1
    mat = full[: dims.n, : dims.eh * dims.ew]
    return mat.reshape(dims.n, dims.eh, dims.ew)


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


def build_systolic_program(cfg: SystolicConfig) -> SystolicProgram:
    """Generate the EQueue module for a systolic configuration."""
    module = create_module()
    builder = Builder(InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)

    ah, aw = cfg.array_height, cfg.array_width
    t_len = cfg.stream_length
    d1_pad = cfg.folds_rows * ah
    d2_pad = cfg.folds_cols * aw

    kernel = eq.create_proc("ARMr5", name="kernel")
    dma = eq.create_dma(name="dma")
    pes = [
        [eq.create_proc("MAC", name=f"pe_{r}_{c}") for c in range(aw)]
        for r in range(ah)
    ]
    eq.create_comp(
        " ".join(f"pe_{r}_{c}" for r in range(ah) for c in range(aw)),
        [pes[r][c] for r in range(ah) for c in range(aw)],
    )

    reg_mem = eq.create_mem("Register", 16 * ah * aw, i32, name="regfile")
    sram_kwargs = dict(banks=max(1, aw), ports=max(1, aw))

    buffers: Dict[str, Value] = {}
    if cfg.dataflow in ("WS", "IS"):
        stat_sram = eq.create_mem(
            "SRAM", cfg.loop_iterations * ah * aw, i32, name="stat_sram",
            **sram_kwargs,
        )
        stream_sram = eq.create_mem(
            "SRAM", max(1, t_len * d1_pad), i32, name="stream_mem", **sram_kwargs
        )
        out_sram = eq.create_mem(
            "SRAM", d2_pad * t_len, i32, name="ofmap_mem", **sram_kwargs
        )
        buffers["stat_flat"] = eq.alloc(
            stat_sram, [cfg.loop_iterations * ah * aw], i32, name="stat_flat"
        )
        buffers["stream_sram"] = eq.alloc(
            stream_sram, [t_len, d1_pad], i32, name="stream_sram"
        )
        buffers["out_sram"] = eq.alloc(
            out_sram, [d2_pad, t_len], i32, name="out_sram"
        )
        buffers["stat_reg"] = eq.alloc(reg_mem, [ah, aw], i32, name="stat_reg")
    else:
        row_sram = eq.create_mem(
            "SRAM", t_len * d1_pad, i32, name="row_stream_mem", **sram_kwargs
        )
        col_sram = eq.create_mem(
            "SRAM", t_len * d2_pad, i32, name="col_stream_mem", **sram_kwargs
        )
        out_sram = eq.create_mem(
            "SRAM", cfg.loop_iterations * ah * aw, i32, name="ofmap_mem",
            **sram_kwargs,
        )
        buffers["row_stream_sram"] = eq.alloc(
            row_sram, [t_len, d1_pad], i32, name="row_stream_sram"
        )
        buffers["col_stream_sram"] = eq.alloc(
            col_sram, [t_len, d2_pad], i32, name="col_stream_sram"
        )
        buffers["out_flat"] = eq.alloc(
            out_sram, [cfg.loop_iterations * ah * aw], i32, name="out_flat"
        )
        buffers["acc_reg"] = eq.alloc(reg_mem, [ah, aw], i32, name="acc_reg")

    # Double-buffered flow registers (A/B by step parity).
    for name in ("flow_h_a", "flow_h_b", "flow_v_a", "flow_v_b"):
        buffers[name] = eq.alloc(reg_mem, [ah, aw], i32, name=name)

    # Kernel main launch: captures every buffer, the PEs, and the DMA.
    capture_names = list(buffers)
    captures = [buffers[n] for n in capture_names]
    pe_list = [pes[r][c] for r in range(ah) for c in range(aw)]
    all_args = captures + pe_list + [dma]

    start = eq.control_start()
    stamps: List[tuple] = []

    def kernel_body(body_builder: Builder, *args: Value) -> None:
        named = dict(zip(capture_names, args[: len(capture_names)]))
        pe_args = args[len(capture_names) : len(capture_names) + ah * aw]
        dma_arg = args[-1]
        _build_kernel_body(
            body_builder, cfg, named, pe_args, dma_arg, stamps
        )

    done = eq.launch(
        start, kernel, args=all_args, body=kernel_body, label="systolic_main"
    )[0]
    eq.await_(done)

    # The PE bodies still to be stamped are empty launches here: the
    # verifier walks the skeleton and one body per class, and a copy of
    # a verified body is verified by construction (:func:`_stamp`).
    verify(module)
    return SystolicProgram(module=module, config=cfg, stamps=_stamp(stamps))


def _build_kernel_body(
    b: Builder,
    cfg: SystolicConfig,
    buffers: Dict[str, Value],
    pe_args,
    dma: Value,
    stamps: List[tuple],
) -> None:
    from ..dialects import affine

    ah, aw, t_len = cfg.array_height, cfg.array_width, cfg.stream_length
    steps = t_len + ah + aw - 2
    tile = ah * aw

    def fold_body(b2: Builder, fr: Value, fc: Value) -> None:
        eq2 = EQueueBuilder(b2)
        if cfg.dataflow in ("WS", "IS"):
            # Load the stationary tile: fold-major slice -> stat_reg.
            folds_c = arith.constant(b2, cfg.folds_cols, index)
            tile_const = arith.constant(b2, tile, index)
            fold_index = arith.addi(b2, arith.muli(b2, fr, folds_c), fc)
            offset = arith.muli(b2, fold_index, tile_const)
            zero = arith.constant(b2, 0, index)
            cs = eq2.control_start()
            loaded = eq2.memcpy(
                cs,
                buffers["stat_flat"],
                buffers["stat_reg"],
                dma,
                offsets=[offset, zero],
                count=tile,
            )
            eq2.await_(loaded)
        else:
            # OS: reset the accumulators (register write, zero cycles).
            zero_val = arith.constant(b2, 0, i32)
            eq2.write(zero_val, buffers["acc_reg"])

        def step_body(b3: Builder, s: Value) -> None:
            eq3 = EQueueBuilder(b3)
            step_start = eq3.control_start()
            dones: List[Value] = []
            built: Dict[tuple, tuple] = {}
            for r in range(ah):
                for c in range(aw):
                    pe = pe_args[r * aw + c]
                    pe_buffers = [
                        buffers[n]
                        for n in _pe_buffer_names(cfg)
                    ]
                    launch_args = [s, fr, fc] + pe_buffers
                    done = eq3.launch(
                        step_start,
                        pe,
                        args=launch_args,
                        body=lambda bb, *vals, _r=r, _c=c: _pe_body(
                            bb, cfg, built, stamps, r=_r, c=_c, vals=vals
                        ),
                        label=f"pe_{r}_{c}",
                    )[0]
                    dones.append(done)
            barrier = eq3.control_and(dones)
            eq3.await_(barrier)

        affine.for_loop(b2, 0, steps, body=step_body)

        if cfg.dataflow == "OS":
            # Drain the accumulator tile to the output SRAM.
            folds_c = arith.constant(b2, cfg.folds_cols, index)
            tile_const = arith.constant(b2, tile, index)
            fold_index = arith.addi(b2, arith.muli(b2, fr, folds_c), fc)
            offset = arith.muli(b2, fold_index, tile_const)
            zero = arith.constant(b2, 0, index)
            cs = eq2.control_start()
            drained = eq2.memcpy(
                cs,
                buffers["acc_reg"],
                buffers["out_flat"],
                dma,
                offsets=[zero, offset],
                count=tile,
            )
            eq2.await_(drained)

    def folds_r_body(b1: Builder, fr: Value) -> None:
        affine.for_loop(
            b1, 0, cfg.folds_cols, body=lambda b2, fc: fold_body(b2, fr, fc)
        )

    affine.for_loop(b, 0, cfg.folds_rows, body=folds_r_body)


def _pe_buffer_names(cfg: SystolicConfig) -> List[str]:
    if cfg.dataflow in ("WS", "IS"):
        return [
            "stream_sram", "out_sram", "stat_reg",
            "flow_h_a", "flow_h_b", "flow_v_a", "flow_v_b",
        ]
    return [
        "row_stream_sram", "col_stream_sram", "acc_reg",
        "flow_h_a", "flow_h_b", "flow_v_a", "flow_v_b",
    ]


def _pe_body(
    b: Builder, cfg: SystolicConfig, built: Dict[tuple, tuple],
    stamps: List[tuple], *, r: int, c: int, vals,
) -> None:
    """The launch body of PE ``(r, c)``: built op by op when it is the
    first of its position class, else left empty and recorded in
    ``stamps`` to be copied from that first one once the module has
    verified (:func:`_stamp`).

    Which edges of the array a PE sits on — ``(c == 0, r == 0, c+1 < aw,
    r+1 < ah)`` — decides every branch :func:`_pe_step` takes, so the
    bodies of one class differ only in the values of the constants that
    carry :func:`_position` (a 8x8 array holds 64 bodies of 9 classes).
    ``built`` maps a class to its first body: the ops, their block, and
    those constants as ``(result, which)``.
    """
    key = (c == 0, r == 0, c + 1 < cfg.array_width, r + 1 < cfg.array_height)
    first = built.get(key)
    block = b.insertion_point.block
    if first is None:
        placed: List[tuple] = []
        _pe_step(b, cfg, r, c, vals, placed)
        built[key] = (tuple(block.ops), block, placed)
    else:
        stamps.append((block, first, vals, r, c))


def _stamp(stamps: List[tuple]) -> Dict[Block, Block]:
    """Copy each recorded PE body's class representative into it, ahead
    of its terminator, with its own position constants; returns each
    stamped block -> its representative's block.

    A copy has the representative's argument types (one ``launch_args``
    list serves every PE) and differs from it only in the values of
    ``index`` constants, so the representative's verification holds for
    it too — ``tests/generators/test_systolic.py`` proves every stamped
    module equal to the one built op by op, and that it verifies.
    """
    relation: Dict[Block, Block] = {}
    for block, (ops, first, placed), vals, r, c in stamps:
        value_map = dict(zip(first.arguments, vals))
        terminator = block.terminator
        block.remove(terminator)
        for op in ops:
            block.append(op.clone(value_map))
        block.append(terminator)
        position = _position(r, c)
        for constant, which in placed:
            value_map[constant].owner.set_attr(
                "value", integer_attr(position[which], index)
            )
        relation[block] = first
    return relation


def _position(r: int, c: int) -> tuple:
    """What a PE body knows of where it sits, as index constants."""
    return (r + c, r, c, c + 1, r + 1)


_RC, _R, _C, _C_NEXT, _R_NEXT = range(5)


def _placed(b: Builder, r: int, c: int, which: int, placed: List[tuple]) -> Value:
    """``arith.constant`` of ``_position(r, c)[which]``, noted in
    ``placed`` so a stamped copy of the body takes its own PE's value
    there."""
    value = arith.constant(b, _position(r, c)[which], index)
    placed.append((value, which))
    return value


def _pe_step(
    b: Builder, cfg: SystolicConfig, r: int, c: int, vals, placed: List[tuple]
) -> None:
    """One PE, one step: guarded by the skew-activity predicate."""
    s, fr, fc = vals[0], vals[1], vals[2]
    named = dict(zip(_pe_buffer_names(cfg), vals[3:]))

    t_len = cfg.stream_length
    rc = _placed(b, r, c, _RC, placed)
    t = arith.subi(b, s, rc)
    zero = arith.constant(b, 0, index)
    t_max = arith.constant(b, t_len, index)
    nonneg = arith.cmpi(b, "sge", t, zero)

    def when_nonneg(b1: Builder) -> None:
        in_range = arith.cmpi(b1, "slt", t, t_max)

        def when_active(b2: Builder) -> None:
            two = arith.constant(b2, 2, index)
            parity = arith.remsi(b2, s, two)
            is_even = arith.cmpi(b2, "eq", parity, zero)
            scf.if_op(
                b2,
                is_even,
                lambda b3: _pe_active_body(
                    b3, cfg, r, c, t, fr, fc, named, "a", placed
                ),
                lambda b3: _pe_active_body(
                    b3, cfg, r, c, t, fr, fc, named, "b", placed
                ),
            )

        scf.if_op(b1, in_range, when_active)

    scf.if_op(b, nonneg, when_nonneg)


def _pe_active_body(
    b: Builder,
    cfg: SystolicConfig,
    r: int,
    c: int,
    t: Value,
    fr: Value,
    fc: Value,
    named: Dict[str, Value],
    phase: str,
    placed: List[tuple],
) -> None:
    """The actual read/compute/pass work for an active step.

    ``phase`` selects which flow buffer is read ("a" on even steps) and
    which is written (the other), implementing double buffering.
    """
    eq = EQueueBuilder(b)
    ah, aw = cfg.array_height, cfg.array_width
    read_sfx, write_sfx = ("a", "b") if phase == "a" else ("b", "a")
    r_const = _placed(b, r, c, _R, placed)
    c_const = _placed(b, r, c, _C, placed)

    if cfg.dataflow in ("WS", "IS"):
        # Horizontal flow: streamed value; vertical flow: partial sum.
        if c == 0:
            ah_const = arith.constant(b, ah, index)
            row = arith.addi(b, arith.muli(b, fr, ah_const), r_const)
            x = eq.read_element(named["stream_sram"], [t, row], posted=True)
        else:
            x = eq.read_element(named[f"flow_h_{read_sfx}"], [r_const, c_const])
        if r == 0:
            aw_const = arith.constant(b, aw, index)
            col = arith.addi(b, arith.muli(b, fc, aw_const), c_const)
            psum = eq.read_element(named["out_sram"], [col, t], posted=True)
        else:
            psum = eq.read_element(named[f"flow_v_{read_sfx}"], [r_const, c_const])
        w = eq.read_element(named["stat_reg"], [r_const, c_const])
        new_psum = eq.op("mac", [x, w, psum], [x.type])[0]
        if c + 1 < aw:
            c_next = _placed(b, r, c, _C_NEXT, placed)
            eq.write_element(x, named[f"flow_h_{write_sfx}"], [r_const, c_next])
        if r + 1 < ah:
            r_next = _placed(b, r, c, _R_NEXT, placed)
            eq.write_element(
                new_psum, named[f"flow_v_{write_sfx}"], [r_next, c_const]
            )
        else:
            aw_const = arith.constant(b, aw, index)
            col = arith.addi(b, arith.muli(b, fc, aw_const), c_const)
            eq.write_element(new_psum, named["out_sram"], [col, t], posted=True)
    else:
        # OS: horizontal flow carries w (indexed by row), vertical flow
        # carries x (indexed by column); accumulate locally.
        if c == 0:
            ah_const = arith.constant(b, ah, index)
            row = arith.addi(b, arith.muli(b, fr, ah_const), r_const)
            w = eq.read_element(named["row_stream_sram"], [t, row], posted=True)
        else:
            w = eq.read_element(named[f"flow_h_{read_sfx}"], [r_const, c_const])
        if r == 0:
            aw_const = arith.constant(b, aw, index)
            col = arith.addi(b, arith.muli(b, fc, aw_const), c_const)
            x = eq.read_element(named["col_stream_sram"], [t, col], posted=True)
        else:
            x = eq.read_element(named[f"flow_v_{read_sfx}"], [r_const, c_const])
        acc = eq.read_element(named["acc_reg"], [r_const, c_const])
        new_acc = eq.op("mac", [x, w, acc], [x.type])[0]
        eq.write_element(new_acc, named["acc_reg"], [r_const, c_const])
        if c + 1 < aw:
            c_next = _placed(b, r, c, _C_NEXT, placed)
            eq.write_element(w, named[f"flow_h_{write_sfx}"], [r_const, c_next])
        if r + 1 < ah:
            r_next = _placed(b, r, c, _R_NEXT, placed)
            eq.write_element(x, named[f"flow_v_{write_sfx}"], [r_next, c_const])

