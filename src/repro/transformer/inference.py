"""End-to-end sparse-Transformer inference latency (paper Fig. 17).

Models one forward pass of the 4-layer LRA encoder at production scale
(sequence 4096/8192, heads 4/8, batch 2/8) on three backends:

- ``pytorch_dense`` — cuDNN/cuBLAS fp16: dense QK^T and AV GEMMs plus a
  dense masked softmax; its attention buffers grow as b*h*L^2 and blow
  the 40 GB A100 at seq 8192 / batch 8, reproducing the paper's OOMs.
- ``vector_sparse`` — fp16 SDDMM/softmax/SpMM with vectorSparse kernels.
- ``magicube`` — the Fig. 16 quantized pipeline at an ``xb-yb`` scheme
  (softmax output x-bit, Q/K/V y-bit).

All backends share identical dense projections and MLP (cuBLAS fp16),
as in the paper — the backends differ only in the attention path.

Latency is assembled from the same kernel accounting the micro
benchmarks use, applied to *synthetic uniform* sparse topologies (the
attention mask's vectors spread evenly over strips), so Fig. 17 can be
regenerated in milliseconds instead of materializing 8192^2 masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.calibration import cost_model_for
from repro.baselines.cublas import CublasGemm
from repro.errors import ConfigError
from repro.gpu.memory import TrafficCounter
from repro.gpu.timing import KernelStats
from repro.gpu.warp import LaunchGrid, ThreadBlock
from repro.serve.topology import UniformBCRSMask, UniformSRBCRS
from repro.transformer.attention import plan_pipeline


class DenseOOM(Exception):
    """The dense baseline exceeded device memory (paper's OOM cells)."""


#: host-side dispatch cost per kernel (PyTorch 1.9 eager mode, as the
#: paper's end-to-end harness uses): op setup, launch, stream sync
HOST_OVERHEAD_S = 25e-6


@dataclass(frozen=True)
class Backend:
    """One Fig. 17 legend entry."""

    kind: str  # "pytorch_dense" | "vector_sparse" | "magicube"
    softmax_bits: int = 16
    qkv_bits: int = 8

    @property
    def label(self) -> str:
        if self.kind == "pytorch_dense":
            return "PyTorch (cuDNN, fp16)"
        if self.kind == "vector_sparse":
            return "vectorSparse (fp16)"
        return f"Magicube ({self.softmax_bits}b-{self.qkv_bits}b)"


PYTORCH_DENSE = Backend("pytorch_dense")
VECTOR_SPARSE = Backend("vector_sparse")
MAGICUBE_16_8 = Backend("magicube", 16, 8)
MAGICUBE_8_8 = Backend("magicube", 8, 8)
MAGICUBE_8_4 = Backend("magicube", 8, 4)
MAGICUBE_4_4 = Backend("magicube", 4, 4)
ALL_BACKENDS = (
    PYTORCH_DENSE,
    VECTOR_SPARSE,
    MAGICUBE_16_8,
    MAGICUBE_8_8,
    MAGICUBE_8_4,
    MAGICUBE_4_4,
)


@dataclass(frozen=True)
class InferenceConfig:
    """One Fig. 17 panel point."""

    seq_len: int = 4096
    num_heads: int = 4
    batch: int = 2
    sparsity: float = 0.9
    num_layers: int = 4
    d_head: int = 64
    vector_length: int = 8
    device: str = "A100"

    def __post_init__(self) -> None:
        if self.seq_len % self.vector_length != 0:
            raise ConfigError("seq_len must divide by the mask vector length")

    @property
    def d_model(self) -> int:
        return self.num_heads * self.d_head

    @property
    def nnz_vectors(self) -> int:
        """Attention-mask vectors at the target sparsity (uniform)."""
        per_strip = max(1, round((1.0 - self.sparsity) * self.seq_len))
        return (self.seq_len // self.vector_length) * per_strip

    @property
    def nnz(self) -> int:
        return self.nnz_vectors * self.vector_length


@dataclass
class LatencyResult:
    """Latency breakdown of one (config, backend) point."""

    backend: Backend
    config: InferenceConfig
    total_s: float
    components: dict = field(default_factory=dict)
    peak_attention_bytes: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3


# ----------------------------------------------------------------------
# synthetic uniform topologies for the kernel accounting (shared with
# the serving planner, which costs candidate configs the same way)


def _uniform_srbcrs(cfg: InferenceConfig, stride: int) -> UniformSRBCRS:
    l = cfg.seq_len
    return UniformSRBCRS(l, l, cfg.vector_length, cfg.sparsity, stride)


def _uniform_mask(cfg: InferenceConfig) -> UniformBCRSMask:
    l = cfg.seq_len
    return UniformBCRSMask(l, l, cfg.vector_length, cfg.sparsity)


def _scale_stats(stats: KernelStats, factor: int) -> KernelStats:
    """One batched launch covering ``factor`` (batch x head) instances."""
    for key in stats.mma_ops:
        stats.mma_ops[key] *= factor
    stats.useful_ops *= factor
    t = TrafficCounter()
    for name, (rd, unique, wr) in stats.traffic.by_stream.items():
        t.read(name, rd * factor, unique * factor)
        t.write(name, wr * factor)
    stats.traffic = t
    stats.smem_transaction_cycles *= factor
    stats.epilogue_cycles *= factor
    stats.serial_bytes *= factor
    if stats.grid is not None:
        stats.grid = LaunchGrid(
            blocks=stats.grid.blocks * factor, block=stats.grid.block
        )
    return stats


def _streaming_stats(name: str, read_bytes: int, write_bytes: int) -> KernelStats:
    """A memory-streaming elementwise kernel (layernorm, quantize...)."""
    s = KernelStats(name=name)
    t = TrafficCounter()
    t.read(name, read_bytes)
    t.write(name, write_bytes)
    s.traffic = t
    s.prefetch = True
    s.grid = LaunchGrid(blocks=4096, block=ThreadBlock(warps=4))
    return s


# ----------------------------------------------------------------------
# per-backend attention paths


def _dense_projection_time(cfg: InferenceConfig) -> float:
    """Q/K/V/O projections + MLP per layer (identical on all backends)."""
    cm = cost_model_for("cublas_fp16", cfg.device)
    gemm = CublasGemm("fp16")
    d = cfg.d_model
    rows = cfg.batch * cfg.seq_len
    total = 0.0
    # 4 projections (d x d) and the 2 MLP GEMMs (d x 4d, 4d x d)
    for k_dim, n_dim, count in ((d, d, 4), (d, 4 * d, 1), (4 * d, d, 1)):
        stats = gemm._account((rows, k_dim), (k_dim, n_dim))
        total += cm.time(stats)
    # 2 layernorms + residuals: stream the activations a few times
    act = rows * d * 2
    total += cm.time(_streaming_stats("layernorm", 4 * act, 2 * act))
    return total


def _dense_attention_time(cfg: InferenceConfig) -> tuple[float, int]:
    """cuDNN-style dense attention per layer; returns (time, peak bytes)."""
    cm = cost_model_for("cublas_fp16", cfg.device)
    gemm = CublasGemm("fp16")
    bh = cfg.batch * cfg.num_heads
    l, dh = cfg.seq_len, cfg.d_head
    t = 0.0
    # QK^T and AV as batched GEMMs
    t += cm.time(_scale_stats(gemm._account((l, dh), (dh, l)), bh))
    t += cm.time(_scale_stats(gemm._account((l, l), (l, dh)), bh))
    # cuDNN's fused masked softmax: one read + one write of the L x L
    # score matrix
    score_bytes = bh * l * l * 2
    t += cm.time(_streaming_stats("dense-softmax", score_bytes, score_bytes))
    # PyTorch materializes several L x L temporaries (scores, masked
    # scores, fp32 softmax intermediates, output): ~10 fp16-equivalents
    peak = 10 * score_bytes  # per layer, buffers reused across layers
    return t, peak


def _sparse_attention_time_vectorsparse(cfg: InferenceConfig) -> float:
    from repro.baselines.vector_sparse import VectorSparseSDDMM, VectorSparseSpMM

    cm = cost_model_for("vector_sparse", cfg.device)
    bh = cfg.batch * cfg.num_heads
    l, dh = cfg.seq_len, cfg.d_head
    mask = _uniform_mask(cfg)
    t = 0.0
    sddmm_stats = VectorSparseSDDMM()._account((l, dh), (dh, l), mask)
    t += cm.time(_scale_stats(sddmm_stats, bh))
    # fp16 sparse softmax: stream the nnz scores
    nnz_bytes = mask.nnz * 2
    t += cm.time(_streaming_stats("sparse-softmax", 3 * nnz_bytes * bh, nnz_bytes * bh))
    # the AV SpMM's LHS is the probability matrix with the mask topology
    spmm_stats = VectorSparseSpMM()._account(mask, dh)
    t += cm.time(_scale_stats(spmm_stats, bh))
    return t


def _sparse_attention_time_magicube(
    cfg: InferenceConfig, backend: Backend, planner=None, plan_backend=None
) -> float:
    cm = cost_model_for("magicube", cfg.device)
    bh = cfg.batch * cfg.num_heads
    l, dh = cfg.seq_len, cfg.d_head
    sm_bits, qkv_bits = backend.softmax_bits, backend.qkv_bits
    # the served forwards' launch stack: with a planner (the serving
    # path, built for ``cfg.device``) the tile knobs come from its cached
    # search, pinned to the Magicube runtime backend ``plan_backend``
    pipe, _ = plan_pipeline(
        plan_backend, (sm_bits, qkv_bits), l, dh, cfg.vector_length,
        cfg.sparsity, planner,
    )
    sddmm = pipe.sddmm(qkv_bits)
    spmm = pipe.spmm(sm_bits, qkv_bits)
    t = 0.0
    # Q/K/V quantization is fused into the projection epilogues and the
    # dequantizations into SDDMM/SpMM (the Fig. 16 "kernel fusion"
    # boxes) — no separate streaming kernels.
    # SDDMM at Lq-Rq
    mask = _uniform_mask(cfg)
    t += cm.time(_scale_stats(sddmm._account((l, dh), (dh, l), mask), bh))
    # fused fp16 softmax + quantize: stream nnz scores
    nnz_bytes = mask.nnz * 2
    t += cm.time(_streaming_stats("softmax-q", 2 * nnz_bytes * bh, nnz_bytes * bh // 2))
    # SpMM at L<sm>-R<qkv>
    sr = _uniform_srbcrs(cfg, stride=spmm.required_stride)
    t += cm.time(_scale_stats(spmm._account(sr, dh), bh))
    return t


#: kernels dispatched per encoder layer on every backend: 4 projections,
#: 2 MLP GEMMs, 2 layernorm/residual passes, plus the attention path
#: (dense: QK^T, fused mask+softmax, AV; sparse: SDDMM, softmax, SpMM)
_OPS_PER_LAYER = 8 + 3


def estimate_latency(
    cfg: InferenceConfig, backend: Backend, planner=None, plan_backend=None
) -> LatencyResult:
    """Full-model latency for one Fig. 17 point.

    Raises :class:`DenseOOM` for the dense backend when its attention
    buffers exceed the device's 40 GB. ``planner`` (an
    :class:`~repro.serve.planner.ExecutionPlanner`) routes the magicube
    attention kernels through cached serving plans — the
    :class:`repro.serve.engine.Engine` path; ``plan_backend`` pins
    which Magicube runtime backend those plans are searched on
    (default :data:`~repro.runtime.DEFAULT_BACKEND`).
    """
    components: dict = {}
    proj = _dense_projection_time(cfg)
    components["projections+mlp"] = proj * cfg.num_layers
    peak = 0
    if backend.kind == "pytorch_dense":
        attn, peak = _dense_attention_time(cfg)
        # 40 GB HBM minus ~2 GB for weights, activations and workspace
        if peak > 38e9:
            raise DenseOOM(
                f"dense attention needs {peak / 1e9:.1f} GB > 38 GB usable "
                f"(seq={cfg.seq_len}, batch={cfg.batch}, heads={cfg.num_heads})"
            )
    elif backend.kind == "vector_sparse":
        attn = _sparse_attention_time_vectorsparse(cfg)
    elif backend.kind == "magicube":
        attn = _sparse_attention_time_magicube(
            cfg, backend, planner=planner, plan_backend=plan_backend
        )
    else:
        raise ConfigError(f"unknown backend {backend.kind!r}")
    components["attention"] = attn * cfg.num_layers
    components["host_dispatch"] = (
        HOST_OVERHEAD_S * _OPS_PER_LAYER * cfg.num_layers
    )
    total = sum(components.values())
    return LatencyResult(
        backend=backend,
        config=cfg,
        total_s=total,
        components=components,
        peak_attention_bytes=peak,
    )


def estimate_decode_latency(
    cfg: InferenceConfig, backend: Backend, planner=None, plan_backend=None
) -> LatencyResult:
    """Latency of one decode step against a ``cfg.seq_len`` KV context.

    Derived from the prefill accounting: a decode step projects one
    V-row query strip instead of the full sequence (projections/MLP
    scale by ``V / L``) and its attention touches one strip's share of
    the mask (``V / L`` of the prefill SDDMM/softmax/SpMM work). The
    kernel *count* is unchanged — every layer still dispatches the same
    launches — so the host-dispatch floor stays, which is exactly why
    small decode steps are dispatch-bound in the paper's eager harness.
    """
    full = estimate_latency(
        cfg, backend, planner=planner, plan_backend=plan_backend
    )
    share = cfg.vector_length / cfg.seq_len
    components = {
        "projections+mlp": full.components["projections+mlp"] * share,
        "attention": full.components["attention"] * share,
        "host_dispatch": full.components["host_dispatch"],
    }
    return LatencyResult(
        backend=backend,
        config=cfg,
        total_s=sum(components.values()),
        components=components,
        peak_attention_bytes=full.peak_attention_bytes,
    )
