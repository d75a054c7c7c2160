"""Per-layer kernel decomposition of transformer training steps.

The decomposition follows the standard decoder block: QKV projection,
attention score/context batched GEMMs, output projection, MLP up/down
(or gated up/gate/down), plus fused norm/residual elementwise work.
Backward emits separate dgrad/wgrad GEMMs per forward GEMM, matching
what a profiler sees on real runs. With activation checkpointing the
backward pass of a layer is preceded by a recomputed forward.

:func:`build_layer_forward` and :func:`build_layer_backward` are
memoized on ``(model, shape, layer)`` and return tuples: every plan of
a sweep that shares a model and per-GPU shape (the overlapped and
sequential plans of a cell, the same model and batch on another GPU
type) gets the same kernel tuples back instead of rebuilding and
re-interning each layer, and the plan builder resolves a tuple it has
seen once. The memo is bounded; :func:`clear_layer_memo` empties it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.hw.datapath import ComputePath, Datapath, FP16_TENSOR, Precision
from repro.workloads.kernels import (
    KernelKind,
    KernelSpec,
    elementwise_kernel,
    gemm_kernel,
)
from repro.workloads.spec import ModelSpec


@dataclass(frozen=True)
class TrainingShape:
    """Per-iteration training hyperparameters.

    ``batch_size`` is the per-replica global batch the paper sweeps
    (8-64); ``seq_len`` is the context length (the paper does not state
    it; 1024 is GPT-3's pretraining default for these sizes on small
    node counts and is configurable).
    """

    batch_size: int
    seq_len: int = 1024
    path: ComputePath = FP16_TENSOR
    activation_checkpointing: bool = False

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.seq_len <= 0:
            raise ConfigurationError("seq_len must be positive")

    @property
    def tokens(self) -> int:
        """Tokens processed per iteration."""
        return self.batch_size * self.seq_len

    def with_batch(self, batch_size: int) -> "TrainingShape":
        """Copy with a different batch size."""
        return TrainingShape(
            batch_size=batch_size,
            seq_len=self.seq_len,
            path=self.path,
            activation_checkpointing=self.activation_checkpointing,
        )


def _layer_forward_gemms(
    model: ModelSpec, shape: TrainingShape, layer: int
) -> List[KernelSpec]:
    """GEMMs of one decoder block's forward pass."""
    h = model.hidden_dim
    ffn = model.ffn_dim
    tokens = shape.tokens
    seq = shape.seq_len
    path = shape.path
    tag = f"L{layer}"
    kernels = [
        gemm_kernel(f"{tag}.qkv", tokens, 3 * h, h, path),
        # Attention score and context GEMMs: batched (batch*heads) GEMMs
        # of (s x d) x (d x s); flops total 2 * tokens * seq * h each.
        _attention_kernel(f"{tag}.attn_scores", model, shape),
        _attention_kernel(f"{tag}.attn_context", model, shape),
        gemm_kernel(f"{tag}.attn_out", tokens, h, h, path),
    ]
    if model.gated_ffn:
        kernels.extend(
            [
                gemm_kernel(f"{tag}.mlp_up", tokens, ffn, h, path),
                gemm_kernel(f"{tag}.mlp_gate", tokens, ffn, h, path),
                gemm_kernel(f"{tag}.mlp_down", tokens, h, ffn, path),
            ]
        )
    else:
        kernels.extend(
            [
                gemm_kernel(f"{tag}.mlp_up", tokens, ffn, h, path),
                gemm_kernel(f"{tag}.mlp_down", tokens, h, ffn, path),
            ]
        )
    del seq  # seq enters via the attention kernels
    return kernels


def _attention_kernel(
    name: str, model: ModelSpec, shape: TrainingShape
) -> KernelSpec:
    """Batched attention GEMM (scores or context).

    FLOPs: 2 * batch * heads * seq^2 * head_dim = 2 * tokens * seq * h.
    Traffic includes the (batch, heads, seq, seq) score matrix, which
    makes attention markedly more bandwidth-hungry than the projections
    (no flash-attention fusion on the PyTorch-2.4 Megatron/DeepSpeed
    paths the paper measures).
    """
    elt = shape.path.precision.bytes_per_element
    tokens = shape.tokens
    seq = shape.seq_len
    h = model.hidden_dim
    flops = 2.0 * tokens * seq * h
    score_matrix = float(shape.batch_size) * model.num_heads * seq * seq
    operands = 2.0 * tokens * h
    bytes_moved = elt * (score_matrix + operands)
    return KernelSpec(
        name=name,
        kind=KernelKind.ATTENTION,
        flops=flops,
        bytes_moved=bytes_moved,
        path=shape.path,
        efficiency=0.35,
    )


def _layer_norm_kernels(
    model: ModelSpec, shape: TrainingShape, layer: int, suffix: str = ""
) -> List[KernelSpec]:
    """Fused norm + residual + activation elementwise traffic."""
    elements = float(shape.tokens) * model.hidden_dim
    return [
        elementwise_kernel(
            f"L{layer}.norm_residual{suffix}",
            # Two norms, two residual adds, one activation per block;
            # roughly 5 activation-sized tensors each read+write.
            num_elements=5.0 * elements,
            path=shape.path,
            kind=KernelKind.NORM,
        )
    ]


#: Bound on each layer memo: the full Fig. 4 grid needs ~700 entries
#: per direction (168 layers over five models, four per-GPU batches).
_LAYER_MEMO_SIZE = 2048


@lru_cache(maxsize=_LAYER_MEMO_SIZE)
def build_layer_forward(
    model: ModelSpec, shape: TrainingShape, layer: int
) -> Tuple[KernelSpec, ...]:
    """All forward kernels of one decoder block (memoized)."""
    return tuple(
        _layer_forward_gemms(model, shape, layer)
        + _layer_norm_kernels(model, shape, layer)
    )


@lru_cache(maxsize=_LAYER_MEMO_SIZE)
def build_layer_backward(
    model: ModelSpec, shape: TrainingShape, layer: int
) -> Tuple[KernelSpec, ...]:
    """All backward kernels of one decoder block (memoized).

    Each forward GEMM yields a dgrad and a wgrad GEMM of equal FLOPs;
    with activation checkpointing the full forward is recomputed first.
    """
    kernels: List[KernelSpec] = []
    if shape.activation_checkpointing:
        recompute = build_layer_forward(model, shape, layer)
        kernels.extend(
            k.scaled(1.0, name_suffix=".recompute") for k in recompute
        )
    for fwd in _layer_forward_gemms(model, shape, layer):
        kernels.append(fwd.scaled(1.0, name_suffix=".dgrad"))
        kernels.append(fwd.scaled(1.0, name_suffix=".wgrad"))
    kernels.extend(_layer_norm_kernels(model, shape, layer, suffix=".bwd"))
    return tuple(kernels)


def clear_layer_memo() -> None:
    """Empty the layer memos (with the kernel intern table, for test and
    benchmark isolation)."""
    build_layer_forward.cache_clear()
    build_layer_backward.cache_clear()


def build_head_forward(model: ModelSpec, shape: TrainingShape) -> List[KernelSpec]:
    """Embedding lookup, final norm and LM-head projection."""
    tokens = shape.tokens
    h = model.hidden_dim
    embed_bytes = 2.0 * shape.path.precision.bytes_per_element * tokens * h
    return [
        KernelSpec(
            name="embed",
            kind=KernelKind.EMBEDDING,
            flops=float(tokens) * h,
            bytes_moved=embed_bytes,
            path=shape.path,
            efficiency=0.7,
        ),
        gemm_kernel("lm_head", tokens, model.vocab_size, h, shape.path),
    ]


def build_head_backward(model: ModelSpec, shape: TrainingShape) -> List[KernelSpec]:
    """Backward of the LM head (dgrad + wgrad) and embedding grads."""
    tokens = shape.tokens
    h = model.hidden_dim
    head = gemm_kernel("lm_head", tokens, model.vocab_size, h, shape.path)
    embed_bytes = 2.0 * shape.path.precision.bytes_per_element * tokens * h
    return [
        head.scaled(1.0, name_suffix=".dgrad"),
        head.scaled(1.0, name_suffix=".wgrad"),
        KernelSpec(
            name="embed.bwd",
            kind=KernelKind.EMBEDDING,
            flops=float(tokens) * h,
            bytes_moved=embed_bytes,
            path=shape.path,
            efficiency=0.7,
        ),
    ]


def build_forward_kernels(
    model: ModelSpec, shape: TrainingShape, layers: range = None  # type: ignore[assignment]
) -> List[KernelSpec]:
    """Forward kernels for a layer range (default: the whole model)."""
    if layers is None:
        layers = range(model.num_layers)
    kernels: List[KernelSpec] = []
    for layer in layers:
        kernels.extend(build_layer_forward(model, shape, layer))
    return kernels


def build_backward_kernels(
    model: ModelSpec, shape: TrainingShape, layers: range = None  # type: ignore[assignment]
) -> List[KernelSpec]:
    """Backward kernels for a layer range, in reverse layer order."""
    if layers is None:
        layers = range(model.num_layers)
    kernels: List[KernelSpec] = []
    for layer in reversed(list(layers)):
        kernels.extend(build_layer_backward(model, shape, layer))
    return kernels


def build_optimizer_kernels(
    model: ModelSpec,
    shape: TrainingShape,
    params: float = None,  # type: ignore[assignment]
) -> List[KernelSpec]:
    """Adam optimizer step over ``params`` parameters (default: all).

    Mixed-precision Adam touches ~16 bytes/state read + ~12 written per
    parameter (fp32 master weight, m, v, fp16 copy).
    """
    if params is None:
        params = float(model.num_params)
    if params <= 0:
        raise ConfigurationError("optimizer must update a positive param count")
    # Adam is a bandwidth-bound elementwise update over FP32 master
    # weights; it runs on the vector pipes regardless of the GEMM
    # datapath the training run uses.
    return [
        KernelSpec(
            name="adam_step",
            kind=KernelKind.OPTIMIZER,
            flops=10.0 * params,
            bytes_moved=28.0 * params,
            path=ComputePath(Precision.FP32, Datapath.VECTOR),
            efficiency=0.9,
        )
    ]


def layer_flops(model: ModelSpec, shape: TrainingShape) -> float:
    """Forward FLOPs of one decoder block (for balance/placement)."""
    return sum(k.flops for k in build_layer_forward(model, shape, 0))


@dataclass
class IterationKernels:
    """Convenience bundle: one full training iteration's kernels."""

    forward: List[KernelSpec] = field(default_factory=list)
    backward: List[KernelSpec] = field(default_factory=list)
    optimizer: List[KernelSpec] = field(default_factory=list)


def build_iteration(model: ModelSpec, shape: TrainingShape) -> IterationKernels:
    """Full-iteration kernel bundle (single-GPU view, no parallelism)."""
    return IterationKernels(
        forward=build_head_forward(model, shape)[:1]
        + build_forward_kernels(model, shape)
        + build_head_forward(model, shape)[1:],
        backward=build_head_backward(model, shape)
        + build_backward_kernels(model, shape),
        optimizer=build_optimizer_kernels(model, shape),
    )
