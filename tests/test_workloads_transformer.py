"""Per-layer kernel decomposition of transformer training."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.datapath import FP16_TENSOR
from repro.sim.engine import reset_shared_evaluators
from repro.workloads.kernels import KernelKind
from repro.workloads.registry import get_model
from repro.workloads.transformer import (
    TrainingShape,
    build_backward_kernels,
    build_forward_kernels,
    build_head_backward,
    build_head_forward,
    build_iteration,
    build_layer_backward,
    build_layer_forward,
    build_optimizer_kernels,
    layer_flops,
)

MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=8)


def test_forward_layer_contains_expected_gemms():
    kernels = build_layer_forward(MODEL, SHAPE, 0)
    names = [k.name for k in kernels]
    for expected in ("qkv", "attn_scores", "attn_context", "attn_out",
                     "mlp_up", "mlp_down"):
        assert any(expected in n for n in names), expected


def test_gated_ffn_adds_gate_projection():
    llama = get_model("llama2-13b")
    names = [k.name for k in build_layer_forward(llama, SHAPE, 0)]
    assert any("mlp_gate" in n for n in names)


def test_backward_has_dgrad_and_wgrad_per_gemm():
    fwd = build_layer_forward(MODEL, SHAPE, 0)
    bwd = build_layer_backward(MODEL, SHAPE, 0)
    fwd_gemm_flops = sum(
        k.flops for k in fwd if k.kind in (KernelKind.GEMM, KernelKind.ATTENTION)
    )
    bwd_gemm_flops = sum(
        k.flops for k in bwd if k.kind in (KernelKind.GEMM, KernelKind.ATTENTION)
    )
    assert bwd_gemm_flops == pytest.approx(2.0 * fwd_gemm_flops)


def test_checkpointing_adds_recompute():
    ckpt_shape = TrainingShape(batch_size=8, activation_checkpointing=True)
    plain = build_layer_backward(MODEL, SHAPE, 0)
    ckpt = build_layer_backward(MODEL, ckpt_shape, 0)
    assert sum(k.flops for k in ckpt) > sum(k.flops for k in plain)
    assert any("recompute" in k.name for k in ckpt)


def test_forward_flops_scale_linearly_with_batch():
    small = sum(k.flops for k in build_forward_kernels(MODEL, SHAPE))
    big_shape = SHAPE.with_batch(16)
    big = sum(k.flops for k in build_forward_kernels(MODEL, big_shape))
    assert big == pytest.approx(2.0 * small, rel=1e-6)


def test_layer_flops_matches_6nd_rule():
    """Forward FLOPs per layer should be near 2 * tokens * params/layer
    (the '6ND' rule's forward share) plus the attention term."""
    fwd = layer_flops(MODEL, SHAPE)
    tokens = SHAPE.tokens
    approx = 2.0 * tokens * MODEL.params_per_layer
    attention = 4.0 * tokens * SHAPE.seq_len * MODEL.hidden_dim
    assert fwd == pytest.approx(approx + attention, rel=0.1)


def test_head_kernels():
    fwd = build_head_forward(MODEL, SHAPE)
    assert fwd[0].kind is KernelKind.EMBEDDING
    assert "lm_head" in fwd[1].name
    bwd = build_head_backward(MODEL, SHAPE)
    assert len(bwd) == 3


def test_optimizer_touches_all_params_by_default():
    opt = build_optimizer_kernels(MODEL, SHAPE)
    assert len(opt) == 1
    assert opt[0].bytes_moved == pytest.approx(28.0 * MODEL.num_params)


def test_optimizer_sharded_params():
    opt = build_optimizer_kernels(MODEL, SHAPE, params=MODEL.num_params / 4)
    assert opt[0].bytes_moved == pytest.approx(7.0 * MODEL.num_params)


def test_optimizer_rejects_zero_params():
    with pytest.raises(ConfigurationError):
        build_optimizer_kernels(MODEL, SHAPE, params=0.0)


def test_backward_emitted_in_reverse_layer_order():
    kernels = build_backward_kernels(MODEL, SHAPE, layers=range(3))
    first_layer_mentions = [
        int(k.name.split(".")[0][1:]) for k in kernels if k.name.startswith("L")
    ]
    assert first_layer_mentions[0] == 2
    assert first_layer_mentions[-1] == 0


def test_iteration_bundle_totals():
    bundle = build_iteration(MODEL, SHAPE)
    assert bundle.total_flops > 0
    fwd_flops = sum(k.flops for k in bundle.forward)
    bwd_flops = sum(k.flops for k in bundle.backward)
    assert bwd_flops > fwd_flops  # backward ~2x forward


def test_shape_validation():
    with pytest.raises(ConfigurationError):
        TrainingShape(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainingShape(batch_size=8, seq_len=0)
    assert TrainingShape(batch_size=8).tokens == 8 * 1024
    assert SHAPE.with_batch(2).path is SHAPE.path


def test_layer_builders_are_memoized_tuples():
    reset_shared_evaluators()
    ckpt_shape = TrainingShape(batch_size=8, activation_checkpointing=True)
    for shape in (SHAPE, ckpt_shape):
        fwd = build_layer_forward(MODEL, shape, 3)
        bwd = build_layer_backward(MODEL, shape, 3)
        assert isinstance(fwd, tuple) and isinstance(bwd, tuple)
        # Equal to an uncached build, kernel for kernel.
        assert fwd == build_layer_forward.__wrapped__(MODEL, shape, 3)
        assert bwd == build_layer_backward.__wrapped__(MODEL, shape, 3)
        # An equal model and shape built separately get the same tuple.
        twin = TrainingShape(
            batch_size=8,
            activation_checkpointing=shape.activation_checkpointing,
        )
        assert build_layer_forward(get_model("gpt3-xl"), twin, 3) is fwd
        assert build_layer_backward(MODEL, twin, 3) is bwd
    assert build_layer_forward(MODEL, SHAPE, 4) != build_layer_forward(
        MODEL, SHAPE, 3
    )


def test_reset_shared_evaluators_empties_the_layer_memo():
    build_layer_forward(MODEL, SHAPE, 0)
    build_layer_backward(MODEL, SHAPE, 0)
    assert build_layer_forward.cache_info().currsize > 0
    reset_shared_evaluators()
    assert build_layer_forward.cache_info().currsize == 0
    assert build_layer_backward.cache_info().currsize == 0
