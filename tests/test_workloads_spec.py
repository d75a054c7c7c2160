"""Model specs (paper Table II) and parameter accounting."""

import pytest

from repro.errors import ConfigurationError, UnknownSpecError
from repro.workloads.registry import get_model, list_models
from repro.workloads.spec import ModelSpec


def test_registry_matches_table2():
    assert list_models() == (
        "gpt3-xl",
        "gpt3-2.7b",
        "gpt3-6.7b",
        "gpt3-13b",
        "llama2-13b",
    )


@pytest.mark.parametrize(
    "name,layers,heads,hidden",
    [
        ("gpt3-xl", 24, 32, 2048),
        ("gpt3-2.7b", 32, 32, 2560),
        ("gpt3-6.7b", 32, 32, 4096),
        ("gpt3-13b", 40, 40, 5120),
        ("llama2-13b", 40, 40, 5120),
    ],
)
def test_table2_architectures(name, layers, heads, hidden):
    model = get_model(name)
    assert model.num_layers == layers
    assert model.num_heads == heads
    assert model.hidden_dim == hidden


@pytest.mark.parametrize(
    "name,nominal_billions,tolerance",
    [
        ("gpt3-xl", 1.3, 0.2),
        ("gpt3-2.7b", 2.7, 0.3),
        ("gpt3-6.7b", 6.7, 0.5),
        ("gpt3-13b", 13.0, 1.0),
        ("llama2-13b", 13.0, 1.0),
    ],
)
def test_derived_parameter_counts_near_nominal(name, nominal_billions, tolerance):
    model = get_model(name)
    assert model.billions == pytest.approx(nominal_billions, abs=tolerance)


def test_llama_uses_gated_ffn_and_smaller_vocab():
    llama = get_model("llama2-13b")
    gpt = get_model("gpt3-13b")
    assert llama.gated_ffn and not gpt.gated_ffn
    assert llama.vocab_size == 32_000
    assert gpt.vocab_size == 50_257
    assert llama.ffn_dim == 13_824


def test_head_dim_divides():
    for name in list_models():
        model = get_model(name)
        assert model.hidden_dim % model.num_heads == 0


def test_params_per_layer_formula():
    model = get_model("gpt3-xl")
    h = model.hidden_dim
    expected = 4 * h * h + 2 * h * model.ffn_dim + 4 * h
    assert model.params_per_layer == expected


def test_unknown_model_raises():
    with pytest.raises(UnknownSpecError):
        get_model("gpt4")


def test_invalid_spec_rejected():
    with pytest.raises(ConfigurationError):
        ModelSpec(
            name="bad",
            family="x",
            num_layers=2,
            num_heads=3,
            hidden_dim=100,  # not divisible by heads
        )
    with pytest.raises(ConfigurationError):
        ModelSpec(
            name="bad", family="x", num_layers=0, num_heads=2, hidden_dim=64
        )


def test_describe_mentions_size():
    text = get_model("gpt3-13b").describe()
    assert "40 layers" in text and "hidden 5120" in text
