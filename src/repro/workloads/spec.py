"""Transformer model specifications (paper Table II)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a decoder-only transformer LM.

    The fields mirror Table II of the paper. ``ffn_multiplier`` is 4 for
    GPT-3; LLaMA-2 uses a gated FFN whose effective width is ~2.7x the
    hidden size but with three projection matrices.
    """

    name: str
    family: str
    num_layers: int
    num_heads: int
    hidden_dim: int
    vocab_size: int = 50_257
    ffn_multiplier: float = 4.0
    gated_ffn: bool = False

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.num_heads <= 0 or self.hidden_dim <= 0:
            raise ConfigurationError(
                f"{self.name}: layers, heads and hidden dim must be positive"
            )
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"{self.name}: hidden_dim must divide evenly across heads"
            )
        if self.vocab_size <= 0:
            raise ConfigurationError(f"{self.name}: vocab_size must be positive")

    @property
    def ffn_dim(self) -> int:
        """Feed-forward inner width."""
        return int(self.hidden_dim * self.ffn_multiplier)

    @property
    def params_per_layer(self) -> int:
        """Parameter count of one transformer block.

        Attention contributes 4 h^2 (QKV + output projection); the FFN
        contributes 2 * h * ffn for a plain MLP and 3 * h * ffn for a
        gated (SwiGLU) MLP; layer norms add 2h-4h.
        """
        attn = 4 * self.hidden_dim * self.hidden_dim
        ffn_mats = 3 if self.gated_ffn else 2
        ffn = ffn_mats * self.hidden_dim * self.ffn_dim
        norms = 4 * self.hidden_dim
        return attn + ffn + norms

    @property
    def embedding_params(self) -> int:
        """Token embedding (tied with the LM head)."""
        return self.vocab_size * self.hidden_dim

    @property
    def num_params(self) -> int:
        """Total trainable parameters."""
        return self.num_layers * self.params_per_layer + self.embedding_params

    @property
    def billions(self) -> float:
        """Parameter count in billions, for display."""
        return self.num_params / 1e9

    def describe(self) -> str:
        """One-line summary matching Table II's columns."""
        return (
            f"{self.name}: {self.billions:.1f}B params, "
            f"{self.num_layers} layers, {self.num_heads} heads, "
            f"hidden {self.hidden_dim}"
        )
