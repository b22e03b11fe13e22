"""The small color-decoder MLP.

VQRF's decoder is a 3-layer MLP with channel sizes 128, 128 and 3 (Section
II-A of the paper); its input is the interpolated 12-channel color feature
concatenated with the 27-channel encoded view direction (39 elements, matching
Fig. 5's input vector).  The SpNeRF accelerator executes exactly this network
on an output-stationary systolic array, so the same :class:`MLP` object also
drives the hardware model's workload accounting.

Because no pretrained checkpoint ships with the paper, :func:`build_decoder_mlp`
constructs deterministic weights that decode the first three feature channels
into RGB (with a mild view-dependent term), giving a well-defined "trained"
scene whose images every pipeline in the repository can be compared against.
A gradient-based fitting path is available in :mod:`repro.nerf.training`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.nerf.encoding import view_encoding_dim

__all__ = ["MLPSpec", "MLP", "build_decoder_mlp"]


@dataclass(frozen=True)
class MLPSpec:
    """Shape description of the decoder MLP."""

    input_dim: int = 39
    hidden_dims: Tuple[int, ...] = (128, 128)
    output_dim: int = 3

    @property
    def layer_dims(self) -> Tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def num_layers(self) -> int:
        return len(self.hidden_dims) + 1

    @property
    def num_parameters(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    @property
    def macs_per_sample(self) -> int:
        """Multiply-accumulate operations for one forward sample."""
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class MLP:
    """A plain fully-connected network with ReLU hidden and sigmoid output.

    Weights are stored as a list of ``(W, b)`` with ``W`` of shape
    ``(in_dim, out_dim)``.  The forward pass is numpy matmuls, which keeps the
    algorithm model and the systolic-array workload model numerically aligned.
    """

    spec: MLPSpec
    weights: List[np.ndarray] = field(default_factory=list)
    biases: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        dims = self.spec.layer_dims
        expected = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        if len(self.weights) != len(expected) or len(self.biases) != len(expected):
            raise ValueError(
                f"expected {len(expected)} weight/bias pairs, "
                f"got {len(self.weights)}/{len(self.biases)}"
            )
        for layer, (w, b, shape) in enumerate(zip(self.weights, self.biases, expected)):
            if w.shape != shape:
                raise ValueError(f"layer {layer}: weight shape {w.shape} != {shape}")
            if b.shape != (shape[1],):
                raise ValueError(f"layer {layer}: bias shape {b.shape} != ({shape[1]},)")

    # ------------------------------------------------------------------
    @classmethod
    def random(cls, spec: MLPSpec, seed: int = 0, scale: float = 0.1) -> "MLP":
        """Gaussian-initialised MLP (used by the trainer and property tests)."""
        rng = np.random.default_rng(seed)
        dims = spec.layer_dims
        weights = []
        biases = []
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            weights.append(
                rng.normal(0.0, scale / np.sqrt(fan_in), size=(dims[i], dims[i + 1])).astype(
                    np.float32
                )
            )
            biases.append(np.zeros(dims[i + 1], dtype=np.float32))
        return cls(spec=spec, weights=weights, biases=biases)

    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, apply_sigmoid: bool = True) -> np.ndarray:
        """Run the network on ``(N, input_dim)`` inputs, returning ``(N, 3)`` RGB."""
        x = np.asarray(inputs, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.spec.input_dim:
            raise ValueError(
                f"input dim {x.shape[-1]} does not match spec {self.spec.input_dim}"
            )
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # Bias and ReLU in place on the fresh matmul output: same values
            # as ``relu(x @ w + b)`` without two temporaries per layer.
            x = x @ w
            x += b
            if i < last:
                np.maximum(x, 0.0, out=x)
        if apply_sigmoid:
            x = _sigmoid(x)
        return x

    __call__ = forward

    def forward_with_activations(self, inputs: np.ndarray) -> List[np.ndarray]:
        """Forward pass that also returns every intermediate activation.

        Used by the trainer's backward pass and by tests that validate the
        hardware model layer by layer.
        """
        x = np.asarray(inputs, dtype=np.float32)
        activations = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w + b
            if i < len(self.weights) - 1:
                x = _relu(x)
            activations.append(x)
        activations.append(_sigmoid(activations[-1]))
        return activations

    # ------------------------------------------------------------------
    def parameter_bytes(self, dtype_bytes: int = 2) -> int:
        """Weight storage (FP16 on-chip by default, per the paper)."""
        return self.spec.num_parameters * dtype_bytes

    def copy(self) -> "MLP":
        return MLP(
            spec=self.spec,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def build_decoder_mlp(
    feature_dim: int = 12,
    num_view_frequencies: int = 4,
    view_dependence: float = 0.06,
    seed: int = 7,
) -> MLP:
    """Construct a deterministic decoder whose RGB tracks the first 3 features.

    The constructed network is a genuine 39 -> 128 -> 128 -> 3 MLP (every
    multiply happens), but its weights are arranged so that:

    * feature channels 0..2 pass through both hidden layers on dedicated
      positive/negative unit pairs (so ReLU never clips the signal), and
    * a small dense block mixes the encoded view direction into the output,
      scaled by ``view_dependence``.

    Scenes store (a logit-transformed) albedo in feature channels 0..2, so the
    decoder reproduces scene colors with mild view-dependent shading — a
    stand-in for a converged VQRF checkpoint that keeps every code path
    (39-wide inputs, 3 matmuls, sigmoid) identical to the real model.
    """
    view_dim = view_encoding_dim(num_view_frequencies)
    spec = MLPSpec(input_dim=feature_dim + view_dim, hidden_dims=(128, 128), output_dim=3)
    rng = np.random.default_rng(seed)

    dims = spec.layer_dims
    w1 = np.zeros((dims[0], dims[1]), dtype=np.float32)
    b1 = np.zeros(dims[1], dtype=np.float32)
    w2 = np.zeros((dims[1], dims[2]), dtype=np.float32)
    b2 = np.zeros(dims[2], dtype=np.float32)
    w3 = np.zeros((dims[2], dims[3]), dtype=np.float32)
    b3 = np.zeros(dims[3], dtype=np.float32)

    # Pass-through lanes: channel c uses hidden units 2c (positive part) and
    # 2c+1 (negative part) so that x = relu(x) - relu(-x) survives both ReLUs.
    for channel in range(3):
        pos, neg = 2 * channel, 2 * channel + 1
        w1[channel, pos] = 1.0
        w1[channel, neg] = -1.0
        w2[pos, pos] = 1.0
        w2[neg, neg] = 1.0
        w3[pos, channel] = 1.0
        w3[neg, channel] = -1.0

    # View-dependence block: encoded view direction -> a bank of hidden units
    # (starting at 8) -> small additive contribution to the RGB logits.
    view_units = 16
    view_start = 8
    view_block = rng.normal(0.0, 0.5, size=(view_dim, view_units)).astype(np.float32)
    w1[feature_dim:, view_start : view_start + view_units] = view_block
    b1[view_start : view_start + view_units] = 0.2
    w2[view_start : view_start + view_units, view_start : view_start + view_units] = np.eye(
        view_units, dtype=np.float32
    )
    w3[view_start : view_start + view_units, :] = (
        rng.normal(0.0, view_dependence, size=(view_units, 3)).astype(np.float32)
    )

    # Remaining feature channels contribute faint texture so that all 12
    # channels matter (and quantization error on them is observable).
    if feature_dim > 3:
        extra = rng.normal(0.0, 0.02, size=(feature_dim - 3, 3)).astype(np.float32)
        hidden_bank = np.arange(40, 40 + feature_dim - 3)
        for row, hidden in enumerate(hidden_bank):
            w1[3 + row, hidden] = 1.0
            b1[hidden] = 0.25
            w2[hidden, hidden] = 1.0
            w3[hidden, :] = extra[row]

    return MLP(spec=spec, weights=[w1, w2, w3], biases=[b1, b2, b3])
