"""Unit tests for the decoder MLP."""

import numpy as np
import pytest

from repro.nerf.encoding import positional_encoding
from repro.nerf.mlp import MLP, MLPSpec, build_decoder_mlp


class TestMLPSpec:
    def test_paper_geometry(self):
        spec = MLPSpec()
        assert spec.layer_dims == (39, 128, 128, 3)
        assert spec.num_layers == 3

    def test_macs_per_sample(self):
        spec = MLPSpec()
        assert spec.macs_per_sample == 39 * 128 + 128 * 128 + 128 * 3

    def test_parameter_count(self):
        spec = MLPSpec(input_dim=4, hidden_dims=(8,), output_dim=2)
        assert spec.num_parameters == 4 * 8 + 8 + 8 * 2 + 2


class TestMLP:
    def test_random_forward_shape(self):
        mlp = MLP.random(MLPSpec(), seed=0)
        out = mlp.forward(np.zeros((5, 39)))
        assert out.shape == (5, 3)

    def test_sigmoid_output_in_unit_interval(self):
        mlp = MLP.random(MLPSpec(), seed=1, scale=1.0)
        out = mlp.forward(np.random.default_rng(0).normal(size=(20, 39)))
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_no_sigmoid_option(self):
        mlp = MLP.random(MLPSpec(), seed=1)
        raw = mlp.forward(np.zeros((2, 39)), apply_sigmoid=False)
        squashed = mlp.forward(np.zeros((2, 39)), apply_sigmoid=True)
        assert not np.allclose(raw, squashed)

    def test_single_vector_promoted_to_batch(self):
        mlp = MLP.random(MLPSpec(), seed=2)
        out = mlp.forward(np.zeros(39))
        assert out.shape == (1, 3)

    def test_wrong_input_dim_rejected(self):
        mlp = MLP.random(MLPSpec(), seed=0)
        with pytest.raises(ValueError):
            mlp.forward(np.zeros((4, 40)))

    def test_layer_shape_validation(self):
        spec = MLPSpec()
        with pytest.raises(ValueError):
            MLP(spec=spec, weights=[np.zeros((2, 2))], biases=[np.zeros(2)])

    def test_forward_with_activations_layers(self):
        mlp = MLP.random(MLPSpec(), seed=0)
        acts = mlp.forward_with_activations(np.zeros((3, 39)))
        # input, 3 layer outputs, sigmoid output
        assert len(acts) == 5
        assert acts[-1].shape == (3, 3)

    @pytest.mark.parametrize("mlp", [MLP.random(MLPSpec(), seed=3, scale=2.0), build_decoder_mlp()])
    def test_forward_matches_forward_with_activations_bytes(self, mlp):
        """The in-place forward pass computes exactly the unfused activations."""
        inputs = np.random.default_rng(4).normal(size=(257, 39))
        for apply_sigmoid, expected in ((True, -1), (False, -2)):
            out = mlp.forward(inputs, apply_sigmoid=apply_sigmoid)
            reference = mlp.forward_with_activations(inputs)[expected]
            assert out.dtype == reference.dtype
            assert out.tobytes() == reference.tobytes()

    def test_parameter_bytes_fp16(self):
        mlp = MLP.random(MLPSpec(), seed=0)
        assert mlp.parameter_bytes(2) == MLPSpec().num_parameters * 2

    def test_copy_is_independent(self):
        mlp = MLP.random(MLPSpec(), seed=0)
        clone = mlp.copy()
        clone.weights[0][0, 0] += 1.0
        assert mlp.weights[0][0, 0] != clone.weights[0][0, 0]


class TestDecoderMLP:
    def test_decoder_tracks_albedo_channels(self):
        mlp = build_decoder_mlp(feature_dim=12)
        albedo = np.array([0.8, 0.3, 0.6])
        logit = np.log(albedo / (1 - albedo))
        features = np.zeros((1, 12), dtype=np.float32)
        features[0, :3] = logit
        view = positional_encoding(np.array([[0.0, 1.0, 0.0]]))
        out = mlp.forward(np.concatenate([features, view], axis=-1))
        # View dependence perturbs the color slightly but it must stay close
        # to the stored albedo.
        assert np.allclose(out[0], albedo, atol=0.2)

    def test_decoder_is_view_dependent(self):
        mlp = build_decoder_mlp(feature_dim=12)
        features = np.zeros((1, 12), dtype=np.float32)
        v1 = positional_encoding(np.array([[0.0, 1.0, 0.0]]))
        v2 = positional_encoding(np.array([[1.0, 0.0, 0.0]]))
        out1 = mlp.forward(np.concatenate([features, v1], axis=-1))
        out2 = mlp.forward(np.concatenate([features, v2], axis=-1))
        assert not np.allclose(out1, out2)

    def test_decoder_deterministic(self):
        a = build_decoder_mlp(seed=7)
        b = build_decoder_mlp(seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_decoder_input_width_matches_paper(self):
        mlp = build_decoder_mlp(feature_dim=12, num_view_frequencies=4)
        assert mlp.spec.input_dim == 39
