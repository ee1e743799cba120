from __future__ import annotations

import json
import math

import numpy as np
import pytest

from routebench.experts import ImageGrid, LinearAdapter
from routebench.router import (
    RouterParams,
    RoutingWeights,
    ToyClipParams,
    _clip_spec,
    clip_encode,
    route_logits,
    routing_weights,
    select_top_k,
    softmax,
)


def brute_force_top_k(weights: np.ndarray, k: int):
    """Independent reference: sort by (-weight, id), keep k, renormalize.

    k == n is the identity by contract, so no renormalization happens there.
    """
    n = weights.size
    if k == n:
        return weights.copy(), frozenset(range(n))
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    kept = sorted(order[:k])
    mask = np.zeros(n, dtype=bool)
    mask[kept] = True
    total = weights[mask].sum()
    return np.where(mask, weights / total, 0.0), frozenset(kept)


class TestRoutingWeights:
    def test_softmax_worked_example(self):
        out = routing_weights(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out.weights, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)
        assert out.active == frozenset({0, 1})

    def test_simplex_properties_random(self):
        rng = np.random.default_rng(0)
        for n in range(2, 9):
            for _ in range(100):
                logits = rng.uniform(-50, 50, size=n)
                out = routing_weights(logits)
                assert abs(out.weights.sum() - 1.0) <= 1e-9
                assert out.weights.min() >= 0.0 and out.weights.max() <= 1.0
                assert int(np.argmax(out.weights)) == int(np.argmax(logits))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.uniform(-50, 50, size=6)
            c = rng.uniform(-1000, 1000)
            a = routing_weights(logits).weights
            b = routing_weights(logits + c).weights
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        for logits in ([1e6, -1e6], [1e6, 1e6], [-1e6, -1e6, 0.0]):
            out = routing_weights(np.array(logits))
            assert np.isfinite(out.weights).all()
            assert abs(out.weights.sum() - 1.0) <= 1e-9

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="non-empty"):
            routing_weights(np.array([]))
        with pytest.raises(ValueError, match="non-finite"):
            routing_weights(np.array([1.0, np.inf]))

    def test_validation_rejects_leaky_inactive_weight(self):
        with pytest.raises(ValueError, match="non-zero weight"):
            RoutingWeights(np.array([0.5, 0.5]), frozenset({0}))

    @pytest.mark.parametrize(
        "weights, active, message",
        [
            ([0.5, 0.4], {0, 1}, "must sum to 1, got"),
            ([[0.5, 0.5]], {0, 1}, "must be a non-empty vector"),
            ([], set(), "must be a non-empty vector"),
            ([0.5, np.nan], {0, 1}, "contain non-finite values"),
            ([1.5, -0.5], {0, 1}, r"must lie in \[0, 1\]"),
            ([0.5, 0.5], {0, 2}, r"^active set \[0, 2\] out of range for 2 experts$"),
        ],
        ids=["bad-sum", "not-a-vector", "empty", "non-finite", "outside-unit", "active-out-of-range"],
    )
    def test_validation_rejects(self, weights, active, message):
        with pytest.raises(ValueError, match=message):
            RoutingWeights(np.array(weights), frozenset(active))


class TestTopK:
    def test_worked_example(self):
        routing = RoutingWeights(np.array([0.5, 0.3, 0.2]), frozenset({0, 1, 2}))
        out = select_top_k(routing, 2)
        np.testing.assert_array_equal(out.weights, [0.5 / 0.8, 0.3 / 0.8, 0.0])
        assert out.active == frozenset({0, 1})

    def test_k_equals_n_returns_copy(self):
        routing = RoutingWeights(np.array([0.25, 0.75]), frozenset({0, 1}))
        out = select_top_k(routing, 2)
        np.testing.assert_array_equal(out.weights, routing.weights)
        assert not np.shares_memory(out.weights, routing.weights)
        assert out.active == frozenset({0, 1})

    def test_ties_keep_lowest_ids(self):
        routing = RoutingWeights(np.array([0.25, 0.25, 0.25, 0.25]), frozenset(range(4)))
        out = select_top_k(routing, 2)
        assert out.active == frozenset({0, 1})
        np.testing.assert_array_equal(out.weights, [0.5, 0.5, 0.0, 0.0])

    def test_matches_brute_force_including_ties(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for _ in range(60):
                    if rng.random() < 0.5:
                        # quantized weights force frequent ties
                        raw = rng.integers(1, 4, size=n).astype(np.float64)
                    else:
                        raw = rng.random(n) + 1e-3
                    weights = raw / raw.sum()
                    routing = RoutingWeights(weights, frozenset(range(n)))
                    got = select_top_k(routing, k)
                    want_w, want_active = brute_force_top_k(weights, k)
                    np.testing.assert_array_equal(got.weights, want_w)
                    assert got.active == want_active

    def test_out_of_range_k_rejected(self):
        routing = RoutingWeights(np.array([1.0]), frozenset({0}))
        for k in (0, 2, -1):
            with pytest.raises(ValueError, match="k must be"):
                select_top_k(routing, k)


def assert_same_routing(got: RoutingWeights, want_weights: np.ndarray, want_active: frozenset):
    """``got`` passes the checked constructor and equals the reference byte for byte."""
    RoutingWeights(got.weights, got.active)
    assert got.weights.dtype == np.float64 and got.weights.shape == want_weights.shape
    assert got.weights.tobytes() == want_weights.tobytes()
    assert type(got.active) is frozenset and got.active == want_active
    assert all(type(i) is int for i in got.active)


class TestUncheckedConstruction:
    """``routing_weights`` and ``select_top_k`` build their results without
    the constructor's checks; every result must still pass them and match
    the checked construction byte for byte."""

    @staticmethod
    def random_logits(rng, n):
        kind = rng.integers(3)
        if kind == 0:
            return rng.normal(size=n)
        if kind == 1:  # few distinct values: ties in the weights and the top-k order
            return rng.integers(-1, 2, size=n).astype(np.float64)
        return rng.normal(size=n) * 800.0  # most weights underflow to exactly 0

    def test_results_pass_the_checked_constructor_unchanged(self):
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            for _ in range(40):
                logits = self.random_logits(rng, n)
                routing = routing_weights(logits)
                checked = RoutingWeights(softmax(logits), frozenset(range(n)))
                assert_same_routing(routing, checked.weights, checked.active)
                for k in range(1, n + 1):
                    want_w, want_active = brute_force_top_k(checked.weights, k)
                    assert_same_routing(select_top_k(routing, k), want_w, want_active)

    @staticmethod
    def sorted_top_k(routing, k):
        """select_top_k's general path: a stable argsort, then renormalize."""
        order = np.argsort(-routing.weights, kind="stable")
        kept = np.sort(order[:k])
        mask = np.zeros(routing.n_experts, dtype=bool)
        mask[kept] = True
        out = np.where(mask, routing.weights / routing.weights[mask].sum(), 0.0)
        return out, frozenset(int(i) for i in kept)

    def test_top_1_equals_the_sorted_path(self):
        rng = np.random.default_rng(15)
        cases = [
            RoutingWeights(np.full(4, 0.25), frozenset(range(4))),
            RoutingWeights(np.array([0.0, 0.5, 0.5]), frozenset({1, 2})),
            RoutingWeights(np.array([0.0, 1.0, 0.0]), frozenset({1})),
            RoutingWeights(np.array([0.1, 0.3, 0.3, 0.3]), frozenset(range(4))),
        ]
        cases += [routing_weights(self.random_logits(rng, n)) for n in range(2, 9) for _ in range(40)]
        for routing in cases:
            assert_same_routing(select_top_k(routing, 1), *self.sorted_top_k(routing, 1))


class TestRouteLogits:
    def test_worked_example(self):
        params = RouterParams(np.array([[2.0, -1.0], [0.0, 3.0]]), np.array([0.5, 0.5]))
        logits = route_logits(np.array([1.0, 0.0]), params)
        np.testing.assert_array_equal(logits, [2.5, -0.5])

    @pytest.mark.parametrize(
        "cls, message",
        [
            (np.zeros(3), r"^cls has shape \(3,\), router expects \(4,\)$"),
            (np.array([0.0, np.inf, 0.0, 0.0]), "^cls contains non-finite values$"),
        ],
        ids=["shape-mismatch", "non-finite"],
    )
    def test_bad_cls_rejected(self, cls, message):
        params = RouterParams(np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ValueError, match=message):
            route_logits(cls, params)

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        params = RouterParams(rng.normal(size=(5, 3)), rng.normal(size=3))
        loaded = RouterParams.from_json_dict(json.loads(json.dumps(params.to_json_dict())))
        np.testing.assert_array_equal(loaded.weights, params.weights)
        np.testing.assert_array_equal(loaded.bias, params.bias)

    def test_malformed_document_rejected(self):
        doc = {"dim_in": 2, "n_experts": 2, "weights": [1, 2, 3], "bias": [0, 0]}
        with pytest.raises(ValueError, match="length"):
            RouterParams.from_json_dict(doc)

    @pytest.mark.parametrize(
        "weights, bias",
        [
            (["0.5", True], [0, "1e0"]),  # strings would cast to numbers
            ([0.5, True], [0, 1]),  # a bool is not a number
            ([0.5, 1.0], [0, None]),
            ([[0.5, 1.0]], [0, 1]),  # the weights are flat, row-major
            ({"0": 0.5, "1": 1.0}, [0, 1]),
            ([0.5, 1.0], "0 1"),
        ],
    )
    def test_non_number_arrays_rejected(self, weights, bias):
        doc = {"dim_in": 1, "n_experts": 2, "weights": weights, "bias": bias}
        with pytest.raises(ValueError, match="^malformed router document: .*JSON arrays of numbers"):
            RouterParams.from_json_dict(doc)

    def test_integer_entries_load_as_floats(self):
        params = RouterParams.from_json_dict(
            {"dim_in": 1, "n_experts": 2, "weights": [1, 0.5], "bias": [0, -2]}
        )
        assert params.weights.dtype == params.bias.dtype == np.float64
        assert params.weights.tolist() == [[1.0, 0.5]] and params.bias.tolist() == [0.0, -2.0]

    def test_router_is_a_validated_adapter(self):
        params = RouterParams(np.zeros((4, 3)), np.zeros(3))
        assert isinstance(params, LinearAdapter)
        assert (params.dim_in, params.n_experts) == (params.in_dim, params.out_dim) == (4, 3)
        for weights, bias in (
            (np.zeros((0, 3)), np.zeros(3)),
            (np.zeros((4, 3)), np.zeros(2)),
            (np.full((4, 3), np.nan), np.zeros(3)),
        ):
            with pytest.raises(ValueError, match="adapter"):
                RouterParams(weights, bias)


class TestClipEncode:
    def test_zero_image_gives_zero_cls(self):
        image = ImageGrid(np.zeros((16, 16, 3)))
        out = clip_encode(image, ToyClipParams(seed=0, tokens=16, dim=8))
        assert np.all(out.cls == 0.0)
        assert np.all(out.patches.values == 0.0)

    def test_cls_is_column_mean_of_patches(self):
        rng = np.random.default_rng(4)
        image = ImageGrid(rng.random((24, 24, 3)))
        out = clip_encode(image, ToyClipParams(seed=7, tokens=16, dim=6))
        np.testing.assert_array_equal(out.cls, out.patches.values.mean(axis=0))
        assert out.patches.source == "clip-patch"

    def test_canonical_geometry_from_non_dividing_image(self):
        # 64x64 image with a 24x24 canonical grid: native 16x16 grid upsampled.
        rng = np.random.default_rng(5)
        image = ImageGrid(rng.random((64, 64, 3)))
        out = clip_encode(image, ToyClipParams(seed=1, tokens=576, dim=16))
        assert out.patches.tokens == 576
        assert out.patches.dim == 16

    # The judging geometry, and test_fusion's mixed_config geometry.
    @pytest.mark.parametrize(
        "params",
        [ToyClipParams(seed=0, tokens=64, dim=24), ToyClipParams(seed=7, tokens=16, dim=16)],
        ids=["judging", "mixed"],
    )
    @pytest.mark.parametrize("height, width", [(1, 1), (7, 5), (13, 13), (64, 48), (96, 96)])
    def test_any_valid_image_encodes(self, params, height, width):
        # The pipeline runs clip-encode without a failure branch: every
        # image size gets a dividing patch grid and finite patches, and cls
        # is their column mean bit for bit.
        image = ImageGrid(np.random.default_rng(height * width).random((height, width, 3)))
        out = clip_encode(image, params)
        assert out.patches.values.shape == (params.tokens, params.dim)
        assert np.isfinite(out.patches.values).all()
        assert out.cls.tobytes() == out.patches.values.mean(axis=0).tobytes()

    def test_native_grid_is_largest_gcd_divisor_within_canonical_side(self):
        # The parent's loop over every integer up to the gcd, as reference.
        for height, width in ((36, 60), (64, 64), (7, 7), (384, 384), (12, 18), (1, 5)):
            for tokens in (1, 4, 16, 64, 576):
                g = math.gcd(height, width)
                best = 1
                for d in range(1, g + 1):
                    if g % d == 0 and d <= math.isqrt(tokens):
                        best = d
                spec = _clip_spec(height, width, ToyClipParams(seed=2, tokens=tokens, dim=8))
                assert spec.native_tokens == best * best, (height, width, tokens)
                assert (spec.persona, spec.seed, spec.native_dim) == ("random-projection", 2, 8)

    def test_geometry_derived_once_per_image_size(self):
        params = ToyClipParams(seed=11, tokens=16, dim=4)
        image = ImageGrid(np.random.default_rng(9).random((20, 20, 3)))
        clip_encode(image, params)
        hits = _clip_spec.cache_info().hits
        clip_encode(image, params)
        assert _clip_spec.cache_info().hits == hits + 1

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        image = ImageGrid(rng.random((32, 32, 3)))
        params = ToyClipParams(seed=3, tokens=64, dim=12)
        a = clip_encode(image, params)
        b = clip_encode(image, params)
        assert a.patches.values.tobytes() == b.patches.values.tobytes()
        assert a.cls.tobytes() == b.cls.tobytes()

    @pytest.mark.parametrize(
        "tokens, message", [(10, "a perfect square, got 10"), (0, "positive, got 0")]
    )
    def test_params_reject_non_square_grid(self, tokens, message):
        with pytest.raises(ValueError, match=f"^tokens must be {message}$"):
            ToyClipParams(seed=0, tokens=tokens, dim=4)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_params_reject_nonpositive_dim(self, dim):
        with pytest.raises(ValueError) as excinfo:
            ToyClipParams(seed=0, tokens=4, dim=dim)
        assert str(excinfo.value) == f"dim must be >= 1, got {dim}"

    def test_params_reject_negative_seed(self):
        with pytest.raises(ValueError) as excinfo:
            ToyClipParams(seed=-1, tokens=4, dim=4)
        assert str(excinfo.value) == "seed must be >= 0, got -1"

    def test_params_have_no_default_geometry(self):
        with pytest.raises(TypeError):
            ToyClipParams(seed=0)

