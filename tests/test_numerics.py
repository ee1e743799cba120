from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from routebench import numerics
from routebench.experts import (
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
    identity_adapter,
    seeded_adapter,
)
from routebench.fusion import (
    FusionStrategy,
    PipelineConfig,
    ProjectorParams,
    _tail,
    _tail_params,
    run_pipeline,
)
from routebench.numerics import (
    CHECKED_PARAMS,
    check_router_fusion_gradients,
    finite_diff_gradient,
    _RoutedChain,
    small_gradcheck_config,
)
from routebench.router import RouterParams


def cubic_losses(stack):
    """Stacked protocol: one sum of cubes per row of ``stack``."""
    return (stack**3).reshape(len(stack), -1).sum(axis=1)


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        point = np.array([1.0, -2.0, 3.0])
        grad = finite_diff_gradient(lambda x: (x**2).sum(axis=-1), point)
        np.testing.assert_allclose(grad, 2 * point, rtol=0, atol=1e-8)

    def test_matrix_shaped_point(self):
        point = np.arange(6.0).reshape(2, 3)
        grad = finite_diff_gradient(lambda x: (x**3).sum(axis=(-2, -1)), point)
        np.testing.assert_allclose(grad, 3 * point**2, rtol=0, atol=1e-6)

    def test_non_finite_loss_names_coordinate(self):
        def fn(x):
            return np.where(x[:, 1] > 0.5, np.inf, x.sum(axis=-1))

        with pytest.raises(ValueError, match="coordinate 1"):
            finite_diff_gradient(fn, np.array([0.0, 0.5, 0.0]))

    def test_coordinate_subset_matches_full_gradient(self):
        point = np.arange(6.0).reshape(2, 3)
        full = finite_diff_gradient(cubic_losses, point).ravel()
        coords = np.array([4, 0, 5])
        np.testing.assert_array_equal(
            finite_diff_gradient(cubic_losses, point, coords=coords), full[coords]
        )

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            finite_diff_gradient(lambda x: np.zeros(len(x)), np.zeros(2), eps=0.0)

    def test_one_call_with_plus_rows_then_minus_rows(self):
        point = np.arange(6.0).reshape(2, 3)
        coords = np.array([4, 0, 5])
        calls = []

        def fn(stack):
            calls.append(stack.copy())
            return cubic_losses(stack)

        finite_diff_gradient(fn, point, eps=0.25, coords=coords)
        assert len(calls) == 1
        stack = calls[0]
        assert stack.shape == (6, 2, 3)
        for j, i in enumerate(coords):
            for row, sign in ((j, 1.0), (3 + j, -1.0)):
                want = point.ravel().copy()
                want[i] += sign * 0.25
                np.testing.assert_array_equal(stack[row].ravel(), want)

    def test_with_point_puts_point_first(self):
        point = np.arange(6.0).reshape(2, 3)
        coords = np.array([4, 0, 5])
        calls = []

        def fn(stack):
            calls.append(stack.copy())
            return cubic_losses(stack)

        grad = finite_diff_gradient(fn, point, 0.25, coords, with_point=True)
        stack = calls[0]
        assert stack.shape == (7, 2, 3)
        np.testing.assert_array_equal(stack[0], point)
        for j, i in enumerate(coords):
            for row, sign in ((1 + j, 1.0), (4 + j, -1.0)):
                want = point.ravel().copy()
                want[i] += sign * 0.25
                np.testing.assert_array_equal(stack[row].ravel(), want)
        np.testing.assert_array_equal(grad, finite_diff_gradient(cubic_losses, point, 0.25, coords))

    @pytest.mark.parametrize("coordinate", [-1, 3])
    def test_out_of_range_coordinate_rejected(self, coordinate):
        with pytest.raises(ValueError, match=f"coordinate {coordinate} is out of range"):
            finite_diff_gradient(lambda s: (s**2).sum(axis=1), np.ones(3), 1e-5, [coordinate])

    def test_non_finite_minus_half_names_first_coordinate_in_order(self):
        # Only lowering coordinate 2 and raising coordinate 0 blow up; in
        # ``coords`` order coordinate 2 comes first.
        def fn(x):
            bad = (x[:, 2] < -0.5) | (x[:, 0] > 0.5)
            return np.where(bad, np.nan, x.sum(axis=-1))

        point = np.array([0.5, 0.0, -0.5])
        with pytest.raises(ValueError, match="coordinate 2$"):
            finite_diff_gradient(fn, point, coords=[1, 2, 0])
        with pytest.raises(ValueError, match="coordinate 0$"):
            finite_diff_gradient(fn, point)


class TestGradCheck:
    def test_seeded_small_configs_pass(self):
        for seed in range(5):
            config, image = small_gradcheck_config(seed)
            reports = check_router_fusion_gradients(config, image)
            assert [r.parameter_name for r in reports] == list(CHECKED_PARAMS)
            for report in reports:
                assert report.passed, (seed, report)
                assert report.max_rel_error < 1e-6
                assert report.n_coordinates > 0

    def test_zero_experts_give_zero_router_gradient(self):
        # constant image + difference personas: every expert map is exactly 0,
        # so the loss cannot depend on the routing parameters
        experts = tuple(
            ToyExpertSpec(id=i, persona=p, seed=i, native_tokens=4, native_dim=4)
            for i, p in enumerate(("edge-shape", "text-stripe"))
        )
        rng = np.random.default_rng(3)
        config = PipelineConfig(
            experts=experts,
            router=RouterParams(rng.normal(size=(4, 2)), rng.normal(size=2)),
            strategy=FusionStrategy(kind="routed"),
            projector=ProjectorParams(stage1=identity_adapter(4), stage2=identity_adapter(4)),
            canonical_tokens=4,
            canonical_dim=4,
        )
        image = ImageGrid(np.full((8, 8, 3), 0.7))
        chain = _RoutedChain(image, config)
        grads = chain.analytic_gradients()
        assert np.all(grads["router.weights"] == 0.0)
        assert np.all(grads["router.bias"] == 0.0)
        reports = {r.parameter_name: r for r in check_router_fusion_gradients(config, image)}
        assert reports["router.weights"].degenerate
        assert reports["router.bias"].degenerate
        assert reports["router.weights"].passed
        assert not reports["projector.stage1.weights"].degenerate

    def test_checked_forward_is_the_pipeline_forward(self):
        # Widths 48 and 40 fold their adapters; 16 tiles with no adapter.
        experts = tuple(
            ToyExpertSpec(id=i, persona=p, seed=10 + i, native_tokens=16, native_dim=d)
            for i, (p, d) in enumerate(
                (("color-histogram", 48), ("edge-shape", 40), ("random-projection", 16))
            )
        )
        router = seeded_adapter(16, 3, seed=5)
        config = PipelineConfig(
            experts=experts,
            router=RouterParams(router.weights, router.bias),
            strategy=FusionStrategy(kind="routed"),
            projector=ProjectorParams(seeded_adapter(16, 12, seed=1), seeded_adapter(12, 16, seed=2)),
            canonical_tokens=16,
            canonical_dim=16,
        )
        image = ImageGrid(np.random.default_rng(4).random((16, 16, 3)))
        chain = _RoutedChain(image, config)
        w, *_, out = _tail(chain.cls, chain.patches, chain.maps, config)
        result = run_pipeline(image, config)
        assert np.count_nonzero(w) == 3
        assert w.tobytes() == result.routing.weights.tobytes()
        assert out.tobytes() == result.features.values.tobytes()

    def test_eps_sweep_does_not_blow_up(self):
        config, image = small_gradcheck_config(11)
        errors = {}
        for eps in (1e-4, 1e-5, 1e-6):
            reports = check_router_fusion_gradients(config, image, eps=eps)
            errors[eps] = max(r.max_rel_error for r in reports)
        assert errors[1e-6] <= 10.0 * errors[1e-5]

    def test_top_k_config_rejected(self):
        config, image = small_gradcheck_config(2)
        masked = PipelineConfig(
            experts=config.experts,
            router=config.router,
            strategy=FusionStrategy(kind="routed", k=1),
            projector=config.projector,
            canonical_tokens=config.canonical_tokens,
            canonical_dim=config.canonical_dim,
            clip_seed=config.clip_seed,
        )
        if len(config.experts) == 1:
            pytest.skip("needs at least 2 experts to mask")
        with pytest.raises(ValueError, match="soft routing"):
            check_router_fusion_gradients(masked, image)

    def test_stacked_losses_equal_unbatched_forward(self):
        # Each parameter alone, and router weights and bias as the check
        # stacks them: views into one stack of their concatenated values.
        groups = [(name,) for name in CHECKED_PARAMS] + [("router.weights", "router.bias")]
        for seed in range(40):
            config, image = small_gradcheck_config(seed)
            chain = _RoutedChain(image, config)
            base = _tail_params(config)
            for names in groups:
                flat = np.concatenate([base[n].ravel() for n in names])
                rng = np.random.default_rng(seed)
                stack = flat + rng.normal(scale=1e-3, size=(5, flat.size))
                params, lo = {}, 0
                for n in names:
                    params[n] = stack[:, lo : lo + base[n].size].reshape((5,) + base[n].shape)
                    lo += base[n].size
                stacked = _tail(chain.cls, chain.patches, chain.maps, config, params)[-1]
                losses = (stacked**2).sum(axis=(-2, -1))
                assert losses.shape == (5,)
                for b, loss in enumerate(losses):
                    row = {n: p[b] for n, p in params.items()}
                    out = _tail(chain.cls, chain.patches, chain.maps, config, row)[-1]
                    assert loss == float((out**2).sum()), (seed, names)

    @pytest.mark.parametrize("max_coords", [None, 3])
    def test_chunked_reports_equal_unchunked(self, monkeypatch, max_coords):
        configs = [small_gradcheck_config(seed) for seed in range(6)]
        whole = [
            check_router_fusion_gradients(c, i, seed=1, max_coords_per_param=max_coords)
            for c, i in configs
        ]
        for limit in (1, 3 * 2 * 16 * 8):
            monkeypatch.setattr(numerics, "_STACK_FLOATS", limit)
            chunked = [
                check_router_fusion_gradients(c, i, seed=1, max_coords_per_param=max_coords)
                for c, i in configs
            ]
            assert chunked == whole

    def test_small_configs_take_three_tail_forwards(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _tail(*args, **kwargs)

        monkeypatch.setattr(numerics, "_tail", counted)
        for seed in range(40):
            config, image = small_gradcheck_config(seed)
            calls.clear()
            check_router_fusion_gradients(config, image)
            assert len(calls) == 3, seed

    def test_router_stack_first_row_gives_unstacked_analytic_gradients(self, monkeypatch):
        unstacked = _RoutedChain.analytic_gradients
        seen = []

        def compared(chain, tail=None):
            assert tail is not None  # read from the router stack, not a forward of its own
            got = unstacked(chain, tail)
            want = unstacked(chain)
            for name in CHECKED_PARAMS:
                assert got[name].tobytes() == want[name].tobytes(), name
            seen.append(1)
            return got

        monkeypatch.setattr(_RoutedChain, "analytic_gradients", compared)
        for seed in range(40):
            config, image = small_gradcheck_config(seed)
            check_router_fusion_gradients(config, image)
        assert len(seen) == 40

    def test_non_finite_loss_names_router_weights_first(self):
        config, image = small_gradcheck_config(0)
        s2 = config.projector.stage2
        blown = dataclasses.replace(
            config,
            projector=ProjectorParams(
                config.projector.stage1, LinearAdapter(s2.weights * 1e160, s2.bias)
            ),
        )
        # The loss overflows to inf by design here, and the check must name it.
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^router.weights: non-finite loss while perturbing coordinate 0$"
        ):
            check_router_fusion_gradients(blown, image)

    def test_non_finite_bias_row_names_router_bias_coordinate(self, monkeypatch):
        config, image = small_gradcheck_config(0)
        bias = config.router.bias

        def blown_bias(cls, patches, maps_for, config, params=None, **kwargs):
            result = _tail(cls, patches, maps_for, config, params, **kwargs)
            stacked = (params or {}).get("router.bias")
            if stacked is not None and stacked.ndim == 2:
                # Only the row that raises bias coordinate 1 blows up.
                result[-1][stacked[:, 1] > bias[1]] = np.inf
            return result

        monkeypatch.setattr(numerics, "_tail", blown_bias)
        with pytest.raises(
            ValueError, match="^router.bias: non-finite loss while perturbing coordinate 1$"
        ):
            check_router_fusion_gradients(config, image)

    def test_max_coords_below_one_rejected(self):
        config, image = small_gradcheck_config(0)
        with pytest.raises(ValueError, match="^max_coords_per_param must be >= 1, got 0$"):
            check_router_fusion_gradients(config, image, max_coords_per_param=0)

    def test_bad_eps_rejected_before_any_forward(self, monkeypatch):
        config, image = small_gradcheck_config(0)
        calls = []
        monkeypatch.setattr(numerics, "_tail", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="^eps must be positive, got 0$"):
            check_router_fusion_gradients(config, image, eps=0)
        assert calls == []

    def test_coordinate_subsampling(self):
        config, image = small_gradcheck_config(4)
        reports = check_router_fusion_gradients(config, image, seed=7, max_coords_per_param=3)
        for report in reports:
            assert report.n_coordinates <= 3
            assert report.passed
