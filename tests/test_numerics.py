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
    run_pipeline,
)
from routebench.numerics import (
    CHECKED_PARAMS,
    check_router_fusion_gradients,
    _RoutedChain,
    small_gradcheck_config,
)
from routebench.router import RouterParams


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
        grads = chain.analytic_gradients(chain.forward())
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
        w, *_, out = chain.forward()
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

    @pytest.mark.parametrize(
        "kind, k, message",
        [
            ("routed", 1, "requires soft routing over all experts"),
            ("add", None, "requires routed fusion, config uses 'add'"),
            ("concat", None, "requires routed fusion, config uses 'concat'"),
        ],
    )
    def test_config_without_soft_routing_rejected(self, kind, k, message):
        config, image = small_gradcheck_config(2)
        projector = config.projector
        if kind == "concat":
            width = config.canonical_dim * len(config.experts)
            projector = ProjectorParams(seeded_adapter(width, 4, seed=1), projector.stage2)
        other = dataclasses.replace(
            config, strategy=FusionStrategy(kind=kind, k=k), projector=projector
        )
        with pytest.raises(ValueError, match=f"^gradient check {message}"):
            check_router_fusion_gradients(other, image)

    def test_stacked_losses_equal_unbatched_forward(self):
        # Each parameter alone, and router weights and bias as the check
        # stacks them: views into one stack of their concatenated values.
        groups = [(name,) for name in CHECKED_PARAMS] + [("router.weights", "router.bias")]
        for seed in range(40):
            config, image = small_gradcheck_config(seed)
            chain = _RoutedChain(image, config)
            base = chain.params
            for names in groups:
                flat = np.concatenate([base[n].ravel() for n in names])
                rng = np.random.default_rng(seed)
                stack = flat + rng.normal(scale=1e-3, size=(5, flat.size))
                params, lo = {}, 0
                for n in names:
                    params[n] = stack[:, lo : lo + base[n].size].reshape((5,) + base[n].shape)
                    lo += base[n].size
                stacked = chain.forward(params)[-1]
                losses = (stacked**2).sum(axis=(-2, -1))
                assert losses.shape == (5,)
                for b, loss in enumerate(losses):
                    row = {n: p[b] for n, p in params.items()}
                    out = chain.forward(row)[-1]
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
        # One forward per stack.  The router stack's first row is the
        # unperturbed point; then row j raises coordinate j by eps and row
        # n + j lowers it.
        forward, calls = _RoutedChain.forward, []

        def counted(chain, params=None):
            calls.append({n: p.reshape(len(p), -1) for n, p in params.items()})
            return forward(chain, params)

        monkeypatch.setattr(_RoutedChain, "forward", counted)
        for seed in range(40):
            config, image = small_gradcheck_config(seed)
            base = _RoutedChain(image, config).params
            calls.clear()
            check_router_fusion_gradients(config, image)
            assert len(calls) == 3, seed
            for stack, (call, names) in enumerate(zip(calls, numerics._STACKS)):
                assert list(call) == list(names)
                point = np.concatenate([base[n].ravel() for n in names])
                rows = np.concatenate([call[n] for n in names], axis=1)
                if stack == 0:
                    assert rows[0].tobytes() == point.tobytes()
                    rows = rows[1:]
                n = point.size
                signs = np.sign(rows - point)
                np.testing.assert_array_equal(signs, np.vstack([np.eye(n), -np.eye(n)]))

    def test_router_stack_first_row_gives_unstacked_analytic_gradients(self, monkeypatch):
        unstacked = _RoutedChain.analytic_gradients
        seen = []

        def compared(chain, forward):
            assert forward is not None  # read from the router stack, not a forward of its own
            got = unstacked(chain, forward)
            want = unstacked(chain, chain.forward())
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
        # The loss overflows to inf by design here: the check must name it,
        # not warn first (the suite turns a RuntimeWarning into an error).
        with pytest.raises(
            ValueError, match="^router.weights: non-finite loss while perturbing coordinate 0$"
        ):
            check_router_fusion_gradients(blown, image)

    @pytest.mark.parametrize("lowered", [False, True])
    def test_non_finite_bias_row_names_router_bias_coordinate(self, monkeypatch, lowered):
        config, image = small_gradcheck_config(0)
        bias, forward = config.router.bias, _RoutedChain.forward

        def blown_bias(chain, params=None):
            result = forward(chain, params)
            stacked = (params or {}).get("router.bias")
            if stacked is not None and stacked.ndim == 2:
                # Only the row that moves bias coordinate 1 one way blows
                # up, and the row that moves coordinate 3 the other way.
                up = stacked > bias
                down = stacked < bias
                rows = down[:, 1] | up[:, 3] if lowered else up[:, 1] | down[:, 3]
                result[-1][rows] = np.inf
            return result

        monkeypatch.setattr(_RoutedChain, "forward", blown_bias)
        with pytest.raises(
            ValueError, match="^router.bias: non-finite loss while perturbing coordinate 1$"
        ):
            check_router_fusion_gradients(config, image)

    def test_max_coords_below_one_rejected(self):
        config, image = small_gradcheck_config(0)
        with pytest.raises(ValueError, match="^max_coords_per_param must be >= 1, got 0$"):
            check_router_fusion_gradients(config, image, max_coords_per_param=0)

    @pytest.mark.parametrize("eps", [0, -1.0, float("nan")])
    def test_bad_eps_rejected_before_any_forward(self, monkeypatch, eps):
        config, image = small_gradcheck_config(0)
        calls = []
        monkeypatch.setattr(_RoutedChain, "forward", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match=f"^eps must be positive, got {eps}$"):
            check_router_fusion_gradients(config, image, eps=eps)
        assert calls == []

    def test_coordinate_subsampling(self):
        config, image = small_gradcheck_config(4)
        reports = check_router_fusion_gradients(config, image, seed=7, max_coords_per_param=3)
        for report in reports:
            assert report.n_coordinates <= 3
            assert report.passed
