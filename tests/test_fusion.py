from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

import routebench.experts as experts_module
import routebench.fusion as fusion_module
from routebench.benchmark import synth_scene
from routebench.evaluator import toy_judging_config
from routebench.experts import (
    PERSONAS,
    FeatureMap,
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
    adapt_dim,
    descriptor_width,
    encode_toy_expert,
    identity_adapter,
    resample_tokens,
    seeded_adapter,
)
from routebench.fusion import (
    FUSION_KINDS,
    FusionStrategy,
    PipelineConfig,
    PipelineError,
    ProjectorParams,
    _align,
    _align_step,
    _align_steps,
    _run_stack,
    fuse_add,
    fuse_concat,
    gelu,
    gelu_grad,
    load_pipeline_config,
    mlp,
    pipeline_config_from_json,
    pipeline_config_to_json,
    project,
    residual_merge,
    run_pipeline,
    weighted_fuse,
    weighted_sum,
)
from routebench.numerics import small_gradcheck_config
from routebench.router import (
    RouterParams,
    RoutingWeights,
    clip_encode,
    route_logits,
    routing_weights,
    select_top_k,
    softmax,
)


def const_map(tokens, dim, value, source="0"):
    return FeatureMap(np.full((tokens, dim), float(value)), source=source)


def uniform_routing(n):
    return RoutingWeights(np.full(n, 1.0 / n), frozenset(range(n)))


def identity_projector(dim):
    return ProjectorParams(stage1=identity_adapter(dim), stage2=identity_adapter(dim))


def small_config(strategy, personas=("patch-statistics", "edge-shape"), router_bias=None,
                 canonical_tokens=16, canonical_dim=8, native_dim=8):
    experts = tuple(
        ToyExpertSpec(id=i, persona=p, seed=10 + i, native_tokens=16, native_dim=native_dim)
        for i, p in enumerate(personas)
    )
    n = len(experts)
    bias = np.zeros(n) if router_bias is None else np.asarray(router_bias, dtype=np.float64)
    router = RouterParams(np.zeros((canonical_dim, n)), bias)
    if strategy.kind == "concat":
        projector = ProjectorParams(
            stage1=seeded_adapter(canonical_dim * n, canonical_dim, seed=5),
            stage2=seeded_adapter(canonical_dim, canonical_dim, seed=6),
        )
    else:
        projector = identity_projector(canonical_dim)
    return PipelineConfig(
        experts=experts,
        router=router,
        strategy=strategy,
        projector=projector,
        canonical_tokens=canonical_tokens,
        canonical_dim=canonical_dim,
        clip_seed=3,
    )


class TestWeightedFuse:
    def test_even_blend_of_constants(self):
        routing = uniform_routing(2)
        out = weighted_fuse(routing, [const_map(4, 3, 2.0), const_map(4, 3, 4.0)])
        np.testing.assert_array_equal(out.values, np.full((4, 3), 3.0))
        assert out.source == "fused"

    def test_zero_weight_expert_cannot_influence(self):
        routing = RoutingWeights(np.array([0.5, 0.5, 0.0]), frozenset({0, 1}))
        maps = [const_map(2, 2, 1.0), const_map(2, 2, 3.0), const_map(2, 2, 1e9)]
        out = weighted_fuse(routing, maps)
        np.testing.assert_array_equal(out.values, np.full((2, 2), 2.0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        maps = [FeatureMap(rng.normal(size=(6, 4)), source=str(i)) for i in range(4)]
        raw = rng.random(4) + 0.1
        weights = raw / raw.sum()
        base = weighted_fuse(RoutingWeights(weights, frozenset(range(4))), maps).values
        perm = rng.permutation(4)
        permuted = weighted_fuse(
            RoutingWeights(weights[perm], frozenset(range(4))), [maps[i] for i in perm]
        ).values
        np.testing.assert_allclose(base, permuted, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_expert(self):
        routing = uniform_routing(2)
        with pytest.raises(ValueError, match="expert 1"):
            weighted_fuse(routing, [const_map(4, 3, 1.0), const_map(4, 2, 1.0)])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="routing weights"):
            weighted_fuse(uniform_routing(3), [const_map(2, 2, 1.0)] * 2)


class TestStackedKernels:
    def test_2d_softmax_equals_rows(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=[[0.1], [1.0], [30.0], [800.0]], size=(4, 5))
        stacked = softmax(logits)
        assert stacked.shape == logits.shape
        for row, want in zip(stacked, logits):
            assert row.tobytes() == softmax(want).tobytes()

    def test_batched_weighted_sum_equals_rows(self):
        rng = np.random.default_rng(4)
        arrays = list(rng.normal(size=(3, 6, 4)))
        weights = softmax(rng.normal(size=(2, 5, 3)))
        weights[1, 2] = [0.5, 0.0, 0.5]
        stacked = weighted_sum(weights, arrays)
        assert stacked.shape == (2, 5, 6, 4)
        for b in range(2):
            for r in range(5):
                assert stacked[b, r].tobytes() == weighted_sum(weights[b, r], arrays).tobytes()


def expression_gelu(x):
    """gelu as one expression, the form the in-place kernel must match."""
    scale, cubic = math.sqrt(2.0 / math.pi), 0.044715
    return 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x))))


def expression_mlp(x, w1, b1, w2, b2):
    hidden = x @ w1 + b1
    act = expression_gelu(hidden)
    return hidden, act, act @ w2 + b2


def looped_weighted_sum(weights, arrays):
    """The 1-D weighted sum as a plain loop over whole arrays, skipping the
    arrays weighted 0."""
    acc = np.zeros(arrays[0].shape)
    for w, values in zip(weights, arrays):
        if w != 0.0:
            acc += w * values
    return acc


class TestInPlaceKernels:
    """gelu and mlp compute in reused buffers, and weighted_sum adds exact
    zeros for zero weights; each must equal its expression form bit for
    bit."""

    SHAPES = [(64, 24), (7, 5), (576, 1024), (3, 40, 300), (2, 4, 16, 8)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_gelu_equals_the_expression_form(self, shape):
        x = np.random.default_rng(len(shape)).normal(scale=4.0, size=shape)
        x.flat[:6] = [0.0, -0.0, 40.0, -40.0, 1e-310, -1e-310]
        assert gelu(x).tobytes() == expression_gelu(x).tobytes()
        assert gelu(x.T).tobytes() == np.ascontiguousarray(expression_gelu(x.T)).tobytes()

    def test_mlp_equals_the_expression_form_plain_and_stacked(self):
        rng = np.random.default_rng(8)
        t, d, h, b = 300, 24, 160, 3
        x, w1, b1 = rng.normal(size=(t, d)), rng.normal(size=(d, h)), rng.normal(size=h)
        w2, b2 = rng.normal(size=(h, d)), rng.normal(size=d)
        stacked_x, stacked_w1 = rng.normal(size=(b, t, d)), rng.normal(size=(b, d, h))
        stacked_w2 = rng.normal(size=(b, h, d))
        for args in (
            (x, w1, b1, w2, b2),
            (stacked_x, w1, b1, w2, b2),
            (x, stacked_w1, b1, w2, b2),
            (x, w1, b1, stacked_w2, b2),
        ):
            for got, want in zip(mlp(*args), expression_mlp(*args)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(64, 24), (576, 1024), (5, 3)], ids=str)
    def test_1d_weighted_sum_equals_the_loop(self, shape):
        rng = np.random.default_rng(9)
        arrays = [rng.normal(size=shape) for _ in range(4)]
        arrays[3] = np.asfortranarray(arrays[3])  # another memory order, same values
        for values in arrays[:3]:  # -0.0 terms, which must leave a +0.0 sum at +0.0
            values.flat[::3] = -0.0
        rows = [[0.25, 0.0, 0.5, 0.25], [0.0, 1.0, 0.0, 0.0], [0.0] * 4, [-0.0] * 4]
        for weights in rows + [softmax(rng.normal(size=4))]:
            weights = np.asarray(weights)
            got = weighted_sum(weights, arrays)
            assert got.tobytes() == looped_weighted_sum(weights, arrays).tobytes()


class TestAddAndConcat:
    def test_add_equals_scaled_uniform_weighted_fuse(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            maps = [FeatureMap(rng.normal(size=(5, 3)), source=str(i)) for i in range(n)]
            added = fuse_add(maps).values
            blended = weighted_fuse(uniform_routing(n), maps).values
            np.testing.assert_allclose(added, n * blended, rtol=0, atol=1e-9)

    def test_concat_block_layout(self):
        rng = np.random.default_rng(9)
        maps = [FeatureMap(rng.normal(size=(4, 3)), source=str(i)) for i in range(3)]
        out = fuse_concat(maps)
        assert (out.tokens, out.dim) == (4, 9)
        for i, fm in enumerate(maps):
            np.testing.assert_array_equal(out.values[:, 3 * i : 3 * (i + 1)], fm.values)

    def test_concat_token_mismatch_names_expert(self):
        with pytest.raises(ValueError, match="expert 1"):
            fuse_concat([const_map(4, 3, 1.0), const_map(9, 3, 1.0)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fuse_add([])
        with pytest.raises(ValueError, match="empty"):
            fuse_concat([])


class TestResidualAndProject:
    def test_residual_merge_adds(self):
        out = residual_merge(const_map(3, 2, 1.0, source="clip-patch"), const_map(3, 2, 2.0))
        np.testing.assert_array_equal(out.values, np.full((3, 2), 3.0))
        assert out.source == "fused"

    def test_public_fusion_functions_leave_their_inputs_unchanged(self):
        rng = np.random.default_rng(12)
        maps = [FeatureMap(rng.normal(size=(16, 8)), source=str(i)) for i in range(3)]
        patches = FeatureMap(rng.normal(size=(16, 8)), source="clip-patch")
        routing = RoutingWeights(np.array([0.25, 0.0, 0.75]), frozenset({0, 2}))
        weights = np.array([0.5, 0.25, 0.25])
        stacked = softmax(rng.normal(size=(2, 3)))
        inputs = [fm.values for fm in maps] + [patches.values, routing.weights, weights, stacked]
        before = [a.copy() for a in inputs]
        fused = weighted_fuse(routing, maps)
        merged = residual_merge(patches, fused)
        weighted_sum(weights, [fm.values for fm in maps])
        weighted_sum(stacked, [fm.values for fm in maps])
        for got, want in zip(inputs, before):
            assert got.tobytes() == want.tobytes()
        assert merged.values is not fused.values and merged.values is not patches.values
        np.testing.assert_array_equal(merged.values, patches.values + fused.values)

    def test_residual_merge_shape_check(self):
        with pytest.raises(ValueError, match="merge shapes"):
            residual_merge(const_map(3, 2, 1.0), const_map(3, 3, 1.0))

    def test_projector_near_identity_for_large_positive(self):
        fm = FeatureMap(np.array([[10.0, 10.0]]), source="fused")
        out = project(fm, identity_projector(2))
        np.testing.assert_allclose(out.values, [[10.0, 10.0]], rtol=0, atol=1e-3)

    def test_projector_zero_in_zero_out(self):
        fm = const_map(4, 3, 0.0)
        out = project(fm, identity_projector(3))
        np.testing.assert_array_equal(out.values, np.zeros((4, 3)))

    def test_projector_dim_mismatch(self):
        with pytest.raises(ValueError, match="projector expects"):
            project(const_map(4, 3, 1.0), identity_projector(2))

    def test_stage_composition_validated(self):
        with pytest.raises(ValueError, match="compose"):
            ProjectorParams(stage1=identity_adapter(3), stage2=identity_adapter(4))

    def test_gelu_grad_matches_finite_differences(self):
        xs = np.linspace(-4, 4, 41)
        eps = 1e-6
        fd = (gelu(xs + eps) - gelu(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(xs), fd, rtol=0, atol=1e-8)

    def test_gelu_matches_the_power_form(self):
        # gelu and gelu_grad cube by multiplication; np.power is the reference.
        x = np.random.default_rng(21).uniform(-8.0, 8.0, size=4096)
        scale, cubic = math.sqrt(2.0 / math.pi), 0.044715
        th = np.tanh(scale * (x + cubic * np.power(x, 3)))
        np.testing.assert_allclose(gelu(x), 0.5 * x * (1.0 + th), rtol=0, atol=1e-12)
        grad = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * scale * (1.0 + 3.0 * cubic * x**2)
        np.testing.assert_allclose(gelu_grad(x), grad, rtol=0, atol=1e-12)


class TestPipeline:
    def random_image(self, seed, size=16):
        rng = np.random.default_rng(seed)
        return ImageGrid(rng.random((size, size, 3)))

    def test_zero_output_experts_leave_residual_identity(self):
        # edge-shape and text-stripe emit exact zeros on constant images, so
        # the routed pipeline collapses to project(patches) bit for bit.
        config = small_config(
            FusionStrategy(kind="routed"), personas=("edge-shape", "text-stripe")
        )
        image = ImageGrid(np.full((16, 16, 3), 0.375))
        result = run_pipeline(image, config)
        clip = clip_encode(image, config.clip_params())
        direct = project(clip.patches, config.projector)
        assert result.features.values.tobytes() == direct.values.tobytes()

    def test_top1_routing_is_one_hot(self):
        config = small_config(
            FusionStrategy(kind="routed", k=1), router_bias=[0.0, 2.0]
        )
        result = run_pipeline(self.random_image(1), config)
        assert result.routing.active == frozenset({1})
        np.testing.assert_array_equal(result.routing.weights, [0.0, 1.0])

    def test_strategies_disagree(self):
        image = self.random_image(2)
        routed = run_pipeline(image, small_config(FusionStrategy(kind="routed"), router_bias=[0.0, 1.5]))
        added = run_pipeline(image, small_config(FusionStrategy(kind="add")))
        catted = run_pipeline(image, small_config(FusionStrategy(kind="concat")))
        a, b, c = routed.features.values, added.features.values, catted.features.values
        assert not np.allclose(a, b)
        assert not np.allclose(b, c)
        assert not np.allclose(a, c)

    def test_deterministic_repeat(self):
        config = small_config(FusionStrategy(kind="routed"))
        image = self.random_image(3)
        a = run_pipeline(image, config)
        b = run_pipeline(image, config)
        assert a.features.values.tobytes() == b.features.values.tobytes()
        np.testing.assert_array_equal(a.routing.weights, b.routing.weights)

    def test_any_non_finite_logit_fails_the_route_stage(self):
        # Logits [-inf, 0, 0, 0, 0, 0] have a finite softmax, yet
        # routing_weights rejects them; the pipeline must fail them too.
        base, image = toy_judging_config(), synth_scene(3)[1]
        cls = clip_encode(image, base.clip_params()).cls
        weights, bias = base.router.weights.copy(), base.router.bias.copy()
        weights[:, 0], bias[0] = -1e308 * np.sign(cls), -1.7e308
        with np.errstate(over="ignore"):
            logits = route_logits(cls, RouterParams(weights, bias))
        np.testing.assert_array_equal(logits, [-np.inf, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="^logits contain non-finite values$"):
            routing_weights(logits)
        config = dataclasses.replace(base, router=RouterParams(weights, bias))
        with pytest.raises(PipelineError, match="^route: logits contain non-finite values$"):
            run_pipeline(image, config)

    def test_stage_errors_carry_stage_name(self):
        config = small_config(FusionStrategy(kind="routed"))
        bad = ImageGrid(np.random.default_rng(0).random((15, 15, 3)))  # not divisible by 4
        with pytest.raises(PipelineError, match="encode: "):
            run_pipeline(bad, config)

    @pytest.mark.parametrize("kind", ["routed", "add"])
    def test_non_finite_fused_map_fails_the_fuse_stage(self, monkeypatch, kind):
        from routebench import fusion

        real = fusion.weighted_sum

        def overflowing(*args):
            values = real(*args)
            values[..., 0, 0] = np.inf
            return values

        monkeypatch.setattr(fusion, "weighted_sum", overflowing)
        with pytest.raises(PipelineError, match="fuse: .*non-finite"):
            run_pipeline(self.random_image(3), small_config(FusionStrategy(kind=kind)))

    def test_non_finite_projection_fails_the_project_stage(self, monkeypatch):
        from routebench import fusion

        real = fusion.mlp

        def overflowing(*args):
            hidden, act, out = real(*args)
            out[..., 0, 0] = np.inf
            return hidden, act, out

        monkeypatch.setattr(fusion, "mlp", overflowing)
        with pytest.raises(PipelineError, match="project: .*non-finite"):
            run_pipeline(self.random_image(3), small_config(FusionStrategy(kind="routed")))

    def test_overflow_inside_the_projector_does_not_warn(self):
        # GELU's cubic overflows to inf on these hidden values, yet every
        # projected feature is finite; the suite turns any RuntimeWarning
        # into an error.
        config = toy_judging_config("color-histogram")
        s1 = config.projector.stage1
        stage1 = LinearAdapter(s1.weights * 1e200, s1.bias)
        blown = dataclasses.replace(
            config, projector=ProjectorParams(stage1, config.projector.stage2)
        )
        result = run_pipeline(image_of(1, 64), blown)
        assert np.isfinite(result.features.values).all()
        assert np.abs(result.features.values).max() > 1e190

    def test_stage_bugs_propagate_unwrapped(self, monkeypatch):
        from routebench import fusion

        def broken(*args):
            raise TypeError("not a domain error")

        monkeypatch.setattr(fusion, "mlp", broken)
        config = small_config(FusionStrategy(kind="routed"))
        with pytest.raises(TypeError, match="not a domain error"):
            run_pipeline(self.random_image(3), config)

    def test_stage_timings_present(self):
        config = small_config(FusionStrategy(kind="add"))
        result = run_pipeline(self.random_image(4), config)
        stages = ("clip", "route", "encode", "align", "fuse", "project")
        assert tuple(result.stage_seconds) == stages
        assert all(v >= 0.0 for v in result.stage_seconds.values())

    def test_clip_encode_has_its_own_lap(self, monkeypatch):
        clip_encode = fusion_module.clip_encode

        def slow(image, params):
            time.sleep(0.05)
            return clip_encode(image, params)

        monkeypatch.setattr(fusion_module, "clip_encode", slow)
        result = run_pipeline(self.random_image(4), small_config(FusionStrategy(kind="add")))
        assert result.stage_seconds["clip"] >= 0.05
        assert result.stage_seconds["route"] < 0.05

    def test_mixed_native_geometry_aligns(self):
        # one expert needs resampling and a width adapter, one is native
        experts = (
            ToyExpertSpec(id=0, persona="color-histogram", seed=0, native_tokens=4, native_dim=24),
            ToyExpertSpec(id=1, persona="edge-shape", seed=1, native_tokens=16, native_dim=8),
        )
        config = PipelineConfig(
            experts=experts,
            router=RouterParams(np.zeros((8, 2)), np.zeros(2)),
            strategy=FusionStrategy(kind="routed"),
            projector=identity_projector(8),
            canonical_tokens=16,
            canonical_dim=8,
        )
        result = run_pipeline(self.random_image(5), config)
        assert (result.features.tokens, result.features.dim) == (16, 8)


# (persona, native_tokens, native_dim) against a 16-token, 16-dim canonical
# grid: token grids below, at and above it; color-histogram (raw width 24)
# narrowed to 6 and tiled to 48; a random-projection expert; edge-shape at
# the canonical width, so tiled without an adapter; patch-statistics cut to
# 5 of its 6 raw columns.
MIXED_EXPERTS = (
    ("color-histogram", 4, 6),
    ("color-histogram", 64, 48),
    ("random-projection", 16, 12),
    ("edge-shape", 4, 16),
    ("patch-statistics", 16, 5),
)
# Experts whose native_dim differs from the canonical 16: 0, 1, 2 and 4.
MIXED_ADAPTED = 4


def paper_geometry_config():
    """Six experts at 64 or 256 tokens and 512 or 768 dims into 576 x 1024."""
    experts = tuple(
        ToyExpertSpec(
            id=i,
            persona=persona,
            seed=i,
            native_tokens=256 if i % 2 else 64,
            native_dim=768 if i % 2 else 512,
        )
        for i, persona in enumerate(PERSONAS)
    )
    head = seeded_adapter(1024, len(experts), 0)
    return PipelineConfig(
        experts=experts,
        router=RouterParams(head.weights, head.bias),
        strategy=FusionStrategy(kind="routed", k=2),
        projector=identity_projector(1024),
    )


def mixed_config(strategy, seed_offset=0):
    experts = tuple(
        ToyExpertSpec(id=i, persona=p, seed=seed_offset + i, native_tokens=t, native_dim=d)
        for i, (p, t, d) in enumerate(MIXED_EXPERTS)
    )
    n, dim = len(experts), 16
    rng = np.random.default_rng(30)
    router = RouterParams(rng.normal(scale=2.0, size=(dim, n)), rng.normal(size=n))
    proj_in = n * dim if strategy.kind == "concat" else dim
    projector = ProjectorParams(
        stage1=seeded_adapter(proj_in, dim, seed=5), stage2=seeded_adapter(dim, dim, seed=6)
    )
    return PipelineConfig(
        experts=experts,
        router=router,
        strategy=strategy,
        projector=projector,
        canonical_tokens=16,
        canonical_dim=dim,
        clip_seed=7,
    )


def reference_pipeline(image, config):
    """Unoptimised composition of the public stages: every expert encoded,
    resampled and passed through its full width adapter.  test_golden checks
    the paper geometry against it too."""
    aligned = []
    for spec in config.experts:
        fm = resample_tokens(encode_toy_expert(image, spec), config.canonical_tokens)
        if spec.native_dim != config.canonical_dim:
            fm = adapt_dim(fm, config.expert_adapter(spec))
        aligned.append(fm)
    clip = clip_encode(image, config.clip_params())
    routing = routing_weights(route_logits(clip.cls, config.router))
    kind, k = config.strategy.kind, config.strategy.k
    if kind == "routed" and k is not None:
        routing = select_top_k(routing, k)
    if kind == "routed":
        fused = residual_merge(clip.patches, weighted_fuse(routing, aligned))
    elif kind == "add":
        fused = residual_merge(clip.patches, fuse_add(aligned))
    else:
        fused = fuse_concat(aligned)
    return routing, project(fused, config.projector)


def assert_matches_reference(result, image, config):
    routing, features = reference_pipeline(image, config)
    np.testing.assert_array_equal(result.routing.weights, routing.weights)
    assert result.routing.active == routing.active
    want = features.values
    assert np.abs(result.features.values - want).max() <= 1e-9 * np.abs(want).max()


def image_of(seed, size):
    return ImageGrid(np.random.default_rng(seed).random((size, size, 3)))


@pytest.fixture
def adapter_builds(monkeypatch):
    """Records the spec of every PipelineConfig.expert_adapter call."""
    calls = []
    build = PipelineConfig.expert_adapter

    def counted(self, spec):
        calls.append(spec)
        return build(self, spec)

    monkeypatch.setattr(PipelineConfig, "expert_adapter", counted)
    return calls


class TestPlannedPipeline:
    STRATEGIES = (
        [FusionStrategy(kind="routed")]
        + [FusionStrategy(kind="routed", k=k) for k in range(1, len(MIXED_EXPERTS) + 1)]
        + [FusionStrategy(kind="add"), FusionStrategy(kind="concat")]
    )

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=str)
    def test_matches_unoptimised_composition(self, strategy):
        config = mixed_config(strategy)
        for seed in (1, 2):
            image = image_of(seed, 16)
            assert_matches_reference(run_pipeline(image, config), image, config)

    def test_masked_expert_is_never_encoded(self):
        # Expert 1's 3x3 grid does not divide a 16x16 image: that fails the
        # run only while the expert carries weight.
        def config(bias, k):
            experts = tuple(
                ToyExpertSpec(id=i, persona="edge-shape", seed=i, native_tokens=t, native_dim=8)
                for i, t in enumerate((16, 9))
            )
            return PipelineConfig(
                experts=experts,
                router=RouterParams(np.zeros((8, 2)), np.asarray(bias, dtype=np.float64)),
                strategy=FusionStrategy(kind="routed", k=k),
                projector=identity_projector(8),
                canonical_tokens=16,
                canonical_dim=8,
            )

        image = image_of(3, 16)
        top1 = run_pipeline(image, config([1.0, 0.0], k=1))
        assert top1.routing.active == frozenset({0})
        # Softmax underflow: exp(-1000) is exactly 0 without any top-k mask.
        underflow = run_pipeline(image, config([0.0, -1000.0], k=None))
        np.testing.assert_array_equal(underflow.routing.weights, [1.0, 0.0])
        assert underflow.features.values.tobytes() == top1.features.values.tobytes()
        with pytest.raises(PipelineError, match="encode: "):
            run_pipeline(image, config([0.0, 1.0], k=1))

    def test_align_errors_propagate_unwrapped(self, monkeypatch):
        # Align cannot fail on a valid image, so a ValueError from it is a
        # bug and reaches the caller as is, not as PipelineError("align: ...").
        def broken(*args):
            raise ValueError("adapter bug")

        monkeypatch.setattr(fusion_module, "adapt_dim", broken)
        with pytest.raises(ValueError, match="^adapter bug$"):
            run_pipeline(image_of(1, 16), mixed_config(FusionStrategy(kind="add")))

    def test_align_state_built_once_per_config(self, adapter_builds):
        config = mixed_config(FusionStrategy(kind="routed"))
        run_pipeline(image_of(1, 16), config)
        run_pipeline(image_of(2, 16), config)
        assert len(adapter_builds) == MIXED_ADAPTED
        # Another image size needs other Gaussian projections, not other
        # align state.
        image = image_of(3, 24)
        result = run_pipeline(image, config)
        assert len(adapter_builds) == MIXED_ADAPTED
        assert_matches_reference(result, image, config)
        # A replaced config (dataclasses.replace) derives its own state.
        other = dataclasses.replace(config, experts=mixed_config(config.strategy, 100).experts)
        del adapter_builds[:]
        result = run_pipeline(image, other)
        assert sorted(spec.seed for spec in adapter_builds) == [100, 101, 102, 104]
        assert_matches_reference(result, image, other)

    def test_concurrent_first_runs_build_once(self, adapter_builds):
        config = mixed_config(FusionStrategy(kind="routed"))
        image = image_of(4, 16)
        workers = 8
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def run(slot):
            barrier.wait(timeout=10)
            results[slot] = run_pipeline(image, config).features.values.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(adapter_builds) == MIXED_ADAPTED
        assert None not in results and len(set(results)) == 1


class TestStackedTail:
    """``_run_stack`` runs route, fuse, merge and project once over a stack
    of images; every row must equal the single-image run bit for bit."""

    @staticmethod
    def assert_rows_equal_single_runs(images, config):
        weights, kept, out, failures, _ = _run_stack(list(images), config)
        assert failures == [None] * len(images)
        active_sets = []
        for b, image in enumerate(images):
            single = run_pipeline(image, config)
            assert weights[b].tobytes() == single.routing.weights.tobytes()
            assert out[b].tobytes() == single.features.values.tobytes()
            active = range(len(config.experts)) if kept is None else np.flatnonzero(kept[b])
            assert set(active) == single.routing.active
            active_sets.append(single.routing.active)
        return active_sets

    def test_gradcheck_configs(self):
        for seed in range(40):
            config, image = small_gradcheck_config(seed)
            rng = np.random.default_rng(seed)
            images = [image] + [ImageGrid(rng.random(image.data.shape)) for _ in range(4)]
            self.assert_rows_equal_single_runs(images, config)

    @pytest.mark.parametrize("kind", FUSION_KINDS)
    def test_one_canonical_token(self, kind):
        # At T = 1 a (B*T, D) @ W product would round differently from the
        # per-image (1, D) @ W one.
        config = small_config(FusionStrategy(kind=kind), router_bias=[0.3, -0.2], canonical_tokens=1)
        self.assert_rows_equal_single_runs([image_of(seed, 16) for seed in range(6)], config)

    def test_top2_with_active_sets_differing_per_image(self):
        config = mixed_config(FusionStrategy(kind="routed", k=2))
        # Context vectors of random images differ little, so the router is
        # scaled up and centred on their mean to route them apart.
        centre = np.mean([clip_encode(image_of(s, 16), config.clip_params()).cls for s in range(8)], 0)
        weights = np.random.default_rng(3).normal(scale=30.0, size=config.router.weights.shape)
        config = dataclasses.replace(config, router=RouterParams(weights, -centre @ weights))
        active_sets = self.assert_rows_equal_single_runs(
            [image_of(seed, 16) for seed in range(12)], config
        )
        assert len(set(active_sets)) >= 4

    def test_paper_geometry(self):
        config = paper_geometry_config()
        images = [image_of(seed, 96) for seed in range(2)]
        self.assert_rows_equal_single_runs(images, config)

    def test_a_failing_image_fails_only_its_row(self):
        config = small_config(FusionStrategy(kind="routed"))
        images = [image_of(1, 16), ImageGrid(np.full((15, 15, 3), 0.5)), image_of(2, 16)]
        consumed = list(images)
        weights, _, out, failures, _ = _run_stack(consumed, config)
        # Encoded images are dropped from the list; the failed one is kept.
        assert consumed == [None, images[1], None]
        assert isinstance(failures[1], PipelineError)
        assert str(failures[1]).startswith("encode: ")
        assert isinstance(failures[1].__cause__, ValueError)
        for b in (0, 2):
            assert failures[b] is None
            single = run_pipeline(images[b], config)
            assert out[b].tobytes() == single.features.values.tobytes()


class TestEncodePlan:
    @pytest.mark.parametrize(
        "persona, tokens, dim, want",
        [
            ("edge-shape", 16, 16, None),  # canonical geometry: no step
            ("color-histogram", 16, 16, None),  # raw width 24 cut to 16
            ("random-projection", 16, 16, None),
            ("edge-shape", 16, 8, "adapter"),  # only the tokens match
            ("random-projection", 16, 12, "adapter"),
            ("edge-shape", 4, 16, "tile"),  # only the dims match
            ("edge-shape", 64, 16, "tile"),
            ("color-histogram", 4, 8, "adapter"),  # neither matches
        ],
    )
    def test_align_step_elided_only_when_tokens_and_dims_match(self, persona, tokens, dim, want):
        config = small_config(FusionStrategy(kind="routed"), canonical_tokens=16, canonical_dim=16)
        spec = ToyExpertSpec(id=0, persona=persona, seed=1, native_tokens=tokens, native_dim=dim)
        step = _align_step(config, spec)
        if want is None:
            assert step is None
            fm = encode_toy_expert(image_of(1, 16), spec)
            assert _align(fm, step, config) is fm
        else:
            assert (step.adapter is not None) == (want == "adapter")

    def test_adapt_first_only_for_wide_upsampled_experts(self):
        config = paper_geometry_config()
        steps = [_align_step(config, spec) for spec in config.experts]
        assert [step.adapt_first for step in steps] == [
            spec.persona == "random-projection" for spec in config.experts
        ]
        wide = dict(persona="random-projection", seed=1, native_dim=768)
        for tokens in (16, 64, 256):
            assert _align_step(config, ToyExpertSpec(0, native_tokens=tokens, **wide)).adapt_first
        for tokens in (576, 2304):  # not upsampled
            assert not _align_step(config, ToyExpertSpec(0, native_tokens=tokens, **wide)).adapt_first
        for persona in PERSONAS:  # folded descriptors, 24 columns at most
            if persona == "random-projection":
                continue
            for tokens in (4, 64, 256):
                for dim in (24, 768):
                    spec = ToyExpertSpec(0, persona, 1, tokens, dim)
                    assert descriptor_width(spec) <= 24
                    assert not _align_step(config, spec).adapt_first

    def test_judging_and_gradcheck_configs_never_adapt_first(self):
        configs = [toy_judging_config(), toy_judging_config("color-histogram")]
        configs += [small_gradcheck_config(seed)[0] for seed in range(40)]
        for config in configs:
            assert not any(step is not None and step.adapt_first for step in _align_steps(config))

    @pytest.fixture
    def counted(self, monkeypatch):
        """Patch sides of every _pixel_major call and sources of every
        resample_tokens call that align makes."""
        calls = {"pixel_major": [], "resample": []}
        pixel_major, resample = experts_module._pixel_major, fusion_module.resample_tokens

        def counted_pixel_major(image, side):
            calls["pixel_major"].append(side)
            return pixel_major(image, side)

        def counted_resample(fm, tokens):
            calls["resample"].append(fm.source)
            return resample(fm, tokens)

        monkeypatch.setattr(experts_module, "_pixel_major", counted_pixel_major)
        monkeypatch.setattr(fusion_module, "resample_tokens", counted_resample)
        return calls

    def test_judging_config_shares_one_copy_and_never_resamples(self, counted):
        config = toy_judging_config("color-histogram")
        for seed in range(2):
            run_pipeline(image_of(seed, 64), config)
        # Top-1 routing encodes only the colour histogram, which bins the
        # image itself; every expert is at the canonical geometry, so align
        # does nothing.
        assert counted["pixel_major"] == []
        assert counted["resample"] == []

    def test_one_copy_per_patch_side_per_call(self, counted):
        specs = (
            ("edge-shape", 16, 8),
            ("patch-statistics", 16, 8),
            ("global-context", 64, 8),
            ("text-stripe", 64, 12),
            ("color-histogram", 4, 8),
            ("random-projection", 16, 8),
        )
        experts = tuple(
            ToyExpertSpec(id=i, persona=p, seed=i, native_tokens=t, native_dim=d)
            for i, (p, t, d) in enumerate(specs)
        )
        config = dataclasses.replace(
            small_config(FusionStrategy(kind="add"), personas=[p for p, _, _ in specs]),
            experts=experts,
        )
        for seed in range(3):
            run_pipeline(image_of(seed, 16), config)
        # The colour histogram at side 2 is alone on its grid and makes no copy.
        assert Counter(counted["pixel_major"]) == {4: 3, 8: 3}
        # Experts 0, 1 and 5 are at the canonical 16 x 8: no align step.
        # Expert 3 keeps 6 of its 12 columns and resamples them.
        assert counted["resample"] == ["2", "3", "4"] * 3


class TestConfigValidation:
    def test_expert_id_order_enforced(self):
        experts = (
            ToyExpertSpec(id=1, persona="edge-shape", seed=0, native_tokens=16, native_dim=8),
        )
        with pytest.raises(ValueError, match="expert ids"):
            PipelineConfig(
                experts=experts,
                router=RouterParams(np.zeros((8, 1)), np.zeros(1)),
                strategy=FusionStrategy(kind="routed"),
                projector=identity_projector(8),
                canonical_tokens=16,
                canonical_dim=8,
            )

    def test_concat_projector_width_enforced(self):
        experts = tuple(
            ToyExpertSpec(id=i, persona="edge-shape", seed=i, native_tokens=16, native_dim=8)
            for i in range(2)
        )
        with pytest.raises(ValueError, match="concat fusion produces"):
            PipelineConfig(
                experts=experts,
                router=RouterParams(np.zeros((8, 2)), np.zeros(2)),
                strategy=FusionStrategy(kind="concat"),
                projector=identity_projector(8),
                canonical_tokens=16,
                canonical_dim=8,
            )

    def test_router_expert_count_enforced(self):
        experts = (
            ToyExpertSpec(id=0, persona="edge-shape", seed=0, native_tokens=16, native_dim=8),
        )
        with pytest.raises(ValueError, match="router expects"):
            PipelineConfig(
                experts=experts,
                router=RouterParams(np.zeros((8, 3)), np.zeros(3)),
                strategy=FusionStrategy(kind="routed"),
                projector=identity_projector(8),
                canonical_tokens=16,
                canonical_dim=8,
            )

    @pytest.mark.parametrize(
        "tokens, message", [(10, "a perfect square, got 10"), (0, "positive, got 0")]
    )
    def test_canonical_grid_checked_when_built(self, tokens, message):
        with pytest.raises(ValueError, match=f"^canonical_tokens must be {message}$"):
            dataclasses.replace(toy_judging_config(), canonical_tokens=tokens)

    def test_strategy_k_only_for_routed(self):
        with pytest.raises(ValueError, match="only meaningful"):
            FusionStrategy(kind="add", k=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            FusionStrategy(kind="mean")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda config: FusionStrategy(kind="routed", k=0), "k must be >= 1, got 0"),
            (lambda config: dataclasses.replace(config, experts=()),
             "pipeline needs at least one expert"),
            (lambda config: dataclasses.replace(
                config, router=RouterParams(np.zeros((8, 6)), np.zeros(6))
            ), "router dim_in 8 does not match canonical_dim 24"),
            (lambda config: dataclasses.replace(config, strategy=FusionStrategy("routed", k=7)),
             "top-k 7 exceeds expert count 6"),
        ],
        ids=["k-zero", "no-experts", "router-dim-in", "top-k-above-n"],
    )
    def test_validation_names_the_fault(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build(toy_judging_config())
        assert str(excinfo.value) == message


class TestConfigJson:
    def test_round_trip(self, tmp_path):
        config = small_config(FusionStrategy(kind="routed", k=2), router_bias=[0.5, -0.5])
        doc = pipeline_config_to_json(config)
        rebuilt = pipeline_config_from_json(doc)
        assert rebuilt.experts == config.experts
        np.testing.assert_array_equal(rebuilt.router.weights, config.router.weights)
        np.testing.assert_array_equal(rebuilt.projector.stage1.weights, config.projector.stage1.weights)
        assert rebuilt.strategy == config.strategy
        assert rebuilt.clip_seed == config.clip_seed

        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc))
        loaded = load_pipeline_config(path)
        assert loaded.experts == config.experts

    @pytest.mark.parametrize("part", ["router", "projector"])
    def test_seeded_document_rejected(self, part):
        # Only explicit weights are read; a seed-derived part is not a format.
        doc = pipeline_config_to_json(small_config(FusionStrategy(kind="routed")))
        doc[part] = {"init": "seeded", "seed": 11}
        with pytest.raises(ValueError, match="^malformed pipeline config: "):
            pipeline_config_from_json(doc)

    def test_malformed_config_rejected(self):
        with pytest.raises(ValueError, match="malformed pipeline config"):
            pipeline_config_from_json({"experts": []})
        with pytest.raises(ValueError) as excinfo:
            pipeline_config_from_json(["experts"])
        message = "malformed pipeline config: top-level must be a JSON object, got ['experts']"
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    @pytest.mark.parametrize("key, entry", [("weights", "1.0"), ("weights", True), ("bias", None)])
    def test_non_number_projector_entry_rejected(self, stage, key, entry):
        doc = pipeline_config_to_json(small_config(FusionStrategy(kind="routed")))
        doc["projector"][stage][key][1] = entry
        message = f"^malformed pipeline config: malformed projector {stage}: .*arrays of numbers"
        with pytest.raises(ValueError, match=message):
            pipeline_config_from_json(doc)

    @pytest.mark.parametrize("key", ["canonical_tokens", "canonical_dim", "clip_seed"])
    def test_geometry_fields_required(self, key):
        doc = pipeline_config_to_json(small_config(FusionStrategy(kind="routed")))
        del doc[key]
        with pytest.raises(ValueError, match=f"^malformed pipeline config: missing field '{key}'$"):
            pipeline_config_from_json(doc)

    @pytest.mark.parametrize(
        "breakage, message",
        [
            (lambda doc: doc["experts"][1].update(seed=-3),
             "expert 1: seed must be >= 0, got -3"),
            (lambda doc: doc.update(clip_seed=-1), "clip_seed must be >= 0, got -1"),
        ],
        ids=["expert-seed", "clip-seed"],
    )
    def test_negative_seed_rejected(self, breakage, message):
        doc = pipeline_config_to_json(small_config(FusionStrategy(kind="routed")))
        breakage(doc)
        with pytest.raises(ValueError) as excinfo:
            pipeline_config_from_json(doc)
        assert str(excinfo.value) == f"malformed pipeline config: {message}"

    @pytest.mark.parametrize(
        "breakage, message",
        [
            (lambda doc: doc.update(strategy={"kind": "routed", "K": 1}),
             "unknown strategy keys: ['K']"),
            (lambda doc: doc.update(comment="top-2"), "unknown top-level keys: ['comment']"),
            (lambda doc: doc["experts"][1].update(dim=4), "unknown expert keys: ['dim']"),
            (lambda doc: doc["projector"].update(stage3={}), "unknown projector keys: ['stage3']"),
            (lambda doc: doc["experts"].append("id"), "expert must be a JSON object, got 'id'"),
            (lambda doc: doc.update(strategy="routed"),
             "strategy must be a JSON object, got 'routed'"),
            (lambda doc: doc["router"].update(init="seeded"),
             "unknown router document keys: ['init']"),
            (lambda doc: doc["projector"]["stage1"].update(Bias=[0]),
             "unknown projector stage1 keys: ['Bias']"),
            (lambda doc: doc.update(router=[1, 2]),
             "router document must be a JSON object, got [1, 2]"),
            (lambda doc: doc["projector"].update(stage2="w"),
             "projector stage2 must be a JSON object, got 'w'"),
        ],
        ids=[
            "strategy-K", "top-level", "expert", "projector", "expert-string", "strategy-string",
            "router", "projector-stage1", "router-list", "projector-stage2-string",
        ],
    )
    def test_unknown_key_rejected(self, breakage, message):
        doc = pipeline_config_to_json(small_config(FusionStrategy(kind="routed")))
        breakage(doc)
        with pytest.raises(ValueError) as excinfo:
            pipeline_config_from_json(doc)
        assert str(excinfo.value) == f"malformed pipeline config: {message}"

    @pytest.mark.parametrize(
        "make",
        [
            toy_judging_config,
            lambda: small_gradcheck_config(0)[0],
            lambda: mixed_config(FusionStrategy(kind="routed", k=2)),
        ],
        ids=["toy-judging", "small-gradcheck", "mixed"],
    )
    def test_written_document_loads(self, make):
        doc = json.loads(json.dumps(pipeline_config_to_json(make())))
        assert pipeline_config_to_json(pipeline_config_from_json(doc)) == doc

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda doc: doc["experts"][1].pop("seed"),
            lambda doc: doc["strategy"].pop("kind"),
            lambda doc: doc["projector"].pop("stage1"),
            lambda doc: doc.update(router=[1.0, 2.0]),
        ],
        ids=["expert-seed", "strategy-kind", "projector-stage1", "router-not-object"],
    )
    def test_malformed_nested_field_rejected(self, breakage):
        doc = pipeline_config_to_json(small_config(FusionStrategy(kind="routed")))
        breakage(doc)
        with pytest.raises(ValueError, match="^malformed pipeline config: "):
            pipeline_config_from_json(doc)
