"""Golden outputs: values frozen from the program so refactors can prove they
change no behaviour.

Text and discrete values (JSONL digests, JSON documents, counts, pass flags)
compare exactly.  Floats that pass through a matrix product (the clip
encoder's projection, routing logits, width adapters, the projector) compare
within a relative 1e-9: another BLAS build or thread count may sum a dot
product in another order, which moves the last bits but not the behaviour.

The byte goldens at the end pin those floats exactly, so a change that
claims the same output bytes can prove it.  They hold for the BLAS kernels
they were taken with, which a fixed product's digest identifies; under other
kernels they skip and the relative goldens above still apply.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from routebench.benchmark import (
    HallucinationCategory,
    build_synthetic_dataset,
    dumps_dataset,
    synth_caption_pair,
    synth_scene,
)
from routebench.datagen import ClientShape, DatagenConfig
from routebench.evaluator import (
    AffinityConfig,
    affinity_scorer,
    dumps_judgements,
    evaluate_dataset,
    toy_judging_config,
)
from routebench.experts import (
    PERSONAS,
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
    pipeline_config_from_json,
    pipeline_config_to_json,
    run_pipeline,
)
from routebench.metrics import BinaryOutcome, pope_metrics
from routebench.numerics import check_router_fusion_gradients, small_gradcheck_config
from routebench.router import RouterParams
from test_fusion import reference_pipeline

REL = 1e-9


def assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=REL, abs_tol=0.0), (got, want)


def fixed_pipeline_config() -> PipelineConfig:
    experts = (
        ToyExpertSpec(id=0, persona="edge-shape", seed=3, native_tokens=4, native_dim=2),
        ToyExpertSpec(id=1, persona="color-histogram", seed=4, native_tokens=16, native_dim=3),
    )
    router = RouterParams(np.array([[0.5, -0.25], [1.0, 0.0]]), np.array([0.125, -2.0]))
    projector = ProjectorParams(
        stage1=identity_adapter(2),
        stage2=LinearAdapter(np.array([[1.5, 0.0, -1.0], [0.25, 2.0, 0.5]]), np.array([0.0, 1.0, -0.5])),
    )
    return PipelineConfig(
        experts=experts,
        router=router,
        strategy=FusionStrategy(kind="routed", k=1),
        projector=projector,
        canonical_tokens=4,
        canonical_dim=2,
        clip_seed=9,
    )


def fixed_datagen_config() -> DatagenConfig:
    shape = ClientShape(
        prompt_mode="text",
        model_key="engine",
        prompt_key="prompt",
        response_path=("output", 0, "text"),
        auth_header="X-Api-Key",
        auth_scheme="",
    )
    return DatagenConfig(
        endpoint="https://llm.example.com/v1/complete",
        model="captioner-small",
        auth_env="CAPTION_TOKEN",
        temperature=0.25,
        max_tokens=64,
        max_retries=5,
        backoff_base_ms=125,
        max_in_flight=3,
        max_failure_fraction=0.5,
        timeout_seconds=12.5,
        shape=shape,
    )


def routing_config() -> PipelineConfig:
    """Judging geometry with mismatched native grids, a discriminating
    router and top-2 masking, so align, route and the mask all matter."""
    experts = tuple(
        ToyExpertSpec(
            id=i,
            persona=persona,
            seed=i,
            native_tokens=16 if i % 2 else 64,
            native_dim=48 if i % 2 else 12,
        )
        for i, persona in enumerate(PERSONAS)
    )
    head = seeded_adapter(24, len(experts), seed=7)
    return PipelineConfig(
        experts=experts,
        router=RouterParams(head.weights * 40.0, head.bias),
        strategy=FusionStrategy(kind="routed", k=2),
        projector=ProjectorParams(stage1=seeded_adapter(24, 24, 1), stage2=seeded_adapter(24, 24, 2)),
        canonical_tokens=64,
        canonical_dim=24,
        clip_seed=5,
    )


def judging_summary(config) -> dict:
    """category -> [n, errors, ties, sum PPL(R), sum PPL(H)]."""
    dataset = build_synthetic_dataset(20, 0)
    judgements, _ = evaluate_dataset(affinity_scorer(AffinityConfig()), config, dataset)
    summary = {}
    for j in judgements:
        row = summary.setdefault(j.category.value, [0, 0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += int(j.is_error)
        row[2] += int(j.ppl_real == j.ppl_hall)
        row[3] += j.ppl_real
        row[4] += j.ppl_hall
    return summary


def routing_rows(config) -> list:
    """Per scene seed 0..11: routing weights, feature sum and sum of squares."""
    rows = []
    for seed in range(12):
        _, image = synth_scene(seed)
        result = run_pipeline(image, config)
        values = result.features.values
        rows.append(
            (
                [float(w) for w in result.routing.weights],
                float(values.sum()),
                float((values * values).sum()),
            )
        )
    return rows


def gradcheck_rows() -> list:
    rows = []
    for seed in range(20):
        config, image = small_gradcheck_config(seed)
        reports = check_router_fusion_gradients(config, image, seed=seed)
        rows.append([(r.passed, r.n_coordinates) for r in reports])
    return rows


def caption_pair_digest() -> str:
    """sha256 over every category's caption pair for scene seeds 0..1999,
    each with the positions and words where its two captions differ
    (trailing punctuation stripped)."""
    digest = hashlib.sha256()
    for seed in range(2000):
        desc, _ = synth_scene(seed)
        for offset, category in enumerate(HallucinationCategory):
            pair = synth_caption_pair(desc, category, 10 * seed + offset)
            doc = None
            if pair is not None:
                r_tokens, h_tokens = pair.real.split(), pair.hallucinated.split()
                diffs = [i for i, (a, b) in enumerate(zip(r_tokens, h_tokens)) if a != b]
                doc = [
                    pair.real,
                    pair.hallucinated,
                    category.value,
                    diffs,
                    [r_tokens[i].rstrip(".,") for i in diffs],
                    [h_tokens[i].rstrip(".,") for i in diffs],
                ]
            digest.update((json.dumps(doc) + "\n").encode("utf-8"))
    return digest.hexdigest()


DATASET_SHA256 = "3d68fb744ce2233096ef29256ff704f170f3349b84b11b9b86ce900da4573a0a"

CAPTION_PAIRS_SHA256 = "812f0701b2a7e17fa393e1b45c69fe67af7dff5785c4b4881469b3e51e9837fc"

PIPELINE_JSON = '{"experts": [{"id": 0, "persona": "edge-shape", "seed": 3, "native_tokens": 4, "native_dim": 2}, {"id": 1, "persona": "color-histogram", "seed": 4, "native_tokens": 16, "native_dim": 3}], "router": {"dim_in": 2, "n_experts": 2, "weights": [0.5, -0.25, 1.0, 0.0], "bias": [0.125, -2.0]}, "strategy": {"kind": "routed", "k": 1}, "projector": {"stage1": {"in_dim": 2, "out_dim": 2, "weights": [1.0, 0.0, 0.0, 1.0], "bias": [0.0, 0.0]}, "stage2": {"in_dim": 2, "out_dim": 3, "weights": [1.5, 0.0, -1.0, 0.25, 2.0, 0.5], "bias": [0.0, 1.0, -0.5]}}, "canonical_tokens": 4, "canonical_dim": 2, "clip_seed": 9}'

ROUTER_JSON = '{"dim_in": 2, "n_experts": 2, "weights": [0.5, -0.25, 1.0, 0.0], "bias": [0.125, -2.0]}'

DATAGEN_JSON = '{"endpoint": "https://llm.example.com/v1/complete", "model": "captioner-small", "auth_env": "CAPTION_TOKEN", "temperature": 0.25, "max_tokens": 64, "max_retries": 5, "backoff_base_ms": 125, "max_in_flight": 3, "max_failure_fraction": 0.5, "timeout_seconds": 12.5, "shape": {"prompt_mode": "text", "model_key": "engine", "temperature_key": "temperature", "max_tokens_key": "max_tokens", "prompt_key": "prompt", "response_path": ["output", 0, "text"], "auth_header": "X-Api-Key", "auth_scheme": ""}}'

METRICS_JSON = '{"accuracy": 60.0, "precision": 66.66666666666667, "recall": 66.66666666666667, "f1": 66.66666666666667, "degenerate": []}'

DEGENERATE_METRICS_JSON = '{"accuracy": 100.0, "precision": 0.0, "recall": 0.0, "f1": 0.0, "degenerate": ["precision", "recall", "f1"]}'

JUDGING_UNIFORM = {
    'AbsolutePosition': [20, 0, 20, 396.90439731550606, 396.90439731550606],
    'Action': [20, 0, 20, 397.6068670692862, 397.6068670692862],
    'Category': [20, 0, 20, 397.87552241083574, 397.87552241083574],
    'Color': [20, 6, 0, 397.1587612295739, 397.26764814267017],
    'Counting': [20, 0, 20, 396.89279074253596, 396.89279074253596],
    'Occlusion': [20, 0, 20, 396.89614122922285, 396.89614122922285],
    'RelativeInteraction': [20, 0, 20, 396.88683886711715, 396.88683886711715],
    'RelativePosition': [20, 0, 20, 396.0853756344949, 396.0853756344949],
    'Shape': [20, 0, 20, 394.8441505735319, 394.8441505735319],
    'Text': [20, 0, 20, 396.15023410164207, 396.15023410164207],
}

JUDGING_COLOR = {
    'AbsolutePosition': [20, 0, 20, 390.50573159974783, 390.50573159974783],
    'Action': [20, 0, 20, 390.7622184745195, 390.7622184745195],
    'Category': [20, 0, 20, 391.9997315919752, 391.9997315919752],
    'Color': [20, 0, 0, 389.93422227737034, 391.19521218290276],
    'Counting': [20, 0, 20, 390.3311074600421, 390.3311074600421],
    'Occlusion': [20, 0, 20, 389.63528976815246, 389.63528976815246],
    'RelativeInteraction': [20, 0, 20, 389.7171392952034, 389.7171392952034],
    'RelativePosition': [20, 0, 20, 388.56659646157055, 388.56659646157055],
    'Shape': [20, 0, 20, 386.16261597539864, 386.16261597539864],
    'Text': [20, 0, 20, 388.9684985918876, 388.9684985918876],
}

ROUTING_ROWS = [
    ([0.0, 0.0, 0.3942756310256888, 0.0, 0.6057243689743111, 0.0], -2.6545364903527493, 0.17342033322707973),
    ([0.0, 0.0, 0.3859629258967059, 0.0, 0.6140370741032941, 0.0], -2.3367282676751326, 0.11531201697184323),
    ([0.0, 0.0, 0.40034897638509775, 0.0, 0.5996510236149023, 0.0], -2.039258925814738, 0.0577521309103218),
    ([0.0, 0.0, 0.39174362450071415, 0.0, 0.6082563754992858, 0.0], -2.6184030723642584, 0.16088918903233435),
    ([0.0, 0.0, 0.3814534734924132, 0.0, 0.6185465265075868, 0.0], -2.347223129978121, 0.11306241564014632),
    ([0.0, 0.0, 0.3601820755664926, 0.0, 0.6398179244335074, 0.0], -3.048769255351843, 0.23301801763456398),
    ([0.0, 0.0, 0.3695096842083092, 0.0, 0.6304903157916907, 0.0], -2.540541250690657, 0.11993881775644494),
    ([0.0, 0.0, 0.38493241803438477, 0.0, 0.6150675819656152, 0.0], -2.3180718517171273, 0.11137818944671954),
    ([0.0, 0.0, 0.39131864686392825, 0.0, 0.6086813531360719, 0.0], -2.577198448954432, 0.1645590796898708),
    ([0.0, 0.0, 0.36564401709278593, 0.0, 0.6343559829072141, 0.0], -2.7221210625306838, 0.17508987735315007),
    ([0.0, 0.0, 0.38580376086224893, 0.0, 0.614196239137751, 0.0], -2.425069187488109, 0.11850693664983245),
    ([0.0, 0.0, 0.37523119502831925, 0.0, 0.6247688049716809, 0.0], -2.701531426215782, 0.17586422869112292),
]

# The colour-favoured judging config routes top-1, so the five other weights
# are exact zeros (under its earlier soft routing each was 1.3887943863999641e-11
# and the favoured one 0.99999999993056; the feature sums moved by at most
# 3.2e-8 relative, the sums of squares by at most 9.5e-11).
ROUTING_ROWS_COLOR = [
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 7.092769064704063, 6.991212721182126),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 0.2548923982773521, 1.8727091524350827),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], -1.4126707823680515, 1.2258320959091258),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.9802872863414946, 3.7395448066201795),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 0.690170452790502, 2.2895769219277025),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 5.556309650773946, 4.974042904337141),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 7.302666233195858, 7.511665214464371),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 0.9304839016211438, 2.333217494484395),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1.5945399923349461, 2.6095162285389755),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 5.024012934313834, 4.887959293394978),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.7873659933127195, 3.933573088464082),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 4.925434932467077, 5.214416439463601),
]


GRADCHECK_ROWS = [
    [[True, 32], [True, 4], [True, 64], [True, 64]],
    [[True, 24], [True, 3], [True, 32], [True, 32]],
    [[True, 16], [True, 4], [True, 16], [True, 16]],
    [[True, 16], [True, 4], [True, 16], [True, 16]],
    [[True, 32], [True, 4], [True, 32], [True, 32]],
    [[True, 16], [True, 4], [True, 16], [True, 16]],
    [[True, 24], [True, 3], [True, 64], [True, 64]],
    [[True, 32], [True, 4], [True, 64], [True, 64]],
    [[True, 16], [True, 4], [True, 16], [True, 16]],
    [[True, 24], [True, 3], [True, 32], [True, 32]],
    [[True, 16], [True, 4], [True, 32], [True, 32]],
    [[True, 16], [True, 2], [True, 32], [True, 32]],
    [[True, 24], [True, 3], [True, 64], [True, 64]],
    [[True, 32], [True, 4], [True, 32], [True, 32]],
    [[True, 16], [True, 2], [True, 64], [True, 64]],
    [[True, 32], [True, 4], [True, 32], [True, 32]],
    [[True, 24], [True, 3], [True, 32], [True, 32]],
    [[True, 16], [True, 4], [True, 32], [True, 32]],
    [[True, 16], [True, 4], [True, 32], [True, 32]],
    [[True, 12], [True, 3], [True, 32], [True, 32]],
]


def test_synthetic_dataset_digest():
    text = dumps_dataset(build_synthetic_dataset(50, 0))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DATASET_SHA256


def test_caption_pair_digest():
    assert caption_pair_digest() == CAPTION_PAIRS_SHA256


def test_pipeline_config_json_and_round_trip():
    text = json.dumps(pipeline_config_to_json(fixed_pipeline_config()))
    assert text == PIPELINE_JSON
    again = pipeline_config_to_json(pipeline_config_from_json(json.loads(text)))
    assert json.dumps(again) == PIPELINE_JSON


def test_router_json_and_round_trip():
    router = fixed_pipeline_config().router
    text = json.dumps(router.to_json_dict())
    assert text == ROUTER_JSON
    assert json.dumps(RouterParams.from_json_dict(json.loads(text)).to_json_dict()) == ROUTER_JSON


def test_datagen_config_json_and_round_trip():
    assert DatagenConfig.from_json_dict(json.loads(DATAGEN_JSON)) == fixed_datagen_config()


def test_metrics_row_json():
    outcomes = [BinaryOutcome(p, l) for p, l in (("yes", "yes"), ("yes", "no"), ("no", "yes"), ("no", "no"), ("yes", "yes"))]
    assert json.dumps(pope_metrics(outcomes).to_json_dict()) == METRICS_JSON
    degenerate = pope_metrics([BinaryOutcome("no", "no"), BinaryOutcome("no", "no")])
    assert json.dumps(degenerate.to_json_dict()) == DEGENERATE_METRICS_JSON


@pytest.mark.parametrize("favored, want", [(None, JUDGING_UNIFORM), ("color-histogram", JUDGING_COLOR)])
def test_judging_summary(favored, want):
    got = judging_summary(toy_judging_config(favored_persona=favored))
    assert sorted(got) == sorted(want)
    for category, row in got.items():
        assert row[:3] == want[category][:3], category
        assert_close(row[3:], want[category][3:])


@pytest.mark.parametrize("favored, want", [(None, ROUTING_ROWS), ("color-histogram", ROUTING_ROWS_COLOR)])
def test_routing_weights_and_features(favored, want):
    config = routing_config() if favored is None else toy_judging_config(favored_persona=favored)
    got = routing_rows(config)
    assert len(got) == len(want)
    for (weights, total, squares), (w_weights, w_total, w_squares) in zip(got, want):
        assert [w == 0.0 for w in weights] == [w == 0.0 for w in w_weights]
        assert_close(weights + [total, squares], w_weights + [w_total, w_squares])


def test_gradcheck_reports():
    assert gradcheck_rows() == [[tuple(r) for r in row] for row in GRADCHECK_ROWS]


def sha256_of(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def blas_digest() -> str:
    """sha256 of seeded products at the shapes the byte goldens multiply:
    the judging clip projection, paper-geometry adapters and projector."""
    rng = np.random.default_rng(2025)
    shapes = ((64, 192, 24), (64, 512, 1024), (576, 1024, 1024), (576, 6144, 1024), (1, 1024, 6))
    return sha256_of(*(rng.random((m, k)) @ rng.random((k, n)) for m, k, n in shapes))


BLAS_SHA256 = "eda3298fc3cdf35eb1930e19ee0079a8150e3bfdbc84f763f1d7acefaa4ad2f4"


@pytest.fixture(scope="module")
def golden_blas():
    if blas_digest() != BLAS_SHA256:
        pytest.skip("BLAS kernels sum products in another order than where the byte goldens were taken")


def paper_config(kind, k=None) -> PipelineConfig:
    """perfbench's pipeline-paper576 geometry: six mismatched experts into
    576 tokens x 1024 dims."""
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
    proj_in = 1024 * len(experts) if kind == "concat" else 1024
    return PipelineConfig(
        experts=experts,
        router=RouterParams(head.weights, head.bias),
        strategy=FusionStrategy(kind=kind, k=k),
        projector=ProjectorParams(
            stage1=seeded_adapter(proj_in, 1024, 1), stage2=seeded_adapter(1024, 1024, 2)
        ),
    )


JUDGEMENTS_SHA256 = {
    None: "44520acbc4f16ac8578c3c32919c9bb1ed0ea7bfb861ca3c974eebddd28c010d",
    # Top-1 routing; the soft-routed digest was 8d692cdb...d7f8.
    "color-histogram": "61a76f0490fcd8469374cfa10ef7c21ccf90d74d942aecf88d601b6e16b2660d",
}

# The random-projection expert adapts before it is upsampled, which moves
# the last bits; test_paper_geometry_matches_the_staged_composition bounds
# the change.  The resample-first digests are in the comments.
PAPER_SHA256 = {
    # was 96d0435e...6dea2
    ("routed", 2): "232e69aa38dddb96fe7c33dd66ce4cc2e73803492b69e738b7a8493e74da37b5",
    # was 59577ec3...36a5b
    ("add", None): "7cd3a18f4eb5d3ca8c0a655fdb504f8c4caddb23648ab08143d59eb69a7c9e31",
    # was dcd15f5b...2356
    ("concat", None): "c7d3c7b41f59b82cc161837e2cecd7e789a15824d64622da35cdc5a7d6ad46a3",
}


@pytest.mark.parametrize("favored", sorted(JUDGEMENTS_SHA256, key=str))
def test_judgement_bytes(golden_blas, favored):
    dataset = build_synthetic_dataset(50, 0)
    config = toy_judging_config(favored_persona=favored)
    judgements, _ = evaluate_dataset(affinity_scorer(AffinityConfig()), config, dataset)
    text = dumps_judgements(judgements)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == JUDGEMENTS_SHA256[favored]


def gradcheck_report_digest(max_coords_per_param) -> str:
    """sha256 over every report row, errors included, for configs 0..19."""
    digest = hashlib.sha256()
    for seed in range(20):
        config, image = small_gradcheck_config(seed)
        reports = check_router_fusion_gradients(
            config, image, seed=seed, max_coords_per_param=max_coords_per_param
        )
        for report in reports:
            digest.update((json.dumps(report.to_json_dict(), sort_keys=True) + "\n").encode("utf-8"))
    return digest.hexdigest()


GRADCHECK_REPORT_SHA256 = {
    None: "8dbf5860e6688800e9f0c0e7c88a6228539adbb001307f3ce6b12ab6f57003db",
    3: "aa6db55a6d9ac813186ae517dd698f9941f2f73bc1d7efacce87a410c7e7543b",
}


@pytest.mark.parametrize("max_coords_per_param", sorted(GRADCHECK_REPORT_SHA256, key=str))
def test_gradcheck_report_bytes(golden_blas, max_coords_per_param):
    digest = gradcheck_report_digest(max_coords_per_param)
    assert digest == GRADCHECK_REPORT_SHA256[max_coords_per_param]


@pytest.mark.parametrize("kind, k", sorted(PAPER_SHA256, key=str))
def test_paper_geometry_pipeline_bytes(golden_blas, kind, k):
    image = ImageGrid(np.random.default_rng([0, 0]).random((384, 384, 3)))
    result = run_pipeline(image, paper_config(kind, k))
    assert sha256_of(result.features.values, result.routing.weights) == PAPER_SHA256[(kind, k)]


@pytest.mark.parametrize("kind, k", sorted(PAPER_SHA256, key=str))
def test_paper_geometry_matches_the_staged_composition(kind, k):
    image = ImageGrid(np.random.default_rng([0, 0]).random((384, 384, 3)))
    config = paper_config(kind, k)
    result = run_pipeline(image, config)
    routing, features = reference_pipeline(image, config)
    assert result.routing.weights.tobytes() == routing.weights.tobytes()
    assert result.routing.active == routing.active
    want = features.values
    assert np.abs(result.features.values - want).max() <= 1e-12 * np.abs(want).max()
