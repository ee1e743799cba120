"""Acceptance suite: one pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -s`` to stream the lines; without ``-s``
pytest shows them in the captured-output section of any failure.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from routebench.benchmark import (
    CATEGORY_NAMES,
    HallucinationCategory,
    ImageRef,
    build_synthetic_dataset,
    dumps_dataset,
    loads_dataset,
)
from routebench.datagen import (
    CATEGORY_SPECS,
    DatagenConfig,
    category_spec,
    generate_dataset,
)
from routebench.evaluator import (
    AffinityConfig,
    affinity_scorer,
    dumps_judgements,
    evaluate_dataset,
    oracle_scorer,
    toy_judging_config,
)
from routebench.experts import (
    FeatureMap,
    ImageGrid,
    ToyExpertSpec,
    encode_toy_expert,
    seeded_adapter,
)
from routebench.fusion import (
    FusionStrategy,
    PipelineConfig,
    ProjectorParams,
    _merge,
    _route,
    fuse_add,
    fuse_concat,
    mlp,
    project,
    run_pipeline,
    weighted_fuse,
)
from routebench.metrics import (
    BinaryOutcome,
    avg_metric,
    confusion_counts,
    pope_metrics,
)
from routebench.numerics import (
    CHECKED_PARAMS,
    check_router_fusion_gradients,
    small_gradcheck_config,
)
from routebench.router import (
    RouterParams,
    RoutingWeights,
    clip_encode,
    routing_weights,
    select_top_k,
)
from test_datagen import FlakyClient, InstrumentedClient, ScriptedClient


@contextlib.contextmanager
def criterion(num, description, budget_seconds=None):
    """Print exactly one PASS/FAIL line for the wrapped criterion body."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(
            f"FAIL criterion {num:2d}: {description} "
            f"(runtime {elapsed:.2f}s exceeds {budget_seconds:.0f}s budget)",
            flush=True,
        )
        raise AssertionError(
            f"criterion {num} exceeded its {budget_seconds:.0f}s runtime budget "
            f"({elapsed:.2f}s)"
        )
    print(f"PASS criterion {num:2d}: {description} [{elapsed:.2f}s]", flush=True)


FROZEN_AVG_PAIRS = [
    (86.1, 44.5, 65.3),
    (86.8, 44.3, 65.6),
    (87.9, 47.6, 67.8),
    (88.8, 48.2, 68.5),
    (85.2, 53.2, 69.2),
    (85.2, 53.9, 69.6),
    (86.7, 54.3, 70.5),
]


def test_criterion_01_average_metric_pairs():
    with criterion(
        1, "avg_metric reproduces 7 frozen (f1, overall) pairs within 0.05", 1.0
    ):
        for f1, overall, expected in FROZEN_AVG_PAIRS:
            got = avg_metric(f1, overall)
            assert abs(got - expected) <= 0.05 + 1e-9, (f1, overall, got, expected)


def test_criterion_02_routing_simplex_properties():
    with criterion(
        2,
        "softmax weights: simplex sum 1e-9, shift invariance 1e-12, argmax exact "
        "(1000 vectors per width 2..8)",
        5.0,
    ):
        rng = np.random.default_rng(20260815)
        for n in range(2, 9):
            for _ in range(1000):
                logits = rng.normal(scale=rng.uniform(0.5, 10.0), size=n)
                w = routing_weights(logits).weights
                assert abs(float(w.sum()) - 1.0) <= 1e-9
                assert w.min() >= 0.0 and w.max() <= 1.0
                shift = rng.uniform(-500.0, 500.0)
                shifted = routing_weights(logits + shift).weights
                assert np.abs(shifted - w).max() <= 1e-12
                assert int(np.argmax(w)) == int(np.argmax(logits))


# The checks named "stacked" test a criterion's property through the kernels
# that eval, run_pipeline and gradcheck run (fusion._route, _merge and mlp)
# over a stack of rows.  An identity router makes each row's logits the row
# itself, exactly.


def test_criterion_02_stacked_route_kernel():
    rng = np.random.default_rng(20260816)
    for n in range(2, 9):
        logits = rng.normal(size=(1000, n)) * rng.uniform(0.5, 10.0, size=(1000, 1))
        w, kept = _route(logits, np.eye(n), np.zeros(n), None)
        assert kept is None
        assert np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-9
        assert w.min() >= 0.0 and w.max() <= 1.0
        shift = np.repeat(rng.uniform(-500.0, 500.0, size=(1000, 1)), n, axis=1)
        shifted, _ = _route(logits, np.eye(n), shift, None)
        assert np.abs(shifted - w).max() <= 1e-12
        np.testing.assert_array_equal(np.argmax(w, axis=-1), np.argmax(logits, axis=-1))


def brute_force_top_k(weights: np.ndarray, k: int):
    n = weights.size
    if k == n:
        return weights.copy(), frozenset(range(n))
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    kept = sorted(order[:k])
    mask = np.zeros(n, dtype=bool)
    mask[kept] = True
    total = weights[mask].sum()
    out = np.where(mask, weights / total, 0.0)
    return out, frozenset(kept)


def test_criterion_03_top_k_oracle_equivalence():
    with criterion(
        3,
        "select_top_k matches brute-force sort-and-renormalize exactly "
        "(all widths <= 8, all k, 200 trials each, ties included)",
        5.0,
    ):
        rng = np.random.default_rng(31337)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for trial in range(200):
                    logits = rng.normal(scale=2.0, size=n)
                    if trial % 3 == 0 and n >= 2:
                        # force exact weight ties via duplicated logits
                        dup = int(rng.integers(1, n))
                        logits[dup] = logits[0]
                    routing = routing_weights(logits)
                    got = select_top_k(routing, k)
                    want, want_active = brute_force_top_k(routing.weights, k)
                    assert np.array_equal(got.weights, want), (n, k, logits)
                    assert got.active == want_active, (n, k, logits)


def test_criterion_03_stacked_route_kernel():
    rng = np.random.default_rng(31338)
    for n in range(1, 9):
        logits = rng.normal(scale=2.0, size=(200, n))
        if n >= 2:  # exact weight ties in every third row
            rows = np.arange(0, 200, 3)
            logits[rows, rng.integers(1, n, size=rows.size)] = logits[rows, 0]
        for k in [*range(1, n + 1), None]:
            weights, kept = _route(logits, np.eye(n), np.zeros(n), k)
            for i, row in enumerate(logits):
                want, want_active = brute_force_top_k(routing_weights(row).weights, k or n)
                active = range(n) if kept is None else np.flatnonzero(kept[i]).tolist()
                assert weights[i].tobytes() == want.tobytes(), (n, k, row)
                assert frozenset(active) == want_active, (n, k, row)


ZERO_OUTPUT_PERSONAS = ("edge-shape", "text-stripe", "color-histogram")


def test_criterion_04_residual_identity_on_zero_experts():
    with criterion(
        4,
        "with all expert outputs zero the routed pipeline equals "
        "project(patch tokens) bit-exactly (20 seeded configs)",
    ):
        for case in range(20):
            rng = np.random.default_rng(4000 + case)
            n_experts = int(rng.integers(1, 5))
            canonical_tokens = int(rng.choice([4, 16]))
            canonical_dim = int(rng.choice([6, 8, 24]))
            experts = tuple(
                ToyExpertSpec(
                    id=i,
                    persona=ZERO_OUTPUT_PERSONAS[int(rng.integers(0, 3))],
                    seed=int(rng.integers(0, 2**31)),
                    native_tokens=int(rng.choice([4, 16])),
                    native_dim=int(rng.choice([5, canonical_dim])),
                )
                for i in range(n_experts)
            )
            router = RouterParams(
                rng.normal(size=(canonical_dim, n_experts)), rng.normal(size=n_experts)
            )
            hidden = int(rng.choice([4, 8]))
            projector = ProjectorParams(
                stage1=seeded_adapter(canonical_dim, hidden, seed=case),
                stage2=seeded_adapter(hidden, canonical_dim, seed=case + 1),
            )
            k = rng.choice([None, *range(1, n_experts + 1)])
            config = PipelineConfig(
                experts=experts,
                router=router,
                strategy=FusionStrategy(kind="routed", k=None if k is None else int(k)),
                projector=projector,
                canonical_tokens=canonical_tokens,
                canonical_dim=canonical_dim,
                clip_seed=case,
            )
            image = ImageGrid(np.full((16, 16, 3), float(rng.uniform(0.05, 0.95))))
            # premise: constant images drive these personas to exact zero
            for spec in config.experts:
                assert not encode_toy_expert(image, spec).values.any()
            result = run_pipeline(image, config)
            clip = clip_encode(image, config.clip_params())
            direct = project(clip.patches, config.projector)
            assert result.features.values.tobytes() == direct.values.tobytes(), case


def test_criterion_04_stacked_merge_and_projector():
    rng = np.random.default_rng(4100)
    for case in range(20):
        batch, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        tokens, dim = int(rng.choice([4, 16])), int(rng.choice([6, 8, 24]))
        hidden = int(rng.choice([4, 8]))
        k = rng.choice([None, *range(1, n + 1)])
        cls, patches = rng.normal(size=(batch, dim)), rng.normal(size=(batch, tokens, dim))
        router = rng.normal(size=(dim, n)), rng.normal(size=n)
        weights, _ = _route(cls, *router, None if k is None else int(k))
        # A stacked zero map per expert some row weighs, as _run_stack merges.
        ids = [i for i in range(n) if weights[:, i].any()]
        zeros = [np.zeros(patches.shape) for _ in ids]
        s1, s2 = seeded_adapter(dim, hidden, seed=case), seeded_adapter(hidden, dim, seed=case + 1)
        merged = _merge(patches, zeros, weights[:, ids], "routed")
        out = mlp(merged, s1.weights, s1.bias, s2.weights, s2.bias)[-1]
        for row, values in zip(out, patches):
            direct = project(FeatureMap(values, source="clip-patch"), ProjectorParams(s1, s2))
            assert row.tobytes() == direct.values.tobytes(), case


def test_criterion_05_gradient_verification():
    with criterion(
        5,
        "analytic gradients match central differences (eps 1e-5) within 1e-6 "
        "max relative error on 20 seeded small configs",
        30.0,
    ):
        for seed in range(20):
            config, image = small_gradcheck_config(seed)
            reports = check_router_fusion_gradients(
                config, image, seed=seed, eps=1e-5, threshold=1e-6
            )
            names = {r.parameter_name for r in reports}
            assert names == set(CHECKED_PARAMS)
            for report in reports:
                assert report.passed, (seed, report)
                assert report.max_rel_error < 1e-6, (seed, report)


def test_criterion_06_oracle_evaluation_protocol():
    with criterion(
        6,
        "500-sample synthetic run: oracle error 0.0, negated oracle 1.0, "
        "per-sample antisymmetry, parallelism 1 == 8",
        60.0,
    ):
        dataset = build_synthetic_dataset(50, seed=2026)
        assert len(dataset) == 500
        config = toy_judging_config()
        oracle = oracle_scorer(dataset)
        negated = oracle_scorer(dataset, negate=True)

        serial, serial_report = evaluate_dataset(oracle, config, dataset, parallelism=1)
        parallel, _ = evaluate_dataset(oracle, config, dataset, parallelism=8)
        flipped, flipped_report = evaluate_dataset(negated, config, dataset, parallelism=8)

        assert serial_report.overall.error_rate == 0.0
        assert flipped_report.overall.error_rate == 1.0
        assert dumps_judgements(serial) == dumps_judgements(parallel)
        for straight, negged in zip(serial, flipped):
            assert straight.sample_id == negged.sample_id
            assert straight.is_error is False and negged.is_error is True
            assert straight.ppl_real == negged.ppl_hall
            assert straight.ppl_hall == negged.ppl_real


def test_criterion_07_color_routing_lowers_color_error():
    with criterion(
        7,
        "color-favoring router beats uniform routing on a 200-sample color set "
        "by >= 5 percentage points (affinity scorer)",
    ):
        dataset = build_synthetic_dataset(
            200, seed=101, categories=[HallucinationCategory.COLOR]
        )
        assert len(dataset) == 200
        scorer = affinity_scorer(AffinityConfig())
        _, uniform_report = evaluate_dataset(
            scorer, toy_judging_config(), dataset, parallelism=8
        )
        _, routed_report = evaluate_dataset(
            scorer,
            toy_judging_config(favored_persona="color-histogram"),
            dataset,
            parallelism=8,
        )
        uniform = uniform_report.overall.error_rate
        routed = routed_report.overall.error_rate
        assert routed < uniform, (routed, uniform)
        assert uniform - routed >= 0.05, (routed, uniform)


def test_criterion_08_fusion_strategy_contracts():
    with criterion(
        8,
        "fusion contracts: add preserves (T,D); concat is (T,N*D) column-block; "
        "fuse_add == N*weighted_fuse(uniform) within 1e-9",
    ):
        rng = np.random.default_rng(8)
        tokens, dim, n = 9, 5, 4
        maps = [
            FeatureMap(rng.normal(size=(tokens, dim)), source=f"expert-{i}")
            for i in range(n)
        ]

        added = fuse_add(maps)
        assert added.values.shape == (tokens, dim)
        np.testing.assert_array_equal(
            added.values, maps[0].values + maps[1].values + maps[2].values + maps[3].values
        )

        catted = fuse_concat(maps)
        assert catted.values.shape == (tokens, n * dim)
        for i in range(n):
            np.testing.assert_array_equal(
                catted.values[:, i * dim : (i + 1) * dim], maps[i].values
            )

        uniform = RoutingWeights(np.full(n, 1.0 / n), frozenset(range(n)))
        scaled = n * weighted_fuse(uniform, maps).values
        assert np.abs(added.values - scaled).max() <= 1e-9


def test_criterion_08_stacked_merge_kernel():
    rng = np.random.default_rng(80)
    batch, tokens, dim, n = 3, 9, 5, 4
    patches = rng.normal(size=(batch, tokens, dim))
    maps = list(rng.normal(size=(n, batch, tokens, dim)))

    added = _merge(patches, maps, None, "add")
    assert added.shape == (batch, tokens, dim)
    np.testing.assert_array_equal(added, patches + (maps[0] + maps[1] + maps[2] + maps[3]))

    catted = _merge(patches, maps, None, "concat")
    assert catted.shape == (batch, tokens, n * dim)
    for i in range(n):
        np.testing.assert_array_equal(catted[..., i * dim : (i + 1) * dim], maps[i])

    scaled = n * (_merge(patches, maps, np.full((batch, n), 1.0 / n), "routed") - patches)
    assert np.abs((added - patches) - scaled).max() <= 1e-9


def test_criterion_09_dataset_round_trip_and_rejection():
    with criterion(
        9,
        "100 random datasets round-trip byte-identically; bad categories and "
        "duplicate ids rejected with line numbers",
    ):
        rng = np.random.default_rng(9)
        for case in range(100):
            per_category = int(rng.integers(1, 4))
            subset = list(HallucinationCategory)
            rng.shuffle(subset)
            subset = subset[: int(rng.integers(1, 11))]
            dataset = build_synthetic_dataset(per_category, seed=case, categories=subset)
            text = dumps_dataset(dataset)
            assert dumps_dataset(loads_dataset(text)) == text

        good_line = dumps_dataset(build_synthetic_dataset(1, seed=0)).splitlines()[0]
        doc = json.loads(good_line)
        doc["category"] = "Sizes"
        with pytest.raises(Exception) as bad_category:
            loads_dataset(json.dumps(doc))
        assert "line 1" in str(bad_category.value)
        assert "Sizes" in str(bad_category.value)
        for name in CATEGORY_NAMES:
            assert name in str(bad_category.value)

        with pytest.raises(Exception) as duplicate:
            loads_dataset(good_line + "\n" + good_line)
        assert "line 2" in str(duplicate.value)
        assert "duplicate" in str(duplicate.value)


def test_criterion_10_pope_confusion_oracle():
    with criterion(
        10,
        "pope_metrics matches brute-force confusion counting on 500 random "
        "outcome sets; f1 identity within 1e-9",
    ):
        rng = np.random.default_rng(10)
        for case in range(500):
            size = int(rng.integers(1, 40))
            preds = ["yes" if rng.random() < 0.5 else "no" for _ in range(size)]
            labels = ["yes" if rng.random() < 0.5 else "no" for _ in range(size)]
            if case % 5 == 0:
                preds = ["no"] * size  # degenerate precision
            if case % 7 == 0:
                labels = ["no"] * size  # degenerate recall
            outcomes = [BinaryOutcome(p, l) for p, l in zip(preds, labels)]

            tp = sum(1 for p, l in zip(preds, labels) if p == "yes" and l == "yes")
            fp = sum(1 for p, l in zip(preds, labels) if p == "yes" and l == "no")
            fn = sum(1 for p, l in zip(preds, labels) if p == "no" and l == "yes")
            tn = sum(1 for p, l in zip(preds, labels) if p == "no" and l == "no")
            assert confusion_counts(outcomes) == (tp, fp, fn, tn)

            row = pope_metrics(outcomes)
            assert abs(row.accuracy - 100.0 * (tp + tn) / size) <= 1e-9
            if tp + fp > 0:
                assert abs(row.precision - 100.0 * tp / (tp + fp)) <= 1e-9
                assert "precision" not in row.degenerate
            else:
                assert row.precision == 0.0 and "precision" in row.degenerate
            if tp + fn > 0:
                assert abs(row.recall - 100.0 * tp / (tp + fn)) <= 1e-9
                assert "recall" not in row.degenerate
            else:
                assert row.recall == 0.0 and "recall" in row.degenerate
            if row.precision + row.recall > 0:
                identity = (
                    2.0 * row.precision * row.recall / (row.precision + row.recall)
                )
                assert abs(row.f1 - identity) <= 1e-9
            else:
                assert row.f1 == 0.0 and "f1" in row.degenerate


def _echo_of_input(request):
    last = request.prompt.rstrip("\n").splitlines()[-1]
    assert last.startswith("Caption: ")
    return last[len("Caption: "):]


def test_criterion_11_datagen_robustness():
    with criterion(
        11,
        "datagen: fail-fail-succeed costs 2 retries; NO and echo replies "
        "skipped; in-flight never exceeds the configured bound",
    ):
        def make_items(n):
            return [
                (ImageRef(kind="file", path=f"imgs/{i:04d}.raw"), f"A red circle sits at row 0 column {i}.")
                for i in range(n)
            ]

        base = dict(endpoint="https://api.example.invalid/v1", model="gen-model")
        one_spec = [category_spec(HallucinationCategory.COLOR)]
        sleeps = []

        flaky = FlakyClient(fail_times=2)
        result = generate_dataset(
            flaky,
            make_items(1),
            specs=one_spec,
            config=DatagenConfig(**base, max_retries=3),
            sleep=sleeps.append,
        )
        assert flaky.calls == 3
        assert result.stats.retries == 2
        assert result.stats.failed == 0
        assert len(result.samples) == 1
        assert sleeps == [0.5, 1.0]

        refusal = generate_dataset(
            ScriptedClient("NO"), make_items(2), config=DatagenConfig(**base)
        )
        assert refusal.samples == []
        assert refusal.stats.skipped_no == 2 * len(CATEGORY_SPECS)

        echo = generate_dataset(
            ScriptedClient(_echo_of_input), make_items(2), config=DatagenConfig(**base)
        )
        assert echo.samples == []
        assert echo.stats.skipped_echo == 2 * len(CATEGORY_SPECS)

        instrumented = InstrumentedClient()
        bounded = generate_dataset(
            instrumented,
            make_items(3),
            config=DatagenConfig(**base, max_in_flight=3),
        )
        assert bounded.stats.produced == 3 * len(CATEGORY_SPECS)
        assert instrumented.peak <= 3
