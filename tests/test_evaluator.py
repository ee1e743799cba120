"""Tests for perplexity judging, scorers, and report aggregation."""

import math
import random
import time

import numpy as np
import pytest

from routebench.benchmark import (
    COLORS,
    COUNT_WORDS,
    HORIZONTAL_RELATIONS,
    INTERACTION_WORDS,
    LABEL_WORDS,
    SHAPES,
    VERTICAL_RELATIONS,
    BenchmarkSample,
    DatasetError,
    HallucinationCategory,
    ImageRef,
    SceneDescriptor,
    SceneObject,
    build_synthetic_dataset,
    rasterize,
)
from routebench.evaluator import (
    _BASE_NLL,
    _NLL_MAX,
    _NLL_MIN,
    AffinityConfig,
    CoinFlipScorer,
    EvaluationError,
    Judgement,
    affinity_scorer,
    dumps_judgements,
    error_rates,
    evaluate_dataset,
    judge_sample,
    loads_judgements,
    oracle_scorer,
    perplexity,
    radar_csv,
    toy_judging_config,
    _token_kind,
)
from routebench.experts import FeatureMap
from routebench.fusion import run_pipeline

DUMMY_FEATURES = FeatureMap(np.zeros((4, 3)), source="fused")


class FixedScorer:
    """Maps caption -> constant per-token NLL; unknown captions get 1.0."""

    def __init__(self, nll_by_caption):
        self.nll_by_caption = nll_by_caption

    def score(self, features, real, hallucinated):
        return tuple(
            [self.nll_by_caption.get(c, 1.0)] * len(c.split()) for c in (real, hallucinated)
        )


class Boom:
    def score(self, features, real, hallucinated):
        raise RuntimeError("scorer exploded")


def make_sample(sample_id="s-1", real="A red circle sits.", hall="A blue circle sits.",
                category=HallucinationCategory.COLOR):
    return BenchmarkSample(
        id=sample_id,
        image=ImageRef(kind="scene", scene=SceneDescriptor(seed=0, objects=())),
        real_caption=real,
        hallucinated_caption=hall,
        category=category,
    )


class TestPerplexity:
    def test_uniform_vocabulary(self):
        assert perplexity([math.log(4.0)] * 3) == pytest.approx(4.0, rel=1e-12)

    def test_certainty(self):
        assert perplexity([0.0, 0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_mean(self):
        assert perplexity([math.log(2.0), math.log(8.0)]) == pytest.approx(4.0, rel=1e-12)

    def test_rejects_empty_negative_nonfinite(self):
        with pytest.raises(ValueError, match="at least one"):
            perplexity([])
        with pytest.raises(ValueError, match="non-negative"):
            perplexity([0.5, -0.1])
        with pytest.raises(ValueError, match="finite"):
            perplexity([0.5, float("inf")])

    def test_permutation_invariant_and_monotone(self):
        rng = random.Random(0)
        for _ in range(50):
            nlls = [rng.uniform(0, 3) for _ in range(rng.randint(1, 10))]
            shuffled = list(nlls)
            rng.shuffle(shuffled)
            assert perplexity(shuffled) == pytest.approx(perplexity(nlls), rel=1e-12)
            bumped = list(nlls)
            bumped[rng.randrange(len(bumped))] += 0.1
            assert perplexity(bumped) > perplexity(nlls)


class TestJudgement:
    def test_prompt_template_metadata(self):
        j = Judgement("s", 4.0, 5.0, False, HallucinationCategory.COLOR)
        assert not hasattr(j, "prompt_template")
        assert "prompt_template" not in j.to_json_dict()

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Judgement("s", 5.0, 4.0, False, HallucinationCategory.COLOR)

    def test_error_rule(self):
        sample = make_sample()
        low_real = FixedScorer({sample.real_caption: 1.0, sample.hallucinated_caption: 2.0})
        assert judge_sample(low_real, DUMMY_FEATURES, sample).is_error is False
        high_real = FixedScorer({sample.real_caption: 2.0, sample.hallucinated_caption: 1.0})
        assert judge_sample(high_real, DUMMY_FEATURES, sample).is_error is True

    def test_tie_counts_as_correct(self):
        sample = make_sample()
        tied = FixedScorer({})
        judgement = judge_sample(tied, DUMMY_FEATURES, sample)
        assert judgement.ppl_real == judgement.ppl_hall
        assert judgement.is_error is False

    def test_scorer_failure_names_sample(self):
        with pytest.raises(EvaluationError, match="sample s-1.*scorer exploded"):
            judge_sample(Boom(), DUMMY_FEATURES, make_sample())

    @pytest.mark.parametrize(
        "nlls, message",
        [
            (([0.5], [-0.1]), "non-negative"),
            (([math.nan], [0.5]), "finite"),
            (([], [0.5]), "at least one"),
            (([0.5],), "not enough values"),
        ],
    )
    def test_malformed_scorer_output_names_sample(self, nlls, message):
        class Malformed:
            def score(self, features, real, hallucinated):
                return nlls

        with pytest.raises(EvaluationError, match=f"sample s-1: .*{message}"):
            judge_sample(Malformed(), DUMMY_FEATURES, make_sample())

    def test_antisymmetry(self):
        rng = random.Random(3)
        flips = 0
        for i in range(100):
            real = f"caption number {i} alpha"
            hall = f"caption number {i} beta"
            scorer = FixedScorer({real: rng.uniform(0.5, 2.5), hall: rng.uniform(0.5, 2.5)})
            fwd = judge_sample(scorer, DUMMY_FEATURES, make_sample("f", real, hall))
            rev = judge_sample(scorer, DUMMY_FEATURES, make_sample("r", hall, real))
            if fwd.ppl_real != fwd.ppl_hall:
                assert fwd.is_error != rev.is_error
                flips += 1
        assert flips > 80


class TestErrorRates:
    @staticmethod
    def judgement(i, category, is_error):
        real, hall = (5.0, 4.0) if is_error else (4.0, 5.0)
        return Judgement(f"j-{i}", real, hall, is_error, category)

    def test_counting_example(self):
        js = [self.judgement(i, HallucinationCategory.COLOR, i < 3) for i in range(10)]
        report = error_rates(js)
        color = report.per_category[HallucinationCategory.COLOR]
        assert (color.n, color.errors) == (10, 3)
        assert color.error_rate == pytest.approx(0.30, abs=1e-12)
        assert report.overall.error_rate == pytest.approx(0.30, abs=1e-12)
        assert report.mode == "raw"

    def test_all_correct(self):
        js = [self.judgement(i, c, False) for i, c in enumerate(HallucinationCategory)]
        report = error_rates(js)
        assert report.overall.error_rate == 0.0
        assert all(s.error_rate == 0.0 for s in report.per_category.values())

    def test_empty_category_flagged_and_totals_add_up(self):
        js = [self.judgement(i, HallucinationCategory.TEXT, bool(i % 2)) for i in range(4)]
        report = error_rates(js)
        assert report.per_category[HallucinationCategory.COLOR].degenerate is True
        assert report.per_category[HallucinationCategory.TEXT].degenerate is False
        assert sum(s.n for s in report.per_category.values()) == report.overall.n

    def test_matches_brute_force_recount(self):
        rng = random.Random(11)
        categories = list(HallucinationCategory)
        for _ in range(100):
            js = [
                self.judgement(i, rng.choice(categories), rng.random() < 0.4)
                for i in range(rng.randint(1, 60))
            ]
            report = error_rates(js)
            for category in categories:
                n = sum(1 for j in js if j.category is category)
                errors = sum(1 for j in js if j.category is category and j.is_error)
                stats = report.per_category[category]
                assert (stats.n, stats.errors) == (n, errors)
                assert stats.error_rate == (errors / n if n else 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            error_rates([])


class TestRadarCsv:
    @staticmethod
    def report_with_rates(rate):
        js = []
        for i, category in enumerate(HallucinationCategory):
            for k in range(10):
                is_error = k < round(rate * 10)
                real, hall = (5.0, 4.0) if is_error else (4.0, 5.0)
                js.append(Judgement(f"{i}-{k}", real, hall, is_error, category))
        return error_rates(js)

    def test_header_and_minmax(self):
        csv = radar_csv({"a": self.report_with_rates(0.2), "b": self.report_with_rates(0.4)})
        lines = csv.splitlines()
        assert lines[0] == "category,run,error_rate,normalized"
        color_rows = [l for l in lines if l.startswith("Color,")]
        assert color_rows == ["Color,a,0.200000,0.000000", "Color,b,0.400000,1.000000"]
        assert len(lines) == 1 + 2 * len(HallucinationCategory)

    def test_single_run_normalizes_to_zero(self):
        csv = radar_csv({"only": self.report_with_rates(0.3)})
        for line in csv.splitlines()[1:]:
            assert line.endswith(",0.000000")

    def test_rejects_bad_run_name(self):
        with pytest.raises(ValueError, match="run name"):
            radar_csv({"a,b": self.report_with_rates(0.2)})


class TestJudgementIO:
    def test_round_trip(self):
        js = [
            Judgement("a", 4.0, 5.0, False, HallucinationCategory.COLOR),
            Judgement("b", 5.0, 4.0, True, HallucinationCategory.TEXT),
        ]
        blob = dumps_judgements(js)
        reloaded = loads_judgements(blob)
        assert dumps_judgements(reloaded) == blob

    def test_line_numbered_errors(self):
        good = dumps_judgements([Judgement("a", 4.0, 5.0, False, HallucinationCategory.COLOR)])
        with pytest.raises(DatasetError, match="line 2"):
            loads_judgements(good + "{bad\n")

    def test_inconsistent_flag_rejected_on_load(self):
        blob = (
            '{"category":"Color","is_error":true,"ppl_hall":5.0,'
            '"ppl_real":4.0,"sample_id":"a"}\n'
        )
        with pytest.raises(DatasetError, match="line 1.*inconsistent"):
            loads_judgements(blob)


class TestOracleScorer:
    def test_oracle_and_negated_rates(self):
        dataset = build_synthetic_dataset(3, seed=55)
        config = toy_judging_config()
        _, report = evaluate_dataset(oracle_scorer(dataset), config, dataset)
        assert report.overall.error_rate == 0.0
        _, negated = evaluate_dataset(oracle_scorer(dataset, negate=True), config, dataset)
        assert negated.overall.error_rate == 1.0

    def test_unknown_caption_scores_neutral(self):
        dataset = build_synthetic_dataset(1, seed=55)
        scorer = oracle_scorer(dataset)
        hall = dataset[0].hallucinated_caption
        nlls = scorer.score(DUMMY_FEATURES, "never seen before", hall)
        assert nlls == ([math.log(4.0)] * 3, [math.log(8.0)] * len(hall.split()))

    def test_overlapping_captions_rejected(self):
        a = make_sample("a", real="one two.", hall="one three.")
        b = make_sample("b", real="one three.", hall="one four.")
        with pytest.raises(ValueError, match="both real and hallucinated"):
            oracle_scorer([a, b])


class TestCoinFlipScorer:
    def test_deterministic(self):
        scorer = CoinFlipScorer(seed=9)
        real, hall = "A red circle sits.", "A blue circle sits."
        nlls_real, nlls_hall = scorer.score(DUMMY_FEATURES, real, hall)
        assert scorer.score(DUMMY_FEATURES, real, hall) == (nlls_real, nlls_hall)
        # Each caption's NLLs are keyed by the caption alone, not its partner.
        assert scorer.score(DUMMY_FEATURES, hall, real) == (nlls_hall, nlls_real)
        assert nlls_real != nlls_hall
        assert all(0.5 <= v <= 1.5 for v in nlls_real + nlls_hall)

    def test_error_rate_concentrates_near_half(self):
        dataset = build_synthetic_dataset(100, seed=77)
        scorer = CoinFlipScorer(seed=1)
        judgements = [judge_sample(scorer, DUMMY_FEATURES, s) for s in dataset]
        rate = error_rates(judgements).overall.error_rate
        assert 0.40 <= rate <= 0.60


class TestTokenKind:
    @pytest.mark.parametrize(
        "token, kind",
        [
            ("Red,", "red"),
            ("yellow.", "yellow"),
            ("BLUE", "blue"),
            ("EXIT", "energy"),
            ("SALE.", "energy"),
            ("exit", None),
            ("Exit", None),
            ("12", "energy"),
            ("0.", "energy"),
            ("Circle", "energy"),
            ("three", "energy"),
            ("LEFT", "energy"),
            ("apart.", "energy"),
            ("Sits", None),
            ("spins", None),
            ("partly", None),
            ("visible.", None),
            ("row", None),
            ("first", None),
            ("The", None),
        ],
    )
    def test_literal_kinds(self, token, kind):
        assert _token_kind(token) == kind


class TestAffinityScorer:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_config_validation(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            AffinityConfig(alpha=alpha)

    def test_zero_alpha_is_caption_independent(self):
        scorer = affinity_scorer(AffinityConfig(alpha=0.0))
        sample = make_sample(real="A red circle sits.", hall="A blue circle sits.")
        scene = SceneDescriptor(seed=0, objects=(SceneObject("circle", "red", (1, 1), 0),))
        result = run_pipeline(rasterize(scene), toy_judging_config())
        judgement = judge_sample(scorer, result.features, sample)
        assert judgement.ppl_real == judgement.ppl_hall
        assert judgement.is_error is False

    def test_red_scene_prefers_red_caption(self):
        scene = SceneDescriptor(seed=0, objects=(SceneObject("circle", "red", (1, 1), 0),))
        result = run_pipeline(rasterize(scene), toy_judging_config("color-histogram"))
        scorer = affinity_scorer(AffinityConfig())
        nlls_red, nlls_blue = scorer.score(result.features, "red circle", "blue circle")
        assert perplexity(nlls_red) < perplexity(nlls_blue)

    def test_clamps_respected(self):
        scorer = affinity_scorer(AffinityConfig(alpha=500.0))
        scene = SceneDescriptor(seed=0, objects=(SceneObject("square", "blue", (0, 0), 0),))
        result = run_pipeline(rasterize(scene), toy_judging_config())
        caption = "A blue square sits at row 0 column 0. two left EXIT touching"
        nlls_real, nlls_hall = scorer.score(result.features, caption, "two EXIT")
        assert all(_NLL_MIN <= v <= _NLL_MAX for v in nlls_real + nlls_hall)


@pytest.mark.parametrize(
    "scorer",
    [
        affinity_scorer(AffinityConfig()),
        oracle_scorer([make_sample()]),
        CoinFlipScorer(seed=0),
    ],
    ids=["affinity", "oracle", "coinflip"],
)
@pytest.mark.parametrize("pair", [("   ", "red circle"), ("red circle", ""), ("", "")])
def test_empty_caption_rejected(scorer, pair):
    with pytest.raises(ValueError, match="cannot score an empty caption"):
        scorer.score(DUMMY_FEATURES, *pair)


class TestEvaluateDataset:
    def test_order_preserved_and_parallelism_invariant(self):
        dataset = build_synthetic_dataset(5, seed=31)
        scorer = affinity_scorer(AffinityConfig())
        config = toy_judging_config()
        serial_j, serial_r = evaluate_dataset(scorer, config, dataset, parallelism=1)
        parallel_j, parallel_r = evaluate_dataset(scorer, config, dataset, parallelism=8)
        assert [j.sample_id for j in serial_j] == [s.id for s in dataset]
        assert dumps_judgements(serial_j) == dumps_judgements(parallel_j)
        assert serial_r == parallel_r

    def test_strict_failure_names_sample(self):
        bad = BenchmarkSample(
            id="missing-image",
            image=ImageRef(kind="file", path="nowhere/missing.raw"),
            real_caption="A red circle sits.",
            hallucinated_caption="A blue circle sits.",
            category=HallucinationCategory.COLOR,
        )
        with pytest.raises(EvaluationError, match="missing-image"):
            evaluate_dataset(
                affinity_scorer(AffinityConfig()), toy_judging_config(), [bad]
            )

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_strict_mode_stops_at_first_failure(self, parallelism):
        bad = BenchmarkSample(
            id="missing-image",
            image=ImageRef(kind="file", path="nowhere/missing.raw"),
            real_caption="A red circle sits.",
            hallucinated_caption="A blue circle sits.",
            category=HallucinationCategory.COLOR,
        )
        dataset = [bad] + build_synthetic_dataset(50, seed=0)[1:]
        assert len(dataset) == 500
        scorer = affinity_scorer(AffinityConfig())
        calls = []
        score = scorer.score

        def counted(*args):
            calls.append(args)
            return score(*args)

        scorer.score = counted
        with pytest.raises(EvaluationError, match="^sample missing-image: "):
            evaluate_dataset(scorer, toy_judging_config(), dataset, parallelism=parallelism)
        if parallelism == 1:
            assert calls == []
        else:
            # Judging every other sample would score 499; the queued ones are
            # cancelled, so only samples already running are scored.
            assert len(calls) < 50

    def test_strict_mode_starts_no_sample_after_a_failure(self):
        # One worker is held in sample 0's scorer while the other fails
        # sample 1; no later sample may start once that failure is known,
        # and the error is still the first in dataset order.
        dataset = build_synthetic_dataset(5, seed=0)
        dataset[1] = BenchmarkSample(
            id="missing-image",
            image=ImageRef(kind="file", path="nowhere/missing.raw"),
            real_caption="A red circle sits.",
            hallucinated_caption="A blue circle sits.",
            category=HallucinationCategory.COLOR,
        )
        config = toy_judging_config()
        messages = []
        for parallelism in (1, 2):
            scorer = affinity_scorer(AffinityConfig())
            calls = []
            score = scorer.score

            def held(*args, calls=calls, score=score):
                calls.append(args)
                if len(calls) == 1:
                    time.sleep(0.2)
                return score(*args)

            scorer.score = held
            with pytest.raises(EvaluationError, match="^sample missing-image: ") as excinfo:
                evaluate_dataset(scorer, config, dataset, parallelism=parallelism)
            assert [args[1] for args in calls] == [dataset[0].real_caption]
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_lenient_mode_collects_failures(self):
        dataset = build_synthetic_dataset(1, seed=31)
        bad = BenchmarkSample(
            id="missing-image",
            image=ImageRef(kind="file", path="nowhere/missing.raw"),
            real_caption="A red circle sits.",
            hallucinated_caption="A blue circle sits.",
            category=HallucinationCategory.COLOR,
        )
        failures = []
        judgements, report = evaluate_dataset(
            affinity_scorer(AffinityConfig()),
            toy_judging_config(),
            dataset + [bad],
            failures=failures,
        )
        assert len(judgements) == len(dataset)
        assert len(failures) == 1 and "missing-image" in failures[0]
        assert report.overall.n == len(dataset)

    @pytest.mark.parametrize("failures", [None, []], ids=["raise", "collect"])
    def test_stage_bugs_are_not_sample_failures(self, monkeypatch, failures):
        from routebench import fusion

        def broken(fm, params):
            raise TypeError("not a domain error")

        monkeypatch.setattr(fusion, "project", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            evaluate_dataset(
                affinity_scorer(AffinityConfig()),
                toy_judging_config(),
                build_synthetic_dataset(1, seed=31),
                failures=failures,
            )
        assert not failures

    def test_lenient_mode_collects_scorer_failures(self):
        dataset = build_synthetic_dataset(1, seed=31)
        failures = []
        with pytest.raises(EvaluationError, match="no samples were judged"):
            evaluate_dataset(Boom(), toy_judging_config(), dataset, failures=failures)
        assert len(failures) == len(dataset)
        assert all("scorer exploded" in f for f in failures)

    def test_scorer_called_once_per_sample_with_the_pair(self):
        # As a tracer does: wrap ``score`` on the instance and count calls.
        scorer = affinity_scorer(AffinityConfig())
        calls = []
        score = scorer.score

        def counted(*args):
            calls.append(args)
            return score(*args)

        scorer.score = counted
        dataset = build_synthetic_dataset(2, seed=31)
        evaluate_dataset(scorer, toy_judging_config(), dataset)
        assert not hasattr(scorer, "score_pair")
        assert len(calls) == len(dataset)
        for (features, real, hall), sample in zip(calls, dataset):
            assert isinstance(features, FeatureMap)
            assert (real, hall) == (sample.real_caption, sample.hallucinated_caption)

    def test_rejects_bad_inputs(self):
        scorer = affinity_scorer(AffinityConfig())
        with pytest.raises(ValueError, match="empty"):
            evaluate_dataset(scorer, toy_judging_config(), [])
        with pytest.raises(ValueError, match="parallelism"):
            evaluate_dataset(
                scorer, toy_judging_config(), build_synthetic_dataset(1, seed=1), parallelism=0
            )


class TestJudgingConfig:
    def test_uniform_router_routes_uniformly(self):
        scene = SceneDescriptor(seed=0, objects=(SceneObject("circle", "red", (1, 1), 0),))
        result = run_pipeline(rasterize(scene), toy_judging_config())
        np.testing.assert_allclose(result.routing.weights, np.full(6, 1 / 6), atol=1e-12)

    def test_favoring_is_effectively_one_hot(self):
        scene = SceneDescriptor(seed=0, objects=(SceneObject("circle", "red", (1, 1), 0),))
        result = run_pipeline(rasterize(scene), toy_judging_config("color-histogram"))
        from routebench.experts import PERSONAS

        index = PERSONAS.index("color-histogram")
        assert result.routing.weights[index] > 0.999

    def test_unknown_persona_rejected(self):
        with pytest.raises(ValueError, match="unknown persona"):
            toy_judging_config("nonexistent")

    def test_color_routing_beats_uniform_on_color_samples(self):
        dataset = build_synthetic_dataset(
            60, seed=101, categories=(HallucinationCategory.COLOR,)
        )
        scorer = affinity_scorer(AffinityConfig())
        _, uniform = evaluate_dataset(scorer, toy_judging_config(), dataset, parallelism=4)
        _, routed = evaluate_dataset(
            scorer, toy_judging_config("color-histogram"), dataset, parallelism=4
        )
        key = HallucinationCategory.COLOR
        assert routed.per_category[key].error_rate < uniform.per_category[key].error_rate


class _ReferenceAffinityScorer:
    """The per-token affinity scorer: every token re-derives its statistic
    from the feature map, with the bin columns gathered by a list.  The
    scorer builds one NLL per token kind from the same expressions, so its
    NLL lists must equal these exactly."""

    HISTOGRAM_WIDTH = 24
    RED_BIN, GREEN_BIN, BLUE_BIN = 7, 15, 23

    def __init__(self, alpha):
        self.alpha = alpha

    def _bin_column(self, positive, offset):
        cols = [j for j in range(positive.shape[1]) if j % self.HISTOGRAM_WIDTH == offset]
        if not cols:
            return np.zeros(positive.shape[0])
        return positive[:, cols].mean(axis=1)

    def _color_affinity(self, positive, word):
        red = self._bin_column(positive, self.RED_BIN)
        green = self._bin_column(positive, self.GREEN_BIN)
        if word == "red":
            per_token = np.maximum(red - green, 0.0)
        elif word == "green":
            per_token = np.maximum(green - red, 0.0)
        elif word == "blue":
            per_token = self._bin_column(positive, self.BLUE_BIN)
        else:
            per_token = np.minimum(red, green)
        return float(per_token.sum() / positive.shape[0])

    def nlls(self, features, caption):
        relations = HORIZONTAL_RELATIONS + VERTICAL_RELATIONS + INTERACTION_WORDS
        values = features.values
        centered = values - values.mean(axis=0, keepdims=True)
        positive = np.maximum(centered, 0.0)
        energy = float(positive.mean())
        nlls = []
        for token in caption.split():
            word = token.rstrip(".,")
            lowered = word.lower()
            affinity = 0.0
            if lowered in COLORS:
                affinity = self._color_affinity(positive, lowered)
            elif (
                lowered in SHAPES
                or lowered in COUNT_WORDS
                or lowered.isdigit()
                or lowered in relations
                or word in LABEL_WORDS
            ):
                affinity = energy
            nll = _BASE_NLL - self.alpha * affinity
            nlls.append(min(max(nll, _NLL_MIN), _NLL_MAX))
        return nlls


class TestAffinityScorerOracle:
    # The default strength, and strengths that drive keyword NLLs into the
    # lower and the upper clamp.
    ALPHAS = (8.0, 500.0, -500.0)
    EXTRA_CAPTIONS = (
        "Red RED. red, green Yellow blue yellow. red",
        "EXIT exit 3 two left above touching circle. sits a",
    )

    @classmethod
    def _captions(cls, dataset):
        return [c for s in dataset for c in (s.real_caption, s.hallucinated_caption)]

    @classmethod
    def _assert_equal_to_reference(cls, features, captions):
        for alpha in cls.ALPHAS:
            scorer = affinity_scorer(AffinityConfig(alpha=alpha))
            reference = _ReferenceAffinityScorer(alpha)
            # Each caption paired with itself, then consecutive captions as
            # (real, hallucinated) pairs.
            pairs = [(c, c) for c in captions] + list(zip(captions[::2], captions[1::2]))
            for real, hall in pairs:
                want = (reference.nlls(features, real), reference.nlls(features, hall))
                assert scorer.score(features, real, hall) == want, (alpha, real, hall)

    @pytest.mark.parametrize("favor", [None, "color-histogram"])
    def test_synthetic_dataset_nlls_equal_reference(self, favor):
        dataset = build_synthetic_dataset(50, seed=0)
        config = toy_judging_config(favor)
        for sample in dataset:
            features = run_pipeline(rasterize(sample.image.scene), config).features
            captions = [sample.real_caption, sample.hallucinated_caption]
            self._assert_equal_to_reference(features, captions)
        self._assert_equal_to_reference(features, self.EXTRA_CAPTIONS)

    def test_wide_feature_map_nlls_equal_reference(self):
        # 1024 columns: 43 per histogram bin, gathered from many blocks.
        values = np.random.default_rng(7).normal(size=(64, 1024))
        features = FeatureMap(values, source="fused")
        captions = self._captions(build_synthetic_dataset(5, seed=0)) + list(self.EXTRA_CAPTIONS)
        self._assert_equal_to_reference(features, captions)
