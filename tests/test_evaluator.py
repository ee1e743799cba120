"""Tests for perplexity judging, scorers, and report aggregation."""

import dataclasses
import functools
import json
import math
import random
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from routebench import fusion
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
    synth_scene,
)
from routebench.evaluator import (
    _BASE_NLL,
    _BLUE_BIN,
    _ENERGY,
    _GREEN_BIN,
    _LOG_FLOAT_MAX,
    _RED_BIN,
    _bin_columns,
    _bin_means,
    _NLL_MAX,
    _NLL_MIN,
    AffinityConfig,
    AffinityScorer,
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
    JUDGING_DIM,
    toy_judging_config,
    _CHUNK,
    _token_kind,
)
from routebench.experts import PERSONAS, FeatureMap, _mean, rule, seeded_adapter
from routebench.fusion import (
    FusionStrategy,
    PipelineError,
    ProjectorParams,
    load_pipeline_config,
    pipeline_config_to_json,
    run_pipeline,
)
from routebench.router import RouterParams, clip_encode

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
    def __init__(self, error=RuntimeError):
        self.error = error

    def score(self, features, real, hallucinated):
        raise self.error("scorer exploded")


def make_sample(sample_id="s-1", real="A red circle sits.", hall="A blue circle sits.",
                category=HallucinationCategory.COLOR):
    return BenchmarkSample(
        id=sample_id,
        image=ImageRef(kind="scene", scene=SceneDescriptor(seed=0, objects=())),
        real_caption=real,
        hallucinated_caption=hall,
        category=category,
    )


OVERFLOW = "mean NLL exceeds log(float max) = 709.78: perplexity overflows"


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

    @pytest.mark.parametrize(
        "nlls, message",
        [
            ([], "perplexity needs at least one NLL"),
            ([0.5, math.nan], "NLLs must be finite"),
            ([math.nan, 0.5], "NLLs must be finite"),
            ([0.5, math.inf], "NLLs must be finite"),
            ([0.5, -math.inf], "NLLs must be finite"),
            ([math.inf, -math.inf], "NLLs must be finite"),
            ([-1.0, math.nan], "NLLs must be finite"),
            ([1e308, 1e308, math.inf], "NLLs must be finite"),
            ([0.5, -0.1], "NLLs must be non-negative"),
            ([1e308, 1e308, -0.1], "NLLs must be non-negative"),
            ([800.0], OVERFLOW),
            ([1e308, 1e308], OVERFLOW),
            ([700.0, 720.0], OVERFLOW),
            ([math.nextafter(_LOG_FLOAT_MAX, math.inf)], OVERFLOW),
        ],
        ids=[
            "empty", "nan-last", "nan-first", "inf", "-inf", "inf-and--inf",
            "finite-before-non-negative", "finite-before-overflow", "negative",
            "non-negative-before-overflow", "mean-800", "sum-overflows", "mean-710",
            "mean-just-above-bound",
        ],
    )
    def test_rejection_messages(self, nlls, message):
        # No RuntimeWarning either: the checks run before any reduction that
        # could overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as excinfo:
                perplexity(nlls)
        assert str(excinfo.value) == message

    def test_largest_mean_below_overflow(self):
        assert perplexity([_LOG_FLOAT_MAX]) == float(np.exp(_LOG_FLOAT_MAX))
        assert math.isfinite(perplexity([_LOG_FLOAT_MAX] * 3))

    def test_accepts_any_iterable_of_numbers(self):
        nlls = [0.25, 1.5, 3.0]
        want = perplexity(nlls)
        assert perplexity(tuple(nlls)) == want
        assert perplexity(x for x in nlls) == want
        assert perplexity(np.array(nlls)) == want
        assert perplexity([0, 1, 2]) == perplexity([0.0, 1.0, 2.0])

    def test_bit_equal_to_exp_of_numpy_mean(self):
        # Lengths past 8 and 128 reach numpy's unrolled and blocked sums.
        rng = np.random.default_rng(11)
        for length in (1, 2, 7, 8, 9, 16, 17, 129, 300):
            for scale in (0.01, 6.0, 700.0):
                nlls = (rng.random(length) * scale).tolist()
                want = float(np.exp(np.asarray(nlls).mean()))
                assert perplexity(nlls) == want, (length, scale)

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

    @pytest.mark.parametrize("error", [RuntimeError, EvaluationError])
    def test_scorer_failure_names_sample(self, error):
        with pytest.raises(EvaluationError) as excinfo:
            judge_sample(Boom(error), DUMMY_FEATURES, make_sample())
        assert str(excinfo.value) == "sample s-1: scorer exploded"

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
    def judgement(i, category, is_error, tie=False):
        real, hall = (4.0, 4.0) if tie else (5.0, 4.0) if is_error else (4.0, 5.0)
        return Judgement(f"j-{i}", real, hall, is_error, category)

    def test_counting_example(self):
        js = [self.judgement(i, HallucinationCategory.COLOR, i < 3) for i in range(10)]
        report = error_rates(js)
        color = report.per_category[HallucinationCategory.COLOR]
        assert (color.n, color.errors) == (10, 3)
        assert color.error_rate == pytest.approx(0.30, abs=1e-12)
        assert report.overall.error_rate == pytest.approx(0.30, abs=1e-12)
        assert report.to_json_dict()["mode"] == "raw"

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
            js = []
            for i in range(rng.randint(1, 60)):
                outcome = rng.random()
                js.append(self.judgement(i, rng.choice(categories), outcome < 0.4, outcome > 0.7))
            report = error_rates(js)
            for category in categories:
                n = sum(1 for j in js if j.category is category)
                errors = sum(1 for j in js if j.category is category and j.is_error)
                ties = sum(1 for j in js if j.category is category and j.ppl_real == j.ppl_hall)
                stats = report.per_category[category]
                assert (stats.n, stats.errors, stats.ties) == (n, errors, ties)
                assert stats.error_rate == (errors / n if n else 0.0)
            assert report.overall.ties == sum(1 for j in js if j.ppl_real == j.ppl_hall)

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

    @pytest.mark.parametrize(
        "name, ok",
        [("run-1", True), ("a b", True), ("", False), ("a,b", False), ("a\nb", False),
         ("a\n", False), ("a\rb", False), ("a\x85b", False), ("a\u2028b", False)],
    )
    def test_run_name_is_one_csv_field(self, name, ok):
        # Any line break a reader may split a row at is out, not just "\n".
        assert rule("non-empty without commas or line breaks").ok(name) is ok

    @pytest.mark.parametrize(
        "names, message",
        [
            ((), "radar_csv needs at least one report"),
            (("",), "run name must be non-empty without commas or line breaks, got ''"),
            (("a\nb",), "run name must be non-empty without commas or line breaks, got 'a\\nb'"),
            # A csv reader splits a row at "\r" too.
            (("a\rb", "c"),
             "run name must be non-empty without commas or line breaks, got 'a\\rb'"),
        ],
        ids=["no-reports", "empty-name", "newline-name", "carriage-return-name"],
    )
    def test_rejects_with_the_exact_message(self, names, message):
        with pytest.raises(ValueError) as excinfo:
            radar_csv({name: self.report_with_rates(0.2) for name in names})
        assert str(excinfo.value) == message


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ppl_real", "NaN", "ppl_real must be finite and >= 1, got nan"),
            ("ppl_real", "Infinity", "ppl_real must be finite and >= 1, got inf"),
            ("ppl_real", "0.5", "ppl_real must be finite and >= 1, got 0.5"),
            ("ppl_hall", "-3.0", "ppl_hall must be finite and >= 1, got -3.0"),
            ("category", '"Colour"',
             "category must be one of 'Category', 'Counting', 'Occlusion', 'Text', 'Shape', "
             "'AbsolutePosition', 'RelativePosition', 'Color', 'Action' or "
             "'RelativeInteraction', got 'Colour'"),
        ],
        ids=["ppl-nan", "ppl-infinity", "ppl-below-one", "ppl-negative", "unknown-category"],
    )
    def test_rejected_field_named_on_load(self, key, value, message):
        # JSON text, since NaN and Infinity have no strict JSON form.
        doc = {"category": '"Color"', "is_error": "false", "ppl_hall": "5.0",
               "ppl_real": "4.0", "sample_id": '"a"'}
        doc[key] = value
        line = "{" + ",".join(f'"{k}":{v}' for k, v in doc.items()) + "}\n"
        with pytest.raises(DatasetError) as excinfo:
            loads_judgements(line)
        assert str(excinfo.value) == f"line 1: {message}"

    def test_repeated_sample_id_rejected(self):
        line = dumps_judgements([Judgement("a", 4.0, 5.0, False, HallucinationCategory.COLOR)])
        with pytest.raises(DatasetError) as excinfo:
            loads_judgements(line + line)
        assert str(excinfo.value) == "line 2: duplicate sample_id 'a'"

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
        "dim, want",
        # Colour bins sit at columns 7, 15 and 23 of each 24-wide histogram
        # block: 4 columns hold none of them, 12 only red's.  Token 0 is 1.0
        # everywhere and the rest 0.0, so a bin column's centred positive
        # part is (0.75, 0, 0, 0): red's affinity 0.1875 gives NLL 3 - 8 * 0.1875.
        [(4, [_BASE_NLL] * 4), (12, [1.5, _BASE_NLL, _BASE_NLL, _BASE_NLL])],
    )
    def test_maps_narrower_than_a_histogram_block(self, dim, want):
        values = np.zeros((4, dim))
        values[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nlls, _ = affinity_scorer(AffinityConfig()).score(
                FeatureMap(values, source="fused"), "red green blue yellow", "circle"
            )
        assert nlls == want


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
        # One worker is held in sample 0's scorer while the other fails the
        # second sample of the second chunk: no chunk or sample after it may
        # start once that failure is known, the samples before it are still
        # judged, and the error is still the first in dataset order.
        bad = _CHUNK + 1
        dataset = build_synthetic_dataset(5, seed=0)
        dataset[bad] = BenchmarkSample(
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
            scored = sorted(args[1:] for args in calls)
            assert scored == sorted((s.real_caption, s.hallucinated_caption) for s in dataset[:bad])
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

        def broken(*args):
            raise TypeError("not a domain error")

        monkeypatch.setattr(fusion, "mlp", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            evaluate_dataset(
                affinity_scorer(AffinityConfig()),
                toy_judging_config(),
                build_synthetic_dataset(1, seed=31),
                failures=failures,
            )
        assert not failures

    @pytest.mark.parametrize("error", [RuntimeError, EvaluationError])
    def test_lenient_mode_collects_scorer_failures(self, error):
        dataset = build_synthetic_dataset(1, seed=31)
        for parallelism in (1, 2):
            failures = []
            with pytest.raises(EvaluationError, match="no samples were judged"):
                evaluate_dataset(
                    Boom(error), toy_judging_config(), dataset, parallelism, failures=failures
                )
            assert failures == [f"sample {s.id}: scorer exploded" for s in dataset]

    class Overflowing:
        """Scores one real caption ``[800.0]``, a mean NLL whose perplexity
        overflows; every other caption as the affinity scorer does."""

        def __init__(self, caption):
            self.caption = caption
            self.inner = affinity_scorer(AffinityConfig())

        def score(self, features, real, hallucinated):
            if real == self.caption:
                return [800.0], [1.0]
            return self.inner.score(features, real, hallucinated)

    def test_overflowing_perplexity_fails_its_own_sample(self):
        dataset = build_synthetic_dataset(1, seed=31)
        bad = dataset[3]
        assert [s.real_caption for s in dataset].count(bad.real_caption) == 1
        scorer, config = self.Overflowing(bad.real_caption), toy_judging_config()
        message = f"sample {bad.id}: {OVERFLOW}"
        for parallelism in (1, 2):
            with pytest.raises(EvaluationError) as excinfo:
                evaluate_dataset(scorer, config, dataset, parallelism)
            assert str(excinfo.value) == message
            failures = []
            judgements, _ = evaluate_dataset(scorer, config, dataset, parallelism, failures=failures)
            assert failures == [message]
            assert [j.sample_id for j in judgements] == [s.id for s in dataset if s is not bad]
            # Every perplexity written is finite, so the file reads back.
            assert loads_judgements(dumps_judgements(judgements)) == judgements

    @pytest.mark.parametrize("error", [RuntimeError, EvaluationError])
    def test_strict_mode_names_the_failed_sample_once(self, error):
        dataset = build_synthetic_dataset(1, seed=31)
        for parallelism in (1, 2):
            with pytest.raises(EvaluationError) as excinfo:
                evaluate_dataset(Boom(error), toy_judging_config(), dataset, parallelism)
            assert str(excinfo.value) == f"sample {dataset[0].id}: scorer exploded"

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


def judging_configs() -> dict:
    """The judging configs a chunked eval must judge as single images do."""
    base = toy_judging_config()
    n, dim = len(PERSONAS), JUDGING_DIM
    # Context vectors of scenes differ little, so the top-2 router is scaled
    # up and centred on their mean: samples of one chunk route apart.
    centre = np.mean([clip_encode(synth_scene(s)[1], base.clip_params()).cls for s in range(10)], 0)
    weights = np.random.default_rng(3).normal(scale=300.0, size=(dim, n))
    concat = ProjectorParams(seeded_adapter(n * dim, dim, seed=1), seeded_adapter(dim, dim, seed=2))
    return {
        "favoured": toy_judging_config("color-histogram"),
        "uniform": base,
        "add": dataclasses.replace(base, strategy=FusionStrategy(kind="add")),
        "concat": dataclasses.replace(base, strategy=FusionStrategy(kind="concat"), projector=concat),
        "top2": dataclasses.replace(
            base,
            strategy=FusionStrategy(kind="routed", k=2),
            router=RouterParams(weights, -centre @ weights),
        ),
    }


JUDGING_CONFIGS = judging_configs()


def single_image_judgements(scorer, config, dataset):
    """Each sample judged from its own run_pipeline call, the unchunked path."""
    return [
        judge_sample(scorer, run_pipeline(rasterize(s.image.scene), config).features, s)
        for s in dataset
    ]


class TestChunkedEvaluation:
    """Eval runs route, fuse and project once per chunk of samples; no
    judgement may depend on the chunking or on the parallelism."""

    # 30 samples: full chunks and a partial one.
    DATASET = build_synthetic_dataset(3, seed=41)

    @pytest.mark.parametrize("name", sorted(JUDGING_CONFIGS))
    def test_judgements_equal_single_image_runs_at_any_parallelism(self, name):
        config = JUDGING_CONFIGS[name]
        scorer = affinity_scorer(AffinityConfig())
        want = dumps_judgements(single_image_judgements(scorer, config, self.DATASET))
        for parallelism in (1, 2, 8):
            got, _ = evaluate_dataset(scorer, config, self.DATASET, parallelism=parallelism)
            assert dumps_judgements(got) == want, parallelism

    def test_top2_chunk_mixes_active_sets(self):
        config = JUDGING_CONFIGS["top2"]
        chunk = self.DATASET[:_CHUNK]
        active = {run_pipeline(rasterize(s.image.scene), config).routing.active for s in chunk}
        assert len(active) >= 4

    @pytest.mark.parametrize("name", ["favoured", "uniform"])
    def test_category_blocks_judge_as_the_whole_dataset(self, name):
        # perfbench's oracle: 50-sample categories judged one call each
        # equal the whole set judged at once, across other chunk boundaries.
        config = JUDGING_CONFIGS[name]
        scorer = affinity_scorer(AffinityConfig())
        dataset = build_synthetic_dataset(7, seed=42)
        whole, _ = evaluate_dataset(scorer, config, dataset, parallelism=2)
        blocks = []
        for start in range(0, len(dataset), 7):
            assert len({s.category for s in dataset[start : start + 7]}) == 1
            blocks += evaluate_dataset(scorer, config, dataset[start : start + 7])[0]
        assert dumps_judgements(blocks) == dumps_judgements(whole)

    @staticmethod
    def with_failures(dataset, missing, exploding):
        """The dataset with a missing image file at ``missing`` and a sample
        the scorer below raises on at ``exploding``."""
        dataset = list(dataset)
        dataset[missing] = dataclasses.replace(
            dataset[missing], image=ImageRef(kind="file", path="nowhere/missing.raw")
        )
        sample = dataset[exploding]
        dataset[exploding] = dataclasses.replace(sample, real_caption=sample.real_caption + " Boom.")
        return dataset

    class Exploding:
        def __init__(self):
            self.inner = affinity_scorer(AffinityConfig())

        def score(self, features, real, hallucinated):
            if real.endswith(" Boom."):
                raise RuntimeError("scorer exploded")
            return self.inner.score(features, real, hallucinated)

    def test_lenient_failures_mid_chunk_leave_the_rest_judged(self):
        config = JUDGING_CONFIGS["favoured"]
        dataset = self.with_failures(self.DATASET, missing=5, exploding=9)
        scorer = self.Exploding()
        kept = [s for i, s in enumerate(dataset) if i not in (5, 9)]
        want = dumps_judgements(single_image_judgements(scorer, config, kept))
        for parallelism in (1, 2, 8):
            failures = []
            got, _ = evaluate_dataset(
                scorer, config, dataset, parallelism=parallelism, failures=failures
            )
            assert dumps_judgements(got) == want
            assert [f.split(":")[0] for f in failures] == [
                f"sample {dataset[5].id}",
                f"sample {dataset[9].id}",
            ]
            assert "missing.raw" in failures[0] and "scorer exploded" in failures[1]

    @pytest.mark.parametrize("missing, exploding", [(25, 20), (3, 20), (20, 3)])
    def test_strict_raises_the_first_failure_in_dataset_order(self, missing, exploding):
        dataset = self.with_failures(self.DATASET, missing=missing, exploding=exploding)
        first = dataset[min(missing, exploding)].id
        for parallelism in (1, 2, 8):
            with pytest.raises(EvaluationError, match=f"^sample {first}: "):
                evaluate_dataset(
                    self.Exploding(), JUDGING_CONFIGS["uniform"], dataset, parallelism=parallelism
                )

    @pytest.mark.parametrize("stage, kernel", [("fuse", "weighted_sum"), ("project", "mlp")])
    def test_non_finite_row_fails_only_its_own_sample(self, monkeypatch, stage, kernel):
        config = JUDGING_CONFIGS["favoured"]
        scorer = affinity_scorer(AffinityConfig())
        want = single_image_judgements(scorer, config, self.DATASET)
        real = getattr(fusion, kernel)

        def overflowing(*args):
            result = real(*args)
            values = result[-1] if kernel == "mlp" else result
            if len(values) > 2:  # row 2 of a chunk's stack
                values[2, 0, 0] = np.inf
            return result

        monkeypatch.setattr(fusion, kernel, overflowing)
        failures = []
        got, _ = evaluate_dataset(scorer, config, self.DATASET, failures=failures)
        bad = range(2, len(self.DATASET), _CHUNK)  # every chunk here has a row 2
        message = f"{stage}: feature map contains non-finite values"
        assert failures == [f"sample {self.DATASET[i].id}: {message}" for i in bad]
        kept = [j for i, j in enumerate(want) if i not in bad]
        assert dumps_judgements(got) == dumps_judgements(kept)

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus-inf", "minus-inf"])
    def test_overflowing_logits_fail_only_their_own_samples(self, tmp_path, sign):
        # Expert 0's logit, sign * (max + 1e308 * (cls[j] - cut)), overflows
        # to sign * inf for the scenes whose cls[j] lies above the chunk's
        # median, cut.  That fails the route stage of those images only,
        # -inf too, although its softmax would be finite.
        base, chunk, j = toy_judging_config(), self.DATASET[:_CHUNK], 0
        cls = [clip_encode(rasterize(s.image.scene), base.clip_params()).cls[j] for s in chunk]
        cut = float(np.median(cls))
        weights = np.zeros(base.router.weights.shape)
        scale = 1e308
        weights[j, 0] = sign * scale
        bias = np.zeros(len(base.experts))
        bias[0] = sign * (np.finfo(np.float64).max - scale * cut)
        overflowing = dataclasses.replace(base, router=RouterParams(weights, bias))
        path = tmp_path / "overflowing.json"
        path.write_text(json.dumps(pipeline_config_to_json(overflowing)))
        config = load_pipeline_config(path)
        bad = [i for i, c in enumerate(cls) if c > cut]
        assert 0 < bad[0] and len(bad) < len(chunk)
        message = "route: logits contain non-finite values"
        for i in bad:
            with pytest.raises(PipelineError, match=f"^{message}$"):
                run_pipeline(rasterize(chunk[i].image.scene), config)
        scorer = affinity_scorer(AffinityConfig())
        kept = [s for i, s in enumerate(chunk) if i not in bad]
        want = dumps_judgements(single_image_judgements(scorer, config, kept))
        for parallelism in (1, 2):
            failures = []
            got, _ = evaluate_dataset(scorer, config, chunk, parallelism, failures=failures)
            assert failures == [f"sample {chunk[i].id}: {message}" for i in bad]
            assert dumps_judgements(got) == want
            with pytest.raises(EvaluationError) as excinfo:
                evaluate_dataset(scorer, config, chunk, parallelism)
            assert str(excinfo.value) == f"sample {chunk[bad[0]].id}: {message}"


class TestJudgingConfig:
    def test_uniform_router_routes_uniformly(self):
        scene = SceneDescriptor(seed=0, objects=(SceneObject("circle", "red", (1, 1), 0),))
        result = run_pipeline(rasterize(scene), toy_judging_config())
        np.testing.assert_allclose(result.routing.weights, np.full(6, 1 / 6), atol=1e-12)

    @staticmethod
    def run_counting_encodes(monkeypatch, config, images):
        """Pipeline results and the personas encoded for them, counted
        through the name ``run_pipeline`` calls (``fusion``'s)."""
        calls = []
        encode = fusion.encode_toy_expert

        def counted(image, spec, pixels=None):
            calls.append(spec.persona)
            return encode(image, spec, pixels)

        monkeypatch.setattr(fusion, "encode_toy_expert", counted)
        return [run_pipeline(image, config) for image in images], calls

    @pytest.mark.parametrize("persona", PERSONAS)
    def test_favoring_is_exactly_one_hot(self, monkeypatch, persona):
        index = PERSONAS.index(persona)
        one_hot = [float(i == index) for i in range(len(PERSONAS))]
        images = [synth_scene(seed)[1] for seed in range(3)]
        results, calls = self.run_counting_encodes(
            monkeypatch, toy_judging_config(persona), images
        )
        for result in results:
            assert result.routing.weights.tolist() == one_hot
            assert result.routing.active == {index}
        assert calls == [persona] * len(images)

    def test_uniform_config_encodes_every_expert(self, monkeypatch):
        images = [synth_scene(seed)[1] for seed in range(3)]
        _, calls = self.run_counting_encodes(monkeypatch, toy_judging_config(), images)
        assert calls == list(PERSONAS) * len(images)

    def test_unknown_persona_rejected(self):
        with pytest.raises(ValueError, match="favored_persona must be one of"):
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


# perfbench's frozen category rows for the colour-favoured judging config on
# the default 500-sample set: [n, errors, ties, sum PPL(R), sum PPL(H)].
GOLDEN_JUDGE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["judge"]["categories"]


@pytest.fixture(scope="module")
def judged():
    """``judged(favored, soft, per_category)``: affinity judgements and report
    on ``build_synthetic_dataset(per_category, 0)``, each computed once per
    module; ``soft`` swaps the config's fusion for soft routing (k=None)."""

    @functools.lru_cache(maxsize=None)
    def judge(favored, soft, per_category):
        config = toy_judging_config(favored)
        if soft:
            config = dataclasses.replace(config, strategy=FusionStrategy("routed"))
        dataset = build_synthetic_dataset(per_category, 0)
        return evaluate_dataset(affinity_scorer(AffinityConfig()), config, dataset)

    yield judge
    judge.cache_clear()


class TestTopOneFavouring:
    """A favoured judging config routes top-1.  The soft routing it replaced
    gave each of the five other experts about 1.4e-11; dropping them moves no
    verdict and no perplexity beyond rounding."""

    @pytest.mark.parametrize(
        "persona, per_category",
        [("color-histogram", 50)] + [(p, 10) for p in PERSONAS if p != "color-histogram"],
    )
    def test_same_verdicts_as_soft_routing(self, judged, persona, per_category):
        top1, _ = judged(persona, False, per_category)
        soft, _ = judged(persona, True, per_category)
        assert [j.sample_id for j in top1] == [j.sample_id for j in soft]
        for a, b in zip(top1, soft):
            assert a.is_error == b.is_error, a.sample_id
            assert (a.ppl_real == a.ppl_hall) == (b.ppl_real == b.ppl_hall), a.sample_id
            assert math.isclose(a.ppl_real, b.ppl_real, rel_tol=1e-10, abs_tol=0.0)
            assert math.isclose(a.ppl_hall, b.ppl_hall, rel_tol=1e-10, abs_tol=0.0)

    def test_category_sums_match_the_benchmark_golden(self, judged):
        judgements, _ = judged("color-histogram", False, 50)
        summary = {}
        for j in judgements:
            row = summary.setdefault(j.category.value, [0, 0, 0, 0.0, 0.0])
            row[0] += 1
            row[1] += int(j.is_error)
            row[2] += int(j.ppl_real == j.ppl_hall)
            row[3] += j.ppl_real
            row[4] += j.ppl_hall
        assert sorted(summary) == sorted(GOLDEN_JUDGE)
        for category, row in summary.items():
            want = GOLDEN_JUDGE[category]
            assert row[:3] == want[:3], category
            for got, frozen in zip(row[3:], want[3:]):
                assert abs(got - frozen) <= 1e-9 * abs(frozen), (category, row, want)

    @pytest.mark.parametrize("favored", [None, "color-histogram"])
    def test_report_counts_ties(self, judged, favored):
        _, report = judged(favored, False, 50)
        for category, stats in report.per_category.items():
            assert stats.ties == (0 if category is HallucinationCategory.COLOR else 50)
            assert stats.ties == GOLDEN_JUDGE[category.value][2]
            assert stats.to_json_dict()["ties"] == stats.ties
        assert report.overall.ties == 450


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


def _per_bin_means(positive):
    """The scorer's bin means with one gather per colour bin, as it took them
    before the one-gather path."""
    means = []
    for offset in (_RED_BIN, _GREEN_BIN, _BLUE_BIN):
        cols = np.arange(offset, positive.shape[1], 24)
        means.append(_mean(positive[:, cols], 1) if cols.size else np.zeros(positive.shape[0]))
    return means


def _per_bin_affinity_score(alpha, features, real, hallucinated):
    """``AffinityScorer.score`` with a gather per colour bin and the tokens
    classified and looked up one at a time, as it was before the one-gather
    path; its NLL lists are the reference for the scorer's bytes."""
    kinds = [[_token_kind(token) for token in c.split()] for c in (real, hallucinated)]
    values = features.values
    positive = np.maximum(values - _mean(values, 0), 0.0)
    tokens = positive.shape[0]
    red, green, blue = _per_bin_means(positive)
    per_token = np.empty((4, tokens))
    np.subtract(red, green, out=per_token[0])
    np.subtract(green, red, out=per_token[1])
    np.maximum(per_token[:2], 0.0, out=per_token[:2])
    per_token[2] = blue
    np.minimum(red, green, out=per_token[3])
    sums = (np.add.reduce(per_token, 1) / tokens).tolist()
    affinities = dict(zip(("red", "green", "blue", "yellow"), sums))
    affinities[None] = 0.0
    affinities[_ENERGY] = float(_mean(positive, None))
    table = {
        kind: min(max(_BASE_NLL - alpha * affinity, _NLL_MIN), _NLL_MAX)
        for kind, affinity in affinities.items()
    }
    return [table[kind] for kind in kinds[0]], [table[kind] for kind in kinds[1]]


class TestAffinityScorerGather:
    CAPTIONS = (
        "A red circle sits left of a green square.",
        "Yellow blue RED. 3 exit touching above",
        "two",
    )

    def test_one_gather_exactly_when_the_bins_have_equal_width(self):
        for dim in list(range(1, 100)) + [1023, 1024, 1031]:
            cols = _bin_columns(dim)
            assert len(cols) == (1 if dim >= 24 and dim % 24 < 8 else 3), dim
            assert all(not c.flags.writeable for c in cols)
            flat = [c.tolist() for c in (cols[0] if len(cols) == 1 else cols)]
            assert flat == [list(range(b, dim, 24)) for b in (_RED_BIN, _GREEN_BIN, _BLUE_BIN)]

    # Widths with no bin column, ragged bins (10, 12, 1024: 43/43/42
    # columns) and equal bins (24, 30, 48; 240 and 1032 sum 10 and 43
    # columns, so a changed summation order would show).
    @pytest.mark.parametrize("dim", [4, 10, 12, 24, 30, 48, 240, 1024, 1032])
    @pytest.mark.parametrize("tokens", [1, 16, 64, 576])
    def test_bit_equal_to_per_bin_gathers(self, dim, tokens):
        rng = np.random.default_rng(dim * 1000 + tokens)
        features = FeatureMap(rng.normal(size=(tokens, dim)), source="fused")
        values = features.values
        before = values.copy()
        positive = np.maximum(values - _mean(values, 0), 0.0)
        for got, want in zip(_bin_means(positive), _per_bin_means(positive)):
            assert np.asarray(got).tobytes() == want.tobytes()
        pairs = list(zip(self.CAPTIONS, self.CAPTIONS[1:] + self.CAPTIONS[:1]))
        for alpha in (8.0, 0.1, 500.0):
            scorer = AffinityScorer(AffinityConfig(alpha))
            for real, hall in pairs:
                got = scorer.score(features, real, hall)
                want = _per_bin_affinity_score(alpha, features, real, hall)
                assert [np.array(g).tobytes() for g in got] == [np.array(w).tobytes() for w in want]
        assert values.tobytes() == before.tobytes()  # the map is not centred in place


class TestAffinityScorerOracle:
    # The default strength, strengths that drive keyword NLLs into the lower
    # and the upper clamp, and none at all.
    ALPHAS = (8.0, 500.0, -500.0, 0.0)
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
        # 1024 columns: 43 per histogram bin, gathered from many blocks.  12
        # columns: one red column, and no green or blue one.
        captions = self._captions(build_synthetic_dataset(5, seed=0)) + list(self.EXTRA_CAPTIONS)
        for dim in (1024, 12):
            values = np.random.default_rng(7).normal(size=(64, dim))
            self._assert_equal_to_reference(FeatureMap(values, source="fused"), captions)
