"""Caption-pair judging over pipeline features.

A sample is judged by scoring the perplexity of its factual caption R and its
hallucinated caption H against the same image features: the judge flags an
error exactly when PPL(R) > PPL(H), i.e. when the scorer finds the
hallucinated caption more plausible (ties count as correct).  Per-category
error rates aggregate judgements into reports, with an optional cross-run
min-max normalization for radar-style comparisons.

Scorers are pluggable: anything with ``score(features, real, hallucinated)
-> (nlls_real, nlls_hall)`` works, where each list holds one non-negative
natural-log NLL per whitespace token of its caption.  Scoring the pair in one
call lets a scorer share per-map work between the two captions.  Three toy
scorers ship here: a ground-truth oracle (and its negation) for protocol
tests, a seeded coin-flip scorer, and an affinity scorer that ties caption
keywords to statistics of the fused feature map, making routing choices
visible in the error rates.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .benchmark import (
    WORD_ROLES,
    BenchmarkSample,
    HallucinationCategory,
    ImageRef,
    category_field,
    dumps_jsonl,
    parse_jsonl,
    rasterize,
    unique_by,
)
from .experts import (
    CHANNELS,
    HISTOGRAM_BINS,
    PERSONAS,
    FeatureMap,
    ImageGrid,
    ToyExpertSpec,
    _mean,
    _unchecked,
    check_known_keys,
    check_rules,
    identity_adapter,
    json_field,
    load_raw_image,
    rule,
    ruled,
)
from .fusion import FusionStrategy, PipelineConfig, ProjectorParams, _run_stack
from .router import RouterParams


class EvaluationError(RuntimeError):
    """A sample could not be judged; messages carry the sample id."""


_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def perplexity(nlls) -> float:
    """exp(mean NLL); 1.0 for perfectly-certain captions, >= 1 always.

    ``ValueError`` unless there is an NLL and every NLL is finite, then
    non-negative, then their mean at most log(float max).  An NLL above n
    times that bound fails before the sum, so the sum cannot overflow or warn."""
    arr = np.fromiter(nlls, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("perplexity needs at least one NLL")
    if 0.0 <= np.minimum.reduce(arr) and np.maximum.reduce(arr) <= n * _LOG_FLOAT_MAX:
        mean = float(np.add.reduce(arr)) / n
        if mean <= _LOG_FLOAT_MAX:  # a NaN fails the comparison too
            return float(np.exp(mean))
    if not np.isfinite(arr).all():
        raise ValueError("NLLs must be finite")
    if (arr < 0).any():
        raise ValueError("NLLs must be non-negative")
    raise ValueError(f"mean NLL exceeds log(float max) = {_LOG_FLOAT_MAX:.2f}: perplexity overflows")


@dataclass(frozen=True)
class Judgement:
    sample_id: str
    ppl_real: float
    ppl_hall: float
    is_error: bool
    category: HallucinationCategory

    def __post_init__(self):
        if self.is_error != (self.ppl_real > self.ppl_hall):
            raise ValueError(
                f"sample {self.sample_id}: is_error={self.is_error} inconsistent with "
                f"ppl_real={self.ppl_real} vs ppl_hall={self.ppl_hall}"
            )

    def to_json_dict(self) -> dict:
        return {**vars(self), "category": self.category.value}


def judge_sample(scorer, pipeline_output: FeatureMap, sample: BenchmarkSample) -> Judgement:
    """Score both captions against the same features in one ``score`` call
    and apply the error rule.  Any scorer failure, ``EvaluationError``
    included, raises ``EvaluationError("sample <id>: <message>")``."""
    try:
        nlls = scorer.score(pipeline_output, sample.real_caption, sample.hallucinated_caption)
        ppl_real, ppl_hall = map(perplexity, nlls)
    except Exception as exc:
        raise EvaluationError(f"sample {sample.id}: {exc}") from exc
    return Judgement(
        sample_id=sample.id,
        ppl_real=ppl_real,
        ppl_hall=ppl_hall,
        is_error=ppl_real > ppl_hall,
        category=sample.category,
    )


@dataclass(frozen=True)
class CategoryStats:
    """Counts over one category's judgements.  ``ties`` counts samples whose
    captions scored the same perplexity (judged correct by the error rule);
    ``degenerate`` flags a category with no samples."""

    n: int
    errors: int
    ties: int
    error_rate: float
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CategoryReport:
    per_category: dict
    overall: CategoryStats

    def to_json_dict(self) -> dict:
        return {
            "mode": "raw",
            "overall": self.overall.to_json_dict(),
            "categories": {
                category.value: stats.to_json_dict()
                for category, stats in self.per_category.items()
            },
        }


def _stats(judgements: list) -> CategoryStats:
    n = len(judgements)
    if n == 0:
        return CategoryStats(n=0, errors=0, ties=0, error_rate=0.0, degenerate=True)
    errors = sum(j.is_error for j in judgements)
    ties = sum(j.ppl_real == j.ppl_hall for j in judgements)
    return CategoryStats(n=n, errors=errors, ties=ties, error_rate=errors / n)


def error_rates(judgements) -> CategoryReport:
    """Raw per-category and overall error rates and tie counts; empty
    categories are flagged."""
    items = list(judgements)
    if not items:
        raise ValueError("error_rates needs at least one judgement")
    per_category = {
        category: _stats([j for j in items if j.category is category])
        for category in HallucinationCategory
    }
    return CategoryReport(per_category=per_category, overall=_stats(items))


# Resolved once, not per record: the judgement loader checks every line.
_RUN_NAME = rule("non-empty without commas or line breaks")
_SAMPLE_ID, _PERPLEXITY = rule("non-blank"), rule("finite and >= 1")


def radar_csv(reports: dict) -> str:
    """Cross-run radar export: raw rates plus per-category min-max normalization.

    ``reports`` maps run name -> CategoryReport.  Normalized values are
    (rate - min)/(max - min) across the runs within each category, 0.0 when
    all runs agree.
    """
    if not reports:
        raise ValueError("radar_csv needs at least one report")
    for name in reports:
        _RUN_NAME.check(name, "run name")
    lines = ["category,run,error_rate,normalized"]
    runs = list(reports.items())
    for category in HallucinationCategory:
        rates = [report.per_category[category].error_rate for _, report in runs]
        lo, hi = min(rates), max(rates)
        for (name, _), rate in zip(runs, rates):
            normalized = 0.0 if hi == lo else (rate - lo) / (hi - lo)
            lines.append(f"{category.value},{name},{rate:.6f},{normalized:.6f}")
    return "\n".join(lines) + "\n"


def dumps_judgements(judgements) -> str:
    return dumps_jsonl(j.to_json_dict() for j in judgements)


def _judgement_from_json_dict(doc: dict) -> Judgement:
    check_known_keys(Judgement.__dataclass_fields__, doc, "judgement")
    return Judgement(
        sample_id=_SAMPLE_ID.check(json_field(doc, "sample_id", str), "sample_id"),
        ppl_real=_PERPLEXITY.check(json_field(doc, "ppl_real", float), "ppl_real"),
        ppl_hall=_PERPLEXITY.check(json_field(doc, "ppl_hall", float), "ppl_hall"),
        is_error=json_field(doc, "is_error", bool),
        category=category_field(doc),
    )


def loads_judgements(text: str) -> list:
    """Judgements of a JSONL file, with the dataset file's rules: one line
    per sample id and a known category; each perplexity finite and >= 1."""
    parse = unique_by(_judgement_from_json_dict, "sample_id")
    return parse_jsonl(text, parse, "judgement file contains no entries")


def _resolve_image(ref: ImageRef, base_dir) -> ImageGrid:
    if ref.kind == "scene":
        return rasterize(ref.scene)
    path = Path(base_dir) / ref.path if base_dir is not None else Path(ref.path)
    return load_raw_image(path)


# Images per stacked pipeline tail in evaluate_dataset; judgements do not
# depend on it.  Every image of a chunk stays alive from clip-encode to its
# encode: on judge-synth500, 16 held 1-2 MB more peak RSS than 8 and judged
# about a tenth more samples per second.
_CHUNK = 16


def evaluate_dataset(
    scorer,
    pipeline_config: PipelineConfig,
    dataset,
    parallelism: int = 1,
    base_dir=None,
    failures: Optional[list] = None,
):
    """Judge every sample: resolve image -> run pipeline -> score both captions.

    Samples run in chunks of ``_CHUNK`` through ``fusion._run_stack``, one
    stacked route, fuse and project per chunk whose rows equal single-image
    runs bit for bit; a pool of ``parallelism`` threads (one at parallelism
    1) maps chunks.  Judgements come back in dataset order regardless of
    parallelism.  With ``failures=None`` the first per-sample failure (in
    dataset order) raises ``EvaluationError``, with the same message at any
    parallelism.  No chunk or sample after a known failure starts, so the
    pool judges at most the chunks already running when one fails.  With a
    list, failed samples are skipped, the rest of their chunk judged, and
    their messages appended.

    A per-sample failure is a domain error: ``ValueError`` or ``OSError``
    from resolving the image, ``PipelineError`` from a pipeline stage (as
    in ``run_pipeline``), or ``EvaluationError`` from the scorer
    (``judge_sample`` wraps whatever a pluggable scorer raises).  Any other
    exception is a bug and propagates unwrapped either way.
    """
    samples = list(dataset)
    if not samples:
        raise ValueError("dataset is empty")
    rule(">= 1").check(parallelism, "parallelism")

    # Strict mode's lowest failing index so far: samples after it are skipped,
    # the ones before it still run, so the first failure in order is raised.
    first_failure = len(samples)
    failure_lock = threading.Lock()

    def failed(index, message):
        nonlocal first_failure
        if failures is None:
            with failure_lock:
                first_failure = min(first_failure, index)
        return None, message

    def run_chunk(start):
        outcomes, images, indices = {}, [], []  # outcomes: index -> (judgement, failure)
        for index in range(start, min(start + _CHUNK, len(samples))):
            if index > first_failure:
                break
            try:
                images.append(_resolve_image(samples[index].image, base_dir))
                indices.append(index)
            except (ValueError, OSError) as exc:
                outcomes[index] = failed(index, f"sample {samples[index].id}: {exc}")
        if images:
            _, _, out, errors, _ = _run_stack(images, pipeline_config)
            for row, index in enumerate(indices):
                if index > first_failure:
                    break
                if errors[row] is not None:
                    outcomes[index] = failed(index, f"sample {samples[index].id}: {errors[row]}")
                    continue
                features = _unchecked(FeatureMap, values=out[row], source="fused")
                try:
                    outcomes[index] = judge_sample(scorer, features, samples[index]), None
                except EvaluationError as exc:  # judge_sample names the sample
                    outcomes[index] = failed(index, str(exc))
        return [outcomes[index] for index in sorted(outcomes)]

    judgements = []
    pool = ThreadPoolExecutor(max_workers=parallelism)
    try:
        for outcomes in pool.map(run_chunk, range(0, len(samples), _CHUNK)):
            for judgement, failure in outcomes:
                if failure is None:
                    judgements.append(judgement)
                elif failures is None:
                    raise EvaluationError(failure)
                else:
                    failures.append(failure)
    finally:
        # After a raise, chunks not yet started are dropped, not judged.
        pool.shutdown(cancel_futures=True)
    if not judgements:
        raise EvaluationError("no samples were judged successfully")
    return judgements, error_rates(judgements)


_LOW_NLL = math.log(2.0)
_HIGH_NLL = math.log(8.0)
_NEUTRAL_NLL = math.log(4.0)


def _tokens(caption: str) -> list:
    tokens = caption.split()
    if not tokens:
        raise ValueError("cannot score an empty caption")
    return tokens


@dataclass(frozen=True)
class OracleScorer:
    """Scores captions by membership in the recorded ground truth.

    Captions recorded as factual get uniformly low per-token NLL, recorded
    hallucinations get high NLL, anything else neutral; ``negate`` swaps low
    and high to build the always-wrong adversary.
    """

    real_captions: frozenset
    hall_captions: frozenset
    negate: bool = False

    def score(self, features: FeatureMap, real: str, hallucinated: str) -> tuple:
        return self._nlls(real), self._nlls(hallucinated)

    def _nlls(self, caption: str) -> list:
        tokens = _tokens(caption)
        low, high = (_HIGH_NLL, _LOW_NLL) if self.negate else (_LOW_NLL, _HIGH_NLL)
        if caption in self.real_captions:
            nll = low
        elif caption in self.hall_captions:
            nll = high
        else:
            nll = _NEUTRAL_NLL
        return [nll] * len(tokens)


def oracle_scorer(dataset, negate: bool = False) -> OracleScorer:
    """Build the ground-truth oracle for a dataset's recorded caption pairs."""
    real = frozenset(s.real_caption for s in dataset)
    hall = frozenset(s.hallucinated_caption for s in dataset)
    overlap = real & hall
    if overlap:
        raise ValueError(
            f"{len(overlap)} caption(s) appear as both real and hallucinated; "
            "the oracle is undefined on this dataset"
        )
    return OracleScorer(real_captions=real, hall_captions=hall, negate=negate)


@dataclass(frozen=True)
class CoinFlipScorer:
    """Deterministic pseudo-random NLLs in [0.5, 1.5] keyed by (seed, caption, index)."""

    seed: int = 0

    def score(self, features: FeatureMap, real: str, hallucinated: str) -> tuple:
        return self._nlls(real), self._nlls(hallucinated)

    def _nlls(self, caption: str) -> list:
        nlls = []
        for index in range(len(_tokens(caption))):
            digest = hashlib.sha256(f"{self.seed}|{caption}|{index}".encode()).hexdigest()
            unit = int(digest[:12], 16) / float(16**12)
            nlls.append(0.5 + unit)
        return nlls


# Column positions of the saturated histogram bins inside the color-histogram
# persona's raw block (one block of bins per channel, palette highs land in
# each block's top bin).  Yellow saturates both the red and green channels, so
# pure red is "red top bin without green top bin", pure green the reverse, and
# yellow the coincidence.
_HISTOGRAM_WIDTH = CHANNELS * HISTOGRAM_BINS
_RED_BIN, _GREEN_BIN, _BLUE_BIN = (HISTOGRAM_BINS * (ch + 1) - 1 for ch in range(CHANNELS))
# What an attribute keyword other than a color is scored by, and the caption
# roles of those keywords; verbs and the occlusion phrase score at base NLL.
_ENERGY = "energy"
_ENERGY_ROLES = frozenset({"shape", "count", "relation", "interaction"})
# The affinity scorer's NLL with no affinity, and the clamp on every NLL.
_BASE_NLL = 3.0
_NLL_MIN = 0.05
_NLL_MAX = 6.0


@functools.lru_cache(maxsize=64)
def _bin_columns(dim: int) -> tuple:
    """The red, green and blue bins' feature columns ``j < dim`` (``j %
    _HISTOGRAM_WIDTH`` is the bin's offset), read-only since callers share
    them: one (3, k) array when the three have one length k >= 1 (any ``dim
    >= 24`` that is 0-7 mod 24), else three 1-D arrays.  An index gather adds
    each bin's columns in order, a (T, 3, k) one as the bin's own (T, k) one
    does, so their means round the same; a strided slice would not."""
    cols = [np.arange(b, dim, _HISTOGRAM_WIDTH) for b in (_RED_BIN, _GREEN_BIN, _BLUE_BIN)]
    cols = (np.stack(cols),) if cols[0].size == cols[2].size > 0 else tuple(cols)
    for c in cols:
        c.setflags(write=False)
    return cols


def _bin_means(positive: np.ndarray):
    """Per-token means of the map's red, green and blue bin columns, each
    zeros when the map is too narrow to have any."""
    cols = _bin_columns(positive.shape[1])
    if len(cols) == 1:  # one gather and one reduction for all three
        return _mean(positive[:, cols[0]], 2).T
    return [_mean(positive[:, c], 1) if c.size else np.zeros(positive.shape[0]) for c in cols]


@functools.lru_cache(maxsize=4096)
def _token_kind(token: str) -> Optional[str]:
    """The statistic a caption token is scored by: its lowercase color word,
    ``_ENERGY`` for other attribute keywords, or None (base NLL).

    Keywords match ``WORD_ROLES`` in any case, except labels, which match
    only as written; any number counts as a position claim.  Single tokens are
    classified, not whole captions, so free-form captions score too.
    """
    word = token.rstrip(".,")
    lowered = word.lower()
    role = WORD_ROLES.get(lowered)
    if role == "color":
        return lowered
    if role in _ENERGY_ROLES or lowered.isdigit() or WORD_ROLES.get(word) == "label":
        return _ENERGY
    return None


@dataclass(frozen=True)
class AffinityConfig:
    """Strength of the affinity scorer: each unit of affinity lowers a
    keyword's NLL by ``alpha``."""

    alpha: float = ruled("finite", default=8.0)

    __post_init__ = check_rules


class AffinityScorer:
    """Keyword-vs-feature affinity scoring.

    Tokens are matched against attribute vocabularies.  A color keyword's
    affinity is the per-token coincidence of its saturated histogram bins in
    the (token-centered) feature columns, averaged over tokens, so captions
    naming colors actually present in the fused features score lower NLL.
    Other attribute keywords (shapes, counts, digits, relations, labels) share
    a global positive-energy statistic, and non-attribute tokens stay at the
    base NLL.  All NLLs are clamped to [_NLL_MIN, _NLL_MAX].

    A plain class rather than a frozen dataclass, so that a tracer can
    replace ``score`` on an instance.
    """

    def __init__(self, config: AffinityConfig):
        self.config = config

    def score(self, features: FeatureMap, real: str, hallucinated: str) -> tuple:
        """Both captions' NLLs from one centered map: its bin columns are
        taken once, every affinity is derived once from them, and each token
        kind's NLL is clamped once, whatever the captions name."""
        kinds = [list(map(_token_kind, _tokens(c))) for c in (real, hallucinated)]
        values = features.values
        positive = values - _mean(values, 0)
        np.maximum(positive, 0.0, out=positive)
        tokens = positive.shape[0]
        red, green, blue = _bin_means(positive)
        # One row per colour word.  Each row is contiguous, so its sum rounds
        # as the row's own 1-D sum would.
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
        alpha = self.config.alpha
        table = {
            kind: min(max(_BASE_NLL - alpha * affinity, _NLL_MIN), _NLL_MAX)
            for kind, affinity in affinities.items()
        }
        return list(map(table.__getitem__, kinds[0])), list(map(table.__getitem__, kinds[1]))


def affinity_scorer(config: AffinityConfig) -> AffinityScorer:
    return AffinityScorer(config)


# Judging pipeline: all six personas at the canonical geometry (64 tokens,
# 24 dims) so no alignment resampling or adapters distort the descriptors.
# The projector's two stages are identity adapters around the GELU, so the
# projector is GELU applied per feature, not an identity map.
JUDGING_TOKENS = 64
JUDGING_DIM = 24
_FAVOR_BIAS = 25.0


def toy_judging_config(
    favored_persona: Optional[str] = None,
    seed: int = 0,
) -> PipelineConfig:
    """A six-expert routed pipeline for judging experiments.

    With ``favored_persona=None`` the router is all-zero, i.e. exactly uniform
    soft routing over all six experts.  Naming a persona puts ``_FAVOR_BIAS``
    on that expert's router bias and routes top-1: the favoured expert
    weighs exactly 1 and the other five exactly 0, so ``run_pipeline``
    encodes only the favoured one.  Under soft routing the five would each
    weigh about exp(-25) ≈ 1.4e-11.
    """
    experts = tuple(
        ToyExpertSpec(
            id=i,
            persona=persona,
            seed=seed + i,
            native_tokens=JUDGING_TOKENS,
            native_dim=JUDGING_DIM,
        )
        for i, persona in enumerate(PERSONAS)
    )
    bias = np.zeros(len(PERSONAS))
    if favored_persona is not None:
        rule("one of", PERSONAS).check(favored_persona, "favored_persona")
        bias[PERSONAS.index(favored_persona)] = _FAVOR_BIAS
    router = RouterParams(weights=np.zeros((JUDGING_DIM, len(PERSONAS))), bias=bias)
    projector = ProjectorParams(
        stage1=identity_adapter(JUDGING_DIM), stage2=identity_adapter(JUDGING_DIM)
    )
    return PipelineConfig(
        experts=experts,
        router=router,
        strategy=FusionStrategy(kind="routed", k=None if favored_persona is None else 1),
        projector=projector,
        canonical_tokens=JUDGING_TOKENS,
        canonical_dim=JUDGING_DIM,
        clip_seed=seed,
    )
