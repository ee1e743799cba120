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
    dumps_jsonl,
    parse_jsonl,
    rasterize,
)
from .experts import (
    CHANNELS,
    HISTOGRAM_BINS,
    PERSONAS,
    FeatureMap,
    ImageGrid,
    ToyExpertSpec,
    _mean,
    identity_adapter,
    load_raw_image,
)
from .fusion import FusionStrategy, PipelineConfig, PipelineError, ProjectorParams, run_pipeline
from .router import RouterParams


class EvaluationError(RuntimeError):
    """A sample could not be judged; messages carry the sample id."""


def perplexity(nlls) -> float:
    """exp(mean NLL); 1.0 for perfectly-certain captions, >= 1 always."""
    arr = np.asarray(list(nlls), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("perplexity needs at least one NLL")
    if not np.isfinite(arr).all():
        raise ValueError("NLLs must be finite")
    if (arr < 0).any():
        raise ValueError("NLLs must be non-negative")
    return float(np.exp(_mean(arr, None)))


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
        return {
            "sample_id": self.sample_id,
            "ppl_real": self.ppl_real,
            "ppl_hall": self.ppl_hall,
            "is_error": self.is_error,
            "category": self.category.value,
        }


def judge_sample(scorer, pipeline_output: FeatureMap, sample: BenchmarkSample) -> Judgement:
    """Score both captions against the same features in one ``score`` call
    and apply the error rule."""
    try:
        nlls = scorer.score(pipeline_output, sample.real_caption, sample.hallucinated_caption)
        ppl_real, ppl_hall = map(perplexity, nlls)
    except EvaluationError:
        raise
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
    n: int
    errors: int
    error_rate: float
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CategoryReport:
    per_category: dict
    overall: CategoryStats
    mode: str = "raw"

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "overall": self.overall.to_json_dict(),
            "categories": {
                category.value: stats.to_json_dict()
                for category, stats in self.per_category.items()
            },
        }


def _stats(n: int, errors: int) -> CategoryStats:
    if n == 0:
        return CategoryStats(n=0, errors=0, error_rate=0.0, degenerate=True)
    return CategoryStats(n=n, errors=errors, error_rate=errors / n)


def error_rates(judgements) -> CategoryReport:
    """Raw per-category and overall error rates; empty categories are flagged."""
    items = list(judgements)
    if not items:
        raise ValueError("error_rates needs at least one judgement")
    per_category = {}
    for category in HallucinationCategory:
        sub = [j for j in items if j.category is category]
        per_category[category] = _stats(len(sub), sum(j.is_error for j in sub))
    overall = _stats(len(items), sum(j.is_error for j in items))
    return CategoryReport(per_category=per_category, overall=overall, mode="raw")


def radar_csv(reports: dict) -> str:
    """Cross-run radar export: raw rates plus per-category min-max normalization.

    ``reports`` maps run name -> CategoryReport.  Normalized values are
    (rate - min)/(max - min) across the runs within each category, 0.0 when
    all runs agree.
    """
    if not reports:
        raise ValueError("radar_csv needs at least one report")
    for name in reports:
        if "," in name or "\n" in name or not name:
            raise ValueError(f"run name {name!r} must be non-empty without commas/newlines")
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
    return Judgement(
        sample_id=str(doc["sample_id"]),
        ppl_real=float(doc["ppl_real"]),
        ppl_hall=float(doc["ppl_hall"]),
        is_error=bool(doc["is_error"]),
        category=HallucinationCategory(doc["category"]),
    )


def loads_judgements(text: str) -> list:
    return parse_jsonl(text, _judgement_from_json_dict, "judgement file contains no entries")


def _resolve_image(ref: ImageRef, base_dir) -> ImageGrid:
    if ref.kind == "scene":
        return rasterize(ref.scene)
    path = Path(base_dir) / ref.path if base_dir is not None else Path(ref.path)
    return load_raw_image(path)


def evaluate_dataset(
    scorer,
    pipeline_config: PipelineConfig,
    dataset,
    parallelism: int = 1,
    base_dir=None,
    failures: Optional[list] = None,
):
    """Judge every sample: resolve image -> run pipeline -> score both captions.

    Judgements come back in dataset order regardless of parallelism.  With
    ``failures=None`` the first per-sample failure (in dataset order) raises
    ``EvaluationError``, with the same message at any parallelism.  No sample
    after a known failure starts, so a thread pool judges at most the samples
    already running when one fails.  With a list, failed samples are skipped
    and their messages appended to it.

    A per-sample failure is a domain error: ``ValueError`` or ``OSError``
    from resolving the image, ``PipelineError`` from a pipeline stage's bad
    input, or ``EvaluationError`` from the scorer (``judge_sample`` wraps
    whatever a pluggable scorer raises).  Any other exception is a bug and
    propagates unwrapped either way.
    """
    samples = list(dataset)
    if not samples:
        raise ValueError("dataset is empty")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")

    # Strict mode's lowest failing index so far: samples after it are skipped,
    # the ones before it still run, so the first failure in order is raised.
    first_failure = len(samples)
    failure_lock = threading.Lock()

    def run_one(index, sample):
        nonlocal first_failure
        if index > first_failure:
            return None, None  # never read: collect raises at first_failure
        try:
            image = _resolve_image(sample.image, base_dir)
            result = run_pipeline(image, pipeline_config)
            return judge_sample(scorer, result.features, sample), None
        except (ValueError, OSError, PipelineError, EvaluationError) as exc:
            if failures is None:
                with failure_lock:
                    first_failure = min(first_failure, index)
            return None, f"sample {sample.id}: {exc}"

    judgements = []

    def collect(outcomes):
        for judgement, failure in outcomes:
            if failure is None:
                judgements.append(judgement)
            elif failures is None:
                raise EvaluationError(failure)
            else:
                failures.append(failure)

    if parallelism == 1:
        collect(map(run_one, range(len(samples)), samples))
    else:
        pool = ThreadPoolExecutor(max_workers=parallelism)
        try:
            collect(pool.map(run_one, range(len(samples)), samples))
        finally:
            # After a raise, samples not yet started are dropped, not judged.
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
def _bin_columns(dim: int, offset: int) -> np.ndarray:
    """Indices of the feature columns ``j < dim`` with ``j % _HISTOGRAM_WIDTH
    == offset``; read-only, since callers share it.

    Gathering them by index array copies the same columns as a list would, so
    their mean rounds the same; a strided slice would not.
    """
    cols = np.arange(offset, dim, _HISTOGRAM_WIDTH)
    cols.setflags(write=False)
    return cols


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

    alpha: float = 8.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


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

    @staticmethod
    def _bin_column(positive: np.ndarray, offset: int) -> np.ndarray:
        cols = _bin_columns(positive.shape[1], offset)
        if not cols.size:
            return np.zeros(positive.shape[0])
        return _mean(positive[:, cols], 1)

    def _color_affinity(self, positive: np.ndarray, word: str) -> float:
        red = self._bin_column(positive, _RED_BIN)
        green = self._bin_column(positive, _GREEN_BIN)
        if word == "red":
            per_token = np.maximum(red - green, 0.0)
        elif word == "green":
            per_token = np.maximum(green - red, 0.0)
        elif word == "blue":
            per_token = self._bin_column(positive, _BLUE_BIN)
        else:  # yellow: red/green coincidence within the same region
            per_token = np.minimum(red, green)
        return float(per_token.sum() / positive.shape[0])

    def _nll(self, positive: np.ndarray, kind: Optional[str]) -> float:
        affinity = 0.0
        if kind == _ENERGY:
            affinity = float(_mean(positive, None))
        elif kind is not None:
            affinity = self._color_affinity(positive, kind)
        nll = _BASE_NLL - self.config.alpha * affinity
        return min(max(nll, _NLL_MIN), _NLL_MAX)

    def score(self, features: FeatureMap, real: str, hallucinated: str) -> tuple:
        """Both captions' NLLs from one centered map and one NLL table."""
        kinds = [[_token_kind(token) for token in _tokens(c)] for c in (real, hallucinated)]
        values = features.values
        positive = np.maximum(values - _mean(values, 0), 0.0)
        # One NLL per token kind, so the energy and each color's affinity are
        # computed at most once per map.
        table = {kind: self._nll(positive, kind) for kind in dict.fromkeys(kinds[0] + kinds[1])}
        return [table[kind] for kind in kinds[0]], [table[kind] for kind in kinds[1]]


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
    routing; naming a persona puts ``_FAVOR_BIAS`` on that expert's router
    bias.  Routing stays soft: each of the other five experts weighs about
    exp(-25) ≈ 1.4e-11, so all six are still encoded and summed for every
    sample.
    """
    if favored_persona is not None and favored_persona not in PERSONAS:
        raise ValueError(
            f"unknown persona {favored_persona!r}; valid personas: {', '.join(PERSONAS)}"
        )
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
        bias[PERSONAS.index(favored_persona)] = _FAVOR_BIAS
    router = RouterParams(weights=np.zeros((JUDGING_DIM, len(PERSONAS))), bias=bias)
    projector = ProjectorParams(
        stage1=identity_adapter(JUDGING_DIM), stage2=identity_adapter(JUDGING_DIM)
    )
    return PipelineConfig(
        experts=experts,
        router=router,
        strategy=FusionStrategy(kind="routed"),
        projector=projector,
        canonical_tokens=JUDGING_TOKENS,
        canonical_dim=JUDGING_DIM,
        clip_seed=seed,
    )
