"""Fusing expert feature maps back into the base patch features.

Three strategies are supported:

* ``routed``: softmax routing weights (optionally top-k masked) blend the
  aligned expert maps into a weighted sum, which is then added to the base
  patch features.
* ``add``: plain unweighted sum of the expert maps plus the base features, a
  routing-free baseline.
* ``concat``: expert maps stacked along the feature axis (column blocks in
  expert-id order) and handed straight to the projector, which must expect
  the widened input.

Whatever the strategy, a two-layer MLP projector (tanh-approximated GELU in
the middle) produces the final feature map.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .experts import (
    FeatureMap,
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
    _grid_side,
    _unchecked,
    adapt_dim,
    descriptor_width,
    encode_toy_expert,
    fold_tiled_rows,
    identity_adapter,
    json_field,
    resample_tokens,
    seeded_adapter,
    tile_columns,
)
from .router import (
    RouterParams,
    RoutingWeights,
    ToyClipParams,
    clip_encode,
    route_logits,
    routing_weights,
    select_top_k,
)

FUSION_KINDS = ("routed", "add", "concat")

_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

PIPELINE_STAGES = ("encode", "align", "route", "fuse", "project")


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU, the projector nonlinearity."""
    x = np.asarray(x, dtype=np.float64)
    # 0.5 * x * (1 + tanh(S * (x + C * (x * x * x)))) step by step in one
    # scratch array, in that order, so it rounds the same.  x * x * x, not
    # x**3: numpy sends a cube to libm pow, which is tens of times slower on
    # arrays with negative entries.
    u = x * x
    u *= x
    u *= _GELU_CUBIC
    u += x
    u *= _GELU_SCALE
    np.tanh(u, out=u)
    u += 1.0
    out = np.multiply(x, 0.5)
    out *= u
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    u = _GELU_SCALE * (x + _GELU_CUBIC * (x * x * x))
    th = np.tanh(u)
    du = _GELU_SCALE * (1.0 + 3.0 * _GELU_CUBIC * x**2)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du


@dataclass(frozen=True)
class FusionStrategy:
    """Which fusion path to run; ``k`` only applies to ``routed``."""

    kind: str
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ValueError(
                f"unknown fusion kind {self.kind!r}; valid kinds: {', '.join(FUSION_KINDS)}"
            )
        if self.k is not None:
            if self.kind != "routed":
                raise ValueError(f"k is only meaningful for routed fusion, not {self.kind!r}")
            if self.k < 1:
                raise ValueError(f"k must be positive, got {self.k}")


@dataclass(frozen=True, eq=False)
class ProjectorParams:
    """Two-layer MLP: stage1 -> GELU -> stage2."""

    stage1: LinearAdapter
    stage2: LinearAdapter

    def __post_init__(self):
        if self.stage1.out_dim != self.stage2.in_dim:
            raise ValueError(
                f"projector stages do not compose: stage1 emits {self.stage1.out_dim}, "
                f"stage2 expects {self.stage2.in_dim}"
            )


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message is prefixed with the stage name."""


def weighted_sum(weights, arrays) -> np.ndarray:
    """Unvalidated ``sum(w * a)`` in list order; the order keeps it
    byte-reproducible.

    1-D ``weights`` skip (do not read) arrays whose weight is exactly 0.
    Weights with leading batch axes ``(..., N)`` give one sum per row,
    shaped ``(..., *a.shape)``; for finite arrays each row equals the 1-D
    sum of its weights bit for bit.
    """
    weights = np.asarray(weights)
    batch = weights.shape[:-1]
    acc = np.zeros(batch + arrays[0].shape)
    for w, values in zip(np.moveaxis(weights, -1, 0), arrays):
        if batch:
            acc += w.reshape(batch + (1,) * values.ndim) * values
        elif w != 0.0:
            acc += w * values
    return acc


def _check_same_shape(experts: list[FeatureMap]) -> None:
    if not experts:
        raise ValueError("cannot fuse an empty expert list")
    shape = (experts[0].tokens, experts[0].dim)
    for i, fm in enumerate(experts):
        if (fm.tokens, fm.dim) != shape:
            raise ValueError(
                f"expert {i}: shape ({fm.tokens}, {fm.dim}) does not match expert 0 shape {shape}"
            )


def weighted_fuse(routing: RoutingWeights, experts: list[FeatureMap]) -> FeatureMap:
    """Weighted sum of aligned expert maps.

    Experts whose weight is exactly zero are skipped entirely, so masked
    experts cannot influence the result.  Accumulation runs in expert-id
    order, which keeps the output byte-reproducible.
    """
    if len(experts) != routing.n_experts:
        raise ValueError(
            f"{routing.n_experts} routing weights for {len(experts)} expert maps"
        )
    _check_same_shape(experts)
    return FeatureMap(
        weighted_sum(routing.weights, [fm.values for fm in experts]), source="fused"
    )


def fuse_add(experts: list[FeatureMap]) -> FeatureMap:
    """Unweighted sum baseline: :func:`weighted_sum` with unit weights."""
    _check_same_shape(experts)
    return FeatureMap(
        weighted_sum([1.0] * len(experts), [fm.values for fm in experts]), source="fused"
    )


def fuse_concat(experts: list[FeatureMap]) -> FeatureMap:
    """Stack expert maps along the feature axis in expert-id order."""
    if not experts:
        raise ValueError("cannot fuse an empty expert list")
    tokens = experts[0].tokens
    for i, fm in enumerate(experts):
        if fm.tokens != tokens:
            raise ValueError(
                f"expert {i}: token count {fm.tokens} does not match expert 0 count {tokens}"
            )
    return FeatureMap(np.concatenate([fm.values for fm in experts], axis=1), source="fused")


def residual_merge(patches: FeatureMap, fused: FeatureMap) -> FeatureMap:
    """Add the fused expert signal back onto the base patch features."""
    if (patches.tokens, patches.dim) != (fused.tokens, fused.dim):
        raise ValueError(
            f"cannot merge shapes ({patches.tokens}, {patches.dim}) and "
            f"({fused.tokens}, {fused.dim})"
        )
    return FeatureMap(patches.values + fused.values, source="fused")


def mlp(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """Unvalidated two-layer GELU MLP over the rows of ``x``; returns
    ``(hidden, act, out)`` so gradients can reuse the intermediates."""
    hidden = x @ w1
    hidden += b1  # in place: the product is a fresh array
    act = gelu(hidden)
    out = act @ w2
    out += b2
    return hidden, act, out


def project(fm: FeatureMap, params: ProjectorParams) -> FeatureMap:
    """Run the two-layer MLP projector over every token."""
    if params.stage1.in_dim != fm.dim:
        raise ValueError(
            f"projector expects {params.stage1.in_dim} input features, feature map has {fm.dim}"
        )
    s1, s2 = params.stage1, params.stage2
    out = mlp(fm.values, s1.weights, s1.bias, s2.weights, s2.bias)[-1]
    return FeatureMap(out, source=fm.source)


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """Everything needed to run an image through the full pipeline.

    Expert ids must be 0..N-1 in list order.  ``clip_seed`` parameterizes the
    toy base encoder that produces the context vector and residual patches.
    Per-expert width adapters are derived, not configured: experts whose
    native_dim already matches ``canonical_dim`` pass through identically,
    everything else gets a seeded adapter keyed by the expert's seed.
    """

    experts: tuple
    router: RouterParams
    strategy: FusionStrategy
    projector: ProjectorParams
    canonical_tokens: int = 576
    canonical_dim: int = 1024
    clip_seed: int = 0

    def __post_init__(self):
        experts = tuple(self.experts)
        if not experts:
            raise ValueError("pipeline needs at least one expert")
        for i, spec in enumerate(experts):
            if spec.id != i:
                raise ValueError(
                    f"expert ids must be 0..{len(experts) - 1} in order; position {i} has id {spec.id}"
                )
        _grid_side(self.canonical_tokens, "canonical_tokens")
        if self.router.dim_in != self.canonical_dim:
            raise ValueError(
                f"router dim_in {self.router.dim_in} does not match canonical_dim {self.canonical_dim}"
            )
        if self.router.n_experts != len(experts):
            raise ValueError(
                f"router expects {self.router.n_experts} experts, config lists {len(experts)}"
            )
        if self.strategy.kind == "routed" and self.strategy.k is not None:
            if self.strategy.k > len(experts):
                raise ValueError(
                    f"top-k {self.strategy.k} exceeds expert count {len(experts)}"
                )
        expected_in = (
            self.canonical_dim * len(experts)
            if self.strategy.kind == "concat"
            else self.canonical_dim
        )
        if self.projector.stage1.in_dim != expected_in:
            raise ValueError(
                f"projector stage1 expects {self.projector.stage1.in_dim} features, "
                f"{self.strategy.kind} fusion produces {expected_in}"
            )
        object.__setattr__(self, "experts", experts)

    def clip_params(self) -> ToyClipParams:
        return ToyClipParams(
            seed=self.clip_seed, tokens=self.canonical_tokens, dim=self.canonical_dim
        )

    def expert_adapter(self, spec: ToyExpertSpec) -> LinearAdapter:
        if spec.native_dim == self.canonical_dim:
            return identity_adapter(self.canonical_dim)
        return seeded_adapter(spec.native_dim, self.canonical_dim, seed=spec.seed)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    features: FeatureMap
    routing: RoutingWeights
    stage_seconds: dict


def pipeline_config_from_json(doc: dict) -> PipelineConfig:
    """Build a PipelineConfig from the document ``pipeline_config_to_json``
    writes, with explicit router and projector weights.

    Any missing, mistyped or rejected field raises ``ValueError("malformed
    pipeline config: ...")``.
    """
    try:
        experts = tuple(
            ToyExpertSpec(
                id=json_field(e, "id", int),
                persona=json_field(e, "persona", str),
                seed=json_field(e, "seed", int),
                native_tokens=json_field(e, "native_tokens", int),
                native_dim=json_field(e, "native_dim", int),
            )
            for e in doc["experts"]
        )
        strategy_doc = doc["strategy"]
        strategy = FusionStrategy(
            kind=json_field(strategy_doc, "kind", str),
            k=None if strategy_doc.get("k") is None else json_field(strategy_doc, "k", int),
        )
        projector_doc = doc["projector"]
        return PipelineConfig(
            experts=experts,
            router=RouterParams.from_json_dict(doc["router"]),
            strategy=strategy,
            projector=ProjectorParams(
                stage1=LinearAdapter._from_json_dict(projector_doc["stage1"], "projector stage1"),
                stage2=LinearAdapter._from_json_dict(projector_doc["stage2"], "projector stage2"),
            ),
            canonical_tokens=json_field(doc, "canonical_tokens", int),
            canonical_dim=json_field(doc, "canonical_dim", int),
            clip_seed=json_field(doc, "clip_seed", int),
        )
    except KeyError as exc:
        raise ValueError(f"malformed pipeline config: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed pipeline config: {exc}") from exc


def pipeline_config_to_json(config: PipelineConfig) -> dict:
    return {
        "experts": [asdict(e) for e in config.experts],
        "router": config.router.to_json_dict(),
        "strategy": asdict(config.strategy),
        "projector": {
            "stage1": config.projector.stage1._to_json_dict(),
            "stage2": config.projector.stage2._to_json_dict(),
        },
        "canonical_tokens": config.canonical_tokens,
        "canonical_dim": config.canonical_dim,
        "clip_seed": config.clip_seed,
    }


def load_pipeline_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return pipeline_config_from_json(doc)


@dataclass(frozen=True, eq=False)
class _AlignStep:
    """How one expert's encoder output reaches the canonical geometry.

    Only the first ``width`` columns are resampled, since the rest of the
    encoder output repeats them.  ``adapter`` is the expert's width adapter
    folded onto those columns; it is None when ``native_dim`` already equals
    ``canonical_dim``, and the resampled columns are tiled back out instead.
    An expert already at the canonical geometry has no step (None).

    Resampling acts on tokens and the adapter on features, so the two
    commute up to rounding.  ``adapt_first`` is set when running the adapter
    at the native token count and then resampling costs fewer multiply-adds
    than resampling first (see :func:`_adapt_first`): that holds when a wide
    expert is upsampled.  A narrow folded descriptor, a downsampled expert
    and an expert without an adapter resample first.
    """

    width: int
    adapter: Optional[LinearAdapter]
    adapt_first: bool = False


# What one element a bilinear pass writes costs, in multiply-adds of a
# matrix product: two gathers and three elementwise passes, against a
# product that reuses each loaded value many times.  Fitted to where the
# timed orders crossed with one OpenBLAS thread on a Xeon host, adapting to
# 1024 features and upsampling to 576 tokens: near width 128 from 256
# tokens and near 64 from 64 tokens (this model: 126 and 67).
_RESAMPLE_MULADDS = 48


def _adapt_first(n_in: int, n_out: int, width: int, dim: int) -> bool:
    """Whether adapting ``width`` to ``dim`` features before resampling
    ``n_in`` to ``n_out`` tokens costs fewer multiply-adds than after."""
    if n_out <= n_in:
        return False
    src, dst = math.isqrt(n_in), math.isqrt(n_out)
    lerped = dst * (src + dst)  # elements per feature the two bilinear passes write
    resample_first = _RESAMPLE_MULADDS * lerped * width + n_out * width * dim
    adapt_first = n_in * width * dim + _RESAMPLE_MULADDS * lerped * dim
    return adapt_first < resample_first


def _align_step(config: PipelineConfig, spec: ToyExpertSpec) -> Optional[_AlignStep]:
    tokens, dim = config.canonical_tokens, config.canonical_dim
    if (spec.native_tokens, spec.native_dim) == (tokens, dim):
        return None
    width = descriptor_width(spec)
    if spec.native_dim == dim:
        return _AlignStep(width, None)
    adapter = config.expert_adapter(spec)
    return _AlignStep(
        width,
        LinearAdapter(fold_tiled_rows(adapter.weights, width), adapter.bias),
        _adapt_first(spec.native_tokens, tokens, width, dim),
    )


_ALIGN_STEPS_LOCK = threading.Lock()


def _align_steps(config: PipelineConfig) -> tuple:
    """Per-expert align steps, built on first use and kept on the config.

    The steps depend only on fields of the frozen config, so they stay valid
    for its lifetime; a ``dataclasses.replace`` copy builds its own.  The
    lock makes concurrent first runs build them once and publish them whole.
    """
    steps = config.__dict__.get("_align_steps")
    if steps is None:
        with _ALIGN_STEPS_LOCK:
            steps = config.__dict__.get("_align_steps")
            if steps is None:
                steps = tuple(_align_step(config, spec) for spec in config.experts)
                object.__setattr__(config, "_align_steps", steps)
    return steps


def _align(fm: FeatureMap, step: Optional[_AlignStep], config: PipelineConfig) -> FeatureMap:
    # Slicing and tiling a finite map keep it finite, so those maps skip the
    # checks; adapt_dim and resample_tokens check their own output.
    if step is None:
        return fm
    if step.width < fm.dim:
        fm = _unchecked(FeatureMap, values=fm.values[:, : step.width], source=fm.source)
    if step.adapt_first:
        return resample_tokens(adapt_dim(fm, step.adapter), config.canonical_tokens)
    if fm.tokens != config.canonical_tokens:
        fm = resample_tokens(fm, config.canonical_tokens)
    if step.adapter is not None:
        return adapt_dim(fm, step.adapter)
    if fm.dim < config.canonical_dim:
        values = tile_columns(fm.values, config.canonical_dim)
        return _unchecked(FeatureMap, values=values, source=fm.source)
    return fm


def run_pipeline(image: ImageGrid, config: PipelineConfig) -> PipelineResult:
    """Run route -> encode -> align -> fuse -> project and report timings.

    The image is clip-encoded and routed first (the ``"route"`` timing covers
    both).  Under ``routed`` fusion only experts with a non-zero weight are
    then encoded and aligned: an expert that top-k masking or softmax
    underflow leaves at exactly 0 is never run, so an expert that cannot
    encode the image fails the run only when it is active.  ``add`` and
    ``concat`` encode every expert.

    Config-only state is derived once: the folded width adapters, and for
    each expert the order of its resample and adapter, are built on the
    first run with a config and kept on it for its lifetime; the seeded
    Gaussian projections of the ``random-projection`` persona and the clip
    encoder sit in a small memo in ``experts``.  Experts at the canonical
    geometry skip align; those sharing a patch side share one pixel copy.
    A wide expert that is upsampled runs its adapter at its native token
    count and is resampled after; every other expert is resampled first
    (see :class:`_AlignStep`).  Either order gives the same map up to
    rounding.

    The cut and tiled column maps of align are not re-checked for finite
    values (they hold entries of a checked map); every stage function's
    output is, so a non-finite fused or merged map fails the ``fuse`` stage.
    A stage's ``ValueError`` re-raises as :class:`PipelineError` with the
    stage name prefixed; any other exception is a bug and propagates as is.
    Expert maps are combined in expert-id order, so results are
    deterministic for a fixed (image, config) pair.
    """
    timings: dict[str, float] = {}

    def staged(stage, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except ValueError as exc:
            raise PipelineError(f"{stage}: {exc}") from exc
        timings[stage] = time.perf_counter() - start
        return result

    def route_stage():
        clip = clip_encode(image, config.clip_params())
        logits = route_logits(clip.cls, config.router)
        weights = routing_weights(logits)
        if config.strategy.kind == "routed" and config.strategy.k is not None:
            weights = select_top_k(weights, config.strategy.k)
        return clip, weights

    clip, weights = staged("route", route_stage)
    routed = config.strategy.kind == "routed"
    used = [i for i, w in enumerate(weights.weights) if not routed or w != 0.0]
    pixels: dict = {}  # one pixel-major copy per patch side, for this image only
    native = staged(
        "encode", lambda: [encode_toy_expert(image, config.experts[i], pixels) for i in used]
    )

    def align_stage():
        steps = _align_steps(config)
        return [_align(fm, steps[i], config) for i, fm in zip(used, native)]

    aligned = staged("align", align_stage)

    def fuse_stage():
        if routed:
            # weighted_fuse skips weight-0 experts without reading their maps,
            # so the slots of masked experts reuse an active expert's map.
            maps = dict(zip(used, aligned))
            experts = [maps.get(i, aligned[0]) for i in range(len(config.experts))]
            return residual_merge(clip.patches, weighted_fuse(weights, experts))
        if config.strategy.kind == "add":
            return residual_merge(clip.patches, fuse_add(aligned))
        return fuse_concat(aligned)

    fused = staged("fuse", fuse_stage)
    features = staged("project", lambda: project(fused, config.projector))
    stage_seconds = {stage: timings[stage] for stage in PIPELINE_STAGES}
    return PipelineResult(features=features, routing=weights, stage_seconds=stage_seconds)
