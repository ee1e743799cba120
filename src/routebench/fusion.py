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
    check_rules,
    descriptor_width,
    encode_toy_expert,
    fold_tiled_rows,
    json_fields,
    resample_tokens,
    ruled,
    seeded_adapter,
    tile_columns,
)
# Tracers patch route_logits, routing_weights and select_top_k on this module
# as well, so they stay imported here.
from .router import (
    RouterParams,
    RoutingWeights,
    ToyClipParams,
    _top_k_rows,
    clip_encode,
    route_logits,
    routing_weights,
    select_top_k,
    softmax,
)

FUSION_KINDS = ("routed", "add", "concat")

_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

PIPELINE_STAGES = ("clip", "route", "encode", "align", "fuse", "project")


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU, the projector nonlinearity."""
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
    u = _GELU_SCALE * (x + _GELU_CUBIC * (x * x * x))
    th = np.tanh(u)
    du = _GELU_SCALE * (1.0 + 3.0 * _GELU_CUBIC * x**2)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du


@dataclass(frozen=True)
class FusionStrategy:
    """Which fusion path to run; ``k`` only applies to ``routed``."""

    kind: str = ruled("one of", FUSION_KINDS)
    k: Optional[int] = ruled(">= 1", default=None)

    def __post_init__(self):
        check_rules(self)
        if self.k is not None and self.kind != "routed":
            raise ValueError(f"k is only meaningful for routed fusion, not {self.kind!r}")


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

    Each array is a map ``(T, D)`` or a stack of maps ``(..., T, D)`` with
    the weights' leading axes.  Weights with leading axes ``(..., N)`` give
    one sum per row, and a row scales the matching map of a stack; for
    finite arrays each row equals the 1-D sum of its weights bit for bit.
    A finite array weighted 0 adds exact zeros, which change no byte (the
    sum starts at +0.0 and never holds -0.0).
    """
    weights = np.asarray(weights)
    shape = arrays[0].shape
    acc = np.zeros(shape if len(shape) > 2 else weights.shape[:-1] + shape)
    for i, values in enumerate(arrays):
        acc += weights[..., i, None, None] * values
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

    Experts whose weight is exactly zero add exact zeros, so masked experts
    cannot influence the result.  Accumulation runs in expert-id order,
    which keeps the output byte-reproducible.
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
    ``(hidden, act, out)`` so gradients can reuse the intermediates.  Keep a
    stack 3-D: a ``(B*T, D) @ W`` reshape rounds differently at T = 1."""
    hidden = x @ w1
    hidden += b1  # in place: the product is a fresh array
    act = gelu(hidden)
    out = act @ w2
    out += b2
    return hidden, act, out


def _route(cls, weights, bias, k) -> tuple:
    """Unvalidated routing of a stack of context vectors ``(..., D)`` by a
    router's ``weights`` ``(D, N)`` and ``bias`` ``(N,)``: returns the
    :func:`_top_k_rows` ``(weights, kept)`` of the softmax, with those axes.

    Stacked as ``(P, D, N)`` and ``(P, N)``, ``weights`` and ``bias`` add
    an axis of P routings (gradcheck).  Each row equals its own unstacked
    routing bit for bit: the logits are a ``(1, D) @ W`` product per row,
    since a ``(B, D) @ W`` product rounds differently.  A row whose logits
    are not all finite is unrouted: its weights are NaN, as
    :func:`routing_weights` rejects its logits.
    """
    logits = (cls[..., None, :] @ weights)[..., 0, :] + bias
    if not np.isfinite(logits).all():  # the cheap check first: rows rarely fail
        logits[~np.isfinite(logits).all(axis=-1)] = np.nan
    return _top_k_rows(softmax(logits), k)


def _merge(patches, maps, weights, kind: str) -> np.ndarray:
    """Unvalidated fuse and merge over leading stack axes under the fusion
    ``kind``: ``patches`` plus the :func:`weighted_sum` of the N expert
    ``maps`` (routed: by ``weights``; add: unit weights), or under concat
    the maps concatenated along the feature axis.  A map is ``(T, D)`` or
    ``(..., T, D)``."""
    if kind == "concat":
        return np.concatenate(maps, axis=-1)
    return patches + weighted_sum(weights if kind == "routed" else np.ones(len(maps)), maps)


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
    clip_seed: int = ruled(">= 0", default=0)

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
        check_rules(self)
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
        return seeded_adapter(spec.native_dim, self.canonical_dim, seed=spec.seed)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    features: FeatureMap
    routing: RoutingWeights
    stage_seconds: dict


def pipeline_config_from_json(doc: dict) -> PipelineConfig:
    """Build a PipelineConfig from the document ``pipeline_config_to_json``
    writes, with explicit router and projector weights.

    Any missing, unknown, mistyped or rejected field raises
    ``ValueError("malformed pipeline config: ...")``.
    """
    try:
        config = json_fields(PipelineConfig, doc, "top-level")
        experts = []
        for i, e in enumerate(config["experts"]):
            spec = json_fields(ToyExpertSpec, e, "expert")
            try:
                experts.append(ToyExpertSpec(**spec))
            except ValueError as exc:
                raise ValueError(f"expert {i}: {exc}") from exc
        strategy = FusionStrategy(**json_fields(FusionStrategy, config["strategy"], "strategy"))
        stages = json_fields(ProjectorParams, config["projector"], "projector")
        config.update(
            experts=tuple(experts),
            router=RouterParams.from_json_dict(config["router"]),
            strategy=strategy,
            projector=ProjectorParams(
                **{k: LinearAdapter._from_json_dict(v, f"projector {k}") for k, v in stages.items()}
            ),
        )
        return PipelineConfig(**config)
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


def _stack(arrays, shape) -> np.ndarray:
    """``(B, *shape)`` from B arrays, None ones as zeros; one array is
    viewed, not copied."""
    if any(a is None for a in arrays):
        arrays = [np.zeros(shape) if a is None else a for a in arrays]
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _run_stack(images, config: PipelineConfig) -> tuple:
    """The pipeline over a stack of images, in order: per image clip-encode,
    one stacked :func:`_route`, per image encode and align of the experts it
    uses, then one stacked :func:`_merge` and :func:`mlp`.  Row ``b`` is
    image ``b`` and equals its single-image run bit for bit.

    Returns ``(weights, kept, out)``, per image a :class:`PipelineError` or
    None, and the seconds spent in each of ``PIPELINE_STAGES``.  An image
    fails as in :func:`run_pipeline`, in its own row only, and runs on with
    zero expert maps.  Route, merge and project run with numpy's overflow
    and invalid-value warnings off: a non-finite row fails its image under
    the stage's name instead.  The ``images`` list is consumed: each image
    is dropped once encoded.
    """
    n, shape = len(images), (config.canonical_tokens, config.canonical_dim)
    seconds, last = dict.fromkeys(PIPELINE_STAGES, 0.0), [time.perf_counter()]

    def lap(stage):
        now = time.perf_counter()
        seconds[stage] += now - last[0]
        last[0] = now

    params = config.clip_params()
    clips = [clip_encode(image, params) for image in images]
    cls = _stack([clip.cls for clip in clips], shape[1:])
    patches = _stack([clip.patches.values for clip in clips], shape)
    del clips  # the stacks replace them
    lap("clip")
    with np.errstate(over="ignore", invalid="ignore"):
        weights, kept = _route(cls, config.router.weights, config.router.bias, config.strategy.k)
    lap("route")
    routed = config.strategy.kind == "routed"
    failures, maps = [None] * n, [[None] * n for _ in config.experts]
    unrouted = np.isnan(weights).any(axis=-1)
    for b, (image, row) in enumerate(zip(images, weights.tolist())):
        if unrouted[b]:
            failures[b] = PipelineError("route: logits contain non-finite values")
            continue
        used = [i for i, w in enumerate(row) if not routed or w != 0.0]
        pixels: dict = {}  # one pixel-major copy per patch side, for this image only
        try:
            native = [encode_toy_expert(image, config.experts[i], pixels) for i in used]
        except ValueError as exc:  # the image does not divide an expert's patch grid
            failures[b] = PipelineError(f"encode: {exc}")
            failures[b].__cause__ = exc
            continue
        lap("encode")
        # Fetched after the encode, not up front: a first run then allocates
        # the long-lived folded adapters above the image's own arrays, where
        # they keep the heap from being trimmed between images; at paper
        # geometry that saves about 1,100 page faults per image (glibc
        # malloc).
        steps = _align_steps(config)
        for i, fm in zip(used, native):
            maps[i][b] = _align(fm, steps[i], config).values
        lap("align")
        images[b] = None  # encoded: the rest no longer needs the image
    # Under routed fusion an expert no row weighs is left out of the merge.
    ids = [i for i in range(len(maps)) if not routed or weights[..., i].any()]
    maps = [_stack(maps[i], shape) for i in ids]
    with np.errstate(over="ignore", invalid="ignore"):
        merged = _merge(patches, maps, weights[..., ids], config.strategy.kind)
        fused = np.isfinite(merged).all(axis=(-2, -1))
        lap("fuse")
        p = config.projector
        out = mlp(merged, p.stage1.weights, p.stage1.bias, p.stage2.weights, p.stage2.bias)[-1]
    projected = np.isfinite(out).all(axis=(-2, -1))
    lap("project")
    for b in range(n):
        if failures[b] is None and not (fused[b] and projected[b]):
            stage = "project" if fused[b] else "fuse"
            failures[b] = PipelineError(f"{stage}: feature map contains non-finite values")
    return weights, kept, out, failures, seconds


def run_pipeline(image: ImageGrid, config: PipelineConfig) -> PipelineResult:
    """Run clip -> route -> encode -> align -> fuse -> project and report
    the seconds of each stage.

    This is :func:`_run_stack` on a stack of one image.  The image is
    clip-encoded (the ``"clip"`` timing) and routed first.  Under ``routed``
    fusion only experts with a non-zero weight are then encoded and aligned:
    an expert that top-k masking or softmax underflow leaves at exactly 0 is
    never run, so an expert that cannot encode the image fails the run only
    when it is active.  ``add`` and ``concat`` encode every expert.
    Config-only state (the align steps, the Gaussian projections) is derived
    once, not per image.

    Non-finite routing logits, an active expert whose patch grid does not
    divide the image (``encode_toy_expert``'s ``ValueError``) and a
    non-finite merged or projected map raise :class:`PipelineError` with the
    stage name prefixed.  Any other exception, a clip-encode or align
    ``ValueError`` included, is a bug and propagates as is.  Expert maps are
    combined in expert-id order, so results are deterministic for a fixed
    (image, config) pair.
    """
    weights, kept, out, failures, seconds = _run_stack([image], config)
    if failures[0] is not None:
        raise failures[0]
    active = range(len(config.experts)) if kept is None else np.flatnonzero(kept[0]).tolist()
    routing = _unchecked(RoutingWeights, weights=weights[0], active=frozenset(active))
    features = _unchecked(FeatureMap, values=out[0], source="fused")
    return PipelineResult(features=features, routing=routing, stage_seconds=seconds)
