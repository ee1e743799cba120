"""Context-driven expert routing.

A toy CLIP-style encoder summarizes the image as a patch feature map plus a
context vector (the mean of the patch rows).  A single linear layer maps the
context vector to one logit per expert, and a numerically stable softmax turns
the logits into mixture weights on the probability simplex.  Optionally only
the top-k experts are kept, with the surviving weights renormalized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .experts import (
    FeatureMap,
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
    _grid_side,
    _mean,
    _unchecked,
    check_rules,
    encode_toy_expert,
    resample_tokens,
    rule,
    ruled,
)


@dataclass(frozen=True)
class ToyClipParams:
    """Geometry and seed of the toy base encoder.

    ``tokens`` and ``dim`` fix the canonical aligned grid.  The patch features
    come from a seeded random projection of the pixels, computed on the
    largest image-dividing grid no finer than the canonical one and then
    resampled up to it.
    """

    seed: int = ruled(">= 0")
    tokens: int
    dim: int = ruled(">= 1")

    def __post_init__(self):
        check_rules(self)
        _grid_side(self.tokens, "tokens")


@dataclass(frozen=True, eq=False)
class ClipOutput:
    """Base encoder output: context vector plus patch feature map.  Built
    only by :func:`clip_encode`, whose ``cls`` is the column mean of
    ``patches``, so it carries no checks of its own."""

    cls: np.ndarray
    patches: FeatureMap


@dataclass(frozen=True, eq=False)
class RouterParams(LinearAdapter):
    """Linear routing head: logits = cls @ weights + bias.

    Its file is the adapter document with the widths under ``dim_in`` and
    ``n_experts``.
    """

    @property
    def dim_in(self) -> int:
        return self.in_dim

    @property
    def n_experts(self) -> int:
        return self.out_dim

    def to_json_dict(self) -> dict:
        return self._to_json_dict("dim_in", "n_experts")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RouterParams":
        return cls._from_json_dict(doc, "router document", "dim_in", "n_experts")


@dataclass(frozen=True, eq=False)
class RoutingWeights:
    """A point on the expert simplex plus the set of active expert ids."""

    weights: np.ndarray
    active: frozenset

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("routing weights must be a non-empty vector")
        if not np.isfinite(w).all():
            raise ValueError("routing weights contain non-finite values")
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("routing weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"routing weights must sum to 1, got {w.sum()!r}")
        active = frozenset(int(i) for i in self.active)
        if not active <= set(range(w.size)):
            raise ValueError(f"active set {sorted(active)} out of range for {w.size} experts")
        inactive = [i for i in range(w.size) if i not in active and w[i] != 0.0]
        if inactive:
            raise ValueError(f"inactive experts carry non-zero weight: {inactive}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "active", active)

    @property
    def n_experts(self) -> int:
        return self.weights.size


@functools.lru_cache(maxsize=16)
def _clip_spec(height: int, width: int, params: ToyClipParams) -> ToyExpertSpec:
    """The random-projection expert :func:`clip_encode` runs on this image size:
    its grid side is the largest divisor of gcd(height, width) within the
    canonical side."""
    g = math.gcd(height, width)
    side = max(d for d in range(1, min(g, math.isqrt(params.tokens)) + 1) if g % d == 0)
    return ToyExpertSpec(0, "random-projection", params.seed, side * side, params.dim)


def clip_encode(image: ImageGrid, params: ToyClipParams) -> ClipOutput:
    """Encode the image into canonical patch features and a context vector.

    The context vector is the column-wise mean of the patch rows, so it lives
    in the same feature space the router head was trained against.
    """
    fm = encode_toy_expert(image, _clip_spec(image.height, image.width, params))
    if fm.tokens != params.tokens:
        fm = resample_tokens(fm, params.tokens)
    # A projection of a validated image (or resample_tokens' checked output).
    patches = _unchecked(FeatureMap, values=fm.values, source="clip-patch")
    return ClipOutput(cls=_mean(patches.values, 0), patches=patches)


def route_logits(cls: np.ndarray, params: RouterParams) -> np.ndarray:
    """One affinity logit per expert from the context vector."""
    cls = np.asarray(cls, dtype=np.float64)
    if cls.shape != (params.dim_in,):
        raise ValueError(
            f"cls has shape {cls.shape}, router expects ({params.dim_in},)"
        )
    if not np.isfinite(cls).all():
        raise ValueError("cls contains non-finite values")
    return cls @ params.weights + params.bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Unvalidated, numerically stable softmax over the last axis, so a
    stack of logit vectors ``(..., N)`` gives one distribution per row.

    The maximum logit is subtracted before exponentiation, which leaves the
    result unchanged mathematically but keeps it finite for logits of any
    magnitude.
    """
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def routing_weights(logits: np.ndarray) -> RoutingWeights:
    """Validated :func:`softmax` over expert logits, all experts active.

    The logits are checked; the result is built without ``RoutingWeights``'
    checks, which a softmax of finite logits satisfies by construction
    (entries in [0, 1], sum 1 within rounding, every expert active).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size < 1:
        raise ValueError("logits must be a non-empty vector")
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite values")
    return _unchecked(
        RoutingWeights, weights=softmax(logits), active=frozenset(range(logits.size))
    )


def _top_k_rows(weights: np.ndarray, k) -> tuple:
    """:func:`select_top_k` unvalidated, over the last axis of ``(..., N)``
    weights: the renormalized weights and the bool mask of kept experts.
    Each row equals its own 1-D call bit for bit; k = 1 gives exactly 1.
    k None or >= N keeps every weight: ``(weights, None)``, the input itself."""
    if k is None or k >= weights.shape[-1]:
        return weights, None
    order = np.argsort(-weights, axis=-1, kind="stable")
    ids = np.sort(order[..., :k], axis=-1)
    kept = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(kept, ids, True, axis=-1)
    # The kept weights summed in id order, as a 1-D masked sum adds them.
    total = np.take_along_axis(weights, ids, axis=-1).sum(axis=-1, keepdims=True)
    return np.where(kept, weights / total, 0.0), kept


def select_top_k(routing: RoutingWeights, k: int) -> RoutingWeights:
    """Keep the k largest weights (ties broken by lower expert id), renormalize.

    Masked experts get exactly 0, so they add exact zeros in fusion.  The
    input already lies on the simplex, and renormalizing the kept weights
    (the largest is at least 1/n) keeps it there, so the result is built
    without ``RoutingWeights``' checks.  It never shares the input's array.
    """
    n = routing.n_experts
    rule(f"in [1, {n}]").check(k, "k")
    # A copy in, since at k = n the kernel hands its input back.
    weights, kept = _top_k_rows(routing.weights.copy(), k)
    active = range(n) if kept is None else np.flatnonzero(kept).tolist()
    return _unchecked(RoutingWeights, weights=weights, active=frozenset(active))
