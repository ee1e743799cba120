"""Numerical verification for the routing pipeline.

One harness lives here: a gradient checker that backpropagates a scalar loss
(sum of squared output features) through route -> fuse -> merge -> project
analytically, then compares every parameter coordinate against central finite
differences.  Timing the pipeline is left to perfbench's traced runs.

The checker runs the pipeline's own align path and its stage kernels
(``fusion._route``, ``fusion._merge`` and ``fusion.mlp``, which
``run_pipeline`` and eval run in that order), so its forward is byte-equal
to ``run_pipeline``.  Those kernels run over leading stack axes, so the
finite differences run as three stacked forwards (``_STACKS``): every +eps
and -eps copy of the parameters is one row of a batch, and each row's loss
equals the unbatched loss bit for bit.  Router weights and bias act only
through the logits and share one stack, whose first row is the unperturbed
point; the analytic pass backpropagates from that row's intermediates.  The
projector stages keep a stack each: in a joint one, every stage-2 row would
recompute stage 1's GELU.  Coordinates go in chunks that keep a stacked
forward's largest intermediate under ``_STACK_FLOATS`` floats;
``small_gradcheck_config`` fits in one chunk.

The analytic path backpropagates through softmax in the product form
w * (d_w - w.d_w), which is the Jacobian diag(w) - w w^T applied without
building it, and uses the tanh-GELU derivative, which has its own unit
check (``gelu_grad``).  Relative error uses
|analytic - fd| / max(1, |analytic|, |fd|), so tiny gradients are compared
absolutely and large ones relatively.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

# Tracers patch encode_toy_expert, resample_tokens, adapt_dim and clip_encode
# on this module to time gradcheck's prefix, so all four stay imported here.
from .experts import (
    PERSONAS,
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
    _mean,
    adapt_dim,
    encode_toy_expert,
    resample_tokens,
    rule,
)
from .fusion import (
    FusionStrategy,
    PipelineConfig,
    ProjectorParams,
    _align,
    _align_steps,
    _merge,
    _route,
    gelu_grad,
    mlp,
)
from .router import RouterParams, clip_encode

# The parameters the check differentiates, by name.
CHECKED_PARAMS = (
    "router.weights", "router.bias", "projector.stage1.weights", "projector.stage2.weights"
)


@dataclass(frozen=True)
class GradCheckReport:
    parameter_name: str
    max_rel_error: float
    mean_rel_error: float
    n_coordinates: int
    threshold: float
    passed: bool
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


# Floats in the largest intermediate of one stacked forward: 2 * chunk rows
# (+1 in the router stack's first chunk) of a (T, max(D, H)) activation, or
# of the stacked point itself if larger.
_STACK_FLOATS = 2**21

# The check's stacked forwards, each over its parameters' concatenated values.
_STACKS = (CHECKED_PARAMS[:2], CHECKED_PARAMS[2:3], CHECKED_PARAMS[3:])


class _RoutedChain:
    """Precomputed inputs of a routed pipeline's differentiable tail.

    Expert maps, patches, and cls are constants with respect to the checked
    parameters, so they are computed once by the pipeline's align path (the
    experts on one patch grid share its pixel-major copy); every loss runs
    the pipeline's own route, merge and project kernels on them.
    """

    def __init__(self, image: ImageGrid, config: PipelineConfig):
        kind, k = config.strategy.kind, config.strategy.k
        if kind != "routed":
            raise ValueError(f"gradient check requires routed fusion, config uses {kind!r}")
        if k is not None and k != len(config.experts):
            raise ValueError(
                "gradient check requires soft routing over all experts (k = None or k = N)"
            )
        pairs, pixels = zip(config.experts, _align_steps(config)), {}
        self.z = [_align(encode_toy_expert(image, s, pixels), st, config).values for s, st in pairs]
        clip = clip_encode(image, config.clip_params())
        self.patches, self.cls = clip.patches.values, clip.cls
        self.config = config
        r, s1, s2 = config.router, config.projector.stage1, config.projector.stage2
        self.params = dict(zip(CHECKED_PARAMS, (r.weights, r.bias, s1.weights, s2.weights)))

    def forward(self, params=None) -> tuple:
        """``fusion._route`` -> ``_merge`` -> ``mlp`` over the precomputed
        maps: ``(weights, merged, hidden, act, out)``.  ``params`` replaces
        ``CHECKED_PARAMS`` by name; one stacked as ``(P, *shape)`` adds an
        axis of P forwards, each equal to its unstacked forward bit for bit.
        """
        p, k = {**self.params, **(params or {})}, self.config.strategy.k
        weights, _ = _route(self.cls, p["router.weights"], p["router.bias"], k)
        merged = _merge(self.patches, self.z, weights, "routed")
        s1, s2 = self.config.projector.stage1, self.config.projector.stage2
        w1, w2 = p["projector.stage1.weights"], p["projector.stage2.weights"]
        return (weights, merged, *mlp(merged, w1, s1.bias, w2, s2.bias))

    def analytic_gradients(self, forward) -> dict:
        """Backpropagated from ``forward``, one unstacked forward's
        intermediates at the config's parameters: the router stack's row 0."""
        p = self.params
        w, merged, hidden, act, out = forward
        d_out = 2.0 * out
        d_stage2 = act.T @ d_out
        d_act = d_out @ p["projector.stage2.weights"].T
        d_hidden = d_act * gelu_grad(hidden)
        d_stage1 = merged.T @ d_hidden
        d_merged = d_hidden @ p["projector.stage1.weights"].T
        d_w = np.array([(d_merged * z).sum() for z in self.z])
        d_logits = w * (d_w - float(w @ d_w))
        return dict(zip(CHECKED_PARAMS, (np.outer(self.cls, d_logits), d_logits, d_stage1, d_stage2)))


def check_router_fusion_gradients(
    config: PipelineConfig,
    image: ImageGrid,
    seed: int = 0,
    eps: float = 1e-5,
    threshold: float = 1e-6,
    max_coords_per_param: int | None = None,
) -> list[GradCheckReport]:
    """Compare analytic and central-difference gradients coordinate by
    coordinate for the router and projector weights.

    All coordinates are checked unless ``max_coords_per_param`` (>= 1) caps
    them, in which case a ``seed``-drawn subset is used.  The config must
    route softly over all experts.  A non-finite +eps or -eps loss raises
    ``ValueError`` naming the parameter and coordinate, the first in
    ``CHECKED_PARAMS`` and coordinate order.
    """
    if max_coords_per_param is not None:
        rule(">= 1").check(max_coords_per_param, "max_coords_per_param")
    rule("positive").check(eps, "eps")
    chain = _RoutedChain(image, config)
    base = chain.params
    rng, picked = None, {}
    for name, size in ((n, base[n].size) for n in CHECKED_PARAMS):
        picked[name] = np.arange(size)
        if max_coords_per_param is not None and size > max_coords_per_param:
            rng = rng or np.random.default_rng(seed)
            picked[name] = np.sort(rng.choice(size, size=max_coords_per_param, replace=False))
    tokens, dim = chain.patches.shape
    activation = tokens * max(dim, config.projector.stage1.out_dim)
    fd, row0 = {}, None
    for names in _STACKS:
        offsets = [0, *accumulate(base[n].size for n in names)]
        spans = list(zip(names, offsets, offsets[1:]))
        point = np.concatenate([base[n].ravel() for n in names])
        coords = np.concatenate([lo + picked[n] for n, lo, _ in spans])
        chunk = max(1, _STACK_FLOATS // (2 * max(activation, point.size)))
        grad = np.empty(coords.size)
        for i in range(0, coords.size, chunk):
            # Rows: the point itself in the first forward only (for the
            # analytic pass), then each coordinate raised, then lowered, by eps.
            part, first = coords[i : i + chunk], int(row0 is None)
            n, rows = part.size, np.arange(first, first + part.size)
            stack = np.repeat(point[None], first + 2 * n, axis=0)
            stack[rows, part] += eps
            stack[n + rows, part] -= eps
            params = {m: stack[:, a:b].reshape((-1,) + base[m].shape) for m, a, b in spans}
            with np.errstate(over="ignore", invalid="ignore"):
                forward = chain.forward(params)
                losses = (forward[-1] ** 2).sum(axis=(-2, -1))
            if first:
                row0 = tuple(x[0] for x in forward)
            f_plus, f_minus = losses[first : first + n], losses[first + n :]
            bad = ~(np.isfinite(f_plus) & np.isfinite(f_minus))
            if bad.any():
                c = int(part[np.argmax(bad)])
                name, lo, _ = next(span for span in spans if c < span[2])
                raise ValueError(f"{name}: non-finite loss while perturbing coordinate {c - lo}")
            grad[i : i + n] = (f_plus - f_minus) / (2.0 * eps)
        ends = [0, *accumulate(picked[n].size for n in names)]
        fd.update((n, grad[a:b]) for n, a, b in zip(names, ends, ends[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = chain.analytic_gradients(row0)
    degenerate_router = not any(z.any() for z in chain.z)
    reports = []
    for name in CHECKED_PARAMS:
        a, f = analytic[name].ravel()[picked[name]], fd[name]
        errors = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        worst, degenerate = float(errors.max()), degenerate_router and name.startswith("router.")
        mean = float(_mean(errors, 0))
        reports.append(
            GradCheckReport(name, worst, mean, errors.size, threshold, worst < threshold, degenerate)
        )
    return reports


def small_gradcheck_config(seed: int):
    """A seeded small pipeline (T<=16, D<=8, N<=4) plus a matching image.

    Used by the gradcheck CLI and the verification suite; shapes stay tiny so
    exhaustive coordinate checking is cheap.
    """
    rng = np.random.default_rng(seed)
    n_experts = int(rng.integers(2, 5))
    tokens = int(rng.choice([4, 16]))
    dim = int(rng.choice([4, 8]))
    experts = tuple(
        ToyExpertSpec(
            id=i,
            persona=PERSONAS[int(rng.integers(0, len(PERSONAS)))],
            seed=int(rng.integers(0, 2**31)),
            native_tokens=tokens,
            native_dim=int(rng.choice([6, dim])),
        )
        for i in range(n_experts)
    )
    router = RouterParams(
        rng.normal(scale=0.5, size=(dim, n_experts)), rng.normal(scale=0.1, size=n_experts)
    )
    hidden = int(rng.choice([4, 8]))
    projector = ProjectorParams(
        stage1=LinearAdapter(rng.normal(scale=0.4, size=(dim, hidden)), rng.normal(scale=0.1, size=hidden)),
        stage2=LinearAdapter(rng.normal(scale=0.4, size=(hidden, dim)), rng.normal(scale=0.1, size=dim)),
    )
    config = PipelineConfig(
        experts=experts,
        router=router,
        strategy=FusionStrategy(kind="routed"),
        projector=projector,
        canonical_tokens=tokens,
        canonical_dim=dim,
        clip_seed=int(rng.integers(0, 2**31)),
    )
    side = 4 if tokens == 16 else 2
    size = side * int(rng.choice([2, 4]))
    image = ImageGrid(rng.random((size, size, 3)))
    return config, image
