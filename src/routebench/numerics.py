"""Numerical verification for the routing pipeline.

One harness lives here: a gradient checker that backpropagates a scalar loss
(sum of squared output features) through route -> fuse -> merge -> project
analytically, then compares every parameter coordinate against central finite
differences.  Timing the pipeline is left to perfbench's traced runs.

The checker runs the pipeline's own align path and its one tail forward
(``fusion._tail``, shared with ``run_pipeline`` and eval), so its forward
is byte-equal to ``run_pipeline``.  That forward runs over leading stack
axes, so the finite differences run as three stacked calls of it
(``_STACKS``): every +eps and -eps copy of the parameters is one row of a
batch, and each row's loss equals the unbatched loss bit for bit.  Router
weights and bias act only through the logits and share one stack, whose
first row is the unperturbed point; the analytic pass backpropagates from
that row's intermediates.  The projector stages keep a stack each: in a
joint one, every stage-2 row would recompute stage 1's GELU.  Coordinates
go in chunks that keep a stacked call's largest intermediate under
``_STACK_FLOATS`` floats; ``small_gradcheck_config`` fits in one chunk.

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
)
from .fusion import (
    TAIL_PARAMS,
    FusionStrategy,
    PipelineConfig,
    ProjectorParams,
    _align,
    _align_steps,
    _tail,
    _tail_params,
    gelu_grad,
)
from .router import RouterParams, clip_encode

CHECKED_PARAMS = TAIL_PARAMS


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


# Floats in the largest intermediate of one stacked loss call: 2 * chunk rows
# (+1 in the router stack's first chunk) of a (T, max(D, H)) activation, or
# of the stacked point itself if larger.
_STACK_FLOATS = 2**21

# The check's stacked forwards, each over its parameters' concatenated values.
_STACKS = (TAIL_PARAMS[:2], TAIL_PARAMS[2:3], TAIL_PARAMS[3:])


class NonFiniteLoss(ValueError):
    """The +eps or -eps loss at flat index ``coordinate`` is not finite."""

    def __init__(self, coordinate: int):
        super().__init__(f"non-finite loss while perturbing coordinate {coordinate}")
        self.coordinate = coordinate


def finite_diff_gradient(fn, point: np.ndarray, eps: float = 1e-5, coords=None, with_point=False):
    """Central-difference gradient at ``point`` from one stacked call of ``fn``.

    ``fn`` maps a stack of points shaped ``(B, *point.shape)`` to ``B``
    losses.  For ``n`` differentiated coordinates the stack has ``2n`` rows:
    row ``j`` is ``point`` with the ``j``-th of them raised by ``eps``, row
    ``n + j`` the same coordinate lowered by ``eps``.  ``with_point`` puts
    ``point`` itself first, as an extra row 0 whose loss goes unused, for an
    ``fn`` that keeps its intermediates.  The stack holds ``2n * point.size``
    floats, so callers with large points pass ``coords`` in chunks.

    With ``coords`` (flat indices into ``point``, each in range) only those
    coordinates are differentiated and the result is a vector in ``coords``
    order; otherwise it is the full gradient, shaped like ``point``.  A
    non-finite loss raises :class:`NonFiniteLoss` for the first coordinate,
    in that order, whose +eps or -eps loss it is.
    """
    point = np.asarray(point, dtype=np.float64)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    flat = point.ravel()
    indices = np.arange(flat.size) if coords is None else np.asarray(coords, dtype=np.intp)
    outside = indices[(indices < 0) | (indices >= flat.size)]
    if outside.size:
        raise ValueError(f"coordinate {outside[0]} is out of range for a point of {flat.size}")
    n, first = indices.size, int(with_point)
    rows = np.arange(first, first + n)
    stack = np.repeat(flat[None], first + 2 * n, axis=0)
    stack[rows, indices] += eps
    stack[n + rows, indices] -= eps
    losses = np.asarray(fn(stack.reshape((first + 2 * n,) + point.shape)), dtype=np.float64)
    f_plus, f_minus = losses[first : first + n], losses[first + n :]
    bad = ~(np.isfinite(f_plus) & np.isfinite(f_minus))
    if bad.any():
        raise NonFiniteLoss(int(indices[np.argmax(bad)]))
    grad = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(point.shape) if coords is None else grad


class _RoutedChain:
    """Precomputed inputs of a routed pipeline's differentiable tail.

    Expert maps, patches, and cls are constants with respect to the checked
    parameters, so they are computed once by the pipeline's align path (the
    experts on one patch grid share its pixel-major copy); every loss runs
    the pipeline's own tail (``fusion._tail``) on them.
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

    def maps(self, weights) -> list:
        return self.z

    def analytic_gradients(self, tail=None) -> dict:
        """Backpropagated from ``tail``, one unstacked forward's intermediates
        at the config's parameters (by default a new forward)."""
        p = _tail_params(self.config)
        tail = tail or _tail(self.cls, self.patches, self.maps, self.config)
        w, _, _, merged, hidden, act, out = tail
        d_out = 2.0 * out
        d_stage2 = act.T @ d_out
        d_act = d_out @ p["projector.stage2.weights"].T
        d_hidden = d_act * gelu_grad(hidden)
        d_stage1 = merged.T @ d_hidden
        d_merged = d_hidden @ p["projector.stage1.weights"].T
        d_w = np.array([(d_merged * z).sum() for z in self.z])
        d_logits = w * (d_w - float(w @ d_w))
        return dict(zip(TAIL_PARAMS, (np.outer(self.cls, d_logits), d_logits, d_stage1, d_stage2)))


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
    route softly over all experts.  A non-finite loss raises ``ValueError``
    naming the parameter and coordinate, router weights before bias.
    """
    if max_coords_per_param is not None and max_coords_per_param < 1:
        raise ValueError(f"max_coords_per_param must be >= 1, got {max_coords_per_param}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    chain, base = _RoutedChain(image, config), _tail_params(config)
    rng, picked = None, {}
    for name, size in ((n, base[n].size) for n in CHECKED_PARAMS):
        picked[name] = np.arange(size)
        if max_coords_per_param is not None and size > max_coords_per_param:
            rng = rng or np.random.default_rng(seed)
            picked[name] = np.sort(rng.choice(size, size=max_coords_per_param, replace=False))
    tokens, dim = chain.patches.shape
    activation = tokens * max(dim, config.projector.stage1.out_dim)
    fd, row0 = {}, []
    for names in _STACKS:
        offsets = [0, *accumulate(base[n].size for n in names)]
        spans = list(zip(names, offsets, offsets[1:]))
        point = np.concatenate([base[n].ravel() for n in names])
        coords = np.concatenate([lo + picked[n] for n, lo, _ in spans])
        chunk = max(1, _STACK_FLOATS // (2 * max(activation, point.size)))
        grad = np.empty(coords.size)

        def losses(stack):
            params = {n: stack[:, a:b].reshape((-1,) + base[n].shape) for n, a, b in spans}
            tail = _tail(chain.cls, chain.patches, chain.maps, config, params)
            if not row0:  # the first call, whose row 0 is the unperturbed point
                row0.extend(None if x is None else x[0] for x in tail)
            return (tail[-1] ** 2).sum(axis=(-2, -1))

        try:
            for i in range(0, coords.size, chunk):
                grad[i : i + chunk] = finite_diff_gradient(
                    losses, point, eps, coords[i : i + chunk], with_point=not row0
                )
        except NonFiniteLoss as exc:
            name, lo, _ = next(span for span in spans if exc.coordinate < span[2])
            raise ValueError(f"{name}: {NonFiniteLoss(exc.coordinate - lo)}") from exc
        ends = [0, *accumulate(picked[n].size for n in names)]
        fd.update((n, grad[a:b]) for n, a, b in zip(names, ends, ends[1:]))
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
