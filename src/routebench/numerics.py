"""Numerical verification for the routing pipeline.

One harness lives here: a gradient checker that backpropagates a scalar loss
(sum of squared output features) through route -> fuse -> merge -> project
analytically, then compares every parameter coordinate against central finite
differences.  Timing the pipeline is left to perfbench's traced runs.

The checker runs the pipeline's own align path and its one tail forward
(``fusion._tail``, shared with ``run_pipeline`` and eval), so its forward
is byte-equal to ``run_pipeline``.  That forward runs over leading stack
axes, so the finite differences of one parameter run as stacked calls of
it: every +eps and -eps copy of the parameter is one row of a batch, and
each row's loss equals the unbatched loss bit for bit.  Coordinates go in
chunks that keep a stacked call's largest intermediate under
``_STACK_FLOATS`` floats; every parameter of ``small_gradcheck_config``
fits in one chunk.

The analytic path backpropagates through softmax in the product form
w * (d_w - w.d_w), which is the Jacobian diag(w) - w w^T applied without
building it, and uses the tanh-GELU derivative, which has its own unit
check (``gelu_grad``).  Relative error uses
|analytic - fd| / max(1, |analytic|, |fd|), so tiny gradients are compared
absolutely and large ones relatively.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

# Tracers patch encode_toy_expert, resample_tokens, adapt_dim and clip_encode
# on this module to time gradcheck's prefix, so all four stay imported here.
from .experts import (
    PERSONAS,
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
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
# of a (T, max(D, H)) activation, or of the parameter itself if larger.
_STACK_FLOATS = 2**21


def finite_diff_gradient(fn, point: np.ndarray, eps: float = 1e-5, coords=None) -> np.ndarray:
    """Central-difference gradient at ``point`` from one stacked call of ``fn``.

    ``fn`` maps a stack of points shaped ``(B, *point.shape)`` to ``B``
    losses.  For ``n`` differentiated coordinates the stack has ``2n`` rows:
    row ``j`` is ``point`` with the ``j``-th of them raised by ``eps``, row
    ``n + j`` the same coordinate lowered by ``eps``.  The stack holds
    ``2n * point.size`` floats, so callers with large points pass ``coords``
    in chunks.

    With ``coords`` (flat indices into ``point``) only those coordinates are
    differentiated and the result is a vector in ``coords`` order; otherwise
    it is the full gradient, shaped like ``point``.  A non-finite loss names
    the first coordinate, in that order, whose +eps or -eps loss it is.
    """
    point = np.asarray(point, dtype=np.float64)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    flat = point.ravel()
    indices = np.arange(flat.size) if coords is None else np.asarray(coords, dtype=np.intp)
    n = indices.size
    rows = np.arange(n)
    stack = np.tile(flat, (2 * n, 1))
    stack[rows, indices] += eps
    stack[n + rows, indices] -= eps
    losses = np.asarray(fn(stack.reshape((2 * n,) + point.shape)), dtype=np.float64)
    f_plus, f_minus = losses[:n], losses[n:]
    bad = ~(np.isfinite(f_plus) & np.isfinite(f_minus))
    if bad.any():
        raise ValueError(f"non-finite loss while perturbing coordinate {indices[np.argmax(bad)]}")
    grad = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(point.shape) if coords is None else grad


def _rel_error(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return np.abs(analytic - fd) / denom


class _RoutedChain:
    """Precomputed inputs of a routed pipeline's differentiable tail.

    Expert maps, patches, and cls are constants with respect to the checked
    parameters, so they are computed once by the pipeline's align path;
    every loss runs the pipeline's own tail (``fusion._tail``) on them.
    """

    def __init__(self, image: ImageGrid, config: PipelineConfig):
        if config.strategy.kind != "routed":
            raise ValueError(
                f"gradient check requires routed fusion, config uses {config.strategy.kind!r}"
            )
        if config.strategy.k is not None and config.strategy.k != len(config.experts):
            raise ValueError(
                "gradient check requires soft routing over all experts (k = None or k = N)"
            )
        pairs = zip(config.experts, _align_steps(config))
        self.z = [_align(encode_toy_expert(image, s), step, config).values for s, step in pairs]
        clip = clip_encode(image, config.clip_params())
        self.patches = clip.patches.values
        self.cls = clip.cls
        self.config = config

    def maps(self, weights) -> list:
        return self.z

    def loss(self, overrides: dict | None = None):
        """Sum of squared outputs; an override stacked as ``(B, *shape)``
        gives ``B`` losses, one per row."""
        out = _tail(self.cls, self.patches, self.maps, self.config, overrides)[-1]
        return (out**2).sum(axis=(-2, -1))

    def analytic_gradients(self) -> dict:
        p = _tail_params(self.config)
        w, _, _, merged, hidden, act, out = _tail(self.cls, self.patches, self.maps, self.config)
        d_out = 2.0 * out
        d_stage2 = act.T @ d_out
        d_act = d_out @ p["projector.stage2.weights"].T
        d_hidden = d_act * gelu_grad(hidden)
        d_stage1 = merged.T @ d_hidden
        d_merged = d_hidden @ p["projector.stage1.weights"].T
        d_w = np.array([(d_merged * z).sum() for z in self.z])
        d_logits = w * (d_w - float(w @ d_w))
        d_router_w = np.outer(self.cls, d_logits)
        return {
            "router.weights": d_router_w,
            "router.bias": d_logits,
            "projector.stage1.weights": d_stage1,
            "projector.stage2.weights": d_stage2,
        }


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

    All coordinates are checked unless ``max_coords_per_param`` caps them, in
    which case a ``seed``-drawn subset is used.  The config must route softly
    over all experts.
    """
    chain = _RoutedChain(image, config)
    analytic = chain.analytic_gradients()
    degenerate_router = not any(z.any() for z in chain.z)
    tokens, dim = chain.patches.shape
    activation = tokens * max(dim, config.projector.stage1.out_dim)
    rng = np.random.default_rng(seed)
    reports = []
    for name in CHECKED_PARAMS:
        base = _tail_params(config)[name]
        coords = np.arange(base.size)
        if max_coords_per_param is not None and base.size > max_coords_per_param:
            coords = np.sort(rng.choice(base.size, size=max_coords_per_param, replace=False))
        chunk = max(1, _STACK_FLOATS // (2 * max(activation, base.size)))
        fd = np.empty(coords.size)
        try:
            for i in range(0, coords.size, chunk):
                fd[i : i + chunk] = finite_diff_gradient(
                    lambda p: chain.loss({name: p}), base, eps, coords[i : i + chunk]
                )
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        errors = _rel_error(analytic[name].ravel()[coords], fd)
        max_err = float(errors.max())
        reports.append(
            GradCheckReport(
                parameter_name=name,
                max_rel_error=max_err,
                mean_rel_error=float(errors.mean()),
                n_coordinates=int(coords.size),
                threshold=threshold,
                passed=max_err < threshold,
                degenerate=degenerate_router and name.startswith("router."),
            )
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
