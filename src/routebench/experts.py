"""Toy expert encoders and the feature plumbing they share.

Every expert turns an image into a token grid of feature vectors.  An expert
is described by a :class:`ToyExpertSpec`: a persona naming the statistic it
extracts, a seed for the personas that need one, and the native token/feature
geometry it produces.  Personas are cheap, deterministic functions of the
pixels; they stand in for heavyweight pretrained encoders while keeping the
signal each one extracts distinct and testable:

* ``global-context``: per-patch channel means at patch, quadrant, and whole
  image scale.
* ``color-histogram``: per-patch 8-bin channel histograms, mean-centered
  across tokens so uniform backgrounds cancel.
* ``edge-shape``: per-patch mean absolute horizontal/vertical pixel
  differences.
* ``patch-statistics``: per-patch channel means followed by channel
  variances.
* ``text-stripe``: per-patch high-frequency vertical stripe energy, the kind
  of signal printed text leaves behind.
* ``random-projection``: a seeded fixed Gaussian projection of raw patch
  pixels.

Feature maps can be resampled to another square token grid (area pooling on
the way down, bilinear interpolation on the way up) and linearly adapted to
another feature width, so any expert can be aligned to a shared geometry.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

CHANNELS = 3
HISTOGRAM_BINS = 8

PERSONAS = (
    "global-context",
    "color-histogram",
    "edge-shape",
    "patch-statistics",
    "text-stripe",
    "random-projection",
)

# Raw descriptor width per persona, before tiling to native_dim.
# random-projection emits native_dim directly and has no fixed raw width.
_RAW_WIDTHS = {
    "global-context": 3 * CHANNELS,
    "color-histogram": CHANNELS * HISTOGRAM_BINS,
    "edge-shape": 2 * CHANNELS,
    "patch-statistics": 2 * CHANNELS,
    "text-stripe": 2 * CHANNELS,
}


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """An image as a (height, width, 3) float array with values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != CHANNELS:
            raise ValueError(
                f"image must have shape (height, width, {CHANNELS}), got {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must contain at least one pixel")
        if not np.isfinite(arr).all():
            raise ValueError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """A (tokens, dim) grid of feature vectors plus a source tag.

    ``source`` records where the map came from: the stringified expert id,
    ``"clip-patch"`` for base patch features, or ``"fused"`` downstream of
    fusion.
    """

    values: np.ndarray
    source: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"feature map must be 2-D and non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def tokens(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _unchecked(cls, **fields):
    """A frozen dataclass built without its ``__post_init__`` checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Rule:
    """What a value must be, in words ``must be <text>``: ``test(value)``
    holds, and ``ok(value)`` tells whether; a value of a type the test cannot
    take fails.  ``edges`` pairs each boundary value it accepts with the
    nearest value it rejects."""

    text: str
    test: Callable
    edges: tuple

    def ok(self, value) -> bool:
        try:
            return self.test(value)
        except (AttributeError, TypeError):
            return False

    def message(self, value) -> str:
        """``must be <text>, got <value>``: a number bare, a string quoted."""
        return f"must be {self.text}, got {repr(value) if isinstance(value, str) else value}"

    def check(self, value, name: str):
        """``value``; ``ValueError("<name> must be <text>, got <value>")``
        unless ``ok(value)``."""
        if not self.ok(value):
            raise ValueError(f"{name} {self.message(value)}")
        return value


_TOP, _TINY, _BELOW_ONE = math.nextafter(math.inf, 0.0), math.ulp(0.0), math.nextafter(1.0, 0.0)
_RULES = {
    ">= 0": (lambda v: v >= 0, ((0, -1),)),
    ">= 1": (lambda v: v >= 1, ((1, 0),)),
    "finite": (math.isfinite, ((_TOP, math.inf), (-_TOP, -math.inf))),
    "positive": (lambda v: v > 0, ((_TINY, 0.0),)),
    "finite and positive": (lambda v: 0 < v < math.inf, ((_TINY, 0.0), (_TOP, math.inf))),
    "finite and >= 1": (lambda v: 1 <= v < math.inf, ((1.0, _BELOW_ONE), (_TOP, math.inf))),
    # A string with a character that is not white space.
    "non-blank": (lambda v: v.strip() != "", (("a", ""), ("a", " \n"))),
    # A CSV field: a comma or any line break str.splitlines splits at ends it.
    "non-empty without commas or line breaks": (
        lambda v: "," not in v and v.splitlines() == [v],
        (("a", ""), ("a", "a,"), ("a", "a\r"), ("a", "a\u2028")),
    ),
}


@functools.lru_cache(maxsize=64)
def rule(text: str, choices: tuple = ()) -> Rule:
    """The rule ``text`` names: a key of ``_RULES``, ``in [a, b]`` (which NaN
    fails) or ``one of`` the ``choices``, whose edges swap their case."""
    if text == "one of":
        *rest, last = map(repr, choices)
        edges = tuple((c, c.swapcase()) for c in choices)
        return Rule(f"one of {', '.join(rest)} or {last}", choices.__contains__, edges)
    if text.startswith("in ["):
        lo, hi = map(float, text[4:-1].split(","))
        edges = ((lo, math.nextafter(lo, -math.inf)), (hi, math.nextafter(hi, math.inf)))
        return Rule(text, lambda v: lo <= v <= hi, edges)
    return Rule(text, *_RULES[text])


def ruled(text: str, choices: tuple = (), **kwargs):
    """A dataclass field that :func:`check_rules` holds to ``rule(text, choices)``."""
    return field(metadata={"rule": rule(text, choices)}, **kwargs)


@functools.cache
def _field_table(cls, ruled_only: bool = False) -> tuple:
    """``(name, rule, kind, optional)`` of each field of ``cls`` (or each
    ruled one) in field order: its rule (None without one), the JSON type
    its annotation names (see :func:`json_fields`) and whether its default
    is None."""
    return tuple(
        (f.name, f.metadata.get("rule"), _JSON_TYPES.get(f.type), f.default is None)
        for f in fields(cls)
        if "rule" in f.metadata or not ruled_only
    )


def check_rules(obj) -> None:
    """:meth:`Rule.check` each ruled field of the dataclass ``obj``, in field
    order; an optional field is unset at None, which is not checked."""
    for name, field_rule, _, optional in _field_table(type(obj), True):
        value = getattr(obj, name)
        if not (optional and value is None or field_rule.ok(value)):
            field_rule.check(value, name)


@dataclass(frozen=True)
class ToyExpertSpec:
    """Identity and geometry of one toy expert encoder."""

    id: int = ruled(">= 0")
    persona: str = ruled("one of", PERSONAS)
    seed: int = ruled(">= 0")
    native_tokens: int
    native_dim: int = ruled(">= 1")

    def __post_init__(self):
        check_rules(self)
        _grid_side(self.native_tokens, "native_tokens")


_JSON_KINDS = {str: "string", int: "integer", float: "number", bool: "boolean", list: "array"}
# The annotations (strings, under postponed evaluation) that name a JSON type.
_JSON_TYPES = {a: k for k in _JSON_KINDS for a in (k.__name__, f"Optional[{k.__name__}]")}


def json_field(doc, key: str, kind: type):
    """``doc[key]`` if it already has the JSON type ``kind`` (str, int,
    float, bool or list), else ``ValueError``; nothing is cast.

    A bool is not an int, and only a float field takes a JSON integer, which
    it returns as a float.  Every document loader reads its scalars here.
    """
    value = doc[key]
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return _json_float(value, key)
    raise ValueError(f"{key} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")


def _json_float(value, name: str) -> float:
    """``float(value)``; an integer too large for a float is a ``ValueError``."""
    try:
        return float(value)
    except OverflowError:
        size = len(str(abs(value)))
        raise ValueError(f"{name} must be within float range, got a {size}-digit integer") from None


def check_known_keys(known, doc: dict, what: str) -> None:
    """``ValueError`` unless ``doc`` is a JSON object whose keys are all in
    ``known`` (a dataclass's ``__dataclass_fields__``, say); the message
    names the other keys."""
    if type(doc) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    unknown = doc.keys() - known
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def json_fields(cls, doc, what: str) -> dict:
    """The fields of the dataclass ``cls`` in the JSON object ``doc``, for
    ``cls(**...)``, after :func:`check_known_keys`.  A field annotated
    ``str``, ``int``, ``float``, ``bool`` or ``list`` (or ``Optional`` of
    one) is read by :func:`json_field`, any other is passed on as it is; a
    field whose default is None may be absent or null, and is then left out."""
    check_known_keys(cls.__dataclass_fields__, doc, what)
    return {
        name: doc[name] if kind is None else json_field(doc, name, kind)
        for name, _, kind, optional in _field_table(cls)
        if not (optional and doc.get(name) is None)
    }


@dataclass(frozen=True, eq=False)
class LinearAdapter:
    """A dense affine map applied per token: ``row @ weights + bias``."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"adapter weights must be 2-D and non-empty, got shape {w.shape}")
        if b.shape != (w.shape[1],):
            raise ValueError(
                f"adapter bias shape {b.shape} does not match output width {w.shape[1]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("adapter parameters contain non-finite values")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    # The flat-weights document: both widths under the caller's keys, then
    # row-major weights and the bias, and no other key.  Subclasses name the
    # widths differently.
    def _to_json_dict(self, in_key: str = "in_dim", out_key: str = "out_dim") -> dict:
        return {
            in_key: self.in_dim,
            out_key: self.out_dim,
            "weights": self.weights.ravel().tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def _from_json_dict(cls, doc, what: str, in_key: str = "in_dim", out_key: str = "out_dim"):
        check_known_keys((in_key, out_key, "weights", "bias"), doc, what)
        try:
            rows = json_field(doc, in_key, int)
            cols = json_field(doc, out_key, int)
            arrays = doc["weights"], doc["bias"]
            # The array form of json_field's rule: numbers only, a bool is not one.
            if not all(type(a) is list and set(map(type, a)) <= {int, float} for a in arrays):
                raise ValueError("weights and bias must be JSON arrays of numbers")
            try:
                weights, bias = (np.array(a, dtype=np.float64) for a in arrays)
            except OverflowError:
                # Name the first entry too large for a float, as json_field would.
                for key, a in zip(("weights", "bias"), arrays):
                    for i, value in enumerate(a):
                        _json_float(value, f"{key}[{i}]")
                raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed {what}: {exc}") from exc
        if weights.size != rows * cols:
            raise ValueError(
                f"{what}: weights length {weights.size} does not match "
                f"{in_key}*{out_key} = {rows * cols}"
            )
        return cls(weights.reshape(rows, cols), bias)


def identity_adapter(dim: int) -> LinearAdapter:
    return LinearAdapter(np.eye(dim), np.zeros(dim))


def seeded_adapter(in_dim: int, out_dim: int, seed: int) -> LinearAdapter:
    """Uniform init in [-1/sqrt(in_dim), 1/sqrt(in_dim)] with zero bias."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 / math.sqrt(in_dim)
    return LinearAdapter(rng.uniform(-bound, bound, size=(in_dim, out_dim)), np.zeros(out_dim))


def _grid_side(tokens: int, what: str) -> int:
    if tokens < 1:
        raise ValueError(f"{what} must be positive, got {tokens}")
    side = math.isqrt(tokens)
    if side * side != tokens:
        raise ValueError(f"{what} must be a perfect square, got {tokens}")
    return side


_PIXEL = np.dtype((np.void, CHANNELS * np.dtype(np.float64).itemsize))


def _patch_grid(image: ImageGrid, side: int) -> np.ndarray:
    """The image as a (side, patch_h, side, patch_w, channels) view."""
    h, w = image.height, image.width
    if h % side != 0 or w % side != 0:
        raise ValueError(
            f"{h}x{w} image cannot be divided into a {side}x{side} token grid"
        )
    return image.data.reshape(side, h // side, side, w // side, CHANNELS)


def _patch_view(image: ImageGrid, side: int) -> np.ndarray:
    """Split the image into a side x side grid of equal patches.

    Returns an array of shape (side*side, patch_h, patch_w, channels) with
    tokens in row-major grid order.
    """
    v = _patch_grid(image, side)
    ph, pw = v.shape[1], v.shape[3]
    return v.transpose(0, 2, 1, 3, 4).reshape(side * side, ph, pw, CHANNELS)


def _pixel_major(image: ImageGrid, side: int) -> np.ndarray:
    """The patches of :func:`_patch_view` as a contiguous (patch_h, patch_w,
    side*side, channels) array.

    Each in-patch pixel position is one contiguous row holding that pixel of
    every token, so reducing over the two leading axes adds whole rows, in the
    same pixel order (and so with the same rounding) as reducing the
    token-major view over its patch axes one 3-channel pixel at a time.
    """
    v = _patch_grid(image, side)
    ph, pw = v.shape[1], v.shape[3]
    # Copied as one 24-byte item per pixel: the transposing copy then moves
    # whole pixels instead of one 3-value run per pixel.
    pixels = np.ascontiguousarray(v).view(_PIXEL).reshape(side, ph, side, pw)
    moved = np.ascontiguousarray(pixels.transpose(1, 3, 0, 2))
    moved.setflags(write=False)  # shared by every persona that reads this image
    return moved.view(np.float64).reshape(ph, pw, side * side, CHANNELS)


def _mean(a: np.ndarray, axis) -> np.ndarray:
    """``a.mean(axis)`` of float64 ``a`` bit for bit (numpy's own reduce and
    division by the count) without its Python wrapper; kept axes non-empty."""
    total = np.add.reduce(a, axis)
    return total / (a.size // total.size)


# Pixel persona kernels: each maps a pixel-major (patch_h, patch_w, T, C)
# array to a (T, raw width) descriptor; the color histogram takes the image.


def _raw_global_context(pixels: np.ndarray, side: int) -> np.ndarray:
    local = _mean(pixels, (0, 1))  # (T, C)
    grid = local.reshape(side, side, CHANNELS)
    # Grid row or column i lies in the first half of the quadrant split when
    # 2*i < side.  A quadrant's mean adds its tokens in row-major order.
    half = (side + 1) // 2
    quads = np.empty_like(grid)
    for rows in (slice(0, half), slice(half, side)):
        for cols in (slice(0, half), slice(half, side)):
            block = grid[rows, cols]
            if block.size:
                quads[rows, cols] = _mean(block, (0, 1))
    overall = np.broadcast_to(_mean(local, 0), local.shape)
    return np.concatenate([local, quads.reshape(side * side, CHANNELS), overall], axis=1)


@functools.lru_cache(maxsize=8)
def _histogram_offsets(pw: int, side: int) -> np.ndarray:
    """Slot offsets ``(k*C + c)*BINS`` of channel c of each pixel of one
    image row in token k, one row per token row: shape ``(side, 1, w*C)``,
    broadcast over the rows of each patch.  Read-only, since calls share it.

    A whole (h, w, C) map adds a few microseconds faster at 64x64 but
    holds 3.5 MB at 384x384; cached, it made glibc trim and refill the heap
    around paper-geometry images, up to 1,600 more page faults per image.
    Adding row, column and channel offsets separately is slower: those
    inner loops run over 3 elements.  The bins share the dtype: int16, which
    is cheaper, while every slot fits (up to 36x36 tokens), else intp.
    """
    token = np.arange(side)[:, None] * side + np.arange(side * pw) // pw
    offsets = (token[:, :, None] * CHANNELS + np.arange(CHANNELS)) * HISTOGRAM_BINS
    dtype = np.int16 if side * side * CHANNELS * HISTOGRAM_BINS <= 1 << 15 else np.intp
    offsets = offsets.reshape(side, 1, -1).astype(dtype)
    offsets.setflags(write=False)
    return offsets


def _raw_color_histogram(image: ImageGrid, side: int) -> np.ndarray:
    """Binned straight from the image: the counts are integers, so the
    pixel order does not matter and no pixel-major copy is needed."""
    _, ph, _, pw, _ = _patch_grid(image, side).shape
    t = side * side
    offsets = _histogram_offsets(pw, side)
    bins = (image.data * HISTOGRAM_BINS).astype(offsets.dtype)
    # Bin b of channel c in token k counts into slot (k*C + c)*BINS + b, so one
    # bincount fills the (T, C*BINS) table in output column order.  A pixel of
    # 1.0 lands in the top bin; clamping against an array, not the scalar,
    # took 1.1 us instead of 6.9 at 64x64 (numpy 2.4's int16 minimum).
    bands = bins.reshape(side, ph, -1)  # a view: the fresh bins are contiguous
    bands += offsets
    np.minimum(bands, offsets + (HISTOGRAM_BINS - 1), out=bands)
    counts = np.bincount(bins.ravel(), minlength=t * CHANNELS * HISTOGRAM_BINS)
    out = counts.reshape(t, CHANNELS * HISTOGRAM_BINS) / (ph * pw)
    # Center across tokens: a color only counts where it deviates from the
    # image-wide average, so uniform backgrounds contribute nothing.
    return out - _mean(out, 0)


def _raw_edge_shape(pixels: np.ndarray, side: int) -> np.ndarray:
    t = pixels.shape[2]
    dx = np.abs(pixels[:, 1:] - pixels[:, :-1])
    dy = np.abs(pixels[1:] - pixels[:-1])
    fx = _mean(dx, (0, 1)) if dx.size else np.zeros((t, CHANNELS))
    fy = _mean(dy, (0, 1)) if dy.size else np.zeros((t, CHANNELS))
    return np.concatenate([fx, fy], axis=1)


def _raw_patch_statistics(pixels: np.ndarray, side: int) -> np.ndarray:
    means = _mean(pixels, (0, 1))
    dev = pixels - means  # np.var's own steps, from this same mean
    return np.concatenate([means, _mean(dev * dev, (0, 1))], axis=1)


def _raw_text_stripe(pixels: np.ndarray, side: int) -> np.ndarray:
    _, pw, t, _ = pixels.shape
    if pw < 2:
        return np.zeros((t, 2 * CHANNELS))
    col_means = _mean(pixels, 0)  # (pw, T, C)
    d = col_means[1:] - col_means[:-1]  # (pw-1, T, C)
    signs = (-1.0) ** np.arange(pw - 1)
    # Alternating column differences reinforce for 1-pixel stripes and cancel
    # for smooth gradients; built from differences so flat patches are exactly
    # zero.
    alternating = np.abs((d * signs[:, None, None]).sum(axis=0)) / pw
    energy = _mean(np.abs(d), 0)
    return np.concatenate([alternating, energy], axis=1)


_RAW_PERSONAS = {
    "global-context": _raw_global_context,
    "edge-shape": _raw_edge_shape,
    "patch-statistics": _raw_patch_statistics,
    "text-stripe": _raw_text_stripe,
}


def tile_columns(raw: np.ndarray, dim: int) -> np.ndarray:
    """Repeat the columns of ``raw`` cyclically out to ``dim`` columns.

    ``raw`` itself, not a copy, comes back when it already has ``dim``
    columns.
    """
    if raw.shape[1] == dim:
        return raw
    return raw[:, np.arange(dim) % raw.shape[1]]


def descriptor_width(spec: ToyExpertSpec) -> int:
    """How many leading columns of the expert's output are distinct.

    Every later column repeats them cyclically, so ``tile_columns`` of the
    leading block rebuilds the whole output.
    """
    return min(_RAW_WIDTHS.get(spec.persona, spec.native_dim), spec.native_dim)


def fold_tiled_rows(weights: np.ndarray, width: int) -> np.ndarray:
    """Sum the rows of ``weights`` by their index modulo ``width``.

    For an ``n``-row ``weights`` and ``width = min(raw.shape[1], n)``,
    ``tile_columns(raw, n) @ weights`` equals ``raw[:, :width] @
    fold_tiled_rows(weights, width)`` up to summation order.
    """
    folded = weights[:width].copy()
    for start in range(width, weights.shape[0], width):
        block = weights[start : start + width]
        folded[: block.shape[0]] += block
    return folded


@functools.lru_cache(maxsize=8)
def _gaussian_projection(seed: int, rows: int, cols: int) -> np.ndarray:
    """The seeded ``random-projection`` matrix, scaled by 1/rows.

    Memoized because it depends only on its arguments and drawing it costs
    more than applying it; the array is read-only since callers share it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    proj = rng.standard_normal((rows, cols)) / rows
    proj.setflags(write=False)
    return proj


def encode_toy_expert(image: ImageGrid, spec: ToyExpertSpec, pixels=None) -> FeatureMap:
    """Encode an image with one toy expert.

    The image must divide evenly into the expert's native token grid.  The
    persona's raw descriptor is tiled cyclically to ``native_dim`` columns
    (``random-projection`` projects straight to ``native_dim`` instead).
    ``pixels``, a dict keyed by patch side, shares the pixel-major copy of
    this one image between calls; the personas only read it.
    ``color-histogram`` bins the image itself and makes no copy.
    """
    side = _grid_side(spec.native_tokens, "native_tokens")
    if spec.persona == "random-projection":
        # Token-major flattening fixes which Gaussian row meets which pixel.
        patches = _patch_view(image, side)
        flat = patches.reshape(patches.shape[0], -1)
        values = flat @ _gaussian_projection(spec.seed, flat.shape[1], spec.native_dim)
    elif spec.persona == "color-histogram":
        values = tile_columns(_raw_color_histogram(image, side), spec.native_dim)
    else:
        pixels = {} if pixels is None else pixels
        if side not in pixels:
            pixels[side] = _pixel_major(image, side)
        raw = _RAW_PERSONAS[spec.persona](pixels[side], side)
        values = tile_columns(raw, spec.native_dim)
    # A validated image gives finite, non-empty output.
    return _unchecked(FeatureMap, values=np.ascontiguousarray(values), source=str(spec.id))


def _pool_axis0(arr: np.ndarray, n_out: int) -> np.ndarray:
    """Area-average pooling along axis 0 with exact fractional overlaps.

    Written as base + weighted offsets so constant inputs come back bit-exact.
    """
    n_in = arr.shape[0]
    scale = n_in / n_out
    out = np.empty((n_out,) + arr.shape[1:])
    for i in range(n_out):
        lo = i * scale
        hi = (i + 1) * scale
        j0 = min(int(lo), n_in - 1)
        j1 = min(int(math.ceil(hi)), n_in)
        base = arr[j0]
        acc = np.zeros_like(base)
        total = 0.0
        for j in range(j0, j1):
            w = min(hi, j + 1.0) - max(lo, float(j))
            total += w
            acc += w * (arr[j] - base)
        out[i] = base + acc / total
    return out


@functools.lru_cache(maxsize=16)
def _lerp_plan(n_in: int, n_out: int) -> tuple:
    """Source indices ``j``, ``j + 1`` (clamped) and weights ``t`` of linear
    interpolation from ``n_in`` to ``n_out`` samples with half-pixel sample
    centers; read-only, since calls share them."""
    xs = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    xs = np.clip(xs, 0.0, n_in - 1.0)
    j = xs.astype(np.int64)
    jn = np.minimum(j + 1, n_in - 1)
    t = xs - j
    for arr in (j, jn, t):
        arr.setflags(write=False)
    return j, jn, t


def _lerp(arr: np.ndarray, j, jn, t, axis: int) -> np.ndarray:
    """``a + t*(b - a)`` for ``a``, ``b`` the entries ``j``, ``jn`` of ``arr``
    along ``axis``, evaluated in place in the gathered ``b``; the lerp form
    reproduces constant inputs exactly."""
    # The indices are in range; mode "raise" would check them and buffer out.
    a = np.take(arr, j, axis=axis, mode="clip")
    out = np.take(arr, jn, axis=axis, mode="clip")
    out -= a
    out *= t.reshape(t.shape + (1,) * (arr.ndim - 1 - axis))
    out += a
    return out


def _upsample(grid: np.ndarray, dst: int) -> np.ndarray:
    """Bilinear upsampling of a (src, src, dim) grid to (dst, dst, dim): rows
    first, then columns."""
    j, jn, t = _lerp_plan(grid.shape[0], dst)
    return _lerp(_lerp(grid, j, jn, t, 0), j, jn, t, 1)


def resample_tokens(fm: FeatureMap, target_tokens: int) -> FeatureMap:
    """Resample a square token grid to another square size.

    Downscaling uses area-average pooling (mean preserving for integer
    factors); upscaling uses bilinear interpolation, rows then columns.
    Constant maps are reproduced exactly in both directions.
    """
    src = _grid_side(fm.tokens, "feature map token count")
    dst = _grid_side(target_tokens, "target token count")
    if src == dst:
        return FeatureMap(fm.values.copy(), fm.source)
    grid = fm.values.reshape(src, src, fm.dim)
    if dst > src:
        return FeatureMap(_upsample(grid, dst).reshape(dst * dst, fm.dim), fm.source)
    grid = _pool_axis0(grid, dst)
    grid = np.swapaxes(_pool_axis0(np.swapaxes(grid, 0, 1), dst), 0, 1)
    return FeatureMap(np.ascontiguousarray(grid.reshape(dst * dst, fm.dim)), fm.source)


def adapt_dim(fm: FeatureMap, adapter: LinearAdapter) -> FeatureMap:
    """Map every token through the adapter's affine transform."""
    if adapter.in_dim != fm.dim:
        raise ValueError(
            f"adapter expects {adapter.in_dim} input features, feature map has {fm.dim}"
        )
    out = fm.values @ adapter.weights
    out += adapter.bias  # in place: the product is a fresh array
    return FeatureMap(out, fm.source)


_RAW_HEADER = struct.Struct("<III")


def save_raw_image(image: ImageGrid, path) -> None:
    """Write the raw binary image format.

    Layout: 12-byte header of little-endian uint32 (width, height, channels)
    followed by height*width*channels little-endian float32 values in
    row-major pixel order.
    """
    payload = image.data.astype("<f4").tobytes()
    Path(path).write_bytes(
        _RAW_HEADER.pack(image.width, image.height, image.channels) + payload
    )


def load_raw_image(path) -> ImageGrid:
    """Read the raw binary image format; see :func:`save_raw_image`."""
    raw = Path(path).read_bytes()
    if len(raw) < _RAW_HEADER.size:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    width, height, channels = _RAW_HEADER.unpack_from(raw)
    if channels != CHANNELS:
        raise ValueError(f"{path}: expected {CHANNELS} channels, header says {channels}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    expected = _RAW_HEADER.size + width * height * channels * 4
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {width}x{height}x{channels}, got {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_RAW_HEADER.size).astype(np.float64)
    try:
        return ImageGrid(values.reshape(height, width, channels))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
