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
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class ToyExpertSpec:
    """Identity and geometry of one toy expert encoder."""

    id: int
    persona: str
    seed: int
    native_tokens: int
    native_dim: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"expert id must be non-negative, got {self.id}")
        if self.persona not in PERSONAS:
            raise ValueError(
                f"unknown persona {self.persona!r}; valid personas: {', '.join(PERSONAS)}"
            )
        _grid_side(self.native_tokens, "native_tokens")
        if self.native_dim < 1:
            raise ValueError(f"native_dim must be positive, got {self.native_dim}")


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
    # row-major weights and the bias.  Subclasses name the widths differently.
    def _to_json_dict(self, in_key: str = "in_dim", out_key: str = "out_dim") -> dict:
        return {
            in_key: self.in_dim,
            out_key: self.out_dim,
            "weights": self.weights.ravel().tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def _from_json_dict(cls, doc, what: str, in_key: str = "in_dim", out_key: str = "out_dim"):
        try:
            rows = int(doc[in_key])
            cols = int(doc[out_key])
            weights = np.asarray(doc["weights"], dtype=np.float64)
            bias = np.asarray(doc["bias"], dtype=np.float64)
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
    return moved.view(np.float64).reshape(ph, pw, side * side, CHANNELS)


# Pixel persona kernels: each maps a pixel-major (patch_h, patch_w, T, C)
# array to a (T, raw width) descriptor.


def _raw_global_context(pixels: np.ndarray, side: int) -> np.ndarray:
    local = pixels.mean(axis=(0, 1))  # (T, C)
    grid = local.reshape(side, side, CHANNELS)
    # Grid row or column i lies in the first half of the quadrant split when
    # 2*i < side.  A quadrant's mean adds its tokens in row-major order.
    half = (side + 1) // 2
    quads = np.empty_like(grid)
    for rows in (slice(0, half), slice(half, side)):
        for cols in (slice(0, half), slice(half, side)):
            block = grid[rows, cols]
            if block.size:
                quads[rows, cols] = block.mean(axis=(0, 1))
    overall = np.broadcast_to(local.mean(axis=0), local.shape)
    return np.concatenate([local, quads.reshape(side * side, CHANNELS), overall], axis=1)


def _raw_color_histogram(pixels: np.ndarray, side: int) -> np.ndarray:
    ph, pw, t, _ = pixels.shape
    bins = (pixels * HISTOGRAM_BINS).astype(np.intp)
    np.minimum(bins, HISTOGRAM_BINS - 1, out=bins)
    # Bin b of channel c in token k counts into slot (k*C + c)*BINS + b, so one
    # bincount fills the (T, C*BINS) table in output column order.
    bins += np.arange(t * CHANNELS).reshape(t, CHANNELS) * HISTOGRAM_BINS
    counts = np.bincount(bins.ravel(), minlength=t * CHANNELS * HISTOGRAM_BINS)
    out = counts.reshape(t, CHANNELS * HISTOGRAM_BINS) / (ph * pw)
    # Center across tokens: a color only counts where it deviates from the
    # image-wide average, so uniform backgrounds contribute nothing.
    return out - out.mean(axis=0, keepdims=True)


def _raw_edge_shape(pixels: np.ndarray, side: int) -> np.ndarray:
    t = pixels.shape[2]
    dx = np.abs(np.diff(pixels, axis=1))
    dy = np.abs(np.diff(pixels, axis=0))
    fx = dx.mean(axis=(0, 1)) if dx.size else np.zeros((t, CHANNELS))
    fy = dy.mean(axis=(0, 1)) if dy.size else np.zeros((t, CHANNELS))
    return np.concatenate([fx, fy], axis=1)


def _raw_patch_statistics(pixels: np.ndarray, side: int) -> np.ndarray:
    means = pixels.mean(axis=(0, 1))
    variances = pixels.var(axis=(0, 1))
    return np.concatenate([means, variances], axis=1)


def _raw_text_stripe(pixels: np.ndarray, side: int) -> np.ndarray:
    _, pw, t, _ = pixels.shape
    if pw < 2:
        return np.zeros((t, 2 * CHANNELS))
    col_means = pixels.mean(axis=0)  # (pw, T, C)
    d = np.diff(col_means, axis=0)  # (pw-1, T, C)
    signs = (-1.0) ** np.arange(pw - 1)
    # Alternating column differences reinforce for 1-pixel stripes and cancel
    # for smooth gradients; built from differences so flat patches are exactly
    # zero.
    alternating = np.abs((d * signs[:, None, None]).sum(axis=0)) / pw
    energy = np.abs(d).mean(axis=0)
    return np.concatenate([alternating, energy], axis=1)


_RAW_PERSONAS = {
    "global-context": _raw_global_context,
    "color-histogram": _raw_color_histogram,
    "edge-shape": _raw_edge_shape,
    "patch-statistics": _raw_patch_statistics,
    "text-stripe": _raw_text_stripe,
}


def tile_columns(raw: np.ndarray, dim: int) -> np.ndarray:
    """Repeat the columns of ``raw`` cyclically out to ``dim`` columns."""
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


def encode_toy_expert(image: ImageGrid, spec: ToyExpertSpec) -> FeatureMap:
    """Encode an image with one toy expert.

    The image must divide evenly into the expert's native token grid.  The
    persona's raw descriptor is tiled cyclically to ``native_dim`` columns
    (``random-projection`` projects straight to ``native_dim`` instead).
    """
    side = _grid_side(spec.native_tokens, "native_tokens")
    if spec.persona == "random-projection":
        # Token-major flattening fixes which Gaussian row meets which pixel.
        patches = _patch_view(image, side)
        flat = patches.reshape(patches.shape[0], -1)
        values = flat @ _gaussian_projection(spec.seed, flat.shape[1], spec.native_dim)
    else:
        raw = _RAW_PERSONAS[spec.persona](_pixel_major(image, side), side)
        values = tile_columns(raw, spec.native_dim)
    return FeatureMap(np.ascontiguousarray(values), source=str(spec.id))


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
            if w <= 0.0:
                continue
            total += w
            acc += w * (arr[j] - base)
        out[i] = base + acc / total
    return out


def _interp_axis0(arr: np.ndarray, n_out: int) -> np.ndarray:
    """Linear interpolation along axis 0 with half-pixel sample centers.

    Written in lerp form a + t*(b - a) so constant inputs come back bit-exact.
    """
    n_in = arr.shape[0]
    xs = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    xs = np.clip(xs, 0.0, n_in - 1.0)
    j = xs.astype(np.int64)
    jn = np.minimum(j + 1, n_in - 1)
    t = (xs - j).reshape((n_out,) + (1,) * (arr.ndim - 1))
    a = arr[j]
    b = arr[jn]
    return a + t * (b - a)


def resample_tokens(fm: FeatureMap, target_tokens: int) -> FeatureMap:
    """Resample a square token grid to another square size.

    Downscaling uses area-average pooling (mean preserving for integer
    factors); upscaling uses bilinear interpolation.  Constant maps are
    reproduced exactly in both directions.
    """
    src = _grid_side(fm.tokens, "feature map token count")
    dst = _grid_side(target_tokens, "target token count")
    if src == dst:
        return FeatureMap(fm.values.copy(), fm.source)
    grid = fm.values.reshape(src, src, fm.dim)
    resample = _pool_axis0 if dst < src else _interp_axis0
    grid = resample(grid, dst)
    grid = np.swapaxes(resample(np.swapaxes(grid, 0, 1), dst), 0, 1)
    return FeatureMap(np.ascontiguousarray(grid.reshape(dst * dst, fm.dim)), fm.source)


def adapt_dim(fm: FeatureMap, adapter: LinearAdapter) -> FeatureMap:
    """Map every token through the adapter's affine transform."""
    if adapter.in_dim != fm.dim:
        raise ValueError(
            f"adapter expects {adapter.in_dim} input features, feature map has {fm.dim}"
        )
    return FeatureMap(fm.values @ adapter.weights + adapter.bias, fm.source)


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
