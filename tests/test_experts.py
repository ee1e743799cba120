from __future__ import annotations

import struct

import numpy as np
import pytest

from routebench.benchmark import synth_scene
from routebench.experts import (
    CHANNELS,
    HISTOGRAM_BINS,
    PERSONAS,
    FeatureMap,
    ImageGrid,
    LinearAdapter,
    ToyExpertSpec,
    _histogram_offsets,
    _mean,
    _pixel_major,
    _raw_color_histogram,
    adapt_dim,
    descriptor_width,
    encode_toy_expert,
    fold_tiled_rows,
    identity_adapter,
    load_raw_image,
    resample_tokens,
    save_raw_image,
    seeded_adapter,
    tile_columns,
)


def constant_image(height, width, value):
    return ImageGrid(np.full((height, width, CHANNELS), value))


def random_image(height, width, seed):
    rng = np.random.default_rng(seed)
    return ImageGrid(rng.random((height, width, CHANNELS)))


class TestImageGrid:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ImageGrid(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="shape"):
            ImageGrid(np.zeros((4, 4, 4)))

    def test_rejects_out_of_range(self):
        data = np.zeros((2, 2, 3))
        data[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ImageGrid(data)
        data[0, 0, 0] = -0.1
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ImageGrid(data)

    def test_rejects_non_finite(self):
        data = np.zeros((2, 2, 3))
        data[1, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ImageGrid(data)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ImageGrid(np.zeros((0, 4, 3)))


class TestFeatureMap:
    @pytest.mark.parametrize(
        "values, message",
        [
            (np.ones(4), r"must be 2-D and non-empty, got shape \(4,\)$"),
            (np.ones((2, 2, 2)), r"must be 2-D and non-empty, got shape \(2, 2, 2\)$"),
            (np.ones((0, 3)), r"must be 2-D and non-empty, got shape \(0, 3\)$"),
            (np.ones((3, 0)), r"must be 2-D and non-empty, got shape \(3, 0\)$"),
            (np.array([[1.0, np.nan]]), "^feature map contains non-finite values$"),
        ],
        ids=["1-d", "3-d", "no-tokens", "no-features", "non-finite"],
    )
    def test_rejects(self, values, message):
        with pytest.raises(ValueError, match=message):
            FeatureMap(values, source="0")


def _load_zero_wide_image(path):
    path.write_bytes(struct.pack("<III", 0, 2, 3))  # width 0, height 2, 3 channels
    return load_raw_image(path)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda path: ToyExpertSpec(
            id=0, persona="edge-shape", seed=0, native_tokens=16, native_dim=0
        ), "native_dim must be >= 1, got 0"),
        (lambda path: ToyExpertSpec(
            id=0, persona="edge-shape", seed=-1, native_tokens=16, native_dim=8
        ), "seed must be >= 0, got -1"),
        (_load_zero_wide_image, "{path}: invalid dimensions 0x2"),
    ],
    ids=["spec-native-dim-zero", "spec-seed-negative", "raw-image-zero-wide"],
)
def test_validation_names_the_fault(tmp_path, build, message):
    path = tmp_path / "image.raw"
    with pytest.raises(ValueError) as excinfo:
        build(path)
    assert str(excinfo.value) == message.format(path=path)


class TestSpecValidation:
    def test_rejects_unknown_persona(self):
        with pytest.raises(ValueError, match="persona"):
            ToyExpertSpec(id=0, persona="fourier", seed=0, native_tokens=16, native_dim=8)

    def test_rejects_non_square_tokens(self):
        with pytest.raises(ValueError, match="perfect square"):
            ToyExpertSpec(id=0, persona="edge-shape", seed=0, native_tokens=12, native_dim=8)

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="id"):
            ToyExpertSpec(id=-1, persona="edge-shape", seed=0, native_tokens=16, native_dim=8)


class TestEncode:
    def test_zero_image_color_histogram_is_all_zero(self):
        # Zero pixels put all histogram mass in bin 0 for every patch, and
        # centering across tokens cancels it exactly.
        spec = ToyExpertSpec(id=0, persona="color-histogram", seed=0, native_tokens=16, native_dim=24)
        fm = encode_toy_expert(constant_image(48, 48, 0.0), spec)
        assert fm.tokens == 16 and fm.dim == 24
        assert np.all(fm.values == 0.0)

    def test_patch_statistics_single_token_means(self):
        # 2x2 image with each channel carrying {0.0, 0.5, 0.5, 1.0}; with one
        # token and native_dim 3 the descriptor is truncated to the per-channel
        # means, all 0.5.
        pixels = np.array([[0.0, 0.5], [0.5, 1.0]])
        image = ImageGrid(np.repeat(pixels[:, :, None], CHANNELS, axis=2))
        spec = ToyExpertSpec(id=1, persona="patch-statistics", seed=0, native_tokens=1, native_dim=3)
        fm = encode_toy_expert(image, spec)
        np.testing.assert_array_equal(fm.values, [[0.5, 0.5, 0.5]])

    def test_patch_statistics_tiling_repeats_descriptor(self):
        # native_dim 12 wraps the 6-wide descriptor: columns 6..11 repeat 0..5.
        spec = ToyExpertSpec(id=1, persona="patch-statistics", seed=0, native_tokens=4, native_dim=12)
        fm = encode_toy_expert(random_image(16, 16, 3), spec)
        np.testing.assert_array_equal(fm.values[:, 6:], fm.values[:, :6])

    def test_constant_image_zero_for_difference_personas(self):
        image = constant_image(32, 32, 0.7)
        for persona in ("edge-shape", "text-stripe"):
            spec = ToyExpertSpec(id=0, persona=persona, seed=0, native_tokens=16, native_dim=10)
            fm = encode_toy_expert(image, spec)
            assert np.all(fm.values == 0.0), persona

    def test_zero_image_random_projection_is_zero(self):
        spec = ToyExpertSpec(id=0, persona="random-projection", seed=9, native_tokens=4, native_dim=7)
        fm = encode_toy_expert(constant_image(8, 8, 0.0), spec)
        assert np.all(fm.values == 0.0)

    def test_indivisible_grid_rejected(self):
        for persona in PERSONAS:
            spec = ToyExpertSpec(id=0, persona=persona, seed=0, native_tokens=25, native_dim=8)
            with pytest.raises(
                ValueError, match=r"^48x48 image cannot be divided into a 5x5 token grid$"
            ):
                encode_toy_expert(constant_image(48, 48, 0.5), spec)

    def test_deterministic_given_spec_and_image(self):
        image = random_image(24, 24, 11)
        for persona in PERSONAS:
            spec = ToyExpertSpec(id=2, persona=persona, seed=77, native_tokens=9, native_dim=13)
            a = encode_toy_expert(image, spec)
            b = encode_toy_expert(image, spec)
            assert a.values.tobytes() == b.values.tobytes(), persona
            assert a.source == "2"

    def test_random_projection_seed_changes_output(self):
        image = random_image(16, 16, 4)
        base = dict(id=0, persona="random-projection", native_tokens=16, native_dim=8)
        a = encode_toy_expert(image, ToyExpertSpec(seed=1, **base))
        b = encode_toy_expert(image, ToyExpertSpec(seed=2, **base))
        assert not np.array_equal(a.values, b.values)

    def test_random_projection_matches_a_fresh_draw(self):
        # The Gaussian matrix is memoized per (seed, rows, cols); repeated
        # encodes must still equal the documented draw.
        image = random_image(16, 16, 5)
        spec = ToyExpertSpec(id=0, persona="random-projection", seed=3, native_tokens=4, native_dim=5)
        flat = image.data.reshape(2, 8, 2, 8, CHANNELS).transpose(0, 2, 1, 3, 4).reshape(4, -1)
        proj = np.random.Generator(np.random.PCG64(3)).standard_normal((flat.shape[1], 5))
        want = flat @ (proj / flat.shape[1])
        for _ in range(2):
            np.testing.assert_array_equal(encode_toy_expert(image, spec).values, want)

    def test_leading_descriptor_columns_rebuild_the_output(self):
        image = random_image(24, 24, 12)
        for persona in PERSONAS:
            for native_dim in (4, 13, 40):
                spec = ToyExpertSpec(id=0, persona=persona, seed=5, native_tokens=9, native_dim=native_dim)
                values = encode_toy_expert(image, spec).values
                lead = values[:, : descriptor_width(spec)]
                np.testing.assert_array_equal(tile_columns(lead, native_dim), values)

    def test_text_stripe_prefers_stripes_over_flat(self):
        data = np.full((16, 16, CHANNELS), 0.5)
        data[:, 0:8:2, :] = 0.9  # 1-pixel vertical stripes in the left half
        data[:, 1:8:2, :] = 0.1
        image = ImageGrid(data)
        spec = ToyExpertSpec(id=0, persona="text-stripe", seed=0, native_tokens=4, native_dim=6)
        fm = encode_toy_expert(image, spec)
        striped = fm.values[[0, 2], 0]
        flat = fm.values[[1, 3], 0]
        assert striped.min() > 0.1
        assert np.all(flat == 0.0)

    def test_histogram_centering_cancels_any_constant_image(self):
        spec = ToyExpertSpec(id=0, persona="color-histogram", seed=0, native_tokens=16, native_dim=24)
        fm = encode_toy_expert(constant_image(32, 32, 0.63), spec)
        assert np.abs(fm.values).max() < 1e-12

    def test_global_context_constant_image_gives_constant_value(self):
        spec = ToyExpertSpec(id=0, persona="global-context", seed=0, native_tokens=16, native_dim=9)
        fm = encode_toy_expert(constant_image(16, 16, 0.25), spec)
        np.testing.assert_allclose(fm.values, 0.25, rtol=0, atol=1e-15)


class TestResample:
    def test_four_tokens_to_one_is_the_mean(self):
        fm = FeatureMap(np.array([[1.0], [3.0], [5.0], [7.0]]), source="0")
        out = resample_tokens(fm, 1)
        np.testing.assert_allclose(out.values, [[4.0]], rtol=0, atol=1e-12)

    def test_constant_map_exact_both_directions(self):
        fm = FeatureMap(np.full((16, 5), 0.3), source="0")
        up = resample_tokens(fm, 49)
        down = resample_tokens(fm, 4)
        odd = resample_tokens(fm, 9)  # non-integer factor
        for out, tokens in ((up, 49), (down, 4), (odd, 9)):
            assert out.tokens == tokens
            assert np.all(out.values == 0.3)

    def test_integer_factor_downscale_preserves_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            fm = FeatureMap(rng.random((36, 7)), source="0")
            out = resample_tokens(fm, 9)
            np.testing.assert_allclose(
                out.values.mean(axis=0), fm.values.mean(axis=0), rtol=0, atol=1e-12
            )

    def test_identity_resample_copies(self):
        fm = FeatureMap(np.arange(8.0).reshape(4, 2), source="x")
        out = resample_tokens(fm, 4)
        np.testing.assert_array_equal(out.values, fm.values)
        assert out.values is not fm.values

    def test_source_preserved(self):
        fm = FeatureMap(np.ones((4, 2)), source="clip-patch")
        assert resample_tokens(fm, 16).source == "clip-patch"

    def test_non_square_targets_rejected(self):
        fm = FeatureMap(np.ones((4, 2)), source="0")
        with pytest.raises(ValueError, match="perfect square"):
            resample_tokens(fm, 8)

    @pytest.mark.parametrize(
        "src, dst, dim",
        [(1, 2, 3), (2, 3, 5), (3, 7, 1), (5, 6, 2), (4, 24, 7), (8, 24, 512), (16, 24, 1024)],
    )
    def test_upsampling_equals_the_two_pass_form_bit_for_bit(self, src, dst, dim):
        values = np.random.default_rng([src, dst, dim]).standard_normal((src * src, dim))
        want = two_pass_upsample(values, dst)
        for fm in (FeatureMap(values, "0"), FeatureMap(np.hstack([values, values])[:, :dim], "0")):
            out = resample_tokens(fm, dst * dst)
            assert out.values.flags.c_contiguous
            assert out.values.tobytes() == want.tobytes()


def _interp_axis0(arr: np.ndarray, n_out: int) -> np.ndarray:
    """Linear interpolation along axis 0 with half-pixel sample centers, in
    lerp form a + t*(b - a): upsampling's former kernel, kept as the
    reference the gathering one must match."""
    n_in = arr.shape[0]
    xs = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    xs = np.clip(xs, 0.0, n_in - 1.0)
    j = xs.astype(np.int64)
    jn = np.minimum(j + 1, n_in - 1)
    t = (xs - j).reshape((n_out,) + (1,) * (arr.ndim - 1))
    a = arr[j]
    b = arr[jn]
    return a + t * (b - a)


def two_pass_upsample(values: np.ndarray, dst: int) -> np.ndarray:
    """Rows, then columns through a swapped view, as upsampling used to run."""
    src = int(np.sqrt(values.shape[0]))
    grid = _interp_axis0(values.reshape(src, src, -1), dst)
    grid = np.swapaxes(_interp_axis0(np.swapaxes(grid, 0, 1), dst), 0, 1)
    return np.ascontiguousarray(grid.reshape(dst * dst, -1))


class TestAdapt:
    def test_worked_example(self):
        fm = FeatureMap(np.array([[2.0, 3.0]]), source="0")
        adapter = LinearAdapter(
            np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), np.array([0.0, 0.0, 1.0])
        )
        out = adapt_dim(fm, adapter)
        np.testing.assert_array_equal(out.values, [[2.0, 3.0, 6.0]])

    def test_linearity_up_to_bias(self):
        # adapt(a*x + b*y) == a*adapt(x) + b*adapt(y) - (a+b-1)*bias
        rng = np.random.default_rng(17)
        for _ in range(25):
            adapter = LinearAdapter(rng.normal(size=(6, 4)), rng.normal(size=4))
            x = rng.normal(size=(5, 6))
            y = rng.normal(size=(5, 6))
            a, b = rng.normal(size=2)
            lhs = adapt_dim(FeatureMap(a * x + b * y, source="0"), adapter).values
            rhs = (
                a * adapt_dim(FeatureMap(x, source="0"), adapter).values
                + b * adapt_dim(FeatureMap(y, source="0"), adapter).values
                - (a + b - 1.0) * adapter.bias
            )
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_folded_rows_match_tiled_columns(self):
        rng = np.random.default_rng(18)
        for width, n in ((6, 6), (6, 16), (24, 6), (9, 768)):
            raw = rng.normal(size=(5, width))
            weights = rng.normal(size=(n, 4))
            lead = min(width, n)
            want = tile_columns(raw, n) @ weights
            got = raw[:, :lead] @ fold_tiled_rows(weights, lead)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_tile_columns_repeats_cyclically_and_returns_equal_width_input(self):
        raw = np.arange(12.0).reshape(2, 6)
        assert tile_columns(raw, 6) is raw
        np.testing.assert_array_equal(tile_columns(raw, 4), raw[:, :4])
        np.testing.assert_array_equal(tile_columns(raw, 14), np.hstack([raw, raw, raw[:, :2]]))

    def test_dim_mismatch_rejected(self):
        fm = FeatureMap(np.ones((2, 3)), source="0")
        with pytest.raises(ValueError, match="3"):
            adapt_dim(fm, identity_adapter(5))

    def test_identity_adapter_roundtrip(self):
        fm = FeatureMap(np.arange(12.0).reshape(3, 4), source="0")
        np.testing.assert_array_equal(adapt_dim(fm, identity_adapter(4)).values, fm.values)

    def test_seeded_adapter_reproducible_and_bounded(self):
        a = seeded_adapter(9, 5, seed=42)
        b = seeded_adapter(9, 5, seed=42)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert np.abs(a.weights).max() <= 1.0 / 3.0
        assert np.all(a.bias == 0.0)


class TestPipelineClosure:
    def test_every_persona_reaches_canonical_geometry(self):
        # encode -> resample(576) -> adapt(1024) must work for all personas.
        image = random_image(48, 48, 23)
        for i, persona in enumerate(PERSONAS):
            spec = ToyExpertSpec(id=i, persona=persona, seed=i, native_tokens=16, native_dim=32)
            fm = encode_toy_expert(image, spec)
            fm = resample_tokens(fm, 576)
            fm = adapt_dim(fm, seeded_adapter(32, 1024, seed=i))
            assert (fm.tokens, fm.dim) == (576, 1024), persona
            assert np.isfinite(fm.values).all()


class TestRawImageIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.random((10, 14, 3)).astype(np.float32).astype(np.float64)
        image = ImageGrid(data)
        path = tmp_path / "img.bin"
        save_raw_image(image, path)
        loaded = load_raw_image(path)
        np.testing.assert_array_equal(loaded.data, image.data)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            load_raw_image(path)

    def test_wrong_channel_count_rejected(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<III", 2, 2, 4) + b"\x00" * 64)
        with pytest.raises(ValueError, match="channels"):
            load_raw_image(path)

    def test_length_mismatch_rejected(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<III", 2, 2, 3) + b"\x00" * 10)
        with pytest.raises(ValueError, match="expected"):
            load_raw_image(path)

    def test_out_of_range_values_rejected(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        values = np.full(12, 2.5, dtype="<f4")
        path.write_bytes(struct.pack("<III", 2, 2, 3) + values.tobytes())
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            load_raw_image(path)

    def test_non_finite_values_rejected(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        values = np.full(12, np.nan, dtype="<f4")
        path.write_bytes(struct.pack("<III", 2, 2, 3) + values.tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            load_raw_image(path)


class TestHistogramLayout:
    def test_bin_placement_for_saturated_channel(self):
        # A patch-sized block of pure red (0.9, 0.1, 0.1) lands in bin 7 of the
        # red channel block and bin 0 of the green/blue blocks.
        data = np.full((8, 8, 3), 0.5)
        data[0:4, 0:4] = [0.9, 0.1, 0.1]
        image = ImageGrid(data)
        spec = ToyExpertSpec(
            id=0, persona="color-histogram", seed=0, native_tokens=4,
            native_dim=CHANNELS * HISTOGRAM_BINS,
        )
        fm = encode_toy_expert(image, spec)
        red_high = 0 * HISTOGRAM_BINS + 7
        green_low = 1 * HISTOGRAM_BINS + 0
        assert fm.values[0, red_high] > 0.5  # red patch, centered mass positive
        assert fm.values[1, red_high] < 0.0  # background patches lose mass
        assert fm.values[0, green_low] > 0.5


# Token-major reference formulas: each persona reduces a (T, ph, pw, C) patch
# view over its patch axes.  The encoder reduces a pixel-major copy instead;
# the arithmetic and its order are the same, so the descriptors must be equal
# bit for bit.


def _reference_patches(image, side):
    h, w = image.height, image.width
    ph, pw = h // side, w // side
    v = image.data.reshape(side, ph, side, pw, CHANNELS)
    return v.transpose(0, 2, 1, 3, 4).reshape(side * side, ph, pw, CHANNELS)


def _reference_global_context(patches, side):
    local = patches.mean(axis=(1, 2))
    rows = np.repeat(np.arange(side), side)
    cols = np.tile(np.arange(side), side)
    quadrant = ((2 * rows) // side) * 2 + (2 * cols) // side
    quad_means = np.zeros((4, CHANNELS))
    for q in range(4):
        members = local[quadrant == q]
        if members.size:
            quad_means[q] = members.mean(axis=0)
    overall = np.broadcast_to(local.mean(axis=0), local.shape)
    return np.concatenate([local, quad_means[quadrant], overall], axis=1)


def _reference_color_histogram(patches, side):
    t, ph, pw, _ = patches.shape
    npix = ph * pw
    bins = np.minimum((patches * HISTOGRAM_BINS).astype(np.int64), HISTOGRAM_BINS - 1)
    out = np.empty((t, CHANNELS * HISTOGRAM_BINS))
    row_offsets = np.arange(t)[:, None] * HISTOGRAM_BINS
    for ch in range(CHANNELS):
        flat = bins[..., ch].reshape(t, npix)
        counts = np.bincount(
            (flat + row_offsets).ravel(), minlength=t * HISTOGRAM_BINS
        ).reshape(t, HISTOGRAM_BINS)
        out[:, ch * HISTOGRAM_BINS : (ch + 1) * HISTOGRAM_BINS] = counts / npix
    return out - out.mean(axis=0, keepdims=True)


def _reference_edge_shape(patches, side):
    t = patches.shape[0]
    dx = np.abs(np.diff(patches, axis=2))
    dy = np.abs(np.diff(patches, axis=1))
    fx = dx.mean(axis=(1, 2)) if dx.size else np.zeros((t, CHANNELS))
    fy = dy.mean(axis=(1, 2)) if dy.size else np.zeros((t, CHANNELS))
    return np.concatenate([fx, fy], axis=1)


def _reference_patch_statistics(patches, side):
    return np.concatenate([patches.mean(axis=(1, 2)), patches.var(axis=(1, 2))], axis=1)


def _reference_text_stripe(patches, side):
    t, _, pw, _ = patches.shape
    if pw < 2:
        return np.zeros((t, 2 * CHANNELS))
    col_means = patches.mean(axis=1)
    d = np.diff(col_means, axis=1)
    signs = (-1.0) ** np.arange(pw - 1)
    alternating = np.abs((d * signs[None, :, None]).sum(axis=1)) / pw
    energy = np.abs(d).mean(axis=1)
    return np.concatenate([alternating, energy], axis=1)


REFERENCE_PERSONAS = {
    "global-context": _reference_global_context,
    "color-histogram": _reference_color_histogram,
    "edge-shape": _reference_edge_shape,
    "patch-statistics": _reference_patch_statistics,
    "text-stripe": _reference_text_stripe,
}


def _oracle_cases():
    for seed in range(6):
        yield f"scene{seed}", synth_scene(seed)[1], 8
    for side in (8, 16):
        yield f"random384-side{side}", random_image(384, 384, side), side
    for side in (1, 2, 3, 6, 12):
        yield f"random36x60-side{side}", random_image(36, 60, 5), side
    # One pixel per patch: pw < 2 and both pixel differences are empty.
    yield "random12-side12", random_image(12, 12, 6), 12
    # A non-contiguous pixel array.
    wide = np.random.default_rng(8).random((64, 128, CHANNELS))
    yield "strided64-side8", ImageGrid(wide[:, ::2]), 8


class TestPersonaOracle:
    @pytest.mark.parametrize("persona", sorted(REFERENCE_PERSONAS))
    def test_raw_descriptor_bit_equal_to_token_major_reference(self, persona):
        for name, image, side in _oracle_cases():
            want = REFERENCE_PERSONAS[persona](_reference_patches(image, side), side)
            spec = ToyExpertSpec(
                id=0, persona=persona, seed=0, native_tokens=side * side, native_dim=want.shape[1]
            )
            got = encode_toy_expert(image, spec).values
            assert np.array_equal(got, want), f"{persona} on {name}"


def _pixel_major_color_histogram(pixels):
    """The color histogram as the encoder once counted it, from the
    pixel-major (patch_h, patch_w, T, C) copy; the reference for binning
    the image itself."""
    ph, pw, t, _ = pixels.shape
    bins = (pixels * HISTOGRAM_BINS).astype(np.intp)
    np.minimum(bins, HISTOGRAM_BINS - 1, out=bins)
    bins += np.arange(t * CHANNELS).reshape(t, CHANNELS) * HISTOGRAM_BINS
    counts = np.bincount(bins.ravel(), minlength=t * CHANNELS * HISTOGRAM_BINS)
    out = counts.reshape(t, CHANNELS * HISTOGRAM_BINS) / (ph * pw)
    return out - _mean(out, 0)


def _intp_color_histogram(image, side):
    """The color histogram binned from the image in intp, as it was before
    the bins took the narrowest dtype that holds every slot; the reference
    for the int16 bins."""
    h, w = image.height, image.width
    ph, pw, t = h // side, w // side, side * side
    bins = (image.data * HISTOGRAM_BINS).astype(np.intp)
    np.minimum(bins, HISTOGRAM_BINS - 1, out=bins)
    token = np.arange(side)[:, None] * side + np.arange(side * pw) // pw
    offsets = (token[:, :, None] * CHANNELS + np.arange(CHANNELS)) * HISTOGRAM_BINS
    bands = bins.reshape(side, ph, -1)
    bands += offsets.reshape(side, 1, -1)
    counts = np.bincount(bins.ravel(), minlength=t * CHANNELS * HISTOGRAM_BINS)
    out = counts.reshape(t, CHANNELS * HISTOGRAM_BINS) / (ph * pw)
    return out - _mean(out, 0)


class TestColorHistogramFromImage:
    @pytest.mark.parametrize(
        "height, width, side",
        [(64, 64, 8), (384, 384, 24), (12, 12, 12), (36, 60, 6), (72, 72, 36), (76, 76, 38)],
        ids=["64-side8", "384-side24", "one-pixel-patches", "36x60-side6", "side36", "side38"],
    )
    def test_equals_the_intp_bins_bit_for_bit(self, height, width, side):
        # Side 36 holds 31,104 slots, the most that int16 indexes on a square
        # grid; side 38 holds 34,656 and bins in intp.
        images = [random_image(height, width, seed) for seed in range(2)]
        images += [constant_image(height, width, value) for value in (0.0, 1.0)]
        # Exact bin edges, 0 and 1 included.
        edges = np.arange(height * width * CHANNELS) % (HISTOGRAM_BINS + 1) / HISTOGRAM_BINS
        images.append(ImageGrid(edges.reshape(height, width, CHANNELS)))
        for image in images:
            got = _raw_color_histogram(image, side)
            assert got.tobytes() == _intp_color_histogram(image, side).tobytes()

    @pytest.mark.parametrize("side, dtype", [(8, np.int16), (36, np.int16), (37, np.intp)])
    def test_offsets_take_the_narrowest_dtype_that_holds_every_slot(self, side, dtype):
        offsets = _histogram_offsets(2, side)
        assert offsets.dtype == dtype
        assert offsets.max() + HISTOGRAM_BINS - 1 == side * side * CHANNELS * HISTOGRAM_BINS - 1

    @pytest.mark.parametrize(
        "height, width, side",
        [(64, 64, 8), (384, 384, 16), (12, 12, 12), (36, 60, 6), (64, 128, 1)],
        ids=["64-side8", "384-side16", "one-pixel-patches", "36x60-side6", "one-token"],
    )
    def test_equals_the_pixel_major_formula_bit_for_bit(self, height, width, side):
        images = [random_image(height, width, seed) for seed in range(3)]
        # Palette colours and exact bin edges, 0 and 1 included.
        edges = np.arange(height * width * CHANNELS) % (HISTOGRAM_BINS + 1) / HISTOGRAM_BINS
        images.append(ImageGrid(edges.reshape(height, width, CHANNELS)))
        if (height, width) == (64, 64):
            images += [synth_scene(seed)[1] for seed in range(3)]
        spec = ToyExpertSpec(0, "color-histogram", 0, side * side, CHANNELS * HISTOGRAM_BINS)
        for image in images:
            want = _pixel_major_color_histogram(_pixel_major(image, side))
            assert encode_toy_expert(image, spec).values.tobytes() == want.tobytes()

    def test_offsets_are_shared_and_read_only(self):
        offsets = _histogram_offsets(8, 8)
        assert offsets is _histogram_offsets(8, 8)
        assert offsets.shape == (8, 1, 64 * CHANNELS) and not offsets.flags.writeable
        # Image column 17 of token row 1 lies in token 1*8 + 2; its green
        # channel's slots start at (10*3 + 1) * 8.
        assert offsets[1, 0, 17 * CHANNELS : 18 * CHANNELS].tolist() == [240, 248, 256]

    def test_image_not_on_the_grid_rejected(self):
        spec = ToyExpertSpec(0, "color-histogram", 0, 16, 24)
        with pytest.raises(ValueError, match="cannot be divided into a 4x4 token grid"):
            encode_toy_expert(random_image(10, 12, 0), spec)


class TestMean:
    # (shape, axis) of every reduction the persona kernels, the clip CLS and
    # the affinity scorer make, at the judging and the paper geometry.
    CASES = (
        ((8, 8, 64, 3), (0, 1)),  # pixel-major patches, 64x64 image at side 8
        ((48, 48, 64, 3), (0, 1)),  # 384x384 at side 8
        ((24, 24, 256, 3), (0, 1)),  # 384x384 at side 16
        ((8, 7, 64, 3), (0, 1)),  # horizontal pixel differences
        ((7, 8, 64, 3), (0, 1)),  # vertical pixel differences
        ((8, 64, 3), 0),  # text-stripe column means / energy
        ((8, 8, 64, 3), 0),
        ((4, 4, 3), (0, 1)),  # a global-context quadrant
        ((3, 5, 3), (0, 1)),
        ((64, 3), 0),  # global-context overall mean
        ((64, 24), 0),  # histogram centering, scorer centering
        ((576, 1024), 0),  # clip CLS at paper geometry
        ((64, 24), None),  # scorer energy
        ((64, 1024), None),
        ((64, 1), 1),  # a bin column of a 24-wide map
        ((64, 43), 1),  # a bin column of a 1024-wide map
    )

    @pytest.mark.parametrize("shape, axis", CASES, ids=str)
    def test_equals_numpy_mean_bit_for_bit(self, shape, axis):
        for seed in range(3):
            a = np.random.default_rng(seed).random(shape) * 10.0 ** (seed - 1)
            got, want = _mean(a, axis), a.mean(axis=axis)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("shape", [c[0] for c in CASES if c[1] == (0, 1)], ids=str)
    def test_variance_from_own_mean_equals_numpy_var_bit_for_bit(self, shape):
        for seed in range(3):
            a = np.random.default_rng(seed).random(shape)
            dev = a - _mean(a, (0, 1))
            assert _mean(dev * dev, (0, 1)).tobytes() == a.var(axis=(0, 1)).tobytes()

    def test_gathered_and_strided_inputs(self):
        values = np.random.default_rng(5).random((64, 1024))
        gathered = values[:, np.arange(7, 1024, 24)]
        assert _mean(gathered, 1).tobytes() == gathered.mean(axis=1).tobytes()
        strided = values[::2, ::3]
        assert _mean(strided, 0).tobytes() == strided.mean(axis=0).tobytes()
        assert _mean(strided, None) == strided.mean()
