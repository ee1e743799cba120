from __future__ import annotations

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
