"""Tests for scene synthesis, caption pairs, and dataset IO."""

import collections
import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from routebench import benchmark
from routebench.benchmark import (
    CATEGORY_NAMES,
    COLORS,
    COUNT_WORDS,
    DYNAMIC_VERBS,
    LABEL_WORDS,
    SCENE_GRID,
    SHAPES,
    BenchmarkSample,
    CaptionPair,
    DatasetError,
    HallucinationCategory,
    ImageRef,
    SceneDescriptor,
    SceneObject,
    build_synthetic_dataset,
    caption_claims,
    image_ref_from_json_dict,
    classify_pair,
    draw_scene,
    dumps_dataset,
    load_dataset,
    loads_dataset,
    parse_jsonl,
    rasterize,
    sample_to_json_dict,
    scene_from_json_dict,
    scene_to_json_dict,
    synth_caption,
    synth_caption_pair,
    synth_scene,
)
from routebench.datagen import loads_caption_items
from routebench.experts import ImageGrid
from routebench.evaluator import Judgement, dumps_judgements, loads_judgements
from routebench.fusion import pipeline_config_from_json, pipeline_config_to_json
from routebench.metrics import loads_binary_outcomes, loads_scenario_results
from routebench.numerics import small_gradcheck_config

# Frozen sha256 digests of rasterized scenes for seeds 0..19, with the object
# count each seed produces.  Regenerating these bytes must stay stable across
# runs and platforms.
FROZEN_SCENE_DIGESTS = [
    (0, 4, "dcb435e855d26e39fdb44e932604fd857955d06002ca3ba881e3b3ffc86979b9"),
    (1, 2, "c85b2ad156d24501e15da6942396e01922e6b6dd23374bf2af5cafb5d1782bf6"),
    (2, 1, "412b4bda369c4bce533a2b5cbc043efe07c99a062c120cbc6686ddabfd4ed18c"),
    (3, 2, "7cd73c1eba3b697b251549a801b9df6017994973dc42c5ff03f93e2a62315ad3"),
    (4, 2, "28bd7775ea69cf327b933010e7b0106da118ba7a003dfa2c51dd007802e0295d"),
    (5, 5, "e925e87186ed6438927ee15151361f23ea6404cd4d6b272f7f893137bc11ce76"),
    (6, 5, "985b41f4f8b65deb592503e0938d0acd31dbed2c887b0aa3e2e23692627ca296"),
    (7, 3, "4beb8b212585ad36e257a18e2705cff660e10eb2c85128756c1ea728755e8810"),
    (8, 2, "5a1d79a00579ead5ad906516a91a416cb27d0f5cff2fc21f8503218d9c5c3c48"),
    (9, 4, "86fe650e3358b77665458de7ffc0d257cfe427674eba6743db984c5f5f1c2173"),
    (10, 5, "96531253b4698c4775b80d6e9966f34157a00bb7c7a90e38f31b68b2ab9f2e9a"),
    (11, 4, "fcbd6af5a41b3cbecef31effcadb154e61b4b2048ecf61bef91bba589881fe98"),
    (12, 4, "f8d02f5d33d06e71ec2eeff69372c397c2601d9b2e766f84876f654f2b87791d"),
    (13, 3, "ab217927b30989b4a76eca3786ead6a80d2fe5fffbeeeb4179af89b7bb63df1b"),
    (14, 1, "35c560457c709ec3b93504779643a3137a395e43dbd8813e666c62df3f8d227a"),
    (15, 2, "f1b20322d823a21bfb235c910aa6aa8e3200a04551551817eaead8aeac24501d"),
    (16, 3, "e1fc07131a9cb38d65a5726ddbb8f1ed4badba8917294e9f88c963cffd93481c"),
    (17, 5, "5711ae35e85b56848ae9c8811c54a6a8cacc55af7220a8889c32faff69d93e10"),
    (18, 2, "2cd648bb29eef52a621d5c6e96d7d0cba207445e089f027938cf08812cee0c9d"),
    (19, 6, "1aa5902f28a47fafd8812c0e88b95c25a10282522ffab94b08a3b8c19ab0951b"),
]

SCENE_FULL = SceneDescriptor(
    seed=1,
    objects=(
        SceneObject("circle", "red", (0, 0), 0, occluded=True, label_text="EXIT"),
        SceneObject("square", "green", (0, 1), 1),
        SceneObject("circle", "red", (2, 2), 0),
    ),
)

SCENE_ONE = SceneDescriptor(seed=2, objects=(SceneObject("circle", "red", (0, 0), 0),))

SCENE_ALL_COLORS = SceneDescriptor(
    seed=3,
    objects=(
        SceneObject("circle", "red", (0, 0), 0),
        SceneObject("circle", "green", (0, 1), 1),
        SceneObject("circle", "blue", (0, 2), 2),
        SceneObject("circle", "yellow", (0, 3), 3),
    ),
)

SCENE_ALL_SHAPES = SceneDescriptor(
    seed=4,
    objects=(
        SceneObject("circle", "red", (0, 0), 0),
        SceneObject("square", "red", (1, 0), 1),
        SceneObject("triangle", "red", (2, 0), 2),
    ),
)

SCENE_SIX = SceneDescriptor(
    seed=5,
    objects=tuple(
        SceneObject("circle", "red", (r, c), 0)
        for r in range(2)
        for c in range(3)
    ),
)


class TestCategoryTaxonomy:
    def test_exact_ten_category_names(self):
        assert CATEGORY_NAMES == (
            "Category", "Counting", "Occlusion", "Text", "Shape",
            "AbsolutePosition", "RelativePosition", "Color", "Action",
            "RelativeInteraction",
        )


class TestSceneDescriptor:
    def test_rejects_too_many_objects(self):
        objs = tuple(
            SceneObject("circle", "red", (r, c), 0)
            for r in range(2)
            for c in range(4)
        )
        with pytest.raises(ValueError, match="at most 6"):
            SceneDescriptor(seed=0, objects=objs[:7])

    def test_rejects_duplicate_cells(self):
        objs = (
            SceneObject("circle", "red", (1, 1), 0),
            SceneObject("square", "blue", (1, 1), 1),
        )
        with pytest.raises(ValueError, match="distinct cells"):
            SceneDescriptor(seed=0, objects=objs)

    def test_rejects_unsorted_cells(self):
        objs = (
            SceneObject("circle", "red", (1, 0), 0),
            SceneObject("square", "blue", (0, 0), 1),
        )
        with pytest.raises(ValueError, match="row-major"):
            SceneDescriptor(seed=0, objects=objs)

    def test_rejects_inconsistent_count_group(self):
        objs = (
            SceneObject("circle", "red", (0, 0), 0),
            SceneObject("circle", "red", (0, 1), 1),
        )
        with pytest.raises(ValueError, match="count_group"):
            SceneDescriptor(seed=0, objects=objs)

    def test_rejects_bad_shape_color_label_cell(self):
        with pytest.raises(ValueError, match="shape must be one of"):
            SceneObject("hexagon", "red", (0, 0), 0)
        with pytest.raises(ValueError, match="color must be one of"):
            SceneObject("circle", "purple", (0, 0), 0)
        with pytest.raises(ValueError, match="label_text must be one of"):
            SceneObject("circle", "red", (0, 0), 0, label_text="HELLO")
        with pytest.raises(ValueError, match="outside"):
            SceneObject("circle", "red", (4, 0), 0)

    @pytest.mark.parametrize("cell", [(1,), (0, 1, 2), [0.5, 0], (True, 0), 5, "01"], ids=repr)
    def test_cell_must_be_two_integers(self, cell):
        with pytest.raises(ValueError, match=r"^cell must be two integers, got "):
            SceneObject("circle", "red", cell, 0)


def _sample(**fields):
    doc = {
        "id": "s", "image": ImageRef(kind="file", path="a.raw"), "real_caption": "A red circle.",
        "hallucinated_caption": "A blue circle.", "category": HallucinationCategory.COLOR,
    }
    return BenchmarkSample(**{**doc, **fields})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SceneObject("circle", "red", (0, 0), -1), "count_group must be >= 0, got -1"),
        (lambda: ImageRef(kind="file"), "file image refs need a path and no scene"),
        (lambda: ImageRef(kind="scene", path="a.raw"), "scene image refs need a scene and no path"),
        (lambda: ImageRef(kind="url", path="a.raw"),
         "kind must be one of 'file' or 'scene', got 'url'"),
        (lambda: _sample(id=""), "id must be non-blank, got ''"),
        (lambda: _sample(real_caption=""), "real_caption must be non-blank, got ''"),
        (lambda: _sample(category="Color"), "sample s: category must be a HallucinationCategory"),
        (lambda: image_ref_from_json_dict(["file", "a.raw"]),
         "image must be a JSON object, got ['file', 'a.raw']"),
    ],
    ids=[
        "negative-count-group", "file-without-path", "scene-without-scene", "unknown-kind",
        "empty-id", "empty-caption", "category-not-enum", "image-not-object",
    ],
)
def test_validation_names_the_fault(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def paint_scene(desc):
    """Reference painter: each object drawn mask by mask onto the canvas, the
    steps rasterize's cell tiles are painted with, in the same order."""
    cp = benchmark.CELL_PIXELS
    yy, xx = np.mgrid[0:cp, 0:cp]
    masks = {
        "circle": (yy - 7.5) ** 2 + (xx - 7.5) ** 2 <= 5.5**2,
        "square": (yy >= 2) & (yy <= 13) & (xx >= 2) & (xx <= 13),
        "triangle": (yy >= 2) & (yy <= 13) & (np.abs(xx - 7.5) <= 0.5 * (yy - 2) + 0.5),
    }
    stripes = np.where(np.arange(cp) % 2 == 0, benchmark.STRIPE_LIGHT, benchmark.STRIPE_DARK)
    canvas = np.full((benchmark.SCENE_PIXELS, benchmark.SCENE_PIXELS, 3), benchmark.BACKGROUND_VALUE)
    for obj in desc.objects:
        r0, c0 = obj.cell[0] * cp, obj.cell[1] * cp
        cell = canvas[r0 : r0 + cp, c0 : c0 + cp]
        cell[masks[obj.shape]] = benchmark.PALETTE[obj.color]
        if obj.label_text is not None:
            cell[12:16, :, :] = stripes[None, :, None]
        if obj.occluded:
            cell[0 : cp // 2, :, :] = benchmark.OCCLUDER_VALUE
    return canvas


class TestRasterize:
    def test_every_object_in_every_cell_matches_the_painter(self):
        combos = itertools.product(SHAPES, COLORS, (None,) + LABEL_WORDS, (False, True))
        cells = itertools.product(range(SCENE_GRID), repeat=2)
        for (shape, color, label, occluded), cell in itertools.product(combos, cells):
            obj = SceneObject(shape, color, cell, 0, occluded=occluded, label_text=label)
            desc = SceneDescriptor(seed=0, objects=(obj,))
            got = rasterize(desc).data
            assert got.tobytes() == paint_scene(desc).tobytes(), obj

    def test_drawn_scenes_match_the_painter(self):
        for seed in range(20000):
            desc = draw_scene(seed)
            assert rasterize(desc).data.tobytes() == paint_scene(desc).tobytes(), seed

    def test_cell_tiles_are_read_only(self):
        tiles = benchmark._CELL_TILES
        assert len(tiles) == len(SHAPES) * len(COLORS) * 2 * 2
        for key, tile in tiles.items():
            assert not tile.flags.writeable, key
            with pytest.raises(ValueError):
                tile[0, 0, 0] = 0.0
        canvas = rasterize(SCENE_FULL).data
        canvas[:] = 0.0
        assert rasterize(SCENE_FULL).data.tobytes() == paint_scene(SCENE_FULL).tobytes()

    def test_empty_scene_is_uniform_background(self):
        img = rasterize(SceneDescriptor(seed=0, objects=()))
        assert img.data.shape == (64, 64, 3)
        assert np.all(img.data == 0.5)

    def test_known_pixel_values(self):
        desc = SceneDescriptor(
            seed=0,
            objects=(
                SceneObject("circle", "red", (0, 1), 0),
                SceneObject("square", "blue", (2, 3), 1, occluded=True, label_text="EXIT"),
            ),
        )
        img = rasterize(desc)
        # circle interior and exterior in cell (0, 1)
        assert img.data[7, 23].tolist() == [0.9, 0.1, 0.1]
        assert img.data[0, 16].tolist() == [0.5, 0.5, 0.5]
        # occluder covers the top half of cell (2, 3)
        assert img.data[39, 60].tolist() == [0.55, 0.55, 0.55]
        # label stripes alternate along the cell bottom
        assert img.data[44, 48, 0] == 0.85
        assert img.data[44, 49, 0] == 0.05

    def test_triangle_geometry(self):
        img = rasterize(
            SceneDescriptor(seed=0, objects=(SceneObject("triangle", "green", (0, 0), 0),))
        )
        assert img.data[2, 7].tolist() == [0.1, 0.9, 0.1]  # apex
        assert img.data[2, 6].tolist() == [0.5, 0.5, 0.5]  # beside the apex
        assert img.data[13, 2].tolist() == [0.1, 0.9, 0.1]  # base corner

    def test_frozen_scene_digests(self):
        for seed, n_objects, digest in FROZEN_SCENE_DIGESTS:
            desc, img = synth_scene(seed)
            assert len(desc.objects) == n_objects, f"seed {seed}"
            got = hashlib.sha256(img.data.tobytes()).hexdigest()
            assert got == digest, f"seed {seed}"

    def test_canvas_passes_the_image_checks_it_skips(self):
        # rasterize builds its ImageGrid unchecked; every drawing combination,
        # in every cell, must still be what a checked ImageGrid would store.
        combos = itertools.product(SHAPES, COLORS, (None,) + LABEL_WORDS, (False, True))
        for i, (shape, color, label, occluded) in enumerate(combos):
            cell = (i % SCENE_GRID, (i // SCENE_GRID) % SCENE_GRID)
            obj = SceneObject(shape, color, cell, 0, occluded=occluded, label_text=label)
            img = rasterize(SceneDescriptor(seed=0, objects=(obj,)))
            assert ImageGrid(img.data).data is img.data, (shape, color, label, occluded)
        for seed in range(50):
            img = synth_scene(seed)[1]
            assert ImageGrid(img.data).data is img.data, seed

    def test_synth_scene_deterministic(self):
        a_desc, a_img = synth_scene(123)
        b_desc, b_img = synth_scene(123)
        assert a_desc == b_desc
        assert a_img.data.tobytes() == b_img.data.tobytes()


class TestCaptions:
    def test_frozen_caption(self):
        desc = SceneDescriptor(
            seed=0,
            objects=(
                SceneObject("circle", "red", (0, 1), 0),
                SceneObject("square", "blue", (2, 3), 1, occluded=True, label_text="EXIT"),
            ),
        )
        assert synth_caption(desc) == (
            "The scene contains two objects. "
            "A red circle sits at row 0 column 1. "
            "A blue square sits at row 2 column 3, labeled EXIT, partly hidden. "
            "The first object is left of the second object. "
            "The first object and the second object are apart."
        )

    def test_empty_scene_caption(self):
        assert synth_caption(SceneDescriptor(seed=0, objects=())) == "The scene is empty."

    def test_relation_words(self):
        right = SceneDescriptor(
            seed=0,
            objects=(
                SceneObject("circle", "red", (0, 3), 0),
                SceneObject("square", "blue", (1, 0), 1),
            ),
        )
        assert "is right of the second" in synth_caption(right)
        above = SceneDescriptor(
            seed=0,
            objects=(
                SceneObject("circle", "red", (0, 0), 0),
                SceneObject("square", "blue", (1, 0), 1),
            ),
        )
        cap = synth_caption(above)
        assert "is above the second" in cap
        assert "are touching." in cap  # vertically adjacent cells


class TestCaptionClaims:
    def test_full_scene_claims(self):
        assert caption_claims(synth_caption(SCENE_FULL)) == [
            ("count", None, "three", 3),
            ("color", 0, "red", 6),
            ("shape", 0, "circle", 7),
            ("verb", 0, "sits", 8),
            ("row", 0, "0", 11),
            ("col", 0, "0", 13),
            ("label", 0, "EXIT", 15),
            ("occlusion", 0, "partly", 16),
            ("occlusion", 0, "hidden", 17),
            ("color", 1, "green", 19),
            ("shape", 1, "square", 20),
            ("verb", 1, "sits", 21),
            ("row", 1, "0", 24),
            ("col", 1, "1", 26),
            ("color", 2, "red", 28),
            ("shape", 2, "circle", 29),
            ("verb", 2, "sits", 30),
            ("row", 2, "2", 33),
            ("col", 2, "2", 35),
            ("relation", None, "left", 40),
            ("interaction", None, "apart", 53),
        ]

    def test_empty_scene_claims_nothing(self):
        assert caption_claims(synth_caption(SceneDescriptor(seed=0, objects=()))) == []

    def test_claims_reproduce_random_scenes(self):
        for seed in range(300):
            desc = draw_scene(seed)
            caption = synth_caption(desc)
            tokens = caption.split()
            per_object: dict = {}
            scene_roles = []
            for role, obj, value, index in caption_claims(caption):
                assert tokens[index].rstrip(".,") == value
                if obj is None:
                    scene_roles.append((role, value))
                else:
                    per_object.setdefault(obj, {}).setdefault(role, []).append(value)
            n = len(desc.objects)
            assert scene_roles[0] == ("count", COUNT_WORDS[n - 1])
            relations = ["relation", "interaction"] if n >= 2 else []
            assert [r for r, _ in scene_roles[1:]] == relations
            assert sorted(per_object) == list(range(n))
            for i, o in enumerate(desc.objects):
                claims = per_object[i]
                assert claims["color"] == [o.color]
                assert claims["shape"] == [o.shape]
                assert claims["verb"] == ["sits"]
                assert claims["row"] == [str(o.cell[0])]
                assert claims["col"] == [str(o.cell[1])]
                assert claims.get("label") == ([o.label_text] if o.label_text else None)
                assert claims.get("occlusion") == (["partly", "hidden"] if o.occluded else None)

    def test_numbers_take_their_role_from_the_word_before(self):
        claims = caption_claims("A red circle sits at row 3, column 12. There are 4 cats.")
        assert ("row", 0, "3", 6) in claims
        assert ("col", 0, "12", 8) in claims
        assert all(value != "4" for _, _, value, _ in claims)

    def test_keywords_match_case_sensitively(self):
        assert caption_claims("Red circle exit EXIT.") == [
            ("shape", None, "circle", 1),
            ("label", None, "EXIT", 3),
        ]


def caption_edit(pair: CaptionPair) -> tuple:
    """``(positions, before, after)``: the token positions where a pair's
    captions differ and the words there, trailing punctuation stripped."""
    r_tokens, h_tokens = pair.real.split(), pair.hallucinated.split()
    assert len(r_tokens) == len(h_tokens)
    positions = tuple(i for i, (a, b) in enumerate(zip(r_tokens, h_tokens)) if a != b)
    before = tuple(r_tokens[i].rstrip(".,") for i in positions)
    after = tuple(h_tokens[i].rstrip(".,") for i in positions)
    return positions, before, after


def assert_one_claim_edited(pair: CaptionPair, category: HallucinationCategory) -> None:
    """The captions differ in claim words only: one, or the two-word
    visibility phrase for Occlusion."""
    positions, _, _ = caption_edit(pair)
    assert len(positions) == (2 if category is HallucinationCategory.OCCLUSION else 1)
    claimed = {index for _, _, _, index in caption_claims(pair.real)}
    assert set(positions) <= claimed


class TestCaptionPairs:
    @pytest.mark.parametrize("category", list(HallucinationCategory))
    def test_full_scene_supports_every_category(self, category):
        pair = synth_caption_pair(SCENE_FULL, category, seed=0)
        assert pair is not None
        assert classify_pair(pair.real, pair.hallucinated) is category
        assert pair.real == synth_caption(SCENE_FULL)
        assert_one_claim_edited(pair, category)

    def test_edit_vocabulary_per_category(self):
        cases = {
            HallucinationCategory.COLOR: (("red", "green"), ("blue", "yellow")),
            HallucinationCategory.CATEGORY: (("circle", "square"), ("triangle",)),
            HallucinationCategory.TEXT: (("EXIT",), ("STOP", "OPEN", "SALE")),
            HallucinationCategory.COUNTING: (("three",), ("two", "four")),
            HallucinationCategory.ACTION: (("sits",), DYNAMIC_VERBS),
            HallucinationCategory.RELATIVE_POSITION: (("left",), ("right",)),
            HallucinationCategory.RELATIVE_INTERACTION: (("apart",), ("touching",)),
        }
        for category, (befores, afters) in cases.items():
            for seed in range(5):
                _, before, after = caption_edit(synth_caption_pair(SCENE_FULL, category, seed))
                assert before[0] in befores, category
                assert after[0] in afters, category

    def test_occlusion_swaps_two_tokens(self):
        pair = synth_caption_pair(SCENE_FULL, HallucinationCategory.OCCLUSION, seed=0)
        positions, before, after = caption_edit(pair)
        assert positions[1] == positions[0] + 1
        assert before == ("partly", "hidden")
        assert after == ("fully", "visible")
        assert "partly hidden" in pair.real
        assert "fully visible" in pair.hallucinated

    def test_shape_swap_uses_present_shape(self):
        for seed in range(10):
            _, before, after = caption_edit(
                synth_caption_pair(SCENE_FULL, HallucinationCategory.SHAPE, seed)
            )
            assert after[0] in ("circle", "square")
            assert after[0] != before[0]

    def test_absolute_position_moves_by_one(self):
        for seed in range(10):
            _, before, after = caption_edit(
                synth_caption_pair(SCENE_FULL, HallucinationCategory.ABSOLUTE_POSITION, seed)
            )
            assert abs(int(after[0]) - int(before[0])) == 1

    def test_counting_edges(self):
        pair = synth_caption_pair(SCENE_ONE, HallucinationCategory.COUNTING, seed=0)
        assert caption_edit(pair)[1:] == (("one",), ("two",))
        pair = synth_caption_pair(SCENE_SIX, HallucinationCategory.COUNTING, seed=0)
        assert caption_edit(pair)[1:] == (("six",), ("five",))

    def test_unsupported_categories_return_none(self):
        unsupported = [
            (SCENE_ONE, HallucinationCategory.OCCLUSION),
            (SCENE_ONE, HallucinationCategory.TEXT),
            (SCENE_ONE, HallucinationCategory.SHAPE),
            (SCENE_ONE, HallucinationCategory.RELATIVE_POSITION),
            (SCENE_ONE, HallucinationCategory.RELATIVE_INTERACTION),
            (SCENE_ALL_COLORS, HallucinationCategory.COLOR),
            (SCENE_ALL_SHAPES, HallucinationCategory.CATEGORY),
        ]
        for scene, category in unsupported:
            assert synth_caption_pair(scene, category, seed=0) is None

    def test_empty_scene_supports_nothing(self):
        empty = SceneDescriptor(seed=0, objects=())
        for category in HallucinationCategory:
            assert synth_caption_pair(empty, category, seed=0) is None

    def test_pair_generation_deterministic(self):
        a = synth_caption_pair(SCENE_FULL, HallucinationCategory.COLOR, seed=42)
        b = synth_caption_pair(SCENE_FULL, HallucinationCategory.COLOR, seed=42)
        assert a == b

    def test_random_scenes_always_classify_back(self):
        produced = 0
        for trial in range(300):
            rng = random.Random(9000 + trial)
            desc, _ = synth_scene(rng.getrandbits(32))
            category = rng.choice(list(HallucinationCategory))
            pair = synth_caption_pair(desc, category, rng.getrandbits(32))
            if pair is None:
                continue
            produced += 1
            assert classify_pair(pair.real, pair.hallucinated) is category
            assert_one_claim_edited(pair, category)
        assert produced > 200


class TestClassifyPair:
    def test_returns_none_on_identical(self):
        assert classify_pair("A red circle.", "A red circle.") is None

    def test_returns_none_on_length_mismatch(self):
        assert classify_pair("A red circle.", "A red circle sits.") is None

    def test_returns_none_on_unknown_edit(self):
        real = "A red circle sits at row 0 column 1."
        assert classify_pair(real, real.replace("sits", "flies")) is None

    def test_returns_none_on_two_scattered_edits(self):
        real = "A red circle sits at row 0 column 1."
        bad = "A blue circle sits at row 1 column 1."
        assert classify_pair(real, bad) is None

    def test_digit_outside_row_or_column_is_not_a_position(self):
        # Only numbers after "row"/"column" are position claims; any other
        # number lies outside the caption grammar and does not classify.
        assert classify_pair("There are 3 cats.", "There are 4 cats.") is None
        real = "A red circle sits at row 0 column 1."
        assert classify_pair(real, real.replace("row 0", "row 2")) is (
            HallucinationCategory.ABSOLUTE_POSITION
        )

    def test_role_specific_rules(self):
        real = (
            "A red circle sits at row 0 column 1, partly hidden. "
            "The first object is left of the second object."
        )
        # a relation must flip to its opposite, a verb from stative to dynamic
        assert classify_pair(real, real.replace("left", "above")) is None
        assert classify_pair(real, real.replace("left", "right")) is (
            HallucinationCategory.RELATIVE_POSITION
        )
        dynamic = real.replace("sits", "spins")
        assert classify_pair(real, dynamic) is HallucinationCategory.ACTION
        assert classify_pair(dynamic, dynamic.replace("spins", "rolls")) is None
        # the visibility phrase changes only as a whole
        assert classify_pair(real, real.replace("partly", "fully")) is None
        assert classify_pair(real, real.replace("partly hidden", "fully visible")) is (
            HallucinationCategory.OCCLUSION
        )
        # words of different roles never pair up
        assert classify_pair(real, real.replace("red", "square")) is None

    def test_category_vs_shape_disambiguation(self):
        # swapped-in shape present elsewhere -> Shape
        real = "A red circle sits. A blue square sits."
        hall = "A red square sits. A blue square sits."
        assert classify_pair(real, hall) is HallucinationCategory.SHAPE
        # swapped-in shape absent from the rest -> Category
        hall = "A red triangle sits. A blue square sits."
        assert classify_pair(real, hall) is HallucinationCategory.CATEGORY


class TestDatasetBuild:
    def test_exact_counts_and_unique_ids(self):
        samples = build_synthetic_dataset(5, seed=11)
        assert len(samples) == 50
        counts = collections.Counter(s.category for s in samples)
        assert counts == {c: 5 for c in HallucinationCategory}
        ids = [s.id for s in samples]
        assert len(set(ids)) == len(ids)

    def test_build_deterministic(self):
        a = dumps_dataset(build_synthetic_dataset(3, seed=5))
        b = dumps_dataset(build_synthetic_dataset(3, seed=5))
        assert a == b

    def test_category_subset(self):
        cats = (HallucinationCategory.COLOR, HallucinationCategory.COUNTING)
        samples = build_synthetic_dataset(4, seed=2, categories=cats)
        assert len(samples) == 8
        assert {s.category for s in samples} == set(cats)

    def test_samples_classify_to_their_category(self):
        for sample in build_synthetic_dataset(3, seed=17):
            got = classify_pair(sample.real_caption, sample.hallucinated_caption)
            assert got is sample.category

    def test_rejects_repeated_categories(self):
        # A repeated category would repeat its samples' ids.
        cats = (HallucinationCategory.COLOR, HallucinationCategory.COUNTING,
                HallucinationCategory.COLOR)
        with pytest.raises(ValueError, match="^categories must be distinct$"):
            build_synthetic_dataset(2, seed=0, categories=cats)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            build_synthetic_dataset(0, seed=1)

    def test_build_draws_scenes_without_rasterizing(self, monkeypatch):
        def fail(desc):
            raise AssertionError("build_synthetic_dataset rasterized a scene")

        monkeypatch.setattr(benchmark, "rasterize", fail)
        assert len(build_synthetic_dataset(2, seed=3)) == 20

    def test_gives_up_after_the_attempt_limit(self, monkeypatch):
        # An empty scene supports no category, so every attempt is skipped.
        monkeypatch.setattr(benchmark, "draw_scene", lambda seed: SceneDescriptor(seed, ()))
        want = "^could not generate 1 Color samples after 2000 attempts$"
        with pytest.raises(RuntimeError, match=want):
            build_synthetic_dataset(1, 0, [HallucinationCategory.COLOR])


class TestDatasetIO:
    def test_round_trip_byte_identical(self, tmp_path):
        samples = build_synthetic_dataset(2, seed=3)
        path = tmp_path / "ds.jsonl"
        path.write_text(dumps_dataset(samples), encoding="utf-8")
        reloaded = load_dataset(path)
        assert dumps_dataset(reloaded) == path.read_text(encoding="utf-8")
        assert [s.id for s in reloaded] == [s.id for s in samples]

    def test_scene_json_round_trip(self):
        doc = scene_to_json_dict(SCENE_FULL)
        assert scene_from_json_dict(doc) == SCENE_FULL

    def test_file_image_ref_round_trip(self):
        sample = BenchmarkSample(
            id="file-0001",
            image=ImageRef(kind="file", path="imgs/a.raw"),
            real_caption="A red circle sits at row 0 column 1.",
            hallucinated_caption="A blue circle sits at row 0 column 1.",
            category=HallucinationCategory.COLOR,
        )
        blob = dumps_dataset([sample])
        (reloaded,) = loads_dataset(blob)
        assert reloaded == sample

    def test_invalid_json_names_line(self):
        good = dumps_dataset(build_synthetic_dataset(1, seed=1)[:1]).rstrip("\n")
        with pytest.raises(DatasetError, match="line 2"):
            loads_dataset(good + "\n{oops\n")

    def test_parse_jsonl_numbers_lines_and_skips_blanks(self):
        text = '{"a": 1}\n  \n\n[2]\n'
        assert parse_jsonl(text, lambda doc: doc, "empty") == [{"a": 1}, [2]]
        with pytest.raises(DatasetError, match=r"^line 3: missing field 'a'$"):
            parse_jsonl('{"a": 1}\n\n{"b": 2}\n', lambda doc: doc["a"], "empty")

    @pytest.mark.parametrize(
        "loads",
        [
            loads_dataset,
            loads_judgements,
            loads_binary_outcomes,
            loads_scenario_results,
            loads_caption_items,
        ],
    )
    def test_every_jsonl_loader_names_the_invalid_line(self, loads):
        with pytest.raises(DatasetError, match=r"^line 3: invalid JSON: "):
            loads("\n  \n{oops\n")

    @pytest.mark.parametrize(
        "loads, field",
        [
            (loads_dataset, "id"),
            (loads_judgements, "sample_id"),
            (loads_binary_outcomes, "pred"),
            (loads_scenario_results, "scenario"),
            (loads_caption_items, "image"),
        ],
    )
    def test_every_jsonl_loader_names_missing_fields_and_non_objects(self, loads, field):
        with pytest.raises(DatasetError, match=rf"^line 3: missing field '{field}'$"):
            loads("\n  \n{}\n")
        with pytest.raises(DatasetError, match=r"^line 2: "):
            loads("\n[1]\n")

    def test_unknown_category_lists_valid_names(self):
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])
        doc["category"] = "Sizes"
        blob = json.dumps(doc) + "\n"
        with pytest.raises(DatasetError) as err:
            loads_dataset(blob)
        message = str(err.value)
        assert "line 1" in message
        for name in CATEGORY_NAMES:
            assert name in message

    def test_duplicate_id_names_line(self):
        line = dumps_dataset(build_synthetic_dataset(1, seed=1)[:1])
        with pytest.raises(DatasetError, match="line 2.*duplicate id"):
            loads_dataset(line + line)

    def test_missing_field_names_line(self):
        with pytest.raises(DatasetError, match="line 1.*missing field"):
            loads_dataset('{"id": "x"}\n')

    @pytest.mark.parametrize(
        "key, field",
        [("real", "real_caption"), ("hallucinated", "hallucinated_caption"), ("id", "id")],
    )
    def test_blank_text_rejected_where_the_file_is_read(self, key, field):
        # No scorer can judge a blank caption, so it never reaches one.
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])
        doc[key] = "   "
        with pytest.raises(DatasetError) as excinfo:
            loads_dataset(json.dumps(doc) + "\n")
        assert str(excinfo.value) == f"line 1: {field} must be non-blank, got '   '"

    def test_unknown_image_kind_rejected(self):
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])
        doc["image"] = {"kind": "url", "path": "http://x"}
        with pytest.raises(DatasetError, match="kind must be one of 'file' or 'scene'"):
            loads_dataset(json.dumps(doc) + "\n")

    @pytest.mark.parametrize(
        "image, message",
        [
            ({"kind": "file"}, "file image refs need a path and no scene"),
            ({"kind": "file", "path": None}, "file image refs need a path and no scene"),
            ({"kind": "scene"}, "scene image refs need a scene and no path"),
        ],
    )
    def test_image_ref_without_its_source_rejected(self, image, message):
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])
        doc["image"] = image
        with pytest.raises(DatasetError) as excinfo:
            loads_dataset(json.dumps(doc) + "\n")
        assert str(excinfo.value) == f"line 1: {message}"

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError, match="no samples"):
            loads_dataset("\n\n")

    def test_rejects_equal_captions(self):
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])
        doc["hallucinated"] = doc["real"]
        with pytest.raises(DatasetError, match="line 1"):
            loads_dataset(json.dumps(doc) + "\n")

    @staticmethod
    def _line_with_occluded(value, index=0) -> str:
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[index])
        doc["image"]["scene"]["objects"][0]["occluded"] = value
        return json.dumps(doc) + "\n"

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_occluded_must_be_a_json_boolean(self, value):
        # bool("false") is True: a coerced flag would draw an occluder the
        # caption does not mention.
        text = self._line_with_occluded(False) + self._line_with_occluded(value, index=1)
        with pytest.raises(
            DatasetError, match=rf"^line 2: occluded must be a JSON boolean, got {value!r}$"
        ):
            loads_dataset(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_occluded_json_boolean_loads_as_is(self, value):
        (sample,) = loads_dataset(self._line_with_occluded(value))
        assert sample.image.scene.objects[0].occluded is value


def _file_sample_doc() -> dict:
    return sample_to_json_dict(
        BenchmarkSample(
            id="file-0001",
            image=ImageRef(kind="file", path="imgs/a.raw"),
            real_caption="A red circle sits at row 0 column 1.",
            hallucinated_caption="A blue circle sits at row 0 column 1.",
            category=HallucinationCategory.COLOR,
        )
    )


def _judgement_doc() -> dict:
    judgement = Judgement(
        sample_id="color-1-0000",
        ppl_real=1.25,
        ppl_hall=2.5,
        is_error=False,
        category=HallucinationCategory.COLOR,
    )
    return judgement.to_json_dict()


# Each loader with a document its writer produces (or the documented shape
# for the outcome files, which nothing here writes).
_LOADERS = {
    "dataset": (loads_dataset, lambda: sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])),
    "file-dataset": (loads_dataset, _file_sample_doc),
    "judgements": (loads_judgements, _judgement_doc),
    "items": (
        loads_caption_items,
        lambda: {"image": {"kind": "file", "path": "a.raw"}, "caption": "A red circle."},
    ),
    "outcomes": (loads_binary_outcomes, lambda: {"pred": "yes", "label": "no"}),
    "scenarios": (loads_scenario_results, lambda: {"scenario": "real", "correct": True}),
    "pipeline": (None, lambda: pipeline_config_to_json(small_gradcheck_config(0)[0])),
}

_OBJECT = ["image", "scene", "objects", 0]

# (loader, path to the field, mistyped JSON value)
_MISTYPED = [
    ("dataset", ["real"], None),
    ("dataset", ["hallucinated"], 5),
    ("dataset", ["id"], 7),
    ("dataset", ["category"], ["Color"]),
    ("dataset", ["image", "kind"], 1),
    ("dataset", ["image", "scene", "seed"], 1.9),
    ("dataset", _OBJECT + ["cell"], [0.5, 0]),
    ("dataset", _OBJECT + ["cell"], [0, 1, 2]),
    ("dataset", _OBJECT + ["count_group"], 0.0),
    ("dataset", _OBJECT + ["shape"], 0),
    ("dataset", _OBJECT + ["label_text"], 3),
    ("file-dataset", ["image", "path"], 5),
    ("judgements", ["ppl_real"], "1.5"),
    ("judgements", ["ppl_hall"], True),
    ("judgements", ["is_error"], 0),
    ("judgements", ["sample_id"], 7),
    ("items", ["caption"], None),
    ("outcomes", ["pred"], True),
    ("scenarios", ["correct"], "true"),
    ("scenarios", ["scenario"], 0),
    ("pipeline", ["canonical_tokens"], 64.9),
    ("pipeline", ["clip_seed"], True),
    ("pipeline", ["canonical_dim"], "4"),
    ("pipeline", ["experts", 0, "native_dim"], 2.0),
    ("pipeline", ["experts", 0, "persona"], None),
    ("pipeline", ["strategy", "kind"], 0),
]


class TestJsonFieldTypes:
    """Every loader reads each scalar field through one rule: the value must
    already have the field's JSON type, and nothing is cast."""

    @pytest.mark.parametrize("name", sorted(_LOADERS))
    def test_written_documents_load(self, name):
        loads, make_doc = _LOADERS[name]
        doc = make_doc()
        if loads is None:
            pipeline_config_from_json(json.loads(json.dumps(doc)))
        else:
            assert len(loads(json.dumps(doc) + "\n")) == 1

    @pytest.mark.parametrize(
        "name, path, value",
        _MISTYPED,
        ids=[f"{name}-{path[-1]}={value!r}" for name, path, value in _MISTYPED],
    )
    def test_a_mistyped_field_is_rejected_by_name(self, name, path, value):
        loads, make_doc = _LOADERS[name]
        doc = make_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        field = path[-1]
        parent[field] = value
        if loads is None:
            with pytest.raises(ValueError, match=rf"^malformed pipeline config: {field} must be "):
                pipeline_config_from_json(json.loads(json.dumps(doc)))
        else:
            with pytest.raises(DatasetError, match=rf"^line 1: {field} must be "):
                loads(json.dumps(doc) + "\n")

    def test_a_float_field_takes_a_json_integer(self):
        doc = _judgement_doc()
        doc["ppl_real"], doc["ppl_hall"] = 1, 3
        (judgement,) = loads_judgements(json.dumps(doc) + "\n")
        assert type(judgement.ppl_real) is float and judgement.ppl_real == 1.0
        assert type(judgement.ppl_hall) is float and judgement.ppl_hall == 3.0


# (loader, path to a JSON object, keys added to it or, as "=", the value it
# is replaced with, the loader's message after "line 1: "): an unknown key
# at each object level, a nested value that is not an object (or, for the
# objects list, not an array), and a key of the other image kind.
_UNKNOWN = [
    ("dataset", [], {"Real": "A red circle."}, "unknown sample keys: ['Real']"),
    ("dataset", ["image"], {"Path": "a.raw"}, "unknown image keys: ['Path']"),
    ("dataset", ["image", "scene"], {"object": []}, "unknown scene keys: ['object']"),
    ("dataset", _OBJECT, {"labl": "EXIT"}, "unknown scene object keys: ['labl']"),
    ("dataset", ["image", "scene"], ("=", [1]), "scene must be a JSON object, got [1]"),
    ("dataset", _OBJECT, ("=", "circle"), "scene object must be a JSON object, got 'circle'"),
    ("dataset", ["image", "scene", "objects"], ("=", {}), "objects must be a JSON array, got {}"),
    ("dataset", ["image"], {"path": "a.raw"}, "scene image refs need a scene and no path"),
    ("file-dataset", ["image"], {"scene": {"seed": 0, "objects": []}},
     "file image refs need a path and no scene"),
    ("judgements", [], {"error": True}, "unknown judgement keys: ['error']"),
    ("items", [], {"captions": []}, "unknown caption item keys: ['captions']"),
    ("items", ["image"], ("=", None), "image must be a JSON object, got None"),
    ("outcomes", [], {"Pred": "no"}, "unknown outcome keys: ['Pred']"),
    ("scenarios", [], {"correct ": True}, "unknown scenario result keys: ['correct ']"),
]


class TestUnknownKeys:
    """Every JSONL loader checks the keys of each object level, so a
    misspelled key fails its line instead of being dropped."""

    @pytest.mark.parametrize(
        "name, path, change, message",
        _UNKNOWN,
        ids=[f"{name}-{'.'.join(map(str, path))}-{change!r}" for name, path, change, _ in _UNKNOWN],
    )
    def test_rejected_with_its_line(self, name, path, change, message):
        loads, make_doc = _LOADERS[name]
        doc = make_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(change, tuple):
            parent[path[-1]] = change[1]
        else:
            (parent[path[-1]] if path else doc).update(change)
        with pytest.raises(DatasetError) as excinfo:
            loads(json.dumps(doc) + "\n")
        assert str(excinfo.value) == f"line 1: {message}"

    def test_dumps_still_round_trip(self):
        samples = build_synthetic_dataset(3, seed=2) + loads_dataset(json.dumps(_file_sample_doc()))
        assert loads_dataset(dumps_dataset(samples)) == samples
        judgements = loads_judgements(json.dumps(_judgement_doc()) + "\n")
        assert loads_judgements(dumps_judgements(judgements)) == judgements
