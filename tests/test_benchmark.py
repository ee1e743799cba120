"""Tests for scene synthesis, caption pairs, and dataset IO."""

import hashlib
import json
import random

import numpy as np
import pytest

from routebench.benchmark import (
    CATEGORY_NAMES,
    COLORS,
    COUNT_WORDS,
    DYNAMIC_VERBS,
    LABEL_WORDS,
    SHAPES,
    BenchmarkSample,
    CaptionPair,
    DatasetError,
    HallucinationCategory,
    ImageRef,
    SceneDescriptor,
    SceneObject,
    build_synthetic_dataset,
    category_counts,
    classify_pair,
    dump_dataset,
    dumps_dataset,
    iter_jsonl,
    load_dataset,
    loads_dataset,
    rasterize,
    sample_to_json_dict,
    scene_from_json_dict,
    scene_to_json_dict,
    synth_caption,
    synth_caption_pair,
    synth_scene,
)
from routebench.datagen import loads_caption_items
from routebench.evaluator import loads_judgements
from routebench.metrics import loads_binary_outcomes, loads_scenario_results

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

    def test_group_assignments(self):
        groups = {c.value: c.group for c in HallucinationCategory}
        assert groups == {
            "Category": "Detection",
            "Counting": "Detection",
            "Occlusion": "Detection",
            "Text": "Segmentation",
            "Shape": "Segmentation",
            "AbsolutePosition": "Localization",
            "RelativePosition": "Localization",
            "Color": "Classification",
            "Action": "Classification",
            "RelativeInteraction": "Classification",
        }


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
        with pytest.raises(ValueError, match="unknown shape"):
            SceneObject("hexagon", "red", (0, 0), 0)
        with pytest.raises(ValueError, match="unknown color"):
            SceneObject("circle", "purple", (0, 0), 0)
        with pytest.raises(ValueError, match="unknown label"):
            SceneObject("circle", "red", (0, 0), 0, label_text="HELLO")
        with pytest.raises(ValueError, match="outside"):
            SceneObject("circle", "red", (4, 0), 0)


class TestRasterize:
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


class TestCaptionPairs:
    @pytest.mark.parametrize("category", list(HallucinationCategory))
    def test_full_scene_supports_every_category(self, category):
        pair = synth_caption_pair(SCENE_FULL, category, seed=0)
        assert pair is not None
        assert classify_pair(pair.real, pair.hallucinated) is category
        assert pair.real == synth_caption(SCENE_FULL)
        r_tokens = pair.real.split()
        h_tokens = pair.hallucinated.split()
        assert len(r_tokens) == len(h_tokens)
        diffs = tuple(i for i, (a, b) in enumerate(zip(r_tokens, h_tokens)) if a != b)
        assert diffs == pair.edit.positions
        assert pair.edit.category is category

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
                pair = synth_caption_pair(SCENE_FULL, category, seed)
                assert pair.edit.before[0] in befores, category
                assert pair.edit.after[0] in afters, category

    def test_occlusion_swaps_two_tokens(self):
        pair = synth_caption_pair(SCENE_FULL, HallucinationCategory.OCCLUSION, seed=0)
        assert pair.edit.before == ("partly", "hidden")
        assert pair.edit.after == ("fully", "visible")
        assert "partly hidden" in pair.real
        assert "fully visible" in pair.hallucinated

    def test_shape_swap_uses_present_shape(self):
        for seed in range(10):
            pair = synth_caption_pair(SCENE_FULL, HallucinationCategory.SHAPE, seed)
            assert pair.edit.after[0] in ("circle", "square")
            assert pair.edit.after[0] != pair.edit.before[0]

    def test_absolute_position_moves_by_one(self):
        for seed in range(10):
            pair = synth_caption_pair(SCENE_FULL, HallucinationCategory.ABSOLUTE_POSITION, seed)
            assert abs(int(pair.edit.after[0]) - int(pair.edit.before[0])) == 1

    def test_counting_edges(self):
        pair = synth_caption_pair(SCENE_ONE, HallucinationCategory.COUNTING, seed=0)
        assert pair.edit.before == ("one",)
        assert pair.edit.after == ("two",)
        pair = synth_caption_pair(SCENE_SIX, HallucinationCategory.COUNTING, seed=0)
        assert pair.edit.before == ("six",)
        assert pair.edit.after == ("five",)

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
            r_tokens = pair.real.split()
            h_tokens = pair.hallucinated.split()
            assert len(r_tokens) == len(h_tokens)
            diffs = [i for i, (a, b) in enumerate(zip(r_tokens, h_tokens)) if a != b]
            assert tuple(diffs) == pair.edit.positions
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
        counts = category_counts(samples)
        assert all(counts[c] == 5 for c in HallucinationCategory)
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

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="positive"):
            build_synthetic_dataset(0, seed=1)


class TestDatasetIO:
    def test_round_trip_byte_identical(self, tmp_path):
        samples = build_synthetic_dataset(2, seed=3)
        path = tmp_path / "ds.jsonl"
        dump_dataset(samples, path)
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

    def test_iter_jsonl_numbers_lines_and_skips_blanks(self):
        assert list(iter_jsonl('{"a": 1}\n  \n\n[2]\n')) == [(1, {"a": 1}), (4, [2])]

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

    def test_unknown_image_kind_rejected(self):
        doc = sample_to_json_dict(build_synthetic_dataset(1, seed=1)[0])
        doc["image"] = {"kind": "url", "path": "http://x"}
        with pytest.raises(DatasetError, match="image kind"):
            loads_dataset(json.dumps(doc) + "\n")

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
            DatasetError, match=rf"^line 2: occluded must be true or false, got {value!r}$"
        ):
            loads_dataset(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_occluded_json_boolean_loads_as_is(self, value):
        (sample,) = loads_dataset(self._line_with_occluded(value))
        assert sample.image.scene.objects[0].occluded is value
