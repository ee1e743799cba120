"""Fine-grained hallucination benchmark datasets.

A dataset is a JSONL file of ternary samples: an image reference, a factual
caption R, and a hallucinated caption H that differs from R by exactly one
category-consistent edit.  Ten hallucination categories are covered, grouped
by the visual capability they stress:

* Detection: Category, Counting, Occlusion
* Segmentation: Text, Shape
* Localization: AbsolutePosition, RelativePosition
* Classification: Color, Action, RelativeInteraction

Synthetic samples are built over scene descriptors: up to six colored shapes
on a 4x4 grid, optionally occluded or carrying a striped text label, that
rasterize deterministically to a 64x64 image.  Captions enumerate the scene
("A red circle sits at row 0 column 1, ...") in a fixed grammar whose
keywords each play one role (``WORD_ROLES``): a caption is a list of claims
(:func:`caption_claims`).  A perturbation swaps exactly one claim word (two
for the occlusion phrase), so :func:`classify_pair` recovers every
hallucinated caption's category by diffing the two captions' claims.

Sample wire format, one JSON object per line::

    {"id": ..., "image": {"kind": "file", "path": ...} |
                {"kind": "scene", "scene": {...}},
     "real": ..., "hallucinated": ..., "category": ...}
"""

from __future__ import annotations

import enum
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .experts import (
    ImageGrid, _unchecked, check_known_keys, check_rules, json_field, json_fields, rule, ruled
)


class HallucinationCategory(enum.Enum):
    CATEGORY = "Category"
    COUNTING = "Counting"
    OCCLUSION = "Occlusion"
    TEXT = "Text"
    SHAPE = "Shape"
    ABSOLUTE_POSITION = "AbsolutePosition"
    RELATIVE_POSITION = "RelativePosition"
    COLOR = "Color"
    ACTION = "Action"
    RELATIVE_INTERACTION = "RelativeInteraction"

CATEGORY_NAMES = tuple(c.value for c in HallucinationCategory)
_CATEGORY_BY_NAME = {c.value: c for c in HallucinationCategory}
_CATEGORY = rule("one of", CATEGORY_NAMES)

SHAPES = ("circle", "square", "triangle")
COLORS = ("red", "green", "blue", "yellow")
LABEL_WORDS = ("EXIT", "STOP", "OPEN", "SALE")
COUNT_WORDS = ("one", "two", "three", "four", "five", "six")
ORDINAL_WORDS = ("first", "second", "third", "fourth", "fifth", "sixth")
STATIVE_VERB = "sits"
DYNAMIC_VERBS = ("spins", "rolls", "slides", "bounces")
HORIZONTAL_RELATIONS = ("left", "right")
VERTICAL_RELATIONS = ("above", "below")
INTERACTION_WORDS = ("touching", "apart")
HIDDEN_PHRASE = ("partly", "hidden")
VISIBLE_PHRASE = ("fully", "visible")

SCENE_GRID = 4
CELL_PIXELS = 16
SCENE_PIXELS = SCENE_GRID * CELL_PIXELS
MAX_OBJECTS = 6

# Palette values are chosen so 8-bin histograms separate cleanly: saturated
# channels land in bin 7, background and occluder in bin 4, stripe pixels in
# bins 6 and 0.
PALETTE = {
    "red": (0.9, 0.1, 0.1),
    "green": (0.1, 0.9, 0.1),
    "blue": (0.1, 0.1, 0.9),
    "yellow": (0.9, 0.9, 0.1),
}
BACKGROUND_VALUE = 0.5
OCCLUDER_VALUE = 0.55
STRIPE_LIGHT = 0.85
STRIPE_DARK = 0.05


class DatasetError(ValueError):
    """A dataset file failed validation; messages carry line numbers."""


@dataclass(frozen=True)
class SceneObject:
    shape: str = ruled("one of", SHAPES)
    color: str = ruled("one of", COLORS)
    cell: tuple
    count_group: int = ruled(">= 0")
    occluded: bool = False
    label_text: Optional[str] = ruled("one of", LABEL_WORDS, default=None)

    def __post_init__(self):
        check_rules(self)
        cell = tuple(self.cell) if isinstance(self.cell, (tuple, list)) else ()
        if len(cell) != 2 or not all(type(c) is int for c in cell):
            raise ValueError(f"cell must be two integers, got {self.cell!r}")
        if not all(0 <= c < SCENE_GRID for c in cell):
            raise ValueError(f"cell {cell!r} outside the {SCENE_GRID}x{SCENE_GRID} grid")
        object.__setattr__(self, "cell", cell)


@dataclass(frozen=True)
class SceneDescriptor:
    """A deterministic scene: seed plus up to six placed objects.

    Objects are kept in row-major cell order and count_group ids index the
    first object sharing the same (shape, color) combination.
    """

    seed: int
    objects: tuple

    def __post_init__(self):
        objects = tuple(self.objects)
        if len(objects) > MAX_OBJECTS:
            raise ValueError(f"at most {MAX_OBJECTS} objects supported, got {len(objects)}")
        cells = [o.cell for o in objects]
        if len(set(cells)) != len(cells):
            raise ValueError("objects must occupy distinct cells")
        if cells != sorted(cells):
            raise ValueError("objects must be listed in row-major cell order")
        combos: dict = {}
        for i, obj in enumerate(objects):
            combo = (obj.shape, obj.color)
            expected = combos.setdefault(combo, i)
            if obj.count_group != expected:
                raise ValueError(
                    f"object {i}: count_group {obj.count_group} should be {expected} "
                    f"(first object with shape/color {combo})"
                )
        object.__setattr__(self, "objects", objects)


def scene_to_json_dict(desc: SceneDescriptor) -> dict:
    # An object's fields are its instance dict, in declaration order; asdict
    # would deep-copy each field and make dataset dumps three times slower.
    return {
        "seed": desc.seed,
        "objects": [{**vars(o), "cell": list(o.cell)} for o in desc.objects],
    }


def scene_from_json_dict(doc) -> SceneDescriptor:
    check_known_keys(SceneDescriptor.__dataclass_fields__, doc, "scene")
    objects = tuple(
        SceneObject(**json_fields(SceneObject, o, "scene object"))
        for o in json_field(doc, "objects", list)
    )
    return SceneDescriptor(seed=json_field(doc, "seed", int), objects=objects)


@dataclass(frozen=True)
class ImageRef:
    """Where a sample's pixels come from: a raw image file or an inline scene."""

    kind: str = ruled("one of", ("file", "scene"))
    path: Optional[str] = None
    scene: Optional[SceneDescriptor] = None

    def __post_init__(self):
        check_rules(self)
        if self.kind == "file":
            if not self.path or self.scene is not None:
                raise ValueError("file image refs need a path and no scene")
        elif self.scene is None or self.path is not None:
            raise ValueError("scene image refs need a scene and no path")


@dataclass(frozen=True)
class BenchmarkSample:
    id: str = ruled("non-blank")
    image: ImageRef
    real_caption: str = ruled("non-blank")
    hallucinated_caption: str = ruled("non-blank")
    category: HallucinationCategory

    def __post_init__(self):
        check_rules(self)
        if self.real_caption == self.hallucinated_caption:
            raise ValueError(f"sample {self.id}: hallucinated caption equals the real caption")
        if not isinstance(self.category, HallucinationCategory):
            raise ValueError(f"sample {self.id}: category must be a HallucinationCategory")


def _cell_tiles() -> dict:
    """The read-only picture of a cell holding each possible object, keyed by
    ``(shape, color, labelled, occluded)``: the shape's pixels in the palette
    color on the background, then the label's 1-pixel vertical stripes along
    the cell bottom, then the occluder gray over the top half."""
    yy, xx = np.mgrid[0:CELL_PIXELS, 0:CELL_PIXELS]
    masks = {
        "circle": (yy - 7.5) ** 2 + (xx - 7.5) ** 2 <= 5.5**2,
        "square": (yy >= 2) & (yy <= 13) & (xx >= 2) & (xx <= 13),
        "triangle": (yy >= 2) & (yy <= 13) & (np.abs(xx - 7.5) <= 0.5 * (yy - 2) + 0.5),
    }
    stripes = np.where(np.arange(CELL_PIXELS) % 2 == 0, STRIPE_LIGHT, STRIPE_DARK)
    tiles = {}
    for shape, color, labelled, occluded in itertools.product(
        SHAPES, COLORS, (False, True), (False, True)
    ):
        tile = np.full((CELL_PIXELS, CELL_PIXELS, 3), BACKGROUND_VALUE)
        tile[masks[shape]] = PALETTE[color]
        if labelled:
            tile[12:16, :, :] = stripes[None, :, None]
        if occluded:
            tile[0 : CELL_PIXELS // 2, :, :] = OCCLUDER_VALUE
        tile.setflags(write=False)
        tiles[shape, color, labelled, occluded] = tile
    return tiles


# Shared read-only by every rasterize call.  A scene holds at most one object
# per cell, so each cell of a canvas is the background or one of these tiles.
_CELL_TILES = _cell_tiles()


def rasterize(desc: SceneDescriptor) -> ImageGrid:
    """Draw the scene onto a 64x64 canvas.

    Shapes fill their cell with the palette color; labels render as a block of
    1-pixel vertical stripes along the cell bottom; occluded objects get the
    top half of their cell painted over with the occluder gray.  Pure integer
    geometry plus fixed palette constants, so output bytes are stable.
    """
    canvas = np.full((SCENE_PIXELS, SCENE_PIXELS, 3), BACKGROUND_VALUE)
    for obj in desc.objects:
        r0 = obj.cell[0] * CELL_PIXELS
        c0 = obj.cell[1] * CELL_PIXELS
        canvas[r0 : r0 + CELL_PIXELS, c0 : c0 + CELL_PIXELS] = _CELL_TILES[
            obj.shape, obj.color, obj.label_text is not None, obj.occluded
        ]
    # Palette constants only: the canvas is in [0, 1] by construction.
    return _unchecked(ImageGrid, data=canvas)


def draw_scene(seed: int) -> SceneDescriptor:
    """Draw a random scene descriptor, deterministically; nothing is rendered."""
    rng = random.Random(seed)
    n = rng.randint(1, MAX_OBJECTS)
    cells = sorted(rng.sample([(r, c) for r in range(SCENE_GRID) for c in range(SCENE_GRID)], n))
    combos: list = []
    objects = []
    group_of: dict = {}
    for i, cell in enumerate(cells):
        if combos and rng.random() < 0.4:
            combo = rng.choice(combos)
        else:
            combo = (rng.choice(SHAPES), rng.choice(COLORS))
        combos.append(combo)
        group = group_of.setdefault(combo, i)
        objects.append(
            SceneObject(
                shape=combo[0],
                color=combo[1],
                cell=cell,
                count_group=group,
                occluded=rng.random() < 0.3,
                label_text=rng.choice(LABEL_WORDS) if rng.random() < 0.3 else None,
            )
        )
    return SceneDescriptor(seed=seed, objects=tuple(objects))


def synth_scene(seed: int):
    """Generate a random scene and its rasterization, deterministically."""
    desc = draw_scene(seed)
    return desc, rasterize(desc)


# The caption grammar.  Every keyword a caption can claim something with, and
# the role it plays; a row or column number takes its role from the word
# before it.  Object sentences start with "A", scene sentences with "The".
WORD_ROLES = {
    **dict.fromkeys(COUNT_WORDS, "count"),
    **dict.fromkeys(COLORS, "color"),
    **dict.fromkeys(SHAPES, "shape"),
    **dict.fromkeys((STATIVE_VERB,) + DYNAMIC_VERBS, "verb"),
    **dict.fromkeys(LABEL_WORDS, "label"),
    **dict.fromkeys(HIDDEN_PHRASE + VISIBLE_PHRASE, "occlusion"),
    **dict.fromkeys(HORIZONTAL_RELATIONS + VERTICAL_RELATIONS, "relation"),
    **dict.fromkeys(INTERACTION_WORDS, "interaction"),
}
_NUMBER_ROLES = {"row": "row", "column": "col"}
_OPPOSITE = {
    "left": "right", "right": "left", "above": "below", "below": "above",
    "touching": "apart", "apart": "touching",
}
_ROLE_CATEGORIES = {
    "count": HallucinationCategory.COUNTING,
    "color": HallucinationCategory.COLOR,
    "verb": HallucinationCategory.ACTION,
    "label": HallucinationCategory.TEXT,
    "occlusion": HallucinationCategory.OCCLUSION,
    "relation": HallucinationCategory.RELATIVE_POSITION,
    "interaction": HallucinationCategory.RELATIVE_INTERACTION,
    "row": HallucinationCategory.ABSOLUTE_POSITION,
    "col": HallucinationCategory.ABSOLUTE_POSITION,
}


def _strip_word(text: str) -> str:
    return text.rstrip(".,")


def _relation(a: SceneObject, b: SceneObject) -> str:
    """Where ``a`` lies relative to ``b``: the dominant axis, rows on a tie."""
    dr = b.cell[0] - a.cell[0]
    dc = b.cell[1] - a.cell[1]
    if dc != 0 and abs(dc) >= abs(dr):
        return "left" if dc > 0 else "right"
    return "above" if dr > 0 else "below"


def _interaction(a: SceneObject, b: SceneObject) -> str:
    adjacent = max(abs(a.cell[0] - b.cell[0]), abs(a.cell[1] - b.cell[1])) == 1
    return INTERACTION_WORDS[0] if adjacent else INTERACTION_WORDS[1]


def synth_caption(desc: SceneDescriptor) -> str:
    """The factual caption enumerating the scene."""
    objects = desc.objects
    n = len(objects)
    if not n:
        return "The scene is empty."
    sentences = [f"The scene contains {COUNT_WORDS[n - 1]} object{'s' if n > 1 else ''}."]
    for obj in objects:
        row, col = obj.cell
        sentence = f"A {obj.color} {obj.shape} {STATIVE_VERB} at row {row} column {col}"
        if obj.label_text is not None:
            sentence += f", labeled {obj.label_text}"
        if obj.occluded:
            sentence += ", " + " ".join(HIDDEN_PHRASE)
        sentences.append(sentence + ".")
    if n >= 2:
        relation = _relation(objects[0], objects[1])
        of = " of" if relation in HORIZONTAL_RELATIONS else ""
        sentences.append(
            f"The {ORDINAL_WORDS[0]} object is {relation}{of} the {ORDINAL_WORDS[1]} object."
        )
        i, j = n - 2, n - 1
        sentences.append(
            f"The {ORDINAL_WORDS[i]} object and the {ORDINAL_WORDS[j]} object are "
            f"{_interaction(objects[i], objects[j])}."
        )
    return " ".join(sentences)


def caption_claims(caption: str) -> list:
    """The ``(role, obj, value, index)`` claims a caption makes.

    ``value`` is the claiming word without trailing punctuation and ``index``
    its whitespace-token position.  ``obj`` numbers the "A ..." object
    sentences from 0 and is None for claims in "The ..." scene sentences.
    Words match ``WORD_ROLES`` case-sensitively.
    """
    claims = []
    obj = None
    objects = 0
    prev = None
    for index, token in enumerate(caption.split()):
        word = _strip_word(token)
        if word == "A":
            obj, objects = objects, objects + 1
        elif word == "The":
            obj = None
        role = WORD_ROLES.get(word)
        if role is None and word.isdigit():
            role = _NUMBER_ROLES.get(prev)
        if role is not None:
            claims.append((role, obj, word, index))
        prev = word
    return claims


@dataclass(frozen=True)
class CaptionPair:
    real: str
    hallucinated: str


def _pick_edit(desc: SceneDescriptor, category: HallucinationCategory, rng) -> Optional[tuple]:
    """``(role, obj, new_words)`` of one edit the scene supports, or None."""
    C = HallucinationCategory
    objects = desc.objects
    n = len(objects)
    if category is C.COLOR or category is C.CATEGORY:
        attr, vocab = ("color", COLORS) if category is C.COLOR else ("shape", SHAPES)
        unused = [w for w in vocab if all(getattr(o, attr) != w for o in objects)]
        if not n or not unused:
            return None
        i = rng.randrange(n)
        return attr, i, [rng.choice(unused)]
    if category is C.SHAPE:
        present = sorted({o.shape for o in objects})
        if len(present) < 2:
            return None
        i = rng.randrange(n)
        return "shape", i, [rng.choice([s for s in present if s != objects[i].shape])]
    if category is C.OCCLUSION:
        hidden = [i for i, o in enumerate(objects) if o.occluded]
        return ("occlusion", rng.choice(hidden), list(VISIBLE_PHRASE)) if hidden else None
    if category is C.TEXT:
        labeled = [i for i, o in enumerate(objects) if o.label_text is not None]
        if not labeled:
            return None
        i = rng.choice(labeled)
        return "label", i, [rng.choice([w for w in LABEL_WORDS if w != objects[i].label_text])]
    if category is C.RELATIVE_POSITION or category is C.RELATIVE_INTERACTION:
        if n < 2:
            return None
        if category is C.RELATIVE_POSITION:
            return "relation", None, [_OPPOSITE[_relation(objects[0], objects[1])]]
        return "interaction", None, [_OPPOSITE[_interaction(objects[-2], objects[-1])]]
    if not n:
        return None
    if category is C.COUNTING:
        candidates = [m for m in (n - 1, n + 1) if 1 <= m <= MAX_OBJECTS]
        return "count", None, [COUNT_WORDS[rng.choice(candidates) - 1]]
    i = rng.randrange(n)
    if category is C.ACTION:
        return "verb", i, [rng.choice(DYNAMIC_VERBS)]
    moves = [
        (axis, value + delta)
        for axis, value in zip(("row", "col"), objects[i].cell)
        for delta in (-1, 1)
        if 0 <= value + delta < SCENE_GRID
    ]
    axis, value = moves[rng.randrange(len(moves))]
    return axis, i, [str(value)]


def synth_caption_pair(
    desc: SceneDescriptor, category: HallucinationCategory, seed: int
) -> Optional[CaptionPair]:
    """Derive a (real, hallucinated) caption pair for one category.

    Returns None when the scene cannot support the category (no occluded
    object for Occlusion, no unused color for Color, and so on).  The
    hallucinated caption differs from the real one in exactly one claim
    word, except Occlusion which swaps the two-word visibility phrase.
    """
    picked = _pick_edit(desc, category, random.Random(seed))
    if picked is None:
        return None
    role, obj, after = picked
    real = synth_caption(desc)
    claims = caption_claims(real)
    edited = [(index, value) for r, o, value, index in claims if r == role and o == obj]
    tokens = real.split()
    for (index, value), word in zip(edited, after):
        tokens[index] = word + tokens[index][len(value) :]
    return CaptionPair(real=real, hallucinated=" ".join(tokens))


def classify_pair(real: str, hallucinated: str) -> Optional[HallucinationCategory]:
    """Classify an (R, H) pair back to its category by diffing their claims.

    The differing words must be claims of one role in both captions; the role
    names the category.  Three roles need more: a shape swapped to a shape
    claimed elsewhere is Shape (else Category), an occlusion edit must turn
    the adjacent phrase "partly hidden" into "fully visible", a relation must
    turn into its opposite and a verb from stative to dynamic.  Returns None
    otherwise; synthetic pairs always classify.
    """
    r_words = [_strip_word(t) for t in real.split()]
    h_words = [_strip_word(t) for t in hallucinated.split()]
    if len(r_words) != len(h_words):
        return None
    diffs = [i for i, (a, b) in enumerate(zip(r_words, h_words)) if a != b]
    if not 1 <= len(diffs) <= 2:
        return None
    r_roles = {index: role for role, _, _, index in caption_claims(real)}
    h_roles = {index: role for role, _, _, index in caption_claims(hallucinated)}
    roles = {r_roles.get(i) for i in diffs} | {h_roles.get(i) for i in diffs}
    if len(roles) != 1 or None in roles:
        return None
    role = roles.pop()
    before = tuple(r_words[i] for i in diffs)
    after = tuple(h_words[i] for i in diffs)
    if role == "occlusion" or len(diffs) == 2:
        # Only the adjacent visibility phrase changes, and only as a whole.
        if (before, after) != (HIDDEN_PHRASE, VISIBLE_PHRASE) or diffs[1] != diffs[0] + 1:
            return None
    elif role == "shape":
        claimed = {r_words[i] for i, r in r_roles.items() if r == "shape"}
        if after[0] in claimed:
            return HallucinationCategory.SHAPE
        return HallucinationCategory.CATEGORY
    elif role == "relation" and _OPPOSITE[before[0]] != after[0]:
        return None
    elif role == "verb" and (before[0] != STATIVE_VERB or after[0] not in DYNAMIC_VERBS):
        return None
    return _ROLE_CATEGORIES[role]


def build_synthetic_dataset(
    n_per_category: int, seed: int, categories=None
) -> list:
    """Build n samples per category over random scenes.

    Scenes that cannot support a category are skipped and regenerated, so all
    categories end up with exactly ``n_per_category`` samples.  Fully
    deterministic for a given (n_per_category, seed, categories); the
    categories must be distinct, since a sample's id comes from its category.
    """
    rule(">= 1").check(n_per_category, "n_per_category")
    categories = tuple(categories) if categories is not None else tuple(HallucinationCategory)
    if len(set(categories)) != len(categories):
        raise ValueError("categories must be distinct")
    samples = []
    for category in categories:
        rng = random.Random(f"{seed}:{category.value}")
        collected = 0
        attempts = 0
        limit = 1000 * n_per_category + 1000
        while collected < n_per_category:
            attempts += 1
            if attempts > limit:
                raise RuntimeError(
                    f"could not generate {n_per_category} {category.value} samples "
                    f"after {limit} attempts"
                )
            desc = draw_scene(rng.getrandbits(32))
            pair = synth_caption_pair(desc, category, rng.getrandbits(32))
            if pair is None:
                continue
            samples.append(
                BenchmarkSample(
                    id=f"{category.value.lower()}-{seed}-{collected:04d}",
                    image=ImageRef(kind="scene", scene=desc),
                    real_caption=pair.real,
                    hallucinated_caption=pair.hallucinated,
                    category=category,
                )
            )
            collected += 1
    return samples


def image_ref_to_json_dict(ref: ImageRef) -> dict:
    if ref.kind == "file":
        return {"kind": "file", "path": ref.path}
    return {"kind": "scene", "scene": scene_to_json_dict(ref.scene)}


def image_ref_from_json_dict(doc) -> ImageRef:
    ref = json_fields(ImageRef, doc, "image")
    # A key of the other kind is passed on for ImageRef to reject.
    if "scene" in ref:
        ref["scene"] = scene_from_json_dict(ref["scene"])
    return ImageRef(**ref)


def sample_to_json_dict(sample: BenchmarkSample) -> dict:
    return {
        "id": sample.id,
        "image": image_ref_to_json_dict(sample.image),
        "real": sample.real_caption,
        "hallucinated": sample.hallucinated_caption,
        "category": sample.category.value,
    }


def _sample_from_json_dict(doc: dict) -> BenchmarkSample:
    check_known_keys(("id", "image", "real", "hallucinated", "category"), doc, "sample")
    return BenchmarkSample(
        id=json_field(doc, "id", str),
        image=image_ref_from_json_dict(doc["image"]),
        real_caption=json_field(doc, "real", str),
        hallucinated_caption=json_field(doc, "hallucinated", str),
        category=category_field(doc),
    )


def category_field(doc: dict) -> HallucinationCategory:
    """``doc["category"]`` as a category; ``ValueError`` listing the valid
    names for any other string."""
    return _CATEGORY_BY_NAME[_CATEGORY.check(json_field(doc, "category", str), "category")]


def parse_jsonl(text: str, parse, empty_message: str) -> list:
    """``parse(doc)`` for each non-blank line of a JSONL text, in order.

    An unparseable line, a missing field (``KeyError``) or a rejected value
    (``TypeError``, ``ValueError``) raises ``DatasetError`` naming the line,
    counted from 1 with blank lines included; a text without records raises
    ``DatasetError(empty_message)``.
    """
    records = []
    for line_num, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(parse(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {line_num}: invalid JSON: {exc}") from exc
        except KeyError as exc:
            raise DatasetError(f"line {line_num}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"line {line_num}: {exc}") from exc
    if not records:
        raise DatasetError(empty_message)
    return records


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_jsonl(docs) -> str:
    """Canonical JSONL: one compact, key-sorted JSON object per line."""
    return "".join(_JSONL_ENCODER.encode(doc) + "\n" for doc in docs)


def unique_by(parse, key: str):
    """``parse``, rejecting a record whose ``key`` attribute an earlier
    record of the same file already had."""
    seen = set()

    def checked(doc):
        record = parse(doc)
        value = getattr(record, key)
        if value in seen:
            raise ValueError(f"duplicate {key} {value!r}")
        seen.add(value)
        return record

    return checked


def loads_dataset(text: str) -> list:
    return parse_jsonl(text, unique_by(_sample_from_json_dict, "id"), "dataset contains no samples")


def load_dataset(path) -> list:
    """Parse and validate a JSONL dataset file."""
    return loads_dataset(Path(path).read_text(encoding="utf-8"))


def dumps_dataset(samples) -> str:
    return dumps_jsonl(sample_to_json_dict(s) for s in samples)
