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
("A red circle sits at row 0 column 1, ...") and perturbations swap exactly
one token (two for the occlusion phrase), so every hallucinated caption is
classifiable back to its category by the token-diff rules in
:func:`classify_pair`.

Sample wire format, one JSON object per line::

    {"id": ..., "image": {"kind": "file", "path": ...} |
                {"kind": "scene", "scene": {...}},
     "real": ..., "hallucinated": ..., "category": ...}
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .experts import ImageGrid


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

    @property
    def group(self) -> str:
        return _CATEGORY_GROUPS[self]


_CATEGORY_GROUPS = {
    HallucinationCategory.CATEGORY: "Detection",
    HallucinationCategory.COUNTING: "Detection",
    HallucinationCategory.OCCLUSION: "Detection",
    HallucinationCategory.TEXT: "Segmentation",
    HallucinationCategory.SHAPE: "Segmentation",
    HallucinationCategory.ABSOLUTE_POSITION: "Localization",
    HallucinationCategory.RELATIVE_POSITION: "Localization",
    HallucinationCategory.COLOR: "Classification",
    HallucinationCategory.ACTION: "Classification",
    HallucinationCategory.RELATIVE_INTERACTION: "Classification",
}

CATEGORY_NAMES = tuple(c.value for c in HallucinationCategory)

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
    shape: str
    color: str
    cell: tuple
    count_group: int
    occluded: bool = False
    label_text: Optional[str] = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; valid shapes: {', '.join(SHAPES)}")
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}; valid colors: {', '.join(COLORS)}")
        cell = (int(self.cell[0]), int(self.cell[1]))
        if len(tuple(self.cell)) != 2 or not all(0 <= c < SCENE_GRID for c in cell):
            raise ValueError(f"cell {self.cell!r} outside the {SCENE_GRID}x{SCENE_GRID} grid")
        if self.label_text is not None and self.label_text not in LABEL_WORDS:
            raise ValueError(
                f"unknown label {self.label_text!r}; valid labels: {', '.join(LABEL_WORDS)}"
            )
        if self.count_group < 0:
            raise ValueError("count_group must be non-negative")
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


def _json_bool(value, field: str) -> bool:
    # bool("false") is True: only a JSON true/false is a flag.
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be true or false, got {value!r}")
    return value


def scene_from_json_dict(doc: dict) -> SceneDescriptor:
    try:
        objects = tuple(
            SceneObject(
                shape=o["shape"],
                color=o["color"],
                cell=(o["cell"][0], o["cell"][1]),
                count_group=int(o["count_group"]),
                occluded=_json_bool(o["occluded"], "occluded"),
                label_text=o.get("label_text"),
            )
            for o in doc["objects"]
        )
        return SceneDescriptor(seed=int(doc["seed"]), objects=objects)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed scene descriptor: {exc}") from exc


@dataclass(frozen=True)
class ImageRef:
    """Where a sample's pixels come from: a raw image file or an inline scene."""

    kind: str
    path: Optional[str] = None
    scene: Optional[SceneDescriptor] = None

    def __post_init__(self):
        if self.kind == "file":
            if not self.path or self.scene is not None:
                raise ValueError("file image refs need a path and no scene")
        elif self.kind == "scene":
            if self.scene is None or self.path is not None:
                raise ValueError("scene image refs need a scene and no path")
        else:
            raise ValueError(f"unknown image kind {self.kind!r}; expected 'file' or 'scene'")


@dataclass(frozen=True)
class BenchmarkSample:
    id: str
    image: ImageRef
    real_caption: str
    hallucinated_caption: str
    category: HallucinationCategory

    def __post_init__(self):
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not self.real_caption or not self.hallucinated_caption:
            raise ValueError(f"sample {self.id}: captions must be non-empty")
        if self.real_caption == self.hallucinated_caption:
            raise ValueError(f"sample {self.id}: hallucinated caption equals the real caption")
        if not isinstance(self.category, HallucinationCategory):
            raise ValueError(f"sample {self.id}: category must be a HallucinationCategory")


def _cell_shape_masks() -> dict:
    yy, xx = np.mgrid[0:CELL_PIXELS, 0:CELL_PIXELS]
    masks = {
        "circle": (yy - 7.5) ** 2 + (xx - 7.5) ** 2 <= 5.5**2,
        "square": (yy >= 2) & (yy <= 13) & (xx >= 2) & (xx <= 13),
        "triangle": (yy >= 2) & (yy <= 13) & (np.abs(xx - 7.5) <= 0.5 * (yy - 2) + 0.5),
    }
    for mask in masks.values():
        mask.setflags(write=False)
    return masks


# Fixed per-cell drawing geometry, shared read-only by every rasterize call:
# the pixels each shape covers, and the 1-pixel stripe row of a text label.
_SHAPE_MASKS = _cell_shape_masks()
_LABEL_STRIPES = np.where(np.arange(CELL_PIXELS) % 2 == 0, STRIPE_LIGHT, STRIPE_DARK)
_LABEL_STRIPES.setflags(write=False)


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
        cell = canvas[r0 : r0 + CELL_PIXELS, c0 : c0 + CELL_PIXELS]
        cell[_SHAPE_MASKS[obj.shape]] = PALETTE[obj.color]
        if obj.label_text is not None:
            cell[12:16, :, :] = _LABEL_STRIPES[None, :, None]
        if obj.occluded:
            cell[0 : CELL_PIXELS // 2, :, :] = OCCLUDER_VALUE
    return ImageGrid(canvas)


def synth_scene(seed: int):
    """Generate a random scene and its rasterization, deterministically."""
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
    desc = SceneDescriptor(seed=seed, objects=tuple(objects))
    return desc, rasterize(desc)


@dataclass
class _Tok:
    text: str
    role: Optional[str] = None
    obj: Optional[int] = None


def _sentence(tokens: list) -> list:
    tokens[-1] = _Tok(tokens[-1].text + ".", tokens[-1].role, tokens[-1].obj)
    return tokens


def _comma(tok: _Tok) -> _Tok:
    return _Tok(tok.text + ",", tok.role, tok.obj)


def _caption_tokens(desc: SceneDescriptor) -> list:
    objects = desc.objects
    tokens: list = []
    if not objects:
        return _sentence([_Tok("The"), _Tok("scene"), _Tok("is"), _Tok("empty")])
    count = [
        _Tok("The"), _Tok("scene"), _Tok("contains"),
        _Tok(COUNT_WORDS[len(objects) - 1], role="count"),
        _Tok("object" if len(objects) == 1 else "objects"),
    ]
    tokens.extend(_sentence(count))
    for i, obj in enumerate(objects):
        sent = [
            _Tok("A"),
            _Tok(obj.color, role="color", obj=i),
            _Tok(obj.shape, role="shape", obj=i),
            _Tok(STATIVE_VERB, role="verb", obj=i),
            _Tok("at"), _Tok("row"),
            _Tok(str(obj.cell[0]), role="row", obj=i),
            _Tok("column"),
            _Tok(str(obj.cell[1]), role="col", obj=i),
        ]
        if obj.label_text is not None:
            sent[-1] = _comma(sent[-1])
            sent.extend([_Tok("labeled"), _Tok(obj.label_text, role="label", obj=i)])
        if obj.occluded:
            sent[-1] = _comma(sent[-1])
            sent.extend([_Tok("partly", role="occl-a", obj=i), _Tok("hidden", role="occl-b", obj=i)])
        tokens.extend(_sentence(sent))
    if len(objects) >= 2:
        a, b = objects[0], objects[1]
        dr = b.cell[0] - a.cell[0]
        dc = b.cell[1] - a.cell[1]
        sent = [_Tok("The"), _Tok(ORDINAL_WORDS[0]), _Tok("object"), _Tok("is")]
        if dc != 0 and abs(dc) >= abs(dr):
            sent.append(_Tok("left" if dc > 0 else "right", role="rel"))
            sent.append(_Tok("of"))
        else:
            sent.append(_Tok("above" if dr > 0 else "below", role="rel"))
        sent.extend([_Tok("the"), _Tok(ORDINAL_WORDS[1]), _Tok("object")])
        tokens.extend(_sentence(sent))

        i, j = len(objects) - 2, len(objects) - 1
        a, b = objects[i], objects[j]
        adjacent = max(abs(a.cell[0] - b.cell[0]), abs(a.cell[1] - b.cell[1])) == 1
        sent = [
            _Tok("The"), _Tok(ORDINAL_WORDS[i]), _Tok("object"), _Tok("and"),
            _Tok("the"), _Tok(ORDINAL_WORDS[j]), _Tok("object"), _Tok("are"),
            _Tok(INTERACTION_WORDS[0] if adjacent else INTERACTION_WORDS[1], role="inter"),
        ]
        tokens.extend(_sentence(sent))
    return tokens


def _render(tokens: list) -> str:
    return " ".join(t.text for t in tokens)


def _strip_word(text: str) -> str:
    return text.rstrip(".,")


def _swap(tokens: list, index: int, new_word: str) -> list:
    old = tokens[index]
    suffix = old.text[len(_strip_word(old.text)) :]
    out = list(tokens)
    out[index] = _Tok(new_word + suffix, old.role, old.obj)
    return out


def synth_caption(desc: SceneDescriptor) -> str:
    """The factual caption enumerating the scene."""
    return _render(_caption_tokens(desc))


@dataclass(frozen=True)
class TokenEdit:
    category: HallucinationCategory
    positions: tuple
    before: tuple
    after: tuple


@dataclass(frozen=True)
class CaptionPair:
    real: str
    hallucinated: str
    edit: TokenEdit


def _positions(tokens: list, role: str, obj: Optional[int] = None) -> list:
    return [
        i
        for i, t in enumerate(tokens)
        if t.role == role and (obj is None or t.obj == obj)
    ]


def synth_caption_pair(
    desc: SceneDescriptor, category: HallucinationCategory, seed: int
) -> Optional[CaptionPair]:
    """Derive a (real, hallucinated) caption pair for one category.

    Returns None when the scene cannot support the category (no occluded
    object for Occlusion, no unused color for Color, and so on).  The
    hallucinated caption differs from the real one in exactly one token,
    except Occlusion which swaps the two-token visibility phrase.
    """
    rng = random.Random(seed)
    tokens = _caption_tokens(desc)
    objects = desc.objects
    edit_positions: list = []
    new_words: list = []

    if category is HallucinationCategory.COLOR:
        unused = [c for c in COLORS if all(o.color != c for o in objects)]
        if not objects or not unused:
            return None
        i = rng.randrange(len(objects))
        edit_positions = _positions(tokens, "color", i)
        new_words = [rng.choice(unused)]
    elif category is HallucinationCategory.CATEGORY:
        absent = [s for s in SHAPES if all(o.shape != s for o in objects)]
        if not objects or not absent:
            return None
        i = rng.randrange(len(objects))
        edit_positions = _positions(tokens, "shape", i)
        new_words = [rng.choice(absent)]
    elif category is HallucinationCategory.SHAPE:
        present = sorted({o.shape for o in objects})
        if len(present) < 2:
            return None
        i = rng.randrange(len(objects))
        others = [s for s in present if s != objects[i].shape]
        edit_positions = _positions(tokens, "shape", i)
        new_words = [rng.choice(others)]
    elif category is HallucinationCategory.COUNTING:
        if not objects:
            return None
        n = len(objects)
        candidates = [m for m in (n - 1, n + 1) if 1 <= m <= MAX_OBJECTS]
        edit_positions = _positions(tokens, "count")
        new_words = [COUNT_WORDS[rng.choice(candidates) - 1]]
    elif category is HallucinationCategory.OCCLUSION:
        hidden = [i for i, o in enumerate(objects) if o.occluded]
        if not hidden:
            return None
        i = rng.choice(hidden)
        edit_positions = _positions(tokens, "occl-a", i) + _positions(tokens, "occl-b", i)
        new_words = ["fully", "visible"]
    elif category is HallucinationCategory.TEXT:
        labeled = [i for i, o in enumerate(objects) if o.label_text is not None]
        if not labeled:
            return None
        i = rng.choice(labeled)
        others = [w for w in LABEL_WORDS if w != objects[i].label_text]
        edit_positions = _positions(tokens, "label", i)
        new_words = [rng.choice(others)]
    elif category is HallucinationCategory.ABSOLUTE_POSITION:
        if not objects:
            return None
        i = rng.randrange(len(objects))
        r, c = objects[i].cell
        moves = []
        for axis, value in (("row", r), ("col", c)):
            for delta in (-1, 1):
                if 0 <= value + delta < SCENE_GRID:
                    moves.append((axis, value + delta))
        axis, value = moves[rng.randrange(len(moves))]
        edit_positions = _positions(tokens, axis, i)
        new_words = [str(value)]
    elif category is HallucinationCategory.RELATIVE_POSITION:
        edit_positions = _positions(tokens, "rel")
        if not edit_positions:
            return None
        word = _strip_word(tokens[edit_positions[0]].text)
        opposite = {"left": "right", "right": "left", "above": "below", "below": "above"}
        new_words = [opposite[word]]
    elif category is HallucinationCategory.RELATIVE_INTERACTION:
        edit_positions = _positions(tokens, "inter")
        if not edit_positions:
            return None
        word = _strip_word(tokens[edit_positions[0]].text)
        new_words = ["apart" if word == "touching" else "touching"]
    elif category is HallucinationCategory.ACTION:
        if not objects:
            return None
        i = rng.randrange(len(objects))
        edit_positions = _positions(tokens, "verb", i)
        new_words = [rng.choice(DYNAMIC_VERBS)]
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unhandled category {category}")

    perturbed = tokens
    before = []
    for pos, word in zip(edit_positions, new_words):
        before.append(_strip_word(tokens[pos].text))
        perturbed = _swap(perturbed, pos, word)
    return CaptionPair(
        real=_render(tokens),
        hallucinated=_render(perturbed),
        edit=TokenEdit(
            category=category,
            positions=tuple(edit_positions),
            before=tuple(before),
            after=tuple(new_words),
        ),
    )


def classify_pair(real: str, hallucinated: str) -> Optional[HallucinationCategory]:
    """Classify an (R, H) pair back to its category from the token diff alone.

    Returns None when the diff does not match any category's edit rule; the
    synthetic generator is expected to always produce classifiable pairs.
    """
    r_tokens = [_strip_word(t) for t in real.split()]
    h_tokens = [_strip_word(t) for t in hallucinated.split()]
    if len(r_tokens) != len(h_tokens):
        return None
    diffs = [i for i, (a, b) in enumerate(zip(r_tokens, h_tokens)) if a != b]
    if len(diffs) == 2 and diffs[1] == diffs[0] + 1:
        a = (r_tokens[diffs[0]], r_tokens[diffs[1]])
        b = (h_tokens[diffs[0]], h_tokens[diffs[1]])
        if a == ("partly", "hidden") and b == ("fully", "visible"):
            return HallucinationCategory.OCCLUSION
        return None
    if len(diffs) != 1:
        return None
    a, b = r_tokens[diffs[0]], h_tokens[diffs[0]]
    if a in COLORS and b in COLORS:
        return HallucinationCategory.COLOR
    if a in SHAPES and b in SHAPES:
        rest = [t for i, t in enumerate(r_tokens) if i != diffs[0]]
        present_elsewhere = b in rest
        return (
            HallucinationCategory.SHAPE
            if present_elsewhere
            else HallucinationCategory.CATEGORY
        )
    if a in COUNT_WORDS and b in COUNT_WORDS:
        return HallucinationCategory.COUNTING
    if a.isdigit() and b.isdigit():
        return HallucinationCategory.ABSOLUTE_POSITION
    if {a, b} <= set(HORIZONTAL_RELATIONS) or {a, b} <= set(VERTICAL_RELATIONS):
        return HallucinationCategory.RELATIVE_POSITION
    if {a, b} <= set(INTERACTION_WORDS):
        return HallucinationCategory.RELATIVE_INTERACTION
    if a == STATIVE_VERB and b in DYNAMIC_VERBS:
        return HallucinationCategory.ACTION
    if a in LABEL_WORDS and b in LABEL_WORDS:
        return HallucinationCategory.TEXT
    return None


def build_synthetic_dataset(
    n_per_category: int, seed: int, categories=None
) -> list:
    """Build n samples per category over random scenes.

    Scenes that cannot support a category are skipped and regenerated, so all
    categories end up with exactly ``n_per_category`` samples.  Fully
    deterministic for a given (n_per_category, seed, categories).
    """
    if n_per_category < 1:
        raise ValueError(f"n_per_category must be positive, got {n_per_category}")
    categories = tuple(categories) if categories is not None else tuple(HallucinationCategory)
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
            desc, _ = synth_scene(rng.getrandbits(32))
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


def category_counts(samples) -> dict:
    """Sample count per category, with zeros for absent categories."""
    counts = {category: 0 for category in HallucinationCategory}
    for sample in samples:
        counts[sample.category] += 1
    return counts


def image_ref_to_json_dict(ref: ImageRef) -> dict:
    if ref.kind == "file":
        return {"kind": "file", "path": ref.path}
    return {"kind": "scene", "scene": scene_to_json_dict(ref.scene)}


def image_ref_from_json_dict(doc) -> ImageRef:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("image must be an object with a 'kind' field")
    if doc["kind"] == "file":
        return ImageRef(kind="file", path=doc.get("path"))
    if doc["kind"] == "scene":
        return ImageRef(kind="scene", scene=scene_from_json_dict(doc.get("scene") or {}))
    raise ValueError(f"unknown image kind {doc['kind']!r}")


def sample_to_json_dict(sample: BenchmarkSample) -> dict:
    return {
        "id": sample.id,
        "image": image_ref_to_json_dict(sample.image),
        "real": sample.real_caption,
        "hallucinated": sample.hallucinated_caption,
        "category": sample.category.value,
    }


def _sample_from_json_dict(doc: dict) -> BenchmarkSample:
    sample_id, image, real, hallucinated, category = (
        doc["id"], doc["image"], doc["real"], doc["hallucinated"], doc["category"]
    )
    if category not in CATEGORY_NAMES:
        raise ValueError(
            f"unknown category {category!r}; valid categories: " + ", ".join(CATEGORY_NAMES)
        )
    return BenchmarkSample(
        id=str(sample_id),
        image=image_ref_from_json_dict(image),
        real_caption=str(real),
        hallucinated_caption=str(hallucinated),
        category=HallucinationCategory(category),
    )


def iter_jsonl(text: str):
    """Yield ``(line_num, doc)`` per non-blank line (1-based numbers);
    a line that does not parse raises ``DatasetError``."""
    for line_num, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {line_num}: invalid JSON: {exc}") from exc
        yield line_num, doc


def parse_jsonl(text: str, parse, empty_message: str) -> list:
    """``parse(doc)`` for each record of a JSONL text, in order.

    A missing field (``KeyError``) or a rejected value (``TypeError``,
    ``ValueError``) raises ``DatasetError`` naming the line; a text without
    records raises ``DatasetError(empty_message)``.
    """
    records = []
    for line_num, doc in iter_jsonl(text):
        try:
            records.append(parse(doc))
        except KeyError as exc:
            raise DatasetError(f"line {line_num}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"line {line_num}: {exc}") from exc
    if not records:
        raise DatasetError(empty_message)
    return records


def dumps_jsonl(docs) -> str:
    """Canonical JSONL: one compact, key-sorted JSON object per line."""
    return "".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs)


def loads_dataset(text: str) -> list:
    seen_ids = set()

    def parse(doc):
        sample = _sample_from_json_dict(doc)
        if sample.id in seen_ids:
            raise ValueError(f"duplicate id {sample.id!r}")
        seen_ids.add(sample.id)
        return sample

    return parse_jsonl(text, parse, "dataset contains no samples")


def load_dataset(path) -> list:
    """Parse and validate a JSONL dataset file."""
    return loads_dataset(Path(path).read_text(encoding="utf-8"))


def dumps_dataset(samples) -> str:
    return dumps_jsonl(sample_to_json_dict(s) for s in samples)


def dump_dataset(samples, path) -> None:
    Path(path).write_text(dumps_dataset(samples), encoding="utf-8")
