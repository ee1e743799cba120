"""One rule vocabulary for every boundary: dataclass fields and CLI flags.

The walk finds every rule from the code itself, the field rules from
dataclass field metadata and the flag rules from the parser's flag types,
so a rule added later is covered here without a new test.  Each rule's
``edges`` pair a boundary value it accepts with the nearest value it
rejects; the accepted value must build, and the rejected one must fail with
the exact ``<field> must be <rule>, got <value>`` message (``argument
--flag: must be <rule>, got <value>`` for a flag).
"""

import builtins
import dataclasses
import importlib
import math
import pkgutil

import pytest

import routebench
from routebench.benchmark import (
    BenchmarkSample, HallucinationCategory, ImageRef, SceneDescriptor, SceneObject
)
from routebench.cli import build_parser, main
from routebench.datagen import CATEGORY_SPECS, CategorySpec, ClientShape, DatagenConfig
from routebench.evaluator import AffinityConfig, radar_csv, toy_judging_config
from routebench.experts import ToyExpertSpec, json_fields, rule
from routebench.fusion import FusionStrategy, PipelineConfig
from routebench.metrics import BinaryOutcome
from routebench.router import ToyClipParams

# One valid instance of each class with a ruled field, whose other fields
# stay valid at every edge value of a rule.
VALID = {
    ToyExpertSpec: ToyExpertSpec(0, "edge-shape", 0, 16, 8),
    ToyClipParams: ToyClipParams(seed=0, tokens=4, dim=4),
    FusionStrategy: FusionStrategy("routed"),
    PipelineConfig: toy_judging_config(),
    AffinityConfig: AffinityConfig(),
    ClientShape: ClientShape(),
    DatagenConfig: DatagenConfig(endpoint="https://x.invalid", model="m"),
    SceneObject: SceneObject("circle", "red", (0, 0), 0),
    BinaryOutcome: BinaryOutcome("yes", "no"),
    ImageRef: ImageRef("file", path="a.raw"),
    BenchmarkSample: BenchmarkSample(
        "s", ImageRef("file", path="a.raw"), "A red circle.", "A blue circle.",
        HallucinationCategory.COLOR,
    ),
    CategorySpec: CATEGORY_SPECS[0],
}
# Further valid instances, for an edge value the VALID instance's other
# fields do not allow: an image ref's source follows its kind.
ALSO_VALID = [ImageRef("scene", scene=SceneDescriptor(0, ()))]


def _valid(cls, name: str, value):
    """The instance in ALSO_VALID of ``cls`` whose ``name`` is ``value``, else VALID[cls]."""
    return next(
        (v for v in ALSO_VALID if type(v) is cls and getattr(v, name) == value), VALID[cls]
    )


def _ruled_classes() -> list:
    classes = []
    for info in pkgutil.iter_modules(routebench.__path__):
        module = importlib.import_module(f"routebench.{info.name}")
        for value in vars(module).values():
            if (
                dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
                and any("rule" in f.metadata for f in dataclasses.fields(value))
            ):
                classes.append(value)
    return classes


def _shown(value) -> str:
    return repr(value) if isinstance(value, str) else str(value)


FIELD_CASES = [
    (cls, f.name, f.metadata["rule"], accepted, rejected)
    for cls in _ruled_classes()
    for f in dataclasses.fields(cls)
    if "rule" in f.metadata
    for accepted, rejected in f.metadata["rule"].edges
]


def _flag_types() -> dict:
    """``(command, flag) -> type`` of every flag whose type checks a rule."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    return {
        (command, action.option_strings[-1]): action.type
        for command, sub in commands.choices.items()
        for action in sub._actions
        if hasattr(action.type, "rule")
    }


FLAG_CASES = [
    (command, flag, flag_type, accepted, rejected)
    for (command, flag), flag_type in _flag_types().items()
    for accepted, rejected in flag_type.rule.edges
]


def test_every_ruled_class_has_a_valid_instance():
    assert set(_ruled_classes()) == set(VALID)
    assert len({(cls, name) for cls, name, *_ in FIELD_CASES}) >= 24


@pytest.mark.parametrize(
    "cls, name, field_rule, accepted, rejected",
    FIELD_CASES,
    ids=[f"{c[0].__name__}.{c[1]}={c[4]!r}" for c in FIELD_CASES],
)
def test_field_rule_edges(cls, name, field_rule, accepted, rejected):
    valid = _valid(cls, name, accepted)
    assert getattr(dataclasses.replace(valid, **{name: accepted}), name) == accepted
    with pytest.raises(ValueError) as excinfo:
        dataclasses.replace(valid, **{name: rejected})
    assert str(excinfo.value) == f"{name} must be {field_rule.text}, got {_shown(rejected)}"


@pytest.mark.parametrize(
    "cls, name",
    sorted(
        {(cls, f.name) for cls in VALID for f in dataclasses.fields(cls)
         if "rule" in f.metadata and f.default is None},
        key=repr,
    ),
)
def test_optional_field_takes_none(cls, name):
    assert getattr(dataclasses.replace(VALID[cls], **{name: None}), name) is None


def test_every_flag_type_is_walked():
    assert {flag_type.rule.text for _, _, flag_type, _, _ in FLAG_CASES} == {
        ">= 0", ">= 1", "finite", "positive", "finite and positive"
    }


@pytest.mark.parametrize(
    "command, flag, flag_type, accepted, rejected",
    FLAG_CASES,
    ids=[f"{c[0]}{c[1]}={c[4]!r}" for c in FLAG_CASES],
)
def test_flag_rule_edges(capsys, command, flag, flag_type, accepted, rejected):
    assert flag_type(str(accepted)) == accepted
    # A flag's value is checked as it is parsed, before a missing required
    # flag is noticed, so the command needs no other argument.
    assert main([command, flag, str(rejected)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    parsed = getattr(builtins, flag_type.__name__)(str(rejected))
    want = f"ERROR argument {flag}: must be {flag_type.rule.text}, got {parsed}"
    assert captured.err.splitlines() == [want]


def test_flag_and_field_share_the_message_tail(capsys):
    assert main(["route", "--scene-seed", "1", "--seed", "-1"]) == 2
    flag_error = capsys.readouterr().err.strip()
    with pytest.raises(ValueError) as excinfo:
        ToyClipParams(seed=-1, tokens=4, dim=4)
    tail = "must be >= 0, got -1"
    assert flag_error == f"ERROR argument --seed: {tail}"
    assert str(excinfo.value) == f"seed {tail}"


def test_rule_text_and_edges():
    assert rule("one of", ("a", "b", "c")).text == "one of 'a', 'b' or 'c'"
    assert rule("in [0, 2]").edges == ((0.0, -5e-324), (2.0, 2.0000000000000004))


TOP = math.nextafter(math.inf, 0.0)


@pytest.mark.parametrize(
    "text, edges",
    [
        ("non-blank", (("a", ""), ("a", " \n"))),
        ("finite and >= 1", ((1.0, 0.9999999999999999), (TOP, math.inf))),
        ("non-empty without commas or line breaks",
         (("a", ""), ("a", "a,"), ("a", "a\r"), ("a", "a\u2028"))),
    ],
)
def test_string_perplexity_and_run_name_rule_edges(text, edges):
    # A perplexity or run name is no dataclass field and no flag, so the
    # walks above miss their rules; non-blank is walked here beside them.
    string_rule = rule(text)
    assert string_rule.edges == edges
    for accepted, rejected in edges:
        assert string_rule.check(accepted, "x") == accepted
        with pytest.raises(ValueError) as excinfo:
            string_rule.check(rejected, "x")
        assert str(excinfo.value) == f"x must be {text}, got {_shown(rejected)}"


def _every_rule() -> dict:
    """Each rule the walks above reach, by its text: the field and flag rules
    and the three no field or flag carries."""
    rules = {field_rule.text: field_rule for _, _, field_rule, _, _ in FIELD_CASES}
    rules.update((flag_type.rule.text, flag_type.rule) for _, _, flag_type, _, _ in FLAG_CASES)
    for text in ("non-blank", "finite and >= 1", "non-empty without commas or line breaks"):
        rules[text] = rule(text)
    return rules


@pytest.mark.parametrize("text", sorted(_every_rule()))
def test_rule_rejects_a_value_of_another_type(text):
    # A rule's test may assume its value's type (a string method, a number
    # comparison); a value it cannot take fails the rule, not Python.
    value_rule = _every_rule()[text]
    accepted = value_rule.edges[0][0]
    for wrong in (5 if isinstance(accepted, str) else "5", None, []):
        with pytest.raises(ValueError) as excinfo:
            value_rule.check(wrong, "x")
        assert str(excinfo.value) == f"x must be {text}, got {_shown(wrong)}"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BenchmarkSample(5, ImageRef("file", path="a.raw"), "a", "b",
                                 HallucinationCategory.COLOR),
         "id must be non-blank, got 5"),
        (lambda: radar_csv({5: None}),
         "run name must be non-empty without commas or line breaks, got 5"),
        (lambda: ToyExpertSpec(id="0", persona="edge-shape", seed=0, native_tokens=16,
                               native_dim=8),
         "id must be >= 0, got '0'"),
    ],
    ids=["sample-id-number", "run-name-number", "expert-id-string"],
)
def test_wrong_typed_value_fails_its_rule(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


JSON_KINDS = {"str": "string", "int": "integer", "float": "number", "Optional[str]": "string"}


@pytest.mark.parametrize(
    "cls, name, kind",
    [
        (cls, f.name, JSON_KINDS[f.type])
        for cls in (ClientShape, DatagenConfig)
        for f in dataclasses.fields(cls)
        if f.type in JSON_KINDS
    ],
)
def test_config_field_types_come_from_annotations(cls, name, kind):
    # The JSON type is read from the field's annotation, so a field added
    # later is checked without a hand-kept key list.
    wrong = 1 if kind == "string" else "1"
    with pytest.raises(ValueError) as excinfo:
        dataclasses.replace(VALID[cls], **{name: wrong})
    assert str(excinfo.value) == f"{name} must be a JSON {kind}, got {wrong!r}"


def test_json_fields_reads_a_json_object_into_fields():
    doc = {"shape": "circle", "color": "red", "cell": [0, 1], "count_group": 0,
           "occluded": False, "label_text": None}
    fields = json_fields(SceneObject, doc, "scene object")
    # A null optional field is left out for its default; a field without a
    # JSON type (the cell) is passed on as it is.
    assert fields == {"shape": "circle", "color": "red", "cell": [0, 1], "count_group": 0,
                      "occluded": False}
    with pytest.raises(KeyError):
        json_fields(SceneObject, {k: v for k, v in doc.items() if k != "occluded"}, "scene object")
    with pytest.raises(ValueError, match=r"^unknown scene object keys: \['labl'\]$"):
        json_fields(SceneObject, {**doc, "labl": "EXIT"}, "scene object")
    assert json_fields(FusionStrategy, {"kind": "routed", "k": 2}, "strategy")["k"] == 2
