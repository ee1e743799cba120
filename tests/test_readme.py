"""README.md names only code that exists.

Every code name the README puts in backticks must occur in the package, in
perfbench or in BENCHMARK.json: a dotted name, a snake_case or CamelCase
identifier, a kebab-case name such as a persona or a workload, and any
``--flag`` in its code, fenced blocks included.  A dotted name led by a
package module must name that module's own attributes.  A backticked
``tests/...`` reference must name a file that exists and, after ``::``,
tests that the file defines.  So a rename or a removal that leaves the
README behind fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    path.stem: path.read_text(encoding="utf-8")
    for path in (ROOT / "src" / "routebench").glob("*.py")
}
CORPUS = "\n".join(
    [*MODULES.values()]
    + [path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py")]
    + [(ROOT / "BENCHMARK.json").read_text(encoding="utf-8")]
)
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Other projects' names, which the README cites as they are: numpy and
# requests attributes, the environment variables requests reads, and pip's
# flag in the install steps.
THIRD_PARTY_PREFIXES = ("np.", "requests.")
THIRD_PARTY_NAMES = {
    "HTTPS_PROXY", "NO_PROXY", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "--no-build-isolation"
}

_SPAN = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.(?:[A-Za-z_][\w-]*|\*))*(?:-[a-z0-9]+)*")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_TEST_REF = re.compile(r"`(tests/[\w/.:-]+)`")


def _is_code_name(name: str) -> bool:
    """Dotted, snake_case, kebab-case or CamelCase; not a plain word."""
    camel = re.fullmatch(r"[A-Z]+[a-z]\w*[A-Z]\w*", name)
    return camel is not None or any(c in name for c in "._-")


def code_names(text: str) -> list:
    """The code names in ``text``: every ``--flag`` in code, fenced or
    inline, and each inline code span that is one name, bare or called."""
    fence = re.compile(r"^```.*?^```", re.S | re.M)
    names = [flag for block in fence.findall(text) for flag in _FLAG.findall(block)]
    for span in _SPAN.findall(fence.sub("", text)):
        span = " ".join(span.split())
        names += _FLAG.findall(span)
        head = _NAME.match(span)
        called_or_bare = head and span[head.end():head.end() + 1] in ("", "(")
        if called_or_bare and _is_code_name(head.group()):
            names.append(head.group())
    return list(dict.fromkeys(names))


def _has_word(word: str, text: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


def is_defined(name: str) -> bool:
    if name.startswith(THIRD_PARTY_PREFIXES) or name in THIRD_PARTY_NAMES:
        return True
    if name.endswith(".*"):  # a family of metric names
        return name[:-1] in CORPUS
    if _has_word(name, CORPUS):
        return True
    head, *rest = name.split(".")
    if head in MODULES and rest:
        return all(_has_word(part, MODULES[head]) for part in rest)
    return all(_has_word(part, CORPUS) for part in (head, *rest))


@pytest.mark.parametrize("name", code_names(README))
def test_readme_code_name_exists(name):
    assert is_defined(name), f"README.md names `{name}`, which no module defines"


@pytest.mark.parametrize("ref", list(dict.fromkeys(_TEST_REF.findall(README))))
def test_readme_test_reference_exists(ref):
    path, *tests = ref.split("::")
    assert (ROOT / path).is_file(), f"README.md names {path}, which does not exist"
    source = (ROOT / path).read_text(encoding="utf-8")
    for test in tests:
        assert re.search(rf"^\s*(?:def|class) {re.escape(test)}\b", source, re.M), (
            f"README.md names {ref}, but {path} defines no {test}"
        )


def test_layout_lists_every_module():
    block = README.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+)\.py ", block, re.M))
    assert listed == set(MODULES) - {"__init__"}


@pytest.mark.parametrize(
    "text, defined",
    [
        ("`finite_diff_gradient`", False),
        ("`Session.prepare_request`", False),
        ("`get_environ_proxies`", False),
        ("`fusion.no_such_kernel`", False),
        ("`routebench eval --no-such-flag`", False),
        ("`fusion._route(cls, weights, bias, k)`", True),
        ("`experts.encode_ms.*`", True),
        ("`judge-synth500`", True),
        ("`PipelineConfig`", True),
        ("`python3 perfbench/run.py --trace 1`", True),
    ],
)
def test_checker_tells_defined_from_missing(text, defined):
    names = code_names(text)
    assert names
    assert all(map(is_defined, names)) is defined
