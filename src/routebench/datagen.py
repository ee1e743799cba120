"""LLM-backed caption-pair generation.

Builds hallucination samples from existing (image, caption) pairs by asking a
chat-completion endpoint to inject exactly one category-specific edit into
each caption.  One unified prompt template is specialized per category by a
small spec (what to modify, when the edit is possible, which words change;
what must stay unchanged is shared); the model answers either the rewritten
caption or the literal "NO" when the caption cannot support the category.

The HTTP client is a generic JSON-over-HTTPS adapter: request body keys, the
prompt shape, the auth header, and the response text path are all
configurable, so any chat-completion provider works without provider-specific
code.  Auth tokens are read from an environment variable named in the config
on every request and never stored; the session's cookies are
also read per request.  What else the session fixes for the endpoint (URL and
params, headers, auth, hooks, proxies, CA bundle) is resolved once, when the
client is built.

A template is checked once, when it is built; rendering substitutes text
verbatim, so braces in a caption pass through.

Generation fans out over (item, category) units with a bounded number of
in-flight requests; each unit ends as one ``GenerationStats`` counter.  Network
failures and HTTP error statuses (``OSError``, which every ``requests`` error
is) are retried with exponential backoff.  A ``DatagenError`` (no token, a
token that is not a valid header, no text at the response path) comes from
the config and fails the unit at once; any other client exception is a bug
and propagates.  The run aborts when the failed fraction exceeds the
configured budget.  Results merge deterministically in (item, category)
order.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import requests
from requests.cookies import RequestsCookieJar, merge_cookies
from requests.sessions import merge_setting
from requests.structures import CaseInsensitiveDict
from requests.utils import check_header_validity, get_auth_from_url, get_netrc_auth

from .benchmark import (
    BenchmarkSample,
    HallucinationCategory,
    image_ref_from_json_dict,
    parse_jsonl,
)
from .experts import check_known_keys, check_rules, json_field, json_fields, rule, ruled

logger = logging.getLogger(__name__)


class DatagenError(RuntimeError):
    """Generation could not produce a usable dataset."""


# What every category's edit must leave alone: one text, the same for all ten.
_SHARED_CONSTRAINT = "every other object, attribute, count, position, and relation"

# Each placeholder, how many times a template must hold it, and what fills it
# from a category spec and a caption, in the order render_prompt substitutes
# them: the caption last, so a placeholder written in a caption passes through.
PLACEHOLDERS = (
    ("{{MODIFICATION_TASK_SPECIFICS}}", 2, lambda spec, caption: spec.modification_task),
    ("{{EXISTENCE_CONDITION_DESCRIPTION}}", 2, lambda spec, caption: spec.existence_condition),
    ("{{MODIFIED_ELEMENTS_NAME}}", 1, lambda spec, caption: spec.modified_elements),
    ("{{UNCHANGED_CONSTRAINT_TEXT}}", 1, lambda spec, caption: _SHARED_CONSTRAINT),
    ("{input}", 1, lambda spec, caption: caption),
)

DEFAULT_TEMPLATE_BODY = """\
You edit image captions to inject exactly one visual error.

Task Description:
Rewrite the caption below so that it {{MODIFICATION_TASK_SPECIFICS}}.
This edit is only possible when {{EXISTENCE_CONDITION_DESCRIPTION}} appears
in the caption. Change only {{MODIFIED_ELEMENTS_NAME}} and keep
{{UNCHANGED_CONSTRAINT_TEXT}} exactly as written.

Output Format:
Return only the rewritten caption, a single line where it
{{MODIFICATION_TASK_SPECIFICS}}. If no {{EXISTENCE_CONDITION_DESCRIPTION}}
exists, output: NO

Caption: {input}
"""


@dataclass(frozen=True)
class PromptTemplate:
    """Unified generation prompt: each ``PLACEHOLDERS`` row's count, no other ``{{``."""

    body: str

    def __post_init__(self):
        rest = self.body
        for placeholder, expected, _ in PLACEHOLDERS:
            got = self.body.count(placeholder)
            if got != expected:
                raise ValueError(
                    f"template must contain {placeholder} exactly "
                    f"{expected} time(s), found {got}"
                )
            # A space, so removing a placeholder cannot join braces into "{{".
            rest = rest.replace(placeholder, " ")
        stray = re.search(r"\{\{[^{}\n]*(\}\})?", rest)
        if stray:
            raise ValueError(f"unknown placeholder {stray.group()!r} in template")


DEFAULT_TEMPLATE = PromptTemplate(DEFAULT_TEMPLATE_BODY)


@dataclass(frozen=True)
class CategorySpec:
    """Per-category texts substituted into the unified template."""

    category: HallucinationCategory
    modification_task: str = ruled("non-blank")
    existence_condition: str = ruled("non-blank")
    modified_elements: str = ruled("non-blank")

    __post_init__ = check_rules


CATEGORY_SPECS = (
    CategorySpec(
        HallucinationCategory.CATEGORY,
        "describes one mentioned object as a different kind of object that does not appear anywhere in the scene",
        "an object mention that could be swapped for an absent object kind",
        "that object's class word",
    ),
    CategorySpec(
        HallucinationCategory.COUNTING,
        "states the quantity of one object group as exactly one more or one fewer than written",
        "an explicit object count",
        "the count word",
    ),
    CategorySpec(
        HallucinationCategory.OCCLUSION,
        "claims a partly hidden object is fully visible, or a fully visible object is partly hidden",
        "a statement about an object's visibility",
        "the visibility phrase",
    ),
    CategorySpec(
        HallucinationCategory.TEXT,
        "replaces written text, a sign, or a label with different text",
        "quoted or written text on an object",
        "the written text",
    ),
    CategorySpec(
        HallucinationCategory.SHAPE,
        "describes one object with the shape of a different object that is also present",
        "a shape mention with another distinct shape present",
        "the shape word",
    ),
    CategorySpec(
        HallucinationCategory.ABSOLUTE_POSITION,
        "places one object at a position adjacent to where the caption puts it",
        "an absolute position statement",
        "the position value",
    ),
    CategorySpec(
        HallucinationCategory.RELATIVE_POSITION,
        "reverses the spatial relation between two mentioned objects",
        "a relative position statement between two objects",
        "the relation word",
    ),
    CategorySpec(
        HallucinationCategory.COLOR,
        "gives one object a color that appears nowhere in the scene",
        "a color mention",
        "the color word",
    ),
    CategorySpec(
        HallucinationCategory.ACTION,
        "describes one object performing a different action than written",
        "an action description",
        "the action verb",
    ),
    CategorySpec(
        HallucinationCategory.RELATIVE_INTERACTION,
        "claims two separate objects are interacting, or two interacting objects are separate",
        "an interaction statement between two objects",
        "the interaction word",
    ),
)


_SPEC_BY_CATEGORY = {spec.category: spec for spec in CATEGORY_SPECS}
_NON_BLANK = rule("non-blank")


def category_spec(category: HallucinationCategory) -> CategorySpec:
    return _SPEC_BY_CATEGORY[category]


def render_prompt(template: PromptTemplate, spec: CategorySpec, caption: str) -> str:
    """Fill the template's ``PLACEHOLDERS`` from a category spec and the caption."""
    _NON_BLANK.check(caption, "caption")
    rendered = template.body
    for placeholder, _, fill in PLACEHOLDERS:
        rendered = rendered.replace(placeholder, fill(spec, caption))
    return rendered


def parse_generation(raw: str):
    """Trimmed model output; None for a (case-insensitive) "NO" answer."""
    # Stripped first, so a reply that is not a string stays a client bug.
    stripped = _NON_BLANK.check(raw.strip(), "generation")
    if stripped.upper() == "NO":
        return None
    return stripped


@dataclass(frozen=True)
class ClientShape:
    """How to shape requests and unpack responses for a specific provider."""

    prompt_mode: str = ruled("one of", ("messages", "text"), default="messages")
    model_key: str = ruled("non-blank", default="model")
    temperature_key: str = ruled("non-blank", default="temperature")
    max_tokens_key: str = ruled("non-blank", default="max_tokens")
    prompt_key: str = ruled("non-blank", default="messages")
    response_path: tuple = ("choices", 0, "message", "content")
    auth_header: str = ruled("non-blank", default="Authorization")
    auth_scheme: str = "Bearer"  # "" sends the bare token

    def __post_init__(self):
        json_fields(ClientShape, vars(self), "client shape")  # each field's JSON type
        check_rules(self)
        path = self.response_path
        if not isinstance(path, (list, tuple)) or not all(
            type(step) in (str, int) for step in path
        ):
            raise ValueError(
                f"response_path must be a JSON array of strings and integers, got {path!r}"
            )
        if not path:
            raise ValueError("response_path must be non-empty")
        object.__setattr__(self, "response_path", tuple(path))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClientShape":
        check_known_keys(cls.__dataclass_fields__, doc, "client shape")
        return cls(**doc)


@dataclass(frozen=True)
class DatagenConfig:
    """Endpoint, sampling, retry, and concurrency settings.

    ``auth_env`` names the environment variable holding the API token; the
    token itself is read per request and never stored on the config.
    """

    endpoint: str
    model: str = ruled("non-blank")
    auth_env: Optional[str] = ruled("non-blank", default=None)
    temperature: float = ruled("in [0, 2]", default=0.7)
    max_tokens: int = ruled(">= 1", default=256)
    max_retries: int = ruled(">= 0", default=3)
    backoff_base_ms: int = ruled(">= 0", default=500)
    max_in_flight: int = ruled(">= 1", default=4)
    max_failure_fraction: float = ruled("in [0, 1]", default=0.2)
    timeout_seconds: float = ruled("finite and positive", default=60.0)
    shape: ClientShape = field(default_factory=ClientShape)

    def __post_init__(self):
        json_fields(DatagenConfig, vars(self), "config")  # each field's JSON type
        if not self.endpoint.startswith("https://"):
            raise ValueError(f"endpoint must be https://, got {self.endpoint!r}")
        check_rules(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DatagenConfig":
        check_known_keys(cls.__dataclass_fields__, doc, "config")
        shape = doc.get("shape")
        shape = ClientShape() if shape is None else ClientShape.from_json_dict(shape)
        required = {key: doc[key] for key in ("endpoint", "model")}  # KeyError if missing
        return cls(**{**doc, **required, "shape": shape})


def load_datagen_config(path) -> DatagenConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatagenError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return DatagenConfig.from_json_dict(doc)
    except KeyError as exc:
        raise DatagenError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DatagenError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class CompletionRequest:
    """What ``complete`` sends: the rendered prompt."""

    prompt: str


class HttpChatClient:
    """Thread-safe JSON-over-HTTPS chat-completion adapter.

    What the session fixes is resolved once, when the client is built: the
    endpoint URL with ``session.params`` merged in, ``session.headers``, the
    session's auth (or, when ``trust_env`` is set and the session has none,
    the netrc entry for the endpoint), the session's hooks, and its
    environment settings (proxies, ``verify``, ``cert``, ``stream``, with the
    environment's proxy and CA-bundle variables merged in).  A caller who
    changes any of them must build a new client.  Without session or netrc
    auth, the endpoint URL's userinfo is the auth, as ``prepare_auth`` would
    find it.  Read on every request: the body, the auth token header (from
    the environment) and the session's cookies.  Each request is then
    prepared in ``PreparedRequest.prepare``'s order (headers, cookies, body,
    auth, hooks), so it is what ``session.post`` would send.
    """

    def __init__(self, config: DatagenConfig, session=None):
        self.config = config
        session = session if session is not None else requests.Session()
        self._session = session
        template = requests.PreparedRequest()
        template.prepare_method("POST")
        template.prepare_url(config.endpoint, merge_setting({}, session.params))
        template.prepare_headers(
            merge_setting(
                {"Content-Type": "application/json"},
                session.headers,
                dict_class=CaseInsensitiveDict,
            )
        )
        self._template = template
        auth = session.auth
        if session.trust_env and not auth:
            auth = get_netrc_auth(config.endpoint) or auth
        if auth is None:
            url_auth = get_auth_from_url(template.url)
            auth = url_auth if any(url_auth) else None
        self._auth = auth
        self._hooks = {event: list(hooks) for event, hooks in session.hooks.items()}
        self._send_settings = session.merge_environment_settings(
            template.url, {}, None, None, None
        )

    def _headers(self) -> dict:
        """The auth token header, if the config names a token variable."""
        config = self.config
        if config.auth_env is None:
            return {}
        token = os.environ.get(config.auth_env)
        if not token:
            raise DatagenError(f"auth environment variable {config.auth_env!r} is not set")
        shape = config.shape
        value = f"{shape.auth_scheme} {token}" if shape.auth_scheme else token
        try:
            check_header_validity((shape.auth_header, value))
        except requests.exceptions.InvalidHeader as exc:
            # Its message quotes the token, and as an OSError it would be retried.
            raise DatagenError(
                f"auth environment variable {config.auth_env!r} does not give a "
                f"valid {shape.auth_header!r} header"
            ) from exc
        return {shape.auth_header: value}

    def _prepare(self, body: dict) -> requests.PreparedRequest:
        # A fresh request, not ``template.copy()``: a copy shares the hook
        # lists that auth handlers and ``prepare_hooks`` append to.
        template = self._template
        prepared = requests.PreparedRequest()
        prepared.method, prepared.url = template.method, template.url
        prepared.headers = template.headers.copy()
        prepared.headers.update(self._headers())
        cookies = self._session.cookies
        if len(cookies):
            prepared.prepare_cookies(merge_cookies(RequestsCookieJar(), cookies))
        else:
            # No cookie to send, so no policy to run; redirect handling still
            # merges the session's cookies into the request's own jar.
            prepared._cookies = RequestsCookieJar()
        prepared.prepare_body(None, None, body)
        # Auth comes after the body, so it can override headers and sign the body.
        if self._auth:
            prepared.prepare_auth(self._auth)
        prepared.prepare_hooks(self._hooks)
        return prepared

    def complete(self, request: CompletionRequest) -> str:
        """The text at the shape's response path; model and sampling settings
        come from the config."""
        config = self.config
        shape = config.shape
        body = {
            shape.model_key: config.model,
            shape.temperature_key: config.temperature,
            shape.max_tokens_key: config.max_tokens,
        }
        if shape.prompt_mode == "messages":
            body[shape.prompt_key] = [{"role": "user", "content": request.prompt}]
        else:
            body[shape.prompt_key] = request.prompt
        # Explicit proxies also keep ``send`` from scanning the environment.
        response = self._session.send(
            self._prepare(body), timeout=config.timeout_seconds, **self._send_settings
        )
        response.raise_for_status()
        node = response.json()
        for step in shape.response_path:
            try:
                node = node[step]
            except (KeyError, IndexError, TypeError) as exc:
                raise DatagenError(
                    f"response missing text at path {list(shape.response_path)}: {exc}"
                ) from exc
        if not isinstance(node, str):
            raise DatagenError(
                f"response text at path {list(shape.response_path)} is not a string"
            )
        return node


@dataclass
class GenerationStats:
    requested: int = 0
    produced: int = 0
    skipped_no: int = 0
    skipped_echo: int = 0
    skipped_invalid: int = 0
    failed: int = 0
    retries: int = 0
    retries_by_key: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        keyed = {f"{i}:{c}": n for (i, c), n in self.retries_by_key.items()}
        return {**asdict(self), "retries_by_key": keyed}


@dataclass(frozen=True)
class GenerationResult:
    samples: list
    stats: GenerationStats


def generate_dataset(
    client,
    items,
    specs=CATEGORY_SPECS,
    *,
    config: DatagenConfig,
    template: PromptTemplate = DEFAULT_TEMPLATE,
    sleep=time.sleep,
) -> GenerationResult:
    """Fan (item x category) units out to the client and assemble samples.

    ``items`` holds (ImageRef, real caption) pairs; ``template`` was checked
    when it was built.  ``client.complete(CompletionRequest(prompt))``
    returns the reply text.  Each unit ends as one ``GenerationStats`` counter:
    ``produced``, ``skipped_no`` ("NO"), ``skipped_echo`` (the input back),
    ``skipped_invalid`` (no valid sample) or ``failed``.  An ``OSError`` from
    the client (a network error, an HTTP error status) is retried with
    exponential backoff up to ``config.max_retries`` times; a ``DatagenError``
    fails the unit at once; any other exception propagates, and units not yet
    started send nothing.  ``failures`` holds the invalid and failed units'
    messages.  The run aborts if more than
    ``config.max_failure_fraction`` of all units fail.  Everything is in
    (item index, category order) at any ``config.max_in_flight``.  ``sleep``
    is injectable so tests can skip real backoff waits.
    """
    item_list = list(items)
    if not item_list:
        raise ValueError("generate_dataset needs at least one item")
    spec_list = list(specs)
    if not spec_list:
        raise ValueError("generate_dataset needs at least one spec")
    if len({s.category for s in spec_list}) != len(spec_list):
        raise ValueError("specs must cover distinct categories")
    # Rendered up front, so a blank caption raises before any request is sent.
    units = [
        (item_index, image, caption, spec, render_prompt(template, spec, caption))
        for item_index, (image, caption) in enumerate(item_list)
        for spec in spec_list
    ]

    client_bug = threading.Event()

    def run_unit(unit):
        """(stats counter, retries, sample or failure message or None)."""
        if client_bug.is_set():
            return None  # never read: the client bug is raised from pool.map
        item_index, image, caption, spec, prompt = unit
        where = f"item {item_index} {spec.category.value}"
        request = CompletionRequest(prompt)
        for retries in range(config.max_retries + 1):
            try:
                reply = client.complete(request)
                break
            except (OSError, DatagenError) as exc:
                # A DatagenError comes from the config; waiting cannot fix it.
                if isinstance(exc, DatagenError) or retries == config.max_retries:
                    return "failed", retries, f"{where}: {exc}"
                sleep(config.backoff_base_ms / 1000.0 * 2**retries)
            except Exception:
                # A client bug propagates, and queued units send nothing.
                client_bug.set()
                raise
        try:
            text = parse_generation(reply)
            if text is None:
                return "skipped_no", retries, None
            if text == caption.strip():
                return "skipped_echo", retries, None
            sample = BenchmarkSample(
                id=f"gen-{item_index:04d}-{spec.category.value.lower()}",
                image=image,
                real_caption=caption,
                hallucinated_caption=text,
                category=spec.category,
            )
        except ValueError as exc:
            return "skipped_invalid", retries, f"{where}: {exc}"
        return "produced", retries, sample

    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        outcomes = list(pool.map(run_unit, units))

    retries_by_key = {
        (item_index, spec.category.value): retries
        for (item_index, _, _, spec, _), (_, retries, _) in zip(units, outcomes)
        if retries
    }
    stats = GenerationStats(
        requested=len(units),
        **Counter(counter for counter, _, _ in outcomes),
        retries=sum(retries_by_key.values()),
        retries_by_key=retries_by_key,
        failures=[p for c, _, p in outcomes if c in ("skipped_invalid", "failed")],
    )
    logger.info(
        "generated %d samples from %d units (%d NO, %d echo, %d invalid, %d failed, %d retries)",
        stats.produced, stats.requested, stats.skipped_no, stats.skipped_echo,
        stats.skipped_invalid, stats.failed, stats.retries,
    )
    if stats.failed > config.max_failure_fraction * stats.requested:
        first = "; ".join(stats.failures[:3])
        raise DatagenError(
            f"{stats.failed}/{stats.requested} units failed "
            f"(budget {config.max_failure_fraction:.0%}): {first}"
        )
    samples = [p for c, _, p in outcomes if c == "produced"]
    return GenerationResult(samples=samples, stats=stats)


def _caption_item(doc: dict) -> tuple:
    check_known_keys(("image", "caption"), doc, "caption item")
    image = image_ref_from_json_dict(doc["image"])
    return image, _NON_BLANK.check(json_field(doc, "caption", str), "caption")


def loads_caption_items(text: str) -> list:
    """Parse JSONL {"image": <image ref>, "caption": <text>} item lines."""
    return parse_jsonl(text, _caption_item, "item file contains no entries")


def load_caption_items(path) -> list:
    return loads_caption_items(Path(path).read_text(encoding="utf-8"))
