"""Tests for prompt rendering, generation parsing, and the generation pipeline."""

import base64
import hashlib
import json
import sys
import threading
import time
from collections import Counter

import pytest
import requests
from requests.adapters import BaseAdapter

from routebench.benchmark import DatasetError, HallucinationCategory, ImageRef, dumps_dataset
from routebench.datagen import (
    CATEGORY_SPECS,
    DEFAULT_TEMPLATE,
    DEFAULT_TEMPLATE_BODY,
    ClientShape,
    CompletionRequest,
    CompletionResponse,
    DatagenConfig,
    DatagenError,
    HttpChatClient,
    PromptTemplate,
    category_spec,
    dumps_caption_items,
    generate_dataset,
    load_datagen_config,
    loads_caption_items,
    parse_generation,
    render_prompt,
)

ITEM = (ImageRef(kind="file", path="imgs/0001.raw"), "A red circle sits at row 0 column 1.")
COLOR_SPEC = category_spec(HallucinationCategory.COLOR)
# Every other field at its default.
DEFAULT_CONFIG = DatagenConfig(endpoint="https://unused.invalid", model="mock")
CAPTION_MARKER = "Caption: "


def caption_from_prompt(prompt: str) -> str:
    last = prompt.rstrip("\n").splitlines()[-1]
    assert last.startswith(CAPTION_MARKER)
    return last[len(CAPTION_MARKER):]


class ScriptedClient:
    """Thread-safe mock answering from a per-call script or a fixed function."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            self.calls += 1
        text = self.reply(request) if callable(self.reply) else self.reply
        return CompletionResponse(text=text)


class FlakyClient:
    def __init__(self, fail_times: int, text="An entirely different caption."):
        self.fail_times = fail_times
        self.text = text
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            if self.calls <= self.fail_times:
                raise ConnectionError("transient network failure")
        return CompletionResponse(text=self.text)


class InstrumentedClient:
    def __init__(self):
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def complete(self, request):
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)
        time.sleep(0.004)
        with self._lock:
            self.current -= 1
        return CompletionResponse(text="Something new and different.")


def no_sleep(_seconds):
    return None


# Six items x ten categories; unit (i, k) takes outcome (i + k) % 6, so each
# of the six outcomes below covers ten units.
ALL_OUTCOME_ITEMS = [
    (
        ImageRef(kind="file", path=f"imgs/{i:04d}.raw"),
        f"Scene {i}: a red circle sits at row {i % 4}.",
    )
    for i in range(6)
]
TASK_INDEX = {spec.modification_task: k for k, spec in enumerate(CATEGORY_SPECS)}
# sha256 of dumps_dataset(samples) + the sorted stats JSON of the run above.
ALL_OUTCOMES_SHA256 = "6af89e4fc562743772bf62862a9df76ecd3aa470fdf5431eb99951a1288d71fc"


class AllOutcomeClient:
    """Answers by the unit's outcome: a new caption, a new caption after one
    failed attempt, NO, an echo, a blank (invalid) answer, or a failure on
    every attempt.  Thread-safe, and independent of call order."""

    def __init__(self):
        self.attempts = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        caption = caption_from_prompt(request.prompt)
        item = int(caption.split(":")[0].split()[1])
        category = next(k for task, k in TASK_INDEX.items() if task in request.prompt)
        with self._lock:
            self.attempts[request.prompt] += 1
            attempt = self.attempts[request.prompt]
        outcome = (item + category) % 6
        if outcome == 5 or (outcome == 1 and attempt == 1):
            raise ConnectionError(f"unit {item}:{category} unreachable on attempt {attempt}")
        altered = f"{caption} Altered in category {category}."
        text = {2: "NO", 3: caption, 4: "  "}.get(outcome, altered)
        return CompletionResponse(text=text)


def run_all_outcomes(max_in_flight):
    config = DatagenConfig(
        endpoint="https://x.invalid", model="m", max_retries=2, max_in_flight=max_in_flight
    )
    result = generate_dataset(AllOutcomeClient(), ALL_OUTCOME_ITEMS, config=config, sleep=no_sleep)
    return result, dumps_dataset(result.samples) + json.dumps(
        result.stats.to_json_dict(), sort_keys=True
    )


class TestPromptTemplate:
    def test_default_template_valid(self):
        assert DEFAULT_TEMPLATE.body.count("{{MODIFICATION_TASK_SPECIFICS}}") == 2
        assert DEFAULT_TEMPLATE.body.count("{{EXISTENCE_CONDITION_DESCRIPTION}}") == 2
        assert DEFAULT_TEMPLATE.body.count("{{MODIFIED_ELEMENTS_NAME}}") == 1
        assert DEFAULT_TEMPLATE.body.count("{{UNCHANGED_CONSTRAINT_TEXT}}") == 1
        assert DEFAULT_TEMPLATE.body.count("{input}") == 1
        assert "output: NO" in DEFAULT_TEMPLATE.body

    def test_missing_placeholder_named(self):
        body = DEFAULT_TEMPLATE_BODY.replace(
            "{{MODIFIED_ELEMENTS_NAME}}", "{{MODIFIED_ELEMENT_NAME}}"
        )
        with pytest.raises(ValueError, match=r"\{\{MODIFIED_ELEMENTS_NAME\}\}"):
            PromptTemplate(body)

    def test_duplicated_singleton_placeholder_rejected(self):
        body = DEFAULT_TEMPLATE_BODY + "\n{{UNCHANGED_CONSTRAINT_TEXT}}"
        with pytest.raises(ValueError, match=r"\{\{UNCHANGED_CONSTRAINT_TEXT\}\}"):
            PromptTemplate(body)

    def test_single_braces_beside_a_placeholder_accepted(self):
        marker = "{{MODIFIED_ELEMENTS_NAME}}"
        PromptTemplate(DEFAULT_TEMPLATE_BODY.replace(marker, "{" + marker + "{"))

    def test_unterminated_marker_rejected(self):
        with pytest.raises(ValueError, match=r"'\{\{ oops"):
            PromptTemplate(DEFAULT_TEMPLATE_BODY + "\nTrailing {{ oops")


class TestCategorySpecs:
    def test_ten_specs_one_per_category(self):
        assert len(CATEGORY_SPECS) == 10
        assert {s.category for s in CATEGORY_SPECS} == set(HallucinationCategory)
        for spec in CATEGORY_SPECS:
            assert spec.modification_task.strip()
            assert spec.existence_condition.strip()
            assert spec.modified_elements.strip()
            assert spec.unchanged_constraint.strip()

    def test_accessor(self):
        assert category_spec(HallucinationCategory.TEXT).category is HallucinationCategory.TEXT


class TestRenderPrompt:
    def test_spec_text_in_both_positions(self):
        rendered = render_prompt(DEFAULT_TEMPLATE, COLOR_SPEC, "a red car.")
        assert rendered.count(COLOR_SPEC.modification_task) == 2
        task_section = rendered.index("Task Description:")
        output_section = rendered.index("Output Format:")
        first = rendered.index(COLOR_SPEC.modification_task)
        second = rendered.index(COLOR_SPEC.modification_task, first + 1)
        assert task_section < first < output_section < second

    def test_caption_substituted_once(self):
        rendered = render_prompt(DEFAULT_TEMPLATE, COLOR_SPEC, "a red car.")
        assert rendered.count("a red car.") == 1
        assert caption_from_prompt(rendered) == "a red car."
        assert "{{" not in rendered and "{input}" not in rendered

    def test_unknown_marker_left_over_is_an_error(self):
        body = DEFAULT_TEMPLATE_BODY + "\nExtra: {{SOMETHING_ELSE}}"
        with pytest.raises(ValueError, match=r"\{\{SOMETHING_ELSE\}\}"):
            PromptTemplate(body)

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError, match="caption"):
            render_prompt(DEFAULT_TEMPLATE, COLOR_SPEC, "   ")

    def test_caption_braces_pass_through(self):
        caption = "A sign reading {{SALE}} hangs on the wall."
        assert caption_from_prompt(render_prompt(DEFAULT_TEMPLATE, COLOR_SPEC, caption)) == caption


class TestParseGeneration:
    def test_literal_no(self):
        assert parse_generation("NO") is None

    def test_whitespace_and_case_insensitive_no(self):
        assert parse_generation("  no \n") is None
        assert parse_generation("No") is None

    def test_regular_text_trimmed(self):
        assert parse_generation("  A blue car parked.  \n") == "A blue car parked."

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_generation("   \n")


class TestGenerateDataset:
    def test_all_no_yields_empty_with_skips(self):
        client = ScriptedClient("NO")
        result = generate_dataset(client, [ITEM, ITEM], config=DEFAULT_CONFIG, sleep=no_sleep)
        assert result.samples == []
        assert result.stats.skipped_no == 20
        assert result.stats.requested == 20
        assert client.calls == 20

    def test_echo_responses_are_dropped(self):
        client = ScriptedClient(lambda request: caption_from_prompt(request.prompt))
        result = generate_dataset(client, [ITEM], config=DEFAULT_CONFIG, sleep=no_sleep)
        assert result.samples == []
        assert result.stats.skipped_echo == 10

    def test_full_fanout_produces_item_times_specs(self):
        client = ScriptedClient(
            lambda request: caption_from_prompt(request.prompt) + " Altered."
        )
        items = [ITEM, (ImageRef(kind="file", path="imgs/0002.raw"), "A blue square sits.")]
        result = generate_dataset(client, items, config=DEFAULT_CONFIG, sleep=no_sleep)
        assert len(result.samples) == 20
        assert result.stats.produced == 20
        ids = [s.id for s in result.samples]
        assert len(set(ids)) == 20
        expected_order = [
            f"gen-{i:04d}-{spec.category.value.lower()}"
            for i in range(2)
            for spec in CATEGORY_SPECS
        ]
        assert ids == expected_order
        for sample, spec in zip(result.samples, CATEGORY_SPECS):
            assert sample.category is spec.category
            assert sample.hallucinated_caption != sample.real_caption

    def test_retry_then_success_logs_retry_count(self):
        client = FlakyClient(fail_times=2)
        sleeps = []
        result = generate_dataset(
            client,
            [ITEM],
            specs=[COLOR_SPEC],
            config=DatagenConfig(endpoint="https://x.invalid", model="m", max_retries=3),
            sleep=sleeps.append,
        )
        assert len(result.samples) == 1
        assert result.stats.retries == 2
        assert result.stats.retries_by_key == {(0, "Color"): 2}
        assert sleeps == [0.5, 1.0]  # 500 ms base, doubling
        assert client.calls == 3

    def test_failure_budget_aborts_run(self):
        client = FlakyClient(fail_times=10**9)
        config = DatagenConfig(
            endpoint="https://x.invalid", model="m", max_retries=1, max_failure_fraction=0.2
        )
        with pytest.raises(DatagenError, match="units failed"):
            generate_dataset(client, [ITEM], config=config, sleep=no_sleep)

    def test_failures_within_budget_continue(self):
        lock = threading.Lock()
        state = {"calls": 0}

        class OneBadUnit:
            def complete(self, request):
                with lock:
                    state["calls"] += 1
                if "color" in request.prompt and "nowhere in the scene" in request.prompt:
                    raise ConnectionError("down")
                return CompletionResponse(
                    text=caption_from_prompt(request.prompt) + " Changed."
                )

        config = DatagenConfig(
            endpoint="https://x.invalid", model="m", max_retries=1, max_failure_fraction=0.2
        )
        result = generate_dataset(OneBadUnit(), [ITEM], config=config, sleep=no_sleep)
        assert result.stats.failed == 1
        assert result.stats.produced == 9
        assert len(result.stats.failures) == 1
        assert "Color" in result.stats.failures[0]

    def test_concurrency_never_exceeds_bound(self):
        client = InstrumentedClient()
        config = DatagenConfig(endpoint="https://x.invalid", model="m", max_in_flight=3)
        items = [ITEM] * 3
        result = generate_dataset(client, items, config=config, sleep=no_sleep)
        assert result.stats.produced == 30
        assert client.peak <= 3

    def test_config_is_required(self):
        with pytest.raises(TypeError, match="config"):
            generate_dataset(ScriptedClient("NO"), [ITEM], sleep=no_sleep)

    def test_caption_with_braces_yields_sample(self):
        caption = "A sign reading {{SALE}} hangs on the wall."
        client = ScriptedClient(
            lambda request: caption_from_prompt(request.prompt).replace("SALE", "SOLD")
        )
        result = generate_dataset(
            client,
            [(ITEM[0], caption)],
            specs=[category_spec(HallucinationCategory.TEXT)],
            config=DEFAULT_CONFIG,
            sleep=no_sleep,
        )
        assert [(s.real_caption, s.hallucinated_caption) for s in result.samples] == [
            (caption, "A sign reading {{SOLD}} hangs on the wall.")
        ]

    @pytest.mark.parametrize("max_in_flight", [1, 3])
    def test_every_outcome_counted_once(self, max_in_flight):
        result, _ = run_all_outcomes(max_in_flight)
        stats = result.stats
        assert (stats.produced, stats.skipped_no, stats.skipped_echo) == (20, 10, 10)
        assert (stats.skipped_invalid, stats.failed, stats.retries) == (10, 10, 30)
        assert stats.requested == 60 == (
            stats.produced + stats.skipped_no + stats.skipped_echo
            + stats.skipped_invalid + stats.failed
        )
        reasons = {4: "empty generation cannot be parsed", 5: "unreachable on attempt 3"}
        assert stats.failures == [
            f"item {i} {spec.category.value}: " + (
                reasons[4] if (i + k) % 6 == 4 else f"unit {i}:{k} {reasons[5]}"
            )
            for i in range(6)
            for k, spec in enumerate(CATEGORY_SPECS)
            if (i + k) % 6 in reasons
        ]
        assert len(result.samples) == 20

    def test_every_outcome_same_bytes_at_any_concurrency(self):
        _, serial = run_all_outcomes(1)
        _, parallel = run_all_outcomes(3)
        assert serial == parallel
        assert hashlib.sha256(serial.encode("utf-8")).hexdigest() == ALL_OUTCOMES_SHA256

    def test_client_datagen_error_fails_without_retry(self, monkeypatch):
        monkeypatch.delenv("ABSENT_TOKEN", raising=False)
        config = DatagenConfig(
            endpoint="https://x.invalid",
            model="m",
            auth_env="ABSENT_TOKEN",
            max_failure_fraction=1.0,
        )
        session, adapter = stub_session({})
        sleeps = []
        result = generate_dataset(
            HttpChatClient(config, session=session), [ITEM], config=config, sleep=sleeps.append
        )
        assert sleeps == [] and adapter.calls == []
        stats = result.stats
        assert (stats.failed, stats.retries, stats.retries_by_key) == (10, 0, {})
        assert all("ABSENT_TOKEN" in f for f in stats.failures)

    def test_client_datagen_error_still_aborts_on_budget(self, monkeypatch):
        monkeypatch.delenv("ABSENT_TOKEN", raising=False)
        config = DatagenConfig(endpoint="https://x.invalid", model="m", auth_env="ABSENT_TOKEN")
        sleeps = []
        client = HttpChatClient(config, session=stub_session({})[0])
        message = r"10/10 units failed \(budget 20%\): item 0 Category: .*ABSENT_TOKEN"
        with pytest.raises(DatagenError, match=message):
            generate_dataset(client, [ITEM], config=config, sleep=sleeps.append)
        assert sleeps == []

    @pytest.mark.parametrize("max_in_flight", [1, 8])
    def test_client_bug_propagates_without_retry(self, max_in_flight):
        class BuggyClient(ScriptedClient):
            def complete(self, request):
                super().complete(request)
                return request.prompt_text  # no such attribute

        client = BuggyClient("unused")
        config = DatagenConfig(endpoint="https://x.invalid", model="m", max_in_flight=max_in_flight)
        sleeps = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a queued unit's send
        try:
            with pytest.raises(AttributeError, match="prompt_text"):
                generate_dataset(client, [ITEM] * 10, config=config, sleep=sleeps.append)
        finally:
            sys.setswitchinterval(interval)
        assert sleeps == []
        # Each worker thread calls once at most: no unit starts after the bug.
        assert client.calls == 1 if max_in_flight == 1 else 1 <= client.calls <= max_in_flight

    def test_http_error_status_is_retried(self):
        reply = {"choices": [{"message": {"content": "An entirely different caption."}}]}
        session, adapter = stub_session(reply, statuses=[503])
        config = DatagenConfig(endpoint="https://x.invalid", model="m")
        sleeps = []
        result = generate_dataset(
            HttpChatClient(config, session=session),
            [ITEM],
            specs=[COLOR_SPEC],
            config=config,
            sleep=sleeps.append,
        )
        assert (result.stats.produced, result.stats.retries) == (1, 1)
        assert sleeps == [0.5] and len(adapter.calls) == 2

    @pytest.mark.parametrize("max_in_flight", [1, 4])
    def test_blank_caption_raises_before_any_request(self, max_in_flight):
        client = ScriptedClient("NO")
        config = DatagenConfig(endpoint="https://x.invalid", model="m", max_in_flight=max_in_flight)
        with pytest.raises(ValueError, match="caption"):
            generate_dataset(client, [ITEM, (ITEM[0], "  ")], config=config, sleep=no_sleep)
        assert client.calls == 0

    def test_rejects_empty_items_and_duplicate_specs(self):
        client = ScriptedClient("NO")
        with pytest.raises(ValueError, match="items"):
            generate_dataset(client, [], config=DEFAULT_CONFIG, sleep=no_sleep)
        with pytest.raises(ValueError, match="distinct categories"):
            generate_dataset(
                client, [ITEM], specs=[COLOR_SPEC, COLOR_SPEC], config=DEFAULT_CONFIG, sleep=no_sleep
            )


class TestDatagenConfig:
    def test_requires_https(self):
        with pytest.raises(ValueError, match="https"):
            DatagenConfig(endpoint="http://api.example.com", model="m")

    def test_validation_ranges(self):
        with pytest.raises(ValueError, match="temperature"):
            DatagenConfig(endpoint="https://x.invalid", model="m", temperature=3.0)
        with pytest.raises(ValueError, match="max_in_flight"):
            DatagenConfig(endpoint="https://x.invalid", model="m", max_in_flight=0)
        with pytest.raises(ValueError, match="max_failure_fraction"):
            DatagenConfig(endpoint="https://x.invalid", model="m", max_failure_fraction=1.5)

    def test_json_round_trip(self, tmp_path):
        config = DatagenConfig(
            endpoint="https://api.example.com/v1/chat",
            model="demo-model",
            auth_env="DEMO_TOKEN",
            temperature=0.3,
            shape=ClientShape(prompt_mode="text", prompt_key="prompt", response_path=("completion",)),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_json_dict()), encoding="utf-8")
        assert load_datagen_config(path) == config

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"endpoint": "https://x.invalid", "model": "m", "token": "secret"}')
        with pytest.raises(DatagenError, match="unknown config keys"):
            load_datagen_config(path)

    def test_defaults(self):
        config = DatagenConfig(endpoint="https://x.invalid", model="m")
        assert config.temperature == 0.7
        assert config.max_retries == 3
        assert config.backoff_base_ms == 500
        assert config.max_in_flight == 4
        assert config.max_failure_fraction == 0.2

    def test_token_never_in_serialized_config(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "super-secret-value")
        config = DatagenConfig(
            endpoint="https://x.invalid", model="m", auth_env="DEMO_TOKEN"
        )
        blob = json.dumps(config.to_json_dict())
        assert "super-secret-value" not in blob
        assert "DEMO_TOKEN" in blob  # the variable name is config, the value is not


class RecordingAdapter(BaseAdapter):
    """Transport that records what ``send`` is handed and answers one JSON
    document, with the queued ``statuses`` first (then 200)."""

    def __init__(self, doc, statuses=()):
        super().__init__()
        self.doc = doc
        self.statuses = list(statuses)
        self.calls = []

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        self.calls.append(
            {
                "method": request.method,
                "url": request.url,
                "body": request.body,
                "headers": dict(request.headers),
                "proxies": dict(proxies),
                "verify": verify,
                "cert": cert,
                "stream": stream,
                "timeout": timeout,
            }
        )
        response = requests.Response()
        response.status_code = self.statuses.pop(0) if self.statuses else 200
        response._content = json.dumps(self.doc).encode("utf-8")
        response.encoding = "utf-8"
        response.url = request.url
        response.request = request
        return response

    def close(self):
        pass


def stub_session(doc, statuses=()):
    """A real ``requests.Session`` whose https:// requests reach a RecordingAdapter."""
    adapter = RecordingAdapter(doc, statuses)
    session = requests.Session()
    session.mount("https://", adapter)
    return session, adapter


CHAT_ENDPOINT = "https://api.example.com/v1/chat"
CHAT_REPLY = {"choices": [{"message": {"content": "hi there"}, "finish_reason": "stop"}]}
CHAT_BODY = {
    "model": "demo",
    "temperature": 0.5,
    "max_tokens": 32,
    "messages": [{"role": "user", "content": "hello"}],
}
PROXY = "http://proxy.example:3128"


@pytest.fixture
def proxy_env(monkeypatch, tmp_path):
    """Token, proxy and CA-bundle variables set; lower-case proxy names,
    which would take precedence, removed."""
    for name in ("https_proxy", "no_proxy", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("DEMO_TOKEN", "tok-123")
    monkeypatch.setenv("HTTPS_PROXY", PROXY)
    monkeypatch.setenv("NO_PROXY", "internal.example")
    bundle = str(tmp_path / "ca-bundle.pem")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", bundle)
    return bundle


class TestHttpChatClient:
    def make_request(self, prompt="hello"):
        return CompletionRequest(prompt=prompt, model="demo", temperature=0.5, max_tokens=32)

    def chat_config(self):
        return DatagenConfig(endpoint=CHAT_ENDPOINT, model="demo", auth_env="DEMO_TOKEN")

    def post_directly(self, session, prompt="hello"):
        """What ``session.post`` sends for the client's request, in the current environment."""
        headers = {"Content-Type": "application/json", "Authorization": "Bearer tok-123"}
        body = {**CHAT_BODY, "messages": [{"role": "user", "content": prompt}]}
        return session.post(CHAT_ENDPOINT, json=body, headers=headers, timeout=60.0)

    def test_chat_shape_request_and_response(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123")
        session, adapter = stub_session(CHAT_REPLY)
        client = HttpChatClient(self.chat_config(), session=session)
        response = client.complete(self.make_request())
        assert response.text == "hi there"
        call = adapter.calls[0]
        assert (call["method"], call["url"]) == ("POST", CHAT_ENDPOINT)
        assert json.loads(call["body"]) == CHAT_BODY
        assert call["headers"]["Authorization"] == "Bearer tok-123"
        assert call["timeout"] == 60.0

    def test_text_shape(self):
        config = DatagenConfig(
            endpoint="https://api.example.com/complete",
            model="demo",
            shape=ClientShape(
                prompt_mode="text", prompt_key="prompt", response_path=("completion",)
            ),
        )
        session, adapter = stub_session({"completion": "plain text answer"})
        client = HttpChatClient(config, session=session)
        assert client.complete(self.make_request()).text == "plain text answer"
        assert json.loads(adapter.calls[0]["body"])["prompt"] == "hello"
        assert "Authorization" not in adapter.calls[0]["headers"]

    def test_missing_auth_env_named(self, monkeypatch):
        monkeypatch.delenv("ABSENT_TOKEN", raising=False)
        config = DatagenConfig(
            endpoint="https://x.invalid", model="m", auth_env="ABSENT_TOKEN"
        )
        session, adapter = stub_session({})
        client = HttpChatClient(config, session=session)
        with pytest.raises(DatagenError, match="ABSENT_TOKEN"):
            client.complete(self.make_request())
        assert adapter.calls == []

    def test_bad_response_path(self):
        config = DatagenConfig(endpoint="https://x.invalid", model="m")
        client = HttpChatClient(config, session=stub_session({"unexpected": True})[0])
        with pytest.raises(DatagenError, match="response missing text"):
            client.complete(self.make_request())

    def test_sends_what_session_post_sends(self, proxy_env):
        session, adapter = stub_session(CHAT_REPLY)
        client = HttpChatClient(self.chat_config(), session=session)
        client.complete(self.make_request())
        self.post_directly(session)
        sent, posted = adapter.calls
        assert sent == posted
        assert sent["proxies"]["https"] == PROXY
        assert sent["verify"] == proxy_env

    def test_environment_read_when_client_is_built(self, proxy_env, monkeypatch):
        session, adapter = stub_session(CHAT_REPLY)
        client = HttpChatClient(self.chat_config(), session=session)
        client.complete(self.make_request())
        monkeypatch.setenv("HTTPS_PROXY", "http://other-proxy.example:8080")
        client.complete(self.make_request())
        self.post_directly(session)
        first, later, posted = adapter.calls
        assert later == first
        assert posted["proxies"]["https"] == "http://other-proxy.example:8080"

    def test_untrusted_environment_matches_session_post(self, proxy_env):
        session, adapter = stub_session(CHAT_REPLY)
        session.trust_env = False
        client = HttpChatClient(self.chat_config(), session=session)
        client.complete(self.make_request())
        self.post_directly(session)
        sent, posted = adapter.calls
        assert sent == posted
        assert (sent["proxies"], sent["verify"]) == ({}, True)

    def test_cookies_are_read_per_request(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123")
        session, adapter = stub_session(CHAT_REPLY)
        session.cookies.set("before", "1")
        client = HttpChatClient(self.chat_config(), session=session)
        session.cookies.set("after", "2")
        client.complete(self.make_request())
        self.post_directly(session)
        sent, posted = adapter.calls
        assert sent == posted
        assert sent["headers"]["Cookie"] == "before=1; after=2"

    def test_netrc_auth_overrides_the_token_header(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123")
        netrc = tmp_path / "netrc"
        netrc.write_text("machine api.example.com login user password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        session, adapter = stub_session(CHAT_REPLY)
        client = HttpChatClient(self.chat_config(), session=session)
        client.complete(self.make_request())
        self.post_directly(session)
        sent, posted = adapter.calls
        assert sent == posted
        assert sent["headers"]["Authorization"] == "Basic " + base64.b64encode(b"user:secret").decode()

    def test_session_headers_params_and_hooks_apply(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123")
        session, adapter = stub_session(CHAT_REPLY)
        session.headers["X-Team"] = "vision"
        session.params = {"api-version": "2024-06"}
        hooked = []
        session.hooks["response"].append(lambda response, **kwargs: hooked.append(response.url))
        client = HttpChatClient(self.chat_config(), session=session)
        client.complete(self.make_request())
        self.post_directly(session)
        sent, posted = adapter.calls
        assert sent == posted
        assert sent["url"] == CHAT_ENDPOINT + "?api-version=2024-06"
        assert sent["headers"]["X-Team"] == "vision"
        assert hooked == [sent["url"]] * 2

    def test_session_auth_signs_each_body(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123")

        def sign(prepared):
            prepared.headers["X-Body-Digest"] = hashlib.sha256(prepared.body).hexdigest()
            return prepared

        session, adapter = stub_session(CHAT_REPLY)
        session.auth = sign
        client = HttpChatClient(self.chat_config(), session=session)
        for prompt in ("hello", "a different prompt"):
            client.complete(self.make_request(prompt))
            self.post_directly(session, prompt)
        first, first_posted, second, second_posted = adapter.calls
        assert (first, second) == (first_posted, second_posted)
        for call in (first, second):
            assert call["headers"]["X-Body-Digest"] == hashlib.sha256(call["body"]).hexdigest()
        assert first["headers"]["X-Body-Digest"] != second["headers"]["X-Body-Digest"]

    def test_invalid_token_header_is_rejected_before_sending(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123\n")
        session, adapter = stub_session(CHAT_REPLY)
        client = HttpChatClient(self.chat_config(), session=session)
        with pytest.raises(requests.exceptions.InvalidHeader):
            client.complete(self.make_request())
        assert adapter.calls == []

    def test_session_prepares_at_most_once_per_client(self, monkeypatch):
        monkeypatch.setenv("DEMO_TOKEN", "tok-123")
        prepared = []
        prepare_request = requests.Session.prepare_request

        def counted(session, request):
            prepared.append(request)
            return prepare_request(session, request)

        monkeypatch.setattr(requests.Session, "prepare_request", counted)
        session, adapter = stub_session(CHAT_REPLY)
        client = HttpChatClient(self.chat_config(), session=session)
        for _ in range(10):
            client.complete(self.make_request())
        assert len(adapter.calls) == 10
        assert len(prepared) <= 1


class TestCaptionItems:
    def test_round_trip(self):
        items = [ITEM, (ImageRef(kind="file", path="b.raw"), "Another caption.")]
        blob = dumps_caption_items(items)
        assert loads_caption_items(blob) == items

    def test_line_numbered_errors(self):
        good = dumps_caption_items([ITEM]).rstrip("\n")
        with pytest.raises(DatasetError, match="line 2"):
            loads_caption_items(good + '\n{"image": {"kind": "file", "path": "x"}}\n')
        with pytest.raises(DatasetError, match="line 1.*caption"):
            loads_caption_items('{"image": {"kind": "file", "path": "x"}, "caption": " "}\n')
        with pytest.raises(DatasetError, match="no entries"):
            loads_caption_items("")
