"""An in-process chat-completion service for the datagen workload.

:class:`ScriptedService` is a ``requests`` transport adapter.  Mounted on a
``requests.Session`` for ``https://``, it answers every request in the calling
thread, so no socket is opened.  Each reply is looked up by the request's
prompt text, never by call order: with several requests in flight, the same
unit gets the same answer whatever the thread schedule.  A unit's failures
are counted per prompt, so "fail twice, then answer" also holds under any
interleaving.
"""

from __future__ import annotations

import json
import random
import threading
import time

import requests
from requests.adapters import BaseAdapter

# Exact shares of units per scripted outcome; the rest get a rewritten caption.
# "retry1"/"retry2" answer 503 once/twice before the rewrite; "exhaust" answers
# 503 to every attempt, which fails the unit.  5% failed units stay under the
# generator's default 20% failure budget.
SCRIPT_SHARES = (("exhaust", 0.05), ("retry1", 0.10), ("retry2", 0.10), ("no", 0.10), ("echo", 0.05))
FAILURES_BEFORE_ANSWER = {"retry1": 1, "retry2": 2}


def rewrite(caption: str) -> str:
    """The scripted one-token edit: the stative verb becomes an action."""
    return caption.replace(" sits ", " spins ", 1)


def build_script(units, seed: int) -> dict:
    """Assign outcomes to ``units`` (prompt, caption) in exact shares.

    The assignment is a seeded shuffle of the unit list, so it depends only
    on the units and the seed.  Returns prompt -> (outcome, reply text).
    """
    order = list(range(len(units)))
    random.Random(f"{seed}:script").shuffle(order)
    outcome_of = {}
    start = 0
    for outcome, share in SCRIPT_SHARES:
        count = round(share * len(units))
        for pos in order[start : start + count]:
            outcome_of[pos] = outcome
        start += count
    script = {}
    for pos, (prompt, caption) in enumerate(units):
        outcome = outcome_of.get(pos, "rewrite")
        if outcome == "no":
            reply = "NO"
        elif outcome == "echo":
            reply = caption + "\n"
        else:
            reply = rewrite(caption)
        script[prompt] = (outcome, reply)
    return script


def _response(request, status: int, doc: dict) -> requests.Response:
    response = requests.Response()
    response.status_code = status
    response._content = json.dumps(doc).encode("utf-8")
    response.headers["Content-Type"] = "application/json"
    response.encoding = "utf-8"
    response.url = request.url
    response.request = request
    return response


class ScriptedService(BaseAdapter):
    """Answers chat-completion requests from a script after a fixed service time."""

    def __init__(self, script: dict, service_seconds: float):
        super().__init__()
        self.script = script
        self.service_seconds = service_seconds
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.attempts = {}
            self.requests = 0
            self.in_flight = 0
            self.in_flight_peak = 0

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            self.in_flight_peak = max(self.in_flight_peak, self.in_flight)
        try:
            time.sleep(self.service_seconds)
            try:
                prompt = json.loads(request.body)["messages"][0]["content"]
                outcome, reply = self.script[prompt]
            except (ValueError, KeyError, IndexError, TypeError):
                return _response(request, 400, {"error": "request not in script"})
            with self._lock:
                attempt = self.attempts.get(prompt, 0) + 1
                self.attempts[prompt] = attempt
            if outcome == "exhaust" or attempt <= FAILURES_BEFORE_ANSWER.get(outcome, 0):
                return _response(request, 503, {"error": "service busy"})
            return _response(
                request,
                200,
                {
                    "choices": [
                        {"message": {"role": "assistant", "content": reply}, "finish_reason": "stop"}
                    ]
                },
            )
        finally:
            with self._lock:
                self.in_flight -= 1

    def close(self) -> None:
        pass
