"""Span recording around calls into routebench's public functions.

A traced run replaces module attributes of a freshly imported routebench with
wrappers that record one span per call: name, start, end, parent span and the
id of the sample being worked on.  Spans stay in memory until the run ends and
are then written as JSONL.  Nothing under ``src/`` is modified; the wrappers
only exist in the traced process, on module objects the untraced phase never
uses.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Entry points that orchestrate other layers.  Their own self time is glue
# (thread pools, list building, stage bookkeeping), not the work of a layer,
# so it is kept out of the coverage sum.
ORCHESTRATORS = frozenset(
    {"fusion.run_pipeline", "evaluator.evaluate_dataset", "datagen.generate_dataset"}
)
# Spans the benchmark opens around its own code.
BENCH_PREFIX = "bench."


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # (id, name, start, end, parent, sample, thread)
        self._ids = itertools.count()
        self._local = threading.local()
        # Sample ids of scenes, filled by the workload that owns them.
        self.scene_ids = {}
        # (active set, experts with non-zero weight) per run_pipeline call.
        self.routings = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.sample = None
            local.persona_by_source = {}
        return local

    def set_sample(self, sample) -> None:
        self._state().sample = None if sample is None else str(sample)

    def wrap(self, name, fn, sample_of=None, on_return=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a callable of the call's arguments.
        ``sample_of(args)`` may switch the current sample id before the span
        opens; ``on_return(args, result)`` sees each successful result.
        """
        spans = self.spans
        ids = self._ids
        state = self._state

        def traced(*args, **kwargs):
            local = state()
            if sample_of is not None:
                local.sample = sample_of(args)
            span_name = name if isinstance(name, str) else name(args)
            stack = local.stack
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    (span_id, span_name, start, end, parent, local.sample, threading.get_ident())
                )
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    # Persona attribution: resample/adapt only see a feature map whose source
    # is the expert id, so each thread remembers which persona last encoded
    # under that id.
    def remember_persona(self, args, result) -> None:
        self._state().persona_by_source[result.source] = args[1].persona

    def persona_of(self, source) -> str:
        return self._state().persona_by_source.get(source, "unknown")

    def _record_routing(self, args, result) -> None:
        weights = result.routing.weights
        self.routings.append((result.routing.active, sum(1 for w in weights if w != 0.0)))

    def install(self, rb) -> None:
        """Patch the public functions of a fresh routebench import.

        Functions are replaced in the namespaces that call them (``fusion``
        for the pipeline stages, ``evaluator`` for eval, ``numerics`` for the
        gradient-check prefix) and in their home modules for calls the
        benchmark makes itself.
        """
        fusion, evaluator, numerics, benchmark = rb.fusion, rb.evaluator, rb.numerics, rb.benchmark

        def encode_name(args):
            return "experts.encode." + args[1].persona

        def stage_name(stage):
            return lambda args: f"experts.{stage}.{self.persona_of(args[0].source)}"

        for ns in (fusion, numerics):
            ns.encode_toy_expert = self.wrap(
                encode_name, ns.encode_toy_expert, on_return=self.remember_persona
            )
            ns.resample_tokens = self.wrap(stage_name("resample"), ns.resample_tokens)
            ns.adapt_dim = self.wrap(stage_name("adapt"), ns.adapt_dim)
            ns.clip_encode = self.wrap("router.clip_encode", ns.clip_encode)
        fusion.PipelineConfig.expert_adapter = self.wrap(
            "experts.adapter_build", fusion.PipelineConfig.expert_adapter
        )
        for fn_name in ("route_logits", "routing_weights", "select_top_k"):
            setattr(fusion, fn_name, self.wrap("router.route", getattr(fusion, fn_name)))
        fusion.weighted_fuse = self.wrap("fusion.fuse", fusion.weighted_fuse)
        fusion.residual_merge = self.wrap("fusion.fuse", fusion.residual_merge)
        fusion.project = self.wrap("fusion.project", fusion.project)
        pipeline = self.wrap(
            "fusion.run_pipeline", fusion.run_pipeline, on_return=self._record_routing
        )
        fusion.run_pipeline = pipeline
        evaluator.run_pipeline = pipeline

        benchmark.build_synthetic_dataset = self.wrap(
            "benchmark.build_dataset", benchmark.build_synthetic_dataset
        )
        benchmark.loads_dataset = self.wrap("benchmark.loads_dataset", benchmark.loads_dataset)
        evaluator.rasterize = self.wrap(
            "benchmark.rasterize",
            evaluator.rasterize,
            sample_of=lambda args: self.scene_ids.get(id(args[0])),
        )

        evaluator.judge_sample = self.wrap("evaluator.judge", evaluator.judge_sample)
        for fn_name in ("error_rates", "radar_csv", "dumps_judgements", "loads_judgements"):
            setattr(evaluator, fn_name, self.wrap("evaluator.report", getattr(evaluator, fn_name)))
        evaluator.evaluate_dataset = self.wrap(
            "evaluator.evaluate_dataset", evaluator.evaluate_dataset
        )

        numerics.check_router_fusion_gradients = self.wrap(
            "numerics.check", numerics.check_router_fusion_gradients
        )
        rb.datagen.generate_dataset = self.wrap(
            "datagen.generate_dataset", rb.datagen.generate_dataset
        )

    def summarize(self):
        """Per span name: self time, total time and calls.  Per parent name:
        total time of its direct children.  Per span id: self time."""
        names = {}
        child_time = defaultdict(float)
        for span_id, name, start, end, parent, _, _ in self.spans:
            names[span_id] = name
            if parent >= 0:
                child_time[parent] += end - start
        per_name = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        under = defaultdict(float)
        self_times = {}
        for span_id, name, start, end, parent, _, _ in self.spans:
            own = end - start - child_time[span_id]
            self_times[span_id] = own
            entry = per_name[name]
            entry["self_s"] += own
            entry["total_s"] += end - start
            entry["calls"] += 1
            if parent >= 0:
                under[names[parent]] += end - start
        return dict(per_name), dict(under), self_times

    def layer_self_seconds(self, per_name) -> float:
        """Self time of every layer span: not the benchmark's own spans, not
        orchestrators, not set-up."""
        return sum(
            v["self_s"]
            for k, v in per_name.items()
            if not k.startswith(BENCH_PREFIX)
            and k not in ORCHESTRATORS
            and k not in ("benchmark.build_dataset", "benchmark.loads_dataset")
        )

    def write(self, path: Path, self_times, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, sample, thread in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_s": round(start - t0, 9),
                            "end_s": round(end - t0, 9),
                            "self_s": round(self_times[span_id], 9),
                            "parent": parent,
                            "sample": sample,
                            "thread": thread,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
