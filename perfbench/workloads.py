"""The benchmark's workloads: inputs, timed calls and correctness oracles.

Each workload builds its inputs from the run's seed in ``setup``, then runs
fixed-size passes over them.  ``run_pass`` makes the timed calls through the
``timed`` callback, so only calls into routebench are timed; input creation
and output checks around them are not.  Every pass is checked, and
``verify`` adds the slower checks once per run: frozen golden values from
``golden.json`` and a second computation of the same outputs by another
route.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import requests

from transport import SCRIPT_SHARES, ScriptedService, build_script

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text(encoding="utf-8"))
# Golden values were taken with this seed; other seeds recompute them.
DEFAULT_SEED = 0


class Workload:
    """Shared bookkeeping; subclasses fill in setup, run_pass and verify.

    ``pass_items`` is the number of work items in one pass (samples, images,
    configs or units), the base that per-layer times are divided by.
    """

    pass_items = 0
    # The host-speed probe (speed.PROBES) whose code resembles the workload's.
    probe = "interpreted"

    def __init__(self):
        self.problems = []
        self.failed = 0

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        if len(self.problems) < 20:
            self.problems.append(message)

    def layer_counts(self, throughput: float) -> dict:
        """Per-layer values this workload owns, for the traced run;
        ``throughput`` is the untraced phase's."""
        return {}

    def notes(self) -> dict:
        """Facts about the run for the report line."""
        return {}


def _judgement_key(judgements) -> tuple:
    return tuple(
        (j.sample_id, j.ppl_real, j.ppl_hall, j.is_error, j.category.value) for j in judgements
    )


def _category_summary(key) -> dict:
    """category -> [n, errors, ties, sum PPL(R), sum PPL(H)] from judgement
    keys; a tie is PPL(R) == PPL(H)."""
    summary = {}
    for _, ppl_real, ppl_hall, is_error, category in key:
        row = summary.setdefault(category, [0, 0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += int(is_error)
        row[2] += int(ppl_real == ppl_hall)
        row[3] += ppl_real
        row[4] += ppl_hall
    return dict(sorted(summary.items()))


class JudgeSynth(Workload):
    """``gen-synth`` -> JSONL -> ``eval`` -> report, at one parallelism.

    A pass evaluates the dataset one category at a time: ten timed calls of
    50 samples each, so that a run has enough calls for a 90th percentile.
    ``verify`` evaluates the whole dataset in one call and compares.
    """

    N_PER_CATEGORY = 50
    pass_items = 10 * N_PER_CATEGORY
    # Batched eval may reorder float sums: perplexity sums must agree to this
    # relative tolerance, counts exactly.
    TOLERANCE = 1e-9

    def __init__(self, parallelism: int):
        super().__init__()
        self.parallelism = parallelism
        self.reference = None
        self.summary = None

    def setup(self, rb, seed: int, tracer) -> None:
        self.rb, self.seed = rb, seed
        bm, ev = rb.benchmark, rb.evaluator
        dataset = bm.build_synthetic_dataset(self.N_PER_CATEGORY, seed)
        self.text = bm.dumps_dataset(dataset)
        self.samples = bm.loads_dataset(self.text)
        # build_synthetic_dataset emits the categories in contiguous blocks.
        n = self.N_PER_CATEGORY
        self.chunks = [self.samples[i : i + n] for i in range(0, len(self.samples), n)]
        self.config = ev.toy_judging_config(favored_persona="color-histogram")
        self.scorer = ev.affinity_scorer(ev.AffinityConfig())
        if tracer is not None:
            tracer.scene_ids.update({id(s.image.scene): s.id for s in self.samples})
            self.scorer.score = tracer.wrap("evaluator.score", self.scorer.score)

    def _flow(self, samples, parallelism: int):
        ev = self.rb.evaluator
        judgements, report = ev.evaluate_dataset(
            self.scorer, self.config, samples, parallelism=parallelism
        )
        csv = ev.radar_csv({"color-favoured": report})
        back = ev.loads_judgements(ev.dumps_judgements(judgements))
        return judgements, report, csv, back

    def run_pass(self, timed):
        key = ()
        problems = []
        for chunk in self.chunks:
            judgements, report, csv, back = timed(
                chunk[0].category.value, self._flow, chunk, self.parallelism
            )
            chunk_key = _judgement_key(judgements)
            chunk_summary = _category_summary(chunk_key)
            key += chunk_key
            if _judgement_key(back) != chunk_key:
                problems.append("judgement JSONL round trip changed the judgements")
            if len(csv.splitlines()) != 1 + len(report.per_category):
                problems.append("radar CSV does not have one row per category")
            own = chunk[0].category
            for category, stats in report.per_category.items():
                row = chunk_summary.get(category.value, [0, 0, 0])
                n = self.N_PER_CATEGORY if category == own else 0
                if stats.n != n or (stats.n, stats.errors) != tuple(row[:2]):
                    problems.append(f"{category.value}: report says n={stats.n} errors={stats.errors}")
        summary = _category_summary(key)
        if len(summary) != len(self.chunks):
            problems.append("the categories' evals do not cover every category")
        if self.reference is None:
            self.reference, self.summary = key, summary
        elif key != self.reference:
            problems.append("judgements differ between passes")
        if problems:
            self.fail(self.pass_items, "; ".join(problems))
        return self.pass_items, self.pass_items

    def layer_counts(self, throughput: float) -> dict:
        rows = (self.summary or {}).values()
        return {
            "evaluator.ties": sum(r[2] for r in rows),
            "evaluator.errors": sum(r[1] for r in rows),
        }

    def verify(self) -> None:
        bm = self.rb.benchmark
        if bm.dumps_dataset(self.samples) != self.text:
            self.fail(0, "dataset JSONL round trip is not byte-identical")
        other = 2 if self.parallelism == 1 else 1
        judgements = self._flow(self.samples, other)[0]
        if _judgement_key(judgements) != self.reference:
            self.fail(
                0,
                f"whole-dataset judgements at parallelism {other} differ from"
                f" per-category ones at parallelism {self.parallelism}",
            )
        summary = self.summary
        if self.seed != DEFAULT_SEED:
            dataset = bm.build_synthetic_dataset(self.N_PER_CATEGORY, DEFAULT_SEED)
            summary = _category_summary(_judgement_key(self._flow(dataset, self.parallelism)[0]))
        golden = GOLDEN["judge"]["categories"]
        for category, row in summary.items():
            want = golden.get(category, [None] * 5)
            sums_close = all(
                abs(got - frozen) <= self.TOLERANCE * abs(frozen)
                for got, frozen in zip(row[3:], want[3:])
            )
            if row[:3] != want[:3] or not sums_close:
                self.fail(0, f"default-seed {category} {row} differs from the frozen {want}")
        if set(summary) != set(golden):
            self.fail(0, "default-seed report covers other categories than the frozen one")


class PipelinePaper(Workload):
    """``run_pipeline`` on distinct 384x384 images with the paper-like config."""

    pass_items = 1
    probe = "dense"  # align and project are large matrix products
    SIDE = 384
    KEPT = 2  # images whose outputs verify() recomputes
    TOLERANCE = 1e-9  # relative to the largest magnitude compared

    def __init__(self):
        super().__init__()
        self.next_image = 0
        self.kept = []

    def setup(self, rb, seed: int, tracer) -> None:
        self.rb, self.seed = rb, seed
        ex, fu, ro = rb.experts, rb.fusion, rb.router
        experts = tuple(
            ex.ToyExpertSpec(
                id=i,
                persona=persona,
                seed=i,
                native_tokens=256 if i % 2 else 64,
                native_dim=768 if i % 2 else 512,
            )
            for i, persona in enumerate(ex.PERSONAS)
        )
        head = ex.seeded_adapter(1024, len(experts), 0)
        self.config = fu.PipelineConfig(
            experts=experts,
            router=ro.RouterParams(head.weights, head.bias),
            strategy=fu.FusionStrategy(kind="routed", k=2),
            projector=fu.ProjectorParams(
                stage1=ex.seeded_adapter(1024, 1024, 1), stage2=ex.seeded_adapter(1024, 1024, 2)
            ),
        )

    def image(self, seed: int, index: int):
        pixels = np.random.default_rng([seed, index]).random((self.SIDE, self.SIDE, 3))
        return self.rb.experts.ImageGrid(pixels)

    def run_pass(self, timed):
        for _ in range(self.pass_items):
            index = self.next_image
            self.next_image += 1
            image = self.image(self.seed, index)
            result = timed(index, self.rb.fusion.run_pipeline, image, self.config)
            values = result.features.values
            if (
                len(result.routing.active) != self.config.strategy.k
                or values.shape != (self.config.canonical_tokens, self.config.canonical_dim)
                or not np.isfinite(values).all()
            ):
                self.fail(1, f"image {index}: malformed result")
            if index < self.KEPT:
                self.kept.append((index, image, result))
        return self.pass_items, self.pass_items

    def _reference(self, image):
        """The stage-by-stage composition run_pipeline must agree with."""
        ex, ro, fu = self.rb.experts, self.rb.router, self.rb.fusion
        config = self.config
        aligned = []
        for spec in config.experts:
            fm = ex.resample_tokens(ex.encode_toy_expert(image, spec), config.canonical_tokens)
            if spec.native_dim != config.canonical_dim:
                fm = ex.adapt_dim(fm, config.expert_adapter(spec))
            aligned.append(fm)
        clip = ro.clip_encode(image, config.clip_params())
        routing = ro.select_top_k(
            ro.routing_weights(ro.route_logits(clip.cls, config.router)), config.strategy.k
        )
        fused = fu.residual_merge(clip.patches, fu.weighted_fuse(routing, aligned))
        return routing, fu.project(fused, config.projector)

    @staticmethod
    def probes(features) -> np.ndarray:
        """A compact fingerprint: every 64th token projected on 4 fixed directions."""
        directions = np.random.default_rng(20250917).standard_normal((features.dim, 4))
        return (features.values[::64] @ directions).ravel()

    def _close(self, got, want) -> bool:
        scale = max(1.0, float(np.max(np.abs(want))))
        return bool(np.max(np.abs(got - want)) <= self.TOLERANCE * scale)

    def verify(self) -> None:
        for index, image, result in self.kept:
            routing, features = self._reference(image)
            if not np.array_equal(routing.weights, result.routing.weights):
                self.fail(0, f"image {index}: routing weights differ from the stage-by-stage path")
            if routing.active != result.routing.active:
                self.fail(0, f"image {index}: active set differs from the stage-by-stage path")
            if not self._close(result.features.values, features.values):
                self.fail(0, f"image {index}: features differ from the stage-by-stage path")
        for golden in GOLDEN["pipeline"]["images"]:
            index = golden["index"]
            if self.seed == DEFAULT_SEED and index < len(self.kept):
                result = self.kept[index][2]
            else:
                result = self.rb.fusion.run_pipeline(
                    self.image(DEFAULT_SEED, index), self.config
                )
            weights = [float.fromhex(h) for h in golden["weights_hex"]]
            if result.routing.weights.tolist() != weights:
                self.fail(0, f"golden image {index}: routing weights differ from the frozen ones")
            if sorted(result.routing.active) != golden["active"]:
                self.fail(0, f"golden image {index}: active set differs from the frozen one")
            if not self._close(self.probes(result.features), np.array(golden["probes"])):
                self.fail(0, f"golden image {index}: feature probes differ from the frozen ones")


class GradcheckSmall(Workload):
    """``check_router_fusion_gradients`` over consecutive small configs."""

    pass_items = 100
    # Pass p of run seed s checks configs s*stride + p*pass_items + j: every
    # config of a run is new, and the first pass is fixed for a seed.
    SEED_STRIDE = 100_000

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.first_pass_coords = 0

    def setup(self, rb, seed: int, tracer) -> None:
        self.rb, self.seed = rb, seed
        self.configs = self.build_configs(seed, 0)

    def build_configs(self, seed: int, pass_index: int) -> list:
        make = self.rb.numerics.small_gradcheck_config
        base = seed * self.SEED_STRIDE + pass_index * self.pass_items
        return [make(base + j) for j in range(self.pass_items)]

    @staticmethod
    def coordinates(config) -> int:
        return (
            config.router.weights.size
            + config.router.bias.size
            + config.projector.stage1.weights.size
            + config.projector.stage2.weights.size
        )

    def run_pass(self, timed):
        configs = self.configs if self.passes == 0 else self.build_configs(self.seed, self.passes)
        numerics = self.rb.numerics
        coords = 0
        for j, (config, image) in enumerate(configs):
            reports = timed(f"{self.passes}:{j}", numerics.check_router_fusion_gradients, config, image)
            got = sum(r.n_coordinates for r in reports)
            names = tuple(r.parameter_name for r in reports)
            if (
                names != numerics.CHECKED_PARAMS
                or got != self.coordinates(config)
                or not all(r.passed for r in reports)
            ):
                self.fail(1, f"config {j}: gradient check failed or miscounted ({got} coordinates)")
            coords += got
        if self.passes == 0:
            self.first_pass_coords = coords
        self.passes += 1
        return coords, len(configs)

    def layer_counts(self, throughput: float) -> dict:
        return {"numerics.loss_evals": 2 * self.first_pass_coords}

    def verify(self) -> None:
        golden = GOLDEN["gradcheck"]
        coords = self.first_pass_coords
        if self.seed != DEFAULT_SEED:
            coords = sum(self.coordinates(c) for c, _ in self.build_configs(DEFAULT_SEED, 0))
        if coords != golden["pass_coordinates"]:
            self.fail(0, f"default-seed pass has {coords} coordinates, frozen {golden['pass_coordinates']}")


class DatagenInproc(Workload):
    """``generate_dataset`` through HttpChatClient and an in-process service.

    A pass generates for 40 items in four timed calls of 10 items (100
    units), so that a run has enough calls for a 90th percentile.
    """

    N_ITEMS = 40
    ITEMS_PER_CALL = 10
    pass_items = 10 * N_ITEMS  # units: items x categories
    SERVICE_SECONDS = 0.0002
    MAX_IN_FLIGHT = 2
    MAX_RETRIES = 2
    ENDPOINT = "https://chat.routebench.invalid/v1/chat/completions"

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.in_flight_peak = 0

    def setup(self, rb, seed: int, tracer) -> None:
        self.rb, self.seed = rb, seed
        bm, dg = rb.benchmark, rb.datagen
        rng = random.Random(f"{seed}:items")
        items, seen = [], set()
        while len(items) < self.N_ITEMS:
            desc, _ = bm.synth_scene(rng.getrandbits(32))
            caption = bm.synth_caption(desc)
            if caption not in seen:
                seen.add(caption)
                items.append((bm.ImageRef(kind="scene", scene=desc), caption))
        self.items = items
        # Backoff 0: DatagenConfig takes whole milliseconds, and even 1 ms
        # would put about a fifth of each pass in retry sleeps.
        self.config = dg.DatagenConfig(
            endpoint=self.ENDPOINT,
            model="bench-model",
            max_retries=self.MAX_RETRIES,
            backoff_base_ms=0,
            max_in_flight=self.MAX_IN_FLIGHT,
        )
        units = [
            (dg.render_prompt(dg.DEFAULT_TEMPLATE, spec, caption), caption, item, spec.category)
            for item, (_, caption) in enumerate(items)
            for spec in dg.CATEGORY_SPECS
        ]
        self.script = build_script([(p, c) for p, c, _, _ in units], seed)
        self.unit_ids = {p: f"{item}:{category.value}" for p, _, item, category in units}
        self.expected_samples, self.expected = self._expect(units)
        self.service = ScriptedService(self.script, self.SERVICE_SECONDS)
        self.session = requests.Session()
        self.session.mount("https://", self.service)
        self.session.mount("http://", self.service)
        self.client = dg.HttpChatClient(self.config, session=self.session)
        if tracer is not None:
            self.client.complete = tracer.wrap(
                "datagen.complete",
                self.client.complete,
                sample_of=lambda args: self.unit_ids.get(args[0].prompt),
            )
            self.service.send = tracer.wrap("bench.service", self.service.send)

    def _expect(self, units):
        """Samples and counts the script implies, in (item, category) order."""
        counts = dict.fromkeys(("produced", "skipped_no", "skipped_echo", "failed", "retries"), 0)
        samples = []
        for prompt, caption, item, category in units:
            outcome, reply = self.script[prompt]
            if outcome == "exhaust":
                counts["failed"] += 1
                counts["retries"] += self.MAX_RETRIES
            elif outcome == "no":
                counts["skipped_no"] += 1
            elif outcome == "echo":
                counts["skipped_echo"] += 1
            else:
                counts["produced"] += 1
                counts["retries"] += {"retry1": 1, "retry2": 2}.get(outcome, 0)
                # generate_dataset numbers items within its call.
                sample_id = f"gen-{item % self.ITEMS_PER_CALL:04d}-{category.value.lower()}"
                samples.append((sample_id, caption, reply, category.value))
        counts["requested"] = len(units)
        counts["skipped_invalid"] = 0
        counts["requests"] = len(units) + counts["retries"]
        return samples, counts

    def run_pass(self, timed):
        self.service.reset()
        got = dict.fromkeys(self.expected, 0)
        samples = []
        for first in range(0, self.N_ITEMS, self.ITEMS_PER_CALL):
            result = timed(
                f"{self.passes}:{first}",
                self.rb.datagen.generate_dataset,
                self.client,
                self.items[first : first + self.ITEMS_PER_CALL],
                config=self.config,
            )
            for key in got:
                if key != "requests":
                    got[key] += getattr(result.stats, key)
            samples += [
                (s.id, s.real_caption, s.hallucinated_caption, s.category.value)
                for s in result.samples
            ]
        self.passes += 1
        got["requests"] = self.service.requests
        self.in_flight_peak = max(self.in_flight_peak, self.service.in_flight_peak)
        if got != self.expected:
            self.fail(self.pass_items, f"datagen counts {got} differ from the script's {self.expected}")
        elif samples != self.expected_samples:
            self.fail(self.pass_items, "datagen samples differ from the scripted replies")
        if self.service.in_flight_peak > self.MAX_IN_FLIGHT:
            self.fail(0, f"{self.service.in_flight_peak} requests in flight, limit {self.MAX_IN_FLIGHT}")
        return self.pass_items, self.pass_items

    def layer_counts(self, throughput: float) -> dict:
        expected = self.expected
        capacity = self.MAX_IN_FLIGHT / self.SERVICE_SECONDS
        return {
            "datagen.requests": expected["requests"],
            "datagen.retries": expected["retries"],
            "datagen.failed": expected["failed"],
            "datagen.inflight_peak": self.in_flight_peak,
            "datagen.useful_ratio": expected["produced"] / expected["requests"],
            "datagen.service_busy_ratio": throughput / capacity,
        }

    def notes(self) -> dict:
        # Units that exhaust their retries, as scripted, over units attempted.
        return {"scripted_failed_share": self.expected["failed"] / self.expected["requested"]}

    def verify(self) -> None:
        shares = dict(SCRIPT_SHARES)
        if self.expected != GOLDEN["datagen"]["pass_counts"]:
            self.fail(0, f"script counts {self.expected} differ from the frozen ones")
        if self.notes()["scripted_failed_share"] != shares["exhaust"]:
            self.fail(0, "failed share differs from the scripted share")
        self.session.close()


WORKLOADS = {
    "judge-synth500": lambda: JudgeSynth(parallelism=1),
    "judge-synth500-par2": lambda: JudgeSynth(parallelism=2),
    "pipeline-paper576": PipelinePaper,
    "gradcheck-small": GradcheckSmall,
    "datagen-inproc": DatagenInproc,
}
