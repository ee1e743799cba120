#!/usr/bin/env python3
"""routebench benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-paper576 --seed 3 --seconds 15 --trace 0

The package is imported from ``src/`` of that checkout.  The run sets up its
workload several times, measures it for ``--seconds`` seconds, checks every
output, and prints one JSON line describing the run and, as the last line of
stdout, the result the metric list in ``BENCHMARK.json`` asks for:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A traced run measures half its time untraced and half traced, reports the
difference as ``trace.overhead_ratio`` and writes its spans to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl``.

Exit codes: 0 when a result was printed (``correct`` says whether the outputs
passed their checks), 1 when set-up failed, 2 when the package or the
arguments are unusable.
"""

from __future__ import annotations

import os

# numpy's BLAS thread count moves paper-geometry latency by about a quarter on
# two cores, so it is fixed before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Every thread of the run shares one CPU.  On a shared host, handing the
# interpreter lock between threads on two vCPUs costs a different amount
# from run to run (eval at parallelism 2 took 1.6 to 3.5 s per pass on the
# same inputs); on one CPU it costs the same, and the probes that scale the
# times (speed.py) run on the CPU they scale.
CPUS_ALLOWED = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, CPUS_ALLOWED[:1])

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from speed import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("benchmark", "experts", "router", "fusion", "numerics", "evaluator", "datagen")
# Set-ups per untraced run: at least SETUP_REPEATS, more while they have
# taken under SETUP_SECONDS, at most MAX_SETUP_REPEATS; setup_s is their median.
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
MAX_SETUP_REPEATS = 40
PERSONA_METRICS = ("encode", "resample", "adapt")
# Per-layer values a workload supplies from its own counts; 0 on the others.
WORKLOAD_OWNED = (
    "numerics.loss_evals",
    "evaluator.ties",
    "evaluator.errors",
    "datagen.requests",
    "datagen.retries",
    "datagen.failed",
    "datagen.inflight_peak",
    "datagen.useful_ratio",
    "datagen.service_busy_ratio",
)


def die(code: int, message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_routebench() -> SimpleNamespace:
    """Import routebench from this checkout, dropping any earlier import so
    that each set-up pays for the package import again."""
    for name in [m for m in sys.modules if m == "routebench" or m.startswith("routebench.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"routebench.{m}") for m in MODULES}
    package = sys.modules["routebench"]
    if Path(package.__file__).resolve().parent != SRC / "routebench":
        die(2, f"imported routebench from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(CPUS_ALLOWED),
        "pinned_cpu": CPUS_ALLOWED[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
    }


def set_up(factory, seed: int, tracer=None):
    """Import the package and build the workload's inputs.

    Returns the seconds this took, scaled to the probe's reference speed,
    the wall seconds and the workload.  A traced set-up is not probed inside,
    so that its spans hold only routebench's time.
    """
    workload = factory()
    # Set-up is interpreted code (imports, input building) on every workload.
    clock = Clock("interpreted")
    clock.probe()
    if tracer is None:
        clock.start()
    try:
        start, cpu = time.perf_counter(), time.process_time()
        rb = import_routebench()
        if tracer is not None:
            tracer.install(rb)
        workload.setup(rb, seed, tracer)
        end, cpu = time.perf_counter(), time.process_time() - cpu
    finally:
        clock.stop()
    clock.probe()
    return clock.scaled(start, end, cpu), end - start, workload


class Phase:
    """Timed calls and passes of one measurement window.

    Call times are scaled to the probe's reference speed (``speed.Clock``);
    ``raw_calls`` keeps the wall times for the report.
    """

    def __init__(self, workload):
        self.workload = workload
        self.clock = Clock(workload.probe)
        self.spans = []  # (start, end, process CPU seconds) per timed call
        self.ranges = []  # (throughput items, work items, first call, end call) per pass
        self.attempted = 0

    def measure(self, seconds: float, tracer=None, timer=True) -> "Phase":
        """Run passes for ``seconds``.  With ``timer`` the probes interrupt
        the timed calls on a timer; without, they run between calls, which
        a traced phase needs (its spans must hold only routebench's time)
        and which the untraced half of a traced run copies, so that the
        two halves compare like with like."""
        workload, spans, clock = self.workload, self.spans, self.clock

        def timed(sample, fn, *args, **kwargs):
            if tracer is not None:
                tracer.set_sample(sample)
            if not timer:
                clock.maybe_probe()
            start, cpu = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    return fn(*args, **kwargs)
                return tracer.span("bench.op", fn, *args, **kwargs)
            finally:
                spans.append((start, time.perf_counter(), time.process_time() - cpu))

        clock.probe()
        if timer:
            clock.start()
        try:
            deadline = time.perf_counter() + seconds
            while True:
                first = len(spans)
                self.attempted += workload.pass_items
                try:
                    items, work = workload.run_pass(timed)
                except Exception as exc:  # a program bug fails the pass, not the run
                    workload.fail(workload.pass_items, f"{type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
                else:
                    self.ranges.append((items, work, first, len(spans)))
                if time.perf_counter() >= deadline:
                    break
        finally:
            clock.stop()
        clock.probe()
        self.raw_calls = [end - start for start, end, _ in spans]
        self.calls = [clock.scaled(*span) for span in spans]
        self.passes = [
            (items, work, sum(self.calls[first:end])) for items, work, first, end in self.ranges
        ]
        return self

    def throughput(self) -> float:
        rates = [items / secs for items, _, secs in self.passes if secs > 0]
        return statistics.median(rates) if rates else 0.0

    def work_items(self) -> int:
        return sum(work for _, work, _ in self.passes)

    def seconds_per_work_item(self) -> float:
        work = self.work_items()
        return sum(secs for _, _, secs in self.passes) / work if work else 0.0

    def scale(self) -> float:
        """Mean factor from wall time to reference-speed time."""
        return sum(self.calls) / sum(self.raw_calls) if self.raw_calls else 1.0

    def wall_summary(self) -> dict:
        """Unscaled throughput and latency, for the report."""
        rates = [
            items / sum(self.raw_calls[first:end])
            for items, _, first, end in self.ranges
            if end > first
        ]
        return {
            "throughput_per_s": statistics.median(rates) if rates else 0.0,
            "latency_p50_ms": self.latency_ms(50, self.raw_calls),
            "latency_p90_ms": self.latency_ms(90, self.raw_calls),
        }

    def latency_ms(self, q: int, calls=None) -> float:
        """The q-th percentile of per-call latency."""
        calls = self.calls if calls is None else calls
        if not calls:
            return 0.0
        if len(calls) == 1:
            return calls[0] * 1e3
        return statistics.quantiles(calls, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(setup_times, phase) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": phase.throughput(),
        "latency_p50_ms": phase.latency_ms(50),
        "latency_p90_ms": phase.latency_ms(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, per_name, under, workload, untraced, traced, personas, setup_scale) -> dict:
    """Per-layer metrics of the traced half.  Span times are wall times; they
    are brought to the reference host speed with the traced half's mean
    scaling (``setup_scale`` for the set-up's spans)."""
    work = traced.work_items() or 1
    scale = traced.scale()

    def self_ms(*names):
        return 1e3 * scale * sum(per_name.get(n, {}).get("self_s", 0.0) for n in names) / work

    def total(name, key="total_s"):
        return per_name.get(name, {}).get(key, 0)

    metrics = {
        "benchmark.build_dataset_ms": 1e3 * setup_scale * total("benchmark.build_dataset"),
        "benchmark.loads_dataset_ms": 1e3 * setup_scale * total("benchmark.loads_dataset"),
        "benchmark.rasterize_ms": self_ms("benchmark.rasterize"),
    }
    for stage in PERSONA_METRICS:
        for persona in personas:
            metrics[f"experts.{stage}_ms.{persona}"] = self_ms(f"experts.{stage}.{persona}")
    encode_calls = sum(total(f"experts.encode.{p}", "calls") for p in personas)
    # Every encode of the pipeline workloads happens inside run_pipeline; the
    # others route nothing, so the ratio is 0 there.
    useful = sum(nonzero for _, nonzero in tracer.routings)
    check_s = scale * total("numerics.check")
    prefix_s = scale * under.get("numerics.check", 0.0)
    # Only gradcheck makes check spans; its throughput items are coordinates,
    # each checked with two loss evaluations.
    loss_evals = 2 * sum(items for items, _, _ in traced.passes) if check_s else 0
    metrics.update(
        {
            "experts.adapter_build_ms": self_ms("experts.adapter_build"),
            "experts.encode_calls": encode_calls / work,
            "experts.useful_encode_ratio": useful / encode_calls if tracer.routings else 0.0,
            "router.clip_encode_ms": self_ms("router.clip_encode"),
            "router.route_ms": self_ms("router.route"),
            "router.distinct_active_sets": len({active for active, _ in tracer.routings}),
            "fusion.fuse_ms": self_ms("fusion.fuse"),
            "fusion.project_ms": self_ms("fusion.project"),
            "numerics.check_ms": 1e3 * check_s / work,
            "numerics.prefix_ms": 1e3 * prefix_s / work,
            "numerics.us_per_loss_eval": 1e6 * (check_s - prefix_s) / loss_evals if loss_evals else 0.0,
            "evaluator.score_ms": self_ms("evaluator.score"),
            "evaluator.judge_ms": self_ms("evaluator.judge"),
            "evaluator.report_ms": self_ms("evaluator.report"),
            "datagen.complete_ms": self_ms("datagen.complete"),
        }
    )
    metrics.update(dict.fromkeys(WORKLOAD_OWNED, 0))
    metrics.update(workload.layer_counts(untraced.throughput()))
    base = untraced.seconds_per_work_item()
    metrics["trace.coverage_ratio"] = (
        scale * tracer.layer_self_seconds(per_name) / (base * work) if base else 0.0
    )
    metrics["trace.overhead_ratio"] = traced.seconds_per_work_item() / base - 1.0 if base else 0.0
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="routebench benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        die(2, f"cannot read {spec_path}: {exc}")
    if not (SRC / "routebench" / "__init__.py").is_file():
        die(2, f"no routebench package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  dependencies load once, outside set-up time
    import requests  # noqa: F401

    from tracing import Tracer
    from workloads import WORKLOADS

    factory = WORKLOADS.get(args.workload)
    if factory is None:
        die(2, f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    try:
        setup_times, setup_wall = [], []
        while len(setup_times) < (1 if args.trace else SETUP_REPEATS) or (
            not args.trace
            and sum(setup_wall) < SETUP_SECONDS
            and len(setup_times) < MAX_SETUP_REPEATS
        ):
            gc.collect()  # the previous set-up's garbage is not this one's work
            seconds, wall, workload = set_up(factory, args.seed)
            setup_times.append(seconds)
            setup_wall.append(wall)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        die(1, "set-up failed")

    window = args.seconds / 2 if args.trace else args.seconds
    gc.collect()  # earlier set-ups' garbage is not the measured window's work
    untraced = Phase(workload).measure(window, timer=not args.trace)
    workload.verify()
    workloads = [workload]
    phases = [untraced]
    if args.trace:
        tracer = Tracer()
        try:
            scaled, wall, traced_workload = set_up(factory, args.seed, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            die(1, "traced set-up failed")
        gc.collect()
        traced = Phase(traced_workload).measure(window, tracer, timer=False)
        workloads.append(traced_workload)
        phases.append(traced)
        per_name, under, self_times = tracer.summarize()
        personas = workload.rb.experts.PERSONAS
        metrics = per_layer(
            tracer, per_name, under, traced_workload, untraced, traced, personas, scaled / wall
        )
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, self_times, metrics)
    else:
        metrics = end_to_end(setup_times, untraced)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        die(2, f"metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")
    problems = [p for w in workloads for p in w.problems]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_seconds": setup_times,
        "setup_wall_seconds": setup_wall,
        "wall_clock": untraced.wall_summary(),
        "probe_ms": {
            "kind": untraced.clock.kind,
            "nominal": untraced.clock.nominal * 1e3,
            "median": 1e3 * statistics.median(untraced.clock.took),
            "count": len(untraced.clock.took),
        },
        "passes": [len(p.passes) for p in phases],
        "timed_calls": [len(p.calls) for p in phases],
        "work_items": [p.work_items() for p in phases],
        "latency_samples": len(untraced.calls),
        "problems": problems,
        **workload.notes(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(w.failed for w in workloads),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
