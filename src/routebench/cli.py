"""Command-line interface.

One executable with seven subcommands covering the full surface:

* ``route``      — run the routing pipeline on one image, print routing + feature summary
* ``gen-synth``  — build a synthetic benchmark dataset (JSONL)
* ``gen-llm``    — build a dataset by calling a chat-completion endpoint
* ``eval``       — judge a dataset with a scorer, print the error-rate report
* ``metrics``    — confusion-matrix metrics and the composite average from outcome files
* ``gradcheck``  — verify analytic gradients against finite differences
* ``report``     — convert judgement files into the radar CSV

Exit codes: 0 success, 1 operational failure (bad data, endpoint down,
failed checks), 2 usage error; every usage error, argparse's own included,
prints one ``ERROR`` line.  Data goes to --out or stdout; diagnostics
always go to stderr, so stdout stays a single machine-readable document.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import re
import sys
from pathlib import Path

from .benchmark import (
    CATEGORY_NAMES,
    HallucinationCategory,
    build_synthetic_dataset,
    dumps_dataset,
    load_dataset,
    synth_scene,
)
from .datagen import (
    CATEGORY_SPECS,
    DEFAULT_TEMPLATE,
    HttpChatClient,
    PromptTemplate,
    category_spec,
    generate_dataset,
    load_caption_items,
    load_datagen_config,
)
from .evaluator import (
    AffinityConfig,
    CoinFlipScorer,
    affinity_scorer,
    dumps_judgements,
    error_rates,
    evaluate_dataset,
    is_run_name,
    loads_judgements,
    oracle_scorer,
    radar_csv,
    toy_judging_config,
)
from .experts import PERSONAS, Rule, load_raw_image, rule
from .fusion import load_pipeline_config, run_pipeline
from .metrics import (
    autohallusion_aggregate,
    avg_metric,
    load_binary_outcomes,
    load_scenario_results,
    pope_metrics,
)
from .numerics import check_router_fusion_gradients, small_gradcheck_config

logger = logging.getLogger("routebench")

SCORER_CHOICES = ("oracle", "negated-oracle", "coinflip", "affinity")


class UsageError(Exception):
    """A usage error: main prints it as one ``ERROR`` line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises its errors as :class:`UsageError`; subparsers inherit the class.
    A negative number in exponent, ``inf`` or ``nan`` form (``-1e3``) is a
    value too, not a flag: argparse's own pattern knows only ``-12`` and ``-1.5``."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        logger.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _category_list(arg: str):
    categories = []
    for name in arg.split(","):
        name = name.strip()
        if name not in CATEGORY_NAMES:
            raise argparse.ArgumentTypeError(rule("one of", CATEGORY_NAMES).message(name))
        if HallucinationCategory(name) in categories:
            raise argparse.ArgumentTypeError(f"category {name!r} is listed more than once")
        categories.append(HallucinationCategory(name))
    return tuple(categories)


def _checked(kind, value_rule: Rule):
    """An argparse type: ``kind(arg)``, rejected as ``must be <rule>, got
    <value>`` unless the rule holds."""

    def check(arg: str):
        value = kind(arg)
        if not value_rule.ok(value):
            raise argparse.ArgumentTypeError(value_rule.message(value))
        return value

    check.__name__ = kind.__name__  # argparse's "invalid int value: 'abc'"
    check.rule = value_rule
    return check


# A count of 0 would make a dataset, a pool or a check vacuous.  The numpy
# generators route, eval and gradcheck seed take no negative seed
# (gen-synth seeds from a string and takes any integer).  Finite
# differences need a positive step, and only a finite, positive threshold
# can both pass some gradients and fail others.
_count = _checked(int, rule(">= 1"))
_seed = _checked(int, rule(">= 0"))
_finite = _checked(float, rule("finite"))
_step = _checked(float, rule("positive"))
_threshold = _checked(float, rule("finite and positive"))


def _pipeline_from_args(args):
    if args.pipeline is not None:
        return load_pipeline_config(args.pipeline)
    return toy_judging_config(favored_persona=args.favor, seed=args.seed)


def cmd_route(args) -> int:
    image = synth_scene(args.scene_seed)[1] if args.image is None else load_raw_image(args.image)
    result = run_pipeline(image, _pipeline_from_args(args))
    features = result.features
    doc = {
        "routing": {
            "weights": [float(w) for w in result.routing.weights],
            "active": sorted(result.routing.active),
        },
        "features": {
            "tokens": features.tokens,
            "dim": features.dim,
            "source": features.source,
            "sha256": hashlib.sha256(features.values.tobytes()).hexdigest(),
        },
    }
    _emit_json(doc, args.out)
    return 0


def cmd_gen_synth(args) -> int:
    dataset = build_synthetic_dataset(
        args.per_category, seed=args.seed, categories=args.categories
    )
    _emit(dumps_dataset(dataset), args.out)
    logger.info("generated %d samples", len(dataset))
    return 0


def cmd_gen_llm(args) -> int:
    config = load_datagen_config(args.config)
    items = load_caption_items(args.items)
    if args.template is not None:
        template = PromptTemplate(Path(args.template).read_text(encoding="utf-8"))
    else:
        template = DEFAULT_TEMPLATE
    if args.categories is not None:
        specs = [category_spec(c) for c in args.categories]
    else:
        specs = CATEGORY_SPECS
    client = HttpChatClient(config)
    result = generate_dataset(client, items, specs=specs, config=config, template=template)
    _emit(dumps_dataset(result.samples), args.out)
    logger.info("generation stats: %s", json.dumps(result.stats.to_json_dict(), sort_keys=True))
    return 0


def _build_scorer(args, dataset):
    if args.scorer == "oracle":
        return oracle_scorer(dataset)
    if args.scorer == "negated-oracle":
        return oracle_scorer(dataset, negate=True)
    if args.scorer == "coinflip":
        return CoinFlipScorer(seed=args.seed)
    return affinity_scorer(AffinityConfig(alpha=args.alpha))


def cmd_eval(args) -> int:
    dataset = load_dataset(args.dataset)
    config = _pipeline_from_args(args)
    scorer = _build_scorer(args, dataset)
    failures: list = []
    judgements, report = evaluate_dataset(
        scorer,
        config,
        dataset,
        parallelism=args.parallelism,
        base_dir=args.base_dir,
        failures=failures if args.lenient else None,
    )
    if args.judgements:
        Path(args.judgements).write_text(dumps_judgements(judgements), encoding="utf-8")
        logger.info("wrote %s", args.judgements)
    doc = {"report": report.to_json_dict(), "failures": failures}
    _emit_json(doc, args.out)
    return 0


def cmd_metrics(args) -> int:
    if args.pope is None and args.autohallusion is None:
        raise UsageError("at least one of --pope / --autohallusion is required")
    doc: dict = {}
    if args.pope is not None:
        doc["pope"] = pope_metrics(load_binary_outcomes(args.pope)).to_json_dict()
    if args.autohallusion is not None:
        doc["autohallusion"] = autohallusion_aggregate(
            load_scenario_results(args.autohallusion), scenario_mean=args.scenario_mean
        )
    if args.pope is not None and args.autohallusion is not None:
        doc["avg"] = avg_metric(doc["pope"]["f1"], doc["autohallusion"]["overall"])
    _emit_json(doc, args.out)
    return 0


def cmd_gradcheck(args) -> int:
    runs = []
    for offset in range(args.configs):
        seed = args.seed + offset
        config, image = small_gradcheck_config(seed)
        reports = check_router_fusion_gradients(
            config,
            image,
            seed=seed,
            eps=args.eps,
            threshold=args.threshold,
            max_coords_per_param=args.max_coords,
        )
        passed = all(r.passed for r in reports)
        runs.append(
            {
                "seed": seed,
                "passed": passed,
                "parameters": [r.to_json_dict() for r in reports],
            }
        )
    all_passed = all(run["passed"] for run in runs)
    doc = {
        "eps": args.eps,
        "threshold": args.threshold,
        "all_passed": all_passed,
        "configs": runs,
    }
    _emit_json(doc, args.out)
    return 0 if all_passed else 1


def cmd_report(args) -> int:
    paths = [Path(p) for p in args.judgements]
    if args.names is not None:
        names = [n.strip() for n in args.names.split(",")]
        if len(names) != len(paths):
            raise UsageError(
                f"--names lists {len(names)} name(s) for {len(paths)} judgement file(s)"
            )
        if len(set(names)) != len(names) or not all(map(is_run_name, names)):
            raise UsageError(f"--names must be distinct, non-empty and without newlines: {names}")
    else:
        names = [p.stem for p in paths]
        for name in names:
            if not is_run_name(name):
                raise UsageError(
                    f"judgement file stem {name!r} cannot be a run name (empty, or with a "
                    "comma or newline); pass explicit --names"
                )
        if len(set(names)) != len(names):
            raise UsageError("judgement file stems collide; pass explicit --names")
    reports = {}
    for name, path in zip(names, paths):
        judgements = loads_judgements(path.read_text(encoding="utf-8"))
        reports[name] = error_rates(judgements)
    _emit(radar_csv(reports), args.out)
    return 0


def _add_pipeline_flags(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--pipeline", help="pipeline config JSON file")
    source.add_argument(
        "--favor",
        choices=PERSONAS,
        help="route the built-in toy pipeline top-1 to one persona (default: uniform)",
    )
    sub.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="seed for the built-in toy pipeline and, in eval, the coinflip scorer",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="routebench",
        description="Multi-expert visual routing pipeline and hallucination benchmark tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="run the routing pipeline on one image")
    image = route.add_mutually_exclusive_group(required=True)
    image.add_argument("--image", help="raw image file (binary grid format)")
    image.add_argument(
        "--scene-seed",
        type=int,
        help="render a synthetic scene with this seed instead of reading --image",
    )
    _add_pipeline_flags(route)
    route.add_argument("--out", help="write output here instead of stdout")
    route.set_defaults(func=cmd_route)

    gen_synth = sub.add_parser("gen-synth", help="build a synthetic benchmark dataset")
    gen_synth.add_argument("--per-category", type=_count, required=True)
    gen_synth.add_argument("--seed", type=int, default=0)
    gen_synth.add_argument(
        "--categories", type=_category_list, default=None, help="comma-separated category names"
    )
    gen_synth.add_argument("--out")
    gen_synth.set_defaults(func=cmd_gen_synth)

    gen_llm = sub.add_parser("gen-llm", help="build a dataset via a chat-completion endpoint")
    gen_llm.add_argument("--items", required=True, help="JSONL of {image, caption} items")
    gen_llm.add_argument("--config", required=True, help="datagen config JSON")
    gen_llm.add_argument("--template", help="override the built-in prompt template")
    gen_llm.add_argument("--categories", type=_category_list, default=None)
    gen_llm.add_argument("--out")
    gen_llm.set_defaults(func=cmd_gen_llm)

    evaluate = sub.add_parser("eval", help="judge a dataset and report error rates")
    evaluate.add_argument("--dataset", required=True)
    _add_pipeline_flags(evaluate)
    evaluate.add_argument("--scorer", choices=SCORER_CHOICES, default="affinity")
    evaluate.add_argument("--alpha", type=_finite, default=8.0, help="affinity scorer strength")
    evaluate.add_argument("--parallelism", type=_count, default=1)
    evaluate.add_argument("--lenient", action="store_true", help="skip failing samples")
    evaluate.add_argument("--base-dir", default=None, help="directory for file image refs")
    evaluate.add_argument("--judgements", help="also write per-sample judgements here")
    evaluate.add_argument("--out")
    evaluate.set_defaults(func=cmd_eval)

    metrics = sub.add_parser("metrics", help="binary metrics from outcome files")
    metrics.add_argument("--pope", help="JSONL of {pred, label}")
    metrics.add_argument("--autohallusion", help="JSONL of {scenario, correct}")
    metrics.add_argument("--scenario-mean", action="store_true")
    metrics.add_argument("--out")
    metrics.set_defaults(func=cmd_metrics)

    gradcheck = sub.add_parser("gradcheck", help="verify gradients on seeded small configs")
    gradcheck.add_argument("--configs", type=_count, default=5)
    gradcheck.add_argument("--seed", type=_seed, default=0)
    gradcheck.add_argument("--eps", type=_step, default=1e-5)
    gradcheck.add_argument("--threshold", type=_threshold, default=1e-6)
    gradcheck.add_argument("--max-coords", type=_count, default=None)
    gradcheck.add_argument("--out")
    gradcheck.set_defaults(func=cmd_gradcheck)

    report = sub.add_parser("report", help="radar CSV from judgement files")
    report.add_argument("--judgements", nargs="+", required=True)
    report.add_argument("--names", help="comma-separated run names (default: file stems)")
    report.add_argument("--out")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s", force=True
    )
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, after printing the help text
        return int(exc.code or 0)
    except UsageError as exc:
        logger.error("%s", exc)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
