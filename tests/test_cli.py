"""Tests for the command-line interface: exit codes, stream purity, determinism."""

import hashlib
import json

import pytest

from routebench.benchmark import CATEGORY_NAMES, load_dataset, synth_scene
from routebench.cli import build_parser, main
from routebench.datagen import CATEGORY_SPECS, DEFAULT_TEMPLATE_BODY
from routebench.evaluator import toy_judging_config
from routebench.experts import load_raw_image, save_raw_image
from routebench.fusion import pipeline_config_to_json, run_pipeline


def run_cli(capsys, argv):
    """``main(argv)``'s exit code, stdout and stderr.  A usage error (exit
    2), argparse's own included, must print nothing to stdout and exactly
    one stderr line, an ``ERROR`` line: no usage block, no traceback."""
    code = main(argv)
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("ERROR "), captured.err
    return code, captured.out, captured.err


class TestParsing:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "route" in out and "gen-synth" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--help"])
        assert code == 0
        assert "--dataset" in out

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["frobnicate"])
        assert code == 2
        assert "frobnicate" in err

    def test_unknown_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["gen-synth", "--per-category", "1", "--bogus"])
        assert code == 2
        assert "--bogus" in err

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["eval"])
        assert code == 2
        assert "--dataset" in err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["eval", "--dataset", "d.jsonl", "--parallelism", "abc"],
             "argument --parallelism: invalid int value: 'abc'"),
            (["eval", "--dataset", "d.jsonl", "--alpha", "strong"],
             "argument --alpha: invalid float value: 'strong'"),
            (["gradcheck", "--eps", "1e-5x"], "argument --eps: invalid float value: '1e-5x'"),
        ],
        ids=["int", "alpha", "eps"],
    )
    def test_malformed_number_exits_two(self, capsys, argv, want):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.splitlines() == [f"ERROR {want}"]

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["eval", "--dataset", "d.jsonl", "--alpha", "-inf"],
             "argument --alpha: must be finite, got -inf"),
            (["eval", "--dataset", "d.jsonl", "--alpha", "-NaN"],
             "argument --alpha: must be finite, got nan"),
            (["gradcheck", "--eps", "-1e-5"], "argument --eps: must be positive, got -1e-05"),
            (["gradcheck", "--threshold", "-.5E+2"],
             "argument --threshold: must be finite and positive, got -50.0"),
            (["gradcheck", "--seed", "-1e3"], "argument --seed: invalid int value: '-1e3'"),
        ],
        ids=["alpha-inf", "alpha-nan", "eps-exponent", "threshold-exponent", "seed-exponent"],
    )
    def test_negative_number_in_exponent_or_inf_form_is_a_value(self, capsys, argv, want):
        # argparse's own pattern knows only -12 and -1.5, and would read these
        # as flags: "argument --eps: expected one argument".
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.splitlines() == [f"ERROR {want}"]

    @pytest.mark.parametrize("command", ["gen-synth", "gen-llm"])
    @pytest.mark.parametrize(
        "categories, message",
        [
            (
                "Sizes",
                "must be one of 'Category', 'Counting', 'Occlusion', 'Text', 'Shape', "
                "'AbsolutePosition', 'RelativePosition', 'Color', 'Action' or "
                "'RelativeInteraction', got 'Sizes'",
            ),
            # A repeated category would give two samples the same id.
            ("Color,Counting, Color", "category 'Color' is listed more than once"),
        ],
        ids=["unknown", "repeated"],
    )
    def test_bad_category_name_exits_two(self, capsys, command, categories, message):
        # Rejected while parsing, before any file is read.
        argv = {"gen-synth": ["--per-category", "2"],
                "gen-llm": ["--items", "absent.jsonl", "--config", "absent.json"]}[command]
        code, stdout, err = run_cli(capsys, [command, *argv, "--categories", categories])
        assert (code, stdout) == (2, "")
        assert f"argument --categories: {message}" in err.splitlines()[-1]

    def test_parser_builds_eval_invocation(self):
        parser = build_parser()
        args = parser.parse_args(
            ["eval", "--dataset", "d.jsonl", "--pipeline", "p.json", "--scorer", "affinity"]
        )
        assert args.command == "eval"
        assert args.dataset == "d.jsonl"
        assert args.pipeline == "p.json"
        assert args.scorer == "affinity"


class TestGenSynth:
    def test_writes_dataset_file(self, capsys, tmp_path):
        out = tmp_path / "ds.jsonl"
        code, stdout, _ = run_cli(
            capsys, ["gen-synth", "--per-category", "5", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert stdout == ""  # data went to the file
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        assert len(load_dataset(out)) == 50

    def test_stdout_is_pure_jsonl(self, capsys):
        code, stdout, stderr = run_cli(capsys, ["gen-synth", "--per-category", "1", "--seed", "3"])
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 10
        for line in lines:
            json.loads(line)
        assert "generated" in stderr  # logging goes to stderr only

    def test_seeded_runs_byte_identical(self, capsys):
        argv = ["gen-synth", "--per-category", "2", "--seed", "9"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_category_subset(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["gen-synth", "--per-category", "3", "--categories", "Color,Counting"],
        )
        assert code == 0
        docs = [json.loads(line) for line in stdout.splitlines()]
        assert len(docs) == 6
        assert {d["category"] for d in docs} == {"Color", "Counting"}

    def test_negative_seed_is_accepted(self, capsys):
        code, stdout, _ = run_cli(capsys, ["gen-synth", "--per-category", "1", "--seed", "-1"])
        assert code == 0
        assert len(stdout.splitlines()) == 10

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_per_category_below_one_exits_two(self, capsys, value):
        code, stdout, err = run_cli(capsys, ["gen-synth", "--per-category", value])
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"ERROR argument --per-category: must be >= 1, got {value}"]


class TestEval:
    @pytest.fixture()
    def dataset_path(self, capsys, tmp_path):
        path = tmp_path / "ds.jsonl"
        assert main(["gen-synth", "--per-category", "2", "--seed", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_oracle_scorer_zero_error(self, capsys, dataset_path, tmp_path):
        judgements = tmp_path / "judgements.jsonl"
        code, stdout, _ = run_cli(
            capsys,
            [
                "eval", "--dataset", str(dataset_path), "--scorer", "oracle",
                "--parallelism", "4", "--judgements", str(judgements),
            ],
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["report"]["overall"]["error_rate"] == 0.0
        assert doc["report"]["overall"]["n"] == 20
        assert doc["failures"] == []
        assert len(judgements.read_text().splitlines()) == 20

    def test_negated_oracle_full_error(self, capsys, dataset_path):
        code, stdout, _ = run_cli(
            capsys,
            ["eval", "--dataset", str(dataset_path), "--scorer", "negated-oracle"],
        )
        assert code == 0
        assert json.loads(stdout)["report"]["overall"]["error_rate"] == 1.0

    def test_affinity_scorer_runs(self, capsys, dataset_path):
        code, stdout, _ = run_cli(
            capsys,
            ["eval", "--dataset", str(dataset_path), "--scorer", "affinity", "--favor",
             "color-histogram"],
        )
        assert code == 0
        doc = json.loads(stdout)
        assert set(doc["report"]["categories"]) == set(CATEGORY_NAMES)
        # Only Color's captions differ in what the affinity scorer reads.
        for name, stats in doc["report"]["categories"].items():
            assert stats["ties"] == (0 if name == "Color" else 2), name
        assert doc["report"]["overall"]["ties"] == 18

    def test_coinflip_scorer_follows_its_seed(self, capsys, dataset_path):
        argv = ["eval", "--dataset", str(dataset_path), "--scorer", "coinflip", "--seed"]
        outputs = [run_cli(capsys, argv + [seed]) for seed in ("1", "1", "2")]
        assert [code for code, _, _ in outputs] == [0, 0, 0]
        first, again, other = (stdout for _, stdout, _ in outputs)
        assert first == again
        assert first != other

    def test_missing_dataset_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["eval", "--dataset", str(tmp_path / "absent.jsonl"), "--scorer", "oracle"]
        )
        assert code == 1
        assert "absent.jsonl" in err

    def test_pipeline_and_favor_conflict_exits_two(self, capsys, dataset_path, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["eval", "--dataset", str(dataset_path), "--pipeline", str(tmp_path / "p.json"),
             "--favor", "edge-shape"],
        )
        assert code == 2
        assert "argument --favor: not allowed with argument --pipeline" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_exits_two(self, capsys, dataset_path, value):
        code, stdout, err = run_cli(
            capsys, ["eval", "--dataset", str(dataset_path), "--parallelism", value]
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"ERROR argument --parallelism: must be >= 1, got {value}"]

    def test_lenient_mode_reports_failures(self, capsys, dataset_path):
        lines = dataset_path.read_text().splitlines()
        bad = json.loads(lines[0])
        bad["id"] = "missing-image"
        bad["image"] = {"kind": "file", "path": "nowhere/missing.raw"}
        dataset_path.write_text("\n".join(lines + [json.dumps(bad)]) + "\n")
        argv = ["eval", "--dataset", str(dataset_path), "--scorer", "oracle"]
        code, stdout, err = run_cli(capsys, argv)
        assert (code, stdout) == (1, "")
        assert "sample missing-image" in err
        code, stdout, _ = run_cli(capsys, argv + ["--lenient"])
        assert code == 0
        doc = json.loads(stdout)
        assert doc["report"]["overall"]["n"] == len(lines)
        assert len(doc["failures"]) == 1 and "sample missing-image" in doc["failures"][0]

    @pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
    def test_mistyped_dataset_field_exits_one(self, capsys, dataset_path, lenient):
        # A mistyped field fails the load, before any sample is judged, so
        # lenient eval has nothing to skip and fails the same way.
        doc = json.loads(dataset_path.read_text().splitlines()[0])
        doc["image"] = {"kind": "file", "path": 5}
        dataset_path.write_text(json.dumps(doc) + "\n")
        code, stdout, err = run_cli(
            capsys, ["eval", "--dataset", str(dataset_path), "--scorer", "oracle"] + lenient
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["ERROR line 1: path must be a JSON string, got 5"]

    @pytest.mark.parametrize("scorer", ["affinity", "oracle"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_nonfinite_alpha_exits_two(self, capsys, tmp_path, scorer, alpha):
        # A bad flag value is a usage error whatever the scorer, found before
        # the dataset is read: this one does not exist.
        missing = tmp_path / "missing.jsonl"
        code, stdout, err = run_cli(
            capsys, ["eval", "--dataset", str(missing), "--scorer", scorer, f"--alpha={alpha}"]
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"ERROR argument --alpha: must be finite, got {alpha}"]

    @pytest.mark.parametrize("scorer", ["affinity", "coinflip"])
    def test_negative_seed_exits_two(self, capsys, tmp_path, scorer):
        missing = tmp_path / "missing.jsonl"
        code, stdout, err = run_cli(
            capsys, ["eval", "--dataset", str(missing), "--scorer", scorer, "--seed", "-1"]
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["ERROR argument --seed: must be >= 0, got -1"]

    def test_negative_alpha_in_exponent_form_runs(self, capsys, dataset_path):
        runs = [
            run_cli(capsys, ["eval", "--dataset", str(dataset_path), *alpha])
            for alpha in (["--alpha", "-1e3"], ["--alpha=-1e3"])
        ]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_unknown_scene_object_key_exits_one(self, capsys, dataset_path, tmp_path):
        # A misspelled label_text would otherwise be dropped: the scene would
        # render with no label.
        doc = json.loads(dataset_path.read_text().splitlines()[0])
        doc["image"]["scene"]["objects"][0]["labl"] = "EXIT"
        path = tmp_path / "labl.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        code, stdout, err = run_cli(capsys, ["eval", "--dataset", str(path), "--lenient"])
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["ERROR line 1: unknown scene object keys: ['labl']"]

    @pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
    def test_blank_caption_fails_before_judging(
        self, capsys, dataset_path, tmp_path, monkeypatch, lenient
    ):
        # No scorer can judge a blank caption, so the dataset is rejected
        # when it is read, not sample by sample as an empty caption.
        import routebench.cli as cli_module

        def no_judging(*args, **kwargs):
            raise AssertionError("a sample was judged")

        monkeypatch.setattr(cli_module, "evaluate_dataset", no_judging)
        doc = json.loads(dataset_path.read_text().splitlines()[0])
        doc["real"] = "   "
        path = tmp_path / "blank.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        code, stdout, err = run_cli(capsys, ["eval", "--dataset", str(path), *lenient])
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["ERROR line 1: real_caption must be non-blank, got '   '"]

    def test_negative_expert_seed_fails_before_judging(self, capsys, dataset_path, tmp_path):
        # Rejected when the config is read, not as a failure of every sample.
        doc = pipeline_config_to_json(toy_judging_config())
        doc["experts"][0]["seed"] = -3
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            capsys,
            ["eval", "--dataset", str(dataset_path), "--pipeline", str(path), "--lenient"],
        )
        assert (code, stdout) == (1, "")
        want = "ERROR malformed pipeline config: expert 0: seed must be >= 0, got -3"
        assert err.splitlines() == [want]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(experts=5), "experts must be a JSON array, got 5"),
            # A JSON object is no array, though iterating it yields its keys.
            (lambda doc: doc.update(experts={"a": 1}),
             "experts must be a JSON array, got {'a': 1}"),
            (lambda doc: doc["router"]["bias"].__setitem__(1, -(10**400)),
             "malformed router document: bias[1] must be within float range, "
             "got a 401-digit integer"),
        ],
        ids=["experts-number", "experts-object", "huge-router-bias"],
    )
    def test_malformed_pipeline_config_exits_one(
        self, capsys, dataset_path, tmp_path, edit, message
    ):
        doc = pipeline_config_to_json(toy_judging_config())
        edit(doc)
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            capsys, ["eval", "--dataset", str(dataset_path), "--pipeline", str(path)]
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [f"ERROR malformed pipeline config: {message}"]


class TestRoute:
    def test_scene_route_deterministic(self, capsys):
        argv = ["route", "--scene-seed", "3", "--seed", "1"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        doc = json.loads(first)
        weights = doc["routing"]["weights"]
        assert len(weights) == 6
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert doc["features"]["tokens"] == 64

    def test_favor_shifts_routing(self, capsys):
        _, uniform, _ = run_cli(capsys, ["route", "--scene-seed", "3"])
        _, favored, _ = run_cli(
            capsys, ["route", "--scene-seed", "3", "--favor", "color-histogram"]
        )
        assert json.loads(favored)["routing"]["weights"][1] > 0.99
        assert json.loads(uniform)["routing"]["weights"][1] == pytest.approx(1 / 6, abs=1e-9)

    def test_pipeline_file_matches_favor(self, capsys, tmp_path):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(pipeline_config_to_json(toy_judging_config("edge-shape"))))
        argv = ["route", "--scene-seed", "3"]
        code, from_file, _ = run_cli(capsys, argv + ["--pipeline", str(path)])
        assert code == 0
        _, built_in, _ = run_cli(capsys, argv + ["--favor", "edge-shape"])
        assert from_file == built_in

    def test_seeded_pipeline_file_exits_one(self, capsys, tmp_path):
        doc = pipeline_config_to_json(toy_judging_config())
        doc["router"] = {"init": "seeded", "seed": 11}
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            capsys, ["route", "--scene-seed", "3", "--pipeline", str(path)]
        )
        assert code == 1
        assert stdout == ""
        assert "malformed pipeline config" in err

    @pytest.mark.parametrize("key", ["canonical_tokens", "canonical_dim", "clip_seed"])
    def test_pipeline_file_without_geometry_exits_one(self, capsys, tmp_path, key):
        doc = pipeline_config_to_json(toy_judging_config())
        del doc[key]
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            capsys, ["route", "--scene-seed", "3", "--pipeline", str(path)]
        )
        assert (code, stdout) == (1, "")
        assert f"malformed pipeline config: missing field '{key}'" in err

    @pytest.fixture()
    def image_path(self, tmp_path):
        path = tmp_path / "scene.raw"
        save_raw_image(synth_scene(3)[1], path)
        return path

    def test_image_file_routes_its_pixels(self, capsys, image_path):
        code, stdout, _ = run_cli(capsys, ["route", "--image", str(image_path)])
        assert code == 0
        features = run_pipeline(load_raw_image(image_path), toy_judging_config()).features
        want = hashlib.sha256(features.values.tobytes()).hexdigest()
        assert json.loads(stdout)["features"]["sha256"] == want

    def test_image_and_scene_seed_conflict_exits_two(self, capsys, image_path):
        code, stdout, err = run_cli(
            capsys, ["route", "--image", str(image_path), "--scene-seed", "3"]
        )
        assert (code, stdout) == (2, "")
        want = "ERROR argument --scene-seed: not allowed with argument --image"
        assert err.splitlines() == [want]

    def test_requires_an_image_source(self, capsys):
        code, _, err = run_cli(capsys, ["route"])
        assert code == 2
        assert "one of the arguments --image --scene-seed is required" in err

    def test_negative_seed_exits_two(self, capsys):
        code, stdout, err = run_cli(capsys, ["route", "--scene-seed", "1", "--seed", "-1"])
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["ERROR argument --seed: must be >= 0, got -1"]

    def test_unknown_persona_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["route", "--scene-seed", "1", "--favor", "bogus"])
        assert code == 2
        assert "bogus" in err


class TestMetrics:
    def test_combined_metrics_and_avg(self, capsys, tmp_path):
        pope = tmp_path / "pope.jsonl"
        pope.write_text(
            '{"pred": "yes", "label": "yes"}\n{"pred": "no", "label": "yes"}\n'
            '{"pred": "no", "label": "no"}\n{"pred": "no", "label": "no"}\n'
        )
        ah = tmp_path / "ah.jsonl"
        ah.write_text(
            '{"scenario": "synthetic", "correct": true}\n'
            '{"scenario": "synthetic", "correct": false}\n'
            '{"scenario": "real", "correct": true}\n{"scenario": "real", "correct": true}\n'
        )
        code, stdout, _ = run_cli(
            capsys, ["metrics", "--pope", str(pope), "--autohallusion", str(ah)]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["pope"]["f1"] == pytest.approx(200.0 / 3.0, abs=1e-9)
        assert doc["autohallusion"]["overall"] == pytest.approx(75.0)
        assert doc["avg"] == pytest.approx((200.0 / 3.0 + 75.0) / 2.0, abs=1e-9)

    def test_requires_at_least_one_input(self, capsys):
        code, _, err = run_cli(capsys, ["metrics"])
        assert code == 2
        assert "--pope" in err

    def test_single_input_no_avg(self, capsys, tmp_path):
        pope = tmp_path / "pope.jsonl"
        pope.write_text('{"pred": "yes", "label": "yes"}\n')
        code, stdout, _ = run_cli(capsys, ["metrics", "--pope", str(pope)])
        assert code == 0
        doc = json.loads(stdout)
        assert "avg" not in doc and "autohallusion" not in doc


class TestGradcheck:
    def test_gradcheck_passes(self, capsys):
        code, stdout, _ = run_cli(capsys, ["gradcheck", "--configs", "2", "--seed", "4"])
        assert code == 0
        doc = json.loads(stdout)
        assert doc["all_passed"] is True
        assert len(doc["configs"]) == 2
        names = {p["parameter_name"] for c in doc["configs"] for p in c["parameters"]}
        assert "router.weights" in names

    @pytest.mark.parametrize(
        "flag, value",
        [("--configs", "0"), ("--configs", "-3"), ("--max-coords", "0"), ("--max-coords", "-2")],
    )
    def test_count_below_one_exits_two(self, capsys, flag, value):
        code, stdout, err = run_cli(capsys, ["gradcheck", flag, value])
        assert code == 2
        assert stdout == ""
        assert flag in err

    def test_negative_seed_exits_two(self, capsys):
        code, stdout, err = run_cli(capsys, ["gradcheck", "--seed", "-1"])
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["ERROR argument --seed: must be >= 0, got -1"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_eps_not_positive_exits_two(self, capsys, value):
        code, stdout, err = run_cli(capsys, ["gradcheck", "--eps", value])
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [f"ERROR argument --eps: must be positive, got {float(value)}"]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_threshold_not_finite_and_positive_exits_two(self, capsys, value):
        code, stdout, err = run_cli(capsys, ["gradcheck", "--threshold", value])
        assert code == 2
        assert stdout == ""
        want = f"ERROR argument --threshold: must be finite and positive, got {float(value)}"
        assert err.splitlines() == [want]


RUN_NAME_RULE = "--names: run name must be non-empty without commas or line breaks"


class TestReport:
    def make_judgements(self, capsys, tmp_path, name, favor=None):
        ds = tmp_path / "color.jsonl"
        if not ds.exists():
            assert main(
                ["gen-synth", "--per-category", "3", "--seed", "11", "--categories", "Color",
                 "--out", str(ds)]
            ) == 0
        path = tmp_path / f"{name}.jsonl"
        argv = ["eval", "--dataset", str(ds), "--scorer", "affinity",
                "--judgements", str(path), "--out", str(tmp_path / f"{name}-report.json")]
        if favor:
            argv += ["--favor", favor]
        assert main(argv) == 0
        capsys.readouterr()
        return path

    def test_radar_csv_two_runs(self, capsys, tmp_path):
        uniform = self.make_judgements(capsys, tmp_path, "uniform")
        routed = self.make_judgements(capsys, tmp_path, "routed", favor="color-histogram")
        code, stdout, _ = run_cli(
            capsys,
            ["report", "--judgements", str(uniform), str(routed), "--names", "uniform,routed"],
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "category,run,error_rate,normalized"
        assert len(lines) == 1 + 2 * 10
        assert any(line.startswith("Color,uniform,") for line in lines)

    def test_default_names_are_stems(self, capsys, tmp_path):
        uniform = self.make_judgements(capsys, tmp_path, "uniform")
        code, stdout, _ = run_cli(capsys, ["report", "--judgements", str(uniform)])
        assert code == 0
        assert "Color,uniform," in stdout

    def test_name_count_mismatch_exits_two(self, capsys, tmp_path):
        uniform = self.make_judgements(capsys, tmp_path, "uniform")
        code, _, err = run_cli(
            capsys, ["report", "--judgements", str(uniform), "--names", "a,b"]
        )
        assert code == 2
        assert "must be one distinct run name per file, got ['a', 'b']" in err

    @pytest.mark.parametrize(
        "names, message",
        [
            ("a,a", "--names must be one distinct run name per file, got ['a', 'a']"),
            (" a ,a", "--names must be one distinct run name per file, got ['a', 'a']"),
            ("a,", f"{RUN_NAME_RULE}, got ''"),
            (",a", f"{RUN_NAME_RULE}, got ''"),
            ("a\nb,c", f"{RUN_NAME_RULE}, got 'a\\nb'"),
            ("a\rb,c", f"{RUN_NAME_RULE}, got 'a\\rb'"),
            ("a\x85b,c", f"{RUN_NAME_RULE}, got 'a\\x85b'"),
            ("a\u2028b,c", f"{RUN_NAME_RULE}, got 'a\\u2028b'"),
        ],
        ids=["repeated", "repeated-after-strip", "empty-last", "empty-first", "newline",
             "carriage-return", "next-line", "line-separator"],
    )
    def test_bad_names_exit_two(self, capsys, tmp_path, names, message):
        # Two distinct non-empty names are needed for two runs: a repeated
        # name would overwrite the first run's rows.
        uniform = self.make_judgements(capsys, tmp_path, "uniform")
        code, stdout, err = run_cli(
            capsys, ["report", "--judgements", str(uniform), str(uniform), "--names", names]
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"ERROR {message}"]

    def test_colliding_stems_exit_two(self, capsys, tmp_path):
        uniform = self.make_judgements(capsys, tmp_path, "uniform")
        other = tmp_path / "other" / uniform.name
        other.parent.mkdir()
        other.write_bytes(uniform.read_bytes())
        code, stdout, err = run_cli(
            capsys, ["report", "--judgements", str(uniform), str(other)]
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            "ERROR --names (default: the file stems) must be one distinct run name per file, "
            "got ['uniform', 'uniform']"
        ]

    def test_perplexity_too_large_for_a_float_exits_one(self, capsys, tmp_path):
        path = self.make_judgements(capsys, tmp_path, "uniform")
        doc = json.loads(path.read_text().splitlines()[0])
        path.write_text(json.dumps({**doc, "ppl_real": 10**400}) + "\n")
        code, stdout, err = run_cli(capsys, ["report", "--judgements", str(path)])
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            "ERROR line 1: ppl_real must be within float range, "
            "got a 401-digit integer"
        ]

    @pytest.mark.parametrize("stem", ["a,b", "a\nb"], ids=["comma", "newline"])
    def test_stem_that_cannot_be_a_run_name_exits_two(self, capsys, tmp_path, stem):
        # Checked before any file is read, so the file need not exist.
        path = tmp_path / f"{stem}.jsonl"
        code, stdout, err = run_cli(capsys, ["report", "--judgements", str(path)])
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            "ERROR --names (default: the file stems): run name must be non-empty without "
            f"commas or line breaks, got {stem!r}"
        ]


class TestGenLlm:
    class FakeClient:
        """Answers every prompt with its caption plus " Altered."; records
        the prompts."""

        prompts: list = []

        def __init__(self, config):
            self.config = config

        def complete(self, request):
            self.prompts.append(request.prompt)
            caption = request.prompt.rstrip("\n").splitlines()[-1]
            caption = caption[len("Caption: "):]
            return caption + " Altered."

    @pytest.fixture()
    def gen_llm(self, capsys, tmp_path, monkeypatch):
        """Runs gen-llm on one item through FakeClient; returns the exit
        code, the generated documents and the prompts sent."""
        import routebench.cli as cli_module

        monkeypatch.setattr(self.FakeClient, "prompts", [])
        monkeypatch.setattr(cli_module, "HttpChatClient", self.FakeClient)
        items = tmp_path / "items.jsonl"
        items.write_text(
            '{"image": {"kind": "file", "path": "imgs/1.raw"}, "caption": "A red circle sits."}\n'
        )
        config = tmp_path / "datagen.json"
        config.write_text(json.dumps({"endpoint": "https://api.test.invalid", "model": "m"}))

        def run(*flags):
            code, stdout, _ = run_cli(
                capsys, ["gen-llm", "--items", str(items), "--config", str(config), *flags]
            )
            docs = [json.loads(line) for line in stdout.splitlines()]
            return code, docs, self.FakeClient.prompts

        return run

    def test_mocked_generation(self, gen_llm):
        code, docs, _ = gen_llm("--categories", "Color,Action")
        assert code == 0
        assert [d["category"] for d in docs] == ["Color", "Action"]
        assert all(d["hallucinated"].endswith("Altered.") for d in docs)

    def test_all_categories_by_default(self, gen_llm):
        code, docs, prompts = gen_llm()
        assert code == 0
        assert len(CATEGORY_SPECS) == len(CATEGORY_NAMES) == 10
        assert [d["category"] for d in docs] == [s.category.value for s in CATEGORY_SPECS]
        assert len(prompts) == 10

    def test_template_file_replaces_the_default(self, gen_llm, tmp_path):
        template = tmp_path / "template.txt"
        template.write_text("CUSTOM PREAMBLE\n" + DEFAULT_TEMPLATE_BODY, encoding="utf-8")
        code, docs, prompts = gen_llm("--template", str(template), "--categories", "Color")
        assert code == 0
        assert [d["category"] for d in docs] == ["Color"]
        assert len(prompts) == 1 and prompts[0].startswith("CUSTOM PREAMBLE\nYou edit")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"endpoint": 5, "model": "m"}, "endpoint must be a JSON string, got 5"),
            ({"endpoint": "https://api.test.invalid", "model": "m",
              "shape": {"response_path": "text"}},
             "response_path must be a JSON array of strings and integers, got 'text'"),
            # A blank auth_env would send every request without a token, and
            # a blank body key would send {"": ...}.
            ({"endpoint": "https://api.test.invalid", "model": "m", "auth_env": ""},
             "auth_env must be non-blank, got ''"),
            ({"endpoint": "https://api.test.invalid", "model": "   "},
             "model must be non-blank, got '   '"),
            ({"endpoint": "https://api.test.invalid", "model": "m",
              "shape": {"auth_header": ""}},
             "auth_header must be non-blank, got ''"),
            ({"endpoint": "https://api.test.invalid", "model": "m",
              "shape": {"model_key": " "}},
             "model_key must be non-blank, got ' '"),
            ({"endpoint": "https://api.test.invalid", "model": "m", "temperature": 10**400},
             "temperature must be within float range, got a 401-digit integer"),
            ({"model": "m"}, "missing field 'endpoint'"),
            ({"endpoint": "https://api.test.invalid"}, "missing field 'model'"),
        ],
        ids=["endpoint", "response-path", "blank-auth-env", "blank-model", "blank-auth-header",
             "blank-body-key", "huge-temperature", "no-endpoint", "no-model"],
    )
    def test_mistyped_config_exits_one(self, capsys, tmp_path, monkeypatch, doc, message):
        import routebench.cli as cli_module

        def no_client(config):
            raise AssertionError("a client was built from a rejected config")

        monkeypatch.setattr(cli_module, "HttpChatClient", no_client)
        items = tmp_path / "items.jsonl"
        items.write_text(
            '{"image": {"kind": "file", "path": "imgs/1.raw"}, "caption": "A red circle sits."}\n'
        )
        config = tmp_path / "datagen.json"
        config.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            capsys, ["gen-llm", "--items", str(items), "--config", str(config)]
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [f"ERROR {config}: {message}"]

    def test_missing_config_exits_one(self, capsys, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text(
            '{"image": {"kind": "file", "path": "imgs/1.raw"}, "caption": "A red circle sits."}\n'
        )
        code, _, err = run_cli(
            capsys,
            ["gen-llm", "--items", str(items), "--config", str(tmp_path / "absent.json")],
        )
        assert code == 1
