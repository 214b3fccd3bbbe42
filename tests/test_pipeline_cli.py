import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from rarerisk.boosting import BoostConfig
from rarerisk.cli import main
from rarerisk.errors import ConfigError, StageError
from rarerisk.pipeline import (
    _SCHEMA,
    _SYNTH_SCHEMA,
    config_from_dict,
    load_config,
    run_pipeline,
    verify_manifest,
)

MINIMAL = {
    "output_dir": "out",
    "dataset": {
        "synth": {
            "n": 600,
            "p": 8,
            "base_rate": 0.1,
            "effects": [1.0, 1.0, -1.0, 0, 0, 0, 0, 0],
            "on_rates": 0.5,
            "seed": 3,
        }
    },
    "split": {"n_train": 450, "seed": 4},
    "boost": {
        "cost_ratio": 8,
        "interaction_depth": 2,
        "shrinkage": 0.15,
        "bag_fraction": 0.6,
        "min_node": 8,
        "max_trees": 15,
        "cv_folds": 4,
        "cv": True,
        "seed": 5,
    },
    "ga": {
        "pop_size": 40,
        "generations": 12,
        "p_mutation": 0.05,
        "p_crossover": 0.8,
        "elitism_fraction": 0.05,
        "seed": 6,
        "repeats": 1,
    },
    "analysis": {"epsilon": 0.0},
    "report": {"histogram_bins": 12},
}


def make_config(tmp_path, **overrides):
    doc = json.loads(json.dumps(MINIMAL))
    for key, value in overrides.items():
        section, _, leaf = key.partition(".")
        if leaf:
            doc[section][leaf] = value
        else:
            doc[section] = value
    return config_from_dict(doc, base_dir=tmp_path)


def artifact_digests(out_dir: Path) -> dict:
    out = {}
    for f in sorted(out_dir.iterdir()):
        if f.name in ("manifest.json", ".lock"):
            continue
        out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_two_sources_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dataset"]["csv"] = "x.csv"
        with pytest.raises(ConfigError):
            config_from_dict(doc, base_dir=tmp_path)

    def test_no_source_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dataset"] = {}
        with pytest.raises(ConfigError):
            config_from_dict(doc, base_dir=tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["boost"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError):
            config_from_dict(doc, base_dir=tmp_path)

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["output_dir"]
        monkeypatch.setenv("RARERISK_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg = config_from_dict(doc, base_dir=tmp_path)
        assert cfg.output_dir == tmp_path / "envout"

    def test_yaml_file_load(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(MINIMAL), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.boost.max_trees == 15
        assert cfg.ga.pop_size == 40

    def test_set_into_empty_section(self, tmp_path):
        # `boost:` with nothing under it is an empty section, so --set can
        # fill it in just as it fills in a missing one.
        doc = {k: v for k, v in MINIMAL.items() if k != "boost"}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc) + "boost:\n", encoding="utf-8")
        assert load_config(path).boost.seed == BoostConfig().seed
        cfg = load_config(path, overrides=["boost.seed=3"])
        assert cfg.boost.seed == 3
        assert cfg.boost.max_trees == BoostConfig().max_trees

    def test_readme_example_names_every_key(self, tmp_path):
        # The README example is the reference for the config keys: it must
        # load, and name every key the schema has and the manifest echoes
        # (csv and response are the alternative dataset source).
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.yaml"
        path.write_text(block, encoding="utf-8")
        echo = load_config(path).to_dict()

        def leaf_keys(doc, prefix=""):
            out = set()
            for key, value in doc.items():
                if isinstance(value, dict):
                    out |= leaf_keys(value, f"{prefix}{key}.")
                else:
                    out.add(prefix + key)
            return out

        schema = {"output_dir"} | {f"dataset.synth.{k}" for k in _SYNTH_SCHEMA}
        schema |= {f"{name}.{k}" for name, keys in _SCHEMA.items() for k in keys}
        schema -= {"dataset.csv", "dataset.response", "dataset.synth"}
        assert leaf_keys(yaml.safe_load(block)) == schema == leaf_keys(echo)

    def test_effects_broadcast_scalar(self, tmp_path):
        cfg = make_config(tmp_path, **{"dataset.synth": dict(
            MINIMAL["dataset"]["synth"], effects=0.5
        )})
        assert cfg.synth.effects == tuple([0.5] * 8)


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = make_config(tmp)
    manifest = run_pipeline(cfg)
    return tmp, cfg, manifest


class TestRunPipeline:
    def test_stage_order_and_status(self, completed):
        _, _, manifest = completed
        assert manifest.status == "ok"
        assert [s["name"] for s in manifest.stages] == [
            "dataset",
            "split",
            "baseline",
            "boost",
            "confusion",
            "ga",
            "analysis",
            "clustering",
            "reports",
        ]

    def test_expected_artifact_kinds(self, completed):
        _, _, manifest = completed
        kinds = Counter(a["kind"] for a in manifest.artifacts)
        assert kinds["histogram"] == 3
        assert kinds["confusion_table"] == 1
        assert kinds["ga_trace"] == 1
        assert kinds["importance_table"] == 1
        assert kinds["dendrogram"] == 1
        assert kinds["population"] == 1
        assert kinds["model"] == 1

    def test_manifest_digests_verify(self, completed):
        tmp, cfg, _ = completed
        result = verify_manifest(cfg.output_dir)
        assert result["ok"]

    def test_config_echo_no_silent_defaults(self, completed):
        _, cfg, manifest = completed
        echo = manifest.config
        assert echo["boost"]["interaction_depth"] == 2
        assert echo["boost"]["cost_ratio"] == 8
        assert echo["ga"]["p_mutation"] == 0.05
        assert echo["ga"]["elitism_fraction"] == 0.05
        assert echo["dataset"]["synth"]["n"] == 600
        assert echo["split"]["n_train"] == 450

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = make_config(tmp_path, output_dir="r1")
        cfg2 = make_config(tmp_path, output_dir="r2")
        run_pipeline(cfg1)
        run_pipeline(cfg2)
        d1 = artifact_digests(cfg1.output_dir)
        d2 = artifact_digests(cfg2.output_dir)
        assert d1 == d2

    def test_split_failure_names_stage(self, tmp_path):
        cfg = make_config(tmp_path, **{"split.n_train": 600})
        with pytest.raises(StageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "split"
        manifest = json.loads(
            (cfg.output_dir / "manifest.json").read_text()
        )
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "split"
        assert all(a.get("partial") for a in manifest["artifacts"])

    def test_lockfile_blocks_concurrent_run(self, tmp_path):
        cfg = make_config(tmp_path)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        (cfg.output_dir / ".lock").touch()
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        (cfg.output_dir / ".lock").unlink()

    def test_live_lock_owner_blocks_run(self, tmp_path):
        cfg = make_config(tmp_path)
        cfg.output_dir.mkdir(parents=True)
        lock = cfg.output_dir / ".lock"
        lock.write_text(str(os.getpid()), encoding="ascii")
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        assert lock.read_text(encoding="ascii") == str(os.getpid())

    @pytest.mark.skipif(os.name != "posix", reason="pids are probed on POSIX only")
    def test_stale_lock_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so no process has its pid
        cfg = make_config(tmp_path)
        cfg.output_dir.mkdir(parents=True)
        (cfg.output_dir / ".lock").write_text(str(child.pid), encoding="ascii")
        with pytest.warns(RuntimeWarning, match=f"process {child.pid} "):
            manifest = run_pipeline(cfg)
        assert manifest.status == "ok"
        assert not (cfg.output_dir / ".lock").exists()

    def test_verify_detects_corruption(self, tmp_path):
        cfg = make_config(tmp_path, output_dir="vrun")
        run_pipeline(cfg)
        victim = cfg.output_dir / "confusion.csv"
        victim.write_text("tampered", encoding="utf-8")
        result = verify_manifest(cfg.output_dir)
        assert not result["ok"]
        assert "confusion.csv" in result["mismatched"]

    def test_multi_seed_stability_artifact(self, tmp_path):
        cfg = make_config(tmp_path, **{"ga.repeats": 3, "output_dir": "ms"})
        manifest = run_pipeline(cfg)
        kinds = {a["kind"] for a in manifest.artifacts}
        assert "commonality_stability" in kinds
        stability = (cfg.output_dir / "commonality_stability.csv").read_text()
        assert stability.splitlines()[0].startswith("predictor,mean_commonality")


def write_config(tmp_path, doc=None):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc or MINIMAL), encoding="utf-8")
    return path


class TestCli:
    def test_named_csv_names_survive_train_and_evolve(self, tmp_path):
        names = ["age", "smoker", "male", "urban"]
        rng = np.random.default_rng(11)
        X = rng.integers(0, 2, size=(300, 4))
        y = (rng.random(300) < 0.1 + 0.3 * X[:, 0]).astype(int)
        data_csv = tmp_path / "named.csv"
        np.savetxt(data_csv, np.column_stack([X, y]), fmt="%d", delimiter=",",
                   header=",".join(names + ["case"]), comments="")
        config = write_config(tmp_path)
        model = tmp_path / "model.json"
        assert main(["train", "--config", str(config), "--train", str(data_csv),
                     "--out", str(model)]) == 0
        assert json.loads(model.read_text("utf-8"))["predictor_names"] == names
        pop = tmp_path / "pop.csv"
        assert main(["evolve", "--config", str(config), "--model", str(model),
                     "--population-out", str(pop),
                     "--trace-out", str(tmp_path / "trace")]) == 0
        header = pop.read_text("utf-8").splitlines()[0]
        assert header.split(",") == names + ["fitness"]

    def test_pipeline_command(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(
            ["pipeline", "--config", str(path), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete" in out

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("dataset: {}\nsplit: {n_train: 5}\noutput_dir: o\n")
        assert main(["pipeline", "--config", str(path)]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_invalid_nested_value_exits_1(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["boost"]["shrinkage"] = -0.5
        path = write_config(tmp_path, doc)
        assert main(["pipeline", "--config", str(path)]) == 1

    def test_stage_failure_exits_2(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["split"]["n_train"] = 600
        doc["output_dir"] = str(tmp_path / "fail")
        path = write_config(tmp_path, doc)
        assert main(["pipeline", "--config", str(path)]) == 2

    def test_set_override(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "ov"
        code = main(
            [
                "pipeline",
                "--config",
                str(path),
                "--set",
                "ga.generations=3",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["ga"]["generations"] == 3

    def test_stagewise_commands_round_trip(self, tmp_path, capsys, completed):
        config = write_config(tmp_path)
        data_csv = tmp_path / "data.csv"
        assert main(["synth", "--config", str(config), "--out", str(data_csv)]) == 0
        assert main(
            [
                "split",
                "--input",
                str(data_csv),
                "--n-train",
                "450",
                "--seed",
                "4",
                "--train-out",
                str(tmp_path / "train.csv"),
                "--test-out",
                str(tmp_path / "test.csv"),
            ]
        ) == 0
        assert main(
            [
                "baseline",
                "--train",
                str(tmp_path / "train.csv"),
                "--out",
                str(tmp_path / "logistic.json"),
            ]
        ) == 0
        assert main(
            [
                "train",
                "--config",
                str(config),
                "--train",
                str(tmp_path / "train.csv"),
                "--out",
                str(tmp_path / "model.json"),
            ]
        ) == 0
        assert main(
            [
                "evolve",
                "--config",
                str(config),
                "--model",
                str(tmp_path / "model.json"),
                "--population-out",
                str(tmp_path / "pop.csv"),
                "--trace-out",
                str(tmp_path / "trace"),
            ]
        ) == 0
        assert main(
            [
                "analyze",
                "--config",
                str(config),
                "--model",
                str(tmp_path / "model.json"),
                "--population",
                str(tmp_path / "pop.csv"),
                "--out",
                str(tmp_path / "importance"),
            ]
        ) == 0
        assert main(
            [
                "cluster",
                "--population",
                str(tmp_path / "pop.csv"),
                "--svg-out",
                str(tmp_path / "dendro.svg"),
                "--newick-out",
                str(tmp_path / "dendro.newick"),
                "--k",
                "3",
            ]
        ) == 0
        # The stagewise chain writes the same bytes as the pipeline.
        _, cfg, _ = completed
        same_as_pipeline = {
            "model.json": "model.json",
            "pop.csv": "population.csv",
            "trace.csv": "ga_trace.csv",
            "trace.json": "ga_trace.json",
            "importance.csv": "importance.csv",
            "importance.json": "importance.json",
            "dendro.newick": "dendrogram.newick",
            "dendro.svg": "dendrogram.svg",
            "logistic.json": "logistic_summary.json",
        }
        for cli_name, run_name in same_as_pipeline.items():
            assert (tmp_path / cli_name).read_bytes() == (
                cfg.output_dir / run_name
            ).read_bytes(), cli_name

    def test_report_verifies_run(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "rep"
        assert main(
            ["pipeline", "--config", str(path), "--output-dir", str(out)]
        ) == 0
        assert main(["report", "--run-dir", str(out)]) == 0
        (out / "population.csv").write_text("broken", encoding="utf-8")
        assert main(["report", "--run-dir", str(out)]) == 2

    def test_report_rejects_failed_run(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["split"]["n_train"] = 600
        out = tmp_path / "fail"
        path = write_config(tmp_path, doc)
        assert main(
            ["pipeline", "--config", str(path), "--output-dir", str(out)]
        ) == 2
        result = verify_manifest(out)
        assert not result["ok"] and not result["mismatched"]
        assert (result["status"], result["failed_stage"]) == ("failed", "split")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed in stage 'split': ")

    def test_failing_cv_fold_fails_boost_stage(self, tmp_path, capsys):
        # With 2 folds each fold trains on about 225 of the 450 training
        # rows, fewer than min_node; the full-data fit alone would run.
        doc = json.loads(json.dumps(MINIMAL))
        doc["boost"].update(cv_folds=2, min_node=300)
        out = tmp_path / "fold"
        path = write_config(tmp_path, doc)
        assert main(
            ["pipeline", "--config", str(path), "--output-dir", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "min_node=300 exceeds the" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "boost")

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["pipeline", "--nonsense"]) == 1


def _bad_yaml(tmp):
    path = tmp / "bad.yaml"
    path.write_text("boost: [1, 2\n", encoding="utf-8")
    return ["pipeline", "--config", str(path)]


def _bad_set_value(tmp):
    path = write_config(tmp)
    return ["pipeline", "--config", str(path), "--set", "ga.seed=[1"]


def _list_root(tmp):
    path = tmp / "list.yaml"
    path.write_text("- 1\n- 2\n", encoding="utf-8")
    return ["pipeline", "--config", str(path), "--set", "ga.seed=1",
            "--output-dir", str(tmp / "o")]


def _out_is_directory(tmp):
    path = write_config(tmp)
    return ["synth", "--config", str(path), "--out", str(tmp)]


def _truncated_model(tmp):
    path = write_config(tmp)
    model = tmp / "model.json"
    model.write_text('{"format": "rarerisk.boost_model", "trees": [', "utf-8")
    return ["evolve", "--config", str(path), "--model", str(model),
            "--population-out", str(tmp / "pop.csv"),
            "--trace-out", str(tmp / "trace")]


def _model_missing_keys(tmp):
    path = write_config(tmp)
    model = tmp / "model.json"
    model.write_text('{"format": "rarerisk.boost_model", "version": 1}', "utf-8")
    return ["evolve", "--config", str(path), "--model", str(model),
            "--population-out", str(tmp / "pop.csv"),
            "--trace-out", str(tmp / "trace")]


def _cyclic_model(tmp):
    # Node 1 is its own child: walking this tree would never reach a leaf.
    path = write_config(tmp)
    model = tmp / "model.json"
    tree = {"feature": [0, 0], "left": [1, 1], "right": [1, 1],
            "value": [0.0, 0.0], "deviance_reduction": [0.0] * 8}
    doc = {"format": "rarerisk.boost_model", "version": 1, "intercept": 0.0,
           "shrinkage": 0.1, "n_trees_used": 1, "n_predictors": 8,
           "config": {}, "train_deviance": [0.5], "cv_curve": None,
           "trees": [tree]}
    model.write_text(json.dumps(doc), "utf-8")
    return ["evolve", "--config", str(path), "--model", str(model),
            "--population-out", str(tmp / "pop.csv"),
            "--trace-out", str(tmp / "trace")]


def _negative_shrinkage_model(tmp):
    # Such a model used to load, and evolve searched it as if it were valid.
    path = write_config(tmp)
    model = tmp / "model.json"
    tree = {"feature": [0, -1, -1], "left": [1, -1, -1], "right": [2, -1, -1],
            "value": [0.0, -1.0, 1.0], "deviance_reduction": [1.0] + [0.0] * 7}
    doc = {"format": "rarerisk.boost_model", "version": 1, "intercept": 0.0,
           "shrinkage": -0.1, "n_trees_used": 1, "n_predictors": 8,
           "config": {}, "train_deviance": [0.5], "cv_curve": None,
           "trees": [tree]}
    model.write_text(json.dumps(doc), "utf-8")
    return ["evolve", "--config", str(path), "--model", str(model),
            "--population-out", str(tmp / "pop.csv"),
            "--trace-out", str(tmp / "trace")]


def _manifest_not_json(tmp):
    (tmp / "manifest.json").write_text("{not json", encoding="utf-8")
    return ["report", "--run-dir", str(tmp)]


def _manifest_missing_keys(tmp):
    (tmp / "manifest.json").write_text('{"artifacts": [{}]}', encoding="utf-8")
    return ["report", "--run-dir", str(tmp)]


def _set(item):
    """argv that overrides one entry of a valid config with item."""

    def make_argv(tmp):
        return ["pipeline", "--config", str(write_config(tmp)), "--set", item]

    make_argv.__name__ = f"_set_{item}"
    return make_argv


def _set_into_non_mapping(tmp):
    doc = {k: v for k, v in MINIMAL.items() if k != "boost"}
    path = tmp / "config.yaml"
    path.write_text(yaml.safe_dump(doc) + "boost: 0\n", encoding="utf-8")
    return ["pipeline", "--config", str(path), "--set", "boost.seed=3"]


def _config_is_directory(tmp):
    return ["pipeline", "--config", str(tmp)]


def _config_not_utf8(tmp):
    path = tmp / "config.yaml"
    path.write_bytes(b"\xff\xfe")
    return ["pipeline", "--config", str(path)]


def _population_not_numeric(tmp):
    pop = tmp / "pop.csv"
    pop.write_text("x1,x2,fitness\n1,0,0.5\n1,yes,0.25\n", encoding="utf-8")
    return ["cluster", "--population", str(pop), "--svg-out", str(tmp / "d.svg")]


def _population_gene(cell):
    """argv that clusters a population whose one gene cell is cell."""

    def make_argv(tmp):
        pop = tmp / "pop.csv"
        pop.write_text(f"x1,x2,fitness\n1,0,0.5\n1,{cell},0.25\n", encoding="utf-8")
        return ["cluster", "--population", str(pop), "--svg-out", str(tmp / "d.svg")]

    make_argv.__name__ = f"_population_gene_{cell}"
    return make_argv


@pytest.mark.parametrize(
    "make_argv, code",
    [
        (_bad_yaml, 1),
        (_bad_set_value, 1),
        (_list_root, 1),
        (_out_is_directory, 2),
        (_truncated_model, 2),
        (_model_missing_keys, 2),
        (_cyclic_model, 2),
        (_negative_shrinkage_model, 2),
        (_manifest_not_json, 1),
        (_manifest_missing_keys, 1),
        (_population_not_numeric, 2),
        (_population_gene("-1"), 2),
        (_population_gene("256"), 2),
        (_set("boost.threshold=abc"), 1),
        (_set("ga.repeats=abc"), 1),
        (_set("dataset.synth.n=abc"), 1),
        (_set("dataset.synth.effects=abc"), 1),
        (_set("output_dir=5"), 1),
        (_set("analysis=0"), 1),
        (_set_into_non_mapping, 1),
        (_config_is_directory, 1),
        (_config_not_utf8, 1),
    ],
)
def test_corrupt_input_exits_with_documented_code(
    make_argv, code, tmp_path, capsys
):
    assert main(make_argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error: " if code == 1 else "error: ")


def _six_predictor_population(tmp):
    rng = np.random.default_rng(8)
    pop = tmp / "pop.csv"
    names = [f"x{i}" for i in range(1, 7)]
    rows = [",".join(names + ["fitness"])]
    rows += [",".join(map(str, row)) + ",0.5" for row in rng.integers(0, 2, (12, 6))]
    pop.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return pop


@pytest.mark.parametrize("k, code", [("0", 1), ("-1", 1), ("7", 2), ("99", 2)])
def test_cluster_k_outside_one_to_p_fails_before_any_output(k, code, tmp_path, capsys):
    # k below 1 is a bad flag (exit 1); k above p = 6 is caught before the
    # figure is written or a line is printed (exit 2).
    svg = tmp_path / "d.svg"
    pop = _six_predictor_population(tmp_path)
    argv = ["cluster", "--population", str(pop), "--svg-out", str(svg), "--k", k]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert ("config error: " if code == 1 else "error: k must lie in [1, 6]") in err
    assert "Traceback" not in err
    assert not svg.exists()


def test_cluster_k_equal_to_p_prints_singletons(tmp_path, capsys):
    svg = tmp_path / "d.svg"
    pop = _six_predictor_population(tmp_path)
    argv = ["cluster", "--population", str(pop), "--svg-out", str(svg), "--k", "6"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("  cluster: ") == 6
    assert svg.exists()
