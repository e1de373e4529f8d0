import json
import os

import numpy as np
import pytest

from spseg import ModelConfig, init_params, optimize_pseudo_labels, save_params
from spseg.cli import main
from spseg.io import read_cloud, read_label_file, read_partition
from spseg.labels import LabelSet
from test_io import parse_ply_independently


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """One synthetic scene dir + config shared by all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    scene_dir = str(root / "scenes")
    cache_dir = str(root / "cache")
    assert main(["synth", "--out", scene_dir, "--scenes", "2", "--labeled", "1",
                 "--eval", "1", "--seed", "7"]) == 0
    config = {
        "model": {"width1": 8, "c_hidden": 16, "num_classes": 5},
        "train": {
            "epochs_total": 2,
            "epochs_labeled_only": 1,
            "learning_rate": 0.01,
            "seed": 5,
        },
        "paths": {"scene_dir": scene_dir, "cache_dir": cache_dir},
    }
    config_path = str(root / "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    manifest = json.load(open(os.path.join(scene_dir, "manifest.json")))
    labeled_file = next(e["file"] for e in manifest["scenes"] if e["split"] == "labeled")
    return {
        "root": root,
        "scene_dir": scene_dir,
        "config": config_path,
        "config_doc": config,
        "scene_file": os.path.join(scene_dir, labeled_file),
    }


class TestSynth:
    def test_manifest_and_files(self, workspace):
        manifest = json.load(open(os.path.join(workspace["scene_dir"], "manifest.json")))
        assert manifest["version"] == 1
        assert len(manifest["scenes"]) == 3
        splits = sorted(e["split"] for e in manifest["scenes"])
        assert splits == ["eval", "labeled", "unlabeled"]
        for entry in manifest["scenes"]:
            cloud, labels = read_cloud(os.path.join(workspace["scene_dir"], entry["file"]))
            assert cloud.n >= 5000
            if entry["split"] == "unlabeled":
                assert labels is None

    @pytest.mark.parametrize("flags", [
        ["--eval", "-1"], ["--scenes", "-1", "--labeled", "0"], ["--labeled", "-1"],
        ["--density", "nan"], ["--density", "inf"], ["--density=-inf"],
    ])
    def test_bad_counts_and_density_are_data_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "scenes"
        assert main(["synth", "--out", str(out), "--scenes", "2", "--labeled", "1"] + flags) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestSuperpointsAndEdges:
    def test_superpoints_writes_partition_and_ply(self, workspace, tmp_path):
        out = str(tmp_path / "sp.json")
        ply = str(tmp_path / "sp.ply")
        code = main(["superpoints", "--in", workspace["scene_file"], "--out", out, "--ply", ply])
        assert code == 0
        cloud, _ = read_cloud(workspace["scene_file"])
        sp = read_partition(out)
        assert sp.n == cloud.n
        assert sp.num_groups >= 2
        pos, rgb = parse_ply_independently(ply)
        assert pos.shape[0] == cloud.n
        workspace["partition"] = out

    def test_edges_writes_flags_and_ply(self, workspace, tmp_path):
        out = str(tmp_path / "edges.txt")
        ply = str(tmp_path / "edges.ply")
        assert main(["edges", "--in", workspace["scene_file"], "--out", out, "--ply", ply]) == 0
        flags = read_label_file(out)
        cloud, _ = read_cloud(workspace["scene_file"])
        assert flags.shape[0] == cloud.n
        assert set(np.unique(flags)) <= {0, 1}
        parse_ply_independently(ply)


class TestOptimizeLabels:
    def test_cli_matches_library_op(self, workspace, tmp_path):
        sp_path = str(tmp_path / "sp.json")
        assert main(["superpoints", "--in", workspace["scene_file"], "--out", sp_path]) == 0
        cloud, truth = read_cloud(workspace["scene_file"])
        rng = np.random.default_rng(0)
        noisy = truth.class_of.copy()
        flip = rng.random(cloud.n) < 0.15
        noisy[flip] = rng.integers(0, 5, size=int(flip.sum()))
        pred_path = str(tmp_path / "pred.txt")
        from spseg.io import write_label_file

        write_label_file(pred_path, noisy)
        out_path = str(tmp_path / "opt.txt")
        code = main([
            "optimize-labels", "--in", workspace["scene_file"], "--partition", sp_path,
            "--labels", pred_path, "--out", out_path, "--t-plo", "0.8", "--classes", "5",
        ])
        assert code == 0
        got = read_label_file(out_path)
        sp = read_partition(sp_path)
        expected = optimize_pseudo_labels(sp, LabelSet.full(noisy, 5), 0.8)
        assert (got == expected.class_of).all()


class TestTrainEvalDeterminism:
    def test_train_twice_identical_metrics_csv(self, workspace, tmp_path):
        out_a = str(tmp_path / "runA")
        out_b = str(tmp_path / "runB")
        assert main(["train", "--config", workspace["config"], "--out-dir", out_a]) == 0
        assert main(["train", "--config", workspace["config"], "--out-dir", out_b]) == 0
        csv_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
        csv_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
        assert csv_a == csv_b
        for name in ("params.json", "train_log.jsonl", "metrics.csv"):
            assert os.path.exists(os.path.join(out_a, name))
        log_a = open(os.path.join(out_a, "train_log.jsonl")).read()
        log_b = open(os.path.join(out_b, "train_log.jsonl")).read()
        assert log_a == log_b

    def test_eval_reproduces_train_metrics(self, workspace, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", workspace["config"], "--out-dir", out]) == 0
        metrics_path = str(tmp_path / "eval.csv")
        assert main([
            "eval", "--config", workspace["config"],
            "--params", os.path.join(out, "params.json"), "--out", metrics_path,
        ]) == 0
        train_row = open(os.path.join(out, "metrics.csv")).read().splitlines()[1]
        eval_row = open(metrics_path).read().splitlines()[1]
        assert train_row.split(",")[1:] == eval_row.split(",")[1:]


class TestSweep:
    def test_five_row_csv(self, workspace, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-tplo", "--config", workspace["config"], "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("t_plo,")
        assert [l.split(",")[0] for l in lines[1:]] == ["0.70", "0.75", "0.80", "0.85", "0.90"]


class TestAblate:
    def test_six_row_table(self, workspace, tmp_path):
        out_dir = str(tmp_path / "ablate")
        assert main(["ablate", "--config", workspace["config"], "--out-dir", out_dir]) == 0
        lines = open(os.path.join(out_dir, "ablation.csv")).read().splitlines()
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == [
            "Baseline", "Baseline+SPFA", "Baseline+SPFA+PL",
            "Baseline+SPFA+PLO", "Baseline+SPFA+PLO+EP", "Ours",
        ]
        assert os.path.exists(os.path.join(out_dir, "ablation.txt"))


class TestExportPly:
    def test_label_mode(self, workspace, tmp_path):
        out = str(tmp_path / "labels.ply")
        assert main(["export-ply", "--in", workspace["scene_file"], "--mode", "label", "--out", out]) == 0
        parse_ply_independently(out)

    def test_superpoint_mode(self, workspace, tmp_path):
        sp_path = str(tmp_path / "sp.json")
        assert main(["superpoints", "--in", workspace["scene_file"], "--out", sp_path]) == 0
        out = str(tmp_path / "sp.ply")
        assert main([
            "export-ply", "--in", workspace["scene_file"], "--mode", "superpoint",
            "--partition", sp_path, "--out", out,
        ]) == 0
        parse_ply_independently(out)

    def test_prediction_mode(self, workspace, tmp_path):
        run_dir = str(tmp_path / "run")
        assert main(["train", "--config", workspace["config"], "--out-dir", run_dir]) == 0
        out = str(tmp_path / "pred.ply")
        assert main([
            "export-ply", "--in", workspace["scene_file"], "--mode", "prediction",
            "--params", os.path.join(run_dir, "params.json"),
            "--config", workspace["config"], "--out", out,
        ]) == 0
        parse_ply_independently(out)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["superpoints", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["superpoints", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.json")]) == 2

    def test_bad_config_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"epoch": 1}}')
        assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2

    def test_divergence_is_numerical_error(self, workspace, tmp_path, capsys):
        doc = dict(workspace["config_doc"])
        doc = json.loads(json.dumps(doc))
        doc["train"]["learning_rate"] = 1e100
        doc["train"]["epochs_labeled_only"] = 0
        bad = tmp_path / "diverge.json"
        bad.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize-labels", "export-ply"])
    def test_inconsistent_partition_is_data_error(self, workspace, tmp_path, capsys, command):
        cloud, _ = read_cloud(workspace["scene_file"])
        bad = tmp_path / "sp.json"
        bad.write_text(json.dumps({"version": 1, "num_points": cloud.n,
                                   "groups": [[0, cloud.n]], "unclustered": list(range(1, cloud.n))}))
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n" * cloud.n)
        out = str(tmp_path / "out")
        argv = {
            "optimize-labels": ["optimize-labels", "--in", workspace["scene_file"], "--partition", str(bad),
                                "--labels", str(labels), "--out", out],
            "export-ply": ["export-ply", "--in", workspace["scene_file"], "--mode", "superpoint",
                           "--partition", str(bad), "--out", out],
        }[command]
        assert main(argv) == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["top_level_list", "no_arrays", "size_mismatch", "w2_rows_not_twice_w1"])
    @pytest.mark.parametrize("command", ["eval", "export-ply"])
    def test_malformed_checkpoint_is_data_error(self, workspace, tmp_path, capsys, command, case):
        params = str(tmp_path / "params.json")
        model = workspace["config_doc"]["model"]
        save_params(init_params(ModelConfig(**model), seed=0), params)
        doc = json.load(open(params))
        arrays = doc["arrays"]
        if case == "top_level_list":
            doc = [doc]
        elif case == "no_arrays":
            del doc["arrays"]
        elif case == "size_mismatch":
            arrays["b1"]["shape"] = [model["width1"] + 1]
        else:
            w2 = (2 * model["width1"] + 1, model["c_hidden"])
            arrays["w2"] = {"shape": list(w2), "data": [0.0] * (w2[0] * w2[1])}
        with open(params, "w") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "out")
        argv = {
            "eval": ["eval", "--config", workspace["config"], "--params", params, "--out", out],
            "export-ply": ["export-ply", "--in", workspace["scene_file"], "--mode", "prediction",
                           "--params", params, "--config", workspace["config"], "--out", out],
        }[command]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    @staticmethod
    def train_on_manifest(tmp_path, manifest) -> int:
        scene_dir = tmp_path / "scenes"
        scene_dir.mkdir()
        (scene_dir / "manifest.json").write_text(json.dumps(manifest))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"scene_dir": str(scene_dir)}}))
        return main(["train", "--config", str(config), "--out-dir", str(tmp_path / "o")])

    @pytest.mark.parametrize("key", ["num_classes", "scenes", "file", "id", "split"])
    def test_manifest_missing_key_is_data_error(self, workspace, tmp_path, capsys, key):
        entry = {"id": 0, "file": workspace["scene_file"], "split": "labeled"}
        manifest = {"version": 1, "num_classes": 5, "scenes": [entry]}
        if key in entry:
            del entry[key]
        else:
            del manifest[key]
        assert self.train_on_manifest(tmp_path, manifest) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("num_classes", "five"), ("id", "zero"), ("scenes", 3), ("file", 3), ("split", ["labeled"]),
    ])
    def test_manifest_wrong_type_is_data_error(self, workspace, tmp_path, capsys, key, value):
        entry = {"id": 0, "file": workspace["scene_file"], "split": "labeled"}
        manifest = {"version": 1, "num_classes": 5, "scenes": [entry]}
        (manifest if key in manifest else entry)[key] = value
        assert self.train_on_manifest(tmp_path, manifest) == 2
        assert repr(key) in capsys.readouterr().err
