import json
import os

import numpy as np
import pytest

from conftest import random_cloud
from spseg import LabelSet, ParseError, PointCloud, from_membership
from spseg.io import (
    color_by_edges,
    color_by_labels,
    color_by_partition,
    load_run_config,
    parse_run_config,
    read_cloud,
    read_label_file,
    read_partition,
    write_cloud,
    write_label_file,
    write_partition,
    write_ply,
)
from spseg.labels import EdgeLabels
from spseg.network import ModelConfig, init_params, load_params, save_params
from spseg.util import atomic_write


def parse_ply_independently(path):
    """Minimal, standalone ASCII-PLY vertex reader."""
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh]
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    count = None
    props = []
    i = 2
    while lines[i] != "end_header":
        parts = lines[i].split()
        if parts[0] == "element":
            assert parts[1] == "vertex"
            count = int(parts[2])
        elif parts[0] == "property":
            props.append((parts[1], parts[2]))
        i += 1
    assert props == [
        ("float", "x"), ("float", "y"), ("float", "z"),
        ("uchar", "red"), ("uchar", "green"), ("uchar", "blue"),
    ]
    body = lines[i + 1:]
    body = [l for l in body if l]
    assert len(body) == count
    pos, rgb = [], []
    for l in body:
        parts = l.split()
        pos.append([float(v) for v in parts[:3]])
        vals = [int(v) for v in parts[3:]]
        assert all(0 <= v <= 255 for v in vals)
        rgb.append(vals)
    return np.array(pos), np.array(rgb)


class TestCloudFile:
    def test_literal_parse(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("0 0 0 255 0 0 2\n")
        cloud, labels = read_cloud(str(p))
        assert cloud.n == 1
        assert np.allclose(cloud.colors[0], [1.0, 0.0, 0.0])
        assert labels.class_of[0] == 2

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("# header\n\n0 0 0 0.1 0.2 0.3\n1 0 0 0.4 0.5 0.6\n")
        cloud, labels = read_cloud(str(p))
        assert cloud.n == 2
        assert labels is None

    def test_round_trip_identity(self, tmp_path, rng):
        cloud = random_cloud(rng, 1000)
        labels = LabelSet.full(rng.integers(-1, 5, size=1000), 5)
        path = str(tmp_path / "cloud.txt")
        write_cloud(path, cloud, labels)
        back_cloud, back_labels = read_cloud(path)
        assert (back_cloud.positions == cloud.positions).all()
        assert (back_cloud.colors == cloud.colors).all()
        assert (back_labels.class_of == labels.class_of).all()
        # Second round trip is bytewise stable.
        path2 = str(tmp_path / "cloud2.txt")
        write_cloud(path2, back_cloud, back_labels)
        assert open(path).read() == open(path2).read()

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 0 0 1 1 1\n0 0\n")
        with pytest.raises(ParseError, match=":2:"):
            read_cloud(str(p))

    def test_nan_coordinate_rejected(self, tmp_path):
        p = tmp_path / "nan.txt"
        p.write_text("nan 0 0 1 1 1\n")
        with pytest.raises(ParseError, match=":1:"):
            read_cloud(str(p))

    def test_unit_scale_colors_kept(self, tmp_path):
        p = tmp_path / "unit.txt"
        p.write_text("0 0 0 0.25 0.5 1.0\n")
        cloud, _ = read_cloud(str(p))
        assert np.allclose(cloud.colors[0], [0.25, 0.5, 1.0])

    def test_byte_scale_detected(self, tmp_path):
        p = tmp_path / "byte.txt"
        p.write_text("0 0 0 128 64 255\n")
        cloud, _ = read_cloud(str(p))
        assert np.allclose(cloud.colors[0], [128 / 255, 64 / 255, 1.0])

    def test_unlabeled_minus_one(self, tmp_path):
        p = tmp_path / "mix.txt"
        p.write_text("0 0 0 1 1 1 -1\n1 0 0 1 1 1 3\n")
        _, labels = read_cloud(str(p))
        assert labels.class_of.tolist() == [-1, 3]
        assert labels.mask.tolist() == [False, True]


class TestPly:
    def test_single_point_header(self, tmp_path):
        cloud = PointCloud(positions=np.zeros((1, 3)), colors=np.zeros((1, 3)))
        path = str(tmp_path / "p.ply")
        write_ply(path, cloud, np.array([[10, 20, 30]], dtype=np.uint8))
        text = open(path).read()
        assert "element vertex 1" in text
        pos, rgb = parse_ply_independently(path)
        assert rgb.tolist() == [[10, 20, 30]]

    def test_partition_coloring_two_groups_plus_black(self, tmp_path, rng):
        sp = from_membership(np.array([0, 0, 1, 1, -1], dtype=np.int64))
        rgb = color_by_partition(sp)
        colors = {tuple(c) for c in rgb[:4].tolist()}
        assert len(colors) == 2
        assert (0, 0, 0) not in colors
        assert rgb[4].tolist() == [0, 0, 0]

    def test_label_and_edge_colorings(self):
        labels = LabelSet.full(np.array([0, 1, -1]), 2)
        rgb = color_by_labels(labels)
        assert rgb[2].tolist() == [0, 0, 0]
        assert rgb[0].tolist() != rgb[1].tolist()
        edges = EdgeLabels(is_edge=np.array([True, False]))
        rgb = color_by_edges(edges)
        assert rgb[0].tolist() == [0, 0, 0]
        assert rgb[1].tolist() == [255, 255, 255]

    def test_random_cloud_valid_for_independent_parser(self, tmp_path, rng):
        cloud = random_cloud(rng, 200)
        rgb = (rng.random((200, 3)) * 255).astype(np.uint8)
        path = str(tmp_path / "r.ply")
        write_ply(path, cloud, rgb)
        pos, back = parse_ply_independently(path)
        assert pos.shape == (200, 3)
        assert (back == rgb).all()
        assert np.allclose(pos, cloud.positions, atol=1e-5)


class TestPartitionJson:
    def test_round_trip(self, tmp_path, rng):
        mem = rng.integers(-1, 4, size=50)
        clustered = mem >= 0
        out = np.full(50, -1, dtype=np.int64)
        _, inv = np.unique(mem[clustered], return_inverse=True)
        out[clustered] = inv
        sp = from_membership(out)
        path = str(tmp_path / "sp.json")
        write_partition(path, sp)
        back = read_partition(path)
        assert (back.membership == sp.membership).all()

    @pytest.mark.parametrize("groups, unclustered", [
        pytest.param([[0, 1], [2, -1]], [3], id="negative_id"),
        pytest.param([[0, 1], [2, 4]], [3], id="id_past_end"),
        pytest.param([[0, 1], [1, 2]], [3], id="point_in_two_groups"),
        pytest.param([[0, 1], [2, 2]], [3], id="point_twice_in_a_group"),
        pytest.param([[0, 1], [2]], [], id="unclustered_misses_a_point"),
        pytest.param([[0, 1], [2]], [2, 3], id="unclustered_overlaps_a_group"),
        pytest.param([[0, 1], []], [2, 3], id="empty_group"),
    ])
    def test_inconsistent_partition_rejected(self, tmp_path, groups, unclustered):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({"version": 1, "num_points": 4, "groups": groups, "unclustered": unclustered}))
        with pytest.raises(ParseError):
            read_partition(str(path))

    def test_missing_unclustered_rejected(self, tmp_path):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({"version": 1, "num_points": 2, "groups": [[0, 1]]}))
        with pytest.raises(ParseError, match="unclustered"):
            read_partition(str(path))


class TestLabelFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.txt")
        write_label_file(path, np.array([0, -1, 3]))
        assert read_label_file(path).tolist() == [0, -1, 3]

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1\nxyz\n")
        with pytest.raises(ParseError, match=":2:"):
            read_label_file(str(p))


class TestRunConfig:
    def test_defaults_parse(self):
        run = parse_run_config({})
        assert run.train.epochs_total == 40
        assert run.train.growing.t_clr == 6.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParseError, match="unknown sections"):
            parse_run_config({"trainer": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ParseError, match="growing"):
            parse_run_config({"growing": {"t_colr": 3}})
        with pytest.raises(ParseError, match="train"):
            parse_run_config({"train": {"epochs": 3}})
        with pytest.raises(ParseError, match="paths"):
            parse_run_config({"paths": {"scene_folder": "x"}})
        with pytest.raises(ParseError, match="synth"):
            parse_run_config({"synth": {"rooms": 3}})

    def test_values_flow_through(self, tmp_path):
        doc = {
            "growing": {"t_clr": 9.0},
            "model": {"c_hidden": 16, "num_classes": 5},
            "train": {"epochs_total": 6, "epochs_labeled_only": 3, "t_plo": 0.75},
            "paths": {"scene_dir": "scenes"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        run = load_run_config(str(path))
        assert run.train.growing.t_clr == 9.0
        assert run.train.model.c_hidden == 16
        assert run.train.t_plo == 0.75
        assert run.paths["scene_dir"] == "scenes"

    def test_bad_json_is_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_run_config(str(p))


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(path, "new \ud800\n")  # a lone surrogate cannot be encoded
        assert open(path).read() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_rename_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "params.json")
        old = init_params(ModelConfig(), seed=1)
        save_params(old, path)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_params(init_params(ModelConfig(), seed=2), path)
        monkeypatch.undo()
        assert (load_params(path).to_vector() == old.to_vector()).all()
        assert os.listdir(tmp_path) == ["params.json"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        atomic_write(str(tmp_path / "atomic.txt"), "x")
        assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode
