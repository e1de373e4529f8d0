import importlib.util
import os

from test_io import parse_ply_independently

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_demo_scene_writes_four_files_per_scene(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPSEG_CACHE_DIR", raising=False)
    load_script("make_demo_scene").main(["--out", str(tmp_path)])
    scenes = ("board_scene", "beam_scene", "room")
    suffixes = (".txt", "_labels.ply", "_superpoints.ply", "_edges.ply")
    assert sorted(os.listdir(tmp_path)) == sorted(s + x for s in scenes for x in suffixes)
    for scene in scenes:
        n = len(open(tmp_path / f"{scene}.txt").read().splitlines())
        for suffix in suffixes[1:]:
            pos, _ = parse_ply_independently(str(tmp_path / f"{scene}{suffix}"))
            assert pos.shape == (n, 3)
    assert len(capsys.readouterr().out.splitlines()) == 3
