"""Generate demo scenes and export colored PLYs for visual inspection.

Writes, per scene: the cloud, and PLYs colored by the raw labels, the merged
superpoints and the edge mask. The scenes go through `precompute_scene` with
the default TrainConfig, so its disk cache applies.

    python scripts/make_demo_scene.py --out demo_out
"""

import argparse
import os

from spseg import TrainConfig, generate_synthetic_scene, precompute_scene
from spseg.io import color_by_edges, color_by_labels, color_by_partition, write_cloud, write_ply
from spseg.scenes import beam_demo_spec, board_demo_spec, default_room_spec


def export(name, cloud, labels, out_dir):
    cache = precompute_scene(cloud, TrainConfig())
    write_cloud(os.path.join(out_dir, f"{name}.txt"), cloud, labels)
    write_ply(os.path.join(out_dir, f"{name}_labels.ply"), cloud, color_by_labels(labels))
    write_ply(os.path.join(out_dir, f"{name}_superpoints.ply"), cloud, color_by_partition(cache.merged))
    write_ply(os.path.join(out_dir, f"{name}_edges.ply"), cloud, color_by_edges(cache.edges))
    print(f"{name}: {cloud.n} pts, geo {cache.geo.num_groups} groups ({cache.geo.unclustered.size} residue), "
          f"color {cache.color.num_groups} groups, merged {cache.merged.num_groups}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    board_cloud, board_labels = generate_synthetic_scene(args.seed, board_demo_spec())
    export("board_scene", board_cloud, board_labels, args.out)
    beam_cloud, beam_labels = generate_synthetic_scene(args.seed, beam_demo_spec())
    export("beam_scene", beam_cloud, beam_labels, args.out)
    room_cloud, room_labels = generate_synthetic_scene(args.seed + 1, default_room_spec(args.seed))
    export("room", room_cloud, room_labels, args.out)


if __name__ == "__main__":
    main()
