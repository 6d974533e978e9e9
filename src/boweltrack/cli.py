"""Command-line interface.

Subcommands cover the full pipeline (`track`, `baseline`), evaluation
(`eval`), the synthetic phantom (`phantom`), and the individual stages
(`ridge`, `slic`, `rag`, `sample`) for debugging.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 algorithmic infeasibility,
5 internal invariant breach.

Defaults marked "decision" in the help text have no published backing; the
rest follow the method's stated hyperparameters.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_tracking_config
from .errors import ConfigError, FormatError, InfeasibleError, InvariantError
from .metrics import DEFAULT_RESAMPLE_STEP_MM
from .pipeline import (
    as_float32,
    run_baseline,
    run_eval,
    run_phantom,
    run_track,
    save_must_pass,
)
from .rag import build_rag, load_rag, mask_nodes, save_rag
from .ridge import DEFAULT_SCALES_MM, meijering_response
from .sampling import distance_transform, node_map_of, sample_must_pass
from .supervoxel import load_label_volume, save_label_volume, slic_supervoxels
from .volume_io import check_same_grid, load_volume, save_volume

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INVARIANT = 5


def _add_config_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="tracking config file (key: value lines)")
    p.add_argument("--intensity", metavar="VOL", help="intensity volume (overrides config)")
    p.add_argument("--segmentation", metavar="VOL", help="segmentation volume (overrides config)")
    p.add_argument("--gt", metavar="POLY", help="ground-truth polyline (overrides config)")
    p.add_argument("--start", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   help="start coordinate, mm (overrides config)")
    p.add_argument("--end", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   help="end coordinate, mm (overrides config)")
    p.add_argument("--output-dir", metavar="DIR", help="artifact directory (overrides config)")
    p.add_argument("--scales", nargs="+", type=float, metavar="MM",
                   help="wall-filter scales in mm (default: 2 3; decision)")
    p.add_argument("--target-volume", type=float, metavar="MM3",
                   help="supervoxel target volume in mm^3 (default: 216)")
    p.add_argument("--compactness", type=float, metavar="M",
                   help="supervoxel compactness floor (default: 0.01)")
    p.add_argument("--theta-v", type=float, metavar="MM",
                   help="minimum peak distance value in mm (default: 3)")
    p.add_argument("--theta-d", type=float, metavar="MM",
                   help="minimum peak separation in mm (default: 6)")
    p.add_argument("--delta", type=float, metavar="MM",
                   help="near/far pair split distance in mm (default: 50)")
    p.add_argument("--tolerance", type=float, metavar="MM",
                   help="metric match tolerance in mm (default: 10)")
    p.add_argument("--wall-threshold", type=float, metavar="T",
                   help="wall-map cutoff for the interior distance map (default: 0.2; decision)")
    p.add_argument("--min-inside-fraction", type=float, metavar="F",
                   help="fraction of a supervoxel inside the mask to keep its node "
                        "(default: 0.5; decision)")
    p.add_argument("--quiet", action="store_true", help="suppress stage logging")


def _config_overrides(args) -> dict:
    fmt = "%.17g"

    def triple(values):
        return " ".join(fmt % v for v in values)

    out = {}
    if args.intensity is not None:
        out["intensity"] = os.path.abspath(args.intensity)
    if args.segmentation is not None:
        out["segmentation"] = os.path.abspath(args.segmentation)
    if args.gt is not None:
        out["gt_path"] = os.path.abspath(args.gt)
    if args.start is not None:
        out["start"] = triple(args.start)
    if args.end is not None:
        out["end"] = triple(args.end)
    if args.output_dir is not None:
        out["output_dir"] = os.path.abspath(args.output_dir)
    if args.scales is not None:
        out["scales"] = " ".join(fmt % s for s in args.scales)
    for key in ("target_volume", "compactness", "theta_v", "theta_d", "delta",
                "tolerance", "wall_threshold", "min_inside_fraction"):
        value = getattr(args, key)
        if value is not None:
            out[key] = fmt % value
    return out


def _logger(args):
    if args.quiet:
        return lambda msg: None
    return lambda msg: print(msg, file=sys.stderr)


def _cmd_track(args) -> int:
    config = load_tracking_config(args.config, _config_overrides(args))
    result = run_track(config, log=_logger(args))
    print(result.artifacts["route"])
    if result.report is not None:
        print(result.report.table_row())
    return EXIT_OK


def _cmd_baseline(args) -> int:
    config = load_tracking_config(args.config, _config_overrides(args))
    result = run_baseline(config, log=_logger(args))
    print(result.artifacts["baseline_route"])
    if result.report is not None:
        print(result.report.table_row())
    return EXIT_OK


def _cmd_eval(args) -> int:
    report = run_eval(args.pred, args.gt, args.tolerance, args.out, args.step)
    print("precision   recall   curve-to-curve   max-length-no-error")
    print(report.table_row())
    return EXIT_OK


def _cmd_phantom(args) -> int:
    paths = run_phantom(args.spec, args.out_dir, log=_logger(args))
    for key in ("phantom_intensity", "phantom_segmentation", "phantom_gt"):
        print(paths[key])
    return EXIT_OK


def _cmd_ridge(args) -> int:
    vol = load_volume(args.intensity)
    save_volume(as_float32(meijering_response(vol, tuple(args.scales))), args.out)
    print(args.out)
    return EXIT_OK


def _cmd_slic(args) -> int:
    wall = load_volume(args.wall_map)
    labels = slic_supervoxels(wall, args.target_volume, args.compactness)
    save_label_volume(labels, args.out)
    print(f"{args.out} ({labels.label_count} supervoxels)")
    return EXIT_OK


def _cmd_rag(args) -> int:
    wall = load_volume(args.wall_map)
    labels = load_label_volume(args.labels)
    rag = build_rag(labels, wall)
    if args.segmentation is not None:
        seg = load_volume(args.segmentation)
        bowel = seg.like((seg.data != 0).astype("uint8"))
        rag = mask_nodes(rag, bowel, labels, args.min_inside_fraction)
    save_rag(rag, args.out)
    print(f"{args.out} ({rag.n_nodes} nodes, {len(rag.edge_i)} edges)")
    return EXIT_OK


def _cmd_sample(args) -> int:
    seg = load_volume(args.segmentation)
    wall = load_volume(args.wall_map)
    labels = load_label_volume(args.labels)
    masked = load_rag(args.masked_rag)
    check_same_grid(seg, wall, "segmentation and wall map")
    interior = seg.like(
        ((seg.data != 0) & (wall.data < args.wall_threshold)).astype("uint8")
    )
    dist = as_float32(distance_transform(interior))
    if args.distance_out is not None:
        save_volume(dist, args.distance_out)
    must_pass = sample_must_pass(dist, labels, node_map_of(masked),
                                 args.theta_v, args.theta_d)
    save_must_pass(must_pass, args.out)
    print(f"{args.out} ({len(must_pass)} peaks, {must_pass.pruned_count} pruned)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boweltrack",
        description="Track a convoluted tubular structure through a 3D volume "
                    "via a wall-aware supervoxel graph with must-pass nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="run the full must-pass tracking pipeline")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("baseline", help="run the plain shortest-path baseline")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("eval", help="compare a tracked polyline against ground truth")
    p.add_argument("pred", help="predicted polyline")
    p.add_argument("gt", help="ground-truth polyline")
    p.add_argument("--tolerance", type=float, default=10.0, metavar="MM",
                   help="match tolerance in mm (default: 10)")
    p.add_argument("--step", type=float, default=DEFAULT_RESAMPLE_STEP_MM, metavar="MM",
                   help="resample step in mm (default: 1; decision)")
    p.add_argument("--out", metavar="FILE", help="also write the metrics report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("phantom", help="generate a synthetic phantom volume set")
    p.add_argument("spec", help="phantom spec file (key: value lines)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress logging")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("ridge", help="stage: intensity volume -> wall map")
    p.add_argument("intensity")
    p.add_argument("out")
    p.add_argument("--scales", nargs="+", type=float, default=list(DEFAULT_SCALES_MM),
                   metavar="MM", help="filter scales in mm (default: 2 3; decision)")
    p.set_defaults(func=_cmd_ridge)

    p = sub.add_parser("slic", help="stage: wall map -> supervoxel labels")
    p.add_argument("wall_map")
    p.add_argument("out")
    p.add_argument("--target-volume", type=float, default=216.0, metavar="MM3",
                   help="target supervoxel volume in mm^3 (default: 216)")
    p.add_argument("--compactness", type=float, default=0.01, metavar="M",
                   help="compactness floor (default: 0.01)")
    p.set_defaults(func=_cmd_slic)

    p = sub.add_parser("rag", help="stage: labels + wall map -> adjacency graph")
    p.add_argument("wall_map")
    p.add_argument("labels")
    p.add_argument("out")
    p.add_argument("--segmentation", metavar="VOL",
                   help="if given, also mask nodes by this segmentation")
    p.add_argument("--min-inside-fraction", type=float, default=0.5, metavar="F",
                   help="node keep fraction (default: 0.5; decision)")
    p.set_defaults(func=_cmd_rag)

    p = sub.add_parser("sample", help="stage: distance map peaks -> must-pass nodes")
    p.add_argument("segmentation")
    p.add_argument("wall_map")
    p.add_argument("labels")
    p.add_argument("masked_rag")
    p.add_argument("out")
    p.add_argument("--theta-v", type=float, default=3.0, metavar="MM",
                   help="minimum peak value in mm (default: 3)")
    p.add_argument("--theta-d", type=float, default=6.0, metavar="MM",
                   help="minimum peak separation in mm (default: 6)")
    p.add_argument("--wall-threshold", type=float, default=0.2, metavar="T",
                   help="interior wall-map cutoff (default: 0.2; decision)")
    p.add_argument("--distance-out", metavar="VOL",
                   help="also write the interior distance map here")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
