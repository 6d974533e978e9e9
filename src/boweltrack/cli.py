"""Command-line interface.

Subcommands cover the full pipeline (`track`, `baseline`), evaluation
(`eval`), the synthetic phantom (`phantom`), and the individual stages
for debugging, each writing the bytes of the pipeline's artifact.  The
stage subcommands come from `pipeline.STAGES`: the stage's inputs, then
the output path, and one flag per parameter the stage reads:

    ridge intensity out [--scales MM ...]
    slic wall_map out [--target-volume MM3] [--compactness M]
    rag segmentation wall_map labels out [--min-inside-fraction F]
    distance segmentation wall_map out [--wall-threshold T]
    sample distance labels masked_rag out [--theta-v MM] [--theta-d MM]

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 algorithmic infeasibility,
5 internal invariant breach.

Defaults marked "decision" in the help text have no published backing; the
rest follow the method's stated hyperparameters.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import CONFIG_KEYS, DEFAULTS, TUNABLES, load_tracking_config, value_count
from .errors import ConfigError, FormatError, InfeasibleError, InvariantError
from .pipeline import STAGES, run_baseline, run_eval, run_phantom, run_stage, run_track

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INVARIANT = 5

# Every config key as a flag: key -> (metavar, help phrase, decision).  The
# flag is the key's name ("--gt" for gt_path).  A tunable's help ends with
# its TrackingConfig default, marked "; decision" where no published value
# backs it.
_FLAGS = {
    "intensity": ("VOL", "intensity volume", False),
    "segmentation": ("VOL", "segmentation volume", False),
    "start": (("X", "Y", "Z"), "start coordinate, mm", False),
    "end": (("X", "Y", "Z"), "end coordinate, mm", False),
    "output_dir": ("DIR", "artifact directory", False),
    "gt_path": ("POLY", "ground-truth polyline", False),
    "scales": ("MM", "wall-filter scales in mm", True),
    "target_volume": ("MM3", "supervoxel target volume in mm^3", False),
    "compactness": ("M", "supervoxel compactness floor", False),
    "theta_v": ("MM", "minimum peak distance value in mm", False),
    "theta_d": ("MM", "minimum peak separation in mm", False),
    "delta": ("MM", "near/far pair split distance in mm", False),
    "tolerance": ("MM", "metric match tolerance in mm", False),
    "wall_threshold": ("T", "wall-map cutoff for the interior distance map", True),
    "min_inside_fraction": ("F", "fraction of a supervoxel inside the mask to keep its node",
                            True),
}


def _add_flag(p: argparse.ArgumentParser, key: str, stage: bool = False) -> None:
    """Add config key `key` as a flag.  Under `track` and `baseline` a given
    flag overrides the config file; a stage subcommand (`stage`) takes the
    field's default when the flag is left out."""
    metavar, phrase, decision = _FLAGS[key]
    name = CONFIG_KEYS[key]
    count = value_count(name)
    if name in TUNABLES:
        default = DEFAULTS[name]
        shown = " ".join("%g" % v for v in default) if count == "+" else "%g" % default
        phrase += f" (default: {shown}{'; decision' if decision else ''})"
    else:
        phrase += " (overrides config)"
    p.add_argument("--" + ("gt" if key == "gt_path" else key).replace("_", "-"),
                   dest=key, metavar=metavar, help=phrase,
                   type=None if count is None else float,
                   nargs=None if count in (None, 1) else count,
                   default=DEFAULTS[name] if stage else None)


def _add_config_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="tracking config file (key: value lines)")
    for key in _FLAGS:
        _add_flag(p, key)
    p.add_argument("--quiet", action="store_true", help="suppress stage logging")


def _config_overrides(args) -> dict:
    """The flags given, as config-file values: absolute paths and %.17g
    numbers."""
    out = {}
    for key in _FLAGS:
        value = getattr(args, key)
        if value is None:
            continue
        if value_count(CONFIG_KEYS[key]) is None:
            out[key] = os.path.abspath(value)
        else:
            out[key] = " ".join("%.17g" % v for v in (value if isinstance(value, list)
                                                       else [value]))
    return out


def _logger(args):
    if args.quiet:
        return lambda msg: None
    return lambda msg: print(msg, file=sys.stderr)


def _cmd_run(args) -> int:
    """`track` or `baseline`: run the pipeline on the config with the flags
    applied, print the route's path and, with ground truth, its metrics."""
    run, key = (run_track, "route") if args.command == "track" else (run_baseline,
                                                                    "baseline_route")
    config = load_tracking_config(args.config, _config_overrides(args))
    result = run(config, log=_logger(args))
    print(result.artifacts[key])
    if result.report is not None:
        print(result.report.table_row())
    return EXIT_OK


def _cmd_eval(args) -> int:
    report = run_eval(args.pred, args.gt, args.tolerance, args.out)
    print("precision   recall   curve-to-curve   max-length-no-error")
    print(report.table_row())
    return EXIT_OK


def _cmd_phantom(args) -> int:
    paths = run_phantom(args.spec, args.out_dir, log=_logger(args))
    for key in ("phantom_intensity", "phantom_segmentation", "phantom_gt"):
        print(paths[key])
    return EXIT_OK


def _cmd_stage(args) -> int:
    """One stage of `pipeline.STAGES` on the named files."""
    stage = args.stage
    run_stage(stage, [getattr(args, key) for key in stage.inputs],
              [getattr(args, name) for name in stage.params], args.out)
    print(args.out)
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
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("baseline", help="run the plain shortest-path baseline")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="compare a tracked polyline against ground truth")
    p.add_argument("pred", help="predicted polyline")
    p.add_argument("gt", help="ground-truth polyline")
    _add_flag(p, "tolerance", stage=True)
    p.add_argument("--out", metavar="FILE", help="also write the metrics report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("phantom", help="generate a synthetic phantom volume set")
    p.add_argument("spec", help="phantom spec file (key: value lines)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress logging")
    p.set_defaults(func=_cmd_phantom)

    for stage in STAGES:
        p = sub.add_parser(stage.name, help=f"stage: {' + '.join(stage.inputs)} -> {stage.key}")
        for key in stage.inputs:
            p.add_argument(key)
        p.add_argument("out")
        for name in stage.params:
            _add_flag(p, name, stage=True)
        p.set_defaults(func=_cmd_stage, stage=stage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
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
