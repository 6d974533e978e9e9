"""End-to-end staged tracking.

`STAGES` declares the stages once: each one's inputs, parameters, artifact
and functions; a compute function takes the inputs in table order, then the
parameters.  `run_track`, `run_baseline` and the CLI stage subcommands all
run them from that table.  Every stage writes its artifact to the output
directory; a rerun reloads whatever artifacts already exist, so the pipeline
can resume from any cached stage without changing the result.  All writes
are atomic (write-then-rename).
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import sys
import time

import numpy as np

from .config import TrackingConfig, check_tunable
from .errors import ConfigError, FormatError, InfeasibleError, InvariantError
from .metrics import MetricsReport, evaluate
from .parallel import libc
from .rag import build_rag, load_rag, save_rag
from .ridge import meijering_response
from .route import (
    Route,
    build_simplified_graph,
    expand_tour,
    shortest_path_baseline,
    solve_tsp,
)
from .sampling import (
    MustPassSet,
    distance_transform,
    load_must_pass,
    node_map_of,
    sample_must_pass,
    save_must_pass,
)
from .supervoxel import load_label_volume, save_label_volume, slic_supervoxels
from .volume_io import (
    _atomic_write_bytes,
    check_same_grid,
    load_polyline,
    load_volume,
    save_polyline,
    save_volume,
)

try:
    import resource
except ImportError:     # not on every platform (Windows)
    resource = None


_MALLOC_TRIM = libc("malloc_trim", ctypes.c_size_t)

ARTIFACTS = {
    "wall_map": "wall_map.vol",
    "labels": "labels.vol",
    "masked_rag": "masked_rag.txt",
    "distance": "distance.vol",
    "must_pass": "must_pass.txt",
    "route": "route.poly",
    "diagnostics": "diagnostics.txt",
    "metrics": "metrics.txt",
    "baseline_route": "baseline.poly",
    "baseline_diagnostics": "baseline_diagnostics.txt",
    "baseline_metrics": "baseline_metrics.txt",
    "phantom_intensity": "intensity.vol",
    "phantom_segmentation": "segmentation.vol",
    "phantom_gt": "gt.poly",
}


@dataclasses.dataclass
class StageRecord:
    name: str
    seconds: float
    cached: bool
    peak_rss_mb: float | None     # the process's peak RSS after the stage


def _peak_rss_mb() -> float | None:
    """The peak resident set size so far, in MB, of this process or of any
    worker process it has reaped, whichever is larger: `VmHWM`, which `exec`
    resets, else `ru_maxrss`, which Linux carries across `exec` from the
    launching process; and the children's `ru_maxrss`.  A forked worker's
    own peak counts the pages it shares with this process.  None where the
    platform reports neither."""
    own = None
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    own = int(line.split()[1]) * 1024 / 1e6     # kB
                    break
    except OSError:
        pass
    if resource is None:
        return own
    unit = 1 if sys.platform == "darwin" else 1024     # bytes on macOS, else KiB
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * unit / 1e6)


def _stage_text(rec: StageRecord) -> str:
    """One stage's time, peak RSS and caching, for the log and diagnostics."""
    peak = "n/a" if rec.peak_rss_mb is None else f"{rec.peak_rss_mb:.1f} MB"
    return f"{rec.seconds:.3f} s, peak RSS {peak}{' (cached)' if rec.cached else ''}"


@dataclasses.dataclass
class TrackResult:
    route: Route
    must_pass: MustPassSet | None
    stages: list
    artifacts: dict
    report: MetricsReport | None


class _Runner:
    """Sequential stage executor with reload-if-present artifact caching."""

    def __init__(self, out_dir, log=None):
        self.out_dir = out_dir
        self.log = log or (lambda msg: None)
        self.records: list[StageRecord] = []
        self.artifacts: dict[str, str] = {}
        os.makedirs(out_dir, exist_ok=True)

    def path(self, key) -> str:
        return os.path.join(self.out_dir, ARTIFACTS[key])

    def stage(self, stage, values, config):
        """Run `stage` on `values` (input volumes and earlier artifacts by
        key), or reload its artifact, and return the artifact."""
        path = self.path(stage.key)
        start = time.perf_counter()
        cached = os.path.exists(path)
        if cached:
            value = _in_stage(stage.name, lambda: stage.call("load", path))
        else:
            inputs = [values[key] for key in stage.inputs]
            params = [getattr(config, name) for name in stage.params]
            value = _in_stage(stage.name, lambda: stage.call("compute", *inputs, *params))
            stage.call("save", value, path)
        self._record(stage.name, time.perf_counter() - start, cached, f" {path}")
        self.artifacts[stage.key] = path
        return value

    def timed(self, name, fn):
        start = time.perf_counter()
        value = _in_stage(name, fn)
        self._record(name, time.perf_counter() - start, False)
        return value

    def _record(self, name, seconds, cached, suffix=""):
        # The kernel's RSS counters are approximate, so VmHWM can read about
        # 0.1 MB below an earlier reading; a peak never falls.
        peak = _peak_rss_mb()
        if peak is not None and self.records and self.records[-1].peak_rss_mb is not None:
            peak = max(peak, self.records[-1].peak_rss_mb)
        rec = StageRecord(name, seconds, cached, peak)
        self.records.append(rec)
        self.log(f"[{name}] {_stage_text(rec)}{suffix}")
        # glibc keeps the heap memory a stage freed between the blocks still
        # in use, where the next stage's large buffers do not fit: without
        # this, RSS after slic stayed ~30 MiB higher in 11 of 24 folded-fine
        # runs, and the distance stage then set the track's peak.
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def _in_stage(name, fn):
    """Run one stage, prefixing propagated errors with the stage name."""
    try:
        return fn()
    except (ConfigError, FormatError, InfeasibleError, InvariantError, ValueError) as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class Stage:
    """One stage of the chain.  `compute(*inputs, *params)` returns exactly
    what the artifact stores, `save(value, path)` writes it and `load(path)`
    reads it back.  Each role names a function of this module, looked up at
    each call, so a wrapper set on the module's attribute sees every call."""

    name: str                   # log, stage record and CLI subcommand
    key: str                    # ARTIFACTS key of the output
    inputs: tuple[str, ...]     # "intensity", "segmentation" or earlier stages' keys
    params: tuple[str, ...]     # the TrackingConfig fields it reads
    compute: str
    save: str
    load: str

    def call(self, role, *args):
        return globals()[getattr(self, role)](*args)


# The chain in run order; `inputs` is also the order of the stage
# subcommand's positional arguments.
STAGES = (
    Stage("ridge", "wall_map", ("intensity",), ("scales",),
          "meijering_response", "save_volume", "load_volume"),
    Stage("slic", "labels", ("wall_map",), ("target_volume", "compactness"),
          "slic_supervoxels", "save_label_volume", "load_label_volume"),
    Stage("rag", "masked_rag", ("segmentation", "wall_map", "labels"), ("min_inside_fraction",),
          "build_rag", "save_rag", "load_rag"),
    Stage("distance", "distance", ("segmentation", "wall_map"), ("wall_threshold",),
          "distance_transform", "save_volume", "load_volume"),
    Stage("sample", "must_pass", ("distance", "labels", "masked_rag"), ("theta_v", "theta_d"),
          "sample_must_pass", "save_must_pass", "load_must_pass"),
)


def load_input(key, path):
    """Input volume or artifact `key`, read from `path` as its stage reads it.
    The segmentation must be integer-coded."""
    for stage in STAGES:
        if stage.key == key:
            return stage.call("load", path)
    vol = load_volume(path)
    if key == "segmentation" and not np.issubdtype(vol.data.dtype, np.integer):
        raise ConfigError(f"segmentation must be integer-coded, got {vol.data.dtype}")
    return vol


def run_stage(stage: Stage, input_paths, params, out_path) -> None:
    """One stage on explicit files, writing the bytes the pipeline writes.
    The parameters are checked before any input is read."""
    for name, value in zip(stage.params, params):
        check_tunable(name, value)
    inputs = [load_input(key, path) for key, path in zip(stage.inputs, input_paths)]
    stage.call("save", stage.call("compute", *inputs, *params), out_path)


def _load_inputs(config: TrackingConfig):
    """The input volumes by key and the ground truth (or None), before any
    stage."""
    intensity = load_input("intensity", config.intensity_path)
    seg = load_input("segmentation", config.segmentation_path)
    check_same_grid(intensity, seg, "intensity and segmentation", ConfigError)
    gt = None if config.gt_path is None else load_polyline(config.gt_path)
    return {"intensity": intensity, "segmentation": seg}, gt


def _run_stages(config: TrackingConfig, runner: _Runner, values, key) -> None:
    """Add artifact `key` to `values`: run (or reload), in table order, each
    stage whose artifact `values` lacks, until `key` is in `values`.  The
    intensity volume leaves `values` once `ridge` has made the wall map."""
    for stage in STAGES:
        if key in values:
            return
        if stage.key not in values:
            values[stage.key] = runner.stage(stage, values, config)
            if stage.name == "ridge":
                # Nothing after ridge reads it; kept, it would add to every
                # later stage's peak.
                del values["intensity"]


def _terminal_node(point, which, seg, labels, node_map) -> int:
    try:
        voxel = seg.nearest_voxel(point)
    except InvariantError as exc:
        raise ConfigError(
            f"{which} coordinate {tuple(float(c) for c in point)} is outside the volume grid"
        ) from exc
    sv = int(labels.data[voxel])
    node = node_map.get(sv)
    if node is None:
        raise InfeasibleError(
            f"{which} node pruned: supervoxel {sv} under the {which} coordinate "
            "was removed by the segmentation mask; move the coordinate inside "
            "the segmented structure"
        )
    return node


def _graph(config: TrackingConfig, runner: _Runner):
    """The volumes and artifacts up to the masked graph, by key, the ground
    truth, and the start and end nodes under the configured coordinates,
    which must be distinct."""
    values, gt = _load_inputs(config)
    _run_stages(config, runner, values, "masked_rag")
    seg, labels = values["segmentation"], values["labels"]
    node_map = node_map_of(values["masked_rag"])
    v_st = _terminal_node(config.start, "start", seg, labels, node_map)
    v_ed = _terminal_node(config.end, "end", seg, labels, node_map)
    if v_st == v_ed:
        raise InfeasibleError(
            "start and end fall in the same supervoxel; nothing to track"
        )
    return values, gt, v_st, v_ed


def _write_diagnostics(path, stages, route, header_lines=()) -> None:
    lines = ["tracking diagnostics", ""]
    lines.extend(header_lines)
    lines.append("stage timings:")
    for rec in stages:
        lines.append(f"  {rec.name}: {_stage_text(rec)}")
    lines.append("")
    lines.append(f"route nodes: {len(route.nodes)}")
    lines.append(f"route total cost: {route.total_cost:.17g}")
    straight = sum(1 for leg in route.legs if leg["source"] == "straight")
    lines.append(f"legs: {len(route.legs)} total, {straight} straight-line")
    for leg in route.legs:
        a, b = leg["pair"]
        lines.append(f"  leg {a} -> {b}: source={leg['source']} cost={leg['cost']:.17g}"
                     f" nodes={leg['n_nodes']}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def _write_results(runner, route, header_lines, gt, tolerance, prefix=""):
    """Write the route, the diagnostics and, given a ground truth, the
    metrics (artifact keys `prefix` + "route", ...); return the report."""
    keys = [prefix + "route", prefix + "diagnostics"]
    save_polyline(route.polyline, runner.path(keys[0]))
    _write_diagnostics(runner.path(keys[1]), runner.records, route, header_lines)
    report = None
    if gt is not None:
        report = evaluate(route.polyline, gt, tolerance)
        keys.append(prefix + "metrics")
        _atomic_write_bytes(runner.path(keys[2]), report.to_text().encode("ascii"))
        runner.log(f"[metrics] {report.line_protocol()}")
    runner.artifacts.update((key, runner.path(key)) for key in keys)
    return report


def run_track(config: TrackingConfig, log=None) -> TrackResult:
    """Full must-pass tracking: ridge, supervoxels, graph, sampling, routing."""
    runner = _Runner(config.output_dir, log)
    values, gt, v_st, v_ed = _graph(config, runner)
    _run_stages(config, runner, values, "must_pass")
    masked, must_pass = values["masked_rag"], values["must_pass"]
    # A cached must-pass set naming a node outside the masked graph is
    # stale or edited.
    ids = must_pass.node_ids
    outside = ids[(ids < 0) | (ids >= masked.n_nodes)]
    if len(outside):
        raise FormatError(
            f"stage sample: {runner.path('must_pass')}: peak node {outside[0]} is outside "
            f"the masked graph's {masked.n_nodes} nodes; the file is stale, delete it to resample"
        )

    def build_route():
        simplified = build_simplified_graph(masked, v_st, v_ed, must_pass.node_ids, config.delta)
        order = solve_tsp(simplified)
        return expand_tour(masked, order, simplified)

    route = runner.timed("route", build_route)
    header = [f"must-pass nodes: {len(must_pass)} (pruned {must_pass.pruned_count})",
              f"terminals: start node {v_st}, end node {v_ed}", ""]
    report = _write_results(runner, route, header, gt, config.tolerance)
    return TrackResult(route, must_pass, runner.records, runner.artifacts, report)


def run_baseline(config: TrackingConfig, log=None) -> TrackResult:
    """Plain shortest path between the terminals; no must-pass machinery."""
    runner = _Runner(config.output_dir, log)
    values, gt, v_st, v_ed = _graph(config, runner)
    masked = values["masked_rag"]

    route = runner.timed("route", lambda: shortest_path_baseline(masked, v_st, v_ed))
    header = [f"terminals: start node {v_st}, end node {v_ed}", ""]
    report = _write_results(runner, route, header, gt, config.tolerance, "baseline_")
    return TrackResult(route, None, runner.records, runner.artifacts, report)


def run_eval(pred_path, gt_path, tol, out_path=None) -> MetricsReport:
    check_tunable("tolerance", tol)
    pred = load_polyline(pred_path)
    gt = load_polyline(gt_path)
    report = evaluate(pred, gt, tol)
    if out_path is not None:
        _atomic_write_bytes(out_path, report.to_text().encode("ascii"))
    return report


def run_phantom(spec_path, out_dir, log=None) -> dict:
    """Generate a synthetic phantom: intensity, segmentation, GT centerline."""
    # Imported here: the phantom's scipy chain (interpolate, optimize,
    # spatial) adds ~17 MB to every process that imports it, and no stage
    # uses it.
    from .phantom import generate_phantom, load_phantom_spec

    spec = load_phantom_spec(spec_path)
    log = log or (lambda msg: None)
    start = time.perf_counter()
    intensity, seg, gt = generate_phantom(spec)
    log(f"[phantom] {time.perf_counter() - start:.2f}s dims={spec.dims}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "phantom_intensity": os.path.join(out_dir, ARTIFACTS["phantom_intensity"]),
        "phantom_segmentation": os.path.join(out_dir, ARTIFACTS["phantom_segmentation"]),
        "phantom_gt": os.path.join(out_dir, ARTIFACTS["phantom_gt"]),
    }
    save_volume(intensity, paths["phantom_intensity"])
    save_volume(seg, paths["phantom_segmentation"])
    save_polyline(gt, paths["phantom_gt"])
    return paths
