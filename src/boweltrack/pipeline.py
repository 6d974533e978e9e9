"""End-to-end staged tracking.

Every stage writes its artifact to the output directory; a rerun reloads
whatever artifacts already exist, so the pipeline can resume from any cached
stage without changing the result.  All writes are atomic (write-then-rename).
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import sys
import time

import numpy as np

from .config import TrackingConfig
from .errors import ConfigError, FormatError, InfeasibleError, InvariantError
from .metrics import DEFAULT_RESAMPLE_STEP_MM, MetricsReport, evaluate
from .phantom import generate_phantom, load_phantom_spec
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
    interior_mask,
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


def _malloc_trim():
    """glibc's `malloc_trim`, None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()

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
    """The process's peak resident set size so far, in MB; None where the
    platform does not report it."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024) / 1e6     # bytes on macOS, else KiB


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

    def stage(self, name, key, compute, save, load):
        path = self.path(key)
        start = time.perf_counter()
        cached = os.path.exists(path)
        if cached:
            value = _in_stage(name, lambda: load(path))
        else:
            value = _in_stage(name, compute)
            save(value, path)
        self._record(name, time.perf_counter() - start, cached, f" {path}")
        self.artifacts[key] = path
        return value

    def timed(self, name, fn):
        start = time.perf_counter()
        value = _in_stage(name, fn)
        self._record(name, time.perf_counter() - start, False)
        return value

    def _record(self, name, seconds, cached, suffix=""):
        rec = StageRecord(name, seconds, cached, _peak_rss_mb())
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


def as_float32(vol):
    """Serialized-volume precision; stages return exactly what their artifact
    stores so cached and fresh runs are bitwise identical."""
    return vol.like(vol.data.astype(np.float32))


def compute_wall_map(intensity, scales):
    """The ridge stage's artifact: the wall filter response."""
    return as_float32(meijering_response(intensity, scales))


def compute_distance_map(seg, wall, wall_threshold):
    """The distance stage's artifact: each interior voxel's distance (mm) to
    the nearest voxel outside the interior."""
    return as_float32(distance_transform(interior_mask(seg, wall, wall_threshold)))


def _load_inputs(config: TrackingConfig):
    """Intensity, segmentation and ground truth (or None), before any stage."""
    intensity = load_volume(config.intensity_path)
    seg = load_volume(config.segmentation_path)
    check_same_grid(intensity, seg, "intensity and segmentation", ConfigError)
    if not np.issubdtype(seg.data.dtype, np.integer):
        raise ConfigError(f"segmentation must be integer-coded, got {seg.data.dtype}")
    gt = None if config.gt_path is None else load_polyline(config.gt_path)
    return intensity, seg, gt


def _graph_stages(config: TrackingConfig, runner: _Runner, intensity, seg):
    wall = runner.stage(
        "ridge", "wall_map",
        compute=lambda: compute_wall_map(intensity, config.scales),
        save=save_volume, load=load_volume,
    )
    labels = runner.stage(
        "slic", "labels",
        compute=lambda: slic_supervoxels(wall, config.target_volume, config.compactness),
        save=save_label_volume, load=load_label_volume,
    )
    masked = runner.stage(
        "rag", "masked_rag",
        compute=lambda: build_rag(labels, wall, seg, config.min_inside_fraction),
        save=save_rag, load=load_rag,
    )
    return wall, labels, masked


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


def _terminals(config: TrackingConfig, seg, labels, masked):
    """Node map of the masked graph and the start and end nodes under the
    configured coordinates, which must be distinct."""
    node_map = node_map_of(masked)
    v_st = _terminal_node(config.start, "start", seg, labels, node_map)
    v_ed = _terminal_node(config.end, "end", seg, labels, node_map)
    if v_st == v_ed:
        raise InfeasibleError(
            "start and end fall in the same supervoxel; nothing to track"
        )
    return node_map, v_st, v_ed


def _load_must_pass_of(path, masked) -> MustPassSet:
    """A cached must-pass file, whose peaks must be nodes of the masked
    graph: one naming another node is stale or edited."""
    must_pass = load_must_pass(path)
    ids = must_pass.node_ids
    outside = ids[(ids < 0) | (ids >= masked.n_nodes)]
    if len(outside):
        raise FormatError(
            f"{path}: peak node {outside[0]} is outside the masked graph's "
            f"{masked.n_nodes} nodes; the file is stale, delete it to resample"
        )
    return must_pass


def _write_diagnostics(path, stages, route, header_lines=()) -> None:
    lines = ["tracking diagnostics", ""]
    lines.extend(header_lines)
    lines.append("stage timings:")
    for rec in stages:
        lines.append(f"  {rec.name}: {_stage_text(rec)}")
    lines.append("")
    lines.append(f"route nodes: {len(route.nodes)}")
    lines.append(f"route total cost: {route.total_cost:.17g}")
    straight = sum(1 for leg in route.legs if leg.get("source") == "straight")
    lines.append(f"legs: {len(route.legs)} total, {straight} straight-line")
    for leg in route.legs:
        a, b = leg["pair"]
        lines.append(
            f"  leg {a} -> {b}: source={leg.get('source', '?')} cost={leg['cost']:.17g}"
            + (f" nodes={leg['n_nodes']}" if "n_nodes" in leg else "")
        )
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
    intensity, seg, gt = _load_inputs(config)
    wall, labels, masked = _graph_stages(config, runner, intensity, seg)
    node_map, v_st, v_ed = _terminals(config, seg, labels, masked)

    dist = runner.stage(
        "distance", "distance",
        compute=lambda: compute_distance_map(seg, wall, config.wall_threshold),
        save=save_volume, load=load_volume,
    )
    must_pass = runner.stage(
        "sample", "must_pass",
        compute=lambda: sample_must_pass(
            dist, labels, node_map, config.theta_v, config.theta_d
        ),
        save=save_must_pass, load=lambda path: _load_must_pass_of(path, masked),
    )

    def build_route():
        simplified = build_simplified_graph(masked, v_st, v_ed, must_pass, config.delta)
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
    intensity, seg, gt = _load_inputs(config)
    wall, labels, masked = _graph_stages(config, runner, intensity, seg)
    _, v_st, v_ed = _terminals(config, seg, labels, masked)

    route = runner.timed("route", lambda: shortest_path_baseline(masked, v_st, v_ed))
    header = [f"terminals: start node {v_st}, end node {v_ed}", ""]
    report = _write_results(runner, route, header, gt, config.tolerance, "baseline_")
    return TrackResult(route, None, runner.records, runner.artifacts, report)


def run_eval(pred_path, gt_path, tol, out_path=None,
             step: float = DEFAULT_RESAMPLE_STEP_MM) -> MetricsReport:
    pred = load_polyline(pred_path)
    gt = load_polyline(gt_path)
    if not (tol >= 0):
        raise ConfigError(f"tolerance must be non-negative, got {tol}")
    report = evaluate(pred, gt, tol, step)
    if out_path is not None:
        _atomic_write_bytes(out_path, report.to_text().encode("ascii"))
    return report


def run_phantom(spec_path, out_dir, log=None) -> dict:
    """Generate a synthetic phantom: intensity, segmentation, GT centerline."""
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
