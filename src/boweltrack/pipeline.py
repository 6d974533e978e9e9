"""End-to-end staged tracking.

Every stage writes its artifact to the output directory; a rerun reloads
whatever artifacts already exist, so the pipeline can resume from any cached
stage without changing the result.  All writes are atomic (write-then-rename).
"""

from __future__ import annotations

import dataclasses
import os
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
    node_map_of,
    sample_must_pass,
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
        elapsed = time.perf_counter() - start
        self.records.append(StageRecord(name, elapsed, cached))
        self.artifacts[key] = path
        self.log(f"[{name}] {elapsed:.2f}s{' (cached)' if cached else ''} {path}")
        return value

    def timed(self, name, fn):
        start = time.perf_counter()
        value = _in_stage(name, fn)
        elapsed = time.perf_counter() - start
        self.records.append(StageRecord(name, elapsed, False))
        self.log(f"[{name}] {elapsed:.2f}s")
        return value


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


def save_must_pass(mp: MustPassSet, path) -> None:
    lines = [
        "mustpass 1",
        f"count {len(mp.node_ids)} pruned {mp.pruned_count}",
    ]
    for nid, pos, val in zip(mp.node_ids, mp.positions, mp.values):
        lines.append("peak %d %.17g %.17g %.17g %.17g" % (nid, pos[0], pos[1], pos[2], val))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def load_must_pass(path) -> MustPassSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text must-pass file: {exc}") from exc
    if len(lines) < 2 or lines[0].strip() != "mustpass 1":
        raise FormatError(f"{path}: not a must-pass file")
    head = lines[1].split()
    if len(head) != 4 or head[0] != "count" or head[2] != "pruned":
        raise FormatError(f"{path}: bad count line {lines[1]!r}")
    try:
        count, pruned = int(head[1]), int(head[3])
    except ValueError as exc:
        raise FormatError(f"{path}:2: bad count line {lines[1]!r}: {exc}") from exc
    ids, pos, val = [], [], []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "peak" or len(parts) != 6:
            raise FormatError(f"{path}: bad peak line {line!r}")
        try:
            ids.append(int(parts[1]))
            pos.append([float(p) for p in parts[2:5]])
            val.append(float(parts[5]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad peak line {line!r}: {exc}") from exc
    if len(ids) != count:
        raise FormatError(f"{path}: expected {count} peaks, found {len(ids)}")
    try:
        return MustPassSet(
            node_ids=np.asarray(ids, dtype=np.int64),
            positions=np.asarray(pos, dtype=np.float64),
            values=np.asarray(val, dtype=np.float64),
            pruned_count=pruned,
        )
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid must-pass set: {exc}") from exc


def _load_grids(config: TrackingConfig):
    intensity = load_volume(config.intensity_path)
    seg = load_volume(config.segmentation_path)
    check_same_grid(intensity, seg, "intensity and segmentation", ConfigError)
    if not np.issubdtype(seg.data.dtype, np.integer):
        raise ConfigError(f"segmentation must be integer-coded, got {seg.data.dtype}")
    return intensity, seg


def _graph_stages(config: TrackingConfig, runner: _Runner, intensity, seg):
    wall = runner.stage(
        "ridge", "wall_map",
        compute=lambda: as_float32(meijering_response(intensity, config.scales)),
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


def _write_diagnostics(path, stages, route, header_lines=()) -> None:
    lines = ["tracking diagnostics", ""]
    lines.extend(header_lines)
    lines.append("stage timings:")
    for rec in stages:
        lines.append(f"  {rec.name}: {rec.seconds:.3f} s{' (cached)' if rec.cached else ''}")
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


def _maybe_evaluate(config, route, runner, metrics_key):
    if config.gt_path is None:
        return None
    gt = load_polyline(config.gt_path)
    report = evaluate(route.polyline, gt, config.tolerance)
    _atomic_write_bytes(runner.path(metrics_key), report.to_text().encode("ascii"))
    runner.artifacts[metrics_key] = runner.path(metrics_key)
    runner.log(f"[metrics] {report.line_protocol()}")
    return report


def run_track(config: TrackingConfig, log=None) -> TrackResult:
    """Full must-pass tracking: ridge, supervoxels, graph, sampling, routing."""
    runner = _Runner(config.output_dir, log)
    intensity, seg = _load_grids(config)
    wall, labels, masked = _graph_stages(config, runner, intensity, seg)
    node_map, v_st, v_ed = _terminals(config, seg, labels, masked)

    dist = runner.stage(
        "distance", "distance",
        compute=lambda: as_float32(
            distance_transform(interior_mask(seg, wall, config.wall_threshold))),
        save=save_volume, load=load_volume,
    )
    must_pass = runner.stage(
        "sample", "must_pass",
        compute=lambda: sample_must_pass(
            dist, labels, node_map, config.theta_v, config.theta_d
        ),
        save=save_must_pass, load=load_must_pass,
    )

    def build_route():
        simplified = build_simplified_graph(masked, v_st, v_ed, must_pass, config.delta)
        order = solve_tsp(simplified)
        return expand_tour(masked, order, simplified)

    route = runner.timed("route", build_route)
    save_polyline(route.polyline, runner.path("route"))
    runner.artifacts["route"] = runner.path("route")

    _write_diagnostics(
        runner.path("diagnostics"), runner.records, route,
        header_lines=[
            f"must-pass nodes: {len(must_pass)} (pruned {must_pass.pruned_count})",
            f"terminals: start node {v_st}, end node {v_ed}",
            "",
        ],
    )
    runner.artifacts["diagnostics"] = runner.path("diagnostics")
    report = _maybe_evaluate(config, route, runner, "metrics")
    return TrackResult(route, must_pass, runner.records, runner.artifacts, report)


def run_baseline(config: TrackingConfig, log=None) -> TrackResult:
    """Plain shortest path between the terminals; no must-pass machinery."""
    runner = _Runner(config.output_dir, log)
    intensity, seg = _load_grids(config)
    wall, labels, masked = _graph_stages(config, runner, intensity, seg)
    _, v_st, v_ed = _terminals(config, seg, labels, masked)

    route = runner.timed("route", lambda: shortest_path_baseline(masked, v_st, v_ed))
    save_polyline(route.polyline, runner.path("baseline_route"))
    runner.artifacts["baseline_route"] = runner.path("baseline_route")

    _write_diagnostics(
        runner.path("baseline_diagnostics"), runner.records, route,
        header_lines=[f"terminals: start node {v_st}, end node {v_ed}", ""],
    )
    runner.artifacts["baseline_diagnostics"] = runner.path("baseline_diagnostics")
    report = _maybe_evaluate(config, route, runner, "baseline_metrics")
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
