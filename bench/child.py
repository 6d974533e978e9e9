"""One `run_track` call in a fresh process, for bench/run.py.

Usage: python3 bench/child.py '<job json>'

The job names the input files, the start and end points, the output
directory and, for a traced run, the file the spans go to.  The process
prints one JSON object: wall time of the call, peak RSS, the quality report,
a digest of the written route and the stage records.  A traced run adds the
per-layer metrics and the list of stages whose spans disagree with the
stage record.  Errors from the tracker propagate and end the process with a
non-zero status.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import resource
import sys
import time

from boweltrack import pipeline, route
from boweltrack.config import TrackingConfig

# Functions whose spans make up each stage's compute path.
STAGE_CALLS = {
    "ridge": ("meijering_response",),
    "slic": ("slic_supervoxels",),
    "rag": ("build_rag",),
    "mask": ("mask_nodes",),
    "distance": ("distance_transform",),
    "sample": ("sample_must_pass",),
    "route": ("build_simplified_graph", "solve_tsp", "expand_tour"),
}


def _labels(_args, labels):
    return {"supervoxel.clusters": labels.label_count, "supervoxel.labels": labels.data.size}


def _rag(prefix):
    return lambda _args, rag: {f"rag.{prefix}nodes": rag.n_nodes, f"rag.{prefix}edges": rag.n_edges}


def _loaded_rag(args, rag):
    masked = os.path.basename(args[0]) == pipeline.ARTIFACTS["masked_rag"]
    return _rag("masked_" if masked else "")(args, rag)


def _read(args, _result):
    return {"volume_io.bytes_read": os.path.getsize(args[0])}


def _written(args, _result):
    return {"volume_io.bytes_written": os.path.getsize(args[1])}


def _chain(*counts):
    return lambda args, result: {k: v for count in counts for k, v in count(args, result).items()}


# (name in the boweltrack.pipeline namespace, layer, count hook)
PIPELINE_CALLS = [
    ("meijering_response", "ridge", None),
    ("slic_supervoxels", "supervoxel", _labels),
    ("save_label_volume", "supervoxel", _written),
    ("load_label_volume", "supervoxel", _chain(_labels, _read)),
    ("build_rag", "rag", _rag("")),
    ("mask_nodes", "rag", _rag("masked_")),
    ("save_rag", "rag", _written),
    ("load_rag", "rag", _chain(_loaded_rag, _read)),
    ("distance_transform", "sampling", None),
    ("sample_must_pass", "sampling", None),
    ("build_simplified_graph", "route", None),
    ("solve_tsp", "route", None),
    ("expand_tour", "route", None),
    ("load_volume", "volume_io", _read),
    ("load_polyline", "volume_io", _read),
    ("save_volume", "volume_io", _written),
    ("save_polyline", "volume_io", _written),
    ("evaluate", "metrics", None),
]


def instrument(tracer) -> list:
    """Wrap the traced functions; returns the names that do not exist."""
    missing = []
    for name, layer, count in PIPELINE_CALLS:
        alloc = "ridge.alloc_peak_mb" if name == "meijering_response" else None
        if not tracer.wrap(pipeline, name, layer, count, alloc_metric=alloc):
            missing.append(f"pipeline.{name}")
    if not tracer.wrap(route, "dijkstra", "route", lambda _a, _r: {"route.dijkstra_calls": 1}):
        missing.append("route.dijkstra")
    return missing


def layer_metrics(tracer, result, track_s) -> dict:
    """Stage layers report their stage record's seconds (compute and save,
    or load when cached); the rest are span totals and counts."""
    s, c = tracer.seconds, tracer.counts
    stage = {rec.name: rec.seconds for rec in result.stages}
    legs = collections.Counter(leg.get("source") for leg in result.route.legs)
    return {
        "supervoxel.s": stage.get("slic", 0.0),
        "supervoxel.clusters": c["supervoxel.clusters"],
        "supervoxel.labels": c["supervoxel.labels"],
        "ridge.s": stage.get("ridge", 0.0),
        "ridge.alloc_peak_mb": c["ridge.alloc_peak_mb"],
        "sampling.distance_s": stage.get("distance", 0.0),
        "sampling.sample_s": stage.get("sample", 0.0),
        "sampling.must_pass": len(result.must_pass),
        "sampling.pruned": result.must_pass.pruned_count,
        "route.simplify_s": s("build_simplified_graph"),
        "route.tsp_s": s("solve_tsp"),
        "route.expand_s": s("expand_tour"),
        "route.dijkstra_calls": c["route.dijkstra_calls"],
        "route.legs_cached": legs["cached"],
        "route.legs_dijkstra": legs["dijkstra"],
        "route.legs_straight": legs["straight"],
        "rag.build_s": stage.get("rag", 0.0),
        "rag.mask_s": stage.get("mask", 0.0),
        "rag.io_s": s("save_rag", "load_rag"),
        "rag.nodes": c["rag.nodes"],
        "rag.edges": c["rag.edges"],
        "rag.masked_nodes": c["rag.masked_nodes"],
        "rag.masked_edges": c["rag.masked_edges"],
        "volume_io.load_s": s("load_volume", "load_polyline"),
        "volume_io.save_s": s("save_volume", "save_polyline"),
        "volume_io.bytes_read": c["volume_io.bytes_read"],
        "volume_io.bytes_written": c["volume_io.bytes_written"],
        "metrics.evaluate_s": s("evaluate"),
        "pipeline.self_s": track_s - tracer.top_level_seconds(),
    }


def stage_mismatches(tracer, stages) -> list:
    """Stages whose compute spans contradict the stage record: spans where
    the record says cached, none where it says computed, or more span time
    than the stage took."""
    bad = []
    for rec in stages:
        names = STAGE_CALLS.get(rec.name)
        if names is None:
            continue
        ran = any(span["name"] in names for span in tracer.spans)
        if ran == rec.cached or tracer.seconds(*names) > rec.seconds + 1e-3:
            bad.append(rec.name)
    return bad


def main(argv) -> int:
    job = json.loads(argv[1])
    config = TrackingConfig(
        intensity_path=job["intensity"],
        segmentation_path=job["segmentation"],
        gt_path=job["gt"],
        start=tuple(job["start"]),
        end=tuple(job["end"]),
        output_dir=job["out_dir"],
    )
    tracer = None
    if job.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        missing = instrument(tracer)

    start = time.perf_counter()
    result = pipeline.run_track(config)
    track_s = time.perf_counter() - start

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result.artifacts["route"], "rb") as fh:
        route_digest = hashlib.sha256(fh.read()).hexdigest()
    report = result.report
    out = {
        "track_s": track_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "precision_pct": report.precision,
        "recall_pct": report.recall,
        "c2c_mm": report.curve_to_curve,
        "route_sha256": route_digest,
        "stages": [[rec.name, rec.seconds, rec.cached] for rec in result.stages],
    }
    if tracer is not None:
        tracer.restore()
        tracer.dump(job["trace_path"])
        out["layers"] = layer_metrics(tracer, result, track_s)
        out["stage_mismatches"] = stage_mismatches(tracer, result.stages)
        out["untraced_functions"] = missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
