"""Evaluation of a predicted path against a ground-truth path.

All metrics work on polylines resampled to a uniform arc-length step and
use exact point-to-segment distances (never nearest-sample distances), so
the resampling step biases nothing but the sample density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume_io import Polyline

# Conventions the numbers depend on; repeated in every emitted report.
RESAMPLE_STEP_MM = 1.0
REVERSAL_SLACK_MM = 2.0
# Point-segment pairs per distance piece: bounds the (points, segments, 3)
# float64 temporaries to about 1.5 MB each.
_CHUNK_PAIRS = 1 << 16
# Points per distance chunk, and segments per bounding-box block.
_CHUNK_POINTS, _BLOCK_SEGMENTS = 64, 32


@dataclass
class MetricsReport:
    precision: float            # percent
    recall: float               # percent
    curve_to_curve: float       # mm
    max_len_no_error: float     # mm
    tp: int
    fp: int
    fn: int
    tolerance: float            # mm

    def table_row(self) -> str:
        return (
            f"{self.precision:6.1f} %  {self.recall:6.1f} %  "
            f"{self.curve_to_curve:7.2f} mm  {self.max_len_no_error:8.1f} mm"
        )

    def to_text(self) -> str:
        lines = [
            f"precision_pct: {self.precision:.6g}",
            f"recall_pct: {self.recall:.6g}",
            f"curve_to_curve_mm: {self.curve_to_curve:.6g}",
            f"max_len_no_error_mm: {self.max_len_no_error:.6g}",
            f"tp: {self.tp}",
            f"fp: {self.fp}",
            f"fn: {self.fn}",
            f"tolerance_mm: {self.tolerance:.6g}",
            f"resample_step_mm: {RESAMPLE_STEP_MM:.6g}",
            "# point_to_curve: exact point-to-segment distance",
            f"# max_len monotonicity slack: {REVERSAL_SLACK_MM:g} mm local reversals allowed",
        ]
        return "\n".join(lines) + "\n"

    def line_protocol(self) -> str:
        return (
            f"precision={self.precision:.6g} recall={self.recall:.6g} "
            f"curve_to_curve={self.curve_to_curve:.6g} "
            f"max_len_no_error={self.max_len_no_error:.6g} "
            f"tp={self.tp} fp={self.fp} fn={self.fn} "
            f"tolerance={self.tolerance:.6g} step={RESAMPLE_STEP_MM:.6g}"
        )


def resample_polyline(line: Polyline, step: float) -> Polyline:
    """Resample to uniform arc-length spacing, keeping both endpoints.

    The final inter-point gap is whatever remains after the last full step,
    so total arc length is preserved to within one step.
    """
    if not np.isfinite(step) or step <= 0:
        raise ValueError(f"resample step must be positive, got {step}")
    arc = line.cumulative_arc()
    total = arc[-1]
    positions = np.arange(0.0, total, step)
    if total - positions[-1] > 1e-12:
        positions = np.append(positions, total)
    else:
        positions[-1] = total
    pts = np.stack([np.interp(positions, arc, line.points[:, k]) for k in range(3)], axis=1)
    # Guard against degenerate duplicates from floating-point arc positions.
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 0
    pts = pts[keep]
    if len(pts) < 2:
        pts = line.points[[0, -1]]
    return Polyline(pts)


def _pair_distances(p, a, d, seg_len2):
    """(squared distance, foot t) of each point p to each segment a + t d."""
    diff = p[:, None, :] - a[None, :, :]                  # (c, s, 3)
    t = np.einsum("csk,sk->cs", diff, d) / seg_len2
    np.clip(t, 0.0, 1.0, out=t)
    proj = diff - t[:, :, None] * d[None, :, :]
    return np.einsum("csk,csk->cs", proj, proj), t


def _box_gap2(lo, hi, box_lo, box_hi) -> np.ndarray:
    """Squared distance from the box lo..hi to each box box_lo..box_hi."""
    return np.sum(np.maximum(np.maximum(box_lo - hi, lo - box_hi), 0.0) ** 2, axis=1)


def _point_segment_distances(points: np.ndarray, curve: Polyline) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each point to the curve and the arc position of the foot.

    Returns (distances, arc_positions), both shape (n,). Exact per-segment
    projection, minimized over all segments; ties go to the first segment.
    Each chunk of _CHUNK_POINTS points scores, in index order, the blocks of
    _BLOCK_SEGMENTS whose bounding box lies within its worst distance to the
    block nearest its center, plus a rounding margin: no other block holds
    a point's nearest segment.
    """
    a, b = curve.points[:-1], curve.points[1:]  # (s, 3)
    d = b - a
    seg_len2 = np.einsum("ij,ij->i", d, d)
    arc0 = curve.cumulative_arc()[:-1]
    seg_len = np.sqrt(seg_len2)
    firsts = np.arange(0, len(a), _BLOCK_SEGMENTS)
    box_lo = np.minimum.reduceat(np.minimum(a, b), firsts)
    box_hi = np.maximum.reduceat(np.maximum(a, b), firsts)

    best, best_arc = np.empty(len(points)), np.empty(len(points))
    for start in range(0, len(points), _CHUNK_POINTS):
        p = points[start:start + _CHUNK_POINTS]                # (c, 3)
        lo, hi = p.min(axis=0), p.max(axis=0)
        near = firsts[np.argmin(_box_gap2((lo + hi) / 2.0, (lo + hi) / 2.0, box_lo, box_hi))]
        near = slice(near, near + _BLOCK_SEGMENTS)
        worst = _pair_distances(p, a[near], d[near], seg_len2[near])[0].min(axis=1).max()
        margin = 1e-9 * (worst + np.sum((np.maximum(hi, box_hi) - np.minimum(lo, box_lo)) ** 2, 1))
        kept = firsts[_box_gap2(lo, hi, box_lo, box_hi) <= worst + margin]
        segs = np.concatenate([np.arange(f, min(f + _BLOCK_SEGMENTS, len(a))) for f in kept])
        # Points per piece: bounds the (points, segments) temporaries.
        piece = max(1, _CHUNK_PAIRS // len(segs))
        for i in range(start, start + len(p), piece):
            dist2, t = _pair_distances(points[i:min(i + piece, start + len(p))], a[segs], d[segs],
                                       seg_len2[segs])
            idx = np.argmin(dist2, axis=1)
            rows = np.arange(len(idx))
            best[i:i + len(idx)] = np.sqrt(dist2[rows, idx])
            best_arc[i:i + len(idx)] = arc0[segs[idx]] + t[rows, idx] * seg_len[segs[idx]]
    return best, best_arc


def _error_free_length(dist: np.ndarray, arc_on_pred: np.ndarray,
                       gt_arc: np.ndarray, tol: float) -> float:
    """Longest GT arc stretch tracked without error.

    A GT sample is tracked when its distance `dist` to the predicted curve
    is at most ``tol``. A contiguous run of tracked samples is error-free
    when `arc_on_pred`, the arc positions of their closest points on the
    prediction, is monotonic in one direction, allowing local reversals up
    to REVERSAL_SLACK_MM (so a shortcut that jumps the prediction's arc
    backwards breaks the run).  The runs are the [start, stop) pairs where
    the 0/1 tracked flags, padded with an untracked sample at each end,
    change value.
    """
    runs = np.flatnonzero(np.diff(np.concatenate(([0], dist <= tol, [0])))).reshape(-1, 2)
    return max((_longest_monotone_window(arc_on_pred[i:j], gt_arc[i:j]) for i, j in runs),
               default=0.0)


def _longest_monotone_window(arc: np.ndarray, gt_arc: np.ndarray) -> float:
    best = 0.0
    for values in (arc, -arc):
        m = len(values)
        left = 0
        run_max = -np.inf
        # Two-pointer scan: a window is valid while no element drops more
        # than the slack below the running maximum seen since the window
        # start. Validity is monotone in the left endpoint, so the left
        # pointer only ever advances.
        for right in range(m):
            run_max = max(run_max, values[right])
            while values[right] < run_max - REVERSAL_SLACK_MM:
                left += 1
                run_max = values[left:right + 1].max()
            best = max(best, gt_arc[right] - gt_arc[left])
    return best


def evaluate(pred: Polyline, gt: Polyline, tol: float) -> MetricsReport:
    """Resample both curves and compute the full metric suite."""
    pred_r = resample_polyline(pred, RESAMPLE_STEP_MM)
    gt_r = resample_polyline(gt, RESAMPLE_STEP_MM)
    # Each direction's distances once, shared by every metric.
    d_pg, _ = _point_segment_distances(pred_r.points, gt_r)
    d_gp, arc_on_pred = _point_segment_distances(gt_r.points, pred_r)
    # A predicted sample within `tol` of the GT curve is a TP, a GT sample
    # farther than `tol` from the prediction an FN.
    tp = int(np.count_nonzero(d_pg <= tol))
    covered = int(np.count_nonzero(d_gp <= tol))
    return MetricsReport(
        precision=100.0 * tp / max(1, len(d_pg)),
        recall=100.0 * covered / len(d_gp),
        curve_to_curve=float((d_pg.mean() + d_gp.mean()) / 2.0),
        max_len_no_error=_error_free_length(d_gp, arc_on_pred, gt_r.cumulative_arc(), tol),
        tp=tp,
        fp=len(d_pg) - tp,
        fn=len(d_gp) - covered,
        tolerance=tol,
    )
