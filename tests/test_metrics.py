import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boweltrack import Polyline, metrics
from boweltrack.metrics import evaluate, resample_polyline
from memory import traced_peak
from oracles import (curve_to_curve_distance, error_free_length_loop, match_paths,
                     max_error_free_length, point_segment_distances_all_pairs,
                     point_to_curve_distance)


def straight(length, n=2, offset=(0.0, 0.0, 0.0)):
    t = np.linspace(0.0, length, n)
    pts = np.zeros((n, 3))
    pts[:, 0] = t
    return Polyline(pts + np.asarray(offset))


def wiggly_polyline(seed, n=40, scale=5.0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, n)
    pts = np.stack(
        [
            100 * t + scale * np.sin(4 * np.pi * t + rng.uniform(0, 2 * np.pi)),
            scale * np.cos(3 * np.pi * t + rng.uniform(0, 2 * np.pi)),
            scale * np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi)),
        ],
        axis=1,
    )
    return Polyline(pts)


class TestResample:
    def test_straight_segment_counts(self):
        out = resample_polyline(straight(10.0), 1.0)
        assert len(out) == 11
        assert np.allclose(np.diff(out.points[:, 0]), 1.0)

    def test_step_larger_than_length(self):
        line = straight(10.0, n=5)
        out = resample_polyline(line, 25.0)
        assert len(out) == 2
        assert np.allclose(out.points, line.points[[0, -1]])

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_spacing_on_straight_lines(self, seed):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        t = np.sort(rng.uniform(0, 80, 30))
        t[0], t[-1] = 0.0, 80.0
        line = Polyline(rng.uniform(-10, 10, 3) + t[:, None] * direction)
        out = resample_polyline(line, 1.0)
        gaps = out.segment_lengths()
        assert np.all(np.abs(gaps[:-1] - 1.0) <= 1e-6)
        assert gaps[-1] <= 1.0 + 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_spacing_and_length_on_curves(self, seed):
        line = wiggly_polyline(seed)
        out = resample_polyline(line, 1.0)
        gaps = out.segment_lengths()
        # Chords of a 1 mm arc step never exceed the step; vertices of the
        # source polyline can shorten the straddling chord slightly.
        assert np.all(gaps <= 1.0 + 1e-9)
        assert np.all(gaps[:-1] >= 0.8)
        assert abs(out.arc_length() - line.arc_length()) <= 1.0

    def test_endpoints_preserved(self):
        line = wiggly_polyline(3)
        out = resample_polyline(line, 2.5)
        assert np.allclose(out.points[0], line.points[0])
        assert np.allclose(out.points[-1], line.points[-1])

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            resample_polyline(straight(10.0), 0.0)


class TestMatchPaths:
    def test_identity(self):
        gt = resample_polyline(wiggly_polyline(0), 1.0)
        tp, fp, fn, precision, recall = match_paths(gt, gt, 10.0)
        assert precision == 100.0
        assert recall == 100.0
        assert fp == 0 and fn == 0

    def test_half_coverage(self):
        gt = resample_polyline(straight(100.0), 1.0)
        pred = resample_polyline(straight(50.0), 1.0)
        tp, fp, fn, precision, recall = match_paths(pred, gt, 10.0)
        assert precision == 100.0
        # Samples up to 10 mm past the predicted end still match.
        assert 50.0 <= recall <= 62.0

    def test_beyond_tolerance(self):
        gt = resample_polyline(straight(100.0), 1.0)
        pred = resample_polyline(straight(100.0, offset=(0.0, 12.0, 0.0)), 1.0)
        tp, fp, fn, precision, recall = match_paths(pred, gt, 10.0)
        assert precision == 0.0
        assert recall == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_tolerance_monotone(self, seed):
        pred = resample_polyline(wiggly_polyline(seed), 1.0)
        gt = resample_polyline(wiggly_polyline(seed + 100), 1.0)
        prev_tp, prev_recall = -1, -1.0
        for tol in (1.0, 3.0, 7.0, 15.0, 40.0):
            tp, fp, fn, precision, recall = match_paths(pred, gt, tol)
            assert tp >= prev_tp
            assert recall >= prev_recall
            prev_tp, prev_recall = tp, recall


class TestCurveToCurve:
    def test_identity_zero(self):
        gt = resample_polyline(wiggly_polyline(1), 1.0)
        assert curve_to_curve_distance(gt, gt) == 0.0

    def test_parallel_lines(self):
        a = resample_polyline(straight(200.0), 1.0)
        b = resample_polyline(straight(200.0, offset=(0.0, 3.0, 0.0)), 1.0)
        assert curve_to_curve_distance(a, b) == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetry(self, seed):
        a = resample_polyline(wiggly_polyline(seed), 1.0)
        b = resample_polyline(wiggly_polyline(seed + 1000), 1.0)
        assert curve_to_curve_distance(a, b) == pytest.approx(
            curve_to_curve_distance(b, a), abs=1e-9
        )


class TestMaxErrorFree:
    def test_identity_full_length(self):
        gt = resample_polyline(wiggly_polyline(2), 1.0)
        got = max_error_free_length(gt, gt, 10.0)
        assert got == pytest.approx(gt.arc_length(), abs=1e-9)

    def test_displaced_middle_third(self):
        gt = resample_polyline(straight(300.0), 1.0)
        pred_pts = gt.points.copy()
        middle = (pred_pts[:, 0] > 100.0) & (pred_pts[:, 0] < 200.0)
        pred_pts[middle, 1] += 20.0
        pred = Polyline(pred_pts)
        got = max_error_free_length(pred, gt, 10.0)
        # Roughly one third; the connector segments stay within tolerance
        # of the GT for up to one tolerance length past the clean stretch.
        assert 99.0 <= got <= 112.0

    def test_shortcut_breaks_run(self):
        # GT doubles back on itself; the prediction skips across the fold,
        # so its arc positions jump backwards over the covered GT stretch.
        gt = Polyline(np.array([
            [0.0, 0.0, 0.0],
            [40.0, 0.0, 0.0],
            [40.0, 4.0, 0.0],
            [0.0, 4.0, 0.0],
            [0.0, 8.0, 0.0],
            [40.0, 8.0, 0.0],
        ]))
        pred = Polyline(np.array([
            [0.0, 0.0, 0.0],
            [40.0, 0.0, 0.0],
            [40.0, 8.0, 0.0],  # jumps the fold instead of doubling back
            [0.0, 8.0, 0.0],   # traverses the last stretch backwards
        ]))
        gt_r = resample_polyline(gt, 1.0)
        pred_r = resample_polyline(pred, 1.0)
        full = gt_r.arc_length()
        got = max_error_free_length(pred_r, gt_r, 10.0)
        assert got < full
        # Within tolerance everywhere, so the limit is the monotone run.
        tp, fp, fn, precision, recall = match_paths(pred_r, gt_r, 10.0)
        assert recall == 100.0
        assert got <= 0.75 * full

    @pytest.mark.parametrize("chunk", range(4))
    def test_runs_match_while_loop(self, chunk):
        """The run finder gives the `while` loop's length on 4 x 500 random
        inputs: from 0 to 40 samples, tracked with probability 0.1 to 0.9,
        so empty inputs, no runs, runs of one sample and runs at both ends
        all occur; prediction arcs wander back and forth across the
        reversal slack."""
        seen = {"empty": 0, "no run": 0, "one-sample run": 0}
        for seed in range(500 * chunk, 500 * (chunk + 1)):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 41))
            dist = rng.uniform(0.0, 20.0, n)
            tol = float(np.quantile(dist, rng.uniform(0.1, 0.9))) if n else 10.0
            arc = np.cumsum(rng.normal(1.0, 2.0, n))
            gt_arc = np.cumsum(rng.uniform(0.5, 1.5, n))
            got = metrics._error_free_length(dist, arc, gt_arc, tol)
            assert got == error_free_length_loop(dist, arc, gt_arc, tol), seed
            within = np.concatenate(([False], dist <= tol, [False]))
            seen["empty"] += n == 0
            seen["no run"] += not within.any()
            seen["one-sample run"] += bool(np.any(within[1:-1] & ~within[:-2] & ~within[2:]))
        assert all(seen.values()), seen

    def test_upper_bound_is_gt_length(self):
        for seed in range(10):
            pred = resample_polyline(wiggly_polyline(seed), 1.0)
            gt = resample_polyline(wiggly_polyline(seed + 50), 1.0)
            assert max_error_free_length(pred, gt, 10.0) <= gt.arc_length() + 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_metrics_rigid_translation_invariant(seed):
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-200, 200, 3)
    pred = resample_polyline(wiggly_polyline(seed), 1.0)
    gt = resample_polyline(wiggly_polyline(seed + 7), 1.0)
    pred_s = Polyline(pred.points + shift)
    gt_s = Polyline(gt.points + shift)
    r1 = evaluate(pred, gt, 10.0)
    r2 = evaluate(pred_s, gt_s, 10.0)
    assert r1.precision == pytest.approx(r2.precision, abs=1e-9)
    assert r1.recall == pytest.approx(r2.recall, abs=1e-9)
    assert r1.curve_to_curve == pytest.approx(r2.curve_to_curve, abs=1e-7)
    assert r1.max_len_no_error == pytest.approx(r2.max_len_no_error, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), tol=st.floats(0.5, 30.0))
def test_point_distances_nonnegative_and_zero_on_curve(seed, tol):
    line = resample_polyline(wiggly_polyline(seed), 1.0)
    d = point_to_curve_distance(line.points, line)
    assert np.all(d >= 0)
    assert np.all(d <= 1e-9)


def test_report_serialization():
    gt = resample_polyline(straight(50.0), 1.0)
    report = evaluate(gt, gt, 10.0)
    text = report.to_text()
    assert "precision_pct: 100" in text
    assert "recall_pct: 100" in text
    row = report.line_protocol()
    assert "precision=100" in row and "max_len_no_error=50" in row


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_matches_separate_metrics(seed):
    pred = wiggly_polyline(seed, scale=8.0)
    gt = wiggly_polyline(seed + 30)
    tol = 4.0
    report = evaluate(pred, gt, tol)
    pred_r, gt_r = resample_polyline(pred, 1.0), resample_polyline(gt, 1.0)
    tp, fp, fn, precision, recall = match_paths(pred_r, gt_r, tol)
    assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
    assert (report.precision, report.recall) == (precision, recall)
    assert report.curve_to_curve == curve_to_curve_distance(pred_r, gt_r)
    assert report.max_len_no_error == max_error_free_length(pred_r, gt_r, tol)


@pytest.mark.parametrize("pairs", [1, 150, 1000])
def test_distances_independent_of_chunk_size(monkeypatch, pairs):
    points = resample_polyline(wiggly_polyline(3), 1.0).points
    curve = resample_polyline(wiggly_polyline(4), 1.0)
    expected = metrics._point_segment_distances(points, curve)
    # At most a few points per chunk, down to one.
    monkeypatch.setattr(metrics, "_CHUNK_PAIRS", pairs)
    got = metrics._point_segment_distances(points, curve)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def random_walk(rng, n, step=3.0):
    return Polyline(np.cumsum(rng.normal(scale=step, size=(n, 3)), axis=0))


def hairpin(gap):
    """Out along x for 200 mm and back at `gap` mm: every point has a
    near-tie between the two legs."""
    t = np.linspace(0.0, 200.0, 81)
    out = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
    back = out[::-1] + (0.0, gap, 0.0)
    return Polyline(np.concatenate([out, back]))


def curve_pairs():
    rng = np.random.default_rng(11)
    pairs = [tuple(random_walk(rng, int(rng.integers(2, 400))) for _ in range(2))
             for _ in range(30)]
    for gap in (1e-9, 0.5, 4.0):
        loop = resample_polyline(hairpin(gap), 1.0)
        pairs += [(loop, loop), (resample_polyline(wiggly_polyline(int(gap)), 0.5), loop)]
    # Near-parallel lines: distances differ in the last bits.
    x = np.linspace(0.0, 300.0, 301)
    line = Polyline(np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1))
    tilted = Polyline(np.stack([x, 1.0 + 1e-12 * x, np.zeros_like(x)], axis=1))
    pairs += [(line, tilted), (tilted, line)]
    # Two-point curves against long ones, both ways.
    seg = straight(150.0, offset=(10.0, 3.0, -2.0))
    pairs += [(seg, tilted), (tilted, seg), (seg, seg)]
    return pairs


@pytest.mark.parametrize("k", range(len(curve_pairs())))
def test_distances_match_all_pairs_bitwise(k):
    """Skipping the blocks of segments farther than a first block changes
    no distance, arc position or tie."""
    a, b = curve_pairs()[k]
    for points, curve in ((a.points, b), (b.points, a)):
        got = metrics._point_segment_distances(points, curve)
        expected = point_segment_distances_all_pairs(points, curve)
        for x, y in zip(got, expected):
            assert x.tobytes() == y.tobytes()


def test_evaluate_memory_bounded():
    # Curves of about 1,400 mm, folded-hard's: the point-segment chunks
    # hold about 1.5 MB each.  Chunks of 2^18 pairs peaked at 28 MiB.
    pred = Polyline(wiggly_polyline(4, n=400).points * 13.0)
    gt = Polyline(wiggly_polyline(3, n=400).points * 13.0)
    assert 1400 < pred.arc_length() < gt.arc_length() < 1450
    # 7.1 MiB today.
    assert traced_peak(evaluate, pred, gt, 10.0) <= 8 * 2**20
