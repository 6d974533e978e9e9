"""Staged pipeline: artifact writing, resume-from-cache, terminal resolution,
determinism, and the end-to-end phantom examples."""

import ast
import inspect
import os
import shutil
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from boweltrack.config import TrackingConfig
from boweltrack.errors import ConfigError, FormatError, InfeasibleError
from boweltrack import metrics, parallel, pipeline
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.pipeline import (
    ARTIFACTS,
    load_must_pass,
    run_baseline,
    run_eval,
    run_phantom,
    run_track,
    save_must_pass,
)
from boweltrack.sampling import MustPassSet
from boweltrack.volume_io import Volume, load_polyline, load_volume, save_volume
from oracles import point_segment_distances_all_pairs

STRAIGHT = PhantomSpec(dims=(64, 28, 28), spacing=(2.0, 2.0, 2.0), inner_radius=12.0,
                       bends=0, touch_pairs=0, seed=3)
FOLDED = PhantomSpec(dims=(96, 96, 24), spacing=(2.0, 2.0, 2.0), bends=2,
                     touch_pairs=1, seed=5)


def write_phantom(spec, out_dir):
    intensity, seg, gt = generate_phantom(spec)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "intensity": os.path.join(out_dir, "intensity.vol"),
        "segmentation": os.path.join(out_dir, "segmentation.vol"),
        "gt": os.path.join(out_dir, "gt.poly"),
    }
    save_volume(intensity, paths["intensity"])
    save_volume(seg, paths["segmentation"])
    from boweltrack.volume_io import save_polyline

    save_polyline(gt, paths["gt"])
    return paths, gt


def no_proc_status(path, *args):
    """`open` on a platform without /proc/self/status."""
    raise FileNotFoundError(path)


def make_config(paths, gt, out_dir, **kw):
    base = dict(
        intensity_path=paths["intensity"],
        segmentation_path=paths["segmentation"],
        gt_path=paths["gt"],
        start=tuple(gt.points[0]),
        end=tuple(gt.points[-1]),
        output_dir=out_dir,
    )
    base.update(kw)
    return TrackingConfig(**base)


@pytest.fixture(scope="module")
def straight(tmp_path_factory):
    root = tmp_path_factory.mktemp("straight")
    paths, gt = write_phantom(STRAIGHT, str(root / "data"))
    config = make_config(paths, gt, str(root / "out"))
    result = run_track(config)
    return {"root": root, "paths": paths, "gt": gt, "config": config, "result": result}


class TestTrackArtifacts:
    def test_all_artifacts_written(self, straight):
        out = straight["config"].output_dir
        for key in ("wall_map", "labels", "masked_rag", "distance",
                    "must_pass", "route", "diagnostics", "metrics"):
            assert os.path.exists(os.path.join(out, ARTIFACTS[key])), key
            assert key in straight["result"].artifacts
        # The graph is built over the bowel only; no whole-volume graph is kept.
        assert not os.path.exists(os.path.join(out, "rag.txt"))

    def test_route_matches_saved_polyline(self, straight):
        saved = load_polyline(straight["result"].artifacts["route"])
        assert np.array_equal(saved.points, straight["result"].route.polyline.points)

    def test_route_distances_match_all_pairs_bitwise(self, straight):
        """The evaluation's pruned distances of the route to its GT, and
        back, are those of scoring every segment."""
        route, gt = (metrics.resample_polyline(line, metrics.RESAMPLE_STEP_MM)
                     for line in (straight["result"].route.polyline, straight["gt"]))
        for points, curve in ((route.points, gt), (gt.points, route)):
            got = metrics._point_segment_distances(points, curve)
            expected = point_segment_distances_all_pairs(points, curve)
            for x, y in zip(got, expected):
                assert x.tobytes() == y.tobytes()

    def test_route_endpoints_near_gt(self, straight):
        gt = straight["gt"]
        route = straight["result"].route.polyline
        assert np.linalg.norm(route.points[0] - gt.points[0]) < 10.0
        assert np.linalg.norm(route.points[-1] - gt.points[-1]) < 10.0

    def test_metrics_on_straight_tube(self, straight):
        report = straight["result"].report
        assert report.precision == 100.0
        assert report.recall == 100.0
        assert report.curve_to_curve < 2.0

    def test_diagnostics_contents(self, straight):
        with open(straight["result"].artifacts["diagnostics"]) as fh:
            text = fh.read()
        # Noiseless straight tube: every leg is realizable in the graph.
        assert "0 straight-line" in text
        for stage in ("ridge", "slic", "rag", "distance", "sample", "route"):
            assert f"{stage}:" in text
        assert "must-pass nodes:" in text
        assert "source=cached" in text

    def test_stage_records(self, straight):
        names = [rec.name for rec in straight["result"].stages]
        assert names == ["ridge", "slic", "rag", "distance", "sample", "route"]
        assert all(rec.seconds >= 0 for rec in straight["result"].stages)

    def test_stage_peak_rss(self, straight):
        # A high-water mark: positive and never falling from stage to stage.
        peaks = [rec.peak_rss_mb for rec in straight["result"].stages]
        assert peaks[0] > 0 and peaks == sorted(peaks)
        with open(straight["result"].artifacts["diagnostics"]) as fh:
            lines = fh.read().splitlines()
        for rec in straight["result"].stages:
            assert f"  {rec.name}: {rec.seconds:.3f} s, peak RSS {rec.peak_rss_mb:.1f} MB" in lines

    def test_must_pass_nonempty(self, straight):
        assert len(straight["result"].must_pass) >= 3
        assert straight["result"].must_pass.pruned_count == 0


class TestStageTable:
    """Each role of a `STAGES` row names a function of `pipeline`, so a
    wrapper set on the module's attribute, as the bench's tracer sets them,
    sees every stage call; and a compute function takes exactly the row's
    inputs, then its parameters."""

    @pytest.mark.parametrize("stage", pipeline.STAGES, ids=lambda stage: stage.name)
    def test_roles_name_pipeline_functions(self, stage):
        for role in ("compute", "save", "load"):
            name = getattr(stage, role)
            assert isinstance(name, str), f"{stage.name} {role} is {name!r}, not a name"
            assert callable(getattr(pipeline, name, None)), f"pipeline has no {name}"
        kinds = [p.kind for p in
                 inspect.signature(getattr(pipeline, stage.compute)).parameters.values()]
        assert kinds == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * (
            len(stage.inputs) + len(stage.params))


class TestBaselineStraight:
    def test_baseline_close_to_proposed(self, straight, tmp_path):
        config = make_config(straight["paths"], straight["gt"], str(tmp_path / "out"))
        result = run_baseline(config)
        assert os.path.exists(result.artifacts["baseline_route"])
        assert os.path.exists(result.artifacts["baseline_diagnostics"])
        assert result.report.precision >= 95.0
        assert result.report.recall >= 95.0
        # No folds to cut through, so the two methods trace the same tube.
        proposed_arc = straight["result"].route.polyline.arc_length()
        assert abs(result.route.polyline.arc_length() - proposed_arc) <= 0.1 * proposed_arc

    def test_stale_must_pass_ignored(self, straight, tmp_path):
        # The baseline reads no must-pass set, so a stale one in its output
        # directory is neither checked nor rewritten.
        out = tmp_path / "out"
        shutil.copytree(straight["config"].output_dir, out)
        path = out / ARTIFACTS["must_pass"]
        must_pass = load_must_pass(str(path))
        must_pass.node_ids[0] = 10**6     # past the masked graph's last node
        save_must_pass(must_pass, str(path))
        stale = path.read_bytes()
        config = make_config(straight["paths"], straight["gt"], str(out))
        result = run_baseline(config)
        assert [rec.name for rec in result.stages] == ["ridge", "slic", "rag", "route"]
        assert path.read_bytes() == stale


class TestResumeAndDeterminism:
    BITWISE_KEYS = ("wall_map", "labels", "masked_rag", "distance",
                    "must_pass", "route", "metrics")

    def read(self, out_dir, key):
        with open(os.path.join(out_dir, ARTIFACTS[key]), "rb") as fh:
            return fh.read()

    def test_fresh_rerun_bitwise_identical(self, straight, tmp_path):
        config = make_config(straight["paths"], straight["gt"], str(tmp_path / "fresh"))
        run_track(config)
        # diagnostics.txt holds wall-clock timings, hence is excluded.
        for key in self.BITWISE_KEYS:
            assert self.read(config.output_dir, key) == self.read(
                straight["config"].output_dir, key
            ), key

    def test_cached_rerun_identical_and_logged(self, straight):
        before = self.read(straight["config"].output_dir, "route")
        logged = []
        result = run_track(straight["config"], log=logged.append)
        cached = [rec.name for rec in result.stages if rec.cached]
        assert cached == ["ridge", "slic", "rag", "distance", "sample"]
        assert any("(cached)" in line for line in logged)
        assert self.read(straight["config"].output_dir, "route") == before

    def test_peak_rss_without_resource_module(self, straight, monkeypatch):
        # Nor /proc/self/status: a platform that reports no peak.
        monkeypatch.setattr(pipeline, "open", no_proc_status, raising=False)
        monkeypatch.setattr(pipeline, "resource", None)
        logged = []
        result = run_track(straight["config"], log=logged.append)
        assert all(rec.peak_rss_mb is None for rec in result.stages)
        stage_lines = [line for line in logged if not line.startswith("[metrics]")]
        assert len(stage_lines) == 6
        assert all("peak RSS n/a" in line for line in stage_lines)
        with open(result.artifacts["diagnostics"]) as fh:
            assert "peak RSS n/a (cached)" in fh.read()

    def test_freed_heap_returned_after_every_stage(self, straight, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "_MALLOC_TRIM", calls.append)
        run_track(straight["config"])
        assert calls == [0] * 6

    def test_resume_ignores_stray_whole_volume_graph(self, straight, tmp_path):
        # An output directory written when the whole-volume graph was its own
        # artifact still holds rag.txt; it is never read, so not even an
        # unreadable one stops the resume.
        src = straight["config"].output_dir
        out = str(tmp_path / "older")
        shutil.copytree(src, out)
        stray = os.path.join(out, "rag.txt")
        with open(stray, "wb") as fh:
            fh.write(b"node x\n")
        config = make_config(straight["paths"], straight["gt"], out)
        result = run_track(config)
        assert [rec.name for rec in result.stages if rec.cached] == [
            "ridge", "slic", "rag", "distance", "sample"]
        for key in self.BITWISE_KEYS:
            assert self.read(out, key) == self.read(src, key), key
        with open(stray, "rb") as fh:
            assert fh.read() == b"node x\n"

    def test_partial_resume_same_result(self, straight, tmp_path):
        src = straight["config"].output_dir
        out = str(tmp_path / "partial")
        os.makedirs(out)
        for key in ("wall_map", "labels"):
            shutil.copy(os.path.join(src, ARTIFACTS[key]),
                        os.path.join(out, ARTIFACTS[key]))
        config = make_config(straight["paths"], straight["gt"], out)
        result = run_track(config)
        assert [rec.name for rec in result.stages if rec.cached] == ["ridge", "slic"]
        for key in self.BITWISE_KEYS:
            assert self.read(out, key) == self.read(src, key), key


class TestIntensityReleased:
    """No stage after ridge reads the intensity volume, so the runner drops
    it: slic and the stages after it do not carry it at their peaks."""

    @pytest.mark.parametrize("cached_wall_map", [False, True], ids=["fresh", "cached-wall-map"])
    @pytest.mark.parametrize("run", [run_track, run_baseline])
    def test_dead_when_slic_starts(self, straight, tmp_path, monkeypatch, run, cached_wall_map):
        out = tmp_path / "out"
        os.makedirs(out)
        if cached_wall_map:
            shutil.copy(os.path.join(straight["config"].output_dir, ARTIFACTS["wall_map"]), out)
        load_input, slic = pipeline.load_input, pipeline.slic_supervoxels
        loaded, alive_at_slic = [], []

        def loading(key, path):
            value = load_input(key, path)
            if key == "intensity":
                loaded.append(weakref.ref(value))
            return value

        def checking(*args):
            alive_at_slic.append(loaded[0]() is not None)
            return slic(*args)

        monkeypatch.setattr(pipeline, "load_input", loading)
        monkeypatch.setattr(pipeline, "slic_supervoxels", checking)
        result = run(make_config(straight["paths"], straight["gt"], str(out)))
        assert [(rec.name, rec.cached) for rec in result.stages[:2]] == [
            ("ridge", cached_wall_map), ("slic", False)]
        assert len(loaded) == 1 and alive_at_slic == [False]


class TestNoThreads:
    """Every parallel step runs on forked processes (`parallel.fork_ranges`),
    so the tracker needs no malloc tuning for threads."""

    def test_track_starts_no_thread(self, straight, tmp_path, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        out = str(tmp_path / "out")
        run_track(make_config(straight["paths"], straight["gt"], out))
        for key in ("wall_map", "labels", "route"):
            with open(os.path.join(out, ARTIFACTS[key]), "rb") as fh:
                got = fh.read()
            with open(straight["result"].artifacts[key], "rb") as fh:
                assert got == fh.read()

    def test_no_module_imports_threads(self):
        src = os.path.dirname(pipeline.__file__)
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names}
            imported |= {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module}
            assert not {m.split(".")[0] for m in imported} & {"concurrent", "threading"}, name


class TestTerminalResolution:
    def test_start_in_background_is_pruned(self, straight):
        config = make_config(straight["paths"], straight["gt"],
                             straight["config"].output_dir, start=(3.0, 3.0, 3.0))
        with pytest.raises(InfeasibleError, match="start node pruned"):
            run_track(config)

    def test_end_outside_grid(self, straight):
        config = make_config(straight["paths"], straight["gt"],
                             straight["config"].output_dir, end=(500.0, 3.0, 3.0))
        with pytest.raises(ConfigError, match="outside the volume grid"):
            run_track(config)

    def test_start_equals_end_supervoxel(self, straight):
        mid = tuple(straight["gt"].points[len(straight["gt"]) // 2])
        config = make_config(straight["paths"], straight["gt"],
                             straight["config"].output_dir, start=mid, end=mid)
        with pytest.raises(InfeasibleError, match="same supervoxel"):
            run_track(config)

    def test_grid_mismatch_rejected(self, straight, tmp_path):
        seg = load_volume(straight["paths"]["segmentation"])
        cropped = Volume(seg.data[:-2], seg.spacing, seg.origin)
        bad = str(tmp_path / "seg_cropped.vol")
        save_volume(cropped, bad)
        paths = dict(straight["paths"], segmentation=bad)
        config = make_config(paths, straight["gt"], str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="different grids"):
            run_track(config)

    def test_float_segmentation_rejected(self, straight, tmp_path):
        seg = load_volume(straight["paths"]["segmentation"])
        bad = str(tmp_path / "seg_float.vol")
        save_volume(Volume(seg.data.astype(np.float32), seg.spacing, seg.origin), bad)
        paths = dict(straight["paths"], segmentation=bad)
        config = make_config(paths, straight["gt"], str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="integer-coded"):
            run_track(config)


class TestGroundTruthReadFirst:
    @pytest.mark.parametrize("run", [run_track, run_baseline])
    def test_bad_ground_truth_rejected_before_any_stage(self, straight, tmp_path, run):
        gt = tmp_path / "gt.poly"
        gt.write_text("1.0 2.0 3.0\n")
        paths = dict(straight["paths"], gt=str(gt))
        config = make_config(paths, straight["gt"], str(tmp_path / "out"))
        with pytest.raises(FormatError, match=r"gt\.poly: polyline needs at least 2 points"):
            run(config)
        assert not (tmp_path / "out" / ARTIFACTS["wall_map"]).exists()


class TestMustPassSerialization:
    def roundtrip(self, tmp_path, mp):
        path = str(tmp_path / "mp.txt")
        save_must_pass(mp, path)
        return load_must_pass(path)

    def test_round_trip_exact(self, tmp_path):
        mp = MustPassSet(
            node_ids=np.array([4, 9, 2]),
            positions=np.array([[1.5, 2.25, 3.0], [4.0, 5.0, 6.0], [0.1, 0.2, 0.3]]),
            values=np.array([5.0, 4.5, 3.25]),
            pruned_count=2,
        )
        back = self.roundtrip(tmp_path, mp)
        assert np.array_equal(back.node_ids, mp.node_ids)
        assert np.array_equal(back.positions, mp.positions)
        assert np.array_equal(back.values, mp.values)
        assert back.pruned_count == 2

    def test_round_trip_denormal_coordinates(self, tmp_path):
        mp = MustPassSet(
            node_ids=np.array([0, 1]),
            positions=np.array([[1 / 3, 2 / 7, 1e-17], [np.pi, np.e, 1e17]]),
            values=np.array([3.0000000001, 3.0]),
        )
        back = self.roundtrip(tmp_path, mp)
        assert np.array_equal(back.positions, mp.positions)
        assert np.array_equal(back.values, mp.values)

    def test_writer_format(self, tmp_path):
        mp = MustPassSet(
            node_ids=np.array([4, 9]),
            positions=np.array([[1.5, 1 / 3, -0.0], [4.0, 5e-324, 6.0]]),
            values=np.array([5.0, 0.1]),
            pruned_count=3,
        )
        path = tmp_path / "mp.txt"
        save_must_pass(mp, path)
        assert path.read_text() == (
            "mustpass 1\ncount 2 pruned 3\n"
            "peak 4 1.5 0.33333333333333331 -0 5\n"
            "peak 9 4 4.9406564584124654e-324 6 0.10000000000000001\n"
        )

    @pytest.mark.parametrize("text,match", [
        ("wrong 1\ncount 0 pruned 0\n", r"bad\.txt:1: unrecognized must-pass line 'wrong 1'"),
        ("mustpass 1\ncount x pruned 0\n", "invalid literal|bad count"),
        ("mustpass 1\ncounts 1 pruned 0\npeak 1 0 0 0 3\n",
         r"bad\.txt:2: unrecognized must-pass line 'counts 1 pruned 0'"),
        ("mustpass 1\ncount 1 pruned 0\npeak 1 0 0\n",
         r"bad\.txt:3: unrecognized must-pass line 'peak 1 0 0'"),
        ("mustpass 1\ncount 2 pruned 0\npeak 1 0 0 0 3\n", "expected 2 peaks"),
        ("mustpass 1\ncount 2 pruned 0\npeak 1 0 0 0 3\npeak 1 1 1 1 3\n",
         "invalid must-pass set"),
        ("mustpass 1\ncount 1 pruned zero\npeak 1 0 0 0 3\n",
         r"bad\.txt:2: bad number in 'count 1 pruned zero'"),
        ("mustpass 1\ncount 1 pruned 0\npeak 1 0 x 0 3\n",
         r"bad\.txt:3: bad number in 'peak 1 0 x 0 3'"),
        ("mustpass 1\ncount 0 pruned 0\n\xff\n", r"bad\.txt: not a text must-pass file"),
        # The header is line 1, then line 2, in that order.
        ("count 1 pruned 0\nmustpass 1\npeak 1 0 0 0 3\n", r"bad\.txt: not a must-pass file"),
        ("mustpass 1\npeak 1 0 0 0 3\ncount 1 pruned 0\n",
         r"bad\.txt: expected one 'count N pruned P' line, as line 2; found count lines at \[3\]"),
        ("\nmustpass 1\ncount 1 pruned 0\npeak 1 0 0 0 3\n", r"bad\.txt: not a must-pass file"),
        ("mustpass 1\n\ncount 1 pruned 0\npeak 1 0 0 0 3\n", r"count lines at \[3\]"),
        ("mustpass 1\ncount 1 pruned 0\npeak 1 0 0 0 3\ncount 1 pruned 0\n",
         r"count lines at \[2, 4\]"),
        ("mustpass 1\nmustpass 1\ncount 1 pruned 0\npeak 1 0 0 0 3\n",
         r"bad\.txt: not a must-pass file"),
        ("mustpass 01\ncount 1 pruned 0\npeak 1 0 0 0 3\n", r"bad\.txt: not a must-pass file"),
        ("mustpass 2\ncount 1 pruned 0\npeak 1 0 0 0 3\n", r"bad\.txt: not a must-pass file"),
        ("mustpass 1\ncount 1 pruning 0\npeak 1 0 0 0 3\n", r"count lines at \[2\]"),
        ("mustpass 1\n", r"count lines at \[\]"),
        ("peak 1 0 0 0 3\n", r"bad\.txt: not a must-pass file"),
        ("mustpass 1\ncount 1 pruned -3\npeak 1 0 0 0 3\n",
         r"bad\.txt: invalid must-pass set: pruned count must be non-negative, got -3"),
    ])
    def test_malformed_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            load_must_pass(str(path))


class TestEval:
    def test_pred_equals_gt(self, straight, tmp_path):
        gt_path = straight["paths"]["gt"]
        out = str(tmp_path / "report.txt")
        report = run_eval(gt_path, gt_path, 10.0, out_path=out)
        assert report.precision == 100.0
        assert report.recall == 100.0
        assert report.curve_to_curve == 0.0
        assert report.max_len_no_error == pytest.approx(
            straight["gt"].arc_length(), abs=1.0
        )
        with open(out) as fh:
            assert "precision_pct: 100" in fh.read()

    def test_zero_tolerance_non_identical(self, straight):
        report = run_eval(straight["result"].artifacts["route"],
                          straight["paths"]["gt"], 0.0)
        assert report.recall < 5.0

    def test_negative_tolerance_rejected(self, straight):
        with pytest.raises(ConfigError, match="non-negative"):
            run_eval(straight["paths"]["gt"], straight["paths"]["gt"], -1.0)

    def test_malformed_polyline(self, straight, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("not a polyline\n")
        with pytest.raises(FormatError):
            run_eval(str(bad), straight["paths"]["gt"], 10.0)


class TestPhantomCommand:
    def test_writes_three_loadable_files(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(
            "dims: 40 20 20\nspacing: 2 2 2\ninner_radius: 6\nbends: 0\n"
            "touch_pairs: 0\nseed: 11\n"
        )
        paths = run_phantom(str(spec_path), str(tmp_path / "data"))
        intensity = load_volume(paths["phantom_intensity"])
        seg = load_volume(paths["phantom_segmentation"])
        gt = load_polyline(paths["phantom_gt"])
        assert intensity.dims == (40, 20, 20)
        assert seg.dims == (40, 20, 20)
        assert set(np.unique(seg.data)) == {0, 1, 2}
        assert gt.arc_length() > 0


class TestFoldedPhantom:
    def test_baseline_shortcut_signature(self, tmp_path):
        paths, gt = write_phantom(FOLDED, str(tmp_path / "data"))
        config = make_config(paths, gt, str(tmp_path / "out"))
        result = run_baseline(config)
        # Cutting through the shared wall skips a whole serpentine section.
        assert result.route.polyline.arc_length() < 0.8 * gt.arc_length()
        assert result.report.recall < 70.0


class TestDisconnectedGraph:
    def test_unreachable_end(self, tmp_path):
        dims = (40, 16, 16)
        intensity = np.zeros(dims, dtype=np.float32)
        seg = np.zeros(dims, dtype=np.uint8)
        for xs in (slice(2, 10), slice(26, 38)):
            intensity[xs, 3:13, 3:13] = 300.0
            seg[xs, 3:13, 3:13] = 1
        spacing = (2.0, 2.0, 2.0)
        paths = {
            "intensity": str(tmp_path / "ct.vol"),
            "segmentation": str(tmp_path / "seg.vol"),
        }
        save_volume(Volume(intensity, spacing), paths["intensity"])
        save_volume(Volume(seg, spacing), paths["segmentation"])
        config = TrackingConfig(
            intensity_path=paths["intensity"],
            segmentation_path=paths["segmentation"],
            start=(13.0, 17.0, 17.0),
            end=(65.0, 17.0, 17.0),
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(InfeasibleError, match="unreachable"):
            run_baseline(config)


class TestPeakRss:
    """The stage records' peak RSS is this process's own, or that of a
    worker process it forked, whichever is larger."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="no /proc/self/status")
    def test_peak_after_exec_excludes_the_launcher(self, tmp_path):
        # Linux carries ru_maxrss across exec; a process that held 300 MB
        # before it exec'd Python must not see that in its stage records.
        child = (f"from boweltrack.pipeline import _Runner; r = _Runner({str(tmp_path)!r}); "
                 "r.timed('noop', lambda: None); print(r.records[0].peak_rss_mb)")
        launcher = ("import os, sys; held = b'x' * (300 * 10**6); "
                    f"os.execv(sys.executable, [sys.executable, '-c', {child!r}])")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", launcher], env=env,
                              capture_output=True, text=True, check=True)
        assert 0 < float(done.stdout) < 300

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.exists("/proc/self/status"),
                        reason="no os.fork or no /proc/self/status")
    def test_peak_counts_forked_workers(self, tmp_path):
        # A fresh interpreter, whose own peak stays below what its worker
        # touches: the SLIC assignment's batch temporaries live in workers.
        code = (
            "import numpy as np\n"
            "from boweltrack import parallel\n"
            "from boweltrack.pipeline import _Runner, _peak_rss_mb\n"
            "parallel.workers = lambda: 2\n"
            "mb = _peak_rss_mb() + 64\n"
            "def touch(lo, hi):\n"
            "    if lo:\n"
            "        np.ones(int(mb * 1e6) // 8)\n"
            f"r = _Runner({str(tmp_path)!r})\n"
            "r.timed('fork', lambda: parallel.fork_ranges(touch, 2, 1))\n"
            "own = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')) * 1024 / 1e6\n"
            "print(mb, own, r.records[0].peak_rss_mb)\n")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        mb, own, recorded = map(float, done.stdout.split())
        assert own < mb <= recorded

    def test_recorded_peak_never_falls(self, straight, monkeypatch, tmp_path):
        # The kernel's RSS counters are approximate: VmHWM read 283.455 MB
        # after one stage and 283.316 MB after the next.
        readings = iter([283.455, 283.316, 290.0, 289.9, 289.8, 295.0])
        monkeypatch.setattr(pipeline, "_peak_rss_mb", lambda: next(readings))
        out = str(tmp_path / "out")
        shutil.copytree(straight["config"].output_dir, out)
        result = run_track(make_config(straight["paths"], straight["gt"], out))
        peaks = [rec.peak_rss_mb for rec in result.stages]
        assert peaks == [283.455, 283.455, 290.0, 290.0, 290.0, 295.0]
        with open(result.artifacts["diagnostics"]) as fh:
            text = fh.read()
        for rec in result.stages:
            assert f"  {rec.name}: {rec.seconds:.3f} s, peak RSS {rec.peak_rss_mb:.1f} MB" in text

    def test_missing_libc_function_is_skipped(self):
        # malloc_trim and prctl are glibc's; elsewhere they resolve
        # to None and neither the pipeline nor the fork runner calls them.
        assert parallel.libc("boweltrack_no_such_function") is None

    def test_falls_back_to_getrusage(self, monkeypatch):
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(pipeline, "open", no_proc_status, raising=False)
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert pipeline._peak_rss_mb() >= kib * (1 if sys.platform == "darwin" else 1024) / 1e6
