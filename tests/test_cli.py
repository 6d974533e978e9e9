"""Command-line interface: subcommands, exit codes, flag overrides, and
stage-level commands reproducing the pipeline's own artifacts."""

import os

import numpy as np
import pytest

import boweltrack.cli as cli
from boweltrack.errors import InvariantError
from boweltrack.pipeline import ARTIFACTS
from boweltrack.volume_io import Volume, load_polyline, load_volume, save_volume


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Phantom data, a config file, and one completed track run."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "phantom.spec"
    spec.write_text(
        "dims: 64 28 28\nspacing: 2 2 2\ninner_radius: 12\nbends: 0\n"
        "touch_pairs: 0\nseed: 3\n"
    )
    assert cli.main(["phantom", str(spec), str(root / "data"), "--quiet"]) == 0
    gt = load_polyline(str(root / "data" / "gt.poly"))
    p0, p1 = gt.points[0], gt.points[-1]
    config = root / "track.cfg"
    config.write_text(
        "intensity: data/intensity.vol\n"
        "segmentation: data/segmentation.vol\n"
        "gt_path: data/gt.poly\n"
        f"start: {p0[0]} {p0[1]} {p0[2]}\n"
        f"end: {p1[0]} {p1[1]} {p1[2]}\n"
        "output_dir: out\n"
    )
    assert cli.main(["track", str(config), "--quiet"]) == 0
    return {"root": root, "spec": spec, "config": config, "gt": gt,
            "out": root / "out", "data": root / "data"}


def artifact(workspace, key):
    return str(workspace["out"] / ARTIFACTS[key])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTrackCommand:
    def test_prints_route_path(self, workspace, capsys):
        assert cli.main(["track", str(workspace["config"]), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert artifact(workspace, "route") in out
        assert "%" in out          # metrics row shown when GT is configured

    def test_stage_log_on_stderr(self, workspace, capsys):
        assert cli.main(["track", str(workspace["config"])]) == 0
        err = capsys.readouterr().err
        for stage in ("ridge", "slic", "rag", "distance", "sample", "route"):
            assert f"[{stage}]" in err
        assert "[mask]" not in err

    def test_quiet_suppresses_log(self, workspace, capsys):
        assert cli.main(["track", str(workspace["config"]), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_output_dir_flag_overrides(self, workspace, tmp_path, capsys):
        out = tmp_path / "elsewhere"
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / ARTIFACTS["route"]).exists()
        assert read_bytes(out / ARTIFACTS["route"]) == read_bytes(
            artifact(workspace, "route")
        )


class TestBaselineCommand:
    def test_baseline_runs(self, workspace, capsys):
        assert cli.main(["baseline", str(workspace["config"]), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert artifact(workspace, "baseline_route") in out
        assert os.path.exists(artifact(workspace, "baseline_route"))


class TestEvalCommand:
    def test_pred_equals_gt_row(self, workspace, capsys):
        gt = str(workspace["data"] / "gt.poly")
        assert cli.main(["eval", gt, gt]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert "precision" in header and "curve-to-curve" in header
        # Table-shaped row: two percentages and two millimeter columns.
        assert row.count("%") == 2
        assert row.count("mm") == 2
        assert " 100.0 %" in row
        assert "0.00 mm" in row

    def test_zero_tolerance_kills_recall(self, workspace, capsys):
        assert cli.main(["eval", artifact(workspace, "route"),
                         str(workspace["data"] / "gt.poly"),
                         "--tolerance", "0"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        recall = float(row.split("%")[1].strip())
        assert recall < 5.0

    def test_report_file_written(self, workspace, tmp_path, capsys):
        gt = str(workspace["data"] / "gt.poly")
        out = tmp_path / "report.txt"
        assert cli.main(["eval", gt, gt, "--out", str(out)]) == 0
        capsys.readouterr()
        assert "recall_pct: 100" in out.read_text()


class TestPhantomCommand:
    def test_prints_three_paths(self, workspace, tmp_path, capsys):
        assert cli.main(["phantom", str(workspace["spec"]), str(tmp_path), "--quiet"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            assert os.path.exists(line)

    def test_bad_spec_exits_config(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("dims: 10 10 10\nwall_thickness: -1\n")
        assert cli.main(["phantom", str(spec), str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("intensity: nowhere.vol\n")
        assert cli.main(["track", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_value(self, workspace, capsys):
        # delta below theta_d violates the config invariant.
        assert cli.main(["track", str(workspace["config"]), "--delta", "5"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_missing_config_file_is_io(self, tmp_path, capsys):
        assert cli.main(["track", str(tmp_path / "absent.cfg")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_volume_is_io(self, workspace, tmp_path, capsys):
        junk = tmp_path / "junk.vol"
        junk.write_text("not a volume\n")
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--intensity", str(junk),
                         "--output-dir", str(tmp_path / "o")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_wrapping_label_is_io(self, workspace, tmp_path, capsys):
        wall = load_volume(artifact(workspace, "wall_map"))
        data = np.zeros(wall.dims, dtype=np.uint32)
        data[0, 0, 0] = 2**31 + 5       # negative after an int32 cast
        labels = tmp_path / "labels.vol"
        save_volume(Volume(data, wall.spacing, wall.origin), labels)
        assert cli.main(["rag", str(workspace["data"] / "segmentation.vol"),
                         artifact(workspace, "wall_map"), str(labels),
                         str(tmp_path / "rag.txt")]) == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0 0 0\n1 1 1\n1 1 1\n", "0 0 0\n1 nan 1\n"],
                             ids=["coincident-points", "nan-coordinate"])
    def test_invalid_polyline_is_io(self, workspace, tmp_path, capsys, text):
        bad = tmp_path / "bad.poly"
        bad.write_text(text)
        assert cli.main(["eval", str(bad), str(workspace["data"] / "gt.poly")]) == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "bad.poly" in err

    @pytest.mark.parametrize("spacing, voxel", [("0 1 1", 0.0), ("1 1 1", float("nan"))],
                             ids=["zero-spacing", "nan-voxel"])
    def test_invalid_volume_is_io(self, tmp_path, capsys, spacing, voxel):
        bad = tmp_path / "bad.vol"
        header = f"dims: 2 2 2\nspacing: {spacing}\norigin: 0 0 0\ndtype: f32\n\n"
        bad.write_bytes(header.encode("ascii") + np.full(8, voxel, "<f4").tobytes())
        assert cli.main(["ridge", str(bad), str(tmp_path / "wall.vol")]) == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "bad.vol" in err
        assert not (tmp_path / "wall.vol").exists()

    def test_pruned_start_is_infeasible(self, workspace, capsys):
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--start", "3", "3", "3"]) == 4
        assert "start node pruned" in capsys.readouterr().err

    def test_invariant_breach_exit(self, workspace, capsys, monkeypatch):
        def boom(config, log=None):
            raise InvariantError("forced")

        monkeypatch.setattr(cli, "run_track", boom)
        assert cli.main(["track", str(workspace["config"]), "--quiet"]) == 5
        assert "invariant breach" in capsys.readouterr().err

    def test_eval_missing_file_is_io(self, workspace, capsys):
        assert cli.main(["eval", "/nonexistent.poly",
                         str(workspace["data"] / "gt.poly")]) == 3

    def test_argparse_rejects_bad_usage(self, workspace):
        with pytest.raises(SystemExit):
            cli.main([])
        with pytest.raises(SystemExit):
            cli.main(["explode"])
        with pytest.raises(SystemExit):
            cli.main(["track", str(workspace["config"]), "--start", "1", "2"])


class TestHelpDefaults:
    def flat_help(self, argv):
        with pytest.raises(SystemExit):
            cli.main(argv)

    def test_track_help_marks_decisions(self, workspace, capsys):
        with pytest.raises(SystemExit):
            cli.main(["track", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        # Published hyperparameters carry bare defaults.
        for fragment in ("(default: 216)", "(default: 0.01)", "(default: 3)",
                         "(default: 6)", "(default: 50)", "(default: 10)"):
            assert fragment in text, fragment
        # Unpublished defaults are explicitly marked as decisions.
        for fragment in ("(default: 2 3; decision)", "(default: 0.2; decision)",
                         "(default: 0.5; decision)"):
            assert fragment in text, fragment

    def test_eval_help_marks_step_decision(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["eval", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: 10)" in text
        assert "(default: 1; decision)" in text


class TestStageCommands:
    def test_ridge_reproduces_pipeline_artifact(self, workspace, tmp_path, capsys):
        out = tmp_path / "wall.vol"
        assert cli.main(["ridge", str(workspace["data"] / "intensity.vol"),
                         str(out)]) == 0
        capsys.readouterr()
        assert read_bytes(out) == read_bytes(artifact(workspace, "wall_map"))
        wall = load_volume(str(out))
        assert wall.data.min() >= 0.0 and wall.data.max() <= 1.0

    def test_slic_reproduces_pipeline_artifact(self, workspace, tmp_path, capsys):
        out = tmp_path / "labels.vol"
        assert cli.main(["slic", artifact(workspace, "wall_map"), str(out)]) == 0
        capsys.readouterr()
        assert read_bytes(out) == read_bytes(artifact(workspace, "labels"))

    def test_slic_target_volume_changes_count(self, workspace, tmp_path, capsys):
        coarse = tmp_path / "coarse.vol"
        assert cli.main(["slic", artifact(workspace, "wall_map"), str(coarse),
                         "--target-volume", "1000"]) == 0
        printed = capsys.readouterr().out
        n_coarse = int(printed.split("(")[1].split()[0])
        fine_labels = load_volume(artifact(workspace, "labels"))
        n_fine = int(fine_labels.data.max()) + 1
        assert n_coarse < n_fine

    def test_rag_reproduces_pipeline_artifact(self, workspace, tmp_path, capsys):
        out = tmp_path / "masked.txt"
        assert cli.main(["rag", str(workspace["data"] / "segmentation.vol"),
                         artifact(workspace, "wall_map"),
                         artifact(workspace, "labels"), str(out)]) == 0
        capsys.readouterr()
        assert read_bytes(out) == read_bytes(artifact(workspace, "masked_rag"))

    def test_rag_without_segmentation_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "rag.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["rag", artifact(workspace, "wall_map"),
                      artifact(workspace, "labels"), str(out)])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_reproduces_pipeline_artifact(self, workspace, tmp_path, capsys):
        out = tmp_path / "mp.txt"
        dist_out = tmp_path / "dist.vol"
        assert cli.main(["sample", str(workspace["data"] / "segmentation.vol"),
                         artifact(workspace, "wall_map"),
                         artifact(workspace, "labels"),
                         artifact(workspace, "masked_rag"), str(out),
                         "--distance-out", str(dist_out)]) == 0
        capsys.readouterr()
        assert read_bytes(out) == read_bytes(artifact(workspace, "must_pass"))
        assert read_bytes(dist_out) == read_bytes(artifact(workspace, "distance"))

    @pytest.mark.parametrize("corrupt", ["duplicate-edge", "non-numeric", "undecodable-byte",
                                         "nan-centroid", "negative-count"])
    def test_sample_bad_masked_rag_exits_io(self, workspace, tmp_path, capsys, corrupt):
        with open(artifact(workspace, "masked_rag")) as fh:
            lines = fh.read().splitlines()
        node_id = lines[0].split()[1]
        tail = b""
        if corrupt == "duplicate-edge":
            lines.append(next(line for line in lines if line.startswith("edge")))
            message = "duplicate edge"
        elif corrupt == "non-numeric":
            lines[0] = "node x 1 0 0 1"
            message = "bad number"
        elif corrupt == "undecodable-byte":
            tail = b"\xff"
            message = "not a text graph file"
        elif corrupt == "nan-centroid":
            lines[0] = f"node {node_id} nan 0 0 1"
            message = "centroids must be finite"
        else:
            lines[0] = f"node {node_id} 1 0 0 -3"
            message = "at least one voxel"
        bad = tmp_path / "masked.txt"
        bad.write_bytes(("\n".join(lines) + "\n").encode("ascii") + tail)
        assert cli.main(["sample", str(workspace["data"] / "segmentation.vol"),
                         artifact(workspace, "wall_map"),
                         artifact(workspace, "labels"), str(bad),
                         str(tmp_path / "mp.txt")]) == cli.EXIT_IO
        assert message in capsys.readouterr().err
        assert not (tmp_path / "mp.txt").exists()


def regridded_segmentation(workspace, tmp_path, regrid):
    """The phantom segmentation re-saved at 3 mm spacing, or with its
    origin moved by +10 mm along x."""
    seg = load_volume(str(workspace["data"] / "segmentation.vol"))
    if regrid == "rescaled-spacing":
        seg = Volume(seg.data, np.full(3, 3.0), seg.origin)
    else:
        seg = Volume(seg.data, seg.spacing, seg.origin + [10.0, 0.0, 0.0])
    path = str(tmp_path / "seg.vol")
    save_volume(seg, path)
    return path


@pytest.mark.parametrize("regrid", ["rescaled-spacing", "shifted-origin"])
class TestGridMismatch:
    def test_sample_exits_config(self, workspace, tmp_path, capsys, regrid):
        seg = regridded_segmentation(workspace, tmp_path, regrid)
        assert cli.main(["sample", seg, artifact(workspace, "wall_map"),
                         artifact(workspace, "labels"),
                         artifact(workspace, "masked_rag"),
                         str(tmp_path / "mp.txt")]) == cli.EXIT_CONFIG
        assert "different grids" in capsys.readouterr().err
        assert not (tmp_path / "mp.txt").exists()

    def test_masked_rag_exits_config(self, workspace, tmp_path, capsys, regrid):
        seg = regridded_segmentation(workspace, tmp_path, regrid)
        assert cli.main(["rag", seg, artifact(workspace, "wall_map"),
                         artifact(workspace, "labels"),
                         str(tmp_path / "rag.txt")]) == cli.EXIT_CONFIG
        assert "different grids" in capsys.readouterr().err
        assert not (tmp_path / "rag.txt").exists()
