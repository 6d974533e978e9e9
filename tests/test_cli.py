"""Command-line interface: subcommands, exit codes, flag overrides, and
stage-level commands reproducing the pipeline's own artifacts."""

import collections
import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import boweltrack
import boweltrack.cli as cli
from boweltrack.config import FIELD_TYPES, TrackingConfig, load_tracking_config
from boweltrack.errors import InvariantError
from boweltrack.pipeline import ARTIFACTS, STAGES
from boweltrack.rag import load_rag
from boweltrack.sampling import load_must_pass, save_must_pass
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


    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_warnings_as_errors_on_two_cpus(self, workspace, tmp_path):
        # -X dev shows the warnings Python hides by default (an unclosed
        # resource's ResourceWarning; Python 3.12's DeprecationWarning at a
        # fork from a multi-threaded process) and -W error makes each one
        # fatal.  On 2 CPUs the SLIC assignment forks a worker per step.
        cpus = sorted(os.sched_getaffinity(0))
        src = os.path.dirname(os.path.dirname(boweltrack.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        names = [ARTIFACTS[key] for key in ("wall_map", "labels", "masked_rag",
                                            "distance", "must_pass", "route", "metrics")]
        blobs = []
        for count in (1, 2):
            out = tmp_path / f"cpus{count}"
            argv = ["track", str(workspace["config"]), "--quiet", "--output-dir", str(out)]
            code = (f"import os, sys; os.sched_setaffinity(0, {cpus[:count]}); "
                    f"from boweltrack.cli import main; sys.exit(main({argv!r}))")
            done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""
            blobs.append({name: read_bytes(out / name) for name in names})
        assert blobs[0] == blobs[1]


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

    def test_tracking_does_not_import_the_generator(self):
        # A fresh interpreter: this test process has imported the phantom.
        code = ("import sys, boweltrack.cli, boweltrack.pipeline; print(*sorted(m for m in "
                "('boweltrack.phantom', 'scipy.interpolate', 'scipy.optimize', "
                "'scipy.spatial') if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(boweltrack.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == ""


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

    def test_non_finite_start_exits_config_before_any_stage(self, workspace, tmp_path,
                                                             capsys):
        out = tmp_path / "o"
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--start", "nan", "24", "24", "--output-dir", str(out)]) == 2
        assert "start must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scales_exit_config_before_any_stage(self, workspace, tmp_path,
                                                            capsys, scale):
        out = tmp_path / "o"
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--scales", "2", scale, "--output-dir", str(out)]) == 2
        assert "scales must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("name", [name for name, kind in FIELD_TYPES.items()
                                      if kind is float])
    def test_non_finite_float_exits_config_before_any_stage(self, workspace, tmp_path,
                                                            capsys, name, value):
        out = tmp_path / "o"
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--" + name.replace("_", "-"), value, "--output-dir", str(out)]) == 2
        assert f"config error: {name} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_volume_is_named(self, workspace, tmp_path, capsys):
        wall = tmp_path / "short_wall.vol"
        wall.write_bytes(read_bytes(artifact(workspace, "wall_map"))[:-4])
        assert cli.main(["distance", str(workspace["data"] / "segmentation.vol"),
                         str(wall), str(tmp_path / "dist.vol")]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"{wall}: data length mismatch" in err
        assert "segmentation.vol" not in err

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

    @pytest.mark.parametrize("where", ["past-last-node", "negative"])
    def test_stale_cached_must_pass_is_io(self, workspace, tmp_path, capsys, where):
        out = tmp_path / "o"
        shutil.copytree(workspace["out"], out)
        path = str(out / ARTIFACTS["must_pass"])
        n_nodes = load_rag(artifact(workspace, "masked_rag")).n_nodes
        must_pass = load_must_pass(path)
        node = n_nodes if where == "past-last-node" else -1
        must_pass.node_ids[0] = node
        save_must_pass(must_pass, path)
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--output-dir", str(out)]) == 3
        assert (f"i/o error: stage sample: {path}: peak node {node} is outside the "
                f"masked graph's {n_nodes} nodes") in capsys.readouterr().err

    def test_eval_non_ascii_polyline_is_io(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.poly"
        bad.write_bytes(b"0 0 0\n1 1 1\n\xff\n")
        assert cli.main(["eval", str(bad), str(workspace["data"] / "gt.poly")]) == 3
        assert f"i/o error: {bad}: not a text polyline file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "phantom"])
    def test_non_utf8_config_is_named(self, workspace, tmp_path, capsys, command):
        source = workspace["config" if command == "track" else "spec"]
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(read_bytes(source) + b"# \xff\n")
        out = tmp_path / "o"
        args = [str(bad), "--output-dir", str(out)] if command == "track" else [str(bad), str(out)]
        assert cli.main([command, *args, "--quiet"]) == 2
        assert f"config error: {bad}: not a UTF-8 text file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "slic"])
    def test_infinite_compactness_exits_config(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "o"
        if command == "track":
            args = [str(workspace["config"]), "--quiet", "--output-dir", str(out)]
        else:
            args = [artifact(workspace, "wall_map"), str(out)]
        assert cli.main([command, *args, "--compactness", "inf"]) == 2
        assert "compactness must be" in capsys.readouterr().err
        assert not out.exists()

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


TUNABLES = [f for f in dataclasses.fields(TrackingConfig)
            if f.default not in (dataclasses.MISSING, None)]
DECISIONS = {"scales", "wall_threshold", "min_inside_fraction"}
# Subcommands other than track and baseline that take a tunable, with their
# positional arguments.
STAGE_ARGS = {stage.name: [*stage.inputs, "out"] for stage in STAGES}
STAGE_ARGS["eval"] = ["pred.poly", "gt.poly"]
STAGE_FLAGS = {f.name: [stage.name for stage in STAGES if f.name in stage.params]
               for f in TUNABLES}
STAGE_FLAGS["tolerance"] = ["eval"]


def test_each_tunable_read_by_one_stage():
    # delta is read by the route, which is not a table stage, and
    # tolerance by eval.
    readers = collections.Counter(name for stage in STAGES for name in stage.params)
    assert readers == {f.name: 1 for f in TUNABLES if f.name not in ("delta", "tolerance")}


def flag_of(field):
    return "--" + field.name.replace("_", "-")


def scaled(field, factor):
    """The field's default times `factor`, as flag tokens."""
    values = field.default if isinstance(field.default, tuple) else (field.default,)
    return ["%.17g" % (v * factor) for v in values]


@pytest.mark.parametrize("field", TUNABLES, ids=lambda f: f.name)
class TestTunablesFollowTheConfig:
    def test_help_shows_field_default(self, field, capsys):
        values = field.default if isinstance(field.default, tuple) else (field.default,)
        shown = " ".join("%g" % v for v in values)
        suffix = "; decision" if field.name in DECISIONS else ""
        for command in ("track", "baseline"):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            options = " ".join(capsys.readouterr().out.split("options:")[1].split())
            own = options.split(f"{flag_of(field)} ")[1].split(" --")[0]
            assert own.endswith(f"(default: {shown}{suffix})"), (command, own)

    def test_flag_overrides_config_file(self, field, tmp_path):
        for name in ("ct.vol", "seg.vol"):
            (tmp_path / name).write_bytes(b"x")
        config = tmp_path / "track.cfg"
        config.write_text(
            "intensity: ct.vol\nsegmentation: seg.vol\nstart: 0 0 0\nend: 1 1 1\n"
            f"output_dir: out\n{field.name}: {' '.join(scaled(field, 0.8))}\n"
        )
        args = cli.build_parser().parse_args(
            ["track", str(config), flag_of(field), *scaled(field, 0.9)])
        loaded = load_tracking_config(str(config), cli._config_overrides(args))
        want = [float(v) for v in scaled(field, 0.9)]
        got = getattr(loaded, field.name)
        assert list(got if isinstance(got, tuple) else [got]) == want

    def test_stage_default_is_field_default(self, field):
        assert STAGE_FLAGS[field.name] is not None
        for command in STAGE_FLAGS[field.name]:
            args = cli.build_parser().parse_args([command, *STAGE_ARGS[command]])
            assert getattr(args, field.name) == field.default, command


def out_of_range(name):
    """Values that break tunable `name`'s rule, as flag tokens: not finite,
    zero where a positive value is needed, negative, above one for the
    fraction."""
    values = ["inf", "nan", "-1"]
    if name != "tolerance":
        values.append("0")
    if name == "min_inside_fraction":
        values.append("1.5")
    return values


@pytest.mark.parametrize("command, name, value", [
    (command, name, value) for name, commands in STAGE_FLAGS.items()
    for command in commands for value in out_of_range(name)])
def test_stage_flag_rule_matches_track(workspace, tmp_path, capsys, command, name, value):
    # The inputs do not exist: exit 2 rather than 3 shows that the rule runs
    # before any read.
    flag = "--" + name.replace("_", "-")
    out = tmp_path / "out"
    args = [str(tmp_path / key) for key in STAGE_ARGS[command]]     # a stage's ends in out
    if command == "eval":
        args += ["--out", str(out)]
    assert cli.main([command, *args, flag, value]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be ")
    assert not out.exists()
    assert cli.main(["track", str(workspace["config"]), "--quiet", flag, value,
                     "--output-dir", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == err


class TestStageCommands:
    @pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.name)
    def test_writes_pipeline_bytes(self, workspace, tmp_path, capsys, stage):
        inputs = [str(workspace["data"] / ARTIFACTS[f"phantom_{key}"])
                  if key in ("intensity", "segmentation") else artifact(workspace, key)
                  for key in stage.inputs]
        out = tmp_path / ARTIFACTS[stage.key]
        assert cli.main([stage.name, *inputs, str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert read_bytes(out) == read_bytes(artifact(workspace, stage.key))

    def test_slic_target_volume_changes_count(self, workspace, tmp_path, capsys):
        coarse = tmp_path / "coarse.vol"
        assert cli.main(["slic", artifact(workspace, "wall_map"), str(coarse),
                         "--target-volume", "1000"]) == 0
        assert capsys.readouterr().out == f"{coarse}\n"
        n_coarse = int(load_volume(str(coarse)).data.max()) + 1
        fine_labels = load_volume(artifact(workspace, "labels"))
        n_fine = int(fine_labels.data.max()) + 1
        assert n_coarse < n_fine

    def test_rag_without_segmentation_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "rag.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["rag", artifact(workspace, "wall_map"),
                      artifact(workspace, "labels"), str(out)])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        assert not out.exists()

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
        assert cli.main(["sample", artifact(workspace, "distance"),
                         artifact(workspace, "labels"), str(bad),
                         str(tmp_path / "mp.txt")]) == cli.EXIT_IO
        assert message in capsys.readouterr().err
        assert not (tmp_path / "mp.txt").exists()


def regridded(path, tmp_path, regrid):
    """The volume at `path` re-saved at 3 mm spacing, or with its origin
    moved by +10 mm along x."""
    vol = load_volume(path)
    if regrid == "rescaled-spacing":
        vol = Volume(vol.data, np.full(3, 3.0), vol.origin)
    else:
        vol = Volume(vol.data, vol.spacing, vol.origin + [10.0, 0.0, 0.0])
    out = str(tmp_path / os.path.basename(path))
    save_volume(vol, out)
    return out


@pytest.mark.parametrize("regrid", ["rescaled-spacing", "shifted-origin"])
class TestGridMismatch:
    def test_distance_exits_config(self, workspace, tmp_path, capsys, regrid):
        seg = regridded(str(workspace["data"] / "segmentation.vol"), tmp_path, regrid)
        assert cli.main(["distance", seg, artifact(workspace, "wall_map"),
                         str(tmp_path / "dist.vol")]) == cli.EXIT_CONFIG
        assert "different grids" in capsys.readouterr().err
        assert not (tmp_path / "dist.vol").exists()

    def test_sample_exits_config(self, workspace, tmp_path, capsys, regrid):
        dist = regridded(artifact(workspace, "distance"), tmp_path, regrid)
        assert cli.main(["sample", dist, artifact(workspace, "labels"),
                         artifact(workspace, "masked_rag"),
                         str(tmp_path / "mp.txt")]) == cli.EXIT_CONFIG
        assert "different grids" in capsys.readouterr().err
        assert not (tmp_path / "mp.txt").exists()

    def test_masked_rag_exits_config(self, workspace, tmp_path, capsys, regrid):
        seg = regridded(str(workspace["data"] / "segmentation.vol"), tmp_path, regrid)
        assert cli.main(["rag", seg, artifact(workspace, "wall_map"),
                         artifact(workspace, "labels"),
                         str(tmp_path / "rag.txt")]) == cli.EXIT_CONFIG
        assert "different grids" in capsys.readouterr().err
        assert not (tmp_path / "rag.txt").exists()


class TestFloatSegmentation:
    """Every command that reads the segmentation rejects a float-coded one,
    with one message, before writing anything."""

    MESSAGE = "config error: segmentation must be integer-coded, got float32\n"

    @pytest.fixture
    def float_seg(self, workspace, tmp_path):
        seg = load_volume(str(workspace["data"] / "segmentation.vol"))
        path = str(tmp_path / "seg_float.vol")
        save_volume(seg.like(seg.data.astype(np.float32)), path)
        return path

    @pytest.mark.parametrize("name", ["rag", "distance"])
    def test_stage_exits_config(self, workspace, tmp_path, capsys, float_seg, name):
        stage = next(stage for stage in STAGES if stage.name == name)
        inputs = [float_seg if key == "segmentation" else artifact(workspace, key)
                  for key in stage.inputs]
        out = tmp_path / ARTIFACTS[stage.key]
        assert cli.main([name, *inputs, str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()

    def test_track_message_unchanged(self, workspace, tmp_path, capsys, float_seg):
        out = tmp_path / "o"
        assert cli.main(["track", str(workspace["config"]), "--quiet",
                         "--segmentation", float_seg,
                         "--output-dir", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == self.MESSAGE
        assert not (out / ARTIFACTS["wall_map"]).exists()
