"""Tracking config: parsing, defaults, overrides, and validation errors."""

import os

import pytest

from boweltrack.config import (
    DEFAULTS,
    TUNABLES,
    TrackingConfig,
    check_tunable,
    load_tracking_config,
)
from boweltrack.errors import ConfigError


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "ct.vol").write_bytes(b"x")
    (tmp_path / "seg.vol").write_bytes(b"x")
    (tmp_path / "gt.poly").write_bytes(b"x")
    return tmp_path


def write_config(tmp_path, extra="", drop=()):
    lines = {
        "intensity": "intensity: ct.vol",
        "segmentation": "segmentation: seg.vol",
        "start": "start: 10 20 30",
        "end": "end: 110 20 30",
        "output_dir": "output_dir: out",
    }
    for key in drop:
        del lines[key]
    text = "\n".join(lines.values()) + "\n" + extra
    path = tmp_path / "track.cfg"
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_config_defaults(self, workspace):
        cfg = load_tracking_config(write_config(workspace))
        assert cfg.intensity_path == str(workspace / "ct.vol")
        assert cfg.segmentation_path == str(workspace / "seg.vol")
        assert cfg.gt_path is None
        assert cfg.start == (10.0, 20.0, 30.0)
        assert cfg.end == (110.0, 20.0, 30.0)
        assert cfg.output_dir == str(workspace / "out")
        assert cfg.scales == (2.0, 3.0)
        assert cfg.target_volume == 216.0
        assert cfg.compactness == 0.01
        assert cfg.theta_v == 3.0
        assert cfg.theta_d == 6.0
        assert cfg.delta == 50.0
        assert cfg.tolerance == 10.0
        assert cfg.wall_threshold == 0.2
        assert cfg.min_inside_fraction == 0.5

    def test_all_keys_parsed(self, workspace):
        path = write_config(
            workspace,
            extra=(
                "gt_path: gt.poly\n"
                "scales: 1.5 2.5 4\n"
                "target_volume: 125\n"
                "compactness: 0.05\n"
                "theta_v: 2\n"
                "theta_d: 8\n"
                "delta: 40\n"
                "tolerance: 5\n"
                "wall_threshold: 0.3\n"
                "min_inside_fraction: 0.6\n"
            ),
        )
        cfg = load_tracking_config(path)
        assert cfg.gt_path == str(workspace / "gt.poly")
        assert cfg.scales == (1.5, 2.5, 4.0)
        assert cfg.target_volume == 125.0
        assert cfg.compactness == 0.05
        assert (cfg.theta_v, cfg.theta_d, cfg.delta) == (2.0, 8.0, 40.0)
        assert cfg.tolerance == 5.0
        assert cfg.wall_threshold == 0.3
        assert cfg.min_inside_fraction == 0.6

    def test_absolute_paths_kept(self, workspace):
        abs_ct = str(workspace / "ct.vol")
        path = write_config(workspace, drop=("intensity",),
                            extra=f"intensity: {abs_ct}\n")
        cfg = load_tracking_config(path)
        assert cfg.intensity_path == abs_ct

    def test_comments_and_blank_lines_ignored(self, workspace):
        path = write_config(workspace, extra="# trailing comment\n\ntheta_v: 4  # inline\n")
        assert load_tracking_config(path).theta_v == 4.0

    def test_overrides_win(self, workspace):
        path = write_config(workspace, extra="delta: 40\ntheta_v: 2\n")
        cfg = load_tracking_config(path, {"delta": "60", "theta_v": "4"})
        assert cfg.delta == 60.0
        assert cfg.theta_v == 4.0

    def test_none_overrides_skipped(self, workspace):
        cfg = load_tracking_config(write_config(workspace), {"delta": None})
        assert cfg.delta == 50.0


class TestErrors:
    @pytest.mark.parametrize("key", ["intensity", "segmentation", "start", "end", "output_dir"])
    def test_missing_required_key(self, workspace, key):
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            load_tracking_config(write_config(workspace, drop=(key,)))

    def test_unknown_key(self, workspace):
        with pytest.raises(ConfigError, match="unknown key"):
            load_tracking_config(write_config(workspace, extra="sigma: 3\n"))

    def test_duplicate_key(self, workspace):
        with pytest.raises(ConfigError, match="duplicate"):
            load_tracking_config(write_config(workspace, extra="start: 1 2 3\n"))

    @pytest.mark.parametrize("extra", [
        "target_volume: 0\n",
        "compactness: -1\n",
        "compactness: 0\n",
        "theta_v: 0\n",
        "theta_d: -2\n",
        "theta_d: -1\n",
        "delta: 0\n",
        "tolerance: -1\n",
        "wall_threshold: 0\n",
    ])
    def test_nonpositive_thresholds(self, workspace, extra):
        with pytest.raises(ConfigError, match="must be (positive|non-negative)"):
            load_tracking_config(write_config(workspace, extra=extra))

    def test_zero_tolerance_accepted(self, workspace):
        cfg = load_tracking_config(write_config(workspace, extra="tolerance: 0\n"))
        assert cfg.tolerance == 0.0

    def test_infinite_compactness_rejected(self, workspace):
        with pytest.raises(ConfigError, match="compactness must be finite, got inf"):
            load_tracking_config(write_config(workspace, extra="compactness: inf\n"))

    def test_non_utf8_config_names_the_file(self, workspace):
        path = write_config(workspace)
        with open(path, "ab") as fh:
            fh.write(b"# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"track\.cfg: not a UTF-8 text file"):
            load_tracking_config(path)

    def test_delta_must_exceed_theta_d(self, workspace):
        with pytest.raises(ConfigError, match="delta"):
            load_tracking_config(write_config(workspace, extra="delta: 6\ntheta_d: 6\n"))

    @pytest.mark.parametrize("value", ["0", "1.5", "-0.2", "-0.5", "nan"])
    def test_min_inside_fraction_range(self, workspace, value):
        with pytest.raises(ConfigError, match="min_inside_fraction"):
            load_tracking_config(
                write_config(workspace, extra=f"min_inside_fraction: {value}\n")
            )

    def test_bad_scales(self, workspace):
        with pytest.raises(ConfigError, match="scales"):
            load_tracking_config(write_config(workspace, extra="scales: 2 abc\n"))
        with pytest.raises(ConfigError, match="scales"):
            load_tracking_config(write_config(workspace, extra="scales: 2 -3\n"))
        for value in ("2 nan", "2 inf", "0", ""):
            with pytest.raises(ConfigError, match="scales must be positive and finite"):
                load_tracking_config(write_config(workspace, extra=f"scales: {value}\n"))

    def test_bad_coordinate_count(self, workspace):
        with pytest.raises(ConfigError, match="start"):
            load_tracking_config(write_config(workspace, drop=("start",),
                                              extra="start: 1 2\n"))

    @pytest.mark.parametrize("key", ["start", "end"])
    @pytest.mark.parametrize("value", ["nan 24 24", "24 inf 24"])
    def test_non_finite_coordinate(self, workspace, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_tracking_config(write_config(workspace, drop=(key,),
                                              extra=f"{key}: {value}\n"))

    def test_missing_intensity_file(self, workspace):
        os.remove(workspace / "ct.vol")
        with pytest.raises(ConfigError, match="intensity volume not found"):
            load_tracking_config(write_config(workspace))

    def test_missing_gt_file(self, workspace):
        with pytest.raises(ConfigError, match="gt polyline not found"):
            load_tracking_config(write_config(workspace, extra="gt_path: nope.poly\n"))

    def test_direct_construction_validates(self, workspace):
        with pytest.raises(ConfigError, match="delta"):
            TrackingConfig(
                intensity_path=str(workspace / "ct.vol"),
                segmentation_path=str(workspace / "seg.vol"),
                start=(0.0, 0.0, 0.0),
                end=(1.0, 1.0, 1.0),
                output_dir=str(workspace / "out"),
                delta=5.0,
            )


@pytest.mark.parametrize("name", TUNABLES)
def test_tunable_default_passes_and_nan_names_the_field(name):
    # check_tunable is the rule that the config, the stage subcommands and
    # eval all apply.
    check_tunable(name, DEFAULTS[name])
    nan = (float("nan"),) if name == "scales" else float("nan")
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        check_tunable(name, nan)
