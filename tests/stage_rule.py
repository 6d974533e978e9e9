"""A stage's parameter rule, as the stage subcommands apply it."""

import pytest

from boweltrack.errors import ConfigError
from boweltrack.pipeline import STAGES, run_stage


def stage_rejects(name, params, tmp_path) -> str:
    """The ConfigError message of stage `name` run on `params` through
    `pipeline.run_stage`.  Its input files do not exist, so the error shows
    that the rule runs before any read; the output must stay unwritten."""
    stage = next(stage for stage in STAGES if stage.name == name)
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as exc:
        run_stage(stage, [str(tmp_path / key) for key in stage.inputs], params, str(out))
    assert not out.exists()
    return str(exc.value)
