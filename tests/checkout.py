"""The environment a child process needs to import this checkout's package."""

import os

import boweltrack


def source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(boweltrack.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
