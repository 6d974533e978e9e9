"""Fixtures shared by the test modules."""

import pytest

from boweltrack import kernel


@pytest.fixture
def source_copy(monkeypatch, tmp_path):
    """The kernel's source copied to tmp_path, so it builds into
    tmp_path/__pycache__; the loaded kernel is forgotten before and after
    the test."""
    copy = tmp_path / kernel._SOURCE.name
    copy.write_bytes(kernel._SOURCE.read_bytes())
    monkeypatch.setattr(kernel, "_SOURCE", copy)
    kernel.load.cache_clear()
    yield copy
    kernel.load.cache_clear()
