"""Range order of the thread pool helper."""

import pytest

from boweltrack import parallel


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_map_ranges_covers_in_order(monkeypatch, workers):
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    assert parallel.map_ranges(lambda lo, hi: (lo, hi), 10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert parallel.map_ranges(lambda lo, hi: (lo, hi), 0, 4) == []
