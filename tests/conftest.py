"""Fixtures shared by the scan tests."""

import pytest

from nearmiss4 import search


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Lowers search.MIN_STRIPE_PAIRS to 1, so that a test's small scan
    still runs one stripe per worker (up to the CPUs and x values) instead
    of running in-process as too little work for a pool."""
    monkeypatch.setattr(search, "MIN_STRIPE_PAIRS", 1)
