"""Fixtures shared by the scan tests."""

import warnings

import pytest

from nearmiss4 import search

# hypothesis's pytest plugin imports hypothesis.extra._patching when a
# property test fails, to print the failing example as a patch, and that
# import pulls in libcst, which warns "mypy_extensions.TypedDict is
# deprecated".  Under `pytest -W error` the warning ends the session with
# an INTERNALERROR, and no later test runs.  Imported once here with the
# warning silenced, the module is cached and the plugin's import warns no
# more; an ImportError leaves nothing to silence.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Lowers search.MIN_STRIPE_PAIRS to 1, so that a test's small scan
    still runs one stripe per worker (up to the CPUs and x values) instead
    of running in-process as too little work for a pool."""
    monkeypatch.setattr(search, "MIN_STRIPE_PAIRS", 1)
