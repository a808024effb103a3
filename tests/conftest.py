"""Fixtures shared by the whole suite."""

import pytest

import blockspec.matrixpoly

# `pytester`, for the test that runs pytest under the project's warning filters
pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True)
def empty_roots_memo():
    """Every test starts, as a fresh process does, with no roots spectrum
    kept by `matrixpoly.roots_of`: a test that counts solves, or breaks a
    LAPACK call to see a solve fail, then sees the solve whatever ran
    before it."""
    blockspec.matrixpoly.roots_of.cache_clear()
