"""Shared fixtures for the muonlab test suite."""

# muonlab first: importing it pins OpenBLAS to one thread only if numpy is
# not loaded yet, and in-process results must be the bytes of the CLI's.
import muonlab  # noqa: F401
import numpy as np
import pytest

from muonlab.linalg import Matrix, Rng


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def make_matrix():
    """Factory for seeded standard-normal Matrix values."""

    def _make(rows, cols, seed=0, scale=1.0):
        return Matrix(Rng(seed).normal((rows, cols), scale=scale))

    return _make


def assert_close(actual, expected, rtol=1e-12, atol=0.0):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)
