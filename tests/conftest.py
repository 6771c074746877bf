import numpy as np
import pytest

from posterior_debias import _workspace, operators, resampling


@pytest.fixture
def corrupt_k2_weights(monkeypatch):
    """Negative control for the mean identity: chains are combined with k = 2
    weights that do not sum to 1, while the exact operator side keeps the
    true ones."""
    true_weights = resampling.debias_weights
    monkeypatch.setattr(
        resampling,
        "debias_weights",
        lambda k: np.array([2.0, -1.01]) if k == 2 else true_weights(k),
    )


@pytest.fixture
def exact_builds(monkeypatch):
    """Counts of the transfer matrices and lattices built from here on, by
    any route, starting from empty exact-path caches."""
    counts = {"matrices": 0, "lattices": 0}
    check_matrix = operators.TransferMatrix.__post_init__
    enumerate_lattice = operators.enumerate_lattice

    def matrix_built(self):
        counts["matrices"] += 1
        check_matrix(self)

    def lattice_built(n, m):
        counts["lattices"] += 1
        return enumerate_lattice(n, m)

    monkeypatch.setattr(operators.TransferMatrix, "__post_init__", matrix_built)
    monkeypatch.setattr(operators, "enumerate_lattice", lattice_built)
    operators._lattice_slot.cache_clear()
    operators._matrix_slot.clear()
    return counts


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty private work-buffer pool for this test, so what earlier
    tests released does not decide which buffer a checkout returns."""
    monkeypatch.setattr(_workspace, "_free", [])
