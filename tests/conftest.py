import numpy as np
import pytest

from posterior_debias import resampling


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
