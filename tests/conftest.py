"""Fixtures shared by the test modules."""

import pytest
import scipy.linalg


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Record the order of every matrix handed to scipy.linalg.eigh."""
    sizes = []
    real_eigh = scipy.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    return sizes
