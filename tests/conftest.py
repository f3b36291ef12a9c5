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


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Make every ball pass run in blocks of at most 50 candidate members."""
    from kslab.space import MeasuredPointCloud

    real = MeasuredPointCloud._ball_pass

    def small_blocks(self, r, centers, flat_budget=None):
        return real(self, r, centers, 50)

    monkeypatch.setattr(MeasuredPointCloud, "_ball_pass", small_blocks)


@pytest.fixture
def pass_radii(monkeypatch):
    """Record the radius of every ball pass, in call order."""
    from kslab.space import MeasuredPointCloud

    radii = []
    real = MeasuredPointCloud._ball_pass

    def recording(self, r, *args, **kwargs):
        radii.append(float(r))
        return real(self, r, *args, **kwargs)

    monkeypatch.setattr(MeasuredPointCloud, "_ball_pass", recording)
    return radii
