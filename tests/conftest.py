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
    import kslab.space

    monkeypatch.setattr(kslab.space, "FLAT_BUDGET", 50)


@pytest.fixture
def pass_radii(monkeypatch):
    """Record the radius of every ball pass, in call order.

    A lattice stencil sweep counts as one pass at its largest radius, like
    the ball-engine pass it stands in for.
    """
    import kslab.energy
    from kslab.space import MeasuredPointCloud

    radii = []
    real = MeasuredPointCloud.ball_chunks
    real_stencil = kslab.energy._stencil_table

    def recording(self, r, *args, **kwargs):
        radii.append(float(r))
        return real(self, r, *args, **kwargs)

    def recording_stencil(cloud, matrix, sweep, *args, **kwargs):
        radii.append(max(map(float, sweep)))
        return real_stencil(cloud, matrix, sweep, *args, **kwargs)

    monkeypatch.setattr(MeasuredPointCloud, "ball_chunks", recording)
    monkeypatch.setattr(kslab.energy, "_stencil_table", recording_stencil)
    return radii


@pytest.fixture
def built_trees(monkeypatch):
    """Record every KD-tree built from here on, in build order.

    kslab imports the tree class from scipy.spatial where it builds one, so
    the recording class stands in for it there.
    """
    import scipy.spatial

    built = []

    class RecordingTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
    return built
