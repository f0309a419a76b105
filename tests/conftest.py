import numpy as np
import pytest

from qldp import AffineChannel, bloch, image_radius


def random_qubit_channel(rng, fill=None):
    """Random valid qubit channel: Gaussian (A, c) rescaled so the image
    sits inside the Bloch ball at a random fill factor."""
    A = 0.4 * rng.standard_normal((3, 3))
    c = 0.2 * rng.standard_normal(3)
    r = image_radius(AffineChannel(2, A, c))
    s = (fill if fill is not None else rng.uniform(0.2, 1.0)) / max(r, 1e-12)
    return AffineChannel(2, s * A, s * c)


def random_mixed_bloch_vector(d, rng):
    """Random mixed qudit state with a generic spectrum: d Haar pure states
    mixed with Dirichlet weights. At d = 2 the radius is random too."""
    p = rng.dirichlet(np.ones(d))
    return p @ bloch.random_bloch_vector(d, rng, size=d)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
