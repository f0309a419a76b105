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


def stratified_channels(n, seed):
    """Qubit channels with c != 0 as the request benchmark writes them: top
    singular value of A in [0.3, 0.8], the second one a ratio spread over
    [0.05, 0.95] times it, and ||A|| + ||c|| <= 0.9."""
    rng = np.random.default_rng(seed)
    out = []
    for ratio in 0.05 + 0.9 * (np.arange(n) + 0.5) / n:
        top = rng.uniform(0.3, 0.8)
        sv = np.array([top, ratio * top, rng.uniform(0.0, ratio * top)])
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        c = rng.standard_normal(3)
        c *= rng.uniform(0.02, 0.9 - top) / np.linalg.norm(c)
        out.append(AffineChannel(2, U @ np.diag(sv) @ V.T, c))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
