import numpy as np
import pytest

from risthp.channel import ChannelRealization


def random_realization(rng, k=3, n_bs=4, n_ris=8, blocked=()):
    """Synthetic unit-scale realization; ``blocked`` rows get ~zero direct channel."""
    h_d = rng.standard_normal((k, n_bs)) + 1j * rng.standard_normal((k, n_bs))
    for u in blocked:
        h_d[u] *= 1e-8
    h_c = rng.standard_normal((k, n_ris)) + 1j * rng.standard_normal((k, n_ris))
    b = rng.standard_normal(n_bs) + 1j * rng.standard_normal(n_bs)
    b /= np.linalg.norm(b)
    return ChannelRealization(h_direct=h_d, h_cascaded=h_c, b_vec=b)


def edited(real, edit):
    """A realization of writable copies of ``real``'s three arrays, which ``edit`` changes first.

    ``edit(h_d, h_c, b)`` writes into the copies in place.
    """
    arrays = [np.array(a) for a in (real.h_direct, real.h_cascaded, real.b_vec)]
    edit(*arrays)
    return ChannelRealization(*arrays)


def random_unit_theta(rng, n_ris):
    return np.exp(2j * np.pi * rng.uniform(size=n_ris))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
