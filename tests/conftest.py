import numpy as np
import pytest

from invdist.domains import Annulus, UnitDisc, ellipse_domain, lens_domain


@pytest.fixture(scope="session")
def ellipse():
    return ellipse_domain(2.0, 1.0)


@pytest.fixture(scope="session")
def lens():
    return lens_domain(0.75)


@pytest.fixture(scope="session")
def annulus2():
    return Annulus(2.0)


@pytest.fixture(scope="session")
def unit_disc():
    return UnitDisc()


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def integrate_metric(field, path, dpath, n_panels=16):
    """Integral of a metric field along a parametrized curve t in [0, 1],
    by 8-node Gauss panels: the length of an explicit path, an oracle for
    the distances and an upper bound on them."""
    total = 0.0
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x, wgt in zip(_GL_NODES, _GL_WEIGHTS):
            t = mid + half * x
            total += wgt * half * field(complex(path(t)), complex(dpath(t)))
    return total


def random_disc_point(rng, rmax=0.97):
    return complex(rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
