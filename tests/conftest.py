"""Shared test configuration.

Hypothesis runs derandomized, without deadlines and without an example
database, so the suite draws the same examples on every run.  Its other
cache, the constants it collects from the package source, goes to a
temporary directory removed at exit, so a run writes no .hypothesis/
directory into the checkout.

The fixture brute_nearest is the enumeration oracle of the nearest-point
tests.
"""

import itertools
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("overlatt", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("overlatt")

_hypothesis_home = tempfile.TemporaryDirectory(prefix="overlatt-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


def _brute_nearest(lat, points):
    """Squared distance to the lattice of each row of points.

    Enumerates rint(B^-1 p) + {-2..2}^n.  The window of +-2 suffices for
    every delta > 0: split the residual of the nearest point into a part
    along the all-ones vector and a part orthogonal to it.  The cell lies
    between the bisectors of +-delta*ones, so the all-ones part of the
    coefficient error is at most 1/2, and between the bisectors of
    e_i - e_j, so the orthogonal part is at most (n-1)/n per coordinate;
    with the rounding error of 1/2 each coordinate is off by less than 2.
    The window has 5^n vectors, so n is bounded to 6.
    """
    assert lat.n <= 6
    offsets = np.array(list(itertools.product(range(-2, 3), repeat=lat.n)),
                       dtype=float)
    points = np.asarray(points, dtype=float)
    base = np.rint(points @ lat.inverse_basis.T)
    resid = points - base @ lat.basis.T
    vecs = offsets @ lat.basis.T
    best = np.empty(len(points))
    step = max(1, (1 << 16) // len(offsets))
    for s in range(0, len(points), step):
        diff = resid[s:s + step, None, :] - vecs[None, :, :]
        best[s:s + step] = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
    return best


@pytest.fixture
def brute_nearest():
    """The test oracle for nearest-point decoding: _brute_nearest."""
    return _brute_nearest
