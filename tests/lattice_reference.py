"""The simplex lattice and seeded Dirichlet starts that the homogeneous
search and the copositivity search ran from before the Bernstein
subdivision chose their starts, kept as the reference the tests compare the
subdivision's starts against."""

import itertools

import numpy as np

from tcplab.model import enumerate_faces
from tcplab.subdivision import _R0Certificate

RANDOM_STARTS = 16


def simplex_starts(k: int, resolution: int = 6) -> np.ndarray:
    """Lattice of the probability simplex: compositions of resolution into k,
    the gaps between the k - 1 bars of each stars-and-bars arrangement."""
    bars = list(itertools.combinations(range(resolution + k - 1), k - 1))
    edges = np.pad(np.array(bars, dtype=int).reshape(len(bars), k - 1), ((0, 0), (1, 1)),
                   constant_values=(-1, resolution + k - 1))
    return (np.diff(edges, axis=1) - 1) / resolution


def lattice_certificate(A, tol: float) -> _R0Certificate:
    """An undecided R0 certificate of A whose starts are the lattice search's:
    on every face but {0}, the lattice of resolution 6, the centroid and
    RANDOM_STARTS Dirichlet draws seeded by (0, face, 1).  Put in place of
    solver._r0_certificate, it makes homogeneous_solve the lattice search."""
    starts = {}
    for face in enumerate_faces(A.dim)[:-1]:
        k = A.dim - len(face.zero_indices)
        rng = np.random.default_rng([0, face.mask, 1])
        starts[face.mask] = np.vstack([simplex_starts(k), np.full((1, k), 1.0 / k),
                                       rng.dirichlet(np.ones(k), RANDOM_STARTS)])
    return _R0Certificate(False, 0, None, starts)
