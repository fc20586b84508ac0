"""Bernstein subdivision of the simplex faces: the coefficient kernels, the
branch and bound loop and the judges that run on it.

On a simplex with vertex matrix V (n, k), x = V lam with lam >= 0 and
sum(lam) = 1, every row of A x^{m-1}, and the form A x^m, is a form in lam
whose values on the simplex are convex combinations of its Bernstein
coefficients (_bernstein, _form_bernstein).  _subdivide starts from the face
simplices of the orthant (_face_pieces), asks a judge which pieces survive
and cuts the survivors at their longest edge (_bisect), round after round.
Three entry points run it, one judge each (Mourrain & Pavone, J. Symbolic
Comput. 44, 2009; Bundfuss & Duer, Linear Algebra Appl. 428, 2008):

- _r0_certificate proves Sol(A, 0) = {0} when every piece is excluded by the
  R0 rule (_r0_judge), with rounding-safe sign tests;
- _leaf_starts gives the Newton starts of a solve's point faces, the leaf
  centroids of the same rule on the augmented tensor of (A, a);
- _copositive_leaves retires the pieces whose form coefficients all lie
  above the least form value seen, and hands on the rest as KKT starts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import TcpInstance, enumerate_faces, max_residual
from .tensors import Tensor

# every subdivision stops after judging this many sub-simplices
PIECE_BUDGET = 4096
# the R0 subdivision gives up when a surviving piece's longest edge
# (inf-norm, on the simplex) falls below R0_MIN_EDGE or a vertex piece
# survives
R0_MIN_EDGE = 2.0 ** -12
# the point faces' starts and the copositivity search cut until every
# surviving piece's longest edge is below LEAF_EDGE
LEAF_EDGE = 2.0 ** -3
# entries of the Bernstein kernel's largest temporaries per chunk of pieces
_PIECE_CHUNK = 1 << 21


# ---------------------------------------------------------------------------
# Bernstein coefficients


@functools.lru_cache(maxsize=None)
def _multisets(k: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multi-indices of {0..k-1}^d, in C order, grouped by multiset.

    Returns (order, starts, counts): order lists the positions group by
    group, starts[g] is where group g begins in order and counts[g] its
    size; groups are ranked by their sorted multi-index.
    """
    idx = np.indices((k,) * d).reshape(d, -1)
    key = np.ravel_multi_index(np.sort(idx, axis=0), (k,) * d)
    order = np.argsort(key, kind="stable")
    _, starts, counts = np.unique(key[order], return_index=True, return_counts=True)
    return order, starts, counts


def _bernstein(arr: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of x -> arr x^{m-1} on a stack of simplices.

    V (P, n, k) holds the k vertices of simplex p in the columns of V[p].
    On x = V[p] lam with lam >= 0 and sum(lam) = 1, row i of arr x^{m-1} is
    a form of degree d = m - 1 in lam whose Bernstein coefficients are the
    entries of arr contracted with V[p] in slots 2..m and symmetrised over
    those slots, one per multiset of d vertex indices; its values on the
    simplex are convex combinations of them.  arr may hold any number R of
    rows, shape (R,) + (n,) * d.  Returns (P, R, G), the groups ranked as in
    _multisets(k, d).  More pieces than fit in temporaries of _PIECE_CHUNK
    entries run in chunks; each piece's coefficients do not depend on the
    others.

    Each slot's contraction is a stack of dot products of n terms and each
    symmetrised coefficient is a sum of counts[g] entries then divided by
    counts[g], so for V >= 0 the computed coefficient is within
    gamma_K times the same computation on |arr| of the exact one, K =
    d * n + max(counts) (gamma_K = K u / (1 - K u), u the unit roundoff),
    up to underflow.
    """
    P, n, k = V.shape
    d = arr.ndim - 1
    size = max(1, _PIECE_CHUNK // (n ** d * k + n * k ** d))
    if P > size:
        return np.concatenate([_bernstein(arr, V[lo:lo + size]) for lo in range(0, P, size)])
    Vt = np.swapaxes(V, 1, 2)[:, None]  # (P, 1, k, n)
    T = arr.reshape(1, -1, n, 1)
    for s in range(d):
        # T (P, L, n, Q): slot m - s next to the k^s contracted indices
        T = np.matmul(Vt, T)
        T = T.reshape(P, -1, n, k ** (s + 1)) if s < d - 1 else T.reshape(P, arr.shape[0], k ** d)
    order, starts, counts = _multisets(k, d)
    return np.add.reduceat(T[:, :, order], starts, axis=2) / counts


@functools.lru_cache(maxsize=None)
def _degree_raise(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For each multiset alpha of m indices from {0..k-1} and each j, the
    group of alpha - e_j among the multisets of m - 1 indices and the weight
    alpha_j / m (0 where alpha_j = 0), both shape (k, G), groups ranked as in
    _multisets."""
    lower = {ms: g for g, ms in enumerate(itertools.combinations_with_replacement(range(k), m - 1))}
    alphas = list(itertools.combinations_with_replacement(range(k), m))
    index = np.zeros((k, len(alphas)), dtype=int)
    weight = np.zeros((k, len(alphas)))
    for g, alpha in enumerate(alphas):
        for j in set(alpha):
            rest = list(alpha)
            rest.remove(j)
            index[j, g], weight[j, g] = lower[tuple(rest)], alpha.count(j) / m
    return index, weight


def _form_bernstein(arr: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the form x -> arr x^m on a stack of simplices.

    On x = V[p] lam the form is sum_j lam_j (V[p]^T c)_j with c the
    coefficients of arr x^{m-1} (_bernstein), and lam_j times the degree
    m - 1 basis polynomial of beta is alpha_j / m times the degree m one of
    alpha = beta + e_j: the coefficient of alpha is
    sum_j (alpha_j / m) (V[p]^T c)_{j, alpha - e_j}.
    The coefficient of alpha = m e_j is the form at vertex j, and the form on
    the simplex lies between the least and the largest coefficient.  Returns
    (P, G), the groups ranked as in _multisets(k, m).
    """
    k = V.shape[2]
    W = np.matmul(np.swapaxes(V, 1, 2), _bernstein(arr, V))
    index, weight = _degree_raise(k, arr.ndim)
    return np.sum(weight * W[:, np.arange(k)[:, None], index], axis=1)


# ---------------------------------------------------------------------------
# the branch and bound loop


def _bisect(V: np.ndarray):
    """The two halves of each simplex V (P, n, k) cut at the midpoint of its
    longest edge (the first in pair order on ties), its longest edge, and
    whether every midpoint is exact."""
    P, _, k = V.shape
    # the pairs of np.triu_indices(k, 1) at a sixth of its cost, which
    # shows in a solve: _bisect runs once per round and face size
    a, b = np.array(list(itertools.combinations(range(k), 2))).T
    edges = np.max(np.abs(V[:, :, a] - V[:, :, b]), axis=1)
    e = np.argmax(edges, axis=1)
    rows = np.arange(P)
    va, vb = V[rows, :, a[e]], V[rows, :, b[e]]
    # TwoSum: s is va + vb exactly when its error term vanishes
    s = va + vb
    bv = s - va
    mid = 0.5 * s
    exact = bool(np.all((va - (s - bv)) + (vb - bv) == 0.0) and np.all(2.0 * mid == s))
    lo, hi = V.copy(), V.copy()
    lo[rows, :, b[e]] = mid
    hi[rows, :, a[e]] = mid
    return np.concatenate([lo, hi]), edges[rows, e], exact


def _face_pieces(n: int, least_k: int = 1, apex: bool = False) -> dict:
    """The face simplices with at least least_k free coordinates, by k: each
    a vertex matrix (P, n, k) of unit vectors with its supports (P, n),
    supports ascending as masks; with apex, the 2^n - 1 face simplices
    (P, n + 1, k) of R^{n+1} that hold the last coordinate and another."""
    # every face but {0}, pinned masks descending: supports 1 .. 2^n - 1 ascending
    pinned = np.array([face.mask for face in enumerate_faces(n)[-2::-1]])
    every_support = (pinned[:, None] >> np.arange(n + apex) & 1) == 0
    sizes = every_support.sum(axis=1)
    pieces = {}
    for k in range(max(least_k, 1 + apex), n + 1 + apex):
        supports = every_support[sizes == k]
        V = np.zeros((len(supports), n + apex, k))
        rows, cols = np.nonzero(supports)
        V[rows, cols, np.tile(np.arange(k), len(supports))] = 1.0
        pieces[k] = (V, supports)
    return pieces


def _subdivide(pieces: dict, judge, min_edge: float = 0.0, leaf_edge: float = 0.0):
    """The branch and bound over face simplices that the R0 certificate,
    the point faces' starts and the copositivity search share.

    pieces maps k to a stack of k-vertex simplices (P, n, k) and their
    supports (P, n).  Each round judge(k, V, supp) returns the mask of the
    pieces that survive, and the survivors are cut in two at their longest
    edge (_bisect) to make the next round.  The loop ends when no piece
    survives, or with the survivors of the last round, uncut, on the first
    of: a surviving vertex (k = 1) piece, the next round taking the pieces
    judged past PIECE_BUDGET, a midpoint that is not exact, a surviving
    piece whose longest edge is below min_edge, or every surviving piece's
    below leaf_edge.  Returns (the survivors by k, the pieces judged, the
    longest surviving edge).
    """
    simplices = 0
    while True:
        alive = {}
        for k, (V, supp) in pieces.items():
            keep = judge(k, V, supp)
            simplices += len(V)
            if keep.any():
                alive[k] = (V[keep], supp[keep])
        if not alive:
            return alive, simplices, 0.0
        stop = 1 in alive or simplices + 2 * sum(len(V) for V, _ in alive.values()) > PIECE_BUDGET
        cut, edges = {}, [np.zeros(0)]
        for k, (V, supp) in alive.items():
            if k > 1:
                halves, longest, exact = _bisect(V)
                stop |= not exact
                edges.append(longest)
                cut[k] = (halves, np.concatenate([supp, supp]))
        edges = np.concatenate(edges)
        if stop or np.min(edges, initial=np.inf) < min_edge or np.max(edges, initial=0.0) < leaf_edge:
            return alive, simplices, float(np.max(edges, initial=0.0))
        pieces = cut


# ---------------------------------------------------------------------------
# R0: the certificate and the point faces' starts


def _r0_clearance(arr: np.ndarray, V: np.ndarray, supp: np.ndarray) -> np.ndarray:
    """How far the pieces V (P, n, k) with supports supp (P, n) are from
    holding a solution of their support for the order-m array arr, shape
    (P,); arr may leave out zero rows at its end.

    A piece holds none when a row in its support has every Bernstein
    coefficient of one strict sign, or a row off it has every coefficient
    negative.  A row's clearance is the least amount by which they pass zero
    after their rounding bound (_bernstein) is taken off: 2 gamma_K times
    the row's largest |entry|, as V >= 0 with columns summing to 1 makes
    each coefficient of |arr| a weighted mean of them, plus K * 2^-1072; a
    piece's is its best row's, and a positive one excludes it.
    """
    P, n, k = V.shape
    d, R = arr.ndim - 1, arr.shape[0]
    K = d * n + int(_multisets(k, d)[2].max())
    gamma = K * 2.0 ** -53 / (1.0 - K * 2.0 ** -53)
    bound = 2.0 * gamma * np.max(np.abs(arr).reshape(R, -1), axis=1) + K * 2.0 ** -1072
    coef = _bernstein(arr, V)
    neg = -np.max(coef, axis=2) - bound
    rows = np.where(supp[:, :R], np.maximum(np.min(coef, axis=2) - bound, neg), neg)
    return np.max(rows, axis=1)


def _r0_judge(arr: np.ndarray, threshold: float):
    """The R0 rule as a _subdivide judge: a piece is excluded when its
    clearance (_r0_clearance) is above threshold.  Returns the judge and the
    list of the clearances it has computed, one array per call."""
    judged = []

    def judge(k, V, supp):
        judged.append(_r0_clearance(arr, V, supp))
        return judged[-1] <= threshold

    return judge, judged


@dataclass(frozen=True, eq=False)
class _R0Certificate:
    holds: bool
    simplices: int
    # holds: every tensor within margin * max|A| of A, entry by entry, is R0;
    # undecided: NaN
    margin: float
    # undecided: (centroid on the simplex, its TCP(A, 0) residual) of every
    # surviving piece, and the longest surviving edge
    candidates: list
    longest: float


def _r0_certificate(A: Tensor, tol: float) -> _R0Certificate:
    """Decide Sol(A, 0) = {0} by Bernstein subdivision of the simplex faces.

    A nonzero solution of TCP(A, 0) scaled onto the probability simplex, with
    support beta, lies on the face simplex of beta with F_i = 0 for i in
    beta and F_j >= 0 off it.  The 2^n - 1 face simplices start as the
    pieces, each carrying its support; a piece with a positive clearance
    (_r0_clearance) holds no solution of its support and is excluded, every
    other piece is cut in two at its longest edge (_subdivide), and A is R0
    when no piece is left.

    A float sign is a proof here.  A is scaled by a power of two, which is
    exact up to underflow; vertices start at the unit vectors and every
    midpoint is checked to be exact, so the halves tile their parent, the
    vertices stay on the simplex and each column of a piece's vertex matrix
    sums to 1, as _r0_clearance's rounding bound needs.  A piece is excluded
    only when its clearance is above tol times the largest entry of A: a
    change of at most that much in every entry moves no coefficient by more,
    so every tensor that close to a certified A is R0 as well, and a tensor
    with a ray of residual below tol, which the Newton search would report,
    is not certified.  margin is the least clearance of an excluded piece,
    relative to the largest entry of A.

    The search stops undecided on the first of: PIECE_BUDGET pieces judged,
    a surviving piece with an edge below R0_MIN_EDGE, a surviving vertex
    (k = 1) piece, or a midpoint that is not exact; the candidates are then
    the centroids of the surviving pieces with their TCP(A, 0) residual on
    the scaled A.
    """
    n = A.dim
    arr = np.ldexp(A.array, -math.frexp(float(np.max(np.abs(A.array))))[1])
    top = float(np.max(np.abs(arr)))
    judge, judged = _r0_judge(arr, tol * top)
    alive, simplices, longest = _subdivide(_face_pieces(n), judge, min_edge=R0_MIN_EDGE)
    if not alive:
        clear = np.concatenate(judged)
        return _R0Certificate(True, simplices, float(np.min(clear[clear > tol * top])) / top, [], 0.0)
    X = np.vstack([V.mean(axis=2) for V, _ in alive.values()])
    res = max_residual(TcpInstance(Tensor(arr), np.zeros(n)), X)
    return _R0Certificate(False, simplices, math.nan, list(zip(X, res)), longest)


def _leaf_starts(unit: TcpInstance, tol: float) -> dict[int, np.ndarray]:
    """Newton starts of the point faces of unit, by pinned mask: the leaf
    centroids of a Bernstein subdivision of the augmented tensor.

    With x = y / tau, G(y, tau) = A y^{m-1} + tau^{m-1} a is an order-m
    tensor on R^{n+1}, and (x, 1) / (1 + |x|_1) maps a root on the face of
    free set beta, however large, into the face simplex of beta + {tau}.
    These 2^n - 1 pieces are judged by the R0 rule (_r0_judge, less the
    zero tau row) and cut (_subdivide) to LEAF_EDGE or PIECE_BUDGET.  As
    |F_i(y / tau)| = |G_i| / tau^{m-1} >= |G_i|, excluding only clearances
    above 2 tol keeps each root the solver's root filter accepts (residual
    <= tol / 10, pinned slack >= -tol) in a leaf.  A leaf with centroid c
    starts at c_beta / c_tau; every piece keeps a vertex with tau > 0.
    """
    n, m = unit.n, unit.m
    aug = np.pad(unit.tensor.array, [(0, 0)] + [(0, 1)] * (m - 1))
    aug[(slice(n),) + (n,) * (m - 1)] = unit.a
    judge, _ = _r0_judge(aug, 2.0 * tol)
    leaves, _, _ = _subdivide(_face_pieces(n, apex=True), judge, leaf_edge=LEAF_EDGE)
    starts = {}
    for k, (V, supp) in leaves.items():
        C = V.mean(axis=2)
        Z = (C[:, :n] / C[:, n:])[supp[:, :n]].reshape(len(C), k - 1)
        pinned = ~supp[:, :n] @ (1 << np.arange(n))
        for mask in set(pinned.tolist()):
            starts[mask] = Z[pinned == mask]
    return starts


# ---------------------------------------------------------------------------
# copositivity


def _copositive_leaves(unit: Tensor) -> tuple[dict, np.ndarray, int]:
    """Branch and bound on the Bernstein coefficients of the form of unit,
    over every face simplex with k >= 2 free coordinates.

    The least form value seen so far, over the pieces' vertices (their
    vertex coefficients, _form_bernstein) and centroids, bounds the minimum
    from above; a piece whose least coefficient is at least that value holds
    no lower point and is retired.  The others are bisected (_subdivide)
    until every survivor's longest edge is below LEAF_EDGE or PIECE_BUDGET
    stops the search.  Returns the surviving pieces by k, the point of the
    least value seen and the number of pieces judged.
    """
    n, m = unit.dim, unit.order
    best, where = math.inf, None

    def judge(k, V, supp):
        nonlocal best, where
        # the form at a piece's centroid and at its vertices from its coefficients
        centroid = _multisets(k, m)[2] / k**m
        corner = np.argmax(_degree_raise(k, m)[1], axis=1)
        coef = _form_bernstein(unit.array, V)
        vals = np.concatenate([coef @ centroid, coef[:, corner].ravel()])
        i = int(np.argmin(vals))
        if vals[i] < best:
            X = np.concatenate([V.mean(axis=2), np.swapaxes(V, 1, 2).reshape(-1, n)])
            best, where = float(vals[i]), X[i]
        return np.min(coef, axis=1) < best

    leaves, simplices, _ = _subdivide(_face_pieces(n, 2), judge, leaf_edge=LEAF_EDGE)
    return leaves, where, simplices
