"""Bernstein subdivision of the simplex faces: the coefficient kernel, the
branch and bound loop and the judges that run on it.

On a simplex with vertex matrix V (n, k), x = V lam with lam >= 0 and
sum(lam) = 1, every row of A x^{m-1}, and the form A x^m, is a form in lam
whose values on the simplex are convex combinations of its Bernstein
coefficients.  One kernel, _bernstein, gives them all: the form A x^m is its
one-row case A[None], of order m + 1.  _subdivide starts from the face
simplices of the orthant (_face_piece_table), asks a judge which pieces
survive and cuts the survivors at their longest edge (_bisect), round after
round.  Four entry points run it, one judge each (Mourrain & Pavone, J.
Symbolic Comput. 44, 2009; Bundfuss & Duer, Linear Algebra Appl. 428, 2008):

- _r0_certificate proves Sol(A, 0) = {0} when every piece is excluded by the
  R0 rule (_r0_judge), with rounding-safe sign tests, and otherwise hands
  the centroids of the surviving pieces to the homogeneous search as its
  starts;
- _leaf_starts gives the Newton starts of a solve's point faces, the leaf
  centroids of the same rule on the augmented tensor of (A, a);
- _copositive_leaves retires the pieces whose form coefficients all lie
  above the least form value seen, and hands on the rest as KKT starts;
- _monotone_pieces retires the pieces where J + J^T >= 0, J the Jacobian of
  A x^{m-1}, and stops at a vertex where it is not.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import TcpInstance, enumerate_faces
from .tensors import _TEMP_ENTRIES, Tensor, slot_sum

# every subdivision stops after judging this many sub-simplices
PIECE_BUDGET = 4096
# the R0 subdivision gives up when a surviving piece's longest edge
# (inf-norm, on the simplex) falls below R0_MIN_EDGE
R0_MIN_EDGE = 2.0 ** -12
# the point faces' starts and the copositivity search cut until every
# surviving piece's longest edge is below LEAF_EDGE
LEAF_EDGE = 2.0 ** -3


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
    rows, shape (R,) + (n,) * d.  The one row A[None] gives the coefficients
    of the form x -> A x^m, d = m: A contracted with V[p] in every slot,
    averaged over each multiset; the coefficient of the multiset of m copies
    of vertex j is the form at that vertex.  Returns (P, R, G), the groups
    ranked as in _multisets(k, d).  The pieces run in chunks whose
    temporaries stay within _TEMP_ENTRIES entries (tensors): a piece's largest
    are its first product, k R n^(d-1) entries, and its gathered and
    summed coefficients, R k^d.  Each slot is one matrix product per piece, of
    the same shapes for every piece and on that piece's data alone, so a
    piece's coefficients are the same bits whatever the other pieces, the
    chunks or the BLAS threads.  One product over all pieces at once would
    not be: OpenBLAS can round a column differently at another column count.

    Every entry of a slot's product is a dot product of n terms, and each
    symmetrised coefficient is a sum of counts[g] entries then divided by
    counts[g].  The error bound of a sum of products holds in any summation
    order, with or without fused multiply-adds, so for V >= 0 the computed
    coefficient is within gamma_K times the same computation on |arr| of
    the exact one, K = d * n + max(counts) (gamma_K = K u / (1 - K u), u the
    unit roundoff), up to underflow.
    """
    P, n, k = V.shape
    d = arr.ndim - 1
    size = max(1, _TEMP_ENTRIES // (arr.shape[0] * (k * n ** (d - 1) + k ** d)))
    if P > size:
        return np.concatenate([_bernstein(arr, V[lo:lo + size]) for lo in range(0, P, size)])
    # slot m: T (P, k, R n^(d-1)), one (k, n) @ (n, R n^(d-1)) product per piece
    T = np.matmul(np.swapaxes(V, 1, 2), arr.reshape(-1, n).T)
    for _ in range(d - 1):
        # T (P, k^s, R n^(d-s)), contracted slots first: one (., n) @ (n, k)
        # product per piece takes its last slot.  Binding the reshaped copy
        # first frees the old product before the new one is made
        T = T.reshape(P, -1, n)
        T = np.swapaxes(np.matmul(T, V), 1, 2)
    T = np.swapaxes(T.reshape(P, k ** d, arr.shape[0]), 1, 2)
    order, starts, counts = _multisets(k, d)
    coef = np.add.reduceat(T[:, :, order], starts, axis=2)
    coef /= counts
    return coef


# ---------------------------------------------------------------------------
# the branch and bound loop


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> np.ndarray:
    """The vertex pairs a < b of a k-vertex simplex in lexicographic order,
    shape (2, k (k - 1) / 2)."""
    return _read_only(np.array(list(itertools.combinations(range(k), 2))).T)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: the cached tables are shared by every call."""
    arr.flags.writeable = False
    return arr


def _longest_edge(V: np.ndarray):
    """The longest edge of each simplex V (P, n, k), the first in pair order
    on ties: its index in _pairs(k), its length (inf-norm), its midpoint
    (P, n), and whether every midpoint is exact."""
    P, n, k = V.shape
    a, b = _pairs(k)
    # a running maximum over groups of coordinate rows, each group's
    # (P, rows, pairs) differences within _TEMP_ENTRIES entries; maxima are
    # exact, so the groups move no bit.  Most calls cut a few pieces, where
    # a group per row would cost about 8 us a row
    step = max(1, _TEMP_ENTRIES // (P * len(a)))
    edges = None
    for lo in range(0, n, step):
        W = V[:, lo:lo + step]
        part = np.abs(W.take(a, axis=2) - W.take(b, axis=2)).max(axis=1)
        edges = part if edges is None else np.maximum(edges, part, out=edges)
    e = edges.argmax(axis=1)
    rows = np.arange(P)
    va, vb = V[rows, :, a[e]], V[rows, :, b[e]]
    # TwoSum: s is va + vb exactly when its error term vanishes
    s = va + vb
    bv = s - va
    mid = 0.5 * s
    exact = bool(((va - (s - bv)) + (vb - bv) == 0.0).all() and (2.0 * mid == s).all())
    return e, edges[rows, e], mid, exact


def _bisect(V: np.ndarray, e: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """The two halves of each simplex V (P, n, k) cut at the midpoint mid of
    its edge e (_longest_edge): the first P replace the edge's second
    vertex, the last P its first."""
    P, _, k = V.shape
    a, b = _pairs(k)
    rows = np.arange(P)
    halves = np.concatenate([V, V])
    halves[rows, :, b[e]] = mid
    halves[P + rows, :, a[e]] = mid
    return halves


@functools.lru_cache(maxsize=None)
def _face_piece_table(n: int, least_k: int, apex: bool) -> tuple:
    """The face simplices with at least least_k free coordinates, as (k,
    (V, supports)) pairs by k: each V a vertex matrix (P, n, k) of unit
    vectors with its supports (P, n), supports ascending as masks; with
    apex, the 2^n - 1 face simplices (P, n + 1, k) of R^{n+1} that hold the
    last coordinate and another.

    The arrays are built once per (n, least_k, apex), on the first call, and
    are read-only: every call shares them."""
    # every face but {0}, pinned masks descending: supports 1 .. 2^n - 1 ascending
    pinned = np.array([face.mask for face in enumerate_faces(n)[-2::-1]])
    every_support = (pinned[:, None] >> np.arange(n + apex) & 1) == 0
    sizes = every_support.sum(axis=1)
    pieces = []
    for k in range(max(least_k, 1 + apex), n + 1 + apex):
        supports = every_support[sizes == k]
        V = np.zeros((len(supports), n + apex, k))
        rows, cols = np.nonzero(supports)
        V[rows, cols, np.tile(np.arange(k), len(supports))] = 1.0
        pieces.append((k, (_read_only(V), _read_only(supports))))
    return tuple(pieces)


def _subdivide(pieces, judge, min_edge: float = 0.0, leaf_edge: float = 0.0):
    """The branch and bound over face simplices that the R0 certificate,
    the point faces' starts, the copositivity and monotonicity checks share.

    pieces maps k to a stack of k-vertex simplices (P, n, k) and their
    supports (P, n), as a dict or as (k, (V, supports)) pairs
    (_face_piece_table); they are read and never written.  Each round
    judge(k, V, supp) returns the mask of the pieces that survive, and the
    survivors are cut in two at their longest edge (_longest_edge, _bisect)
    to make the next round.  A surviving vertex (k = 1) piece has no edge to
    cut: it is kept, uncut and not judged again, among the survivors to the
    end.  The loop ends when no piece is left to judge, or with the
    survivors of the last round, uncut, on the first of: the next round
    taking the pieces judged past PIECE_BUDGET, a midpoint that is not
    exact, a surviving piece whose longest edge is below min_edge, or every
    surviving piece's below leaf_edge.  Returns (the survivors by k, the
    pieces judged).
    """
    simplices, kept, pieces = 0, {}, dict(pieces)
    while True:
        alive = {}
        for k, (V, supp) in pieces.items():
            keep = judge(k, V, supp)
            simplices += len(V)
            if keep.any():
                alive[k] = (V[keep], supp[keep])
        if 1 in alive:
            kept[1] = alive.pop(1)
        if not alive:
            return kept, simplices
        if simplices + 2 * sum(len(V) for V, _ in alive.values()) > PIECE_BUDGET:
            return kept | alive, simplices
        # the stop rule reads the edges alone: the halves are made only for
        # a round that follows
        cuts = {k: _longest_edge(V) for k, (V, _) in alive.items()}
        edges = np.concatenate([longest for _, longest, _, _ in cuts.values()])
        if not all(exact for *_, exact in cuts.values()) or edges.min() < min_edge or edges.max() < leaf_edge:
            return kept | alive, simplices
        pieces = {}
        for k, (V, supp) in alive.items():
            e, _, mid, _ = cuts[k]
            pieces[k] = (_bisect(V, e, mid), np.concatenate([supp, supp]))


def _by_face(Z: np.ndarray, supp: np.ndarray, starts: dict) -> None:
    """Add the rows of Z (P, k), one per piece with support supp (P, n), to
    starts under their face's pinned mask."""
    pinned = ~supp @ (1 << np.arange(supp.shape[1]))
    for mask in set(pinned.tolist()):
        starts[mask] = Z[pinned == mask]


# ---------------------------------------------------------------------------
# R0: the certificate and the point faces' starts


def _r0_clearance(arr: np.ndarray, top: np.ndarray, V: np.ndarray, supp: np.ndarray) -> np.ndarray:
    """How far the pieces V (P, n, k) with supports supp (P, n) are from
    holding a solution of their support for the order-m array arr, shape
    (P,); arr may leave out zero rows at its end, and top holds the largest
    |entry| of each of its rows.

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
    bound = 2.0 * gamma * top + K * 2.0 ** -1072
    coef = _bernstein(arr, V)
    neg = -coef.max(axis=2) - bound
    rows = np.where(supp[:, :R], np.maximum(coef.min(axis=2) - bound, neg), neg)
    return rows.max(axis=1)


def _r0_judge(arr: np.ndarray, threshold: float):
    """The R0 rule as a _subdivide judge: a piece is excluded when its
    clearance (_r0_clearance) is above threshold.  Returns the judge and a
    one-entry list, the least clearance of a piece it has excluded (inf
    before the first)."""
    least, top = [math.inf], np.max(np.abs(arr).reshape(len(arr), -1), axis=1)

    def judge(k, V, supp):
        clear = _r0_clearance(arr, top, V, supp)
        least[0] = min(least[0], float(clear[clear > threshold].min(initial=math.inf)))
        return clear <= threshold

    return judge, least


@dataclass(frozen=True, eq=False)
class _R0Certificate:
    """What _r0_certificate decided after judging simplices pieces.  When it
    holds, every tensor within margin * max|A| of A, entry by entry, is R0
    and starts is empty.  Undecided, margin is None, as homogeneous_solve's
    meta reports it, and starts holds the centroids of the surviving pieces,
    on the simplex, by the pinned mask of their face."""

    holds: bool
    simplices: int
    margin: float | None
    starts: dict


def _r0_certificate(A: Tensor, tol: float) -> _R0Certificate:
    """Decide Sol(A, 0) = {0} by Bernstein subdivision of the simplex faces,
    and give the homogeneous search its starts when it cannot.

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
    so every tensor that close to a certified A is R0 as well.  margin is
    the least clearance of an excluded piece, relative to the largest entry
    of A.

    The search stops undecided on the first of: PIECE_BUDGET pieces judged,
    a surviving piece with an edge below R0_MIN_EDGE, or a midpoint that is
    not exact; a surviving vertex piece is kept and the rest are cut on.
    starts then holds, for each face, the centroids of its surviving pieces
    on its free coordinates, and a face without one has no entry.  They are
    the only starts of the homogeneous search, and every exact nonzero
    solution lies in a surviving piece.  So does a root the search accepts
    (solver._filter_roots on A / |A|_F: |F_i| <= tol / 10 on its support,
    pinned rows F_j >= -tol, within tol / 10 of the simplex), with two
    exceptions, as a piece is excluded only where a row clears tol max|A|
    in A's units: a pinned row with F_j in [-tol |A|_F, -tol max|A|), and,
    when |A|_F > 10 max|A| (n^m > 100 at least), a support row with |F_i|
    between tol max|A| and tol |A|_F / 10.  Both are roots that solve
    TCP(A, 0) only to the search's tolerance.
    """
    n = A.dim
    arr = np.ldexp(A.array, -math.frexp(float(np.max(np.abs(A.array))))[1])
    top = float(np.max(np.abs(arr)))
    judge, least = _r0_judge(arr, tol * top)
    alive, simplices = _subdivide(_face_piece_table(n, 1, False), judge, min_edge=R0_MIN_EDGE)
    if not alive:
        return _R0Certificate(True, simplices, least[0] / top, {})
    starts = {}
    for k, (V, supp) in alive.items():
        _by_face(V.mean(axis=2)[supp].reshape(len(V), k), supp, starts)
    return _R0Certificate(False, simplices, None, starts)


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
    leaves, _ = _subdivide(_face_piece_table(n, 1, True), judge, leaf_edge=LEAF_EDGE)
    starts = {}
    for k, (V, supp) in leaves.items():
        C = V.mean(axis=2)
        _by_face((C[:, :n] / C[:, n:])[supp[:, :n]].reshape(len(C), k - 1), supp[:, :n], starts)
    return starts


# ---------------------------------------------------------------------------
# copositivity and monotonicity


@functools.lru_cache(maxsize=None)
def _form_points(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights that take the form's Bernstein coefficients (groups
    ranked as in _multisets(k, m)) to its value at the centroid, and the
    column of each vertex's coefficient: the groups of one multi-index, m
    copies of one vertex, in vertex order."""
    counts = _multisets(k, m)[2]
    return _read_only(counts / k**m), _read_only(np.flatnonzero(counts == 1))


def _copositive_leaves(unit: Tensor) -> tuple[dict, np.ndarray, int]:
    """Branch and bound on the Bernstein coefficients of the form of unit,
    over every face simplex with k >= 2 free coordinates.

    The form's coefficients are _bernstein's on the one row unit.array[None].
    The least form value seen so far, over the pieces' vertices (their vertex
    coefficients) and centroids, bounds the minimum from above; a piece whose
    least coefficient is at least that value holds no lower point and is
    retired.  The others are bisected (_subdivide) until every survivor's
    longest edge is below LEAF_EDGE or PIECE_BUDGET stops the search.  Returns the surviving pieces by k, the point of the
    least value seen and the number of pieces judged.
    """
    n, m = unit.dim, unit.order
    best, where = math.inf, None

    def judge(k, V, supp):
        nonlocal best, where
        centroid, corner = _form_points(k, m)
        coef = _bernstein(unit.array[None], V)[:, 0]
        vals = np.concatenate([coef @ centroid, coef[:, corner].ravel()])
        i = int(np.argmin(vals))
        if vals[i] < best:
            X = np.concatenate([V.mean(axis=2), np.swapaxes(V, 1, 2).reshape(-1, n)])
            best, where = float(vals[i]), X[i]
        return np.min(coef, axis=1) < best

    leaves, simplices = _subdivide(_face_piece_table(n, 2, False), judge, leaf_edge=LEAF_EDGE)
    return leaves, where, simplices


def _monotone_pieces(unit: Tensor, tol: float):
    """Decide J + J^T >= 0 on the probability simplex, J = slot_sum(unit)
    x^{m-2} the Jacobian of unit x^{m-1} (times sum(x) = 1 at m = 2, so that
    its rows have a slot).  On a piece, J is a convex combination of its
    Bernstein coefficient matrices C; at an even degree d = 2e it is also
    u^T J u = w^T G w for w = lam^{(x)e} (x) u, |w| <= 1 and G the Gram
    matrix, the coefficient of multiset a + b at row (a, i), column (b, j).
    A piece is retired when every C + C^T or G + G^T has least eigenvalue
    >= -tol (G holds a J that is PSD but singular on a curve, such as
    (c . x)^2 c c^T, whose C + C^T are negative across it), and the rest are
    cut.  A vertex coefficient is J there; one below -tol refutes unit and
    ends the loop.  Returns (the survivors by k, the pieces judged, the
    least eigenvalue bound of a retired piece: C + C^T's, or G + G^T's mu,
    mu / k^e if mu > 0, the least of a vertex coefficient's C + C^T, and the
    most negative refuting vertex with its eigenvector, or None)."""
    n, m = unit.dim, unit.order
    rows = slot_sum(unit.array).reshape((n * n,) + (n,) * (m - 2))
    if m == 2:
        rows = rows[:, None] * np.ones(n)
    d = rows.ndim - 1
    least, corner, witness = [math.inf], [math.inf], [None]

    def judge(k, V, supp):
        B = _bernstein(rows, V)
        C = np.swapaxes(B, 1, 2).reshape(len(V), -1, n, n)
        S = C + np.swapaxes(C, 2, 3)
        low = np.linalg.eigvalsh(S)[..., 0]
        order, _, counts = _multisets(k, d)
        g = np.flatnonzero(counts == 1)
        p, j = np.unravel_index(np.argmin(low[:, g]), (len(V), k))
        corner[0] = min(corner[0], float(low[p, g[j]]))
        if corner[0] < -tol:
            witness[0] = V[p, :, j], np.linalg.eigh(S[p, g[j]])[1][:, 0]
            return np.zeros(len(V), dtype=bool)
        bound = low.min(axis=1)
        keep = bound < -tol
        if d % 2 == 0 and keep.any():
            r, group = k ** (d // 2), np.empty(k**d, dtype=int)
            group[order] = np.repeat(np.arange(len(counts)), counts)
            G = B[keep][:, :, group].reshape(-1, n, n, r, r).transpose(0, 3, 1, 4, 2).reshape(-1, r * n, r * n)
            mu = np.linalg.eigvalsh(G + np.swapaxes(G, 1, 2))[:, 0]
            bound[keep] = np.minimum(mu, mu / r)
            keep[keep] = mu < -tol
        least[0] = min(least[0], float(bound[~keep].min(initial=math.inf)))
        return keep

    alive, simplices = _subdivide(_face_piece_table(n, n, False), judge)
    return alive, simplices, least[0], corner[0], witness[0]
