import itertools
import math

import numpy as np

from tcplab import Tensor, form, random_gaussian
from tcplab.catalog import builtin_example
from tcplab.subdivision import PIECE_BUDGET, _bernstein, _bisect, _face_pieces, _form_bernstein, _subdivide


def _longest_edges(V):
    """The longest edge (inf-norm) of each simplex V (P, n, k), pair by pair."""
    return np.array([max(np.abs(Vp[:, a] - Vp[:, b]).max() for a, b in itertools.combinations(range(Vp.shape[1]), 2))
                     for Vp in V])


def _keep_all(k, V, supp):
    return np.ones(len(V), dtype=bool)


def test_bisect_halves_tile_the_parent_at_its_longest_edge():
    # random simplices with k = n vertices on the probability simplex: each
    # half replaces one end of the first longest edge by its midpoint, so
    # the halves have half the parent's volume each, and every point of the
    # parent lies in one of them
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        V = rng.uniform(0.0, 1.0, (6, n, n))
        V /= V.sum(axis=1, keepdims=True)
        halves, longest, _ = _bisect(V)
        assert halves.shape == (12, n, n)
        assert np.array_equal(longest, _longest_edges(V))
        vol = np.abs(np.linalg.det(V))
        assert np.allclose(np.abs(np.linalg.det(halves[:6])), vol / 2, rtol=1e-12, atol=0)
        assert np.allclose(np.abs(np.linalg.det(halves[6:])), vol / 2, rtol=1e-12, atol=0)
        for p in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            edges = [np.abs(V[p][:, a] - V[p][:, b]).max() for a, b in pairs]
            a, b = pairs[int(np.argmax(edges))]
            mid = 0.5 * (V[p][:, a] + V[p][:, b])
            assert np.array_equal(halves[p][:, b], mid) and np.array_equal(halves[6 + p][:, a], mid)
            others = [j for j in range(n) if j not in (a, b)]
            assert np.array_equal(halves[p][:, others], V[p][:, others])
            X = V[p] @ rng.dirichlet(np.ones(n), 50).T
            lo, hi = (np.linalg.solve(halves[q], X) for q in (p, 6 + p))
            assert np.all((lo.min(axis=0) >= -1e-12) | (hi.min(axis=0) >= -1e-12))
            assert np.allclose(lo.sum(axis=0), 1.0) and np.allclose(hi.sum(axis=0), 1.0)


def test_bisect_reports_an_inexact_midpoint():
    # 1 + 0.1 rounds, so the halves would not tile the parent exactly
    V = np.array([[[1.0, 0.1], [0.0, 0.9]]])
    halves, longest, exact = _bisect(V)
    assert not exact and longest.tolist() == [0.9]
    _, _, exact = _bisect(np.eye(3)[None])
    assert exact


def test_subdivide_stops_when_nothing_survives():
    pieces = _face_pieces(3)
    alive, simplices, longest = _subdivide(pieces, lambda k, V, supp: np.zeros(len(V), dtype=bool))
    assert alive == {} and simplices == 2**3 - 1 and longest == 0.0


def test_subdivide_stops_on_a_surviving_vertex_piece():
    # the pieces of the first round come back uncut
    pieces = _face_pieces(3)
    alive, simplices, longest = _subdivide(pieces, _keep_all)
    assert simplices == 7 and sorted(alive) == [1, 2, 3] and longest == 1.0
    for k, (V, supp) in alive.items():
        assert np.array_equal(V, pieces[k][0]) and np.array_equal(supp, pieces[k][1])


def test_subdivide_stops_before_the_piece_budget():
    # one segment, every piece kept: round r judges 2^r pieces, and the loop
    # stops when the next round would take the count past PIECE_BUDGET
    pieces = _face_pieces(2, 2)
    alive, simplices, longest = _subdivide(pieces, _keep_all)
    (V, _), = alive.values()
    assert simplices <= PIECE_BUDGET < simplices + 2 * len(V)
    assert (simplices, len(V)) == (2**12 - 1, 2**11) and longest == 2.0**-11
    # a judge that retires the pieces away from one end: the next round
    # counts twice the survivors, not twice the pieces judged
    alive, judged, _ = _subdivide(pieces, lambda k, V, supp: V[:, 0, 0] > 0.5)
    assert judged <= PIECE_BUDGET < judged + 2 * len(alive[2][0]) and judged > simplices // 2


def test_subdivide_stops_on_min_edge_and_on_leaf_edge():
    # segments halve their edge every round, triangles every other round or
    # so: min_edge stops at the first piece below it, leaf_edge only once
    # every piece is below it
    pieces = _face_pieces(3, 2)
    alive, simplices, longest = _subdivide(pieces, _keep_all, min_edge=0.25)
    edges = np.concatenate([_longest_edges(V) for V, _ in alive.values()])
    assert edges.min() < 0.25 <= edges.max() == longest
    assert edges.min() == 0.125 and simplices < 100
    alive, simplices, longest = _subdivide(pieces, _keep_all, leaf_edge=0.25)
    edges = {k: _longest_edges(V) for k, (V, _) in alive.items()}
    assert longest == max(e.max() for e in edges.values()) < 0.25
    # the segments went on being cut while the triangles got there
    assert edges[2].max() < 0.25 / 2 <= edges[3].max()
    # the leaf edge stopped it, not the budget
    assert simplices < PIECE_BUDGET


def test_subdivide_stops_on_an_inexact_midpoint():
    V = np.array([[[1.0, 0.1], [0.0, 0.9]]])
    supp = np.ones((1, 2), dtype=bool)
    alive, simplices, longest = _subdivide({2: (V, supp)}, _keep_all)
    assert simplices == 1 and np.array_equal(alive[2][0], V) and longest == 0.9


def _bernstein_by_einsum(arr, V):
    """Bernstein coefficients from one einsum per simplex and an explicit
    average over the slot permutations, one per sorted multi-index."""
    m, k = arr.ndim, V.shape[2]
    d = m - 1
    letters, cols = "abcdefg"[:m], "pqrstuv"[:d]
    spec = letters + "," + ",".join(letters[1 + s] + cols[s] for s in range(d)) + "->" + letters[0] + cols
    out = []
    for Vp in V:
        C = np.einsum(spec, arr, *([Vp] * d))
        sym = sum(np.transpose(C, (0,) + tuple(1 + q for q in perm)) for perm in itertools.permutations(range(d)))
        sym = sym / math.factorial(d)
        out.append([[sym[(i,) + ms] for ms in itertools.combinations_with_replacement(range(k), d)]
                    for i in range(arr.shape[0])])
    return np.array(out)


def test_bernstein_coefficients_match_an_einsum_recheck():
    # the coefficients of the catalog tensors and of Gaussian m=3, n=3
    # tensors on random nonnegative vertex sets of every size k
    rng = np.random.default_rng(12)
    tensors = [builtin_example(name).tensor.array for name in ("ex1", "gus", "monotone")]
    tensors += [random_gaussian(3, 3, rng).array for _ in range(3)] + [random_gaussian(4, 3, rng).array]
    for arr in tensors:
        n = arr.shape[0]
        for k in range(1, n + 1):
            V = rng.uniform(0.0, 1.0, (4, n, k))
            V /= V.sum(axis=1, keepdims=True)
            got = _bernstein(arr, V)
            assert got.shape == (4, n, math.comb(k + arr.ndim - 2, arr.ndim - 1))
            assert np.allclose(got, _bernstein_by_einsum(arr, V), rtol=0, atol=1e-14)
    # on a face simplex the coefficients of a vertex are the tensor's entries
    arr = tensors[3]
    coef = _bernstein(arr, np.eye(3)[None, :, [0, 2]])
    assert np.array_equal(coef[0, :, 0], arr[:, 0, 0]) and np.array_equal(coef[0, :, -1], arr[:, 2, 2])


def test_form_bernstein_coefficients_match_an_einsum_and_enclose_the_form():
    # the coefficients of A x^m on random nonnegative vertex sets: one einsum
    # with V in every slot and an explicit average over the slot
    # permutations; the vertex coefficients are the form at the vertices,
    # and the form inside lies between the least and the largest coefficient
    rng = np.random.default_rng(17)
    for m, n in ((2, 3), (3, 2), (3, 3), (4, 3), (3, 4)):
        arr = rng.standard_normal((n,) * m)
        letters, cols = "abcd"[:m], "pqrs"[:m]
        spec = letters + "," + ",".join(letters[s] + cols[s] for s in range(m)) + "->" + cols
        for k in range(1, n + 1):
            V = rng.uniform(0.0, 1.0, (3, n, k))
            V /= V.sum(axis=1, keepdims=True)
            got = _form_bernstein(arr, V)
            groups = list(itertools.combinations_with_replacement(range(k), m))
            assert got.shape == (3, len(groups))
            for p, Vp in enumerate(V):
                C = np.einsum(spec, arr, *([Vp] * m))
                sym = sum(np.transpose(C, perm) for perm in itertools.permutations(range(m))) / math.factorial(m)
                assert np.allclose(got[p], [sym[g] for g in groups], rtol=0, atol=1e-13)
                corners = got[p, [groups.index((j,) * m) for j in range(k)]]
                assert np.allclose(corners, [form(Tensor(arr), Vp[:, j]) for j in range(k)], rtol=0, atol=1e-14)
                X = rng.dirichlet(np.ones(k), 40) @ Vp.T
                vals = np.array([form(Tensor(arr), x) for x in X])
                assert np.all(vals >= got[p].min() - 1e-13) and np.all(vals <= got[p].max() + 1e-13)


def test_bernstein_chunks_change_nothing(monkeypatch):
    # pieces past the chunk budget run in chunks, each piece's coefficients
    # the same bits as in one call
    import tcplab.subdivision as subdivision_mod

    rng = np.random.default_rng(8)
    arr = rng.standard_normal((3, 3, 3))
    V = rng.dirichlet(np.ones(3), (50, 3)).transpose(0, 2, 1).copy()
    whole, form_whole = _bernstein(arr, V), _form_bernstein(arr, V)
    # three pieces per chunk
    monkeypatch.setattr(subdivision_mod, "_PIECE_CHUNK", 3 * (3**2 * 3 + 3 * 3**2))
    assert np.array_equal(_bernstein(arr, V), whole) and np.array_equal(_form_bernstein(arr, V), form_whole)
    for p in range(50):
        assert np.array_equal(_bernstein(arr, V[p:p + 1]), whole[p:p + 1])
