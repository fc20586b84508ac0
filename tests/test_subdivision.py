import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tcplab.subdivision as subdivision_mod
from tcplab import SolverConfig, TcpInstance, Tensor, contract, form, random_gaussian, solve
from tcplab.catalog import builtin_example
from tcplab.subdivision import (LEAF_EDGE, PIECE_BUDGET, _bernstein, _bisect, _face_piece_table, _longest_edge,
                               _subdivide)


def _longest_edges(V):
    """The longest edge (inf-norm) of each simplex V (P, n, k), pair by pair."""
    return np.array([max(np.abs(Vp[:, a] - Vp[:, b]).max() for a, b in itertools.combinations(range(Vp.shape[1]), 2))
                     for Vp in V])


def _cut(V):
    """The halves of each simplex V, its longest edge and whether every
    midpoint is exact, as one round of _subdivide cuts them."""
    e, longest, mid, exact = _longest_edge(V)
    return _bisect(V, e, mid), longest, exact


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
        halves, longest, _ = _cut(V)
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


def test_bisect_reports_an_inexact_midpoint(monkeypatch):
    # 1 + 0.1 rounds, so the halves would not tile the parent exactly
    V = np.array([[[1.0, 0.1], [0.0, 0.9]]])
    halves, longest, exact = _cut(V)
    assert not exact and longest.tolist() == [0.9]
    _, _, exact = _cut(np.eye(3)[None])
    assert exact
    # dyadic simplices, whose midpoints are exact, alone and stacked with
    # random ones and with the one above: the edges are the per-pair loop's
    # bit for bit, with the coordinate rows in one group, one per group and
    # two per group, each piece is cut at the first of its longest edges,
    # and one inexact midpoint makes the stack inexact
    rng, default = np.random.default_rng(8), subdivision_mod._TEMP_ENTRIES
    for n in (3, 4):
        dyadic = rng.integers(0, 8, (5, n, n)) / 8.0
        drawn = rng.uniform(0.0, 1.0, (5, n, n))
        drawn /= drawn.sum(axis=1, keepdims=True)
        rounds = np.eye(n)[None].copy()
        rounds[0, :2, :2] = V[0]
        pairs = list(itertools.combinations(range(n), 2))
        for stack, inexact in ((dyadic, False), (np.concatenate([dyadic, drawn, rounds]), True)):
            for budget in (default, 1, 2 * len(stack) * len(pairs)):
                monkeypatch.setattr(subdivision_mod, "_TEMP_ENTRIES", budget)
                halves, longest, exact = _cut(stack)
                assert np.array_equal(longest, _longest_edges(stack)) and exact is not inexact
                for p, Vp in enumerate(stack):
                    a, b = pairs[int(np.argmax([np.abs(Vp[:, a] - Vp[:, b]).max() for a, b in pairs]))]
                    mid = 0.5 * (Vp[:, a] + Vp[:, b])
                    assert np.array_equal(halves[p][:, b], mid) and np.array_equal(halves[len(stack) + p][:, a], mid)


def test_bisect_cuts_the_first_of_tied_edges():
    # on the unit simplex every edge has length 1, and pair (0, 1) is cut
    for k in (2, 3, 4):
        V = np.eye(k)[None]
        halves, longest, exact = _cut(V)
        mid = np.where(np.arange(k) < 2, 0.5, 0.0)
        want = np.concatenate([V, V])
        want[0, :, 1] = want[1, :, 0] = mid
        assert exact and longest.tolist() == [1.0] and np.array_equal(halves, want)
    # edges (0, 2) and (1, 2) tie above (0, 1): (0, 2) is cut
    V = np.array([[[1.0, 0.75, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 1.0]]])
    halves, longest, exact = _cut(V)
    assert exact and longest.tolist() == [1.0]
    assert halves[0, :, 2].tolist() == halves[1, :, 0].tolist() == [0.5, 0.0, 0.5]


def _pieces(n, least_k=1, apex=False):
    """The face simplices of _face_piece_table, by k."""
    return dict(_face_piece_table(n, least_k, apex))


def test_face_pieces_are_shared_read_only_tables():
    # the face simplices are built once per shape: every call hands out the
    # same table of the same arrays, which cannot be written, and the
    # subdivision loop leaves its input pieces as they were, whether it gets
    # the table or a dict of it
    for args in ((3, 1, False), (3, 2, False), (3, 3, False), (2, 1, True)):
        first, second = _face_piece_table(*args), _face_piece_table(*args)
        assert first is second and isinstance(first, tuple)
        for k, (V, supp) in first:
            with pytest.raises(ValueError):
                V[0, 0, 0] = 2.0
            with pytest.raises(ValueError):
                supp[0, 0] = not supp[0, 0]
    table = _face_piece_table(3, 1, True)
    before = [(k, V.copy(), supp.copy()) for k, (V, supp) in table]
    pieces = dict(table)
    for given in (table, pieces):
        _subdivide(given, _keep_all, leaf_edge=LEAF_EDGE)
    assert _face_piece_table(3, 1, True) is table and list(pieces) == [k for k, _, _ in before]
    for (k, (V, supp)), (want_k, want_V, want_supp) in zip(table, before):
        assert k == want_k and pieces[k][0] is V and pieces[k][1] is supp
        assert np.array_equal(V, want_V) and np.array_equal(supp, want_supp)


def test_subdivide_stops_when_nothing_survives():
    pieces = _pieces(3)
    alive, simplices = _subdivide(pieces, lambda k, V, supp: np.zeros(len(V), dtype=bool))
    assert alive == {} and simplices == 2**3 - 1


def test_subdivide_keeps_surviving_vertex_pieces_uncut():
    # a surviving vertex piece cannot be cut: it is judged once and comes
    # back as it was, and the loop goes on cutting the other survivors
    pieces = _pieces(3)
    judged = []

    def keep_all(k, V, supp):
        judged.append(k)
        return _keep_all(k, V, supp)

    alive, simplices = _subdivide(pieces, keep_all)
    assert judged.count(1) == 1 and sorted(alive) == [1, 2, 3]
    assert np.array_equal(alive[1][0], pieces[1][0]) and np.array_equal(alive[1][1], pieces[1][1])
    # the segments and the triangle were cut until the budget stopped it
    assert len(alive[2][0]) > 3 and len(alive[3][0]) > 1
    assert simplices <= PIECE_BUDGET < simplices + 2 * (len(alive[2][0]) + len(alive[3][0]))
    # with only vertex pieces left, nothing is left to judge
    alive, simplices = _subdivide(pieces, lambda k, V, supp: np.full(len(V), k == 1))
    assert simplices == 7 and sorted(alive) == [1] and np.array_equal(alive[1][0], pieces[1][0])
    # one vertex kept beside a segment cut to leaf_edge, as the homogeneous
    # search needs when a coordinate ray sits beside rays on another face
    alive, _ = _subdivide(pieces, lambda k, V, supp: np.full(len(V), k < 3) & supp[:, 0] & ~supp[:, 2],
                          leaf_edge=0.25)
    assert sorted(alive) == [1, 2] and alive[1][1].tolist() == [[True, False, False]]
    assert _longest_edges(alive[2][0]).max() < 0.25


def test_subdivide_stops_before_the_piece_budget():
    # one segment, every piece kept: round r judges 2^r pieces, and the loop
    # stops when the next round would take the count past PIECE_BUDGET
    pieces = _pieces(2, 2)
    alive, simplices = _subdivide(pieces, _keep_all)
    (V, _), = alive.values()
    assert simplices <= PIECE_BUDGET < simplices + 2 * len(V)
    assert (simplices, len(V)) == (2**12 - 1, 2**11) and _longest_edges(V).max() == 2.0**-11
    # a judge that retires the pieces away from one end: the next round
    # counts twice the survivors, not twice the pieces judged
    alive, judged = _subdivide(pieces, lambda k, V, supp: V[:, 0, 0] > 0.5)
    assert judged <= PIECE_BUDGET < judged + 2 * len(alive[2][0]) and judged > simplices // 2


def test_subdivide_stops_on_min_edge_and_on_leaf_edge():
    # segments halve their edge every round, triangles every other round or
    # so: min_edge stops at the first piece below it, leaf_edge only once
    # every piece is below it
    pieces = _pieces(3, 2)
    alive, simplices = _subdivide(pieces, _keep_all, min_edge=0.25)
    edges = np.concatenate([_longest_edges(V) for V, _ in alive.values()])
    assert edges.min() < 0.25 <= edges.max()
    assert edges.min() == 0.125 and simplices < 100
    alive, simplices = _subdivide(pieces, _keep_all, leaf_edge=0.25)
    edges = {k: _longest_edges(V) for k, (V, _) in alive.items()}
    assert max(e.max() for e in edges.values()) < 0.25
    # the segments went on being cut while the triangles got there
    assert edges[2].max() < 0.25 / 2 <= edges[3].max()
    # the leaf edge stopped it, not the budget
    assert simplices < PIECE_BUDGET


def test_subdivide_cuts_nothing_in_its_last_round(monkeypatch):
    # the stop rules read the longest edges and the piece count alone, so
    # the round that ends the loop makes no halves.  One segment halves its
    # edge each round: with leaf_edge 1/4, rounds of 1, 2, 4 and 8 pieces
    # are judged and the first three cut; on the budget, every round but
    # the last 2^11 survivors
    cut, bisect = [], subdivision_mod._bisect
    monkeypatch.setattr(subdivision_mod, "_bisect", lambda V, e, mid: cut.append(len(V)) or bisect(V, e, mid))
    pieces = _pieces(2, 2)
    alive, simplices = _subdivide(pieces, _keep_all, leaf_edge=0.25)
    assert (simplices, len(alive[2][0]), cut) == (15, 8, [1, 2, 4])
    cut.clear()
    alive, simplices = _subdivide(pieces, _keep_all)
    assert cut == [2**r for r in range(11)] and simplices - sum(cut) == len(alive[2][0]) == 2**11


def test_subdivide_stops_on_an_inexact_midpoint():
    V = np.array([[[1.0, 0.1], [0.0, 0.9]]])
    supp = np.ones((1, 2), dtype=bool)
    alive, simplices = _subdivide({2: (V, supp)}, _keep_all)
    assert simplices == 1 and np.array_equal(alive[2][0], V)


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
    # the coefficients of the catalog tensors and of Gaussian tensors of
    # order 2 to 5 on random nonnegative vertex sets of every size k
    rng = np.random.default_rng(12)
    tensors = [builtin_example(name).tensor.array for name in ("ex1", "gus", "monotone")]
    tensors += [random_gaussian(3, 3, rng).array for _ in range(3)] + [random_gaussian(4, 3, rng).array]
    tensors += [random_gaussian(2, 3, rng).array, random_gaussian(2, 4, rng).array, random_gaussian(5, 2, rng).array,
                random_gaussian(5, 3, rng).array]
    for arr in tensors:
        n = arr.shape[0]
        for k in range(1, n + 1):
            V = rng.uniform(0.0, 1.0, (4, n, k))
            V /= V.sum(axis=1, keepdims=True)
            got = _bernstein(arr, V)
            assert got.shape == (4, n, math.comb(k + arr.ndim - 2, arr.ndim - 1))
            assert np.allclose(got, _bernstein_by_einsum(arr, V), rtol=0, atol=1e-14)
    # face-supported vertex sets, zero off the support, as the point faces'
    # subdivision cuts them: the augmented (R, n + 1, ..) arrays of orders 2
    # to 5, R = n rows, on the apex face simplices and on their halves after
    # two rounds of cuts, and a single row
    for m, n in ((2, 3), (3, 3), (3, 4), (4, 3), (5, 2), (5, 3)):
        aug = rng.standard_normal((n,) + (n + 1,) * (m - 1))
        for k, (V, _) in _pieces(n, apex=True).items():
            for _ in range(3):
                for arr in (aug, aug[:1]):
                    got = _bernstein(arr, V)
                    assert got.shape == (len(V), len(arr), math.comb(k + m - 2, m - 1))
                    assert np.allclose(got, _bernstein_by_einsum(arr, V), rtol=0, atol=1e-14), (m, n, k)
                V = _cut(V)[0]
    # on a face simplex the coefficients of a vertex are the tensor's entries
    arr = tensors[3]
    coef = _bernstein(arr, np.eye(3)[None, :, [0, 2]])
    assert np.array_equal(coef[0, :, 0], arr[:, 0, 0]) and np.array_equal(coef[0, :, -1], arr[:, 2, 2])


def test_form_bernstein_coefficients_match_an_einsum_and_enclose_the_form():
    # the coefficients of A x^m, _bernstein's one-row case A[None], on random
    # nonnegative vertex sets: one einsum with V in every slot and an
    # explicit average over the slot permutations; the vertex coefficients
    # are the form at the vertices, and the form inside lies between the
    # least and the largest coefficient
    rng = np.random.default_rng(17)
    for m, n in ((2, 3), (3, 2), (3, 3), (4, 3), (3, 4)):
        arr = rng.standard_normal((n,) * m)
        letters, cols = "abcd"[:m], "pqrs"[:m]
        spec = letters + "," + ",".join(letters[s] + cols[s] for s in range(m)) + "->" + cols
        for k in range(1, n + 1):
            V = rng.uniform(0.0, 1.0, (3, n, k))
            V /= V.sum(axis=1, keepdims=True)
            got = _bernstein(arr[None], V)[:, 0]
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
    rng = np.random.default_rng(8)
    arr = rng.standard_normal((3, 3, 3))
    V = rng.dirichlet(np.ones(3), (50, 3)).transpose(0, 2, 1).copy()
    # the rows of A x^{m-1} and the one row of the form A x^m
    inputs = (arr, arr[None])
    wholes = [_bernstein(a, V) for a in inputs]
    # a piece of either takes R (k n^(d-1) + k^d) = 54 entries: one, then
    # three pieces per chunk
    for per_chunk in (1, 3):
        monkeypatch.setattr(subdivision_mod, "_TEMP_ENTRIES", per_chunk * 54)
        for a, whole in zip(inputs, wholes):
            assert np.array_equal(_bernstein(a, V), whole)
            for p in range(50):
                assert np.array_equal(_bernstein(a, V[p:p + 1]), whole[p:p + 1])


_BATCH_HASH = """
import hashlib, sys
import numpy as np
from tcplab.subdivision import _bernstein
arr, V = (np.load(sys.argv[1])[name] for name in ("arr", "V"))
print(hashlib.sha256(_bernstein(arr, V).tobytes()).hexdigest())
"""


def _augmented_batch(rng, m, n, count):
    """An augmented (n, n + 1, ..) array and count pieces (P, n + 1, n + 1):
    full-dimensional ones at random points of the simplex, then face-supported
    ones with the rows of a random support zeroed and the columns rescaled."""
    arr = rng.standard_normal((n,) + (n + 1,) * (m - 1))
    V = rng.dirichlet(np.ones(n + 1), (count, n + 1)).transpose(0, 2, 1).copy()
    face = V[count // 2:]
    face *= rng.uniform(size=(len(face), n + 1, 1)) < 0.7
    face[:, n] += 1e-3
    face /= face.sum(axis=1, keepdims=True)
    return arr, V


def test_bernstein_bits_do_not_depend_on_the_batch(tmp_path):
    # every piece runs the same products on its own data: its coefficients
    # are the same bits in a batch large enough to run in chunks, in that
    # batch permuted, on their own, and in a process with one BLAS thread
    rng = np.random.default_rng(21)
    arr, V = _augmented_batch(rng, 3, 4, 20_000)
    n, k = V.shape[1:]
    assert len(V) > subdivision_mod._TEMP_ENTRIES // (len(arr) * (k * n + k ** 2))
    whole = _bernstein(arr, V)
    perm = rng.permutation(len(V))
    assert np.array_equal(_bernstein(arr, V[perm]), whole[perm])
    for p in rng.choice(len(V), 40, replace=False):
        assert np.array_equal(_bernstein(arr, V[p:p + 1]), whole[p:p + 1])
    np.savez(tmp_path / "batch.npz", arr=arr, V=V)
    src = os.path.dirname(os.path.dirname(subdivision_mod.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _BATCH_HASH, str(tmp_path / "batch.npz")], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    assert child.stdout.strip() == hashlib.sha256(whole.tobytes()).hexdigest()


def test_leaf_subdivision_work_is_pinned(monkeypatch):
    # the pieces judged and the leaves by k of the point faces' subdivision of
    # two planted instances: a change to the coefficient kernel that moves an
    # exclusion decision shows here before any Newton counter moves
    work = []
    real = subdivision_mod._subdivide

    def recording(pieces, judge, **kw):
        out = real(pieces, judge, **kw)
        if kw.get("leaf_edge") == LEAF_EDGE:
            work.append((out[1], {k: len(V) for k, (V, _) in out[0].items()}))
        return out

    monkeypatch.setattr(subdivision_mod, "_subdivide", recording)
    for (m, n, seed), want in (((3, 4, 41), (3321, {2: 1, 3: 3, 4: 157, 5: 387})),
                               ((4, 3, 42), (1979, {3: 4, 4: 207}))):
        # a root x > 0 with full support planted at a = -A x^{m-1}
        rng = np.random.default_rng(seed)
        A = random_gaussian(m, n, rng)
        x = rng.uniform(0.5, 1.5, n)
        solve(TcpInstance(A, -contract(A, x)), SolverConfig())
        assert work[-1] == want, (m, n)
