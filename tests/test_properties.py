import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tcplab import (
    VERDICT_INCONCLUSIVE,
    SolverConfig,
    TcpInstance,
    Tensor,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    builtin_example,
    check_copositive,
    check_monotone,
    check_r0,
    contract,
    form,
    int_dual_cone_member,
    lsc_witness,
    max_residual,
    non_r0_witness,
    probe_gus,
    random_gaussian,
    scale,
    solve,
    with_rhs,
)
from tcplab.catalog import EXAMPLE_NAMES
from tcplab.model import enumerate_faces
from tcplab.properties import (
    CERT_TOL,
    _kkt_functions,
    _r0_report,
)
import tcplab.solver as solver_mod
from tcplab.solver import _newton, homogeneous_solve, homogeneous_solve_many
from tcplab.subdivision import _r0_certificate
from tcplab.tensors import contract_rows, gradient_sum, slot_sum

from lattice_reference import RANDOM_STARTS, lattice_certificate, simplex_starts

CFG = SolverConfig()


def _exact_subdivision(arr, tol):
    """(pieces judged, margin) of the R0 subdivision redone in exact
    rational arithmetic, with no rounding bound; None when a vertex piece
    survives.  A piece is excluded when a row's coefficients all clear zero
    on the excluding sign by more than tol * max|A|, and it is cut at the
    midpoint of its longest edge in the inf-norm, the first vertex pair on
    ties, as the certificate cuts."""
    n, m = arr.shape[0], arr.ndim
    A = {idx: Fraction(float(v)) for idx, v in np.ndenumerate(arr)}
    top = max(abs(v) for v in A.values())

    def coefficients(i, V):
        out = []
        for ms in itertools.combinations_with_replacement(range(len(V)), m - 1):
            perms = set(itertools.permutations(ms))
            total = sum(A[(i,) + js] * math.prod(V[l][j] for l, j in zip(p, js))
                        for p in perms for js in itertools.product(range(n), repeat=m - 1))
            out.append(total / len(perms))
        return out

    eye = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    todo = [([eye[i] for i in range(n) if mask >> i & 1], mask) for mask in range(1, 2**n)]
    judged, least = 0, None
    while todo:
        V, mask = todo.pop()
        judged += 1
        clear = []
        for i in range(n):
            c = coefficients(i, V)
            clear.append(min(-x for x in c))
            if mask >> i & 1:
                clear.append(min(c))
        if max(clear) > Fraction(tol) * top:
            least = max(clear) if least is None else min(least, max(clear))
            continue
        if len(V) == 1:
            return None
        pairs = list(itertools.combinations(range(len(V)), 2))
        a, b = max(pairs, key=lambda ab: (max(abs(x - y) for x, y in zip(V[ab[0]], V[ab[1]])), -pairs.index(ab)))
        mid = tuple((x + y) / 2 for x, y in zip(V[a], V[b]))
        todo.append(([mid if l == b else v for l, v in enumerate(V)], mask))
        todo.append(([mid if l == a else v for l, v in enumerate(V)], mask))
    return judged, least / top


def test_r0_holds_for_definite_sign_tensors():
    # the certificate is redone in exact arithmetic: the same pieces are
    # judged, all are excluded, and the margin is the exact one less at
    # most the rounding bounds
    for A in [builtin_example(name).tensor for name in ("ex1", "gus", "monotone")] + [random_gaussian(3, 3, 2)]:
        report = check_r0(A, CFG)
        assert report.holds
        judged, margin = _exact_subdivision(A.array, CFG.tol)
        assert report.certificate == {"simplices": judged, "margin": pytest.approx(float(margin), rel=0, abs=1e-13)}
        assert report.certificate["margin"] <= margin
        assert report.effort == {"starts": 0, "newton_iters": 0, "rays_found": 0, "simplices": judged}


def _planted_ray_tensor(m, n, rng):
    """A Gaussian tensor shifted so that A r^{m-1} is 0 on the support of a
    random r >= 0 and positive off it: r is a nonzero solution of TCP(A, 0)."""
    r = np.zeros(n)
    support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    r[support] = rng.uniform(0.5, 1.5, size=len(support))
    target = rng.uniform(0.5, 1.5, size=n)
    target[support] = 0.0
    G = rng.standard_normal((n,) * m)
    shift = (target - contract(Tensor(G), r)) / float(r @ r) ** (m - 1)
    return Tensor(G + np.einsum("i," + ",".join("abcdef"[:m - 1]) + "->i" + "abcdef"[:m - 1], shift, *([r] * (m - 1))))


def _tensors_with_rays():
    rng = np.random.default_rng(23)
    out = [Tensor.zeros(m, n) for m, n in ((2, 2), (3, 2), (3, 3), (4, 3), (3, 4))]
    for m, n in ((3, 3), (4, 3), (3, 4)):
        for mask in range(2**n - 1):
            out.append(non_r0_witness(m, n, [i + 1 for i in range(n) if mask >> i & 1], seed=mask))
        out.extend(_planted_ray_tensor(m, n, rng) for _ in range(6))
    r = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    G = np.random.default_rng(5).standard_normal((3, 3, 3))
    out.append(Tensor(G - np.einsum("i,j,k->ijk", np.einsum("ijk,j,k->i", G, r, r), r, r)))
    return out


def test_r0_certificate_never_certifies_a_tensor_with_a_ray():
    # zero tensors, the witnesses of every proper alpha, planted rays with
    # every support size and the full-support ray of the units test: the
    # subdivision stays undecided, and check_r0 fails with a ray that passes
    # the CERT_TOL re-check.  The search starts once from the centroid of
    # each surviving piece
    for A in _tensors_with_rays():
        cert = _r0_certificate(A, CFG.tol)
        assert not cert.holds and cert.margin is None and cert.starts
        report = check_r0(A, CFG)
        assert report.effort["starts"] == sum(len(z) for z in cert.starts.values())
        assert report.verdict == VERDICT_FAILS
        ray = np.array(report.certificate["ray"])
        assert np.min(ray) >= 0.0 and np.linalg.norm(ray) == pytest.approx(1.0)
        assert max_residual(TcpInstance(A, np.zeros(A.dim)), ray) <= CERT_TOL * max(float(np.max(np.abs(A.array))), 1.0)
        assert report.effort["simplices"] == cert.simplices


def test_r0_verdicts_agree_with_the_homogeneous_search(monkeypatch):
    # 81 seeded Gaussian tensors, positive tensors and the catalog: the
    # certify-first verdict, and a fails ray, are the ones the Newton search
    # from the lattice reference on every homogeneous face gives
    rng = np.random.default_rng(29)
    groups = [[random_gaussian(m, n, rng) for _ in range(count)]
              for m, n, count in ((3, 2, 30), (3, 3, 30), (4, 3, 15), (3, 4, 6))]
    groups += [[Tensor(rng.uniform(0.1, 1.0, (n,) * m)) for _ in range(3)] for m, n in ((3, 3), (4, 3), (3, 4))]
    groups.append([builtin_example(name).tensor for name in EXAMPLE_NAMES])
    certified = 0
    for tensors in groups:
        reports = [check_r0(A, CFG) for A in tensors]
        with monkeypatch.context() as patched:
            patched.setattr(solver_mod, "_r0_certificate", lattice_certificate)
            searched = [_r0_report(A, hom) for A, hom in zip(tensors, homogeneous_solve_many(tensors, CFG))]
        assert [r.verdict for r in reports] == [r.verdict for r in searched]
        for got, want in zip(reports, searched):
            if want.verdict == VERDICT_FAILS:
                assert np.allclose(got.certificate["ray"], want.certificate["ray"], rtol=0, atol=1e-12)
        certified += sum(r.certificate is not None for r in reports if r.holds)
    assert certified == 81 + 9 + 3


def _lattice_searches(monkeypatch, tensors):
    """homogeneous_solve_many of tensors from the lattice reference's starts."""
    with monkeypatch.context() as patched:
        patched.setattr(solver_mod, "_r0_certificate", lattice_certificate)
        return homogeneous_solve_many(tensors, CFG)


def _assert_same_search(got, want):
    """The same status, posdim faces and rays to 1e-6, except the ray that
    represents a continuum face: the accepted root nearest the face's
    centroid, which depends on the starts, only has to lie on that face."""
    assert got.status == want.status and got.posdim_suspect == want.posdim_suspect
    posdim = {face.mask for face in got.posdim_suspect}
    got_rays, want_rays = ([(r.face.mask, r.direction.tolist()) for r in sol.rays] for sol in (got, want))
    assert len(got_rays) == len(want_rays)
    for (face, u), (other, v) in zip(sorted(got_rays), sorted(want_rays)):
        assert face == other and (face in posdim or np.abs(np.subtract(u, v)).max() <= 1e-6), (u, v)


def _bench_ray_tensor(m, n, rng):
    """A Gaussian tensor with a planted ray r of 2..n positive entries, made
    as the benchmark's r0-classify workload makes them: the entries
    A[i, s, .., s] for the first s of supp r are shifted so that A r^{m-1}
    is 0 on supp r and positive off it."""
    arr = rng.standard_normal((n,) * m)
    support = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    r = np.zeros(n)
    r[support] = rng.uniform(0.5, 1.5, size=len(support))
    target = rng.uniform(0.5, 1.5, size=n)
    target[support] = 0.0
    s = int(support[0])
    shift = (target - contract(Tensor(arr), r)) / r[s] ** (m - 1)
    for i in range(n):
        arr[(i,) + (s,) * (m - 1)] += shift[i]
    return Tensor(arr)


def test_homogeneous_search_agrees_with_the_lattice_reference(monkeypatch):
    # zero tensors, the catalog, planted rays, witnesses of several supports
    # and Gaussians at n = 5, 6, where the R0 certificate runs out of
    # budget: starting from the certificate's surviving pieces gives the
    # status, rays, posdim faces and R0 verdict that the lattice search
    # over every face gives
    rng = np.random.default_rng(5)
    tensors = [Tensor.zeros(m, n) for m, n in ((3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (2, 4), (2, 6))]
    tensors += [builtin_example(name).tensor for name in EXAMPLE_NAMES]
    tensors += [_bench_ray_tensor(m, n, rng) for m, n in ((3, 3), (4, 3), (3, 4), (4, 4), (3, 5)) for _ in range(2)]
    tensors += [non_r0_witness(m, n, alpha, seed=s) for s, (m, n, alpha) in
                enumerate(((3, 2, ()), (3, 3, (1,)), (3, 3, (2, 3)), (4, 3, (3,)), (3, 4, (1, 4)), (3, 4, ())))]
    tensors += [random_gaussian(m, n, 0) for m, n in ((3, 5), (4, 5), (3, 6))]
    verdicts = set()
    for A in tensors:
        (got,), (want,) = homogeneous_solve_many([A], CFG), _lattice_searches(monkeypatch, [A])
        _assert_same_search(got, want)
        assert _r0_report(A, got).verdict == _r0_report(A, want).verdict
        verdicts.add(_r0_report(A, got).verdict)
    assert verdicts == {VERDICT_HOLDS, VERDICT_FAILS}


def _power(r, d):
    out = r
    for _ in range(d - 1):
        out = np.multiply.outer(out, r)
    return out


def _two_rays_beside_a_coordinate_ray(m, n, rng):
    """A tensor whose homogeneous solutions are (at least) two rays on one
    face beta, |beta| >= 2, and the coordinate ray of a j off beta, and
    those rays: each row of a Gaussian tensor is moved least-norm onto
    (A r^{m-1})_i = 0 on supp r and a positive target off it, for all three
    r at once."""
    face = np.sort(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
    j = int(rng.choice(np.setdiff1d(np.arange(n), face)))
    rays = []
    for _ in range(2):
        r = np.zeros(n)
        r[face] = rng.uniform(0.5, 1.5, size=len(face))
        rays.append(r / r.sum())
    rays.append(np.eye(n)[j])
    M = np.array([_power(r, m - 1).ravel() for r in rays])
    target = rng.uniform(0.5, 1.5, size=(3, n))
    target[np.array(rays) > 0] = 0.0
    G = rng.standard_normal((n, n ** (m - 1)))
    G += np.linalg.lstsq(M, target - M @ G.T, rcond=None)[0].T
    return Tensor(G.reshape((n,) * m)), [r / np.linalg.norm(r) for r in rays]


def test_homogeneous_search_finds_two_rays_beside_a_coordinate_ray(monkeypatch):
    # the coordinate ray keeps a vertex piece of the R0 subdivision alive;
    # the subdivision must still cut the face that holds the other two rays,
    # or that face gets a single start and one of its rays is lost
    rng = np.random.default_rng(0)
    cases = [_two_rays_beside_a_coordinate_ray(m, n, rng) for m, n in ((3, 3), (4, 3), (3, 4)) for _ in range(16)]
    for A, rays in cases:
        (got,), (want,) = homogeneous_solve_many([A], CFG), _lattice_searches(monkeypatch, [A])
        _assert_same_search(got, want)
        D = np.array([r.direction for r in got.rays])
        for r in rays:
            assert np.abs(D - r).max(axis=1).min() <= 1e-6, (A.array.shape, r)


def test_r0_certificate_verdicts_ignore_the_units_of_the_tensor():
    rng = np.random.default_rng(31)
    tensors = [builtin_example(name).tensor for name in EXAMPLE_NAMES]
    tensors += [random_gaussian(3, 3, rng) for _ in range(4)] + [random_gaussian(4, 3, rng)]
    tensors += _tensors_with_rays()[-3:]
    for A in tensors:
        ref = check_r0(A, CFG)
        for t in (1e-12, 1e-8, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = check_r0(scale(t, A), CFG)
            assert report.verdict == ref.verdict, t
            assert report.effort["simplices"] == ref.effort["simplices"], t


def test_r0_certificate_pieces_are_pinned():
    # the subdivision of one Gaussian m=3, n=4 tensor: a change to the cut,
    # the exclusion rules or the rounding margin shows in this count
    cert = _r0_certificate(random_gaussian(3, 4, 2), CFG.tol)
    assert cert.holds and cert.simplices == 683
    assert check_r0(random_gaussian(3, 4, 2), CFG).certificate["simplices"] == 683


def test_r0_fails_for_zero_tensor_with_validated_ray():
    report = check_r0(Tensor.zeros(3, 2), CFG)
    assert report.verdict == VERDICT_FAILS
    ray = np.array(report.certificate["ray"])
    assert np.min(ray) >= 0.0 and np.linalg.norm(ray) > 0.5
    zero_inst = TcpInstance(Tensor.zeros(3, 2), [0.0, 0.0])
    assert max_residual(zero_inst, ray) <= 1e-6
    assert report.certificate["residual"] <= 1e-6


def test_r0_on_a_multiplicity_ray_is_never_certified():
    # A x^5 = (1, 1) (x1 - 2 x2)^5, m = 6: the exact ray (2, 1) / sqrt(5) has
    # F = 0, a root of multiplicity 5.  The residual of the face's root,
    # about 6e-14, grows as t^6 along its tail and passes tol at t = 10, so
    # the flagged full face keeps no ray: R0 is inconclusive, never held
    v = np.array([1.0, -2.0])
    A = Tensor(np.einsum("i,j,k,l,p,q->ijklpq", np.ones(2), v, v, v, v, v))
    assert np.array_equal(contract(A, np.array([2.0, 1.0]) / math.sqrt(5.0)), [0.0, 0.0])
    report = check_r0(A, CFG)
    assert report.verdict != VERDICT_HOLDS
    assert report.verdict == VERDICT_INCONCLUSIVE and report.certificate is None
    assert report.effort["rays_found"] == 0 and report.effort["posdim_faces"] == [[]]


def test_r0_fails_for_constructed_witnesses():
    for alpha in ((), (1,), (2,)):
        W = non_r0_witness(3, 2, alpha, seed=11)
        report = check_r0(W, CFG)
        assert report.verdict == VERDICT_FAILS, alpha
        ray = np.array(report.certificate["ray"])
        assert max_residual(TcpInstance(W, np.zeros(2)), ray) <= 1e-6


def test_copositive_verdicts_on_catalog():
    # gus: form = x1^3 + x2^3 >= 0 on the orthant
    assert check_copositive(builtin_example("gus").tensor, CFG).holds
    assert check_copositive(Tensor.zeros(3, 2), CFG).holds
    report = check_copositive(builtin_example("ex1").tensor, CFG)
    assert report.verdict == VERDICT_FAILS
    x = np.array(report.certificate["x"])
    # minimum of -(x1 + x2)(x1^2 + x2^2) on the simplex sits at a vertex
    assert report.certificate["form"] == pytest.approx(-1.0, abs=1e-9)
    assert form(builtin_example("ex1").tensor, x) == pytest.approx(
        report.certificate["form"]
    )


def _simplex_grid(n: int, resolution: int) -> np.ndarray:
    """Every point of the simplex with coordinates in multiples of 1/resolution."""
    head = [p for p in itertools.product(range(resolution + 1), repeat=n - 1) if sum(p) <= resolution]
    pts = np.array([p + (resolution - sum(p),) for p in head], dtype=float)
    return pts / resolution


def _grid_forms(arr: np.ndarray, grid: np.ndarray) -> np.ndarray:
    letters = "abcdefghijkl"[: arr.ndim]
    subs = letters + "," + ",".join("p" + c for c in letters) + "->p"
    return np.einsum(subs, arr, *([grid] * arr.ndim))


def _shifted_gaussians():
    # a diagonal shift in [-0.5, 2.5] makes both verdicts occur at every (m, n)
    rng = np.random.default_rng(2024)
    for m, n in itertools.product((2, 3, 4), (2, 3, 4)):
        for _ in range(14):
            arr = rng.standard_normal((n,) * m)
            shift = rng.uniform(-0.5, 2.5)
            for i in range(n):
                arr[(i,) * m] += shift
            yield arr


def test_copositive_minimum_is_below_an_independent_grid():
    grids = {n: _simplex_grid(n, 40 if n <= 3 else 20) for n in (2, 3, 4)}
    verdicts = []
    for arr in _shifted_gaussians():
        A = Tensor(arr)
        report = check_copositive(A, CFG)
        grid_min = float(np.min(_grid_forms(arr, grids[A.dim])))
        big = float(np.max(np.abs(arr)))
        min_form = report.effort["min_form"]
        # every grid point is feasible, so the minimum cannot lie above it
        assert min_form <= grid_min + 1e-12 * big, (arr.shape, min_form, grid_min)
        if grid_min < -CFG.tol * big:
            assert report.verdict == VERDICT_FAILS
        x = np.array(report.effort["argmin"])
        assert np.min(x) >= 0.0 and abs(np.sum(x) - 1.0) <= 1e-12
        assert form(A, x) == min_form
        assert float(_grid_forms(arr, x[None])[0]) == pytest.approx(min_form, rel=1e-12, abs=1e-14)
        if report.verdict == VERDICT_FAILS:
            assert report.certificate == {"x": x.tolist(), "form": min_form}
            assert min_form < -CFG.tol * big
        verdicts.append(report.verdict)
    assert len(verdicts) >= 112
    assert verdicts.count(VERDICT_FAILS) >= 30 and verdicts.count(VERDICT_HOLDS) >= 30
    assert VERDICT_INCONCLUSIVE not in verdicts


def test_copositive_closed_forms():
    # the zero tensor: every face is positive-dimensional, the minimum is 0
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 4)):
        report = check_copositive(Tensor.zeros(m, n), CFG)
        assert report.holds and report.effort["min_form"] == 0.0
    # ex1: form = -(x1 + x2)(x1^2 + x2^2), minimum -1 at either vertex
    report = check_copositive(builtin_example("ex1").tensor, CFG)
    assert report.effort["min_form"] == -1.0
    assert sorted(report.effort["argmin"]) == [0.0, 1.0]
    # m = 2: on x = (t, 1 - t), x'Mx = a t^2 + 2 b t (1 - t) + c (1 - t)^2
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        a, b, c = M[0, 0], (M[0, 1] + M[1, 0]) / 2, M[1, 1]
        best = min(a, c)
        curv = a - 2 * b + c
        if curv > 0 and 0 < (c - b) / curv < 1:
            best = min(best, (a * c - b * b) / curv)
        report = check_copositive(Tensor(M), CFG)
        assert report.effort["min_form"] == pytest.approx(best, abs=1e-13)
        assert report.verdict == (VERDICT_FAILS if best < -CFG.tol else VERDICT_HOLDS)


def test_copositive_verdict_ignores_the_units_of_the_tensor():
    neg = np.random.default_rng(8).uniform(0.1, 1.0, (3, 3, 3))
    neg[1, 1, 1] = -0.7
    cases = [builtin_example("ex1").tensor, builtin_example("gus").tensor, Tensor(neg)]
    for A in cases:
        ref = check_copositive(A, CFG)
        for t in (1e-12, 1e-8, 1.0, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = check_copositive(scale(t, A), CFG)
            assert report.verdict == ref.verdict, t
            assert np.allclose(report.effort["argmin"], ref.effort["argmin"], rtol=0, atol=1e-12)
            assert report.effort["min_form"] == pytest.approx(t * ref.effort["min_form"], rel=1e-12)
            if report.verdict == VERDICT_FAILS:
                assert report.certificate["form"] == report.effort["min_form"]
    assert [check_copositive(A, CFG).verdict for A in cases] == [VERDICT_FAILS, VERDICT_HOLDS, VERDICT_FAILS]


def test_r0_and_monotone_verdicts_ignore_the_units_of_the_tensor():
    # A r r = 0 for the positive unit vector r, so r certifies that A is not
    # R0; F = (x2^2, 0) is not monotone.  Both verdicts held an absolute
    # threshold against values in A's units: check_r0 came out inconclusive
    # at t = 1e12, check_monotone holds-numerically at t = 1e-9.
    r = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    G = np.random.default_rng(5).standard_normal((3, 3, 3))
    non_r0 = Tensor(G - np.einsum("i,j,k->ijk", np.einsum("ijk,j,k->i", G, r, r), r, r))
    arr = np.zeros((2, 2, 2))
    arr[0, 1, 1] = 1.0
    non_monotone = Tensor(arr)
    ref = check_monotone(non_monotone, CFG)
    for t in (1e-12, 1e-8, 1.0, 1e12, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r0 = check_r0(scale(t, non_r0), CFG)
            mono = check_monotone(scale(t, non_monotone), CFG)
        assert r0.verdict == VERDICT_FAILS, t
        assert np.allclose(r0.certificate["ray"], r, rtol=0, atol=1e-9)
        assert r0.certificate["residual"] <= 1e-6 * t
        assert mono.verdict == VERDICT_FAILS, t
        assert mono.certificate["x"] == ref.certificate["x"] and mono.certificate["y"] == ref.certificate["y"]
        assert mono.certificate["pairing"] == pytest.approx(t * ref.certificate["pairing"], rel=1e-12)
        assert mono.effort["least_vertex_eigenvalue"] == pytest.approx(t * ref.effort["least_vertex_eigenvalue"], rel=1e-12)
    # check_monotone runs on A over its largest entry: on these tensors too,
    # and on the two that hold by their Gram matrices, the verdict, the
    # pieces and the eigenvalues are the same at every scale up to a largest
    # entry of 1e307, with no overflow, and a fails pair agrees to rounding
    for A in _monotone_cases()[:15] + _monotone_cases()[-2:]:
        ref = check_monotone(A, CFG)
        for t in (1e-12, 1e-8, 1e12, 1e200, 1e307 / (float(np.max(np.abs(A.array))) or 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mono = check_monotone(scale(t, A), CFG)
            assert mono.verdict == ref.verdict and mono.effort["simplices"] == ref.effort["simplices"]
            assert mono.effort["least_vertex_eigenvalue"] == pytest.approx(
                t * ref.effort["least_vertex_eigenvalue"], rel=1e-12, abs=1e-15 * t
            )
            if mono.verdict == VERDICT_FAILS:
                _assert_monotone_certificate(scale(t, A), mono)
                assert np.allclose(mono.certificate["x"], ref.certificate["x"], rtol=1e-12, atol=0)
                assert np.allclose(mono.certificate["y"], ref.certificate["y"], rtol=1e-12, atol=0)
            elif mono.certificate is not None:
                assert mono.certificate["least_eigenvalue"] == pytest.approx(
                    t * ref.certificate["least_eigenvalue"], rel=1e-12, abs=1e-15 * t
                )
    assert check_r0(Tensor.zeros(3, 2), CFG).verdict == VERDICT_FAILS
    assert check_monotone(Tensor.zeros(3, 2), CFG).verdict == VERDICT_HOLDS


def test_copositive_effort_counters_are_pinned():
    # the pieces judged, the starts and the KKT points found show in these
    # counts: a change to the branch and bound, the starts, the system or the
    # Newton stopping rules has to update them.  Seed 41's minimum is a
    # vertex, so every piece is retired and Newton never runs; seed 42's
    # lies inside the triangle
    pins = {41: (7, 0, 3, 0, 14), 42: (7, 4, 4, 15, 74)}
    for seed, want in pins.items():
        arr = random_gaussian(3, 3, seed).array.copy()
        for i in range(3):
            arr[i, i, i] += 1.0
        effort = check_copositive(Tensor(arr), CFG).effort
        counts = (effort["faces"], effort["grid_points"], effort["kkt_points"], effort["newton_iters"],
                  effort["simplices"])
        assert counts == want, seed


def _lattice_search(A: Tensor) -> tuple[str, float]:
    """(verdict, min_form) of check_copositive as it was before the branch
    and bound chose its starts: on every face with k >= 2, Newton on the KKT
    system from the simplex lattice of resolution 6 and RANDOM_STARTS seeded
    Dirichlet starts, the least form over the vertices, the KKT points and
    the starts judged on A divided by its largest entry."""
    n, m = A.dim, A.order
    big = float(np.max(np.abs(A.array)))
    unit = Tensor(A.array / big) if big > 0.0 else A
    G = gradient_sum(unit.array) / m
    kkt, starts = [np.eye(n)], []
    for k in range(2, n + 1):
        faces = [face for face in enumerate_faces(n) if n - len(face) == k]
        free = np.array([face.free_indices for face in faces])
        blocks = np.stack([G[np.ix_(*([f] * m))] for f in free])
        Z0 = np.vstack([np.vstack([simplex_starts(k, 6), rng.dirichlet(np.ones(k), RANDOM_STARTS)])
                        for rng in (np.random.default_rng([CFG.seed, face.mask, 4]) for face in faces)])
        owner = np.repeat(np.arange(len(faces)), len(Z0) // len(faces))
        fun, jac = _kkt_functions(blocks, np.stack([slot_sum(b) for b in blocks]), owner)
        Y0 = np.column_stack([Z0, np.sum(Z0 * contract_rows(blocks, Z0, owner), axis=1)])
        Y, resids, _ = _newton(fun, jac, Y0)
        ok = (resids <= CFG.tol / 10) & (np.min(Y[:, :-1], axis=1) >= -CFG.tol)
        X = np.zeros((2, len(Z0), n))
        X[:, np.arange(len(Z0))[:, None], free[owner]] = Z0, np.maximum(Y[:, :-1], 0.0)
        kkt.append(X[1, ok])
        starts.append(X[0])
    X = np.vstack(kkt + starts)
    X /= np.sum(X, axis=1, keepdims=True)
    vals = np.sum(X * contract_rows(unit.array, X), axis=1)
    x = X[int(np.argmin(vals))]
    if np.min(vals) < -CFG.tol:
        return (VERDICT_FAILS if form(unit, x) < -CFG.tol else VERDICT_INCONCLUSIVE), form(A, x)
    return VERDICT_HOLDS, form(A, x)


def _ridge_tensors():
    """Sums of (u.x)^2 (sum x)^{m-2} over vectors u orthogonal to an
    interior point p of the simplex, so the form is >= 0 with a zero at p:
    with n - 1 vectors p is an isolated zero, with one the zeros fill a
    ridge across the simplex.  Two of every four carry 1e-3 Gaussian noise,
    which leaves the minimum just above or below zero."""
    rng = np.random.default_rng(77)
    out = []
    for m, n in itertools.product((3, 4), (3, 4)):
        letters = "abcd"[:m]
        spec = ",".join(letters) + "->" + letters
        for j in range(4):
            p = rng.uniform(0.2, 1.0, n)
            p /= p.sum()
            U = rng.standard_normal((n - 1 if j % 2 == 0 else 1, n))
            U -= np.outer(U @ p, p) / (p @ p)
            arr = sum(np.einsum(spec, u, u, *([np.ones(n)] * (m - 2))) for u in U)
            if j >= 2:
                arr = arr + 1e-3 * rng.standard_normal(arr.shape)
            out.append(arr)
    return out


def test_copositive_search_agrees_with_the_lattice_search():
    # 190 tensors: the 126 shifted Gaussians, 40 unshifted ones, the catalog,
    # zero tensors and 16 ridge tensors.  The verdicts are the lattice
    # search's, and the minimum is never above its minimum by more than
    # rounding
    rng = np.random.default_rng(99)
    arrays = list(_shifted_gaussians())
    arrays += [rng.standard_normal((n,) * m) for m, n in itertools.product((3, 4), (3, 4)) for _ in range(10)]
    arrays += [builtin_example(name).tensor.array for name in EXAMPLE_NAMES]
    arrays += [np.zeros((n,) * m) for m, n in ((2, 2), (3, 2), (3, 3), (4, 4))]
    ridges = _ridge_tensors()
    arrays += ridges
    assert len(arrays) == 190
    fails = 0
    for arr in arrays:
        A = Tensor(arr)
        report = check_copositive(A, CFG)
        verdict, least = _lattice_search(A)
        assert report.verdict == verdict, arr.shape
        assert report.effort["min_form"] <= least + 1e-12 * float(np.max(np.abs(arr))), arr.shape
        fails += verdict == VERDICT_FAILS
    assert 30 <= fails <= len(arrays) - 30
    # the ridges sit at zero: the unperturbed ones hold with a minimum of
    # rounding size
    for arr in ridges[::4] + ridges[1::4]:
        report = check_copositive(Tensor(arr), CFG)
        assert report.holds and abs(report.effort["min_form"]) <= 1e-14


def _map_einsum(A, x):
    """A x^{m-1} by one einsum, independent of contract."""
    letters = "abcdefgh"[:A.order]
    return np.einsum(letters + "," + ",".join(letters[1:]), A.array, *([x] * (A.order - 1)))


def _assert_monotone_certificate(A, report):
    """A fails certificate of check_monotone re-checks with _map_einsum: x
    and y lie in the orthant and their pairing is the reported one, below
    -tol times the largest entry of A."""
    assert report.verdict == VERDICT_FAILS
    x, y = np.array(report.certificate["x"]), np.array(report.certificate["y"])
    assert x.min() >= 0.0 and y.min() >= 0.0
    ip = float((_map_einsum(A, y) - _map_einsum(A, x)) @ (y - x))
    assert ip == pytest.approx(report.certificate["pairing"], rel=1e-9)
    assert ip < -CFG.tol * float(np.max(np.abs(A.array)))


def _sum_of_powers(m, n, rng, vectors=2):
    """sum_k c_k^{(x) m} with c_k >= 0: F = sum_k (c_k . x)^{m-1} c_k has the
    Jacobian sum_k (m - 1) (c_k . x)^{m-2} c_k c_k^T, positive semidefinite
    on the orthant."""
    arr = np.zeros((n,) * m)
    for c in np.abs(rng.standard_normal((vectors, n))):
        arr += functools.reduce(np.multiply.outer, [c] * m)
    return Tensor(arr)


def _quartic_gradient(c):
    """F = grad(x1^4 + x2^4 + c x1^2 x2^2): J is its Hessian, whose
    eigenvalue on (1, -1) at x = (t, t) is (12 - 2 c) t^2, so F is monotone
    on the orthant iff c <= 6 (c >= 0)."""
    arr = np.zeros((2,) * 4)
    arr[0, 0, 0, 0] = arr[1, 1, 1, 1] = 4.0
    arr[0, 0, 1, 1] = arr[1, 0, 0, 1] = 2.0 * c
    return Tensor(arr)


def _monotone_cases():
    rng = np.random.default_rng(41)
    tensors = [builtin_example(name).tensor for name in ("ex1", "gus", "monotone", "zero")]
    tensors += [random_gaussian(m, 2, rng) for m in (2, 3, 4) for _ in range(3)]
    tensors += [scale(-1.0, builtin_example("gus").tensor), random_gaussian(3, 3, rng)]
    # F overflows on much of the grid, and inf - inf makes NaN pairings,
    # which count as +inf
    tensors += [Tensor(np.full((2,) * 4, 1e307)), scale(1e307, random_gaussian(4, 2, rng))]
    tensors += [_sum_of_powers(m, n, rng) for m in (2, 3, 4) for n in (2, 3)]
    tensors += [_quartic_gradient(c) for c in (5.0, 6.0, 6.5)]
    # F = grad sum_c (c . x)^4 for c = (1, -2, 0), then also (0, 1, -1): J +
    # J^T = 24 sum_c (c . x)^2 c c^T is PSD but singular on the lines c . x
    # = 0, and a piece across one has the negative coefficients 12 (c . v_a)
    # (c . v_b) c c^T, v_a and v_b two of its vertices, until its edges are
    # about sqrt(tol): the coefficient test alone runs out of pieces.  The
    # Gram matrix of the first piece, 12 sum_c (V^T c)(V^T c)^T (x) c c^T,
    # is PSD and holds them
    lines = [np.array([1.0, -2.0, 0.0]), np.array([0.0, 1.0, -1.0])]
    return tensors + [Tensor(sum(4.0 * functools.reduce(np.multiply.outer, [c] * 4) for c in cs)) for cs in (lines[:1], lines)]


def test_monotone_holds_for_decoupled_squares():
    # F = (x1^2, x2^2) has diagonal, nonnegative Jacobian on the orthant:
    # J + J^T is diag(4, 0) and diag(0, 4) at the vertices, and one piece
    # holds both as its Bernstein coefficients
    report = check_monotone(builtin_example("gus").tensor, CFG)
    assert report.holds
    assert report.certificate == {"simplices": 1, "least_eigenvalue": 0.0}
    assert report.effort == {"simplices": 1, "least_vertex_eigenvalue": 0.0}
    assert check_monotone(Tensor.zeros(3, 2), CFG).holds


def test_monotone_fails_for_sign_flipped_tensor():
    A = builtin_example("ex1").tensor
    report = check_monotone(A, CFG)
    _assert_monotone_certificate(A, report)
    x, y = np.array(report.certificate["x"]), np.array(report.certificate["y"])
    ip = float((contract(A, y) - contract(A, x)) @ (y - x))
    assert ip == report.certificate["pairing"]


def test_monotone_fails_for_coupled_sum_of_squares():
    # F = (x1^2 + x2^2, x1^2 + x2^2): the symmetrized Jacobian has
    # determinant -(x1 - x2)^2, so the pairing goes negative off the
    # diagonal, e.g. x = (2, 2), y = (0, 3) gives -1
    A = builtin_example("monotone").tensor
    x, y = np.array([2.0, 2.0]), np.array([0.0, 3.0])
    assert float((contract(A, y) - contract(A, x)) @ (y - x)) == pytest.approx(-1.0)
    report = check_monotone(A, CFG)
    _assert_monotone_certificate(A, report)
    # J + J^T = [[4, 2], [2, 0]] at the vertex e1, least eigenvalue 2 - sqrt(8)
    assert report.effort == {"simplices": 1, "least_vertex_eigenvalue": pytest.approx(2.0 - math.sqrt(8.0), rel=1e-12)}


def test_monotone_ignores_the_seed():
    for A in _monotone_cases()[:6]:
        reports = [check_monotone(A, SolverConfig(seed=seed)).to_json() for seed in (0, 5, 2**31 - 1)]
        assert reports[1:] == reports[:1] * 2


# the sample the monotonicity check used to test: a grid of 6 points per
# axis over [0, 2]^n and 200 seeded pairs
_GRID_BOX, _GRID_PER_AXIS, _GRID_RANDOM_PAIRS = 2.0, 6, 200


def _monotone_reference(A, seeds=(0, 5)):
    """The pair sample one pair at a time, for each seed: the grid pairs in
    combinations order, then the seeded pairs, keeping the first least
    pairing.  The grid part is the same at every seed and runs once.
    Returns the least pairing by seed."""
    n = A.dim
    axes = np.linspace(0.0, _GRID_BOX, _GRID_PER_AXIS)
    grid = np.stack([m.ravel() for m in np.meshgrid(*([axes] * n), indexing="ij")], axis=1)

    def least(pairs, worst):
        with np.errstate(over="ignore", invalid="ignore"):
            for (x, Fx), (y, Fy) in pairs:
                v = float((Fy - Fx) @ (y - x))
                if v < worst:
                    worst = v
        return worst

    def mapped(x):
        with np.errstate(over="ignore"):
            return x, contract(A, x)

    on_grid = least(itertools.combinations([mapped(x) for x in grid], 2), np.inf)
    out = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 2])
        drawn = []
        for _ in range(_GRID_RANDOM_PAIRS):
            x = rng.uniform(0.0, _GRID_BOX, n)
            drawn.append((mapped(x), mapped(rng.uniform(0.0, _GRID_BOX, n))))
        out.append(least(drawn, on_grid))
    return out


def test_monotone_search_equals_a_per_pair_loop():
    # every tensor that a pair of the grid sample refutes fails, every fails
    # certificate re-checks with its own einsum, and every other tensor
    # holds
    refuted = 0
    for i, A in enumerate(_monotone_cases()):
        report = check_monotone(A, CFG)
        tol = CFG.tol * float(np.max(np.abs(A.array)))
        for seed, v in zip((0, 5), _monotone_reference(A)):
            if v < -tol:
                assert report.verdict == VERDICT_FAILS, (i, seed)
                refuted += seed == 0
        if report.verdict == VERDICT_FAILS:
            _assert_monotone_certificate(A, report)
        else:
            assert report.verdict == VERDICT_HOLDS, i
            assert report.certificate["least_eigenvalue"] >= -tol, i
    assert refuted == 14
    # the singular lines at the end of the cases hold in one piece
    assert [check_monotone(A, CFG).effort["simplices"] for A in _monotone_cases()[-2:]] == [1, 1]
    # c = 6.001: the Hessian has the eigenvalue -0.002 t^2 at x = (t, t), but
    # every pair of the sample is at least 0.4 apart, and there the pairing
    # is positive; the check refutes at the vertex (1/2, 1/2) of the second
    # round
    A = _quartic_gradient(6.001)
    assert all(v > 1e-3 for v in _monotone_reference(A))
    report = check_monotone(A, CFG)
    _assert_monotone_certificate(A, report)
    assert report.effort == {"simplices": 3, "least_vertex_eigenvalue": pytest.approx(-0.001, rel=1e-9)}


def test_monotone_fails_near_the_largest_float():
    # c = 6.000001: the refuting pair sits near (64, 64), where A y^3 in A's
    # units overflows once max|A| passes about 1e305, and the check used to
    # come out inconclusive there.  It re-checks on A over a power of two,
    # so A times 2^s fails with the same pair and the pairing times 2^s
    A = _quartic_gradient(6.000001)
    ref = check_monotone(A, CFG)
    _assert_monotone_certificate(A, ref)
    big = float(np.max(np.abs(A.array)))
    for top in (1e300, 8.3e305, 1e307, 1.7e308):
        s = math.floor(math.log2(top / big))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_monotone(Tensor(np.ldexp(A.array, s)), CFG)
        assert report.verdict == VERDICT_FAILS, top
        assert report.certificate == {**ref.certificate, "pairing": math.ldexp(ref.certificate["pairing"], s)}
        assert report.effort["least_vertex_eigenvalue"] == math.ldexp(ref.effort["least_vertex_eigenvalue"], s)


def test_monotone_holds_only_where_copositive():
    # for a monotone F, <F(x) - F(0), x - 0> = A x^m is nonnegative on the
    # orthant, so a tensor that holds must not fail check_copositive
    held = 0
    for i, A in enumerate(_monotone_cases()):
        if check_monotone(A, CFG).holds:
            held += 1
            assert check_copositive(A, CFG).verdict != VERDICT_FAILS, i
    assert held == 13


def test_monotone_verdicts_at_n_6_take_one_piece():
    # a sum of powers holds and a Gaussian fails at the first piece, where
    # the pair grid would have tested 6^12 / 2 pairs
    rng = np.random.default_rng(3)
    for A, verdict in ((_sum_of_powers(3, 6, rng, 3), VERDICT_HOLDS), (random_gaussian(3, 6, rng), VERDICT_FAILS)):
        report = check_monotone(A, CFG)
        assert report.verdict == verdict and report.effort["simplices"] == 1
        if verdict == VERDICT_HOLDS:
            assert report.certificate["simplices"] == 1 and report.certificate["least_eigenvalue"] >= -CFG.tol
        else:
            _assert_monotone_certificate(A, report)


def test_monotone_verdicts_at_m_3_n_2_match_exact_arithmetic():
    # at m = 3, J is linear in x, so J + J^T >= 0 on the simplex iff it holds
    # at e1 and e2, where it is the 2 x 2 matrix of
    # A[i, j, k] + A[i, k, j] + A[j, i, k] + A[j, k, i]: PSD iff its diagonal
    # and determinant are >= 0, decided here in Fractions
    rng = np.random.default_rng(12)
    gus = builtin_example("gus").tensor.array
    tensors = [Tensor(gus + 0.2 * random_gaussian(3, 2, rng).array) for _ in range(24)]
    tensors += [random_gaussian(3, 2, rng) for _ in range(8)] + [_sum_of_powers(3, 2, rng) for _ in range(8)]
    verdicts = []
    for A in tensors:
        W = {idx: Fraction(float(v)) for idx, v in np.ndenumerate(A.array)}
        psd = True
        for k in range(2):
            M = [[W[i, j, k] + W[i, k, j] + W[j, i, k] + W[j, k, i] for j in range(2)] for i in range(2)]
            psd &= M[0][0] >= 0 and M[1][1] >= 0 and M[0][0] * M[1][1] >= M[0][1] ** 2
        verdicts.append(check_monotone(A, CFG).verdict)
        assert verdicts[-1] == (VERDICT_HOLDS if psd else VERDICT_FAILS)
    assert verdicts.count(VERDICT_HOLDS) > 8 and verdicts.count(VERDICT_FAILS) > 8


def test_gus_probe_rejects_negative_sample_counts():
    with pytest.raises(ValueError, match="samples"):
        probe_gus(builtin_example("gus").tensor, CFG, samples=-5)


def test_gus_probe_on_decoupled_squares():
    report = probe_gus(builtin_example("gus").tensor, CFG)
    assert report.holds
    assert report.effort["samples"] >= 200


def test_gus_probe_rejects_multi_solution_tensor():
    report = probe_gus(builtin_example("ex1").tensor, CFG)
    assert report.verdict == VERDICT_FAILS
    cert = report.certificate
    # re-run the certificate right-hand side and confirm non-uniqueness
    from tcplab import solve

    sol = solve(with_rhs(builtin_example("ex1"), cert["a"]), CFG)
    assert len(sol.points) != 1 or sol.rays or sol.posdim_suspect
    assert sol.status == cert["status"]


def test_gus_probe_reports_the_first_failing_sample(monkeypatch):
    # the right-hand sides are solved in chunks; the certificate and the
    # sample count are those of a loop that stops at the first non-unique
    # sample.  The first tensor fails at samples 6, 8, 9 and 11 (1-based),
    # the second at every sample but a few.
    import tcplab.solver as solver_mod

    def first_failure(A, samples):
        rhs = [np.array(p, dtype=float) for p in itertools.product((-1.0, 0.0, 1.0), repeat=A.dim)]
        rng = np.random.default_rng([CFG.seed, 3])
        rhs.extend(rng.standard_normal(A.dim) for _ in range(samples))
        for tried, a in enumerate(rhs, 1):
            sol = solve(TcpInstance(A, a), CFG)
            if len(sol.points) != 1 or sol.rays or sol.posdim_suspect:
                return {"a": a.tolist(), "n_points": len(sol.points), "n_rays": len(sol.rays),
                        "status": sol.status}, tried
        return None, tried

    for seed in (12, 3):
        A = random_gaussian(3, 2, seed)
        cert, tried = first_failure(A, 10)
        assert cert is not None and (seed != 12 or tried == 6)
        for chunk in (solver_mod._MANY_CHUNK, 1):
            monkeypatch.setattr(solver_mod, "_MANY_CHUNK", chunk)
            report = probe_gus(A, CFG, samples=10)
            assert report.verdict == VERDICT_FAILS
            assert report.certificate == cert and report.effort == {"samples": tried}


def test_gus_probe_rejects_zero_tensor():
    report = probe_gus(Tensor.zeros(3, 2), CFG, samples=0)
    assert report.verdict == VERDICT_FAILS


def test_lsc_witness_flags_positive_dimensional_faces():
    wit = lsc_witness(solve(with_rhs(builtin_example("ex1"), [1.0, 1.0]), CFG))
    assert wit.verdict == "not-lsc"
    assert wit.faces and wit.faces[0].mask == 0
    d = wit.to_json()
    assert d["verdict"] == "not-lsc" and d["faces"] == [[]]


def test_lsc_witness_clean_case():
    wit = lsc_witness(solve(builtin_example("gus"), CFG))
    assert wit.verdict == "no-obstruction"
    assert wit.faces == []


def test_int_dual_cone_membership():
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    assert int_dual_cone_member([e1, e2], [1.0, 2.0], 1e-8)
    assert not int_dual_cone_member([e1, e2], [1.0, 0.0], 1e-8)  # boundary
    assert not int_dual_cone_member([e2], [1.0, -1.0], 1e-8)
    assert int_dual_cone_member([], [-5.0, -5.0], 1e-8)  # cone {0}: vacuous


def test_property_report_shape():
    report = check_r0(builtin_example("gus").tensor, CFG)
    d = report.to_json()
    assert set(d) == {"property", "verdict", "certificate", "effort"}
    assert d["property"] == "r0"
    assert report.holds
