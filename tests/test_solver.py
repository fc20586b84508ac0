import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from tcplab import (
    BudgetError,
    FaceMask,
    STATUS_EMPTY,
    STATUS_FINITE,
    STATUS_NON_ISOLATED,
    SolverConfig,
    TcpInstance,
    Tensor,
    brute_force_oracle,
    builtin_example,
    check_copositive,
    check_r0,
    chi_bound,
    contract,
    enumerate_faces,
    hausdorff_excess,
    homogeneous_solve,
    homogeneous_solve_many,
    max_residual,
    non_r0_witness,
    random_gaussian,
    ray_active,
    residual,
    scale,
    solve,
    solve_many,
    with_rhs,
)
import tcplab.properties as properties_mod
import tcplab.solver as solver_mod
import tcplab.subdivision as subdivision_mod
from tcplab.model import FaceStore, face_system
from tcplab.solver import (
    _ARMIJO_STEPS,
    DEDUP_RADIUS,
    NEWTON_ATOL,
    NEWTON_MAX_ITER,
    POSDIM_ROOT_LIMIT,
    _dedup,
    _face_functions,
    _newton,
    _newton_steps,
)
from tcplab.subdivision import _leaf_starts, _r0_certificate
from tcplab.tensors import contract_rows, jacobian_rows, slot_sum

from lattice_reference import lattice_certificate, simplex_starts

CFG = SolverConfig()


def _points(sol):
    return sorted(p.x.tolist() for p in sol.points)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-3)  # DEDUP_RADIUS must dominate tol
    with pytest.raises(ValueError):
        SolverConfig(tol=float("nan"))
    # a float, NaN or string seed used to pass here and raise TypeError
    # inside numpy once an experiment drew from it
    for seed in (-1, 1.5, float("nan"), "3"):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=seed)
    # below 10 * NEWTON_ATOL a root that meets Newton's stop rule can fail the
    # tol / 10 filter: at 1e-16 the instance of test_work_counters_are_pinned
    # came out exact-empty, where 1e-8 finds two points
    for tol in (1e-16, 9.9e-14):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)
    assert SolverConfig(tol=10 * NEWTON_ATOL).tol == 1e-13


def test_meta_echoes_tol_and_the_fixed_constants():
    # the config holds tol and seed only, and no solver reads the seed; meta
    # echoes tol and the solver's module constants.  A homogeneous result
    # also carries its R0 certificate's pieces judged and margin, None when
    # the certificate is undecided
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "seed"]
    constants = {"tol": 1e-08, "dedup_radius": 1e-05, "newton_max_iter": 100, "leaf_edge": 0.125}
    assert solve(builtin_example("ex1"), SolverConfig()).to_json()["meta"] == {
        **constants, "starts": 2, "newton_iters": 6, "hom_candidates": 0, "faces": 4}
    cert = _r0_certificate(builtin_example("ex1").tensor, CFG.tol)
    assert homogeneous_solve(builtin_example("ex1").tensor, CFG).to_json()["meta"] == {
        **constants, "homogeneous": True, "starts": 0, "newton_iters": 0, "simplices": cert.simplices,
        "margin": cert.margin}
    cert = _r0_certificate(Tensor.zeros(3, 2), CFG.tol)
    meta = homogeneous_solve(Tensor.zeros(3, 2), CFG).to_json()["meta"]
    assert meta["simplices"] == cert.simplices and meta["margin"] is None


def test_two_ball_instance_closed_forms():
    # F(x) = a - (x1^2 + x2^2)*(1,1): with a = (2,1) exactly the origin and
    # (0, 1) solve, since a free-face root would need a1 = a2
    inst = builtin_example("ex1")
    sol = solve(inst, CFG)
    assert sol.status == STATUS_FINITE
    got = np.array(_points(sol))
    want = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-6
    assert sol.rays == [] and sol.posdim_suspect == []
    for p in sol.points:
        assert max_residual(inst, p.x) <= CFG.tol
        assert p.kkt_res <= 10 * CFG.tol


def test_unique_solution_instance():
    inst = builtin_example("gus")  # F(x) = (x1^2 - 1, x2^2 - 4)
    sol = solve(inst, CFG)
    assert sol.status == STATUS_FINITE
    got = np.array(_points(sol))
    assert got.shape == (1, 2)
    assert np.abs(got[0] - [1.0, 2.0]).max() <= 1e-6


def test_positive_dimensional_circle_is_flagged_not_enumerated():
    # a = (1,1) puts a whole quarter circle of solutions on the free face
    inst = with_rhs(builtin_example("ex1"), [1.0, 1.0])
    sol = solve(inst, CFG)
    assert sol.status == STATUS_NON_ISOLATED
    assert any(f.mask == 0 for f in sol.posdim_suspect)
    # the isolated roots survive: the origin plus the two wall endpoints of
    # the circle arc; interior circle points are withheld as non-isolated
    got = np.array(_points(sol))
    want = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-6


def test_degenerate_root_snaps_to_its_face():
    # with a = (-1, 0) the unique solution (1, 0) sits on a smaller face; the
    # full-face Newton run stalls near it and must not report a twin
    inst = with_rhs(builtin_example("gus"), [-1.0, 0.0])
    sol = solve(inst, CFG)
    assert sol.status == STATUS_FINITE
    got = np.array(_points(sol))
    assert got.shape == (1, 2)
    assert np.abs(got[0] - [1.0, 0.0]).max() <= 1e-6


def test_exact_empty_certificate_cases():
    zero = Tensor.zeros(3, 2)
    sol = solve(TcpInstance(zero, [-1.0, 0.0]), CFG)
    assert sol.status == STATUS_EMPTY
    assert sol.points == [] and sol.rays == []


def test_zero_tensor_solution_structure():
    zero = Tensor.zeros(3, 2)
    # a = (0, 2): x = (t, 0) solves for every t >= 0
    sol = solve(TcpInstance(zero, [0.0, 2.0]), CFG)
    assert any(np.allclose(r.direction, [1.0, 0.0]) for r in sol.rays)
    # a >= 0 strictly: only the origin
    sol = solve(TcpInstance(zero, [1.0, 2.0]), CFG)
    assert sol.status == STATUS_FINITE
    assert _points(sol) == [[0.0, 0.0]]


def _starts_of(inst, homogeneous=False):
    """The faces of inst and the Newton starts of each, as solve hands them
    on: the leaves of the augmented subdivision, or with homogeneous the
    surviving pieces of the R0 certificate."""
    unit = solver_mod._unit_pair(inst.tensor, inst.a)
    faces = enumerate_faces(inst.n)[:-1] if homogeneous else enumerate_faces(inst.n)
    starts = _r0_certificate(inst.tensor, CFG.tol).starts if homogeneous else _leaf_starts(unit, CFG.tol)
    return faces, [starts.get(face.mask, np.zeros((0, face.n - len(face)))) for face in faces]


def test_all_zero_faces_take_the_newton_path():
    # on a face whose equations all vanish every feasible start is a root.
    # With a = (0, 2) the k = 1 face [2] holds the whole ray x = (t, 0), so
    # it is flagged, and it runs a start from each of its leaves: no piece
    # of its segment is ever excluded, and the loop cuts it with the open
    # face's triangle, whose survivors keep an edge above LEAF_EDGE, until
    # PIECE_BUDGET stops it after 9 rounds.  The faces [] and [1] hold the
    # infeasible row F_2 = 2, so it is the only face that runs
    zero = Tensor.zeros(3, 2)
    inst = TcpInstance(zero, [0.0, 2.0])
    sol = solve(inst, CFG)
    assert [f.to_json() for f in sol.posdim_suspect] == [[2]]
    assert [r.direction.tolist() for r in sol.rays] == [[1.0, 0.0]]
    _, starts = _starts_of(inst)
    assert sol.meta["starts"] == len(starts[2]) == 2**9
    # with a = 0 no piece is excluded: every face but {0} runs Newton from
    # all 2^9 of its leaves and holds a continuum
    inst = TcpInstance(zero, [0.0, 0.0])
    sol = solve(inst, CFG)
    assert [f.to_json() for f in sol.posdim_suspect] == [[], [1], [2]]
    _, starts = _starts_of(inst)
    assert [len(z) for z in starts] == [2**9, 2**9, 2**9, 0] and sol.meta["starts"] == 3 * 2**9
    # every homogeneous face runs Newton too; a k = 1 face meets the simplex
    # in one point, a plain ray, while the open face is flagged.  The R0
    # certificate excludes nothing: it keeps the two vertex pieces and cuts
    # the segment until the budget stops it after 10 cuts, and each
    # surviving piece starts Newton once
    hom = homogeneous_solve(zero, CFG)
    assert [f.to_json() for f in hom.posdim_suspect] == [[]]
    assert [1.0, 0.0] in [r.direction.tolist() for r in hom.rays]
    assert [0.0, 1.0] in [r.direction.tolist() for r in hom.rays]
    _, starts = _starts_of(TcpInstance(zero, [0.0, 0.0]), homogeneous=True)
    assert hom.meta["starts"] == sum(len(z) for z in starts) == 1 + 1 + 2**10


def test_rows_below_the_zero_tolerance_are_solved_as_zero():
    # F_2 = 1e-15 * x2^2 counts as a vanishing row on the face [1]; solved as
    # written, Newton would leave a trail of isolated points along the ray
    # x = (0, t) that solves the instance within tol
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 1.0
    arr[1, 1, 1] = 1e-15
    inst = TcpInstance(Tensor(arr), [0.0, 0.0])
    assert np.array_equal(face_system(inst, FaceMask.from_indices(2, [1])).block, np.zeros((1, 1, 1)))
    sol = solve(inst, CFG)
    assert [f.to_json() for f in sol.posdim_suspect] == [[1]]
    assert _points(sol) == [[0.0, 0.0]]


def test_ray_active_tail_conditions():
    zero = Tensor.zeros(3, 2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert ray_active(TcpInstance(zero, [0.0, 2.0]), e1, 1e-8)
    assert not ray_active(TcpInstance(zero, [1.0, 1.0]), e1, 1e-8)
    assert not ray_active(TcpInstance(zero, [-1.0, 0.0]), e2, 1e-8)
    # off the support a negative a_j is outweighed by a positive tail slack
    arr = np.zeros((3, 3, 3))
    arr[2, 0, 0] = 1.0
    assert ray_active(TcpInstance(Tensor(arr), [0.0, 0.0, -1.0]), [1.0, 0.0, 0.0], 1e-8)
    assert not ray_active(TcpInstance(Tensor(arr), [0.0, -1.0, 0.0]), [1.0, 0.0, 0.0], 1e-8)


def _ray_active_loop(inst, r, tol):
    """ray_active one coordinate at a time: the reference for its array form."""
    Fr = contract(inst.tensor, r)
    for i in range(inst.n):
        if r[i] > tol:
            if abs(inst.a[i]) > tol or abs(Fr[i]) > tol:
                return False
        elif Fr[i] < -tol or (Fr[i] <= tol and inst.a[i] < -tol):
            return False
    return True


def test_ray_active_matches_the_per_coordinate_test():
    # directions with coordinates at 0, at tol and above it, against a and
    # F(r) drawn from {-1, -tol, 0, tol, 1}: every branch of the per-coordinate
    # test, both verdicts, and the ties at tol
    rng = np.random.default_rng(17)
    tol, values = 1e-8, np.array([-1.0, -1e-8, 0.0, 1e-8, 1.0])
    verdicts = []
    for _ in range(400):
        n = int(rng.integers(2, 4))
        r = rng.choice([0.0, tol, 0.5, 1.0], size=n)
        # A[i, j, j] = target_i / r_j^2, j the largest coordinate, makes
        # F(r) = target up to rounding (F(r) = 0 when r = 0)
        arr = np.zeros((n, n, n))
        target = rng.choice(values, size=n)
        j = int(np.argmax(r))
        for i in range(n):
            arr[i, j, j] = target[i] / r[j] ** 2 if r[j] > 0.0 else 0.0
        inst = TcpInstance(Tensor(arr), rng.choice(values, size=n))
        want = _ray_active_loop(inst, r, tol)
        assert ray_active(inst, r, tol) is want, (r, inst.a, target)
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def test_homogeneous_solve_finds_witness_ray():
    from tcplab import non_r0_witness

    W = non_r0_witness(3, 2, (1,), seed=9)
    hom = homogeneous_solve(W, CFG)
    assert any(np.abs(r.direction - [0.0, 1.0]).max() <= 1e-9 for r in hom.rays)
    for r in hom.rays:
        assert abs(np.linalg.norm(r.direction) - 1.0) <= 1e-12
        assert max_residual(TcpInstance(W, np.zeros(2)), r.direction) <= CFG.tol


def test_homogeneous_solve_r0_tensor_has_no_rays():
    hom = homogeneous_solve(builtin_example("ex1").tensor, CFG)
    assert hom.rays == [] and hom.posdim_suspect == []
    hom = homogeneous_solve(builtin_example("gus").tensor, CFG)
    assert hom.rays == []


def test_homogeneous_cone_property():
    # rescaling a homogeneous solution stays a solution at every t > 0
    W = Tensor.zeros(3, 2)
    inst = TcpInstance(W, np.zeros(2))
    hom = homogeneous_solve(W, CFG)
    assert hom.rays
    for r in hom.rays:
        for t in (0.5, 1.0, 2.0, 10.0):
            assert max_residual(inst, t * r.direction) <= CFG.tol


def test_homogeneous_newton_ray_on_isolated_diagonal():
    # F = (x1^2 - x2^2, x1*x2 - x2^2) vanishes exactly on the diagonal ray;
    # on the simplex section that root is isolated, so it comes out as a
    # plain ray with no posdim flag, certified along the whole tail
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 1.0
    arr[0, 1, 1] = -1.0
    arr[1, 0, 1] = 1.0
    arr[1, 1, 1] = -1.0
    A = Tensor(arr)
    hom = homogeneous_solve(A, CFG)
    assert hom.posdim_suspect == []
    assert len(hom.rays) == 1
    assert np.abs(hom.rays[0].direction - np.sqrt(0.5)).max() <= 1e-9
    zero_inst = TcpInstance(A, np.zeros(2))
    for t in (0.5, 1.0, 2.0, 10.0):
        assert max_residual(zero_inst, t * hom.rays[0].direction) <= CFG.tol


def test_homogeneous_rays_certify_along_the_tail():
    # F = (x1^2 - x2^2, 0, 0) in n = 3: the solutions form the 2-d cone
    # x1 = x2, whose simplex section is a curve; the free face must be
    # flagged posdim and every emitted direction must satisfy the instance
    # along the whole sampled tail
    arr = np.zeros((3, 3, 3))
    arr[0, 0, 0] = 1.0
    arr[0, 1, 1] = -1.0
    A = Tensor(arr)
    hom = homogeneous_solve(A, CFG)
    assert hom.posdim_suspect
    assert hom.rays
    zero_inst = TcpInstance(A, np.zeros(3))
    for r in hom.rays:
        assert abs(r.direction[0] - r.direction[1]) <= 1e-9
        for t in (0.5, 1.0, 2.0, 10.0):
            assert max_residual(zero_inst, t * r.direction) <= CFG.tol


def test_homogeneous_scaling_invariance():
    from tcplab import non_r0_witness

    for seed in (1, 4):
        A = non_r0_witness(3, 3, (2,), seed=seed)
        base = homogeneous_solve(A, CFG)
        scaled = homogeneous_solve(scale(3.0, A), CFG)
        d1 = sorted(r.direction.tolist() for r in base.rays)
        d2 = sorted(r.direction.tolist() for r in scaled.rays)
        assert len(d1) == len(d2)
        for u, v in zip(d1, d2):
            assert np.abs(np.array(u) - v).max() <= 1e-8


def _assert_points(sol, want, tol):
    got = _points(sol)
    assert len(got) == len(want)
    if got:
        assert np.abs(np.array(got) - np.array(sorted(want))).max() <= tol


def test_solution_set_does_not_depend_on_units():
    # Sol(tA, ta) = Sol(A, a) for every t > 0, down to 1e-12 and up to 1e200
    for name in ("gus", "ex1"):
        inst = builtin_example(name)
        base = solve(inst, CFG)
        assert base.status == STATUS_FINITE
        for t in (1e-12, 1e-8, 1e200):
            scaled = TcpInstance(scale(t, inst.tensor), t * inst.a)
            sol = solve(scaled, CFG)
            assert sol.status == STATUS_FINITE and not sol.rays and not sol.posdim_suspect
            _assert_points(sol, _points(base), 1e-9)
            for p in sol.points:
                # kkt_res is measured against the caller's (tA, ta)
                assert p.kkt_res == max_residual(scaled, p.x)


def _random_m3_n2(count):
    rng = np.random.default_rng(31)
    return [TcpInstance(random_gaussian(3, 2, rng), rng.normal(size=2)) for _ in range(count)]


def test_rhs_homogeneity_scales_solutions():
    # x solves (A, a) iff t x solves (A, t^{m-1} a)
    for inst in _random_m3_n2(4):
        base = solve(inst, CFG)
        for t in (0.25, 4.0):
            sol = solve(TcpInstance(inst.tensor, t**2 * inst.a), CFG)
            assert sol.status == base.status
            _assert_points(sol, [[t * v for v in x] for x in _points(base)], 1e-8)


def test_coordinate_permutation_permutes_solutions():
    perm = [1, 0]
    for inst in _random_m3_n2(4):
        swapped = TcpInstance(Tensor(inst.tensor.array[np.ix_(perm, perm, perm)]), inst.a[perm])
        base, sol = solve(inst, CFG), solve(swapped, CFG)
        assert sol.status == base.status
        _assert_points(sol, [np.array(x)[perm].tolist() for x in _points(base)], 1e-9)


def test_batched_newton_rows_match_one_row_batches():
    # open face of a Gaussian m=3, n=3 instance on a start grid: z = 0 has
    # J = 0 exactly, several starts stall at a positive residual, and the
    # rest converge after different numbers of iterations.  The
    # simplex-augmented system runs the rectangular steps on the same starts.
    rng = np.random.default_rng(8)
    store = FaceStore([TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3))], [0], [FaceMask(3, 0)])
    g = np.linspace(0.0, 3.0, 4)
    starts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    for simplex in (False, True):
        fun, jac = _face_functions(store, np.zeros(len(starts), int), simplex)
        Z, res, its = _newton(fun, jac, starts)
        for z0, z, r, it in zip(starts, Z, res, its):
            z1, r1, it1 = _newton(fun, jac, z0[None])
            assert np.array_equal(z1[0], z) and r1[0] == r and it1[0] == it
    Z, res, its = _newton(*_face_functions(store, np.zeros(len(starts), int), False), starts)
    assert its[0] == 0 and np.array_equal(Z[0], starts[0])
    assert np.any((res > 1e-3) & (its > 0) & (its < NEWTON_MAX_ITER))
    assert len(set(its[res <= NEWTON_ATOL].tolist())) > 1


def test_newton_steps_leave_non_finite_jacobians_without_a_step():
    # an inf or NaN row, a singular row and a regular row: the non-finite
    # row gets a NaN step, which _newton drops, and the other two the steps
    # they get without it
    J = np.array([[[0.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]], [[2.0, 1.0], [1.0, 3.0]]])
    f = np.array([[1.0, 1.0], [1.0, -1.0], [0.5, 2.0]])
    want = _newton_steps(J[1:], f[1:])
    assert np.isfinite(want).all()
    for bad in (np.inf, np.nan):
        J[0, 0, 0] = bad
        step = _newton_steps(J, f)
        assert np.isnan(step[0]).all() and np.array_equal(step[1:], want), bad


def test_newton_never_steps_a_row_with_a_non_finite_start():
    # rows 3 and 10 report an inf and a NaN residual at their starts: they
    # come back with their start, a non-finite residual and 0 iterations,
    # and every other row as it comes back from the batch without them
    rng = np.random.default_rng(8)
    store = FaceStore([TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3))], [0], [FaceMask(3, 0)])
    g = np.linspace(0.0, 3.0, 4)
    starts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    bad = {3: np.inf, 10: np.nan}
    good = np.setdiff1d(np.arange(len(starts)), list(bad))
    for simplex in (False, True):
        fun, jac = _face_functions(store, np.zeros(len(starts), int), simplex)

        def bad_fun(rows, Z):
            F = fun(rows, Z)
            for row, value in bad.items():
                F[rows == row] = value
            return F

        Z, res, its = _newton(bad_fun, jac, starts)
        want = _newton(fun, jac, starts[good])
        for got, ref in zip((Z, res, its), want):
            assert np.array_equal(got[good], ref)
        rows = list(bad)
        assert np.array_equal(Z[rows], starts[rows]) and not np.isfinite(res[rows]).any()
        assert np.isnan(res[10]) and not its[rows].any()
        assert its[good].any()


def _sequential_newton(fun, jac, Z0, max_iter, accepted_at):
    """Damped Newton with the Armijo search run one step length at a time:
    the reference for _newton's blocked search.  Appends, per accepted
    step, its number of halvings to accepted_at (-1 when every step length
    failed)."""
    Z = np.array(Z0, dtype=float)
    F = fun(np.arange(len(Z)), Z)
    phi = np.sum(F * F, axis=1)
    iters = np.zeros(Z.shape[0], dtype=int)
    stalled = np.zeros(Z.shape[0], dtype=int)
    live = np.arange(Z.shape[0])
    for it in range(max_iter):
        live = live[np.max(np.abs(F[live]), axis=1) > NEWTON_ATOL]
        if not live.size:
            break
        step = _newton_steps(jac(live, Z[live]), F[live])
        snorm = np.sum(step * step, axis=1)
        keep = np.isfinite(snorm) & (snorm != 0.0)
        live, step = live[keep], step[keep]
        if not live.size:
            break
        iters[live] = it + 1
        moved = np.zeros(live.size, dtype=bool)
        pending = np.arange(live.size)
        for h, t in enumerate(_ARMIJO_STEPS):
            rows = live[pending]
            Zt = Z[rows] + t * step[pending]
            Ft = fun(rows, Zt)
            phit = np.sum(Ft * Ft, axis=1)
            acc = np.isfinite(phit) & (phit <= (1.0 - 1e-4 * t) * phi[rows])
            if acc.any():
                accepted_at.extend([h] * int(acc.sum()))
                r = rows[acc]
                stalled[r] = np.where(phit[acc] > 0.5 * phi[r], stalled[r] + 1, 0)
                Z[r], F[r], phi[r] = Zt[acc], Ft[acc], phit[acc]
                moved[pending[acc]] = True
                pending = pending[~acc]
                if not pending.size:
                    break
        accepted_at.extend([-1] * pending.size)
        live = live[moved & (stalled[live] < 12)]
    return Z, np.max(np.abs(F), axis=1), iters


def _counted(fun, jac, calls):
    def counted_fun(rows, Z):
        calls.append(("fun", Z.shape[0]))
        return fun(rows, Z)

    def counted_jac(rows, Z):
        calls.append(("jac", Z.shape[0]))
        return jac(rows, Z)

    return counted_fun, counted_jac


@pytest.mark.parametrize("block_rows", [solver_mod._ARMIJO_BLOCK_ROWS, 50])
def test_blocked_armijo_matches_sequential_search(monkeypatch, block_rows):
    # 216 grid starts on the open face of a Gaussian m=3, n=3 instance: on
    # the square system many steps are accepted only after more than 15
    # halvings, on both systems some rows exhaust all 31 step lengths.  Each
    # row's z, residual and iteration count must equal the sequential
    # search's, and no residual call may hold more than max(live rows,
    # _ARMIJO_BLOCK_ROWS) points (the live rows are the rows of the
    # iteration's Jacobian call).
    monkeypatch.setattr(solver_mod, "_ARMIJO_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(8)
    store = FaceStore([TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3))], [0], [FaceMask(3, 0)])
    g = np.linspace(0.0, 3.0, 6)
    starts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    exhausted = 0
    for system, simplex in (("square", False), ("simplex", True)):
        fun, jac = _face_functions(store, np.zeros(len(starts), int), simplex)
        accepted_at: list[int] = []
        ref_calls: list[tuple[str, int]] = []
        want = _sequential_newton(*_counted(fun, jac, ref_calls), starts, NEWTON_MAX_ITER, accepted_at)
        calls: list[tuple[str, int]] = []
        got = _newton(*_counted(fun, jac, calls), starts)
        for w, v in zip(want, got):
            assert w.dtype == v.dtype and np.array_equal(w, v), system
        if system == "square":
            assert max(accepted_at) > 15
        exhausted += accepted_at.count(-1)
        live = len(starts)
        for kind, rows in calls:
            if kind == "jac":
                live = rows
            else:
                assert rows <= max(live, block_rows), (system, rows, live)
        assert len(calls) < len(ref_calls)
    assert exhausted > 0


_REJECT_REASONS = ("residual", "boundary", "snapped", "pinned", "kkt")

# the point-face starts solve used before the augmented subdivision, kept
# as a reference: a grid over [0, 5]^k with 9 points per axis, fewer where
# that passes 3200 points, plus 16 uniform draws seeded by (seed, face, 0)
def _box_grid_starts(k, seed, mask):
    if k == 0:
        return np.zeros((0, 0))
    g = 9
    while g > 2 and g**k > 3200:
        g -= 1
    axes = np.linspace(0.0, 5.0, g)
    grid = np.stack([m.ravel() for m in np.meshgrid(*([axes] * k), indexing="ij")], axis=1)
    return np.vstack([grid, np.random.default_rng([seed, mask, 0]).uniform(0.0, 5.0, size=(16, k))])


def _box_grid_leaf_starts(unit, tol):
    """The box grid in place of _leaf_starts, seeded as with seed 0."""
    return {face.mask: _box_grid_starts(unit.n - len(face.zero_indices), 0, face.mask)
            for face in enumerate_faces(unit.n)}


def _per_start_filter(store, f, Z, resids, cfg):
    """The root filter run one start at a time on face f of the store: the
    reference for _filter_roots, with its own embedding and pinned slack.
    Returns the reason each start is rejected, or "kept"."""
    inst, face = store.instance(f), store.masks[f]
    free, pinned = list(face.free_indices), list(face.zero_indices)

    def embed(z):
        x = np.zeros(inst.n)
        x[free] = z
        return x

    # the homogeneous faces are checked against a = 0
    check_inst = TcpInstance(inst.tensor, np.zeros(inst.n)) if not inst.a.any() else inst
    tol = cfg.tol
    snap = max(DEDUP_RADIUS, 10.0 * NEWTON_ATOL ** (1.0 / max(2, inst.m - 1)))
    reasons = []
    for z, resid in zip(Z, resids):
        x = embed(z)
        small = z <= snap
        if resid > tol / 10:
            reasons.append("residual")
        elif float(np.min(z)) <= tol:
            reasons.append("boundary")
        elif small.any() and max_residual(check_inst, embed(np.where(small, 0.0, z))) <= tol:
            reasons.append("snapped")
        elif pinned and not float(np.min(inst.F(x)[pinned])) >= -tol:
            reasons.append("pinned")
        elif max_residual(check_inst, x) > tol:
            reasons.append("kkt")
        else:
            reasons.append("kept")
    return reasons


def test_array_root_filter_matches_per_start_filter(monkeypatch):
    # every face that solve and homogeneous_solve visit on three Gaussian
    # m=3, n=3 instances, plus the degenerate instance whose full-face roots
    # snap onto a smaller face; the array filter must keep exactly the starts
    # the per-start filter keeps, and every rejection reason but the last
    # (a KKT residual above tol after the other tests pass) must occur.  The
    # point faces run from their leaves and then from the box grid
    # (_box_grid_starts), whose far and boundary starts give every reason
    real = solver_mod._filter_roots
    seen = {}

    def checked(store, f, Z, resids, cfg):
        got = real(store, f, Z, resids, cfg)
        reasons = _per_start_filter(store, f, Z, resids, cfg)
        assert got.tolist() == [i for i, r in enumerate(reasons) if r == "kept"]
        for r in reasons:
            seen[r] = seen.get(r, 0) + 1
        return got

    monkeypatch.setattr(solver_mod, "_filter_roots", checked)
    rng = np.random.default_rng(1)
    insts = [TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3)) for _ in range(3)]
    insts.append(with_rhs(builtin_example("gus"), [-1.0, 0.0]))
    for inst in insts:
        solve(inst, CFG)
    monkeypatch.setattr(solver_mod, "_leaf_starts", _box_grid_leaf_starts)
    for inst in insts:
        solve(inst, CFG)
    assert all(seen.get(r, 0) > 0 for r in _REJECT_REASONS[:-1] + ("kept",)), seen


def test_face_size_batches_match_one_face_runs(monkeypatch):
    # every face of a Gaussian m=3, n=4 instance with solutions on faces of
    # sizes 1, 3 and 4, point and homogeneous mode: the faces of one size
    # share a Newton batch on the stacked kernel, and each face's end points,
    # residuals and iteration counts, and its outcome, must equal those of
    # the face solved alone.  The point faces run twice: from their leaves,
    # which leave some faces without a start, and from the box grid, which
    # gives all 15 a start.  The homogeneous faces run from the lattice
    # reference, which gives all 15 a start too
    real = solver_mod._face_outcome
    ends = {}

    def recording(store, f, Z, resids, iters, *rest):
        ends[store.masks[f].mask] = (Z.copy(), resids.copy(), iters.copy())
        return real(store, f, Z, resids, iters, *rest)

    monkeypatch.setattr(solver_mod, "_face_outcome", recording)
    rng = np.random.default_rng(2)
    A, a = random_gaussian(3, 4, rng), rng.normal(size=4)
    found = 0
    for homogeneous, make_starts in ((False, _leaf_starts), (False, _box_grid_leaf_starts),
                                     (True, lambda unit, tol: lattice_certificate(unit.tensor, tol).starts)):
        unit = solver_mod._unit_pair(A, np.zeros(4) if homogeneous else a)
        faces = enumerate_faces(4)[:-1]
        found_starts = make_starts(unit, CFG.tol)
        starts = [found_starts.get(face.mask, np.zeros((0, 4 - len(face)))) for face in faces]
        ends.clear()
        grouped = solver_mod._solve_faces([unit], [(0, face) for face in faces], starts, CFG, homogeneous)
        batch = dict(ends)
        assert sorted(batch) == [face.mask for face, z in zip(faces, starts) if len(z)]
        if make_starts is not _leaf_starts:
            assert sorted(batch) == list(range(15))
        for face, z, out in zip(faces, starts, grouped):
            ends.clear()
            (alone,) = solver_mod._solve_faces([unit], [(0, face)], [z], CFG, homogeneous)
            if len(z):
                for u, v in zip(batch[face.mask], ends[face.mask]):
                    assert u.dtype == v.dtype and np.array_equal(u, v), face
            assert (out.starts, out.newton_iters, out.posdim) == (alone.starts, alone.newton_iters, alone.posdim)
            for got, want in ((out.points, alone.points), (out.rays, alone.rays)):
                assert len(got) == len(want) and all(np.array_equal(u, v) for u, v in zip(got, want))
            found += len(out.points) + len(out.rays)
    assert found > 0


def _json(sols):
    return [json.dumps(s.to_json(), sort_keys=True) for s in sols]


def _many_cases():
    # one list per (m, n): a Gaussian instance, the degenerate gus a=(-1, 0),
    # the non-isolated ex1 a=(1, 1) and a certified ray; then two Gaussian
    # m=3, n=3 instances
    rng = np.random.default_rng(8)
    small = [
        TcpInstance(random_gaussian(3, 2, rng), rng.normal(size=2)),
        with_rhs(builtin_example("gus"), [-1.0, 0.0]),
        with_rhs(builtin_example("ex1"), [1.0, 1.0]),
        TcpInstance(Tensor.zeros(3, 2), [0.0, 2.0]),
    ]
    big = [TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3)) for _ in range(2)]
    return small, big


def test_solve_many_equals_one_by_one_solves():
    small, big = _many_cases()
    for insts in (small, big):
        assert _json(solve_many(insts, CFG)) == _json([solve(inst, CFG) for inst in insts])
    statuses = [s.status for s in solve_many(small, CFG)]
    assert statuses[1:] == [STATUS_FINITE, STATUS_NON_ISOLATED, "unbounded-suspect"]
    # instances sharing a tensor, among instances that do not
    gus = builtin_example("gus")
    insts = [with_rhs(gus, a) for a in ([-1.0, -4.0], [-1.0, 0.0], [1.0, 1.0], [0.0, -2.0])]
    insts = insts[:2] + small + insts[2:]
    assert _json(solve_many(insts, CFG)) == _json([solve(inst, CFG) for inst in insts])
    tensors = [inst.tensor for inst in small] + [non_r0_witness(3, 2, (1,), seed=9)]
    assert _json(homogeneous_solve_many(tensors, CFG)) == _json([homogeneous_solve(A, CFG) for A in tensors])
    assert solve_many([], CFG) == [] and homogeneous_solve_many([], CFG) == []


def _undecided_cases():
    # instances whose tensors have nonzero homogeneous solutions, so the R0
    # certificate leaves them undecided and TCP(A, 0) runs on the face
    # solver: the zero tensor, two witnesses and a Gaussian shifted to have
    # A r r = 0 for a positive r
    rng = np.random.default_rng(8)
    r = np.array([1.0, 2.0]) / np.sqrt(5.0)
    G = random_gaussian(3, 2, rng).array
    shifted = Tensor(G - np.einsum("i,j,k->ijk", np.einsum("ijk,j,k->i", G, r, r), r, r))
    tensors = [Tensor.zeros(3, 2), non_r0_witness(3, 2, (1,), seed=1), non_r0_witness(3, 2, (2,), seed=2), shifted]
    insts = [TcpInstance(A, rng.normal(size=2)) for A in tensors]
    assert not any(_r0_certificate(A, CFG.tol).holds for A in tensors)
    return insts


def _counting_face_solver(monkeypatch):
    """Record the homogeneous flag of every face-solver call, and the number
    of faces of each homogeneous one."""
    real = solver_mod._solve_faces
    calls, hom_systems = [], []

    def counted(units, faces, starts, cfg, homogeneous):
        calls.append(homogeneous)
        if homogeneous:
            hom_systems.append(len(faces))
        return real(units, faces, starts, cfg, homogeneous)

    monkeypatch.setattr(solver_mod, "_solve_faces", counted)
    return calls, hom_systems


def test_solve_many_chunks_change_nothing(monkeypatch):
    # with a budget that holds one instance per chunk every instance gets a
    # face-solver call of its own; the results stay the same
    small = _undecided_cases()
    calls, _ = _counting_face_solver(monkeypatch)
    tensors = [inst.tensor for inst in small]
    whole = _json(solve_many(small, CFG)), _json(homogeneous_solve_many(tensors, CFG))
    assert calls == [False, True, True]
    calls.clear()
    monkeypatch.setattr(solver_mod, "_MANY_CHUNK", 1)
    chunked = _json(solve_many(small, CFG)), _json(homogeneous_solve_many(tensors, CFG))
    assert calls == [False, True] * len(small) + [True] * len(small)
    assert chunked == whole


def test_face_batches_stay_under_the_budget_and_change_nothing(monkeypatch):
    # the faces of one size run in Newton batches of whole faces under
    # _MANY_CHUNK starts times n^m, at least one face each; a smaller budget
    # splits them into more batches and every result stays the same, bit
    # for bit
    rng = np.random.default_rng(44)
    shapes = ((3, 3), (4, 3), (2, 4), (3, 4), (4, 4))
    insts = [TcpInstance(random_gaussian(m, n, rng), rng.normal(size=n)) for m, n in shapes]
    insts.append(with_rhs(builtin_example("ex1"), [1.0, 1.0]))
    real, batches = solver_mod._newton, []

    def counted(fun, jac, Z0):
        batches.append(len(Z0))
        return real(fun, jac, Z0)

    monkeypatch.setattr(solver_mod, "_newton", counted)
    default = solver_mod._MANY_CHUNK
    counts = []
    for inst in insts:
        n, m = inst.n, inst.tensor.order
        monkeypatch.setattr(solver_mod, "_MANY_CHUNK", default)
        batches.clear()
        whole = _json([solve(inst, CFG)])
        default_batches = list(batches)
        # a budget of one start: every batch holds one whole face, and the
        # same rows run
        monkeypatch.setattr(solver_mod, "_MANY_CHUNK", n**m)
        batches.clear()
        assert _json([solve(inst, CFG)]) == whole
        assert sum(batches) == sum(default_batches)
        counts.append((len(default_batches), len(batches)))
        faces = {len(z) for hom in (False, True) for z in _starts_of(inst, hom)[1]}
        assert set(batches) <= faces
    # only faces of one size share a batch, so an instance whose leaves
    # start one face of each size runs the same batches: the (4, 4) instance
    # starts one face of size 4 and two of size 3, which split
    assert all(small >= count for count, small in counts) and counts[4][1] > counts[4][0]


def test_solve_many_solves_each_distinct_tensor_once(monkeypatch):
    # two tensor values, each held by three separate Tensor objects: one
    # homogeneous solve per value, also when every instance is a chunk of
    # its own.  Certified tensors make no homogeneous call
    rng = np.random.default_rng(6)
    undecided = [inst.tensor.array for inst in _undecided_cases()[1:3]]
    certified = [random_gaussian(3, 2, rng).array for _ in range(2)]
    assert all(_r0_certificate(Tensor(arr), CFG.tol).holds for arr in certified)
    _, hom_systems = _counting_face_solver(monkeypatch)
    # the certificates leave pieces on 2 of the 3 faces of each undecided
    # tensor, and the search gathers those faces alone
    assert [len(_r0_certificate(Tensor(arr), CFG.tol).starts) for arr in undecided] == [2, 2]
    for arrays, want_systems in ((undecided, 2 + 2), (certified, 0)):
        insts = [TcpInstance(Tensor(arrays[i % 2].copy()), rng.normal(size=2)) for i in range(6)]
        monkeypatch.setattr(solver_mod, "_MANY_CHUNK", 1 << 21)
        want = _json([solve(inst, CFG) for inst in insts])
        for chunk in (1 << 21, 1):
            monkeypatch.setattr(solver_mod, "_MANY_CHUNK", chunk)
            hom_systems.clear()
            assert _json(solve_many(insts, CFG)) == want
            assert sum(hom_systems) == want_systems, chunk


def test_a_solve_ignores_the_seed():
    # nothing a solve does is drawn at random: solve, homogeneous_solve and
    # check_r0 give the same bytes at every seed, on certified tensors and on
    # tensors whose homogeneous search runs
    rng = np.random.default_rng(4)
    insts = [builtin_example("ex1"), with_rhs(builtin_example("ex1"), [1.0, 1.0]),
             TcpInstance(Tensor.zeros(3, 2), [0.0, 2.0]), TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3)),
             TcpInstance(non_r0_witness(3, 3, (1,), seed=2), rng.normal(size=3))]

    def outputs(cfg):
        return [json.dumps(out.to_json(), sort_keys=True) for inst in insts
                for out in (solve(inst, cfg), homogeneous_solve(inst.tensor, cfg), check_r0(inst.tensor, cfg))]

    want = outputs(SolverConfig(seed=0))
    for seed in (1, 2**31 - 1):
        assert outputs(SolverConfig(seed=seed)) == want, seed


def test_each_tensor_is_certified_once_and_a_certified_one_builds_no_face_system(monkeypatch):
    # solve_many, check_r0 and stability_inclusion_check run each distinct
    # tensor's R0 certificate once; the homogeneous search of a certified
    # tensor gathers no face and runs no Newton row, so every face gathered
    # is a point face, and every simplex-augmented Newton system belongs to
    # the undecided tensor.  A face is gathered (systems records each
    # gathered face's tensor) only when it has starts, and the face {0} of
    # each point solve
    from tcplab import stability_inclusion_check

    certs, systems, simplex = [], [], []
    real_cert, real_store, real_functions = solver_mod._r0_certificate, solver_mod.FaceStore, solver_mod._face_functions

    def counted_cert(A, tol):
        certs.append(A.array.tobytes())
        return real_cert(A, tol)

    def counted_store(instances, which, masks):
        systems.extend(instances[j].tensor.array.tobytes() for j in which)
        return real_store(instances, which, masks)

    def counted_functions(store, owner, is_simplex):
        if is_simplex:
            simplex.extend(store.instance(f).tensor.array.tobytes() for f in range(len(store.masks)))
        return real_functions(store, owner, is_simplex)

    monkeypatch.setattr(solver_mod, "_r0_certificate", counted_cert)
    monkeypatch.setattr(solver_mod, "FaceStore", counted_store)
    monkeypatch.setattr(solver_mod, "_face_functions", counted_functions)
    gus, W = builtin_example("gus").tensor, non_r0_witness(3, 2, (1,), seed=9)
    G = random_gaussian(3, 2, 7)
    assert real_cert(gus, CFG.tol).holds and real_cert(G, CFG.tol).holds and not real_cert(W, CFG.tol).holds
    unit_W = solver_mod._unit_pair(W, np.zeros(2)).tensor.array.tobytes()
    insts = [TcpInstance(A, a) for A in (gus, W, G, gus, W) for a in ([1.0, -1.0], [-1.0, 0.5])]
    solve_many(insts, CFG)
    assert sorted(certs) == sorted(A.array.tobytes() for A in (gus, W, G))
    # the leaves start 14 of the 3 * 10 point faces that are not {0}, and
    # the certificate of W leaves pieces on 2 of its 3 homogeneous faces
    assert len(systems) == 14 + len(insts) + 2 and systems.count(unit_W) == 2
    assert simplex and set(simplex) == {unit_W}
    for A in (gus, G):
        certs.clear(), systems.clear()
        assert check_r0(A, CFG).certificate is not None
        assert certs == [A.array.tobytes()] and systems == []
    certs.clear(), systems.clear(), simplex.clear()
    assert check_r0(W, CFG).verdict == "fails" and certs == [W.array.tobytes()] and set(simplex) == {unit_W}
    certs.clear(), systems.clear(), simplex.clear()
    report = stability_inclusion_check(gus, [1.0, 1.0], 0.05, 4, CFG)
    # the base solve, and two right-hand sides for each drawn tensor
    assert report.summary["collected"] == 4 and len(certs) == len(set(certs)) == 1 + 4
    # (A, a) near (gus, (1, 1)) solves at the origin alone: the leaves start
    # no face, and each solve gathers its face {0}, which still returns the
    # origin
    assert len(systems) == 1 + 2 * 4 and simplex == []
    systems.clear()
    sol = solve(TcpInstance(gus, [1.0, 1.0]), CFG)
    assert len(systems) == 1 and [p.x.tolist() for p in sol.points] == [[0.0, 0.0]]


def test_certified_tensors_skip_the_homogeneous_search(monkeypatch):
    # a solve of a certified tensor gives, bit for bit, what it gives with
    # the homogeneous Newton search run from the lattice reference as well,
    # and makes no such call
    rng = np.random.default_rng(12)
    insts = [TcpInstance(random_gaussian(m, n, rng), rng.normal(size=n)) for m, n in ((3, 2), (3, 3), (4, 3))]
    insts += [with_rhs(builtin_example(name), [1.0, -1.0]) for name in ("ex1", "gus", "monotone")]
    calls, _ = _counting_face_solver(monkeypatch)
    got = [_json([solve(inst, CFG)]) for inst in insts]
    assert True not in calls
    monkeypatch.setattr(solver_mod, "_r0_certificate", lattice_certificate)
    assert [_json([solve(inst, CFG)]) for inst in insts] == got
    assert calls.count(True) == len(insts)


def test_dedup_limit_keeps_the_first_roots_of_the_full_scan(monkeypatch):
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(1, 60)), 2))
        cands = [(p, float(r)) for p, r in zip(pts, rng.uniform(0.0, 1e-9, len(pts)))]
        full = _dedup(cands, 0.1)
        for limit in (1, 3, len(full), len(full) + 5):
            got = _dedup(cands, 0.1, limit)
            assert len(got) == min(limit, len(full)) and all(np.array_equal(u, v) for u, v in zip(got, full))
    # a face of the zero tensor holds a continuum: its scan stops past
    # POSDIM_ROOT_LIMIT roots and the solve is the one a full scan gives
    kept = []

    def recording(cands, radius, limit=None):
        out = _dedup(cands, radius, limit)
        if limit is not None:
            kept.append(len(out))
        return out

    monkeypatch.setattr(solver_mod, "_dedup", recording)
    inst = TcpInstance(Tensor.zeros(3, 4), np.zeros(4))
    got = _json([solve(inst, CFG)])
    assert kept and max(kept) == POSDIM_ROOT_LIMIT + 1
    monkeypatch.setattr(solver_mod, "_dedup", lambda cands, radius, limit=None: _dedup(cands, radius))
    assert _json([solve(inst, CFG)]) == got


def test_solve_many_needs_one_shape():
    gus = builtin_example("gus")
    with pytest.raises(ValueError, match="share"):
        solve_many([gus, TcpInstance(random_gaussian(3, 3, 1), np.ones(3))], CFG)
    with pytest.raises(ValueError, match="share"):
        homogeneous_solve_many([gus.tensor, random_gaussian(4, 2, 1)], CFG)


def test_continuum_face_rays_sit_at_the_face_centroid():
    # every face of the zero tensor holds a cone of solutions; a flagged
    # face reports its centroid ray, not one next to a coordinate ray that
    # is reported beside it
    sol = homogeneous_solve(Tensor.zeros(3, 3), CFG)
    D = np.array([r.direction for r in sol.rays])
    assert len(D) == 7
    gaps = np.abs(D[:, None] - D[None]).max(axis=2) + 2.0 * np.eye(len(D))
    assert gaps.min() > 0.1


def test_faces_past_the_budget_are_refused_before_any_work(monkeypatch):
    # m = 2, n = 30 is 900 entries but 2^30 faces
    def no_work(*args):
        raise AssertionError("work started")

    for mod, name in ((solver_mod, "_newton"), (solver_mod, "_leaf_starts"), (subdivision_mod, "_r0_clearance"),
                      (properties_mod, "_newton"), (subdivision_mod, "_bernstein")):
        monkeypatch.setattr(mod, name, no_work)
    A = random_gaussian(2, 30, 0)
    for run in (lambda: solve(TcpInstance(A, np.ones(30)), CFG), lambda: check_r0(A, CFG),
                lambda: check_copositive(A, CFG)):
        with pytest.raises(BudgetError, match="budget"):
            run()


def test_simplex_starts_are_the_lattice_compositions():
    # every point of {0, .., r}^k summing to r, in lexicographic order, over r
    for k, r in itertools.product(range(1, 5), range(1, 9)):
        ref = np.array([p for p in itertools.product(range(r + 1), repeat=k) if sum(p) == r]) / r
        got = simplex_starts(k, r)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (k, r)


def _agreement_cases():
    # 150 small Gaussian instances, grouped by (m, n)
    rng = np.random.default_rng(61)
    shapes = {(3, 2): 50, (4, 2): 30, (5, 2): 15, (2, 3): 20, (3, 3): 25, (4, 3): 10}
    return [[TcpInstance(random_gaussian(m, n, rng), rng.normal(size=n)) for _ in range(count)]
            for (m, n), count in shapes.items()]


def test_leaf_starts_agree_with_the_box_grid_and_hold_its_roots(monkeypatch):
    # the point faces' starts from the augmented subdivision give, on 150
    # small instances, the status, points and rays the box grid over
    # [0, 5]^k gave (_box_grid_starts), points within 1e-8, from fewer
    # starts.  And the exclusion is sound: the image (x, 1) / (1 + |x|_1) of
    # every point the box grid finds lies in a leaf of the subdivision, on
    # the face simplex of the point's support and the apex
    leaves = []
    real = subdivision_mod._subdivide

    def recording(pieces, judge, **kw):
        out = real(pieces, judge, **kw)
        if kw.get("leaf_edge") == subdivision_mod.LEAF_EDGE:
            leaves.append(out[0])
        return out

    monkeypatch.setattr(subdivision_mod, "_subdivide", recording)
    groups = _agreement_cases()
    insts = [inst for group in groups for inst in group]
    leaf = [sol for group in groups for sol in solve_many(group, CFG)]
    assert len(leaves) == len(insts)
    monkeypatch.setattr(solver_mod, "_leaf_starts", _box_grid_leaf_starts)
    grid = [sol for group in groups for sol in solve_many(group, CFG)]
    statuses, checked = set(), 0
    for inst, alive, got, want in zip(insts, leaves, leaf, grid):
        assert got.status == want.status and got.posdim_suspect == want.posdim_suspect
        assert len(got.points) == len(want.points) and len(got.rays) == len(want.rays)
        for u, v in zip(got.points, want.points):
            assert np.abs(u.x - v.x).max() <= 1e-8
        for u, v in zip(got.rays, want.rays):
            assert np.abs(u.direction - v.direction).max() <= 1e-8
        assert got.meta["starts"] < want.meta["starts"]
        statuses.add(got.status)
        for p in want.points:
            free = p.face.free_indices
            if not free:
                continue
            y = np.append(p.x, 1.0) / (1.0 + p.x.sum())
            V, supp = alive[len(free) + 1]
            V = V[(supp == np.append(np.isin(np.arange(inst.n), free), True)).all(axis=1)]
            # barycentric coordinates of y in each leaf of its face
            lam = np.array([np.linalg.lstsq(v, y, rcond=None)[0] for v in V])
            on = np.abs(np.einsum("pik,pk->pi", V, lam) - y).max(axis=1) <= 1e-12
            assert (on & (lam >= -1e-9).all(axis=1)).any(), (inst, p.x)
            checked += 1
    assert statuses >= {STATUS_EMPTY, STATUS_FINITE} and checked > 150


def test_a_rescaled_coordinate_keeps_its_far_root():
    # TCP is invariant under positive diagonal scaling: with
    # A'_{i j k} = A_{i j k} d_j d_k, Sol(A', a) = D^-1 Sol(A, a).  Here the
    # third coordinate of one root moves out to 317, far outside the box
    # [0, 5]^3 that the grid starts covered, which lost it.  At d_3 = 1/1000
    # the root at 3172 is still lost with leaves of edge 1/8
    A, a = random_gaussian(3, 3, 18), np.random.default_rng(18).standard_normal(3)
    d = np.array([1.0, 1.0, 0.01])
    base = solve(TcpInstance(A, a), CFG)
    scaled = solve(TcpInstance(Tensor(A.array * np.multiply.outer(d, d)), a), CFG)
    assert base.status == scaled.status == STATUS_FINITE
    assert len(base.points) == len(scaled.points) == 3
    want = np.array(sorted((p.x / d).tolist() for p in base.points))
    got = np.array(_points(scaled))
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    assert got[:, 2].max() > 300


def test_work_counters_are_pinned():
    # the Newton trajectory of every start shows in these totals: a change to
    # the starts, the step or the stopping rules has to update them
    rng = np.random.default_rng(31)
    inst = TcpInstance(random_gaussian(3, 3, rng), rng.normal(size=3))
    sol = solve(inst, CFG)
    assert (sol.meta["starts"], sol.meta["newton_iters"]) == (17, 66)


def test_solve_is_deterministic_including_order():
    rng = np.random.default_rng(14)
    for _ in range(3):
        inst = TcpInstance(random_gaussian(3, 2, rng), rng.normal(size=2))
        s1 = json.dumps(solve(inst, CFG).to_json(), sort_keys=True)
        s2 = json.dumps(solve(inst, CFG).to_json(), sort_keys=True)
        assert s1 == s2


def test_point_counts_stay_under_component_bound():
    rng = np.random.default_rng(100)
    bound = chi_bound(3, 2)
    for _ in range(10):
        inst = TcpInstance(random_gaussian(3, 2, rng), rng.normal(size=2))
        sol = solve(inst, CFG)
        assert len(sol.points) <= bound


def test_chi_bound_values_and_validation():
    assert chi_bound(3, 2) == 118098
    assert chi_bound(2, 2) == 118098
    assert chi_bound(4, 2) == 29296875
    assert chi_bound(3, 3) == 2 * 3**15
    with pytest.raises(ValueError):
        chi_bound(1, 2)
    with pytest.raises(ValueError):
        chi_bound(3, 1)


def test_hausdorff_excess_reference_cases():
    assert hausdorff_excess([(0.0, 1.0)], [(0.0, 1.0), (0.0, 0.0)]) == 0.0
    assert hausdorff_excess([(0.0, 2.0)], [(0.0, 1.0)]) == pytest.approx(1.0)
    assert hausdorff_excess([], [(0.0, 1.0)]) == 0.0
    assert hausdorff_excess([], []) == 0.0
    assert hausdorff_excess([(0.0, 0.0)], []) == np.inf
    # asymmetry: excess of a superset over a subset is positive
    a = [(0.0, 0.0), (3.0, 0.0)]
    b = [(0.0, 0.0)]
    assert hausdorff_excess(b, a) == 0.0
    assert hausdorff_excess(a, b) == pytest.approx(3.0)


def test_oracle_agrees_on_unique_solution_instance():
    inst = with_rhs(builtin_example("gus"), [-1.0, -4.0])
    orc = brute_force_oracle(inst, box_radius=4.0, grid_step=0.02, tol=CFG.tol)
    assert orc.representatives
    best = min(np.abs(np.asarray(r) - [1.0, 2.0]).max() for r in orc.representatives)
    assert best <= 1e-6
    sol = solve(inst, CFG)
    S = [p.x for p in sol.points]
    R = [np.asarray(r) for r in orc.representatives]
    assert hausdorff_excess(S, R) <= 1e-3
    assert hausdorff_excess(R, S) <= 1e-3


def test_oracle_reports_extended_cluster_for_circle():
    inst = with_rhs(builtin_example("ex1"), [1.0, 1.0])
    orc = brute_force_oracle(inst, box_radius=1.5, grid_step=0.01, tol=CFG.tol)
    assert any(c.extended for c in orc.clusters)
    sizes = sorted(c.size for c in orc.clusters)
    assert sizes[-1] > 10  # the circle arc captures many grid points


def test_oracle_budget_guard():
    inst = TcpInstance(random_gaussian(3, 3, 0), np.zeros(3))
    with pytest.raises(BudgetError):
        brute_force_oracle(inst, box_radius=5.0, grid_step=0.001, tol=1e-8)
    with pytest.raises(ValueError):
        brute_force_oracle(inst, box_radius=-1.0, grid_step=0.01, tol=1e-8)
    # a NaN tol or an infinite step would accept no grid point and report no
    # solution; an infinite box would overflow the grid size
    for bad in ({"tol": np.nan}, {"grid_step": np.inf}, {"grid_step": np.nan}, {"box_radius": np.inf}):
        with pytest.raises(ValueError, match="finite and positive"):
            brute_force_oracle(inst, **{"box_radius": 1.0, "grid_step": 0.1, "tol": 1e-8, **bad})


def test_oracle_grid_helpers_match_scipy_ndimage():
    # the oracle's component labels are a numpy rewrite of ndimage.label
    # (3^n connectivity) on the accepted points alone: labels, their
    # numbering and the count must all be equal
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        shape = tuple(int(g) for g in rng.integers(1, 12, size=n))
        mask = rng.uniform(size=shape) < rng.uniform(0.1, 0.9)
        want, count = ndimage.label(mask, structure=np.ones((3,) * n, dtype=int))
        idx = np.flatnonzero(mask)
        got, got_count, _ = solver_mod._clusters(idx, np.zeros(idx.size), shape)
        assert got_count == count and np.array_equal(got + 1, want.reshape(-1)[idx]), (shape, mask)


def _min_filter3(field):
    """Minimum over each point's 3^d neighbourhood, +inf outside the grid."""
    padded = np.pad(field, 1, constant_values=np.inf)
    out = np.full(field.shape, np.inf)
    for shift in itertools.product((-1, 0, 1), repeat=field.ndim):
        np.minimum(out, padded[tuple(slice(1 + s, 1 + s + g) for s, g in zip(shift, field.shape))], out=out)
    return out


def _per_face_seeds(field):
    """The oracle's polish seeds found face by face: the finite local minima
    of each face's sub-grid, its pinned axes at index 0."""
    n = field.ndim
    seeds = np.zeros(field.shape, dtype=bool)
    for face in enumerate_faces(n):
        expr = tuple(0 if i in face.zero_indices else slice(None) for i in range(n))
        sub = field[expr]
        if sub.ndim == 0:
            seeds[expr] |= bool(np.isfinite(sub))
        else:
            seeds[expr] |= (sub <= _min_filter3(sub)) & np.isfinite(sub)
    return seeds


def test_oracle_seeds_in_one_pass_match_the_per_face_minima():
    # fields with +inf holes and ties: coarse values repeat, so neighbours
    # often tie, and the one-pass rule must give the per-face loop's seeds
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        shape = tuple(int(g) for g in rng.integers(1, 9, size=n))
        values = rng.integers(0, int(rng.integers(2, 6)), size=shape).astype(float)
        field = np.where(rng.uniform(size=shape) < rng.uniform(0.1, 0.9), values, np.inf)
        want = _per_face_seeds(field).reshape(-1)
        idx = np.flatnonzero(np.isfinite(field))
        score = field.reshape(-1)[idx]
        labels, count, seeds = solver_mod._clusters(idx, score, shape)
        assert np.array_equal(seeds, want[idx]), (shape, field)
        # a cluster's least-score point is a seed, so every cluster has one
        for c in range(count):
            pos = np.flatnonzero(labels == c)
            assert seeds[pos[np.argmin(score[pos])]], (shape, field, c)


def test_oracle_does_not_depend_on_units():
    # the oracle runs on (tA, ta) divided by its pair norm, so every t gives
    # the clusters, verified flags and representatives of t = 1: a unique
    # solution, and the quarter-circle continuum of ex1 at a = (1, 1)
    cases = ((with_rhs(builtin_example("gus"), [-1.0, -4.0]), 4.0, 0.04),
             (with_rhs(builtin_example("ex1"), [1.0, 1.0]), 1.5, 0.01))
    for inst, box, step in cases:
        base = brute_force_oracle(inst, box, step, CFG.tol)
        for t in (1e-12, 1e-8, 1e8, 1e200):
            orc = brute_force_oracle(TcpInstance(scale(t, inst.tensor), t * inst.a), box, step, CFG.tol)
            assert orc.meta["accepted"] == base.meta["accepted"], t
            assert len(orc.clusters) == len(base.clusters), t
            for c, b in zip(orc.clusters, base.clusters):
                assert (c.size, c.verified, c.extended, c.boundary) == (b.size, b.verified, b.extended, b.boundary)
                assert np.array_equal(c.members, b.members) and np.array_equal(c.raw, b.raw)
                assert (c.polished is None) == (b.polished is None)
                assert c.polished is None or np.array_equal(c.polished, b.polished)
            assert np.array_equal(np.array(orc.representatives), np.array(base.representatives)), t


def test_oracle_meta_reports_grid_parameters():
    inst = with_rhs(builtin_example("gus"), [-1.0, -4.0])
    orc = brute_force_oracle(inst, box_radius=3.0, grid_step=0.05, tol=1e-8)
    assert orc.meta["box_radius"] == 3.0
    assert orc.meta["grid_step"] == 0.05
    assert orc.meta["grid_points"] == 61**2
    assert orc.meta["n_clusters"] == len(orc.clusters)


def _oracle_bytes(orc):
    """Every output of an oracle result, floats as their bytes."""
    clusters = [(c.size, c.raw.tobytes(), None if c.polished is None else c.polished.tobytes(), c.verified,
                 c.extent, c.extended, c.boundary, c.members.tobytes()) for c in orc.clusters]
    return clusters, [r.tobytes() for r in orc.representatives], orc.meta


def test_oracle_scan_matches_the_solver_kernels():
    # the scan evaluates F and J from A's monomial coefficients along the
    # grid's axes, in its own arithmetic; the solver's kernels are the
    # reference, to a few ulps of the sum of the sizes of A's terms (the
    # slot sum of |A|, since the entries it adds may cancel)
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    g, step = 9, 0.37
    for m, n in itertools.product((2, 3, 4), (2, 3)):
        arr = rng.standard_normal((n,) * m)
        exps, C = solver_mod._scan_polynomials(arr)
        lead = np.unravel_index(np.arange(g ** (n - 1)), (g,) * (n - 1))
        V = solver_mod._row_values(exps, C, np.arange(g) * step, lead)
        X = np.stack(np.unravel_index(np.arange(g**n), (g,) * n), axis=1) * step
        F = V[:n].reshape(n, -1).T
        J = V[n:].reshape(n, n, -1).transpose(2, 0, 1)
        assert np.all(np.abs(F - contract_rows(arr, X)) <= 4 * eps * contract_rows(np.abs(arr), X)), (m, n)
        J_scale = jacobian_rows(slot_sum(np.abs(arr)), X)
        assert np.all(np.abs(J - jacobian_rows(slot_sum(arr), X)) <= 4 * eps * J_scale), (m, n)


def test_oracle_does_not_depend_on_the_scan_chunk(monkeypatch):
    # each grid point's F and J are computed from its own coordinates, so
    # scanning one grid row at a time or the whole grid at once gives the
    # same bits everywhere, theta_F_max included
    rng = np.random.default_rng(8)
    accepted = 0
    for m, n in itertools.product((2, 3, 4), (2, 3)):
        inst = TcpInstance(random_gaussian(m, n, [9, m, n]), rng.standard_normal(n))
        step = 0.05 if n == 2 else 0.1
        out = []
        for chunk in (1, 10**9):  # one grid row, then the whole grid
            monkeypatch.setattr(solver_mod, "_ORACLE_CHUNK", chunk)
            out.append(brute_force_oracle(inst, box_radius=2.0, grid_step=step, tol=CFG.tol))
        assert _oracle_bytes(out[0]) == _oracle_bytes(out[1]), (m, n)
        accepted += out[0].meta["accepted"]
    assert accepted > 0


def test_oracle_caps_seeds_without_losing_later_clusters(monkeypatch):
    # with the seed cap at 1, a cluster with two or more polish seeds is cut
    # down to its best one; every cluster after it must still get its own
    # members, as found by scanning the labels for that cluster alone
    monkeypatch.setattr(solver_mod, "_ORACLE_SEED_CAP", 1)
    rng = np.random.default_rng(8)
    capped_before_another = 0
    for m, n in itertools.product((2, 3, 4), (2, 3)):
        inst = TcpInstance(random_gaussian(m, n, [9, m, n]), rng.standard_normal(n))
        step = 0.05 if n == 2 else 0.1
        orc = brute_force_oracle(inst, box_radius=2.0, grid_step=step, tol=CFG.tol)
        g = int(math.floor(2.0 / step + 0.5)) + 1
        captured, captured_score, _ = solver_mod._scan(solver_mod._unit_pair(inst.tensor, inst.a), g, step, CFG.tol)
        captured_labels, ncl, captured_min = solver_mod._clusters(captured, captured_score, (g,) * n)
        # the same labels, scores and seeds spread over the whole grid
        labels, score, is_min = np.zeros(g**n, dtype=int), np.full(g**n, np.inf), np.zeros(g**n, dtype=bool)
        labels[captured], score[captured], is_min[captured] = captured_labels + 1, captured_score, captured_min
        assert len(orc.clusters) == ncl, (m, n)
        for c, cl in enumerate(orc.clusters, start=1):
            idx = np.flatnonzero(labels == c)
            members = np.stack(np.unravel_index(idx, (g,) * n), axis=1) * step
            stride = int(math.ceil(len(idx) / solver_mod.ORACLE_MEMBER_CAP))
            assert cl.size == len(idx), (m, n, c)
            assert np.array_equal(cl.members, members[::stride]), (m, n, c)
            assert np.array_equal(cl.raw, members[int(np.argmin(score[idx]))]), (m, n, c)
            if c < ncl and np.count_nonzero(is_min[idx]) > 1:
                capped_before_another += 1
    assert capped_before_another > 0


def test_oracle_strides_a_cluster_past_the_member_cap():
    # F = 0: every point of the 201 x 201 grid is accepted and they form one
    # cluster, whose members are kept at stride ceil(40,401 / cap) = 5;
    # every face there has only zero equations, so each seed is its own
    # candidate
    orc = brute_force_oracle(TcpInstance(Tensor.zeros(3, 2), [0.0, 0.0]), 2.0, 0.01, 1e-8)
    assert len(orc.clusters) == 1
    cl = orc.clusters[0]
    assert cl.size == 40_401 and cl.verified
    full = np.stack(np.unravel_index(np.arange(201 * 201), (201, 201)), axis=1) * 0.01
    assert len(cl.members) == 8_081 <= solver_mod.ORACLE_MEMBER_CAP
    assert np.array_equal(cl.members, full[::5])


def test_oracle_with_no_accepted_point_has_no_cluster():
    # F = a < 0 everywhere: no grid point is accepted, so there is no
    # neighbour pair, no cluster and no representative
    inst = TcpInstance(Tensor.zeros(3, 2), np.array([-1.0, -2.0]))
    orc = brute_force_oracle(inst, box_radius=1.0, grid_step=0.1, tol=CFG.tol)
    assert orc.clusters == [] and orc.representatives == []
    assert orc.meta["accepted"] == 0 and orc.meta["n_clusters"] == 0
    labels, count, seeds = solver_mod._clusters(np.zeros(0, dtype=int), np.zeros(0), (11, 11))
    assert count == 0 and labels.size == 0 and seeds.size == 0


def test_oracle_working_set_stays_small():
    # the scan holds one chunk of grid rows at a time and keeps only the
    # accepted points, which the clusters and seeds then work on, so ex1's
    # 251,001-point grid costs about 3 MiB; a mask, score and labels over the
    # whole grid add about 6 MiB, and F and J on every point at once 40 MiB
    inst = with_rhs(builtin_example("ex1"), [1.0, 1.0])
    tracemalloc.start()
    try:
        orc = brute_force_oracle(inst, box_radius=5.0, grid_step=0.01, tol=CFG.tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orc.meta["grid_points"] == 251_001
    assert peak < 4 * 2**20, peak / 2**20


def test_a_five_by_five_solve_keeps_its_temporaries_small():
    # the batched kernels run their rows and pieces in runs within
    # tensors._TEMP_ENTRIES entries, so one (5, 5) solve peaks near 4 MiB;
    # one gather of every row's face block per kernel call took it to 29.8 MiB
    inst = TcpInstance(random_gaussian(5, 5, [7, 0]), np.random.default_rng([8, 0]).standard_normal(5))
    tracemalloc.start()
    try:
        solve(inst, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20


def test_solution_set_json_shape():
    sol = solve(builtin_example("ex1"), CFG)
    d = sol.to_json()
    assert set(d) == {"status", "points", "rays", "posdim_suspect", "meta"}
    assert d["points"][0].keys() == {"x", "face", "kkt_res"}
    text = json.dumps(d)
    assert json.loads(text)["status"] == STATUS_FINITE


def test_residual_soundness_of_reported_points():
    # every reported point must satisfy the instance at the configured tol
    rng = np.random.default_rng(77)
    for _ in range(20):
        inst = TcpInstance(random_gaussian(3, 2, rng), rng.normal(size=2))
        sol = solve(inst, CFG)
        for p in sol.points:
            assert max_residual(inst, p.x) <= CFG.tol
            fx = residual(inst, p.x)
            assert max(fx) == max_residual(inst, p.x)
