import itertools
import warnings

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
from tcplab.properties import MONOTONE_BOX, MONOTONE_GRID_PER_AXIS, MONOTONE_RANDOM_PAIRS

CFG = SolverConfig()


def test_r0_holds_for_definite_sign_tensors():
    for name in ("ex1", "gus", "monotone"):
        report = check_r0(builtin_example(name).tensor, CFG)
        assert report.holds, name
        assert report.certificate is None


def test_r0_fails_for_zero_tensor_with_validated_ray():
    report = check_r0(Tensor.zeros(3, 2), CFG)
    assert report.verdict == VERDICT_FAILS
    ray = np.array(report.certificate["ray"])
    assert np.min(ray) >= 0.0 and np.linalg.norm(ray) > 0.5
    zero_inst = TcpInstance(Tensor.zeros(3, 2), [0.0, 0.0])
    assert max_residual(zero_inst, ray) <= 1e-6
    assert report.certificate["residual"] <= 1e-6


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
    ref = check_monotone(non_monotone, np.zeros(2), CFG)
    for t in (1e-12, 1e-8, 1.0, 1e12, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r0 = check_r0(scale(t, non_r0), CFG)
            mono = check_monotone(scale(t, non_monotone), np.zeros(2), CFG)
        assert r0.verdict == VERDICT_FAILS, t
        assert np.allclose(r0.certificate["ray"], r, rtol=0, atol=1e-9)
        assert r0.certificate["residual"] <= 1e-6 * t
        assert mono.verdict == VERDICT_FAILS, t
        assert mono.certificate["x"] == ref.certificate["x"] and mono.certificate["y"] == ref.certificate["y"]
        assert mono.certificate["pairing"] == pytest.approx(t * ref.certificate["pairing"], rel=1e-12)
        assert mono.effort["min_pairing"] == pytest.approx(t * ref.effort["min_pairing"], rel=1e-12)
    assert check_r0(Tensor.zeros(3, 2), CFG).verdict == VERDICT_FAILS
    assert check_monotone(Tensor.zeros(3, 2), np.zeros(2), CFG).verdict == VERDICT_HOLDS


def test_copositive_effort_counters_are_pinned():
    # the starts and the KKT points found show in these counts: a change to
    # the starts, the system or the Newton stopping rules has to update them
    arr = random_gaussian(3, 3, 41).array.copy()
    for i in range(3):
        arr[i, i, i] += 1.0
    effort = check_copositive(Tensor(arr), CFG).effort
    counts = (effort["faces"], effort["grid_points"], effort["kkt_points"], effort["newton_iters"])
    assert counts == (7, 113, 4, 938)


def test_monotone_holds_for_decoupled_squares():
    # F = (x1^2, x2^2) has diagonal, nonnegative Jacobian on the orthant
    report = check_monotone(builtin_example("gus").tensor, [0.0, 0.0], CFG)
    assert report.holds
    assert check_monotone(Tensor.zeros(3, 2), [5.0, -1.0], CFG).holds


def test_monotone_fails_for_sign_flipped_tensor():
    report = check_monotone(builtin_example("ex1").tensor, [2.0, 1.0], CFG)
    assert report.verdict == VERDICT_FAILS
    A = builtin_example("ex1").tensor
    x, y = np.array(report.certificate["x"]), np.array(report.certificate["y"])
    ip = float((contract(A, y) - contract(A, x)) @ (y - x))
    assert ip == pytest.approx(report.certificate["pairing"])
    assert ip < -CFG.tol


def test_monotone_fails_for_coupled_sum_of_squares():
    # F = (x1^2 + x2^2, x1^2 + x2^2): the symmetrized Jacobian has
    # determinant -(x1 - x2)^2, so the pairing goes negative off the
    # diagonal, e.g. x = (2, 2), y = (0, 3) gives -1
    A = builtin_example("monotone").tensor
    x, y = np.array([2.0, 2.0]), np.array([0.0, 3.0])
    assert float((contract(A, y) - contract(A, x)) @ (y - x)) == pytest.approx(-1.0)
    report = check_monotone(A, [-4.0, -1.0], CFG)
    assert report.verdict == VERDICT_FAILS
    cx, cy = np.array(report.certificate["x"]), np.array(report.certificate["y"])
    ip = float((contract(A, cy) - contract(A, cx)) @ (cy - cx))
    assert ip < -CFG.tol


def test_monotone_ignores_the_rhs():
    A = builtin_example("gus").tensor
    r1 = check_monotone(A, [0.0, 0.0], CFG)
    r2 = check_monotone(A, [7.0, -3.0], CFG)
    assert r1.verdict == r2.verdict == VERDICT_HOLDS


def _monotone_reference(A, seed):
    """check_monotone's sample one pair at a time: the grid pairs in
    combinations order, then the seeded pairs, keeping the first least
    pairing.  Returns (min_pairing, x, y, pairs)."""
    n = A.dim
    axes = np.linspace(0.0, MONOTONE_BOX, MONOTONE_GRID_PER_AXIS)
    grid = np.stack([m.ravel() for m in np.meshgrid(*([axes] * n), indexing="ij")], axis=1)
    rng = np.random.default_rng([seed, 2])
    pairs = list(itertools.combinations(grid, 2))
    for _ in range(MONOTONE_RANDOM_PAIRS):
        x = rng.uniform(0.0, MONOTONE_BOX, n)
        pairs.append((x, rng.uniform(0.0, MONOTONE_BOX, n)))
    worst = (np.inf, None, None)
    for x, y in pairs:
        v = float((contract(A, y) - contract(A, x)) @ (y - x))
        if v < worst[0]:
            worst = (v, x, y)
    return worst + (len(pairs),)


def test_monotone_search_equals_a_per_pair_loop():
    rng = np.random.default_rng(41)
    tensors = [builtin_example(name).tensor for name in ("ex1", "gus", "monotone", "zero")]
    tensors += [random_gaussian(m, 2, rng) for m in (2, 3, 4) for _ in range(3)]
    tensors += [scale(-1.0, builtin_example("gus").tensor), random_gaussian(3, 3, rng)]
    # F overflows on much of the grid, and inf - inf makes NaN pairings,
    # which count as +inf
    tensors += [Tensor(np.full((2,) * 4, 1e307)), scale(1e307, random_gaussian(4, 2, rng))]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, A in enumerate(tensors):
            for seed in (0, 5):
                cfg = SolverConfig(seed=seed)
                v, x, y, pairs = _monotone_reference(A, seed)
                report = check_monotone(A, np.zeros(A.dim), cfg)
                assert report.effort["pairs"] == pairs, i
                assert report.effort["min_pairing"] == v, i
                if report.verdict == VERDICT_FAILS:
                    assert report.certificate["x"] == x.tolist(), i
                    assert report.certificate["y"] == y.tolist(), i
                else:
                    assert v >= -CFG.tol, i


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
