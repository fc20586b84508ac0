import json
import math

import numpy as np
import pytest

from tcplab import (
    STATUS_EMPTY,
    STATUS_UNBOUNDED,
    ExperimentReport,
    ROW_COLUMNS,
    SolverConfig,
    TcpInstance,
    Tensor,
    builtin_example,
    genericity_sample,
    hoelder_fit,
    local_boundedness_probe,
    non_r0_witness,
    pair_ball,
    probe_gus,
    r0_openness_probe,
    scale,
    solve,
    stability_inclusion_check,
    tensor_ball,
    usc_probe,
    vec_ball,
    vec_sphere,
    with_rhs,
)

CFG = SolverConfig()
GUS = builtin_example("gus")


def test_sampling_helpers_respect_radius_and_seed():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert np.linalg.norm(vec_ball(3, 0.5, rng)) <= 0.5 + 1e-12
        assert np.linalg.norm(vec_sphere(3, 0.5, rng)) == pytest.approx(0.5)
        dT = tensor_ball(3, 2, 0.25, rng)
        assert np.sqrt(np.sum(dT.array**2)) <= 0.25 + 1e-12
        dT, db = pair_ball(3, 2, 0.1, rng)
        joint = np.sqrt(np.sum(dT.array**2) + np.sum(db**2))
        assert joint <= 0.1 + 1e-12
    a = vec_ball(3, 1.0, np.random.default_rng(7))
    b = vec_ball(3, 1.0, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_usc_report_is_byte_reproducible():
    r1 = usc_probe(GUS, 0.05, 8, CFG)
    r2 = usc_probe(GUS, 0.05, 8, CFG)
    assert r1.json_bytes() == r2.json_bytes()
    r3 = usc_probe(GUS, 0.05, 8, SolverConfig(seed=1))
    assert r1.json_bytes() != r3.json_bytes()


def test_usc_small_perturbations_stay_close():
    report = usc_probe(GUS, 0.05, 12, CFG)
    assert report.summary["violation_count"] == 0
    assert report.summary["sentinel_count"] == 0
    for row in report.rows:
        assert row["excess"] <= 1.0
        assert "shell=" in row["flags"]
    assert len(report.summary["max_excess_by_shell"]) == 5


def test_usc_reference_does_not_depend_on_units():
    # ex1 at a = (1, 1) holds the origin and a quarter circle, so the
    # reference set comes from the grid oracle; probing (tA, ta) at radius
    # t * r must measure against the same set and find the same excesses
    inst = with_rhs(builtin_example("ex1"), [1.0, 1.0])
    base = usc_probe(inst, 0.05, 4, CFG)
    for t in (1e-12, 1e12):
        report = usc_probe(TcpInstance(scale(t, inst.tensor), t * inst.a), t * 0.05, 4, CFG)
        assert report.summary["reference_size"] == base.summary["reference_size"], t
        got, want = [r["excess"] for r in report.rows], [r["excess"] for r in base.rows]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), t


def test_usc_flags_a_jumping_solution_map():
    # base tensor has one nonzero entry acting on x1 only, so F_2 is the
    # constant 1 and the solution set is the origin; a small negative
    # perturbation of the x2^2 coefficient creates a far-away root near
    # sqrt(1/|pert|), which the probe must flag as a usc violation
    W = non_r0_witness(3, 2, (1,), seed=2)
    inst = TcpInstance(W, [0.0, 1.0])
    report = usc_probe(inst, 0.01, 12, CFG)
    assert report.summary["violation_count"] >= 1
    worst = max(r["excess"] for r in report.rows if math.isfinite(r["excess"]))
    assert worst > 1.0


def test_usc_rejects_empty_base():
    empty = TcpInstance(Tensor.zeros(3, 2), [-1.0, 0.0])
    with pytest.raises(ValueError):
        usc_probe(empty, 0.1, 5, CFG)
    with pytest.raises(ValueError):
        usc_probe(GUS, -0.1, 5, CFG)


def test_usc_rejects_a_base_with_rays():
    # Sol(0, (0, 1)) is the x1 axis; the reference grid holds only its part
    # in the oracle's box, so a far point of a perturbed set would count as
    # an excess although the axis holds it
    base = solve(TcpInstance(Tensor.zeros(3, 2), [0.0, 1.0]), CFG)
    assert base.rays and base.points
    with pytest.raises(ValueError, match="without rays"):
        usc_probe(TcpInstance(Tensor.zeros(3, 2), [0.0, 1.0]), 0.05, 3, CFG)


def test_repeated_radii_are_rejected():
    # _by_radius keeps one group per radius: a repeated radius dropped the
    # first group's samples from the summary (e_by_radius at 0.1 read
    # 0.05087, while the first three samples reach 0.05132) and entered the
    # fit twice
    with pytest.raises(ValueError, match="radii must be distinct"):
        hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.1, 0.1, 0.05], 3, CFG)
    with pytest.raises(ValueError, match="radii must be distinct"):
        r0_openness_probe(GUS.tensor, [0.3, 0.1, 0.3], 2, CFG)
    # the radii are filed under 12 significant digits
    with pytest.raises(ValueError, match="radii must be distinct"):
        r0_openness_probe(GUS.tensor, [0.1, 0.1 + 1e-14], 2, CFG)


def test_boundedness_probe_on_r0_base():
    inst = builtin_example("ex1")
    report = local_boundedness_probe(inst.tensor, inst.a, 0.05, 0.25, 10, CFG)
    assert not report.summary["vacuous"]
    assert report.summary["unbounded_flags"] == 0
    assert report.summary["empirical_bound"] is not None
    assert 0.5 <= report.summary["empirical_bound"] <= 3.0
    assert all(r["pert_norm_tensor"] <= 0.05 + 1e-12 for r in report.rows)
    # a sample whose solution set is empty has no largest point norm
    report = local_boundedness_probe(inst.tensor, [0.01, 1.0], 0.01, 0.1, 8, CFG)
    empty = report.rows[4]
    assert (empty["flags"], empty["n_points"], empty["max_norm"]) == ("exact-empty", 0, None)
    assert report.summary["empty_count"] == 1
    assert report.summary["empirical_bound"] == max(r["max_norm"] for r in report.rows if r["n_points"])


def test_boundedness_probe_vacuous_without_r0():
    report = local_boundedness_probe(Tensor.zeros(3, 2), [1.0, 1.0], 0.05, 0.1, 3, CFG)
    assert report.summary["vacuous"]
    assert report.summary["base_r0"] != "holds-numerically"
    assert len(report.rows) == 3  # the negative control still runs


def test_openness_probe_fractions_and_suggestion():
    report = r0_openness_probe(GUS.tensor, [0.3, 0.1], 5, CFG)
    fr = report.summary["fractions"]
    assert set(fr) == {"0.3", "0.1"}
    assert fr["0.1"] == 1.0
    if report.summary["largest_all_pass"] is not None:
        assert report.summary["suggested_eps"] == report.summary["largest_all_pass"] / 2
    with pytest.raises(ValueError):
        r0_openness_probe(GUS.tensor, [], 5, CFG)
    with pytest.raises(ValueError):
        r0_openness_probe(GUS.tensor, [-0.1], 5, CFG)


def test_genericity_sample_fraction_and_ci():
    report = genericity_sample(3, 2, 20, CFG)
    assert report.summary["samples"] == 20
    assert report.summary["fraction"] >= 0.9
    lo, hi = report.summary["ci95"]
    assert 0.0 <= lo <= report.summary["fraction"] <= hi <= 1.0
    empty = genericity_sample(3, 2, 0, CFG)
    assert empty.summary["fraction"] is None and empty.summary["ci95"] is None


def test_genericity_sample_checks_m_and_n_before_drawing(monkeypatch):
    # an impossible order or dimension is refused even with no samples, and
    # an order past the entry budget before its first 2^24-entry draw
    import tcplab.experiments as experiments_mod

    def no_draws(*args):
        raise AssertionError("tensors drawn")

    monkeypatch.setattr(experiments_mod, "_draws", no_draws)
    for m, n, samples, message in ((1, 2, 0, "tensor order must be >= 2, got 1"),
                                   (3, 1, 0, "tensor dimension must be >= 2, got 1"),
                                   (24, 2, 1, "exceeds the desk-scale budget")):
        with pytest.raises(ValueError, match=message):
            genericity_sample(m, n, samples, CFG)


def test_hoelder_fit_recovers_a_near_linear_law():
    report = hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.2, 0.1, 0.05, 0.02], 6, CFG)
    assert 0.7 <= report.summary["c"] <= 1.3
    assert report.summary["log_residual"] < 0.1
    assert report.summary["low_confidence"]  # only one decade of radii
    wide = hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.5, 0.2, 0.1, 0.05, 0.01], 4, CFG)
    assert not wide.summary["low_confidence"]
    assert set(report.summary["e_by_radius"]) == {"0.2", "0.1", "0.05", "0.02"}
    # one radius gives one pair: gamma is its excess and c is not fitted
    one = hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.1], 3, CFG).summary
    assert one["fit_points"] == 1 and one["degenerate_fit"] and one["c"] == 0.0 and one["low_confidence"]
    assert one["gamma"] == one["e_by_radius"]["0.1"]


def test_hoelder_fit_preconditions():
    with pytest.raises(ValueError):
        hoelder_fit(Tensor.zeros(3, 2), [-1.0, 0.0], [0.1], 3, CFG)  # empty base
    with pytest.raises(ValueError):
        hoelder_fit(builtin_example("ex1").tensor, [1.0, 1.0], [0.1], 3, CFG)  # posdim base
    with pytest.raises(ValueError):
        hoelder_fit(GUS.tensor, [-1.0, -1.0], [], 3, CFG)


def test_hoelder_fit_rejects_negative_sample_counts():
    with pytest.raises(ValueError, match="samples"):
        hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.1, 0.05], -3, CFG)


def test_usc_probe_needs_samples():
    with pytest.raises(ValueError, match="samples must be positive"):
        usc_probe(GUS, 0.05, 0, CFG)


def test_boundedness_probe_needs_samples():
    inst = builtin_example("ex1")
    with pytest.raises(ValueError, match="samples must be positive"):
        local_boundedness_probe(inst.tensor, inst.a, 0.05, 0.25, 0, CFG)


def test_hoelder_fit_needs_samples():
    with pytest.raises(ValueError, match="samples must be positive"):
        hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.1, 0.05], 0, CFG)


def test_stability_check_needs_samples():
    with pytest.raises(ValueError, match="samples must be positive"):
        stability_inclusion_check(GUS.tensor, [1.0, 1.0], 0.05, 0, CFG)


def test_openness_probe_needs_samples():
    with pytest.raises(ValueError, match="samples must be positive"):
        r0_openness_probe(GUS.tensor, [0.3, 0.1], 0, CFG)


def test_openness_probe_rejects_negative_sample_counts():
    with pytest.raises(ValueError, match="samples"):
        r0_openness_probe(builtin_example("ex1").tensor, [0.1, 0.05], -2, CFG)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_experiment_sizes_must_be_finite(bad, monkeypatch):
    # NaN passes a "<= 0" test and inf a "< 0" one: each size is checked
    # before any solve or R0 check runs, and the error names it
    import tcplab.experiments as experiments_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("check_r0", "solve", "solve_many", "_r0_reports", "_homogeneous_rays"):
        monkeypatch.setattr(experiments_mod, name, no_work)
    ex1 = builtin_example("ex1")
    calls = {
        "eps": [lambda: local_boundedness_probe(ex1.tensor, ex1.a, bad, 0.1, 3, CFG),
                lambda: stability_inclusion_check(GUS.tensor, [1.0, 1.0], bad, 3, CFG)],
        "delta": [lambda: local_boundedness_probe(ex1.tensor, ex1.a, 0.1, bad, 3, CFG)],
        "radii": [lambda: r0_openness_probe(GUS.tensor, [0.1, bad], 3, CFG),
                  lambda: hoelder_fit(GUS.tensor, [-1.0, -1.0], [bad, 0.1, 0.05], 3, CFG)],
        "radius": [lambda: usc_probe(GUS, bad, 3, CFG)],
    }
    for name, runs in calls.items():
        for run in runs:
            with pytest.raises(ValueError, match=f"^{name} must be finite and "):
                run()


@pytest.mark.parametrize("bad", [2.5, math.nan, "3", 3.0])
def test_sample_counts_must_be_integers(bad, monkeypatch):
    # a float or string count used to reach range() and raise TypeError; it
    # is refused before any solve or R0 check runs, and the error names it
    import tcplab.experiments as experiments_mod
    import tcplab.properties as properties_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("check_r0", "solve", "solve_many", "_r0_reports", "_homogeneous_rays"):
        monkeypatch.setattr(experiments_mod, name, no_work)
    monkeypatch.setattr(properties_mod, "_solve_stream", no_work)
    ex1 = builtin_example("ex1")
    for run in (lambda: local_boundedness_probe(ex1.tensor, ex1.a, 0.1, 0.1, bad, CFG),
                lambda: r0_openness_probe(GUS.tensor, [0.3, 0.1], bad, CFG),
                lambda: genericity_sample(3, 2, bad, CFG),
                lambda: usc_probe(GUS, 0.05, bad, CFG),
                lambda: hoelder_fit(GUS.tensor, [-1.0, -1.0], [0.1, 0.05], bad, CFG),
                lambda: stability_inclusion_check(GUS.tensor, [1.0, 1.0], 0.05, bad, CFG),
                lambda: probe_gus(GUS.tensor, CFG, samples=bad)):
        with pytest.raises(ValueError, match=f"^samples must be (positive|nonnegative) and an integer, got {bad!r}$"):
            run()


def test_numpy_integer_sample_counts_are_accepted():
    # the report records a plain int, so it stays JSON-serialisable
    report = genericity_sample(3, 2, np.int64(2), CFG)
    assert report.params["samples"] == 2 and type(report.params["samples"]) is int
    assert len(report.rows) == 2
    json.dumps(report.to_json())
    assert probe_gus(GUS.tensor, CFG, samples=np.int32(1)).effort["samples"] == 3**2 + 1
    report = r0_openness_probe(GUS.tensor, [0.1], np.int16(2), CFG)
    assert report.params["samples_per_radius"] == 2 and len(report.rows) == 2


def test_stability_check_on_strictly_positive_rhs():
    report = stability_inclusion_check(GUS.tensor, [1.0, 1.0], 0.05, 5, CFG)
    assert report.summary["violations"] == 0
    assert not report.summary["vacuous"]
    assert not report.summary["inconclusive"]
    assert report.summary["collected"] == 5
    # the solution set is pinned at the origin, so every excess is zero and
    # the fitted envelope degenerates to gamma = c = 0
    assert report.summary["exact_stability"]
    assert report.summary["gamma"] == 0.0 and report.summary["c"] == 0.0
    # the zero tensor is copositive only in part of the eps ball: each row
    # counts the draws its sample rejected, all out of one attempt budget
    report = stability_inclusion_check(Tensor.zeros(3, 2), [1.0, 1.0], 0.05, 4, CFG)
    rejected = [int(r["flags"].removeprefix("rejected=")) for r in report.rows]
    assert len(rejected) == 4 and min(rejected) > 0
    assert report.summary["attempts"] == 4 + sum(rejected) == 21
    assert report.summary["violations"] == 0 and not report.summary["inconclusive"]
    # -gus is copositive nowhere in the ball: the budget of 20 draws per
    # sample runs out before the first sample is collected
    report = stability_inclusion_check(scale(-1.0, GUS.tensor), [1.0, 1.0], 0.05, 2, CFG)
    assert report.rows == [] and report.summary["attempts"] == 40
    assert report.summary["inconclusive"] and report.summary["collected"] == 0


def test_stability_check_runs_no_homogeneous_search_on_certified_tensors(monkeypatch):
    # gus and its copositive perturbations are certified R0: the dual-cone
    # precondition and every solve skip the homogeneous Newton search
    import tcplab.solver as solver_mod

    real = solver_mod._solve_faces
    calls = []

    def counted(units, faces, starts, cfg, homogeneous):
        calls.append(homogeneous)
        return real(units, faces, starts, cfg, homogeneous)

    monkeypatch.setattr(solver_mod, "_solve_faces", counted)
    rep = stability_inclusion_check(GUS.tensor, [1.0, 1.0], 0.05, 4, CFG)
    assert not rep.summary["vacuous"] and rep.summary["collected"] == 4
    assert calls and True not in calls


def test_stability_check_settles_each_tensor_once(monkeypatch):
    # the dual-cone precondition settles TCP(A, 0) and the base solve reuses
    # its rays; each drawn B is settled once for its two right-hand sides
    import tcplab.solver as solver_mod

    real = solver_mod._r0_certificate
    settled = []

    def counted(A, tol):
        settled.append(A.array.tobytes())
        return real(A, tol)

    monkeypatch.setattr(solver_mod, "_r0_certificate", counted)
    rep = stability_inclusion_check(GUS.tensor, [1.0, 1.0], 0.05, 4, CFG)
    assert rep.summary["collected"] == 4
    assert len(settled) == len(set(settled)) == 1 + 4
    assert settled[0] == GUS.tensor.array.tobytes()


def test_stability_check_vacuous_outside_dual_interior():
    report = stability_inclusion_check(Tensor.zeros(3, 2), [1.0, 0.0], 0.05, 3, CFG)
    assert report.summary["vacuous"]
    assert report.rows == []


def test_report_files_round_trip(tmp_path):
    report = genericity_sample(3, 2, 5, CFG)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    report.write_json(jpath)
    report.write_csv(cpath)
    loaded = json.loads(jpath.read_bytes())
    assert loaded == json.loads(report.json_bytes())
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == ",".join(ROW_COLUMNS)
    assert len(lines) == 1 + len(report.rows)


def test_infinity_sentinel_serialization(tmp_path):
    row = {
        "sample_id": 0,
        "pert_norm_tensor": None,
        "pert_norm_vec": 0.1,
        "n_points": 0,
        "max_norm": None,
        "excess": math.inf,
        "flags": "unbounded-suspect",
    }
    report = ExperimentReport("usc", {"radius": 0.1}, [row], {"sentinel_count": 1})
    decoded = json.loads(report.json_bytes())
    assert decoded["rows"][0]["excess"] == "inf"
    cpath = tmp_path / "inf.csv"
    report.write_csv(cpath)
    cells = cpath.read_text().strip().splitlines()[1].split(",")
    assert cells[ROW_COLUMNS.index("excess")] == "inf"
    assert cells[ROW_COLUMNS.index("pert_norm_tensor")] == ""


def test_excess_of_unbounded_and_empty_sets():
    # usc and hoelder measure an unbounded set as +inf whatever its points;
    # an empty set has nothing to measure
    from tcplab.experiments import _excess

    unbounded = solve(TcpInstance(Tensor.zeros(3, 2), [0.0, 2.0]), CFG)
    empty = solve(TcpInstance(Tensor.zeros(3, 2), [-1.0, 0.0]), CFG)
    assert unbounded.status == STATUS_UNBOUNDED and empty.status == STATUS_EMPTY
    assert _excess(unbounded, [np.zeros(2)]) == math.inf
    assert _excess(empty, [np.zeros(2)]) == 0.0 and _excess(empty, []) == 0.0
