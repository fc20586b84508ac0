import numpy as np
import pytest

from tcplab import (
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
    solve,
    with_rhs,
)

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


def test_copositive_respects_resolution_override():
    report = check_copositive(builtin_example("gus").tensor, CFG, resolution=10)
    assert report.holds
    assert report.effort["resolution"] == 10


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
