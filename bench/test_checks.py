"""Each output check accepts a correct output and rejects a mutated one.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import os

import numpy as np
import pytest

import checks
import workloads
from workloads import CliResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def planted():
    arr, a, x = workloads.planted_instance(np.random.default_rng(7), 3, 3, 3)
    return arr, a, x


def test_contraction_matches_loops():
    arr = np.random.default_rng(1).standard_normal((3, 3, 3, 3))
    x = np.array([0.3, -1.2, 2.0])
    want = np.array([sum(arr[i, j, k, l] * x[j] * x[k] * x[l]
                         for j in range(3) for k in range(3) for l in range(3)) for i in range(3)])
    assert np.allclose(checks.apply(arr, x), want)
    assert np.isclose(checks.form(arr, x), float(x @ want))


def test_planted_point_solves_and_a_shifted_point_does_not():
    arr, a, x = planted()
    checks.kkt_point(arr, a, x)
    rejects(checks.kkt_point, arr, a, x + 1e-3 * (x > 0))
    negative = x.copy()
    negative[0] = -1e-3
    rejects(checks.kkt_point, arr, a, negative)


def test_solution_set_rejects_a_dropped_planted_root():
    arr, a, x = planted()
    checks.solution_set(arr, a, {"points": [{"x": x.tolist()}]}, planted=x)
    rejects(checks.solution_set, arr, a, {"points": []}, x)


def test_bezout_bound():
    checks.bezout([np.zeros(2)] * 9, 3, 2)
    rejects(checks.bezout, [np.zeros(2)] * 10, 3, 2)


def test_scaled_catalog_rejects_the_spurious_point():
    _, _, expected = workloads.CATALOG["gus"]
    checks.same_point_set([np.array([1.0, 2.0])], expected)
    rejects(checks.same_point_set, [np.array([0.0, 2.0]), np.array([1.0, 2.0])], expected)
    rejects(checks.same_point_set, [np.array([1.0, 2.001])], expected)


def test_r0_ray_certificate():
    arr, r = workloads.ray_tensor(np.random.default_rng(3), 3, 4)
    checks.r0_ray(arr, r)
    checks.r0_ray(np.zeros((2, 2, 2)), [0.0, 1.0])
    rejects(checks.r0_ray, arr, r + 0.05)
    rejects(checks.r0_ray, arr, -r)
    rejects(checks.r0_ray, np.zeros((2, 2, 2)), [0.0, 0.0])


def test_copositivity_certificates():
    arr = workloads.negative_diagonal_tensor(np.random.default_rng(4), 3, 3)
    i = int(np.argmin([arr[j, j, j] for j in range(3)]))
    e, other = np.eye(3)[i], np.eye(3)[(i + 1) % 3]
    checks.copositivity_witness(arr, e, checks.form(arr, e))
    rejects(checks.copositivity_witness, arr, other, checks.form(arr, other))
    rejects(checks.copositivity_witness, arr, -e, checks.form(arr, -e))
    rejects(checks.copositivity_witness, arr, e, checks.form(arr, e) + 0.1)

    pos = workloads.positive_tensor(np.random.default_rng(5), 3, 3)
    c = np.ones(3) / 3
    checks.copositive_minimum(pos, c, checks.form(pos, c), float(pos.min()))
    rejects(checks.copositive_minimum, pos, 2 * c, checks.form(pos, 2 * c), float(pos.min()))
    rejects(checks.copositive_minimum, pos, c, checks.form(pos, c), checks.form(pos, c) + 0.1)


def cli(code, stdout, report=None):
    return CliResult(code, stdout, report)


def commands():
    return {name: check for name, _, _, check in workloads.cli_commands(0, "unused")}


def test_usc_and_stability_reject_violations():
    chk = commands()
    usc = {"samples": 8, "violation_count": 0, "sentinel_count": 0, "reference_size": 2}
    chk["usc ex1 a=(2,1)"](cli(0, json.dumps(usc)))
    rejects(chk["usc ex1 a=(2,1)"], cli(1, json.dumps(dict(usc, violation_count=1))))
    rejects(chk["usc ex1 a=(2,1)"], cli(0, json.dumps(dict(usc, reference_size=3))))
    st = {"vacuous": False, "inconclusive": False, "violations": 0}
    chk["stability"](cli(0, json.dumps(st)))
    rejects(chk["stability"], cli(0, json.dumps(dict(st, violations=1))))


def test_boundedness_rejects_norms_beyond_the_closed_form_bound():
    chk = commands()["boundedness"]
    bound = checks.ex1_norm_bound(1.0, 0.1, 0.1)
    s = {"vacuous": False, "base_r0": "holds-numerically", "unbounded_flags": 0, "empirical_bound": 1.02}
    chk(cli(0, json.dumps(s)))
    rejects(chk, cli(0, json.dumps(dict(s, empirical_bound=bound + 1e-3))))


def test_hoelder_rejects_extra_points_and_a_wrong_exponent():
    chk = commands()["hoelder gus"]
    rows = [{"sample_id": k, "n_points": 1} for k in range(15)]
    report = {"rows": rows, "summary": {"c": 1.02}}
    chk(cli(0, "", report))
    rejects(chk, cli(0, "", {"rows": rows[:-1] + [{"sample_id": 14, "n_points": 2}], "summary": {"c": 1.02}}))
    rejects(chk, cli(0, "", {"rows": rows, "summary": {"c": 0.5}}))


def test_genericity_rejects_a_wrong_interval():
    chk = commands()["genericity"]
    lo, hi = checks.wilson(20, 20)
    rows = [{"flags": "holds-numerically"}] * 20
    chk(cli(0, "", {"rows": rows, "summary": {"r0_count": 20, "fraction": 1.0, "ci95": [lo, hi]}}))
    rejects(chk, cli(0, "", {"rows": rows, "summary": {"r0_count": 20, "fraction": 1.0, "ci95": [lo, 1.0 + 1e-6]}}))
    rejects(chk, cli(0, "", {"rows": rows[:-1] + [{"flags": "fails"}],
                             "summary": {"r0_count": 19, "fraction": 0.95, "ci95": list(checks.wilson(19, 20))}}))


def test_solve_and_check_r0_commands():
    chk = commands()
    sol = {"status": "non-isolated", "posdim_suspect": [[]],
           "points": [{"x": [0.0, 0.0]}, {"x": [0.0, 1.0]}, {"x": [1.0, 0.0]}]}
    chk["solve ex1 a=(1,1)"](cli(0, json.dumps(sol) + "\n"))
    shifted = dict(sol, points=sol["points"][:2] + [{"x": [1.001, 0.0]}])
    rejects(chk["solve ex1 a=(1,1)"], cli(0, json.dumps(shifted)))
    cert = json.dumps({"certificate": {"ray": [0.0, 1.0], "residual": 0.0}})
    chk["check-r0 zero"](cli(1, "r0: fails\n" + cert))
    rejects(chk["check-r0 zero"], cli(0, "r0: fails\n" + cert))
    bad = json.dumps({"certificate": {"ray": [0.0, -1.0], "residual": 0.0}})
    rejects(chk["check-r0 zero"], cli(1, "r0: fails\n" + bad))


def test_real_outputs_pass(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import tcplab

    arr, a, x = workloads.planted_instance(np.random.default_rng(2), 3, 2, 1)
    sol = tcplab.solve(tcplab.TcpInstance(tcplab.Tensor(arr), a), tcplab.SolverConfig())
    checks.solution_set(arr, a, sol.to_json(), planted=x)
    arr, _ = workloads.ray_tensor(np.random.default_rng(2), 3, 3)
    rep = tcplab.check_r0(tcplab.Tensor(arr), tcplab.SolverConfig())
    assert rep.verdict == "fails"
    checks.r0_ray(arr, rep.certificate["ray"])
