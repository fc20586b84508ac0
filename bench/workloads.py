"""The benchmark's workloads: inputs made from the seed, the operations that
call tcplab on them, and the check each output must pass.

Inputs are plain numpy arrays drawn here from `numpy.random.default_rng`
keyed by the seed; tcplab receives only those arrays (or, for the CLI
workload, the argument lists).  Every operation is one call into tcplab:
`run` makes the call and returns its raw output, `check` raises
checks.CheckFailed when the output is wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# planted-solve: (instances per pass, support size of the planted x*) for
# each size.  One solve's cost follows the Newton backtracking on the faces
# that hold no root, which varies a lot between instances: with a random
# support size single m=3, n=3 solves spread over 0.5-2.3 s, with a full
# support over 0.7-1.1 s.  Full supports and 32 smaller solves beside the
# three m=3, n=4 ones keep the pass and its median operation steady from seed
# to seed.
PLANTED = {(3, 3): (16, 3), (4, 3): (16, 3), (3, 4): (3, 4)}

# r0-classify: sets of four operations per size and pass.  The operations of
# one kind and size form a latency cluster; these counts put the median
# operation inside the m=3, n=3 check_r0 cluster rather than on the edge of
# two clusters, and make one pass about 10 s.
R0_SETS = {(3, 3): 6, (4, 3): 4, (3, 4): 3}

# catalog tensors written out from their closed-form definitions, with the
# table-leading right-hand side and its solution set
CATALOG = {
    "ex1": ({(0, 0, 0): -1.0, (0, 1, 1): -1.0, (1, 0, 0): -1.0, (1, 1, 1): -1.0}, (2.0, 1.0), [(0.0, 0.0), (0.0, 1.0)]),
    "gus": ({(0, 0, 0): 1.0, (1, 1, 1): 1.0}, (-1.0, -4.0), [(1.0, 2.0)]),
}
SCALES = (1e-12, 1e-8, 1e200)


def catalog_array(name: str) -> np.ndarray:
    arr = np.zeros((2, 2, 2))
    for idx, v in CATALOG[name][0].items():
        arr[idx] = v
    return arr


@dataclass
class Op:
    """One operation: a call into tcplab and the check of its output.

    known_fault marks the operations of the scaled-catalog group, which
    probe Sol(tA, ta) = Sol(A, a); a broken relation there counts as a
    failed operation, while any other failure also makes the run incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False


# ---------------------------------------------------------------------------
# input generation (numpy only)


def planted_instance(rng, m: int, n: int, k: int):
    """Gaussian A with a planted complementary pair (x*, lam), x* with k
    positive entries in [0.5, 2], lam in [0.5, 2] off them: a = lam - A x*^{m-1}."""
    arr = rng.standard_normal((n,) * m)
    support = rng.choice(n, size=k, replace=False)
    x = np.zeros(n)
    x[support] = rng.uniform(0.5, 2.0, size=k)
    lam = rng.uniform(0.5, 2.0, size=n)
    lam[support] = 0.0
    return arr, lam - checks.apply(arr, x), x


def positive_tensor(rng, m: int, n: int) -> np.ndarray:
    """Entries in [0.1, 1]: strictly copositive, hence R0."""
    return rng.uniform(0.1, 1.0, (n,) * m)


def ray_tensor(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian A with a planted homogeneous ray r: A r^{m-1} = 0 on supp r, > 0 off it.

    r has 2..n positive entries; the entries A[i, s, .., s] for one s in
    supp r are shifted so that row i of A r^{m-1} hits its target.
    """
    arr = rng.standard_normal((n,) * m)
    k = int(rng.integers(2, n + 1))
    support = np.sort(rng.choice(n, size=k, replace=False))
    r = np.zeros(n)
    r[support] = rng.uniform(0.5, 1.5, size=k)
    target = rng.uniform(0.5, 1.5, size=n)
    target[support] = 0.0
    s = int(support[0])
    shift = (target - checks.apply(arr, r)) / r[s] ** (m - 1)
    for i in range(n):
        arr[(i,) + (s,) * (m - 1)] += shift[i]
    return arr, r


def negative_diagonal_tensor(rng, m: int, n: int) -> np.ndarray:
    """Entries in [0.1, 1] except one negative diagonal entry: not copositive."""
    arr = rng.uniform(0.1, 1.0, (n,) * m)
    i = int(rng.integers(n))
    arr[(i,) * m] = -rng.uniform(0.5, 1.5)
    return arr


# ---------------------------------------------------------------------------
# planted-solve


def planted_solve(tcplab, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    cfg = tcplab.SolverConfig()
    ops: list[Op] = []
    for (m, n), (count, k) in PLANTED.items():
        for j in range(count):
            arr, a, xstar = planted_instance(rng, m, n, k)
            inst = tcplab.TcpInstance(tcplab.Tensor(arr), a)

            def check(sol, arr=arr, a=a, xstar=xstar):
                checks.solution_set(arr, a, sol.to_json(), planted=xstar)

            ops.append(Op(f"planted m={m} n={n} #{j}", lambda inst=inst: tcplab.solve(inst, cfg), check))
    for name, (_, rhs, expected) in CATALOG.items():
        arr = catalog_array(name)
        for t in SCALES:
            inst = tcplab.TcpInstance(tcplab.Tensor(t * arr), t * np.asarray(rhs))

            def check(sol, expected=expected):
                checks.require(not sol.rays and not sol.posdim_suspect,
                               f"status {sol.status}, expected finite")
                checks.same_point_set([p.x for p in sol.points], expected)

            ops.append(Op(f"scaled-catalog {name} t={t:g}", lambda inst=inst: tcplab.solve(inst, cfg), check,
                          known_fault=True))
    return ops


def planted_warmup(tcplab) -> None:
    arr, a, _ = planted_instance(np.random.default_rng(0), 3, 2, 1)
    tcplab.solve(tcplab.TcpInstance(tcplab.Tensor(arr), a), tcplab.SolverConfig())


# ---------------------------------------------------------------------------
# r0-classify


def r0_classify(tcplab, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    cfg = tcplab.SolverConfig()
    ops: list[Op] = []
    for (m, n), sets in R0_SETS.items():
        for j in range(sets):
            tag = f"m={m} n={n} #{j}"

            arr = positive_tensor(rng, m, n)
            T = tcplab.Tensor(arr)

            def r0_holds(rep):
                checks.require(rep.verdict == "holds-numerically", f"R0 verdict {rep.verdict}, expected holds")
                checks.require(rep.effort["rays_found"] == 0, "a ray was found for a positive tensor")

            def cop_holds(rep, arr=arr):
                checks.require(rep.verdict == "holds-numerically", f"copositive verdict {rep.verdict}, expected holds")
                checks.copositive_minimum(arr, rep.effort["argmin"], rep.effort["min_form"], float(arr.min()))

            ops.append(Op(f"check_r0 positive {tag}", lambda T=T: tcplab.check_r0(T, cfg), r0_holds))
            ops.append(Op(f"check_copositive positive {tag}", lambda T=T: tcplab.check_copositive(T, cfg), cop_holds))

            arr, _ = ray_tensor(rng, m, n)
            T = tcplab.Tensor(arr)

            def r0_fails(rep, arr=arr):
                checks.require(rep.verdict == "fails", f"R0 verdict {rep.verdict}, expected fails")
                checks.r0_ray(arr, rep.certificate["ray"])

            ops.append(Op(f"check_r0 planted-ray {tag}", lambda T=T: tcplab.check_r0(T, cfg), r0_fails))

            arr = negative_diagonal_tensor(rng, m, n)
            T = tcplab.Tensor(arr)

            def cop_fails(rep, arr=arr):
                checks.require(rep.verdict == "fails", f"copositive verdict {rep.verdict}, expected fails")
                checks.copositivity_witness(arr, rep.certificate["x"], rep.certificate["form"])

            ops.append(Op(f"check_copositive negative-diagonal {tag}", lambda T=T: tcplab.check_copositive(T, cfg),
                          cop_fails))
    return ops


def r0_warmup(tcplab) -> None:
    rng = np.random.default_rng(0)
    cfg = tcplab.SolverConfig()
    tcplab.check_r0(tcplab.Tensor(positive_tensor(rng, 3, 2)), cfg)
    tcplab.check_copositive(tcplab.Tensor(positive_tensor(rng, 3, 2)), cfg)


# ---------------------------------------------------------------------------
# experiment-cli


@dataclass
class CliResult:
    code: int
    stdout: str
    report: dict | None  # the --out JSON, for commands that write one


def _summary(res: CliResult) -> dict:
    return json.loads(res.stdout.splitlines()[0])


def _check_usc(samples: int, reference_size: int | None):
    def check(res: CliResult):
        checks.require(res.code == 0, f"exit code {res.code}")
        s = _summary(res)
        checks.require(s["samples"] == samples, f"{s['samples']} samples reported")
        checks.require(s["violation_count"] == 0, f"{s['violation_count']} usc violations")
        # ex1 + dT stays R0 while |dT|_F < 1 (see bench/README.md), so no
        # perturbed solution set can be unbounded
        checks.require(s["sentinel_count"] == 0, f"{s['sentinel_count']} unbounded samples")
        if reference_size is not None:
            checks.require(s["reference_size"] == reference_size,
                           f"base set has {s['reference_size']} points, expected {reference_size}")
    return check


def _check_boundedness(max_a: float, eps: float, delta: float):
    def check(res: CliResult):
        checks.require(res.code == 0, f"exit code {res.code}")
        s = _summary(res)
        checks.require(not s["vacuous"] and s["base_r0"] == "holds-numerically", f"base verdict {s['base_r0']}")
        checks.require(s["unbounded_flags"] == 0, f"{s['unbounded_flags']} unbounded samples")
        bound = checks.ex1_norm_bound(max_a, eps, delta)
        checks.require(s["empirical_bound"] is not None and s["empirical_bound"] <= bound + 1e-9,
                       f"solution norm {s['empirical_bound']} exceeds the closed-form bound {bound}")
    return check


def _check_hoelder(res: CliResult):
    checks.require(res.code == 0, f"exit code {res.code}")
    rows = res.report["rows"]
    bad = [r["sample_id"] for r in rows if r["n_points"] != 1]
    checks.require(not bad, f"samples {bad} do not have exactly one point")
    # x = sqrt(-b) is Lipschitz at b = (-1, -1): the excess grows linearly
    c = res.report["summary"]["c"]
    checks.require(abs(c - 1.0) <= 0.1, f"fitted exponent {c} is not near 1")


def _check_stability(res: CliResult):
    checks.require(res.code == 0, f"exit code {res.code}")
    s = _summary(res)
    checks.require(not s["vacuous"] and not s["inconclusive"], "vacuous or inconclusive report")
    checks.require(s["violations"] == 0, f"{s['violations']} stability violations")


def _check_gus(res: CliResult):
    # F_i = x_i^2 + a_i has the unique solution x_i = sqrt(max(0, -a_i))
    checks.require(res.code == 0 and res.stdout.startswith("gus: holds-numerically"),
                   f"exit code {res.code}: {res.stdout[:80]!r}")


def _check_genericity(samples: int):
    def check(res: CliResult):
        checks.require(res.code == 0, f"exit code {res.code}")
        rows, s = res.report["rows"], res.report["summary"]
        checks.require(len(rows) == samples, f"{len(rows)} rows")
        # a Gaussian tensor is R0 almost surely, so a 'fails' verdict is wrong
        checks.require(not any(r["flags"] == "fails" for r in rows), "a Gaussian tensor was classified not R0")
        hits = sum(r["flags"] == "holds-numerically" for r in rows)
        checks.require(s["r0_count"] == hits and s["fraction"] == hits / samples, "count and fraction disagree")
        lo, hi = checks.wilson(hits, samples)
        checks.require(abs(s["ci95"][0] - lo) <= 1e-12 and abs(s["ci95"][1] - hi) <= 1e-12,
                       f"ci95 {s['ci95']} is not the Wilson interval ({lo}, {hi})")
    return check


def _check_openness(res: CliResult):
    checks.require(res.code == 0, f"exit code {res.code}")
    # every tensor within Frobenius distance 1 of ex1 is R0 (see _check_usc)
    fr = _summary(res)["fractions"]
    checks.require(all(v == 1.0 for v in fr.values()), f"R0 survivor fractions {fr}, expected all 1")


def _check_solve_ex1(res: CliResult):
    checks.require(res.code == 0, f"exit code {res.code}")
    sol = json.loads(res.stdout[: res.stdout.rindex("}") + 1])
    # a = (1, 1): the origin plus the quarter circle |x| = 1 on the open face
    checks.require(sol["status"] == "non-isolated" and [] in sol["posdim_suspect"],
                   f"status {sol['status']}, posdim {sol['posdim_suspect']}")
    checks.solution_set(catalog_array("ex1"), np.ones(2), sol)
    checks.contains_point([p["x"] for p in sol["points"]], (0.0, 0.0))


def _check_r0_zero(res: CliResult):
    checks.require(res.code == 1, f"exit code {res.code}, expected 1")
    lines = res.stdout.splitlines()
    checks.require(lines[0] == "r0: fails", f"verdict line {lines[0]!r}")
    checks.r0_ray(np.zeros((2, 2, 2)), json.loads(lines[1])["certificate"]["ray"])


# each entry: (name, argv, file written with --out or None, check).  Sample
# counts keep one pass near 24 s on two cores and place four commands near
# 2 s, in the middle of the ten, so the median command is a steady one
def cli_commands(seed: int, out_dir: str) -> list[tuple[str, list[str], str | None, Callable]]:
    rng = np.random.default_rng([seed, 3])
    seeds = [str(int(s)) for s in rng.integers(0, 2**31 - 1, size=10)]
    hoelder_out = os.path.join(out_dir, "hoelder.json")
    genericity_out = os.path.join(out_dir, "genericity.json")
    return [
        ("usc ex1 a=(2,1)", ["usc", "--example", "ex1", "--a", "2,1", "--radius", "0.05", "--samples", "8",
                             "--seed", seeds[0]], None, _check_usc(8, 2)),
        ("usc ex1 a=(1,1)", ["usc", "--example", "ex1", "--a", "1,1", "--radius", "0.05", "--samples", "6",
                             "--seed", seeds[1]], None, _check_usc(6, None)),
        ("boundedness", ["boundedness", "--example", "ex1", "--a", "1,1", "--eps", "0.1", "--delta", "0.1",
                         "--samples", "8", "--seed", seeds[2]], None, _check_boundedness(1.0, 0.1, 0.1)),
        ("hoelder gus", ["hoelder", "--example", "gus", "--a=-1,-1", "--radii", "0.2,0.1,0.05,0.02,0.01",
                         "--samples", "5", "--seed", seeds[3], "--out", hoelder_out], hoelder_out, _check_hoelder),
        ("stability", ["stability", "--example", "gus", "--a", "1,1", "--eps", "0.05", "--samples", "4",
                       "--seed", seeds[4]], None, _check_stability),
        ("probe-gus", ["probe-gus", "--example", "gus", "--samples", "10", "--seed", seeds[5]], None, _check_gus),
        ("genericity", ["genericity", "--m", "3", "--n", "2", "--samples", "20", "--seed", seeds[6],
                        "--out", genericity_out], genericity_out, _check_genericity(20)),
        ("openness", ["openness", "--example", "ex1", "--radii", "0.5,0.2,0.1", "--samples", "5",
                      "--seed", seeds[7]], None, _check_openness),
        ("solve ex1 a=(1,1)", ["solve", "--example", "ex1", "--a", "1,1", "--seed", seeds[8]], None, _check_solve_ex1),
        ("check-r0 zero", ["check-r0", "--example", "zero", "--seed", seeds[9]], None, _check_r0_zero),
    ]


def cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one `tcplab` command as its own process, from the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.pop("TCP_LAB_THREADS", None)
    return subprocess.run([sys.executable, "-m", "tcplab.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=170)


def _read_report(path: str | None) -> dict | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path) as fh:
        report = json.load(fh)
    os.remove(path)
    csv = os.path.splitext(path)[0] + ".csv"
    if os.path.exists(csv):
        os.remove(csv)
    return report


def _in_child(argv: list[str]) -> tuple[int, str]:
    p = cli_process(argv)
    return p.returncode, p.stdout


def experiment_cli(seed: int, out_dir: str, call=_in_child) -> list[Op]:
    """CLI operations; call(argv) -> (exit code, stdout) runs one command,
    by default as its own process."""
    ops = []
    for name, argv, out_path, check in cli_commands(seed, out_dir):
        def run(argv=argv, out_path=out_path):
            code, stdout = call(argv)
            return CliResult(code, stdout, _read_report(out_path))
        ops.append(Op(name, run, check))
    return ops


def cli_warmup() -> None:
    p = cli_process(["chi", "--m", "3", "--n", "2"])
    if p.returncode != 0 or p.stdout.strip() != "118098":
        raise RuntimeError(f"tcplab chi failed: {p.stderr.strip()[-300:]}")
