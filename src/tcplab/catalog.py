"""Built-in example instances and the golden closed-form suite.

The four catalog tensors have solution sets known in closed form for every
right-hand side, which makes them the regression anchor for the solver:

    ex1       entries -1 at (1,1,1), (1,2,2), (2,1,1), (2,2,2); both
              components of F equal a_i - |x|^2, so solutions live on
              circles and the a1 = a2 case is a quarter-circle continuum
    gus       identity-like: F_i = x_i^2 + a_i, globally unique solutions
    monotone  F_i = |x|^2 + a_i; despite its name, F is not monotone on
              the orthant: x = (2, 2), y = (0, 3) pair to -1
    zero      the zero tensor: F = a, solutions are faces of the orthant
"""

from __future__ import annotations

import numpy as np

from .model import TcpInstance
from .solver import STATUS_EMPTY, STATUS_FINITE, SolverConfig, solve_many
from .tensors import Tensor, as_vector

EXAMPLE_NAMES = ("ex1", "gus", "monotone", "zero")


def builtin_example(name: str, m: int | None = None, n: int | None = None) -> TcpInstance:
    """Catalog instance by name, with its table-leading right-hand side; m
    and n, the zero example's order and dimension, are an error elsewhere."""
    if name != "zero" and (m is not None or n is not None):
        raise ValueError(f"m and n apply only to the zero example, not {name!r}")
    if name == "ex1":
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[0, 1, 1] = arr[1, 0, 0] = arr[1, 1, 1] = -1.0
        return TcpInstance(Tensor(arr), np.array([2.0, 1.0]))
    if name == "gus":
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[1, 1, 1] = 1.0
        return TcpInstance(Tensor(arr), np.array([-1.0, -4.0]))
    if name == "monotone":
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[0, 1, 1] = arr[1, 0, 0] = arr[1, 1, 1] = 1.0
        return TcpInstance(Tensor(arr), np.array([-4.0, -1.0]))
    if name == "zero":
        m = 3 if m is None else int(m)
        n = 2 if n is None else int(n)
        return TcpInstance(Tensor.zeros(m, n), np.ones(n))
    raise ValueError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")


def with_rhs(inst: TcpInstance, a) -> TcpInstance:
    return TcpInstance(inst.tensor, as_vector(a, inst.n))


GOLDEN_TOL = 1e-6


def _fmt_points(sol) -> str:
    return "[" + ", ".join("(" + ", ".join(f"{v:.6g}" for v in p.x) + ")" for p in sol.points) + "]"


def _points_equal(sol, expected, tol=GOLDEN_TOL) -> bool:
    pts = [p.x for p in sol.points]
    if len(pts) != len(expected):
        return False
    want = sorted(tuple(map(float, e)) for e in expected)
    got = sorted(tuple(p) for p in pts)
    return all(
        max(abs(g - w) for g, w in zip(gp, wp)) <= tol for gp, wp in zip(got, want)
    )


def _has_ray(sol, direction, tol=GOLDEN_TOL) -> bool:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return any(float(np.max(np.abs(r.direction - d))) <= tol for r in sol.rays)


def _on_circle(x, radius_sq, tol=GOLDEN_TOL) -> bool:
    return abs(float(np.sum(np.asarray(x) ** 2)) - radius_sq) <= tol


def golden_suite(cfg: SolverConfig | None = None) -> tuple[list[dict], bool]:
    """Run every closed-form case; returns (rows, all_pass).

    Each row carries name, pass flag, and a detail string with the computed
    outcome so failures are directly readable.
    """
    cfg = cfg or SolverConfig()
    rows: list[dict] = []

    def case(name: str, ok: bool, detail: str):
        rows.append({"name": name, "pass": bool(ok), "detail": detail})

    def run(example: str, *rhs):
        """Sol(A, a) of the example's tensor A for each a, in one solve_many call."""
        return solve_many([with_rhs(builtin_example(example), a) for a in rhs], cfg)

    # ex1: F_i = a_i - (x1^2 + x2^2)
    sols = run("ex1", (2.0, 1.0), (1.0, 2.0), (-1.0, 0.0), (1.0, 1.0))
    sol = sols[0]
    case("ex1 a=(2,1) -> {(0,0),(0,1)}", _points_equal(sol, [(0, 0), (0, 1)]) and not sol.rays,
         f"points={_fmt_points(sol)} status={sol.status}")
    sol = sols[1]
    case("ex1 a=(1,2) -> {(0,0),(1,0)}", _points_equal(sol, [(0, 0), (1, 0)]) and not sol.rays,
         f"points={_fmt_points(sol)} status={sol.status}")
    sol = sols[2]
    case("ex1 a=(-1,0) -> empty", sol.status == STATUS_EMPTY and not sol.points,
         f"points={_fmt_points(sol)} status={sol.status}")
    sol = sols[3]
    others_on_circle = all(
        _on_circle(p.x, 1.0) for p in sol.points if float(np.linalg.norm(p.x)) > GOLDEN_TOL
    )
    has_origin = any(float(np.linalg.norm(p.x)) <= GOLDEN_TOL for p in sol.points)
    case("ex1 a=(1,1) -> {0} + quarter circle (posdim)",
         bool(sol.posdim_suspect) and has_origin and others_on_circle,
         f"posdim={[f.to_json() for f in sol.posdim_suspect]} points={_fmt_points(sol)}")

    # gus: F_i = x_i^2 + a_i
    table = [
        ((-1.0, -4.0), [(1, 2)]),
        ((3.0, -4.0), [(0, 2)]),
        ((5.0, 5.0), [(0, 0)]),
        ((-1.0, -1.0), [(1, 1)]),
    ]
    for (a, expected), sol in zip(table, run("gus", *(a for a, _ in table))):
        ok = _points_equal(sol, expected) and sol.status == STATUS_FINITE
        case(f"gus a={a} -> {expected}", ok, f"points={_fmt_points(sol)} status={sol.status}")

    # monotone: F_i = (x1^2 + x2^2) + a_i
    table = [
        ((-4.0, -1.0), [(2, 0)]),
        ((-1.0, -4.0), [(0, 2)]),
        ((1.0, 2.0), [(0, 0)]),
    ]
    sols = run("monotone", *(a for a, _ in table), (-1.0, -1.0))
    for (a, expected), sol in zip(table, sols):
        ok = _points_equal(sol, expected) and sol.status == STATUS_FINITE
        case(f"monotone a={a} -> {expected}", ok, f"points={_fmt_points(sol)} status={sol.status}")
    sol = sols[-1]
    ok = bool(sol.posdim_suspect) and all(_on_circle(p.x, 1.0) for p in sol.points) and not any(
        float(np.linalg.norm(p.x)) <= GOLDEN_TOL for p in sol.points
    )
    case("monotone a=(-1,-1) -> circle arc only (posdim)", ok,
         f"posdim={[f.to_json() for f in sol.posdim_suspect]} points={_fmt_points(sol)}")

    # zero tensor: F = a
    sols = run("zero", (0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (1.0, 2.0), (-1.0, 0.0))
    sol = sols[0]
    case("zero a=(0,0) -> whole orthant",
         _points_equal(sol, [(0, 0)]) and _has_ray(sol, (1, 0)) and _has_ray(sol, (0, 1))
         and bool(sol.posdim_suspect),
         f"points={_fmt_points(sol)} rays={len(sol.rays)} posdim={len(sol.posdim_suspect)}")
    sol = sols[1]
    case("zero a=(0,2) -> nonnegative x1-axis",
         _points_equal(sol, [(0, 0)]) and _has_ray(sol, (1, 0)) and len(sol.rays) == 1,
         f"points={_fmt_points(sol)} rays={[r.direction.tolist() for r in sol.rays]}")
    sol = sols[2]
    case("zero a=(2,0) -> nonnegative x2-axis",
         _points_equal(sol, [(0, 0)]) and _has_ray(sol, (0, 1)) and len(sol.rays) == 1,
         f"points={_fmt_points(sol)} rays={[r.direction.tolist() for r in sol.rays]}")
    sol = sols[3]
    case("zero a=(1,2) -> {(0,0)}",
         _points_equal(sol, [(0, 0)]) and sol.status == STATUS_FINITE,
         f"points={_fmt_points(sol)} status={sol.status}")
    sol = sols[4]
    case("zero a=(-1,0) -> empty", sol.status == STATUS_EMPTY and not sol.points,
         f"points={_fmt_points(sol)} status={sol.status}")

    return rows, all(r["pass"] for r in rows)
