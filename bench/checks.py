"""Output checks made apart from tcplab.

Every check recomputes what it needs with the contraction below, which is
written here and shares no code with `tcplab.tensors` or `tcplab.model`, or
compares against a closed form or a property the method must have.  A check
that rejects an output raises CheckFailed with a readable reason.
"""

from __future__ import annotations

import math

import numpy as np

_LETTERS = "abcdefgh"


class CheckFailed(Exception):
    """An output of the program contradicts an independent computation."""


def apply(arr: np.ndarray, x) -> np.ndarray:
    """A x^{m-1}: contract x into every mode of arr but the first."""
    m = arr.ndim
    idx = _LETTERS[:m]
    spec = idx + "," + ",".join(idx[1:]) + "->" + idx[0]
    return np.einsum(spec, arr, *([np.asarray(x, dtype=float)] * (m - 1)))


def form(arr: np.ndarray, x) -> float:
    """A x^m."""
    x = np.asarray(x, dtype=float)
    return float(x @ apply(arr, x))


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _scale(arr: np.ndarray, a, x) -> float:
    """Magnitude of the terms of F(x), for a tolerance relative to (A, a)."""
    xn = float(np.max(np.abs(x))) if len(x) else 0.0
    return float(np.max(np.abs(a))) + float(np.max(np.abs(arr))) * max(xn, 1.0) ** (arr.ndim - 1)


def kkt_point(arr: np.ndarray, a, x, rtol: float = 1e-7) -> None:
    """x >= 0, F(x) >= 0 and <x, F(x)> = 0, each within rtol of the scale."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    require(x.shape == a.shape and np.all(np.isfinite(x)), f"malformed point {x.tolist()}")
    tol = rtol * _scale(arr, a, x)
    F = apply(arr, x) + a
    require(float(np.min(x)) >= -tol, f"point {x.tolist()} is negative")
    require(float(np.min(F)) >= -tol, f"F({x.tolist()}) = {F.tolist()} is infeasible")
    comp = abs(float(x @ F))
    require(comp <= tol * max(1.0, float(np.max(x))), f"point {x.tolist()} breaks complementarity by {comp:.3g}")


def contains_point(points, target, radius: float = 1e-6) -> None:
    target = np.asarray(target, dtype=float)
    found = any(float(np.max(np.abs(np.asarray(p) - target))) <= radius for p in points)
    require(found, f"point {target.tolist()} is missing from {[list(p) for p in points]}")


def same_point_set(points, expected, radius: float = 1e-6) -> None:
    """The reported points are exactly the expected ones, in any order."""
    require(len(points) == len(expected), f"{len(points)} points reported, {len(expected)} expected: {[list(p) for p in points]}")
    for e in expected:
        contains_point(points, e, radius)


def bezout(points, m: int, n: int) -> None:
    """Isolated solutions number at most the Bezout total m^n over all faces."""
    require(len(points) <= m**n, f"{len(points)} isolated points exceed the Bezout total {m**n}")


def solution_set(arr: np.ndarray, a, sol: dict, planted=None) -> None:
    """A solution JSON: every point solves TCP(A, a), the count is bounded,
    the planted solution (when given) is among the points."""
    pts = [np.asarray(p["x"], dtype=float) for p in sol["points"]]
    for x in pts:
        kkt_point(arr, a, x)
    bezout(pts, arr.ndim, arr.shape[0])
    if planted is not None:
        contains_point(pts, planted)


def r0_ray(arr: np.ndarray, ray, rtol: float = 1e-6) -> None:
    """A certificate against R0: r >= 0, r != 0, A r^{m-1} >= 0, <r, A r^{m-1}> = 0."""
    r = np.asarray(ray, dtype=float)
    require(r.shape == (arr.shape[0],) and np.all(np.isfinite(r)), f"malformed ray {r.tolist()}")
    nrm = float(np.linalg.norm(r))
    require(nrm > 1e-3, f"ray {r.tolist()} is (nearly) zero")
    r = r / nrm
    tol = rtol * float(np.max(np.abs(arr)))
    F = apply(arr, r)
    require(float(np.min(r)) >= -tol, f"ray {r.tolist()} is negative")
    require(float(np.min(F)) >= -tol, f"ray {r.tolist()}: A r^(m-1) = {F.tolist()} is infeasible")
    require(abs(float(r @ F)) <= tol, f"ray {r.tolist()} breaks complementarity by {abs(float(r @ F)):.3g}")


def copositivity_witness(arr: np.ndarray, x, reported: float, tol: float = 1e-8) -> None:
    """A certificate against copositivity: x >= 0, x != 0, A x^m < 0, as reported."""
    x = np.asarray(x, dtype=float)
    require(x.shape == (arr.shape[0],) and float(np.min(x)) >= 0.0 and float(np.sum(x)) > 0.0,
            f"witness {x.tolist()} is not a nonzero nonnegative vector")
    v = form(arr, x)
    require(v < -tol, f"witness {x.tolist()} has A x^m = {v:.6g}, not negative")
    require(abs(v - reported) <= 1e-9 * max(1.0, abs(v)), f"reported form {reported} differs from {v}")


def copositive_minimum(arr: np.ndarray, x, reported: float, lower: float) -> None:
    """A 'holds' copositivity search: its minimiser lies on the simplex, its
    value matches the form there and is no lower than a known lower bound."""
    x = np.asarray(x, dtype=float)
    require(float(np.min(x)) >= -1e-12 and abs(float(np.sum(x)) - 1.0) <= 1e-9,
            f"argmin {x.tolist()} is off the simplex")
    v = form(arr, x)
    require(abs(v - reported) <= 1e-9 * max(1.0, abs(v)), f"reported minimum {reported} differs from {v}")
    require(v >= lower - 1e-12, f"minimum {v} is below the lower bound {lower}")


def ex1_norm_bound(max_a: float, eps: float, delta: float) -> float:
    """Closed-form bound on solution norms for ex1 perturbed within (eps, delta).

    On ex1, F_i = a_i - |x|^2, so a perturbed solution with a free coordinate
    i has |x|^2 = b_i + (dT x^2)_i <= max a + delta + eps |x|^2.
    """
    return math.sqrt((max_a + delta) / (1.0 - eps))


def wilson(hits: int, samples: int) -> tuple[float, float]:
    z = 1.959963984540054
    p = hits / samples
    denom = 1 + z**2 / samples
    center = (p + z**2 / (2 * samples)) / denom
    half = z * math.sqrt(p * (1 - p) / samples + z**2 / (4 * samples**2)) / denom
    return center - half, center + half
