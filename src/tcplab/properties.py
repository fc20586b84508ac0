"""Structural property checks: R0, copositivity, monotonicity, GUS.

All checkers share one asymmetry: a "fails" verdict ships a concrete
certificate that is re-validated independently before the report is built,
while "holds-numerically" only says the search found no counterexample at
the recorded effort.  Nothing here certifies a property globally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import FaceMask, TcpInstance, max_residual
from .solver import (
    STATUS_EMPTY,
    SolverConfig,
    SolutionSet,
    _simplex_starts,
    homogeneous_solve,
    solve,
)
from .tensors import Tensor, as_vector, form, form_gradient, contract

VERDICT_HOLDS = "holds-numerically"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

# certificates are re-validated at this looser tolerance before reporting
CERT_TOL = 1e-6


@dataclass(eq=False)
class PropertyReport:
    property: str
    verdict: str
    certificate: object | None
    effort: dict

    @property
    def holds(self) -> bool:
        return self.verdict == VERDICT_HOLDS

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "effort": self.effort,
        }


def check_r0(A: Tensor, cfg: SolverConfig) -> PropertyReport:
    """R0: the homogeneous problem has no nonzero solution.

    Fails with a certificate ray when homogeneous_solve finds one; the ray is
    re-checked against the zero right-hand side at CERT_TOL.
    """
    hom = homogeneous_solve(A, cfg)
    effort = {
        "starts": hom.meta.get("starts", 0),
        "newton_iters": hom.meta.get("newton_iters", 0),
        "rays_found": len(hom.rays),
    }
    if hom.rays:
        zero_inst = TcpInstance(A, np.zeros(A.dim))
        ray = hom.rays[0].direction
        res = max_residual(zero_inst, ray)
        if res <= CERT_TOL:
            cert = {"ray": ray.tolist(), "residual": res}
            return PropertyReport("r0", VERDICT_FAILS, cert, effort)
        effort["unvalidated_ray_residual"] = res
        return PropertyReport("r0", VERDICT_INCONCLUSIVE, None, effort)
    if hom.posdim_suspect:
        # a positive-dimensional homogeneous face without a certified ray:
        # nonzero solutions are suspected but no certificate survived
        effort["posdim_faces"] = [f.to_json() for f in hom.posdim_suspect]
        return PropertyReport("r0", VERDICT_INCONCLUSIVE, None, effort)
    return PropertyReport("r0", VERDICT_HOLDS, None, effort)


# ---------------------------------------------------------------------------
# copositivity


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _polish_min_form(A: Tensor, x0: np.ndarray, iters: int = 100) -> tuple[np.ndarray, float]:
    """Projected gradient descent for the form on the simplex."""
    x = x0.copy()
    best_x, best_v = x, form(A, x)
    eta = 0.1 / (float(np.linalg.norm(form_gradient(A, x))) + 1.0)
    for _ in range(iters):
        g = form_gradient(A, x)
        for _ in range(20):
            xt = _project_simplex(x - eta * g)
            vt = form(A, xt)
            if vt < best_v - 1e-16:
                x, best_x, best_v = xt, xt, vt
                eta *= 1.2
                break
            eta *= 0.5
        else:
            break
    return best_x, best_v


def check_copositive(A: Tensor, cfg: SolverConfig, resolution: int | None = None) -> PropertyReport:
    """Copositivity: form(A, x) >= 0 on the nonnegative orthant.

    By homogeneity it is enough to scan the probability simplex; the grid
    minimum is polished by projected gradient before judging.  Grid depth
    keeps the minimizer location error below 1e-2 for n <= 3.
    """
    n = A.dim
    if resolution is None:
        resolution = 200 if n <= 3 else 100
    grid = _simplex_starts(n, resolution)
    if A.order <= 12:
        letters = "abcdefghijkl"[: A.order]
        subs = letters + "," + ",".join("p" + c for c in letters) + "->p"
        vals = np.einsum(subs, A.array, *([grid] * A.order))
    else:
        vals = np.array([form(A, x) for x in grid])
    order = np.argsort(vals)
    best_x, best_v = grid[order[0]], float(vals[order[0]])
    polish_starts = min(20, len(order))
    for j in range(polish_starts):
        x, v = _polish_min_form(A, grid[order[j]])
        if v < best_v:
            best_x, best_v = x, v
    effort = {
        "grid_points": int(len(grid)),
        "resolution": resolution,
        "polish_starts": polish_starts,
        "min_form": best_v,
        "argmin": best_x.tolist(),
    }
    if best_v < -cfg.tol:
        recheck = form(A, best_x)
        if recheck < -cfg.tol:
            cert = {"x": best_x.tolist(), "form": recheck}
            return PropertyReport("copositive", VERDICT_FAILS, cert, effort)
        return PropertyReport("copositive", VERDICT_INCONCLUSIVE, None, effort)
    return PropertyReport("copositive", VERDICT_HOLDS, None, effort)


# ---------------------------------------------------------------------------
# monotonicity


def check_monotone(
    A: Tensor,
    a,
    cfg: SolverConfig,
    box: float = 2.0,
    grid_per_axis: int = 6,
    random_pairs: int = 200,
) -> PropertyReport:
    """Monotonicity of F on the orthant: <F(y) - F(x), y - x> >= 0 on pairs.

    The constant a cancels in the difference, so the verdict depends on the
    tensor alone; a is accepted to keep the instance signature uniform.
    Pairs come from a deterministic grid plus seeded random draws.  When the
    sampled test holds, copositivity is re-checked for consistency (monotone
    maps have copositive tensors); disagreement downgrades to inconclusive.
    """
    a = as_vector(a, A.dim)
    n = A.dim

    def pairing(x, y):
        d = y - x
        return float((contract(A, y) - contract(A, x)) @ d)

    axes = np.linspace(0.0, box, grid_per_axis)
    mesh = np.meshgrid(*([axes] * n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng([cfg.seed, 2])
    checked = 0
    worst = (np.inf, None, None)
    for i, j in itertools.combinations(range(len(grid)), 2):
        v = pairing(grid[i], grid[j])
        checked += 1
        if v < worst[0]:
            worst = (v, grid[i], grid[j])
    for _ in range(random_pairs):
        x = rng.uniform(0.0, box, n)
        y = rng.uniform(0.0, box, n)
        v = pairing(x, y)
        checked += 1
        if v < worst[0]:
            worst = (v, x, y)
    effort = {"pairs": checked, "box": box, "min_pairing": worst[0]}
    if worst[0] < -cfg.tol:
        v = pairing(worst[1], worst[2])
        if v < -cfg.tol:
            cert = {"x": worst[1].tolist(), "y": worst[2].tolist(), "pairing": v}
            return PropertyReport("monotone", VERDICT_FAILS, cert, effort)
        return PropertyReport("monotone", VERDICT_INCONCLUSIVE, None, effort)
    cop = check_copositive(A, cfg)
    effort["copositive_verdict"] = cop.verdict
    if cop.verdict == VERDICT_FAILS:
        # monotone would imply copositive; a clash means sampling missed something
        return PropertyReport("monotone", VERDICT_INCONCLUSIVE, cop.certificate, effort)
    return PropertyReport("monotone", VERDICT_HOLDS, None, effort)


# ---------------------------------------------------------------------------
# global uniqueness probe


def probe_gus(A: Tensor, cfg: SolverConfig, samples: int = 200) -> PropertyReport:
    """GUS probe: every sampled right-hand side must yield exactly one solution.

    Samples are Gaussian vectors plus the full sign-pattern grid {-1, 0, 1}^n
    (the zero vector makes the probe subsume an R0 check).  Any sample with
    zero or multiple solutions, rays, or a posdim face is a counterexample.
    """
    n = A.dim
    rhs: list[np.ndarray] = [np.array(p, dtype=float) for p in itertools.product((-1.0, 0.0, 1.0), repeat=n)]
    rng = np.random.default_rng([cfg.seed, 3])
    rhs.extend(rng.standard_normal(n) for _ in range(samples))
    hom = homogeneous_solve(A, cfg)  # shared across all right-hand sides
    tried = 0
    for a in rhs:
        sol = solve(TcpInstance(A, a), cfg, hom=hom)
        tried += 1
        unique = len(sol.points) == 1 and not sol.rays and not sol.posdim_suspect
        if not unique:
            cert = {
                "a": a.tolist(),
                "n_points": len(sol.points),
                "n_rays": len(sol.rays),
                "status": sol.status,
            }
            return PropertyReport("gus", VERDICT_FAILS, cert, {"samples": tried})
    return PropertyReport("gus", VERDICT_HOLDS, None, {"samples": tried})


# ---------------------------------------------------------------------------
# lower-semicontinuity obstruction and dual-cone membership


@dataclass(eq=False)
class LscWitness:
    verdict: str  # "not-lsc" | "no-obstruction"
    faces: list[FaceMask]
    solution: SolutionSet

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "faces": [f.to_json() for f in self.faces],
            "status": self.solution.status,
        }


def lsc_witness(sol: SolutionSet) -> LscWitness:
    """Positive-dimensional faces obstruct lower semicontinuity at (A, a).

    sol is solve's result for (A, a).  A solution map that is lsc at a point
    has a finite solution set there, so any posdim_suspect face is an
    obstruction witness.
    """
    if sol.posdim_suspect:
        return LscWitness("not-lsc", list(sol.posdim_suspect), sol)
    return LscWitness("no-obstruction", [], sol)


def int_dual_cone_member(rays, q, tol: float) -> bool:
    """Whether q pairs strictly positively with every sampled cone ray.

    The rays stand in for the cone Sol(A, 0); an empty list means the cone
    is {0}, whose dual has interior R^n, so membership holds vacuously.
    """
    dirs = [as_vector(r) for r in rays]
    if not dirs:
        return True
    q = as_vector(q, dirs[0].shape[0])
    return all(float(r @ q) > tol for r in dirs)
