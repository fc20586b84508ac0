"""Structural property checks: R0, copositivity, monotonicity, GUS.

A "fails" verdict ships a concrete certificate that is re-validated
independently before the report is built.  R0 is read off homogeneous_solve:
its "holds-numerically" ships a certificate too whenever the Bernstein
subdivision of the simplex faces that the search runs first, with
rounding-safe sign tests, proves Sol(A, 0) = {0}
(subdivision._r0_certificate); when it cannot, the search starts Newton from
the pieces that subdivision left alive, and its rays decide.

Copositivity is decided from the KKT points of the form on the simplex (its
Pareto eigenvalues), found on the solver's Newton engine from starts that a
branch and bound on the form's Bernstein coefficients chooses, on the same
subdivision loop as the R0 certificate (subdivision._copositive_leaves);
holds-numerically then records the faces, pieces, Newton starts and
distinct KKT points searched.  Monotonicity is decided on that loop too
(subdivision._monotone_pieces), without a rounding bound.  Only the GUS
probe reads cfg.seed, and its holds-numerically means no sample failed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import FaceMask, TcpInstance, face_blocks, max_residual
from .solver import (
    DEDUP_RADIUS,
    SolverConfig,
    SolutionSet,
    _dedup,
    _newton,
    _solve_stream,
    homogeneous_solve_many,
)
from .subdivision import _copositive_leaves, _monotone_pieces
from .tensors import (
    Tensor,
    _as_count,
    as_vector,
    contract,
    contract_rows,
    form,
    gradient_sum,
    jacobian_rows,
)

VERDICT_HOLDS = "holds-numerically"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

# certificates are re-validated at this looser tolerance, relative to the
# largest entry of the tensor, before reporting
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


def _r0_report(A: Tensor, hom: SolutionSet) -> PropertyReport:
    """check_r0's verdict on A from hom, homogeneous_solve(A, cfg)."""
    effort = {
        "starts": hom.meta["starts"],
        "newton_iters": hom.meta["newton_iters"],
        "rays_found": len(hom.rays),
    }
    verdict, cert = VERDICT_HOLDS, None
    if hom.meta["margin"] is not None:
        cert = {"simplices": hom.meta["simplices"], "margin": hom.meta["margin"]}
    elif hom.rays:
        ray = hom.rays[0].direction
        res = max_residual(TcpInstance(A, np.zeros(A.dim)), ray)
        if res <= CERT_TOL * float(np.max(np.abs(A.array))):
            verdict, cert = VERDICT_FAILS, {"ray": ray.tolist(), "residual": res}
        else:
            verdict = VERDICT_INCONCLUSIVE
            effort["unvalidated_ray_residual"] = res
    elif hom.posdim_suspect:
        # a positive-dimensional homogeneous face without a certified ray:
        # nonzero solutions are suspected but no certificate survived
        verdict = VERDICT_INCONCLUSIVE
        effort["posdim_faces"] = [f.to_json() for f in hom.posdim_suspect]
    effort["simplices"] = hom.meta["simplices"]
    return PropertyReport("r0", verdict, cert, effort)


def _r0_reports(tensors: list[Tensor], cfg: SolverConfig) -> list[PropertyReport]:
    """check_r0 of every tensor, all of one (m, n), from one
    homogeneous_solve_many call."""
    return [_r0_report(A, hom) for A, hom in zip(tensors, homogeneous_solve_many(tensors, cfg))]


def check_r0(A: Tensor, cfg: SolverConfig) -> PropertyReport:
    """R0: the homogeneous problem has no nonzero solution.

    Decided by homogeneous_solve, whose Bernstein subdivision
    (subdivision._r0_certificate) runs first.  When it excludes every piece
    of every simplex face, holds-numerically comes with the certificate
    {"simplices": pieces judged, "margin": a radius, relative to the largest
    entry of A and above cfg.tol, within which every tensor is R0}, a proof
    whose sign tests already bound their rounding, and no Newton runs.
    Otherwise the Newton search starts from the centroids of the surviving
    pieces, and its rays decide.  Fails with a certificate ray, the least
    in tuple order; the ray is re-checked against the zero right-hand side,
    its residual judged at CERT_TOL times the largest entry of A, so the
    verdict does not depend on the units of A.  The residual is reported in
    A's units.  effort records the search's starts and Newton iterations,
    the rays found and the pieces judged (simplices).
    """
    return _r0_reports([A], cfg)[0]


# ---------------------------------------------------------------------------
# copositivity


def _kkt_functions(blocks: np.ndarray, slots: np.ndarray, owner: np.ndarray):
    """fun and jac for _newton on G z^{m-1} = mu, sum(z) = 1 in (z, mu), G = blocks[owner[row]]."""

    def fun(rows, Y):
        Z = Y[:, :-1]
        F = contract_rows(blocks, Z, owner[rows]) - Y[:, -1:]
        return np.concatenate([F, np.sum(Z, axis=1, keepdims=True) - 1.0], axis=1)

    def jac(rows, Y):
        k = Y.shape[1] - 1
        J = np.zeros((len(Y), k + 1, k + 1))
        J[:, :k, :k] = jacobian_rows(slots, Y[:, :-1], owner[rows])
        J[:, :k, k], J[:, k, :k] = -1.0, 1.0
        return J

    return fun, jac


def check_copositive(A: Tensor, cfg: SolverConfig) -> PropertyReport:
    """Copositivity: form(A, x) >= 0 on the nonnegative orthant.

    The form's minimum on the simplex sits at a KKT point, where on the
    support S x^{m-1} = mu, sum(x) = 1 and the form is mu (S the symmetric
    part of A): A is copositive iff every such Pareto eigenvalue mu is >= 0
    (Song & Qi, Linear Multilinear Algebra 63, 2015).  A branch and bound on
    the Bernstein coefficients of the form (subdivision._copositive_leaves;
    Bundfuss & Duer, Linear Algebra Appl. 428, 2008) chooses the starts:
    the centroid of every surviving leaf starts Newton on
    G z^{m-1} = mu, sum(z) = 1 of its face, G x^{m-1} = S x^{m-1}.  The least form over the vertices, the
    least point of the search, the KKT points with z >= 0 and the starts is
    judged against cfg.tol on A divided by its largest entry, and reported
    in A's units.  holds-numerically records the faces, the pieces judged
    (simplices), the Newton starts (grid_points) and iterations and the
    distinct KKT points found (kkt_points).
    """
    n, m = A.dim, A.order
    big = float(np.max(np.abs(A.array)))
    unit = Tensor(A.array / big) if big > 0.0 else A
    leaves, least, simplices = _copositive_leaves(unit)
    # with no leaf left nothing is started: the KKT points are the n unit vectors
    G = gradient_sum(unit.array) / m if leaves else None
    kkt, starts, iters = [np.eye(n)], [], 0
    for k, (V, supp) in leaves.items():
        X0 = V.mean(axis=2)
        masks, owner = np.unique(supp @ (1 << np.arange(n)), return_inverse=True)
        free = np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(len(masks), k)
        blocks, slots = face_blocks(G, free)
        Z0 = X0[supp].reshape(len(X0), k)
        fun, jac = _kkt_functions(blocks, slots, owner)
        Y0 = np.column_stack([Z0, np.sum(Z0 * contract_rows(blocks, Z0, owner), axis=1)])
        Y, resids, its = _newton(fun, jac, Y0)
        iters += int(its.sum())
        ok = (resids <= cfg.tol / 10) & (np.min(Y[:, :-1], axis=1) >= -cfg.tol)
        X = np.zeros((len(X0), n))
        X[supp] = np.maximum(Y[:, :-1], 0.0).ravel()
        starts.append(X0)
        kkt.append(X[ok])
    X = np.vstack(kkt + [least[None]] + starts)
    X /= np.sum(X, axis=1, keepdims=True)
    vals = np.sum(X * contract_rows(unit.array, X), axis=1)
    x = X[int(np.argmin(vals))]
    effort = {
        "grid_points": sum(len(z) for z in starts),
        "simplices": simplices,
        "faces": 2**n - 1,
        "newton_iters": iters,
        "kkt_points": len(_dedup([(p, 0.0) for p in np.vstack(kkt)], DEDUP_RADIUS)) if leaves else n,
        "min_form": form(A, x),
        "argmin": x.tolist(),
    }
    if np.min(vals) < -cfg.tol:
        if form(unit, x) < -cfg.tol:
            cert = {"x": x.tolist(), "form": effort["min_form"]}
            return PropertyReport("copositive", VERDICT_FAILS, cert, effort)
        return PropertyReport("copositive", VERDICT_INCONCLUSIVE, None, effort)
    return PropertyReport("copositive", VERDICT_HOLDS, None, effort)


# ---------------------------------------------------------------------------
# monotonicity


def check_monotone(A: Tensor, cfg: SolverConfig) -> PropertyReport:
    """Monotonicity of F on the orthant: <F(y) - F(x), y - x> >= 0 there.

    The right-hand side cancels from the pairing, so only A is taken.  F is
    monotone there iff J + J^T >= 0 (Facchinei & Pang, Finite-Dimensional
    Variational Inequalities and Complementarity Problems, 2003, 2.3), and
    J is homogeneous, so subdivision._monotone_pieces decides it on the
    simplex for A over its largest entry, at cfg.tol.  holds-numerically
    ships the pieces judged and their lower bound on J + J^T's eigenvalues.
    At a refuting vertex v with eigenvector u, y - x = h u for
    x = v + h u^-, y = v + h u^+, whose pairing h^2 u^T J(v) u + o(h^2) is
    negative for h small enough; scaled by a power of two to near -2 cfg.tol
    and re-checked with contract below -cfg.tol max|A|, fails ships them.
    The re-check runs on A times 2^-e, e the binary exponent of max|A|,
    which is exact up to underflow and cannot overflow where A would.
    Otherwise, or when PIECE_BUDGET stops the search, it is inconclusive.
    Eigenvalues and the pairing are in A's units.
    """
    big = float(np.max(np.abs(A.array))) or 1.0
    unit = Tensor(A.array / big)
    alive, simplices, least, corner, witness = _monotone_pieces(unit, cfg.tol)
    effort = {"simplices": simplices, "least_vertex_eigenvalue": big * corner}
    if witness is None:
        cert = None if alive else {"simplices": simplices, "least_eigenvalue": big * least}
        return PropertyReport("monotone", VERDICT_INCONCLUSIVE if alive else VERDICT_HOLDS, cert, effort)
    v, u = witness
    for h in 2.0 ** -np.arange(53):
        x, y = v + h * np.maximum(-u, 0.0), v + h * np.maximum(u, 0.0)
        p = float((contract_rows(unit.array, y) - contract_rows(unit.array, x)) @ (y - x))
        if p < 0.0:
            s = 2.0 ** math.ceil(math.log2(2.0 * cfg.tol / -p) / A.order)
            x, y = s * x, s * y
            e = math.frexp(big)[1]
            scaled = Tensor(np.ldexp(A.array, -e))
            # an overflow does not re-check: -inf and NaN fail
            with np.errstate(over="ignore", invalid="ignore"):
                p = float((contract(scaled, y) - contract(scaled, x)) @ (y - x))
            if -math.inf < p < -cfg.tol * math.ldexp(big, -e):
                cert = {"x": x.tolist(), "y": y.tolist(), "pairing": math.ldexp(p, e)}
                return PropertyReport("monotone", VERDICT_FAILS, cert, effort)
            break
    return PropertyReport("monotone", VERDICT_INCONCLUSIVE, None, effort)


# ---------------------------------------------------------------------------
# global uniqueness probe


def probe_gus(A: Tensor, cfg: SolverConfig, samples: int = 200) -> PropertyReport:
    """GUS probe: every sampled right-hand side must yield exactly one solution.

    Samples are Gaussian vectors plus the full sign-pattern grid {-1, 0, 1}^n
    (the zero vector makes the probe subsume an R0 check).  Any sample with
    zero or multiple solutions, rays, or a posdim face is a counterexample;
    the first one in sample order is reported.  The right-hand sides are
    solved in solve_many's chunks, and the probe stops at the end of the
    chunk holding the first counterexample.
    """
    samples = _as_count("samples", samples, zero_ok=True)
    n = A.dim
    rhs: list[np.ndarray] = [np.array(p, dtype=float) for p in itertools.product((-1.0, 0.0, 1.0), repeat=n)]
    rng = np.random.default_rng([cfg.seed, 3])
    rhs.extend(rng.standard_normal(n) for _ in range(samples))
    tried = 0
    for a, sol in zip(rhs, _solve_stream([TcpInstance(A, a) for a in rhs], cfg)):
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
