"""Structural property checks: R0, copositivity, monotonicity, GUS.

A "fails" verdict ships a concrete certificate that is re-validated
independently before the report is built.  An R0 "holds-numerically"
ships a certificate too whenever a Bernstein subdivision of the simplex
faces, with rounding-safe sign tests, proves Sol(A, 0) = {0}
(subdivision._r0_certificate).  Every other "holds-numerically" only says
the search found no counterexample at the recorded effort; R0 falls back to
that search when the subdivision is undecided.

Copositivity is decided from the KKT points of the form on the simplex (its
Pareto eigenvalues), found on the solver's Newton engine from starts that a
branch and bound on the form's Bernstein coefficients chooses, on the same
subdivision loop as the R0 certificate (subdivision._copositive_leaves);
holds-numerically then records the faces, pieces, Newton starts and
distinct KKT points searched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import FaceMask, TcpInstance, max_residual
from .solver import (
    DEDUP_RADIUS,
    SolverConfig,
    SolutionSet,
    _candidate_rays,
    _dedup,
    _newton,
    _solve_stream,
    homogeneous_solve_many,
)
from .subdivision import _copositive_leaves, _r0_certificate
from .tensors import (
    Tensor,
    as_vector,
    contract,
    contract_rows,
    form,
    gradient_sum,
    jacobian_rows,
    slot_sum,
)

VERDICT_HOLDS = "holds-numerically"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

# certificates are re-validated at this looser tolerance, relative to the
# largest entry of the tensor, before reporting
CERT_TOL = 1e-6

# check_monotone's sample: a grid of MONOTONE_GRID_PER_AXIS points per axis
# over [0, MONOTONE_BOX]^n and MONOTONE_RANDOM_PAIRS seeded pairs
MONOTONE_BOX = 2.0
MONOTONE_GRID_PER_AXIS = 6
MONOTONE_RANDOM_PAIRS = 200
MONOTONE_CHUNK = 1 << 18


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
    """check_r0's verdict on A from a homogeneous result hom: that of
    homogeneous_solve(A, cfg), or the polished rays of _candidate_rays."""
    effort = {
        "starts": hom.meta.get("starts", 0),
        "newton_iters": hom.meta.get("newton_iters", 0),
        "rays_found": len(hom.rays),
    }
    if hom.rays:
        zero_inst = TcpInstance(A, np.zeros(A.dim))
        ray = hom.rays[0].direction
        res = max_residual(zero_inst, ray)
        if res <= CERT_TOL * float(np.max(np.abs(A.array))):
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


def _r0_reports(tensors: list[Tensor], cfg: SolverConfig) -> list[PropertyReport]:
    """check_r0 of every tensor, all of one (m, n).

    A tensor _r0_certificate certifies holds with the certificate
    {"simplices", "margin"} and runs no Newton search.  An undecided one
    has its candidate directions polished into rays (_candidate_rays); when
    none comes out, it joins one homogeneous_solve_many call with the
    others.  Either ray list then gives the verdict as _r0_report does, and
    effort counts that polish or search work plus the simplices judged.
    """
    certs = [_r0_certificate(A, cfg.tol) for A in tensors]
    homs = {i: _candidate_rays(A, c, cfg) for i, (A, c) in enumerate(zip(tensors, certs)) if not c.holds}
    rest = [i for i, hom in homs.items() if not hom.rays]
    homs.update(zip(rest, homogeneous_solve_many([tensors[i] for i in rest], cfg)))
    reports = []
    for i, (A, cert) in enumerate(zip(tensors, certs)):
        if cert.holds:
            effort = {"starts": 0, "newton_iters": 0, "rays_found": 0}
            rep = PropertyReport("r0", VERDICT_HOLDS, {"simplices": cert.simplices, "margin": cert.margin}, effort)
        else:
            rep = _r0_report(A, homs[i])
        rep.effort["simplices"] = cert.simplices
        reports.append(rep)
    return reports


def check_r0(A: Tensor, cfg: SolverConfig) -> PropertyReport:
    """R0: the homogeneous problem has no nonzero solution.

    Decided first by Bernstein subdivision (subdivision._r0_certificate):
    when every piece of every simplex face is excluded, holds-numerically
    comes with the certificate {"simplices": pieces judged, "margin": a
    radius, relative to the largest entry of A and above cfg.tol, within
    which every tensor is R0}, a proof whose sign tests already bound their rounding.
    Otherwise the centroids of the surviving pieces are polished into rays,
    and when none comes out homogeneous_solve searches as before.  Fails
    with a certificate ray, the least in tuple order; the ray is re-checked
    against the zero right-hand side, its residual judged at CERT_TOL times
    the largest entry of A, so the verdict does not depend on the units of
    A.  The residual is reported in A's units.
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
    G = gradient_sum(unit.array) / m
    kkt, starts, iters = [np.eye(n)], [], 0
    for k, (V, supp) in leaves.items():
        X0 = V.mean(axis=2)
        masks, owner = np.unique(supp @ (1 << np.arange(n)), return_inverse=True)
        free = np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(len(masks), k)
        blocks = np.stack([G[np.ix_(*([f] * m))] for f in free])
        Z0 = X0[supp].reshape(len(X0), k)
        fun, jac = _kkt_functions(blocks, np.stack([slot_sum(b) for b in blocks]), owner)
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
        "kkt_points": len(_dedup([(p, 0.0) for p in np.vstack(kkt)], DEDUP_RADIUS)),
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


def _monotone_pairs(A: Tensor, seed: int):
    """Blocks (X, F(X), Y, F(Y)) of the pairs check_monotone tests.

    First every pair i < j of a grid over [0, MONOTONE_BOX]^n, in
    itertools.combinations order, a block of rows i at a time so that no
    block holds more than MONOTONE_CHUNK entries of the pair mask; then
    MONOTONE_RANDOM_PAIRS seeded pairs.  F omits a, which cancels.
    """
    axes = np.linspace(0.0, MONOTONE_BOX, MONOTONE_GRID_PER_AXIS)
    mesh = np.meshgrid(*([axes] * A.dim), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    F = contract_rows(A.array, grid)
    N = len(grid)
    rows = max(1, MONOTONE_CHUNK // N)
    for lo in range(0, N - 1, rows):
        I, J = np.triu_indices(min(rows, N - 1 - lo), lo + 1, N)
        I += lo
        yield grid[I], F[I], grid[J], F[J]
    rng = np.random.default_rng([seed, 2])
    X, Y = rng.uniform(0.0, MONOTONE_BOX, size=(MONOTONE_RANDOM_PAIRS, 2, A.dim)).transpose(1, 0, 2)
    yield X, contract_rows(A.array, X), Y, contract_rows(A.array, Y)


def check_monotone(A: Tensor, a, cfg: SolverConfig) -> PropertyReport:
    """Monotonicity of F on the orthant: <F(y) - F(x), y - x> >= 0 on pairs.

    The constant a cancels in the difference, so the verdict depends on the
    tensor alone; a is accepted to keep the instance signature uniform.
    Pairs come from a deterministic grid plus seeded random draws, and the
    first least pairing (NaN counting as +inf) is the candidate certificate.
    Pairings are reported in A's units and judged against cfg.tol times the
    largest entry of A, so the verdict does not depend on the units of A.
    When the sampled test holds, copositivity is re-checked for consistency
    (monotone maps have copositive tensors); disagreement downgrades to
    inconclusive.
    """
    a = as_vector(a, A.dim)

    def pairing(x, y):
        d = y - x
        return float((contract(A, y) - contract(A, x)) @ d)

    checked = 0
    worst = (np.inf, None, None)
    for X, FX, Y, FY in _monotone_pairs(A, cfg.seed):
        # the stacked matmul is the 1-d dot of each row, to the bit
        v = np.matmul((FY - FX)[:, None, :], (Y - X)[:, :, None])[:, 0, 0]
        v = np.where(np.isnan(v), np.inf, v)
        i = int(np.argmin(v))
        checked += len(v)
        if v[i] < worst[0]:
            worst = (float(v[i]), X[i], Y[i])
    effort = {"pairs": checked, "box": MONOTONE_BOX, "min_pairing": worst[0]}
    tol = cfg.tol * float(np.max(np.abs(A.array)))
    if worst[0] < -tol:
        v = pairing(worst[1], worst[2])
        if v < -tol:
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
    zero or multiple solutions, rays, or a posdim face is a counterexample;
    the first one in sample order is reported.  The right-hand sides are
    solved in solve_many's chunks, and the probe stops at the end of the
    chunk holding the first counterexample.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
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
