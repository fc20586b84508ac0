"""Pseudo-face enumeration solver for complementarity instances.

Every face of the nonnegative orthant contributes a square polynomial
system (model.FaceSystem); the solver runs a damped Newton on each from the
starts that a Bernstein subdivision of the augmented tensor leaves on it
(subdivision._leaf_starts), filters roots by the face sign conditions, and
merges the survivors.  A face whose equations all vanish identically takes
the same path: Newton stops at its starts, every feasible start is a root,
and the face is flagged as a continuum unless its section is one point (a
homogeneous k = 1 face).  The starts of all faces with the same number k of
free coordinates run as one Newton batch: each row is evaluated on its own
face's block, so a face gets the roots it gets when solved alone.
Unboundedness is probed through the homogeneous problem TCP(A, 0): its
nonzero solutions on the probability simplex, searched from a lattice and
seeded random starts, are the candidate recession directions, and a
direction is kept for a concrete right-hand side only when the far tail of
its ray actually solves the instance.  Before any such search,
subdivision._r0_certificate tries to prove Sol(A, 0) = {0} by Bernstein
subdivision of the simplex faces, with rounding-safe sign tests; a tensor it
certifies has no candidate directions, and the pieces it leaves undecided
seed the ray polish (_candidate_rays).

solve_many and homogeneous_solve_many take many instances of one (m, n) and
hand the face systems of all of them to the face solver at once, in chunks
under a budget of Newton starts; each instance still gets, bit for bit,
what solve or homogeneous_solve gives it alone, and the homogeneous part is
settled once per distinct tensor.

The brute-force grid oracle at the bottom is a separate check path: it
never reuses the solver's roots and only polishes its own grid clusters,
but it runs on the same kernels and Newton engine, and on (A, a) divided by
its pair norm as solve does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BudgetError,
    FaceMask,
    FaceSystem,
    TcpInstance,
    enumerate_faces,
    face_of,
    face_system,
    max_residual,
)
from .subdivision import LEAF_EDGE, _leaf_starts, _r0_certificate
from .tensors import (
    Tensor,
    as_vector,
    contract,
    contract_rows,
    jacobian_rows,
    pair_norm,
    slot_sum,
)

STATUS_EMPTY = "exact-empty"
STATUS_FINITE = "finite"
STATUS_NON_ISOLATED = "non-isolated"
STATUS_UNBOUNDED = "unbounded-suspect"

# a face is suspected to carry a positive-dimensional component when more
# than this many deduplicated roots survive on it, or when the system
# Jacobian at a root is rank-deficient beyond SIGMA_RATIO
POSDIM_ROOT_LIMIT = 25
SIGMA_RATIO = 1e-6

# fixed solver constants, echoed with subdivision.LEAF_EDGE in every
# SolutionSet's meta; DEDUP_RADIUS is a distance in x on the normalized pair
DEDUP_RADIUS = 1e-5
NEWTON_MAX_ITER = 100
RANDOM_STARTS = 16
NEWTON_ATOL = 1e-14
# at most this many centroids of the pieces an undecided R0 subdivision
# leaves are polished as candidate rays
R0_CANDIDATES = 8

ORACLE_BUDGET = 10**8
ORACLE_VERIFY_TOL = 1e-7
ORACLE_MEMBER_CAP = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: the tolerance tol and the seed of the random starts.

    tol is relative to the pair norm |(A, a)| = sqrt(|A|_F^2 + |a|_2^2): solve
    divides (A, a) by that norm on entry, which leaves the solution set
    unchanged, so Sol(tA, ta) is computed exactly as Sol(A, a) for every
    t > 0.  The seed draws the homogeneous search's random starts only.
    Everything else the solver uses is a module constant (DEDUP_RADIUS,
    NEWTON_MAX_ITER, RANDOM_STARTS, LEAF_EDGE), echoed with tol and seed in
    each result's meta.
    """

    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # written so that a NaN tol fails it.  Below 10 * NEWTON_ATOL a root
        # that meets Newton's stop rule can fail the tol / 10 root filter
        if not 10 * NEWTON_ATOL <= self.tol < DEDUP_RADIUS:
            raise ValueError(f"tol must lie in [{10 * NEWTON_ATOL:g}, {DEDUP_RADIUS:g}), got {self.tol}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True, eq=False)
class SolutionPoint:
    x: np.ndarray
    face: FaceMask
    kkt_res: float

    def to_json(self) -> dict:
        return {"x": self.x.tolist(), "face": self.face.to_json(), "kkt_res": self.kkt_res}


@dataclass(frozen=True, eq=False)
class Ray:
    direction: np.ndarray
    face: FaceMask

    def to_json(self) -> dict:
        return {"direction": self.direction.tolist(), "face": self.face.to_json()}


@dataclass(eq=False)
class SolutionSet:
    points: list[SolutionPoint]
    rays: list[Ray]
    posdim_suspect: list[FaceMask]
    status: str
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "points": [p.to_json() for p in self.points],
            "rays": [r.to_json() for r in self.rays],
            "posdim_suspect": [f.to_json() for f in self.posdim_suspect],
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# Newton engine


# Armijo step lengths 1, 1/2, .., 2^-30, tried in order
_ARMIJO_STEPS = 2.0 ** -np.arange(31)
# a blocked Armijo evaluation holds at most max(live rows, this) points
_ARMIJO_BLOCK_ROWS = 1024


def _newton_steps(J: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton steps for a stack of Jacobians J (S, M, k) and residuals f (S, M).

    Square systems take the LU solution.  Every other row with a finite
    Jacobian (all rows of the rectangular simplex-augmented homogeneous
    systems, and square rows that are singular or whose LU step is not
    finite) takes the minimum-norm least-squares step from one stacked pinv,
    with lstsq's cut-off rcond = eps * max(M, k).  Rows with a non-finite
    Jacobian have no step and get NaN, which _newton drops.
    """
    S, M, k = J.shape
    step = np.full((S, k), np.nan)
    rhs = -f[:, :, None]
    finite = np.isfinite(J).all(axis=(1, 2))
    rest = finite
    if M == k:
        ok = finite.copy()
        try:
            step[ok] = np.linalg.solve(J[ok], rhs[ok])[:, :, 0]
        except np.linalg.LinAlgError:
            # the LU of a singular row hits an exact zero pivot, which
            # slogdet reports as sign 0 without raising
            ok[ok] = np.linalg.slogdet(J[ok])[0] != 0.0
            step[ok] = np.linalg.solve(J[ok], rhs[ok])[:, :, 0]
        ok &= np.isfinite(step).all(axis=1)
        rest = finite & ~ok
    if rest.any():
        pinv = np.linalg.pinv(J[rest], rcond=np.finfo(float).eps * max(M, k))
        step[rest] = (pinv @ rhs[rest])[:, :, 0]
    return step


def _newton(fun, jac, Z0):
    """Damped Newton with Armijo backtracking on the squared residual, run on
    every row of Z0 (S, k) together for at most NEWTON_MAX_ITER iterations.

    fun(rows, Z) maps points Z (R, k) to residual rows (R, M) and jac(rows, Z)
    to Jacobians (R, M, k), where rows[i] is the row of Z0 whose system is
    evaluated at Z[i]; M > k for the simplex-augmented homogeneous systems.
    Each row keeps its own step length, stall count and iteration count, and
    every operation acts row by row, so a start's result does not depend on
    the other rows of the batch.  A row whose start has a non-finite squared
    residual is never stepped: it keeps its start, its residual and 0
    iterations, and every root filter rejects it.  The callers' systems have
    entries of at most 1 and bounded starts, so their residuals stay finite.
    Returns (Z, residual_inf, iterations), one entry per row.
    """
    # in C order each row's kernel sums run the same way, whatever Z0's layout
    Z = np.array(Z0, dtype=float, order="C")
    F = fun(np.arange(Z.shape[0]), Z)
    phi = np.sum(F * F, axis=1)
    iters = np.zeros(Z.shape[0], dtype=int)
    stalled = np.zeros(Z.shape[0], dtype=int)
    live = np.flatnonzero(np.isfinite(phi))
    for it in range(NEWTON_MAX_ITER):
        live = live[np.max(np.abs(F[live]), axis=1) > NEWTON_ATOL]
        if not live.size:
            break
        step = _newton_steps(jac(live, Z[live]), F[live])
        snorm = np.sum(step * step, axis=1)
        keep = np.isfinite(snorm) & (snorm != 0.0)
        live, step = live[keep], step[keep]
        if not live.size:
            break
        iters[live] = it + 1
        moved = np.zeros(live.size, dtype=bool)
        pending = np.arange(live.size)
        cap = max(live.size, _ARMIJO_BLOCK_ROWS)
        j = 0
        while pending.size and j < _ARMIJO_STEPS.size:
            # t = 1 over every live row, then blocks of the next step lengths
            # for the rows still pending: block b holds every pending row at
            # ts[b].  A pending row's Z and phi do not change, so taking its
            # first accepted t in the block is the step the one-t-at-a-time
            # search takes.
            ts = _ARMIJO_STEPS[j:j + (1 if j == 0 else cap // pending.size)]
            j += ts.size
            rows = live[pending]
            Zt = (Z[rows] + ts[:, None, None] * step[pending]).reshape(-1, Z.shape[1])
            Ft = fun(np.tile(rows, ts.size), Zt)
            phit = np.sum(Ft * Ft, axis=1)
            acc = phit.reshape(ts.size, rows.size)
            acc = np.isfinite(acc) & (acc <= (1.0 - 1e-4 * ts)[:, None] * phi[rows])
            hit = acc.any(axis=0)
            if hit.any():
                sel = np.argmax(acc, axis=0)[hit] * rows.size + np.flatnonzero(hit)
                # converging to a root of any multiplicity q contracts phi by
                # at least (1-1/q)^(2q) < 0.14 per full step; sustained ratios
                # near 1 mean a positive-residual floor with no root below
                r = rows[hit]
                stalled[r] = np.where(phit[sel] > 0.5 * phi[r], stalled[r] + 1, 0)
                Z[r], F[r], phi[r] = Zt[sel], Ft[sel], phit[sel]
                moved[pending[hit]] = True
                pending = pending[~hit]
        live = live[moved & (stalled[live] < 12)]
    return Z, np.max(np.abs(F), axis=1), iters


def _face_functions(systems: list[FaceSystem], owner: np.ndarray | None, simplex: bool):
    """fun and jac for _newton over face systems of one size k.

    Row r of the batch solves systems[owner[r]]; with one system owner is
    not read.  The simplex systems append sum(z) = 1, the normalization of
    the homogeneous search.
    """
    if len(systems) == 1:
        (fs,) = systems
        blocks, slots, a_free = fs.block, fs.slots, fs.a_free
    else:
        blocks = np.stack([fs.block for fs in systems])
        slots = np.stack([fs.slots for fs in systems])
        a_free = np.stack([fs.a_free for fs in systems])
    k = systems[0].k

    def fun(rows, Z):
        b = None if len(systems) == 1 else owner[rows]
        F = contract_rows(blocks, Z, b) + (a_free if b is None else a_free[b])
        if simplex:
            F = np.concatenate([F, np.sum(Z, axis=-1, keepdims=True) - 1.0], axis=-1)
        return F

    def jac(rows, Z):
        J = jacobian_rows(slots, Z, None if len(systems) == 1 else owner[rows])
        if simplex:
            J = np.concatenate([J, np.ones(J.shape[:-2] + (1, k))], axis=-2)
        return J

    return fun, jac


def _simplex_starts(k: int, resolution: int = 6) -> np.ndarray:
    """Lattice of the probability simplex: compositions of resolution into k,
    the gaps between the k - 1 bars of each stars-and-bars arrangement."""
    bars = list(itertools.combinations(range(resolution + k - 1), k - 1))
    edges = np.pad(np.array(bars, dtype=int).reshape(len(bars), k - 1), ((0, 0), (1, 1)),
                   constant_values=(-1, resolution + k - 1))
    return (np.diff(edges, axis=1) - 1) / resolution


def _dedup(candidates: list[tuple[np.ndarray, float]], radius: float, limit: int | None = None) -> list[np.ndarray]:
    """Greedy dedup in inf-norm, best residual first; deterministic order.

    Candidates are ranked by (residual, coordinates).  The first candidate
    left is kept and every candidate within radius of it dropped, so a
    candidate is kept exactly when it is farther than radius from every kept
    candidate ranked before it.  With a limit, the scan stops once that many
    are kept: the result is the first limit of the full one.
    """
    if not candidates:
        return []
    Z = np.array([z for z, _ in candidates])
    res = np.array([r for _, r in candidates], dtype=float)
    # lexsort sorts by its last key first: the residual, then z[0], z[1], ..
    order = np.lexsort(np.vstack([Z.T[::-1], res]))
    Z = Z[order]
    left = np.ones(len(order), dtype=bool)
    kept: list[np.ndarray] = []
    while left.any() and len(kept) != limit:
        i = int(np.argmax(left))
        kept.append(candidates[order[i]][0])
        left &= np.max(np.abs(Z - Z[i]), axis=1) > radius
    return kept


# ---------------------------------------------------------------------------
# ray tests


def ray_active(inst: TcpInstance, direction, tol: float) -> bool:
    """Whether the tail of a homogeneous solution ray solves the instance.

    For a homogeneous solution r, points t * r with t large solve TCP(A, a)
    iff a vanishes on the support of r and, off the support, the slack
    contract(A, r) is either strictly positive or backed by a nonnegative a.
    """
    r = as_vector(direction, inst.n)
    Fr = contract(inst.tensor, r)
    for i in range(inst.n):
        if r[i] > tol:
            if abs(inst.a[i]) > tol or abs(Fr[i]) > tol:
                return False
        else:
            if Fr[i] < -tol:
                return False
            if Fr[i] <= tol and inst.a[i] < -tol:
                return False
    return True


# ---------------------------------------------------------------------------
# per-face root finding


@dataclass
class _FaceOutcome:
    points: list[np.ndarray] = field(default_factory=list)
    rays: list[np.ndarray] = field(default_factory=list)
    posdim: bool = False
    starts: int = 0
    newton_iters: int = 0


def _filter_roots(fs: FaceSystem, Z: np.ndarray, resids: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Indices of the Newton end points Z (S, k) that are roots on this face.

    A row is kept when its residual is below tol/10, it lies strictly inside
    the face, it does not snap onto a smaller face, the pinned rows of F are
    nonnegative and the KKT residual is within tol.  Homogeneous faces come
    from homogeneous_solve, whose instance has a = 0, so fs.instance is the
    instance to check on every face.
    """
    inst, tol = fs.instance, cfg.tol
    # boundary roots belong to a larger face and are found there
    keep = (resids <= tol / 10) & (np.min(Z, axis=1) > tol)
    # degenerate components (multiplicity q) stall Newton near
    # NEWTON_ATOL**(1/q), above tol; roots that collapse onto a smaller face
    # once such components are zeroed are that face's solutions, not ours
    snap = max(DEDUP_RADIUS, 10.0 * NEWTON_ATOL ** (1.0 / max(2, inst.m - 1)))
    small = (Z <= snap) & keep[:, None]
    snapped = np.flatnonzero(small.any(axis=1))
    if snapped.size:
        ZS = np.where(small[snapped], 0.0, Z[snapped])
        keep[snapped] = max_residual(inst, fs.embed(ZS)) > tol
    idx = np.flatnonzero(keep)
    X = fs.embed(Z[idx])
    FX = inst.F(X)
    return idx[(fs.pinned_slack(X, FX) >= -tol) & (max_residual(inst, X, FX) <= tol)]


def _degenerate_face(fs: FaceSystem, cfg: SolverConfig) -> _FaceOutcome | None:
    """The outcome of a face that needs no Newton run, or None for any other
    face: an equation that is identically a nonzero constant never vanishes,
    and the face {0} holds the origin when a >= 0 (the homogeneous search
    leaves that face out).  A face whose equations all vanish identically
    runs Newton like any other: every feasible start is a root there."""
    if fs.k == 0 and float(np.min(fs.instance.a)) >= -cfg.tol:
        return _FaceOutcome(points=[np.zeros(fs.instance.n)])
    return _FaceOutcome() if fs.k == 0 or fs.infeasible_rows else None


def _face_starts(systems: list[FaceSystem], cfg: SolverConfig, homogeneous: bool) -> list[np.ndarray]:
    """Newton starts of the face systems of one instance, (S, k) each: for
    the homogeneous search, which lives on the probability simplex, the
    lattice, the centroid and RANDOM_STARTS Dirichlet draws seeded by (seed,
    face); for a point face, the leaves on it (_leaf_starts), maybe none.
    """
    if not homogeneous:
        leaves = _leaf_starts(systems[0].instance, cfg.tol)
        return [leaves.get(fs.alpha.mask, np.zeros((0, fs.k))) for fs in systems]
    return [np.vstack([_simplex_starts(fs.k), np.full((1, fs.k), 1.0 / fs.k),
                       np.random.default_rng([cfg.seed, fs.alpha.mask, 1]).dirichlet(np.ones(fs.k), RANDOM_STARTS)])
            for fs in systems]


def _face_outcome(
    fs: FaceSystem, Z, resids, iters, jac, row: int, cfg: SolverConfig, homogeneous: bool
) -> _FaceOutcome:
    """Roots of a face from its Newton end points Z, with sign filtering and
    posdim detection.  jac is the batch's Jacobian function and
    row one of the face's rows in the batch.  Past POSDIM_ROOT_LIMIT roots
    the face is a continuum whatever their number, so deduplication stops at
    POSDIM_ROOT_LIMIT + 1.  A homogeneous continuum is reported by one ray,
    that of its accepted root nearest the face's centroid, which keeps it
    away from the smaller faces beside it; on a face whose equations all
    vanish that root is the centroid start."""
    out = _FaceOutcome(starts=Z.shape[0], newton_iters=int(iters.sum()))
    accepted = _filter_roots(fs, Z, resids, cfg)
    roots = _dedup([(Z[i], resids[i]) for i in accepted], DEDUP_RADIUS, POSDIM_ROOT_LIMIT + 1)
    if not roots:
        return out

    posdim = len(roots) > POSDIM_ROOT_LIMIT
    if not posdim:
        sig = np.linalg.svd(jac(np.full(len(roots), row), np.array(roots)), compute_uv=False)
        posdim = bool(np.any((sig[:, 0] == 0.0) | (sig[:, -1] < SIGMA_RATIO * sig[:, 0])))
    out.posdim = posdim

    if homogeneous:
        if posdim:
            Za = Z[accepted]
            roots = [Za[int(np.argmin(np.linalg.norm(Za - 1.0 / fs.k, axis=1)))]]
        xs = [fs.embed(z) for z in roots]
        out.rays.extend(x / float(np.linalg.norm(x)) for x in xs)
    elif not posdim:
        out.points.extend(fs.embed(z) for z in roots)
    return out


def _runs(items, size, budget: int):
    """Lazy runs of consecutive items whose sizes sum to at most budget, or of one item."""
    run, total = [], 0
    for item in items:
        s = size(item)
        if run and total + s > budget:
            yield run
            run, total = [], 0
        run.append(item)
        total += s
    if run:
        yield run


def _solve_faces(systems: list[FaceSystem], starts: list, cfg: SolverConfig, homogeneous: bool) -> list[_FaceOutcome]:
    """Roots of each face system from its starts, with sign filtering and
    posdim detection, one outcome per system.  The faces of one size k, of
    whichever instances, run in Newton batches of whole faces under
    _MANY_CHUNK starts times n^m; rows do not interact, so every face gets
    the roots it gets when solved alone."""
    # a face without starts has no roots
    outcomes = [_degenerate_face(fs, cfg) if len(z) or not fs.k else _FaceOutcome() for fs, z in zip(systems, starts)]
    by_size: dict[int, list[int]] = {}
    for i, out in enumerate(outcomes):
        if out is None:
            by_size.setdefault(systems[i].k, []).append(i)
    for members in by_size.values():
        inst = systems[members[0]].instance
        for batch in _runs(members, lambda i: len(starts[i]), _MANY_CHUNK // inst.n**inst.m):
            group, counts = [systems[i] for i in batch], [len(starts[i]) for i in batch]
            fun, jac = _face_functions(group, np.repeat(np.arange(len(group)), counts), homogeneous)
            Z, resids, iters = _newton(fun, jac, np.vstack([starts[i] for i in batch]))
            for i, fs, lo, hi in zip(batch, group, np.cumsum([0] + counts), np.cumsum(counts)):
                outcomes[i] = _face_outcome(fs, Z[lo:hi], resids[lo:hi], iters[lo:hi], jac, lo, cfg, homogeneous)
    return outcomes


def _status(points, rays, posdim) -> str:
    if rays:
        return STATUS_UNBOUNDED
    if posdim:
        return STATUS_NON_ISOLATED
    if points:
        return STATUS_FINITE
    return STATUS_EMPTY


def _meta(cfg: SolverConfig, **extra) -> dict:
    d = {
        "tol": cfg.tol,
        "dedup_radius": DEDUP_RADIUS,
        "newton_max_iter": NEWTON_MAX_ITER,
        "random_starts": RANDOM_STARTS,
        "leaf_edge": LEAF_EDGE,
        "seed": cfg.seed,
    }
    d.update(extra)
    return d


def _unit_pair(A: Tensor, a: np.ndarray) -> TcpInstance:
    """(A, a) divided by its pair norm, which leaves every solution set unchanged.

    The norm is taken after dividing by the largest entry, so it neither
    overflows nor underflows.  The zero pair is returned as it is.
    """
    big = max(float(np.max(np.abs(A.array))), float(np.max(np.abs(a))))
    if big == 0.0:
        return TcpInstance(A, a)
    B, b = Tensor(A.array / big), a / big
    nrm = pair_norm(B, b)
    return TcpInstance(Tensor(B.array / nrm), b / nrm)


def _sorted_points(
    unit: TcpInstance, inst: TcpInstance, xs: list[np.ndarray], cfg: SolverConfig
) -> list[SolutionPoint]:
    """Deduplicated points ranked on the normalized pair; kkt_res is reported
    against the caller's instance."""
    if not xs:
        return []
    ranked = _dedup(list(zip(xs, max_residual(unit, np.array(xs)))), DEDUP_RADIUS)
    ranked.sort(key=lambda x: tuple(x))
    kkt = max_residual(inst, np.array(ranked)).tolist()
    return [SolutionPoint(x=x, face=face_of(x, cfg.tol), kkt_res=r) for x, r in zip(ranked, kkt)]


def _sorted_rays(directions: list[np.ndarray], tol: float) -> list[Ray]:
    kept = _dedup([(d, 0.0) for d in directions], DEDUP_RADIUS)
    kept.sort(key=lambda d: tuple(d))
    return [Ray(direction=d, face=face_of(d, tol)) for d in kept]


_CONE_TS = np.array([0.5, 1.0, 2.0, 10.0])


def _cone_holds(inst0: TcpInstance, r: np.ndarray, tol: float) -> bool:
    """Whether t * r solves TCP(A, 0) within tol at every t in _CONE_TS."""
    return bool(np.all(max_residual(inst0, np.outer(_CONE_TS, r)) <= tol))


def _certified_ray(inst0: TcpInstance, direction, cfg: SolverConfig) -> tuple[np.ndarray | None, int]:
    """Re-polish a candidate direction until the cone property certifies.

    Every emitted ray promises residual(A, 0, t*r) <= tol along the sampled
    tail t in _CONE_TS; comp scales like t^m, so a root accepted at tol/10
    can be too loose at t = 10.  Exact candidates pass immediately; Newton
    candidates get one more polish to machine accuracy.  Directions that
    still fail are dropped (the posdim flag, not a sloppy ray, reports their
    face).  Returns the ray, or None, and the Newton iterations spent.
    """
    r = np.asarray(direction, dtype=float)
    r = r / float(np.linalg.norm(r))
    if _cone_holds(inst0, r, cfg.tol):
        return r, 0
    fs = face_system(inst0, face_of(np.maximum(r, 0.0), cfg.tol))
    if fs.k == 0:
        return None, 0
    z0 = r[list(fs.free)]
    s = float(np.sum(z0))
    if s <= 0.0:
        return None, 0
    Z, _, iters = _newton(*_face_functions([fs], None, simplex=True), (z0 / s)[None])
    x = fs.embed(Z[0])
    nrm = float(np.linalg.norm(x))
    if not math.isfinite(nrm) or nrm <= 0.0 or float(np.min(x)) < 0.0:
        return None, int(iters[0])
    r = x / nrm
    return (r if _cone_holds(inst0, r, cfg.tol) else None), int(iters[0])


def _candidate_rays(A: Tensor, cert, cfg: SolverConfig) -> SolutionSet:
    """The rays _certified_ray polishes out of the candidate directions of an
    undecided R0 certificate cert of A, as a homogeneous result whose starts
    counts the candidates polished and newton_iters their polish.  The
    candidates are ranked by their TCP(A, 0) residual and deduplicated
    within half the longest surviving edge, and the first R0_CANDIDATES are
    polished."""
    unit = _unit_pair(A, np.zeros(A.dim))
    ranked = _dedup(cert.candidates, 0.5 * cert.longest, R0_CANDIDATES)
    polished = [_certified_ray(unit, c, cfg) for c in ranked]
    rays = _sorted_rays([r for r, _ in polished if r is not None], cfg.tol)
    meta = _meta(cfg, homogeneous=True, starts=len(polished), newton_iters=sum(it for _, it in polished))
    return SolutionSet([], rays, [], _status([], rays, []), meta)


def _homogeneous_rays(tensors: list[Tensor], cfg: SolverConfig) -> list[list[np.ndarray]]:
    """The ray directions of homogeneous_solve for each tensor, all of one
    (m, n); a tensor _r0_certificate certifies has none and runs no Newton
    search."""
    certified = [_r0_certificate(A, cfg.tol).holds for A in tensors]
    rest = iter(homogeneous_solve_many([A for A, ok in zip(tensors, certified) if not ok], cfg))
    return [[] if ok else [r.direction for r in next(rest).rays] for ok in certified]


# Newton starts per chunk of solve_many or homogeneous_solve_many, and per
# Newton batch of _solve_faces, times n^m: the size of the stacked kernels'
# gathers
_MANY_CHUNK = 1 << 21


def _solve_stream(instances, cfg: SolverConfig, homogeneous: bool = False, homs: dict | None = None):
    """The results of solve_many, or with homogeneous those of
    homogeneous_solve_many on the instances' tensors, yielded one by one.

    A chunk takes consecutive instances while their starts (_face_starts)
    times n^m stay within _MANY_CHUNK, and at least one, and hands all their
    faces to one _solve_faces call when its first result is asked for.  The
    rays of TCP(A, 0) are found once per distinct tensor by
    _homogeneous_rays, after the point faces of the chunk where it first
    appears, and kept in homs by the tensor's bytes; a caller may pass homs
    with rays it already has.
    """
    instances = list(instances)
    shapes = sorted({inst.tensor.array.shape for inst in instances})
    if len(shapes) > 1:
        raise ValueError(f"the instances of one call must share (m, n); got tensor shapes {shapes}")
    faces = enumerate_faces(instances[0].n) if instances else []
    if homogeneous:
        faces = faces[:-1]  # the face {0}, the last one, holds only the trivial solution
    homs = {} if homs is None else homs

    def prepared():
        for inst in instances:
            unit = _unit_pair(inst.tensor, inst.a)
            systems = [face_system(unit, face) for face in faces]
            yield inst, unit, systems, _face_starts(systems, cfg, homogeneous)

    for chunk in _runs(prepared(), lambda item: sum(len(z) for z in item[3]) * item[0].n ** item[0].m, _MANY_CHUNK):
        outcomes = _solve_faces([fs for item in chunk for fs in item[2]], [z for item in chunk for z in item[3]],
                                cfg, homogeneous)
        if not homogeneous:
            keys = [inst.tensor.array.tobytes() for inst, *_ in chunk]
            new = {key: inst.tensor for key, (inst, *_) in zip(keys, chunk) if key not in homs}
            homs.update(zip(new, _homogeneous_rays(list(new.values()), cfg)))
        for j, (inst, unit, _, _) in enumerate(chunk):
            outs = outcomes[j * len(faces):(j + 1) * len(faces)]
            rays = [d for out in outs for d in out.rays]
            work = {"starts": sum(out.starts for out in outs), "newton_iters": sum(out.newton_iters for out in outs)}
            if homogeneous:
                rays = [r for r, _ in (_certified_ray(unit, d, cfg) for d in rays) if r is not None]
                meta = _meta(cfg, homogeneous=True, **work)
            else:
                hom = homs[keys[j]]
                rays = [d for d in hom + rays if ray_active(unit, d, cfg.tol)]
                meta = _meta(cfg, **work, hom_candidates=len(hom), faces=2**inst.n)
            points = _sorted_points(unit, inst, [x for out in outs for x in out.points], cfg)
            rays = _sorted_rays(rays, cfg.tol)
            posdim = [face for face, out in zip(faces, outs) if out.posdim]
            yield SolutionSet(points, rays, posdim, _status(points, rays, posdim), meta)


def homogeneous_solve_many(tensors, cfg: SolverConfig) -> list[SolutionSet]:
    """homogeneous_solve of every tensor, all of one (m, n).

    The faces of one size across a chunk of tensors run as one Newton
    batch; each result is the one homogeneous_solve gives alone.
    """
    return list(_solve_stream([TcpInstance(A, np.zeros(A.dim)) for A in tensors], cfg, homogeneous=True))


def homogeneous_solve(A: Tensor, cfg: SolverConfig) -> SolutionSet:
    """Nonzero solutions of TCP(A, 0), searched on the probability simplex.

    The solution set of the homogeneous problem is a cone, so the search
    adds the normalization sum(x) = 1 to every face system and reports each
    solution as a unit-Euclidean ray direction.  An empty ray list means the
    only homogeneous solution is the origin.

    The search runs on the Frobenius-normalized tensor: Sol(tA, 0) equals
    Sol(A, 0) for every t > 0, and normalizing makes the computation, and in
    particular the representative chosen for a positive-dimensional cone,
    the same across rescalings of A.
    """
    return homogeneous_solve_many([A], cfg)[0]


def solve_many(instances, cfg: SolverConfig) -> list[SolutionSet]:
    """solve of every instance, all of one (m, n).

    The faces of one size across a chunk of instances run as one Newton
    batch, and the homogeneous part TCP(A, 0) is settled once for each
    distinct tensor, so a sweep of right-hand sides against one tensor pays
    for it once, and only for the R0 certificate when that proves
    Sol(A, 0) = {0}.  Each result is, bit for bit, the one solve gives
    alone.  Instances of different (m, n) raise ValueError.
    """
    return list(_solve_stream(instances, cfg))


def solve(inst: TcpInstance, cfg: SolverConfig) -> SolutionSet:
    """Solve TCP(A, a) by enumerating all 2^n faces.

    Each face runs Newton from the leaves of the augmented subdivision that
    lie on it (_leaf_starts), wherever in the orthant they map to.  Points
    are the deduplicated isolated roots across faces; faces that trip the
    positive-dimension heuristics are reported in posdim_suspect and their
    roots are withheld from the point list (they sample a continuum).  A
    face holding a whole solution ray, such as a coordinate ray on which
    every equation vanishes, is one of them.  Rays are the homogeneous
    candidate directions whose tails actually solve this instance, so status
    "unbounded-suspect" means a genuinely unbounded branch was certified at
    the working tolerance.  Many instances, in particular many right-hand
    sides against one tensor, are solved faster together by solve_many.

    The faces are solved for (A, a) divided by its pair norm, so every
    tolerance in cfg is relative to |(A, a)| and the points do not depend on
    the units of (A, a); each kkt_res is reported against the caller's (A, a).
    """
    return solve_many([inst], cfg)[0]


# ---------------------------------------------------------------------------
# combinatorial bound and set distance


def chi_bound(m: int, n: int) -> int:
    """Upper bound d*(2d-1)^(5n), d = max(2, m-1), on connected components.

    Exact integer arithmetic; solver point counts beyond this bound indicate
    a bug, not mathematics.
    """
    m, n = int(m), int(n)
    if m < 2 or n < 2:
        raise ValueError("chi_bound requires m >= 2 and n >= 2")
    d = max(2, m - 1)
    return d * (2 * d - 1) ** (5 * n)


def hausdorff_excess(S1, S2) -> float:
    """sup over S1 of the Euclidean distance to S2; one-sided.

    Empty S1 gives 0 (vacuous sup); empty S2 with nonempty S1 gives the
    +inf sentinel.
    """
    P1 = [as_vector(p) for p in S1]
    P2 = [as_vector(p) for p in S2]
    if not P1:
        return 0.0
    if not P2:
        return math.inf
    B = np.stack(P2)
    worst = 0.0
    for p in P1:
        d = float(np.min(np.linalg.norm(B - p, axis=1)))
        worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# brute-force grid oracle


@dataclass(eq=False)
class OracleCluster:
    size: int
    raw: np.ndarray
    polished: np.ndarray | None
    verified: bool
    extent: float
    extended: bool
    boundary: bool
    members: np.ndarray


@dataclass(eq=False)
class OracleResult:
    representatives: list[np.ndarray]
    clusters: list[OracleCluster]
    meta: dict


# grid points per chunk times n^m, the size of the kernels' temporaries
_ORACLE_CHUNK = 1 << 21
_ORACLE_SEED_CAP = 16
_ORACLE_SAFETY = 1.5


def _neighbour_shifts(ndim: int):
    """The 3^ndim offsets in {-1, 0, 1}^ndim of a grid point's neighbourhood."""
    return itertools.product((-1, 0, 1), repeat=ndim)


def _polish_seeds(field: np.ndarray) -> np.ndarray:
    """Where field is finite and a local minimum on the sub-grid of some face.

    The sub-grid of a face pins its axes to index 0, and a point lies on the
    sub-grid of every face whose axes are among its zero-index axes.  The
    fewer axes a face pins the more neighbours the point has there, so it is
    a minimum on some face exactly when it is one on the face pinning all its
    zero-index axes: when no neighbour reached by moving only along axes
    where its index is nonzero, the grid's outside counting as +inf, has a
    smaller value.
    """
    padded = np.pad(field, 1, constant_values=np.inf)
    at_zero = [np.arange(g).reshape((-1,) + (1,) * (field.ndim - 1 - ax)) == 0 for ax, g in enumerate(field.shape)]
    seeds = np.isfinite(field)
    for shift in _neighbour_shifts(field.ndim):
        off_face = np.zeros(field.shape, dtype=bool)
        for ax in np.flatnonzero(shift):
            off_face = off_face | at_zero[ax]
        neighbour = padded[tuple(slice(1 + s, 1 + s + g) for s, g in zip(shift, field.shape))]
        seeds &= off_face | (field <= neighbour)
    return seeds


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of a boolean grid under 3^d connectivity.

    Returns (labels, count): labels is 0 off the mask and 1..count on it,
    components numbered in the order of their first point in C order.  Each
    point starts as its own tree; every round hooks the larger root of each
    neighbouring pair onto the smaller, then jumps pointers to the roots, so
    a component's root ends as its first point.
    """
    idx = np.flatnonzero(mask)
    # ids: each point's position in idx, -1 off the mask and on the padding
    ids = np.full(tuple(g + 2 for g in mask.shape), -1)
    core = ids[(slice(1, -1),) * mask.ndim]
    core[mask] = np.arange(idx.size)
    u, v = [], []
    for shift in _neighbour_shifts(mask.ndim):
        if shift <= (0,) * mask.ndim:
            continue  # each pair once, from its earlier point
        other = ids[tuple(slice(1 + s, 1 + s + g) for s, g in zip(shift, mask.shape))]
        both = (core >= 0) & (other >= 0)
        u.append(core[both])
        v.append(other[both])
    u, v = np.concatenate(u), np.concatenate(v)
    root = np.arange(idx.size)
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[cross], np.minimum(ru, rv)[cross])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    firsts, comp = np.unique(root, return_inverse=True)
    labels = np.zeros(mask.size, dtype=int)
    labels[idx] = comp + 1
    return labels.reshape(mask.shape), int(firsts.size)


def _oracle_polish(inst: TcpInstance, seed: np.ndarray, pin_tol: float, tol: float):
    """Polish one grid seed; yields verified candidate points.

    Coordinates within pin_tol of zero are pinned to their face and, when any
    were pinned, a second fully-free polish runs as well, so solutions just
    inside the first grid cell are not lost to a wrong face guess.  The raw
    seed itself is the last candidate (it may already be an exact solution on
    faces with no equations to polish).
    """
    vtol = max(ORACLE_VERIFY_TOL, tol)
    faces = [face_of(seed, pin_tol)]
    if len(faces[0]) > 0:
        faces.append(FaceMask(inst.n, 0))
    out = []
    for face in faces:
        fs = face_system(inst, face)
        if fs.k == 0:
            cand = np.zeros(inst.n)
        elif len(fs.zero_rows) == fs.k:
            continue
        else:
            Z, _, _ = _newton(*_face_functions([fs], None, simplex=False), seed[list(fs.free)][None])
            z = Z[0]
            if float(np.min(z)) < -1e-12:
                continue
            cand = fs.embed(np.maximum(z, 0.0))
        r = max_residual(inst, cand)
        if r <= vtol:
            out.append((cand, r))
    r = max_residual(inst, seed)
    if r <= vtol:
        out.append((seed, r))
    return out


def brute_force_oracle(
    inst: TcpInstance, box_radius: float, grid_step: float, tol: float
) -> OracleResult:
    """Independent grid search over [0, box_radius]^n.

    The search runs on (A, a) divided by its pair norm, as solve does, which
    leaves the solution set unchanged: tol, the acceptance thresholds and
    meta["theta_F_max"] are relative to |(A, a)|, and the result does not
    depend on the units of (A, a).

    Accepts grid points whose feasibility and complementarity clear local
    thresholds widened to the grid resolution (the exact batch Jacobian gives
    each point its own bound, so a true solution within half a cell is never
    missed and far-field slop does not bloat the capture).  Accepted points
    are grouped by grid connectivity; every local minimum of the violation
    score inside a cluster seeds a Newton polish, so one cluster can yield
    several nearby solutions.  Only polished points re-verified at
    ORACLE_VERIFY_TOL enter `representatives`; clusters report size and
    spatial extent so positive-dimensional components are visible as extended
    clusters.  Valid only inside the box: clusters touching the outer
    boundary are flagged, the exterior is unobserved.
    """
    # written so that NaN and inf fail it: a NaN tol accepts no grid point
    if not all(0.0 < v < math.inf for v in (box_radius, grid_step, tol)):
        raise ValueError("box_radius, grid_step and tol must be finite and positive")
    n = inst.n
    g = int(math.floor(box_radius / grid_step + 0.5)) + 1
    if n * g**n > ORACLE_BUDGET:
        raise BudgetError(
            f"oracle grid needs n*g^n = {n * g**n} > {ORACLE_BUDGET} evaluations"
        )
    inst = _unit_pair(inst.tensor, inst.a)
    shape = (g,) * n
    total = g**n
    half_diag = 0.5 * grid_step * math.sqrt(n)

    accept = np.zeros(total, dtype=bool)
    score = np.full(total, np.inf)
    theta_F_max = 0.0
    W = slot_sum(inst.tensor.array)
    chunk = max(1, _ORACLE_CHUNK // n**inst.m)
    for s in range(0, total, chunk):
        idx = np.arange(s, min(s + chunk, total))
        Xc = np.stack(np.unravel_index(idx, shape), axis=1) * grid_step
        FX = contract_rows(inst.tensor.array, Xc) + inst.a
        J = jacobian_rows(W, Xc)
        row_norms = np.linalg.norm(J, axis=2)
        theta_F = _ORACLE_SAFETY * half_diag * row_norms + tol
        grad_comp = FX + np.einsum("pij,pi->pj", J, Xc)
        theta_comp = _ORACLE_SAFETY * half_diag * np.linalg.norm(grad_comp, axis=1) + tol
        feas_F = np.maximum(0.0, -np.min(FX, axis=1))
        comp = np.abs(np.einsum("pi,pi->p", Xc, FX))
        accept[idx] = np.all(FX + theta_F >= 0.0, axis=1) & (comp <= theta_comp)
        score[idx] = np.maximum(feas_F, comp)
        if idx.size:
            theta_F_max = max(theta_F_max, float(np.max(theta_F)))

    labels, ncl = _label(accept.reshape(shape))
    labels = labels.reshape(-1)

    # polish seeds: local minima of the violation score within the captured
    # set, taken per face sub-grid.  A solution with zero coordinates is
    # interior to its face, where its basin is a genuine minimum; on the full
    # grid the score valley can drain past it toward a nearby interior basin
    # without ever forming one.
    is_min = _polish_seeds(np.where(accept, score, np.inf).reshape(shape)).reshape(-1)

    clusters: list[OracleCluster] = []
    reps: list[tuple[np.ndarray, float]] = []
    pin_tol = grid_step * (1.0 + 1e-9)
    for c in range(1, ncl + 1):
        idx = np.flatnonzero(labels == c)
        members = np.stack(np.unravel_index(idx, shape), axis=1) * grid_step
        best = members[int(np.argmin(score[idx]))]
        extent = float(np.max(np.max(members, axis=0) - np.min(members, axis=0))) if len(idx) > 1 else 0.0
        boundary = bool(np.any(members >= box_radius - grid_step / 2))

        seed_idx = idx[is_min[idx]]
        if len(seed_idx) == 0:
            seed_idx = idx[[int(np.argmin(score[idx]))]]
        if len(seed_idx) > _ORACLE_SEED_CAP:
            order = np.argsort(score[seed_idx], kind="stable")
            seed_idx = seed_idx[order[:_ORACLE_SEED_CAP]]
        found: list[tuple[np.ndarray, float]] = []
        for fi in seed_idx:
            seed = np.asarray(np.unravel_index(int(fi), shape), dtype=float) * grid_step
            found.extend(_oracle_polish(inst, seed, pin_tol, tol))
        found.sort(key=lambda pr: pr[1])
        polished = found[0][0] if found else None
        verified = bool(found)

        if len(idx) > ORACLE_MEMBER_CAP:
            stride = int(math.ceil(len(idx) / ORACLE_MEMBER_CAP))
            members = members[::stride]
        clusters.append(
            OracleCluster(
                size=int(len(idx)),
                raw=best,
                polished=polished,
                verified=verified,
                extent=extent,
                extended=extent > 20 * grid_step,
                boundary=boundary,
                members=members,
            )
        )
        reps.extend(found)

    representatives = _dedup(reps, radius=1e-5)
    representatives.sort(key=lambda x: tuple(x))
    return OracleResult(
        representatives=representatives,
        clusters=clusters,
        meta={
            "box_radius": box_radius,
            "grid_step": grid_step,
            "tol": tol,
            "grid_points": int(total),
            "accepted": int(np.count_nonzero(accept)),
            "theta_F_max": theta_F_max,
            "n_clusters": ncl,
        },
    )
