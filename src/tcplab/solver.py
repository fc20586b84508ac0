"""Pseudo-face enumeration solver for complementarity instances.

Every face of the nonnegative orthant contributes a square polynomial
system (model.FaceSystem); the solver runs a multistart damped Newton on
each, filters roots by the face sign conditions, and merges the survivors.
The starts of all faces with the same number k of free coordinates run as
one Newton batch: the faces' blocks are stacked and each row is evaluated
on its own face's block, so a face gets the roots it gets when solved alone
while the per-call overhead is paid once per face size, not once per face.
Unboundedness is probed through the homogeneous problem TCP(A, 0): its
nonzero solutions on the probability simplex are the candidate recession
directions, and a direction is kept for a concrete right-hand side only
when the far tail of its ray actually solves the instance.

The brute-force grid oracle at the bottom is a separate check path: it
never reuses the solver's roots and only polishes its own grid clusters,
but it runs on the same kernels and Newton engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    FaceMask,
    FaceSystem,
    TcpInstance,
    enumerate_faces,
    face_of,
    face_system,
    max_residual,
)
from .tensors import Tensor, as_vector, contract, contract_rows, jacobian_rows, pair_norm, slot_sum

STATUS_EMPTY = "exact-empty"
STATUS_FINITE = "finite"
STATUS_NON_ISOLATED = "non-isolated"
STATUS_UNBOUNDED = "unbounded-suspect"

# a face is suspected to carry a positive-dimensional component when more
# than this many deduplicated roots survive on it, or when the system
# Jacobian at a root is rank-deficient beyond SIGMA_RATIO
POSDIM_ROOT_LIMIT = 25
SIGMA_RATIO = 1e-6

# fixed solver constants, echoed in every SolutionSet's meta; DEDUP_RADIUS
# and START_BOX_RADIUS are distances in x on the normalized pair
DEDUP_RADIUS = 1e-5
NEWTON_MAX_ITER = 100
GRID_STARTS_PER_AXIS = 9
START_BOX_RADIUS = 5.0
RANDOM_STARTS = 16
GRID_START_BUDGET = 3200
NEWTON_ATOL = 1e-14

ORACLE_BUDGET = 10**8
ORACLE_VERIFY_TOL = 1e-7
ORACLE_MEMBER_CAP = 10_000


class FaceSolveError(RuntimeError):
    """Numeric failure (non-finite evaluation) on a specific face."""

    def __init__(self, face: FaceMask, message: str):
        super().__init__(f"face {face.to_json()}: {message}")
        self.face = face


class BudgetError(RuntimeError):
    """A requested computation exceeds the desk-scale resource budget."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: the tolerance tol and the seed of the random starts.

    tol is relative to the pair norm |(A, a)| = sqrt(|A|_F^2 + |a|_2^2): solve
    divides (A, a) by that norm on entry, which leaves the solution set
    unchanged, so Sol(tA, ta) is computed exactly as Sol(A, a) for every
    t > 0.  Everything else the solver uses is a module constant (DEDUP_RADIUS,
    NEWTON_MAX_ITER, GRID_STARTS_PER_AXIS, START_BOX_RADIUS, RANDOM_STARTS),
    echoed with tol and seed in each result's meta.
    """

    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # written so that a NaN tol fails it
        if not 0 < self.tol < DEDUP_RADIUS:
            raise ValueError(f"tol must lie in (0, {DEDUP_RADIUS:g}), got {self.tol}")
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

    @property
    def point_array(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 0))
        return np.stack([p.x for p in self.points])

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

    Square systems take the LU solution; rectangular ones (the
    simplex-augmented homogeneous systems) take the minimum-norm
    least-squares step.  Only the rows whose Jacobian is singular or
    non-finite, or whose LU step is not finite, fall back to lstsq one by one.
    """
    S, M, k = J.shape
    step = np.full((S, k), np.nan)
    rhs = -f[:, :, None]
    ok = np.isfinite(J).all(axis=(1, 2))
    if M == k:
        try:
            step[ok] = np.linalg.solve(J[ok], rhs[ok])[:, :, 0]
        except np.linalg.LinAlgError:
            # the LU of a singular row hits an exact zero pivot, which
            # slogdet reports as sign 0 without raising
            ok[ok] = np.linalg.slogdet(J[ok])[0] != 0.0
            step[ok] = np.linalg.solve(J[ok], rhs[ok])[:, :, 0]
        ok &= np.isfinite(step).all(axis=1)
    elif ok.any():
        pinv = np.linalg.pinv(J[ok], rcond=np.finfo(float).eps * max(M, k))
        step[ok] = (pinv @ rhs[ok])[:, :, 0]
    for r in np.flatnonzero(~ok):
        step[r] = np.linalg.lstsq(J[r], -f[r], rcond=None)[0]
    return step


def _newton(fun, jac, Z0, max_iter: int, faces):
    """Damped Newton with Armijo backtracking on the squared residual, run on
    every row of Z0 (S, k) together.

    fun(rows, Z) maps points Z (R, k) to residual rows (R, M) and jac(rows, Z)
    to Jacobians (R, M, k), where rows[i] is the row of Z0 whose system is
    evaluated at Z[i]; M > k for the simplex-augmented homogeneous systems.
    faces[r] is the face of row r, named by the FaceSolveError raised when a
    start's residual is not finite.  Each row keeps its own step length,
    stall count and iteration count, and every operation acts row by row, so
    a start's result does not depend on the other rows of the batch.
    Returns (Z, residual_inf, iterations), one entry per row.
    """
    Z = np.array(Z0, dtype=float)
    F = fun(np.arange(Z.shape[0]), Z)
    phi = np.sum(F * F, axis=1)
    bad = np.flatnonzero(~np.isfinite(phi))
    if bad.size:
        raise FaceSolveError(faces[bad[0]], "non-finite residual at a finite start point")
    iters = np.zeros(Z.shape[0], dtype=int)
    stalled = np.zeros(Z.shape[0], dtype=int)
    live = np.arange(Z.shape[0])
    for it in range(max_iter):
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


def _grid_starts(k: int, box: float, per_axis: int) -> np.ndarray:
    """Deterministic start grid over [0, box]^k, capped by GRID_START_BUDGET."""
    if k == 0:
        return np.zeros((1, 0))
    g = per_axis
    while g > 2 and g**k > GRID_START_BUDGET:
        g -= 1
    axes = np.linspace(0.0, box, g)
    mesh = np.meshgrid(*([axes] * k), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _simplex_starts(k: int, resolution: int = 6) -> np.ndarray:
    """Lattice of the probability simplex: compositions of resolution into k,
    the gaps between the k - 1 bars of each stars-and-bars arrangement."""
    bars = list(itertools.combinations(range(resolution + k - 1), k - 1))
    edges = np.pad(np.array(bars, dtype=int).reshape(len(bars), k - 1), ((0, 0), (1, 1)),
                   constant_values=(-1, resolution + k - 1))
    return (np.diff(edges, axis=1) - 1) / resolution


def _dedup(candidates: list[tuple[np.ndarray, float]], radius: float) -> list[np.ndarray]:
    """Greedy dedup in inf-norm, best residual first; deterministic order.

    Candidates are ranked by (residual, coordinates).  The first candidate
    left is kept and every candidate within radius of it dropped, so a
    candidate is kept exactly when it is farther than radius from every kept
    candidate ranked before it.
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
    while left.any():
        i = int(np.argmax(left))
        kept.append(candidates[order[i]][0])
        left &= np.max(np.abs(Z - Z[i]), axis=1) > radius
    return kept


# ---------------------------------------------------------------------------
# ray tests


def coordinate_ray_solves(inst: TcpInstance, i: int, tol: float) -> bool:
    """Whether the whole ray {t * e_i : t > 0} solves the instance.

    Along the ray only pure powers of x_i survive, so with c_j = A[j, i, .., i]
    the conditions reduce to c_i = a_i = 0 (complementarity on the free
    coordinate) and c_j >= 0, a_j >= 0 elsewhere, all within tol.
    """
    arr = inst.tensor.array
    c = arr[(slice(None),) + (i,) * (inst.m - 1)]
    if abs(c[i]) > tol or abs(inst.a[i]) > tol:
        return False
    for j in range(inst.n):
        if j == i:
            continue
        if c[j] < -tol or inst.a[j] < -tol:
            return False
    return True


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


def _degenerate_face(fs: FaceSystem, cfg: SolverConfig, homogeneous: bool) -> _FaceOutcome | None:
    """The outcome of a face that needs no Newton run, or None for a general
    face."""
    inst = fs.instance
    out = _FaceOutcome()
    tol = cfg.tol
    if fs.infeasible_rows:
        # an equation that is identically a nonzero constant can never vanish
        return out

    if fs.k == 0:
        if not homogeneous and float(np.min(inst.a)) >= -tol:
            out.points.append(np.zeros(inst.n))
        return out

    if len(fs.zero_rows) == fs.k:
        # every equation vanishes identically: the face is cut out by the
        # pinned-row sign conditions alone
        if fs.k == 1:
            i = fs.free[0]
            e = np.zeros(inst.n)
            e[i] = 1.0
            if homogeneous:
                if fs.pinned_slack(e) >= -tol:
                    out.rays.append(e)
            elif coordinate_ray_solves(inst, i, tol):
                out.rays.append(e)
            else:
                ts = np.linspace(0.1, START_BOX_RADIUS, 8)
                if np.any(fs.pinned_slack(np.outer(ts, e)) >= -tol):
                    out.posdim = True
        else:
            if homogeneous:
                candidates = [np.full(fs.k, 1.0 / fs.k)]
                for z in _grid_starts(fs.k, 1.0, 5)[1:]:
                    s = float(np.sum(z))
                    if s > 0.1:
                        candidates.append(z / s)
            else:
                candidates = [np.full(fs.k, 0.5 * START_BOX_RADIUS)]
                candidates.extend(z for z in _grid_starts(fs.k, START_BOX_RADIUS, 4) if np.min(z) > 0)
            for z in candidates:
                x = fs.embed(z)
                if np.min(z) > tol and fs.pinned_slack(x) >= -tol:
                    out.posdim = True
                    if homogeneous:
                        out.rays.append(x / float(np.linalg.norm(x)))
                    break
        return out
    return None


def _face_starts(fs: FaceSystem, cfg: SolverConfig, homogeneous: bool) -> np.ndarray:
    """Newton starts of a general face, shape (S, k)."""
    if homogeneous:
        # the search lives on the probability simplex, so start there
        rng = np.random.default_rng([cfg.seed, fs.alpha.mask, 1])
        return np.vstack([
            _simplex_starts(fs.k),
            np.full((1, fs.k), 1.0 / fs.k),
            rng.dirichlet(np.ones(fs.k), size=RANDOM_STARTS),
        ])
    rng = np.random.default_rng([cfg.seed, fs.alpha.mask, 0])
    return np.vstack([
        _grid_starts(fs.k, START_BOX_RADIUS, GRID_STARTS_PER_AXIS),
        rng.uniform(0.0, START_BOX_RADIUS, size=(RANDOM_STARTS, fs.k)),
    ])


def _face_outcome(
    fs: FaceSystem, Z, resids, iters, jac, row: int, cfg: SolverConfig, homogeneous: bool
) -> _FaceOutcome:
    """Roots of a general face from its Newton end points Z, with sign
    filtering and posdim detection.  jac is the batch's Jacobian function and
    row one of the face's rows in the batch."""
    out = _FaceOutcome(starts=Z.shape[0], newton_iters=int(iters.sum()))
    accepted = [(Z[i], resids[i]) for i in _filter_roots(fs, Z, resids, cfg)]
    roots = _dedup(accepted, DEDUP_RADIUS)
    if not roots:
        return out

    posdim = len(roots) > POSDIM_ROOT_LIMIT
    if not posdim:
        sig = np.linalg.svd(jac(np.full(len(roots), row), np.array(roots)), compute_uv=False)
        posdim = bool(np.any((sig[:, 0] == 0.0) | (sig[:, -1] < SIGMA_RATIO * sig[:, 0])))
    out.posdim = posdim

    if homogeneous:
        xs = [fs.embed(z) for z in roots]
        reps = xs[:1] if posdim else xs
        out.rays.extend(x / float(np.linalg.norm(x)) for x in reps)
    elif not posdim:
        out.points.extend(fs.embed(z) for z in roots)
    return out


def _solve_faces(systems: list[FaceSystem], cfg: SolverConfig, homogeneous: bool) -> list[_FaceOutcome]:
    """Roots of each face system, with sign filtering and posdim detection,
    one outcome per system.

    The starts of all general faces with the same number k of free
    coordinates run as one Newton batch; filtering, deduplication and the
    posdim test then run face by face.  Rows do not interact, so every face
    gets the roots it gets when solved alone.  When a start's residual is not
    finite, FaceSolveError names the lowest such face, the one a loop over
    the faces in mask order stops at.
    """
    outcomes = [_degenerate_face(fs, cfg, homogeneous) for fs in systems]
    by_size: dict[int, list[int]] = {}
    for i, out in enumerate(outcomes):
        if out is None:
            by_size.setdefault(systems[i].k, []).append(i)
    failures: list[FaceSolveError] = []
    for members in by_size.values():
        group = [systems[i] for i in members]
        starts = [_face_starts(fs, cfg, homogeneous) for fs in group]
        owner = np.repeat(np.arange(len(group)), [len(z) for z in starts])
        fun, jac = _face_functions(group, owner, homogeneous)
        try:
            Z, resids, iters = _newton(
                fun, jac, np.vstack(starts), NEWTON_MAX_ITER, [group[g].alpha for g in owner]
            )
        except FaceSolveError as exc:
            failures.append(exc)
            continue
        lo = 0
        for i, fs, z in zip(members, group, starts):
            hi = lo + len(z)
            outcomes[i] = _face_outcome(fs, Z[lo:hi], resids[lo:hi], iters[lo:hi], jac, lo, cfg, homogeneous)
            lo = hi
    if failures:
        raise min(failures, key=lambda exc: exc.face)
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
        "grid_starts_per_axis": GRID_STARTS_PER_AXIS,
        "random_starts": RANDOM_STARTS,
        "start_box_radius": START_BOX_RADIUS,
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


def solve_face(inst: TcpInstance, alpha: FaceMask, cfg: SolverConfig) -> SolutionSet:
    """Solve the square system of a single face and filter by its signs.

    Like solve, this works on (A, a) divided by its pair norm.
    """
    unit = _unit_pair(inst.tensor, inst.a)
    (out,) = _solve_faces([face_system(unit, alpha)], cfg, homogeneous=False)
    points = _sorted_points(unit, inst, out.points, cfg)
    rays = _sorted_rays(out.rays, cfg.tol)
    posdim = [alpha] if out.posdim else []
    return SolutionSet(
        points=points,
        rays=rays,
        posdim_suspect=posdim,
        status=_status(points, rays, posdim),
        meta=_meta(cfg, face=alpha.to_json(), starts=out.starts, newton_iters=out.newton_iters),
    )


_CONE_TS = np.array([0.5, 1.0, 2.0, 10.0])


def _cone_holds(inst0: TcpInstance, r: np.ndarray, tol: float) -> bool:
    """Whether t * r solves TCP(A, 0) within tol at every t in _CONE_TS."""
    return bool(np.all(max_residual(inst0, np.outer(_CONE_TS, r)) <= tol))


def _certified_ray(inst0: TcpInstance, direction, cfg: SolverConfig) -> np.ndarray | None:
    """Re-polish a candidate direction until the cone property certifies.

    Every emitted ray promises residual(A, 0, t*r) <= tol along the sampled
    tail t in _CONE_TS; comp scales like t^m, so a root accepted at tol/10
    can be too loose at t = 10.  Exact candidates pass immediately; Newton
    candidates get one more polish to machine accuracy.  Directions that
    still fail are dropped (the posdim flag, not a sloppy ray, reports their
    face).
    """
    r = np.asarray(direction, dtype=float)
    r = r / float(np.linalg.norm(r))
    if _cone_holds(inst0, r, cfg.tol):
        return r
    fs = face_system(inst0, face_of(np.maximum(r, 0.0), cfg.tol))
    if fs.k == 0:
        return None
    z0 = r[list(fs.free)]
    s = float(np.sum(z0))
    if s <= 0.0:
        return None
    fun, jac = _face_functions([fs], None, simplex=True)
    try:
        Z, _, _ = _newton(fun, jac, (z0 / s)[None], NEWTON_MAX_ITER, [fs.alpha])
    except FaceSolveError:
        return None
    x = fs.embed(Z[0])
    nrm = float(np.linalg.norm(x))
    if not math.isfinite(nrm) or nrm <= 0.0 or float(np.min(x)) < 0.0:
        return None
    r = x / nrm
    if _cone_holds(inst0, r, cfg.tol):
        return r
    return None


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
    inst = _unit_pair(A, np.zeros(A.dim))
    directions: list[np.ndarray] = []
    posdim: list[FaceMask] = []
    starts = iters = 0
    # the face {0}, the last one, holds only the trivial solution
    systems = [face_system(inst, face) for face in enumerate_faces(A.dim)[:-1]]
    for fs, out in zip(systems, _solve_faces(systems, cfg, homogeneous=True)):
        directions.extend(out.rays)
        if out.posdim:
            posdim.append(fs.alpha)
        starts += out.starts
        iters += out.newton_iters
    certified = [r for r in (_certified_ray(inst, d, cfg) for d in directions) if r is not None]
    rays = _sorted_rays(certified, cfg.tol)
    posdim = sorted(posdim)
    return SolutionSet(
        points=[],
        rays=rays,
        posdim_suspect=posdim,
        status=_status([], rays, posdim),
        meta=_meta(cfg, homogeneous=True, starts=starts, newton_iters=iters),
    )


def solve(inst: TcpInstance, cfg: SolverConfig, hom: SolutionSet | None = None) -> SolutionSet:
    """Solve TCP(A, a) by enumerating all 2^n faces.

    Points are the deduplicated isolated roots across faces; faces that trip
    the positive-dimension heuristics are reported in posdim_suspect and
    their roots are withheld from the point list (they sample a continuum).
    Rays are the homogeneous candidate directions whose tails actually solve
    this instance, so status "unbounded-suspect" means a genuinely unbounded
    branch was certified at the working tolerance.

    Callers sweeping many right-hand sides against one tensor can pass the
    precomputed homogeneous_solve(A, cfg) result as hom; it depends only on
    the tensor, not on a.

    The faces are solved for (A, a) divided by its pair norm, so every
    tolerance in cfg is relative to |(A, a)| and the points do not depend on
    the units of (A, a); each kkt_res is reported against the caller's (A, a).
    """
    unit = _unit_pair(inst.tensor, inst.a)
    xs: list[np.ndarray] = []
    face_rays: list[np.ndarray] = []
    posdim: list[FaceMask] = []
    starts = iters = 0
    systems = [face_system(unit, face) for face in enumerate_faces(inst.n)]
    for fs, out in zip(systems, _solve_faces(systems, cfg, homogeneous=False)):
        xs.extend(out.points)
        face_rays.extend(out.rays)
        if out.posdim:
            posdim.append(fs.alpha)
        starts += out.starts
        iters += out.newton_iters

    if hom is None:
        hom = homogeneous_solve(inst.tensor, cfg)
    candidates = [r.direction for r in hom.rays] + face_rays
    active = [d for d in candidates if ray_active(unit, d, cfg.tol)]

    points = _sorted_points(unit, inst, xs, cfg)
    rays = _sorted_rays(active, cfg.tol)
    posdim = sorted(posdim)
    return SolutionSet(
        points=points,
        rays=rays,
        posdim_suspect=posdim,
        status=_status(points, rays, posdim),
        meta=_meta(
            cfg,
            starts=starts,
            newton_iters=iters,
            hom_candidates=len(hom.rays),
            faces=2**inst.n,
        ),
    )


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
            fun, jac = _face_functions([fs], None, simplex=False)
            Z, _, _ = _newton(fun, jac, seed[list(fs.free)][None], NEWTON_MAX_ITER, [face])
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
    # scipy loads only here, so importing tcplab does not pay for it
    from scipy import ndimage

    if box_radius <= 0 or grid_step <= 0 or tol <= 0:
        raise ValueError("box_radius, grid_step and tol must be positive")
    n = inst.n
    g = int(math.floor(box_radius / grid_step + 0.5)) + 1
    if n * g**n > ORACLE_BUDGET:
        raise BudgetError(
            f"oracle grid needs n*g^n = {n * g**n} > {ORACLE_BUDGET} evaluations"
        )
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

    labels, ncl = ndimage.label(accept.reshape(shape), structure=np.ones((3,) * n, dtype=int))
    labels = labels.reshape(-1)

    # polish seeds: local minima of the violation score within the captured
    # set, taken per face sub-grid.  A solution with zero coordinates is
    # interior to its face, where its basin is a genuine minimum; on the full
    # grid the score valley can drain past it toward a nearby interior basin
    # without ever forming one.
    field = np.where(accept, score, np.inf).reshape(shape)
    is_min = np.zeros(total, dtype=bool)
    for face in enumerate_faces(n):
        pinned = set(face.zero_indices)
        expr = tuple(0 if i in pinned else slice(None) for i in range(n))
        sub = field[expr]
        if sub.ndim == 0:
            mins = np.isfinite(sub).reshape(())
            if not mins:
                continue
            coords = np.zeros((1, n), dtype=int)
        else:
            filt = ndimage.minimum_filter(sub, size=3, mode="constant", cval=np.inf)
            mask = (sub <= filt) & np.isfinite(sub)
            if not mask.any():
                continue
            pos = np.nonzero(mask)
            coords = np.zeros((len(pos[0]), n), dtype=int)
            for ax, i in enumerate(sorted(set(range(n)) - pinned)):
                coords[:, i] = pos[ax]
        is_min[np.ravel_multi_index(tuple(coords.T), shape)] = True
    is_min &= accept

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
