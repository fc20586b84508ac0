"""Pseudo-face enumeration solver for complementarity instances.

Every face of the nonnegative orthant contributes a square polynomial
system; the solver runs a damped Newton on each from the starts that a
Bernstein subdivision of the augmented tensor leaves on it
(subdivision._leaf_starts), filters roots by the face sign conditions, and
merges the survivors.  The faces with the same number k of free
coordinates run in Newton batches, and each batch's faces are gathered
into one model.FaceStore, dropped with the batch: each row is evaluated on
its own face's block, so a face gets the roots it gets when solved alone.
A face without starts has no roots and is not gathered, and the face {0}
has no starts: the origin solves TCP(A, a) exactly when a >= 0, which is
read off a.  A face whose equations all vanish identically takes the same
path: Newton stops at its starts, every feasible start is a root, and the
face is flagged as a continuum unless its section is one point (a
homogeneous k = 1 face).  Unboundedness is probed through the homogeneous
problem TCP(A, 0): its nonzero solutions on the probability simplex are the
candidate recession directions, and a direction is kept for a concrete
right-hand side only when the far tail of its ray actually solves the
instance.  One Bernstein
subdivision of the simplex faces settles it (subdivision._r0_certificate):
when it excludes every piece, with rounding-safe sign tests, Sol(A, 0) = {0}
is proved and no face is gathered; otherwise the centroids of the pieces
it leaves alive are the only Newton starts of the search, and a face with
no surviving piece is not gathered and runs no Newton.  Nothing in a
solve is random: its output depends on (A, a) alone.

solve_many and homogeneous_solve_many take many instances of one (m, n) and
hand the faces of all of them to the face solver at once, in chunks
under a budget of Newton starts; each instance still gets, bit for bit,
what solve or homogeneous_solve gives it alone, and the homogeneous part is
settled once per distinct tensor.

The brute-force grid oracle at the bottom is a separate check path: it
never reuses the solver's roots and only polishes its own grid clusters.
Its scan evaluates F and J from A's monomial coefficients along the grid's
axes, in chunks of grid rows, without the solver's kernels, and keeps only
the accepted points; their clusters and polish seeds come from those points
alone (_clusters).  Its polish still runs the solver's Newton engine
(_newton) on a one-face FaceStore.  Like solve, it works on (A, a) divided by its pair norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BudgetError,
    FaceMask,
    FaceStore,
    TcpInstance,
    enumerate_faces,
    face_of,
    max_residual,
)
from .subdivision import LEAF_EDGE, _leaf_starts, _r0_certificate
from .tensors import (
    _TEMP_ENTRIES,
    Tensor,
    _as_count,
    as_vector,
    contract,
    contract_rows,
    jacobian_rows,
    pair_norm,
    real_array,
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
NEWTON_ATOL = 1e-14

ORACLE_BUDGET = 10**8
ORACLE_VERIFY_TOL = 1e-7
ORACLE_MEMBER_CAP = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """Settings: the tolerance tol, and the seed of the sampled studies.

    tol is relative to the pair norm |(A, a)| = sqrt(|A|_F^2 + |a|_2^2): solve
    divides (A, a) by that norm on entry, which leaves the solution set
    unchanged, so Sol(tA, ta) is computed exactly as Sol(A, a) for every
    t > 0.  seed, a nonnegative integer, draws the samples of the
    experiments and the right-hand sides of probe_gus; nothing else reads
    it.  Everything else the solver uses is a module constant (DEDUP_RADIUS,
    NEWTON_MAX_ITER, LEAF_EDGE), echoed with tol in each result's meta.
    """

    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # written so that a NaN tol fails it.  Below 10 * NEWTON_ATOL a root
        # that meets Newton's stop rule can fail the tol / 10 root filter
        if not 10 * NEWTON_ATOL <= self.tol < DEDUP_RADIUS:
            raise ValueError(f"tol must lie in [{10 * NEWTON_ATOL:g}, {DEDUP_RADIUS:g}), got {self.tol}")
        object.__setattr__(self, "seed", _as_count("seed", self.seed, zero_ok=True))


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


def _face_functions(store: FaceStore, owner: np.ndarray, simplex: bool):
    """fun and jac for _newton over the faces of a store.

    Row r of the batch solves face owner[r] of the store.  The simplex
    systems append sum(z) = 1, the normalization of the homogeneous search.
    """
    blocks, slots, a_free, k = store.blocks, store.slots, store.a_free, store.k

    def fun(rows, Z):
        b = owner[rows]
        F = contract_rows(blocks, Z, b) + a_free[b]
        if simplex:
            F = np.concatenate([F, np.sum(Z, axis=-1, keepdims=True) - 1.0], axis=-1)
        return F

    def jac(rows, Z):
        J = jacobian_rows(slots, Z, owner[rows])
        if simplex:
            J = np.concatenate([J, np.ones(J.shape[:-2] + (1, k))], axis=-2)
        return J

    return fun, jac


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
    Fr, a = contract(inst.tensor, r), inst.a
    bad = np.where(r > tol, (np.abs(a) > tol) | (np.abs(Fr) > tol), (Fr < -tol) | ((Fr <= tol) & (a < -tol)))
    return not bad.any()


# ---------------------------------------------------------------------------
# per-face root finding


@dataclass
class _FaceOutcome:
    points: list[np.ndarray] = field(default_factory=list)
    rays: list[np.ndarray] = field(default_factory=list)
    posdim: bool = False
    starts: int = 0
    newton_iters: int = 0


def _filter_roots(store: FaceStore, f: int, Z: np.ndarray, resids: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Indices of the Newton end points Z (S, k) that are roots on face f.

    A row is kept when its Newton residual is at most tol/10, every free
    coordinate exceeds tol, it does not snap onto a smaller face, and its
    embedding x has max_residual(inst, x) <= tol.  That last test holds the
    pinned rows' sign condition too: its feas_F part is -min F(x), so it
    bounds every row of F from below by -tol, and a NaN row makes it +inf.
    Homogeneous faces come from homogeneous_solve, whose instance has a = 0,
    so the face's instance is the instance to check on every face.
    """
    inst, tol = store.instance(f), cfg.tol
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
        keep[snapped] = max_residual(inst, store.embed(f, ZS)) > tol
    idx = np.flatnonzero(keep)
    return idx[max_residual(inst, store.embed(f, Z[idx])) <= tol]


def _face_outcome(
    store: FaceStore, f: int, Z, resids, iters, jac, row: int, cfg: SolverConfig, homogeneous: bool
) -> _FaceOutcome:
    """Roots of face f from its Newton end points Z, with sign filtering and
    posdim detection.  jac is the batch's Jacobian function and
    row one of the face's rows in the batch.  Past POSDIM_ROOT_LIMIT roots
    the face is a continuum whatever their number, so deduplication stops at
    POSDIM_ROOT_LIMIT + 1.  A homogeneous continuum is reported by one ray,
    that of its accepted root nearest the face's centroid, which keeps it
    away from the smaller faces beside it; on a face whose equations all
    vanish that root is the centroid start."""
    out = _FaceOutcome(starts=Z.shape[0], newton_iters=int(iters.sum()))
    accepted = _filter_roots(store, f, Z, resids, cfg)
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
            roots = [Za[int(np.argmin(np.linalg.norm(Za - 1.0 / store.k, axis=1)))]]
        xs = [store.embed(f, z) for z in roots]
        out.rays.extend(x / float(np.linalg.norm(x)) for x in xs)
    elif not posdim:
        out.points.extend(store.embed(f, z) for z in roots)
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


def _solve_faces(units: list[TcpInstance], faces: list, starts: list, cfg: SolverConfig,
                 homogeneous: bool) -> list[_FaceOutcome]:
    """Roots of each face (j, alpha) of units[j] from its starts, with sign
    filtering and posdim detection, one outcome per face.  The faces of one
    size k, of whichever instances, run in Newton batches of whole faces
    under _MANY_CHUNK starts times n^m, each gathered into one FaceStore
    that is dropped once its outcomes are made; rows do not interact, so
    every face gets the roots it gets when solved alone.  A face without
    starts is not gathered, and one with an infeasible row (an equation
    that is a nonzero constant) runs no Newton: neither has roots."""
    outcomes = [_FaceOutcome() for _ in faces]
    by_size: dict[int, list[int]] = {}
    for i, ((_, alpha), z) in enumerate(zip(faces, starts)):
        if len(z):
            by_size.setdefault(alpha.n - len(alpha), []).append(i)
    for members in by_size.values():
        for batch in _runs(members, lambda i: len(starts[i]), _MANY_CHUNK // units[0].n ** units[0].m):
            store = FaceStore(units, [faces[i][0] for i in batch], [faces[i][1] for i in batch])
            live = [f for f in range(len(batch)) if not store.infeasible_rows[f].any()]
            if live:
                counts = [len(starts[batch[f]]) for f in live]
                fun, jac = _face_functions(store, np.repeat(live, counts), homogeneous)
                Z, resids, iters = _newton(fun, jac, np.vstack([starts[batch[f]] for f in live]))
                for f, lo, hi in zip(live, np.cumsum([0] + counts), np.cumsum(counts)):
                    outcomes[batch[f]] = _face_outcome(store, f, Z[lo:hi], resids[lo:hi], iters[lo:hi], jac, lo,
                                                       cfg, homogeneous)
    return outcomes


def _status(points, rays, posdim) -> str:
    return STATUS_UNBOUNDED if rays else STATUS_NON_ISOLATED if posdim else STATUS_FINITE if points else STATUS_EMPTY


def _meta(cfg: SolverConfig, **extra) -> dict:
    return {"tol": cfg.tol, "dedup_radius": DEDUP_RADIUS, "newton_max_iter": NEWTON_MAX_ITER, "leaf_edge": LEAF_EDGE,
            **extra}


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


_CONE_T = 10.0


def _cone_holds(inst0: TcpInstance, r: np.ndarray, tol: float) -> bool:
    """Whether t * r solves TCP(A, 0) within tol at t = _CONE_T, and so on
    the segment up to it: with a = 0, feas_x, feas_F and comp of t r are t,
    t^(m - 1) and t^m times those of r, none falls as t grows."""
    return max_residual(inst0, _CONE_T * r) <= tol


# Newton starts per chunk of solve_many or homogeneous_solve_many, and per
# Newton batch of _solve_faces, times n^m: it bounds how many instances'
# starts are held at once, and the faces of one batch's FaceStore (the only
# face blocks held) and the rows of its points, residuals and Jacobians;
# the kernels' temporaries are bounded by tensors._TEMP_ENTRIES
_MANY_CHUNK = 1 << 21


def _check_one_shape(tensors) -> None:
    shapes = sorted({A.array.shape for A in tensors})
    if len(shapes) > 1:
        raise ValueError(f"the instances of one call must share (m, n); got tensor shapes {shapes}")


def _solve_stream(instances, cfg: SolverConfig, certs: list | None = None, homs: dict | None = None):
    """The results of solve_many, or with certs those of
    homogeneous_solve_many on the instances' tensors, yielded one by one.

    With certs, one undecided R0 certificate (_r0_certificate) of each
    instance's tensor, the instances have a = 0 and each face starts from
    the certificate's surviving pieces on it; otherwise from the leaves of
    the augmented subdivision (_leaf_starts).  A chunk takes consecutive
    instances while their starts times n^m stay within _MANY_CHUNK, and at
    least one, and hands all their faces with starts to one _solve_faces
    call when its first result is asked for.  The face {0} has no starts: a
    point solve adds the origin when min(a) >= -tol on the normalized pair,
    and a homogeneous one leaves it out.  The rays of TCP(A, 0) are found
    once per distinct tensor by one homogeneous_solve_many call per chunk,
    after the chunk's point faces, for the tensors not yet in homs, which
    maps a tensor's bytes to the Rays of its homogeneous_solve; a caller
    that already ran that search may pass them in homs.  A point solve
    keeps, in their order, the Rays of its tensor that ray_active accepts.
    """
    instances = list(instances)
    _check_one_shape([inst.tensor for inst in instances])
    homogeneous = certs is not None
    faces = enumerate_faces(instances[0].n)[:-1] if instances else []  # all but the face {0}
    homs = {} if homs is None else homs

    def prepared():
        # only a face with starts goes to the face solver; every other face
        # has no roots
        for inst, cert in zip(instances, certs if homogeneous else [None] * len(instances)):
            unit = _unit_pair(inst.tensor, inst.a)
            starts = cert.starts if homogeneous else _leaf_starts(unit, cfg.tol)
            used = [face for face in faces if face.mask in starts]
            yield inst, cert, unit, used, [starts[face.mask] for face in used]

    for chunk in _runs(prepared(), lambda item: sum(len(z) for z in item[4]) * item[0].n ** item[0].m, _MANY_CHUNK):
        outcomes = iter(_solve_faces([item[2] for item in chunk], [(j, face) for j, item in enumerate(chunk)
                                                                   for face in item[3]],
                                     [z for item in chunk for z in item[4]], cfg, homogeneous))
        if not homogeneous:
            keys = [inst.tensor.array.tobytes() for inst, *_ in chunk]
            new = {key: inst.tensor for key, (inst, *_) in zip(keys, chunk) if key not in homs}
            homs.update(zip(new, (hom.rays for hom in homogeneous_solve_many(new.values(), cfg))))
        for j, (inst, cert, unit, used, _) in enumerate(chunk):
            outs = list(itertools.islice(outcomes, len(used)))
            work = {"starts": sum(out.starts for out in outs), "newton_iters": sum(out.newton_iters for out in outs)}
            if homogeneous:
                # a direction is a ray when its tail solves TCP(A, 0); comp
                # scales like t^m, so a root accepted at tol / 10 can fail at
                # t = 10 and then only posdim reports its face.  The rays are
                # the directions scaled to unit length once more, which moves
                # the last bits of about a third of them
                units = (d / float(np.linalg.norm(d)) for out in outs for d in out.rays)
                # with every residual 0.0, _dedup keeps them in tuple order
                kept = _dedup([(r, 0.0) for r in units if _cone_holds(unit, r, cfg.tol)], DEDUP_RADIUS)
                rays = [Ray(direction=d, face=face_of(d, cfg.tol)) for d in kept]
                meta = _meta(cfg, homogeneous=True, **work, simplices=cert.simplices, margin=cert.margin)
            else:
                # point faces give no rays: those of TCP(A, 0) are the candidates
                hom = homs[keys[j]]
                rays = [r for r in hom if ray_active(unit, r.direction, cfg.tol)]
                meta = _meta(cfg, **work, hom_candidates=len(hom), faces=2**inst.n)
            xs = [x for out in outs for x in out.points]
            if not homogeneous and float(np.min(unit.a)) >= -cfg.tol:
                xs.append(np.zeros(inst.n))
            points = _sorted_points(unit, inst, xs, cfg)
            posdim = [face for face, out in zip(used, outs) if out.posdim]
            yield SolutionSet(points, rays, posdim, _status(points, rays, posdim), meta)


def homogeneous_solve_many(tensors, cfg: SolverConfig) -> list[SolutionSet]:
    """homogeneous_solve of every tensor, all of one (m, n).

    Each tensor's R0 certificate runs once.  The faces of one size across a
    chunk of the undecided tensors run as one Newton batch; each result is
    the one homogeneous_solve gives alone.
    """
    tensors = list(tensors)
    _check_one_shape(tensors)
    certs = [_r0_certificate(A, cfg.tol) for A in tensors]
    undecided = [(A, cert) for A, cert in zip(tensors, certs) if not cert.holds]
    searched = _solve_stream([TcpInstance(A, np.zeros(A.dim)) for A, _ in undecided], cfg,
                             [cert for _, cert in undecided])
    return [SolutionSet([], [], [], STATUS_EMPTY, _meta(cfg, homogeneous=True, starts=0, newton_iters=0,
                                                        simplices=cert.simplices, margin=cert.margin))
            if cert.holds else next(searched) for cert in certs]


def homogeneous_solve(A: Tensor, cfg: SolverConfig) -> SolutionSet:
    """Nonzero solutions of TCP(A, 0), searched on the probability simplex.

    The solution set of the homogeneous problem is a cone, so the search
    adds the normalization sum(x) = 1 to every face system and reports each
    solution as a unit-Euclidean ray direction.  A root's direction r is
    kept only when t r solves TCP(A, 0) within tol at t = _CONE_T, and so
    at every smaller t > 0 (_cone_holds), and is dropped otherwise, with no
    second Newton run; a posdim-flagged face whose root fails is reported
    in posdim_suspect alone.  An empty ray list means the only homogeneous
    solution the search found is the origin.

    The R0 certificate of A (subdivision._r0_certificate) runs first.  When
    it excludes every piece of the simplex faces, Sol(A, 0) = {0} is proved:
    no face is gathered, no Newton runs, and meta records the pieces judged
    (simplices) and the certified margin.  Otherwise the centroids of the
    pieces it leaves alive are the only Newton starts, each on its own face,
    a face with no surviving piece is not gathered and runs no Newton, and
    margin is None.  The result depends on A alone.

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
    distinct tensor by homogeneous_solve_many, whose rays each instance
    filters with ray_active, so a sweep of right-hand sides against one
    tensor pays for it once, and only for the R0 certificate when that
    proves Sol(A, 0) = {0}.  Each result is, bit for bit, the one solve gives
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

    S1 and S2 are lists of points or (N, n) arrays of them.  Empty S1 gives
    0 (vacuous sup); empty S2 with nonempty S1 gives the +inf sentinel.
    """
    P1, P2 = real_array(S1), real_array(S2)
    for P in (P1, P2):
        if P.size and (P.ndim != 2 or not np.all(np.isfinite(P))):
            raise ValueError(f"expected finite points of one length, as rows of shape (N, n), got shape {P.shape}")
    if not P1.size:
        return 0.0
    if not P2.size:
        return math.inf
    return max(float(np.min(np.linalg.norm(P2 - p, axis=1))) for p in P1)


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


_ORACLE_SEED_CAP = 16
_ORACLE_SAFETY = 1.5


def _clusters(idx: np.ndarray, score: np.ndarray, shape: tuple) -> tuple[np.ndarray, int, np.ndarray]:
    """Clusters and polish seeds of the accepted points of a grid.

    idx holds the accepted points' flat indices into a grid of the given
    shape, ascending, and score their violation scores.  Two accepted points
    are neighbours under 3^d connectivity; each neighbour pair is found once,
    from its earlier point, by looking its later point's flat index up in
    idx.  Returns (labels, count, seeds), one entry of labels and seeds per
    accepted point:

    labels numbers the connected components 0..count-1 in the order of their
    first point in C order.  Each point starts as its own tree; every round
    hooks the larger root of each neighbouring pair onto the smaller, then
    jumps pointers to the roots, so a component's root ends as its first
    point.

    seeds marks the local minima of score on the sub-grid of some face.  The
    sub-grid of a face pins its axes to index 0, and a point lies on the
    sub-grid of every face whose axes are among its zero-index axes.  The
    fewer axes a face pins the more neighbours the point has there, so it is
    a minimum on some face exactly when it is one on the face pinning all its
    zero-index axes: when no accepted neighbour reached by moving only along
    axes where its index is nonzero has a strictly smaller score.
    """
    coords = np.stack(np.unravel_index(idx, shape))
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    seeds = np.ones(idx.size, dtype=bool)
    u, v = [], []
    for shift in itertools.product((-1, 0, 1), repeat=len(shape)):
        if shift <= (0,) * len(shape):
            continue  # each pair once, from its earlier point
        moved = np.flatnonzero(shift)
        at = coords[moved]
        # the index on each moved axis past which the shift leaves the grid
        edge = np.where(np.array(shift)[moved] < 0, 0, np.array(shape)[moved] - 1)
        p = np.flatnonzero(np.all(at != edge[:, None], axis=0))
        target = idx[p] + int(np.dot(shift, strides))
        q = np.minimum(np.searchsorted(idx, target), idx.size - 1)
        hit = idx[q] == target
        p, q = p[hit], q[hit]
        u.append(p)
        v.append(q)
        # a point at index 0 on an axis the shift moves along does not have
        # the other point of the pair on its face's sub-grid
        on_face = np.all(at != 0, axis=0)
        seeds[p[on_face[p] & (score[q] < score[p])]] = False
        seeds[q[on_face[q] & (score[p] < score[q])]] = False
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
    firsts, labels = np.unique(root, return_inverse=True)
    return labels, int(firsts.size), seeds


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
        if len(face) == inst.n:
            cand = np.zeros(inst.n)
        else:
            store = FaceStore([inst], [0], [face])
            if store.zero_rows.all():
                continue
            Z, _, _ = _newton(*_face_functions(store, np.zeros(1, int), simplex=False), seed[store.free[0]][None])
            z = Z[0]
            if float(np.min(z)) < -1e-12:
                continue
            cand = store.embed(0, np.maximum(z, 0.0))
        r = max_residual(inst, cand)
        if r <= vtol:
            out.append((cand, r))
    r = max_residual(inst, seed)
    if r <= vtol:
        out.append((seed, r))
    return out


def _scan_polynomials(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(x) = arr x^{m-1} and its Jacobian as polynomials in x: (exps, C).

    Row k of exps holds the exponents of the k-th monomial of degree m - 1 or
    m - 2, and C[t, k] is its coefficient in output t: outputs 0..n-1 are
    the rows of F, output n + n i + j is dF_i/dx_j.  The entries of arr whose
    trailing multi-indices share a monomial add into one coefficient.
    """
    n, m = arr.shape[0], arr.ndim
    trailing = np.indices((n,) * (m - 1)).reshape(m - 1, -1)
    T = trailing.shape[1]
    # E[t]: the exponents of the monomial of trailing multi-index t
    E = np.sum(trailing[:, :, None] == np.arange(n), axis=0)
    # x_j differentiated out of the monomial of trailing multi-index t
    t, j = np.nonzero(E)
    D = E[t] - np.eye(n, dtype=E.dtype)[j]
    exps, inv = np.unique(np.concatenate([E, D]), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    flat = arr.reshape(n, T)
    C = np.zeros((n + n * n, len(exps)))
    i = np.arange(n)[:, None]
    np.add.at(C, (i, inv[None, :T]), flat)
    np.add.at(C, (n + n * i + j, inv[None, T:]), flat[:, t] * E[t, j])
    return exps, C


def _row_values(exps: np.ndarray, C: np.ndarray, axis: np.ndarray, lead) -> np.ndarray:
    """The polynomials (exps, C) of _scan_polynomials on whole grid rows.

    axis holds the grid's g coordinates along each axis, and lead the rows'
    indices on the n - 1 leading axes, R each.  On a row every output is a
    polynomial in the last coordinate; its coefficients Q come from the
    powers of the row's leading coordinates, and Horner's rule evaluates it
    along the row.  Returns shape (len(C), R, g).
    """
    d = int(exps.sum(axis=1).max())  # m - 1
    pw = np.cumprod(np.vstack([np.ones(axis.size), np.broadcast_to(axis, (d, axis.size))]), axis=0)
    lv = np.ones((len(exps), lead[0].size))
    for ax, idx in enumerate(lead):
        lv *= pw[exps[:, ax, None], idx]
    # Q[t, p, r]: output t's coefficient of x_last^p on row r
    Q = np.zeros((len(C), d + 1, lead[0].size))
    np.add.at(Q, (slice(None), exps[:, -1]), C[:, :, None] * lv)
    V = np.zeros((len(C), lead[0].size, axis.size))
    for p in range(d, -1, -1):
        V *= axis
        V += Q[:, p, :, None]
    return V


def _scan(inst: TcpInstance, g: int, grid_step: float, tol: float):
    """The accepted points of the grid, their violation scores and the
    largest theta_F on the grid.

    The grid is {0, .., g - 1}^n times grid_step, scanned in chunks of whole
    rows along its last axis, with F and J from the monomial coefficients of
    A (_scan_polynomials, _row_values).  A chunk takes as many rows, and at
    least one, as keep its largest temporary, V with n + n^2 outputs a
    point, within _TEMP_ENTRIES entries: ORACLE_BUDGET bounds the scan's
    time, not its memory.  All of it is elementwise numpy, so each point's
    bits depend neither on the chunk split nor on a BLAS.
    Returns (idx, score, theta_F_max): idx holds the accepted points' flat
    indices into the grid of shape (g,)*n, ascending, and score their scores.
    """
    n = inst.n
    exps, C = _scan_polynomials(inst.tensor.array)
    axis = np.arange(g) * grid_step
    half_diag = 0.5 * grid_step * math.sqrt(n)
    a = inst.a[:, None, None]
    n_rows = g ** (n - 1)
    kept, scores = [], []
    theta_F_max = 0.0
    chunk_rows = max(1, _TEMP_ENTRIES // ((n + n * n) * g))
    for r0 in range(0, n_rows, chunk_rows):
        lead = np.unravel_index(np.arange(r0, min(r0 + chunk_rows, n_rows)), (g,) * (n - 1))
        V = _row_values(exps, C, axis, lead)
        F, J = V[:n] + a, V[n:].reshape(n, n, *V.shape[1:])
        X = np.empty(F.shape)
        for ax, idx in enumerate(lead):
            X[ax] = axis[idx, None]
        X[-1] = axis
        theta_F = _ORACLE_SAFETY * half_diag * np.sqrt(np.sum(J * J, axis=1)) + tol
        grad_comp = F + np.sum(J * X[:, None], axis=0)
        theta_comp = _ORACLE_SAFETY * half_diag * np.sqrt(np.sum(grad_comp * grad_comp, axis=0)) + tol
        comp = np.abs(np.sum(X * F, axis=0))
        accept = np.all(F + theta_F >= 0.0, axis=0) & (comp <= theta_comp)
        kept.append(r0 * g + np.flatnonzero(accept))
        scores.append(np.maximum(np.maximum(0.0, -np.min(F[:, accept], axis=0)), comp[accept]))
        theta_F_max = max(theta_F_max, float(np.max(theta_F)))
    return np.concatenate(kept), np.concatenate(scores), theta_F_max


def brute_force_oracle(
    inst: TcpInstance, box_radius: float, grid_step: float, tol: float
) -> OracleResult:
    """Independent grid search over [0, box_radius]^n.

    The search runs on (A, a) divided by its pair norm, as solve does, which
    leaves the solution set unchanged: tol, the acceptance thresholds and
    meta["theta_F_max"] are relative to |(A, a)|, and the result does not
    depend on the units of (A, a).

    Accepts grid points whose feasibility and complementarity clear local
    thresholds widened to the grid resolution (the exact Jacobian gives each
    point its own bound, so a true solution within half a cell is never
    missed and far-field slop does not bloat the capture).  The scan
    evaluates F and J from A's monomial coefficients along the grid's axes,
    in chunks of whole grid rows within tensors._TEMP_ENTRIES (_scan), with
    its own elementwise arithmetic and not the solver's kernels, so each
    point's result does not depend on the chunk split.  Only the accepted points are kept; they
    are grouped by grid connectivity, and every local minimum of the
    violation score inside a cluster seeds a Newton polish, so one cluster
    can yield several nearby solutions (_clusters finds both from the
    accepted points alone).  Only polished points re-verified at
    ORACLE_VERIFY_TOL enter `representatives`, deduplicated at
    DEDUP_RADIUS; the polish still runs the solver's _newton on the
    _face_functions of a one-face FaceStore.  Clusters report size and
    spatial extent so positive-dimensional components are visible as
    extended clusters.  Valid only inside the box: clusters touching the outer
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
    captured, score, theta_F_max = _scan(inst, g, grid_step, tol)
    # polish seeds: local minima of the violation score within the captured
    # set, taken per face sub-grid.  A solution with zero coordinates is
    # interior to its face, where its basin is a genuine minimum; on the full
    # grid the score valley can drain past it toward a nearby interior basin
    # without ever forming one.
    labels, ncl, is_min = _clusters(captured, score, shape)
    # every cluster's members in C order, from one stable sort of the
    # accepted points by label: cluster c is order[ends[c]:ends[c + 1]],
    # positions into captured
    order = np.argsort(labels, kind="stable")
    ends = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=ncl))])

    clusters: list[OracleCluster] = []
    reps: list[tuple[np.ndarray, float]] = []
    pin_tol = grid_step * (1.0 + 1e-9)
    for c in range(ncl):
        pos = order[ends[c]:ends[c + 1]]
        idx = captured[pos]
        members = np.stack(np.unravel_index(idx, shape), axis=1) * grid_step
        best = members[int(np.argmin(score[pos]))]
        extent = float(np.max(np.max(members, axis=0) - np.min(members, axis=0))) if len(idx) > 1 else 0.0
        boundary = bool(np.any(members >= box_radius - grid_step / 2))

        # never empty: the cluster's least-score point is a seed
        seed_pos = pos[is_min[pos]]
        if len(seed_pos) > _ORACLE_SEED_CAP:
            by_score = np.argsort(score[seed_pos], kind="stable")
            seed_pos = seed_pos[by_score[:_ORACLE_SEED_CAP]]
        found: list[tuple[np.ndarray, float]] = []
        for fi in captured[seed_pos]:
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

    representatives = _dedup(reps, DEDUP_RADIUS)
    representatives.sort(key=lambda x: tuple(x))
    return OracleResult(
        representatives=representatives,
        clusters=clusters,
        meta={
            "box_radius": box_radius,
            "grid_step": grid_step,
            "tol": tol,
            "grid_points": int(g**n),
            "accepted": int(captured.size),
            "theta_F_max": theta_F_max,
            "n_clusters": ncl,
        },
    )
