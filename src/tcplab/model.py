"""Problem instances and the face decomposition of the nonnegative orthant.

An instance is a pair (A, a); a solution is x >= 0 with
F(x) = contract(A, x) + a >= 0 and <x, F(x)> = 0.  Complementarity splits
the orthant into 2^n pseudo-faces indexed by the set alpha of coordinates
pinned to zero: on the face with free set beta = complement(alpha), any
solution must satisfy the square polynomial system F_i(x) = 0 for i in beta
together with the sign conditions x_i > 0 (i in beta) and F_i(x) >= 0
(i in alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensors import (
    Tensor,
    as_vector,
    contract_rows,
    jacobian_rows,
    real_array,
    slot_sum,
    tensor_from_dict,
    tensor_to_dict,
)

# coefficient magnitude below which a reduced equation counts as identically zero
ZERO_ROW_TOL = 1e-14

# desk-scale guard: refuse dimensions with more than this many faces.  With
# m = 2 one solve at n = 10 takes seconds and the cost grows about 4.5-fold
# per two more coordinates, while MAX_ENTRIES admits n in the thousands
MAX_FACES = 2**10


class BudgetError(RuntimeError):
    """A requested computation exceeds the desk-scale resource budget."""


@dataclass(frozen=True, order=True)
class FaceMask:
    """Subset alpha of {1..n} of coordinates pinned to zero, as a bitmask.

    Bit i - 1 set means coordinate i is pinned.  The empty mask is the open
    orthant; the full mask names the face {0}.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.mask < 2**self.n:
            raise ValueError(f"mask {self.mask} out of range for n = {self.n}")

    @classmethod
    def from_indices(cls, n: int, indices) -> "FaceMask":
        mask = 0
        for i in indices:
            i = int(i)
            if not 1 <= i <= n:
                raise ValueError(f"face index {i} out of range 1..{n}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @property
    def zero_indices(self) -> tuple[int, ...]:
        """Pinned coordinates, 0-based."""
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    @property
    def free_indices(self) -> tuple[int, ...]:
        """Free coordinates, 0-based."""
        return tuple(i for i in range(self.n) if not self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        # iterate 1-based members, so a FaceMask can be passed as an index set
        return (i + 1 for i in self.zero_indices)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def to_json(self) -> list[int]:
        return [i + 1 for i in self.zero_indices]


def enumerate_faces(n: int) -> list[FaceMask]:
    """All 2^n faces in ascending bitmask order.

    Every computation that enumerates faces starts here, so an n past the
    MAX_FACES budget raises BudgetError before any work is done.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= MAX_FACES.bit_length():
        raise BudgetError(f"n = {n} gives 2^{n} faces, over the desk-scale budget of {MAX_FACES}")
    return [FaceMask(n, mask) for mask in range(2**n)]


def face_of(x, tol: float) -> FaceMask:
    """Face of a nonnegative point: coordinates with x_i <= tol are pinned."""
    x = as_vector(x)
    if np.min(x) < -tol:
        raise ValueError(f"point is not nonnegative within tol: min entry {np.min(x)}")
    return FaceMask(x.shape[0], sum(1 << i for i in np.flatnonzero(x <= tol).tolist()))


@dataclass(frozen=True, eq=False)
class TcpInstance:
    """Pair (A, a) defining F(x) = contract(A, x) + a."""

    tensor: Tensor
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, self.tensor.dim))
        arr = self.a.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @property
    def n(self) -> int:
        return self.tensor.dim

    @property
    def m(self) -> int:
        return self.tensor.order

    def F(self, x) -> np.ndarray:
        """F at one x of shape (n,) or at every row of x of shape (S, n)."""
        return contract_rows(self.tensor.array, _as_points(x, self.n)) + self.a

    def to_json(self) -> dict:
        return {"tensor": tensor_to_dict(self.tensor), "a": self.a.tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "TcpInstance":
        try:
            tensor = tensor_from_dict(d["tensor"])
            a = d["a"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance object: {exc}") from exc
        return cls(tensor, as_vector(a, tensor.dim))


def _as_points(x, n: int) -> np.ndarray:
    """Validate one point of shape (n,) or a stack of points of shape (S, n)."""
    X = real_array(x)
    if X.ndim == 1:
        return as_vector(X, n)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected a point of length {n} or rows of shape (S, {n}), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite entries")
    return X


def _positive_part(v: np.ndarray) -> np.ndarray:
    """v where v > 0, else +0.0 as the builtin max(0.0, v) gives, also for
    v = -0.0; +inf where v is NaN."""
    return np.where(v > 0.0, v, np.where(np.isnan(v), np.inf, 0.0))


def residual(inst: TcpInstance, x, Fx=None):
    """Infeasibility split (feas_x, feas_F, comp); all <= tol means solution.

    x is one point (n,), giving three floats, or a stack (S, n), giving three
    arrays of S values.  Fx is inst.F(x) when the caller already has it.  A
    part that is NaN, because F(x) overflowed, is reported as +inf.
    """
    x = _as_points(x, inst.n)
    X = np.atleast_2d(x)
    F = np.atleast_2d(inst.F(x) if Fx is None else Fx)
    feas_x = _positive_part(-np.min(X, axis=1))
    feas_F = _positive_part(-np.min(F, axis=1))
    # the stacked matmul is the 1-d dot x @ F(x) of each row, to the bit
    comp = np.abs(np.matmul(X[:, None, :], F[:, :, None])[:, 0, 0])
    comp = np.where(np.isnan(comp), np.inf, comp)
    if x.ndim == 1:
        return float(feas_x[0]), float(feas_F[0]), float(comp[0])
    return feas_x, feas_F, comp


def max_residual(inst: TcpInstance, x, Fx=None):
    """max(residual(inst, x)): a float for one point, an array for a stack."""
    feas_x, feas_F, comp = residual(inst, x, Fx)
    # the builtin max, row by row: a later part wins only when it is larger
    worst = np.where(feas_F > feas_x, feas_F, feas_x)
    worst = np.where(comp > worst, comp, worst)
    return float(worst) if worst.ndim == 0 else worst


@dataclass(frozen=True, eq=False)
class KktPoint:
    """Primal point x with multiplier lam for F(x) - lam = 0, <lam, x> = 0."""

    x: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "lam", as_vector(self.lam, self.x.shape[0]))


def kkt_residual(inst: TcpInstance, point: KktPoint) -> float:
    """Max violation across stationarity, complementarity and both signs."""
    x, lam = point.x, point.lam
    if x.shape[0] != inst.n:
        raise ValueError(f"dimension mismatch: instance n = {inst.n}, point n = {x.shape[0]}")
    stat = float(np.max(np.abs(inst.F(x) - lam)))
    comp = abs(float(lam @ x))
    neg_x = max(0.0, float(-np.min(x)))
    neg_lam = max(0.0, float(-np.min(lam)))
    return max(stat, comp, neg_x, neg_lam)


def face_blocks(arr: np.ndarray, free: np.ndarray, which=None) -> tuple[np.ndarray, np.ndarray]:
    """The blocks arr[f, .., f] of F faces with k free coordinates each, free
    (F, k), and their slot sums, both (F,) + (k,)*m, from one fancy-index
    gather; with which, arr is a stack of arrays and face f's block comes
    from arr[which[f]].  A monomial with a pinned index vanishes on a face,
    so the face's reduced system is the contraction of its block."""
    F, k = free.shape
    m = arr.ndim - (which is not None)
    idx = tuple(free.reshape((F,) + (1,) * p + (k,) + (1,) * (m - 1 - p)) for p in range(m))
    blocks = arr[idx if which is None else (np.reshape(which, (F,) + (1,) * m),) + idx]
    # the F k rows of the stack are rows of one order-m array
    return blocks, slot_sum(blocks.reshape((F * k,) + (k,) * (m - 1))).reshape(blocks.shape)


class FaceStore:
    """The reduced square systems F_i(x) = 0, i free, of F faces with k free
    coordinates each: face f is masks[f] of instances[which[f]], all of one
    (m, n).  blocks and slots, (F,) + (k,)*m, and a_free (F, k), gathered at
    once (face_blocks), are what the row kernels evaluate; row r of a face
    is its r-th free coordinate's.  A row whose coefficients are all below
    ZERO_ROW_TOL is identically zero (zero_rows, the face is
    underdetermined) when a_i is too, and otherwise a nonzero constant
    (infeasible_rows, the face is empty)."""

    def __init__(self, instances: list[TcpInstance], which, masks: list[FaceMask]):
        self.instances, self.which, self.masks = instances, np.asarray(which, dtype=int), masks
        self.free = np.array([mask.free_indices for mask in masks], dtype=int)
        self.k = self.free.shape[1]
        used, at = np.unique(self.which, return_inverse=True)
        self.blocks, self.slots = face_blocks(np.stack([instances[j].tensor.array for j in used]), self.free, at)
        self.a_free = np.stack([instances[j].a for j in used])[at[:, None], self.free]
        coeffs = np.abs(self.blocks).max(axis=tuple(range(2, self.blocks.ndim)), initial=0.0)
        vanishing, a_zero = coeffs < ZERO_ROW_TOL, np.abs(self.a_free) < ZERO_ROW_TOL
        self.zero_rows, self.infeasible_rows = vanishing & a_zero, vanishing & ~a_zero
        # a zero row evaluates as exactly zero (slot sum row r sums block row
        # r alone), so Newton stops at its starts when every row vanishes
        self.blocks[vanishing], self.slots[vanishing], self.a_free[self.zero_rows] = 0.0, 0.0, 0.0

    def instance(self, f: int) -> TcpInstance:
        return self.instances[self.which[f]]

    def embed(self, f: int, z) -> np.ndarray:
        """Lift free coordinates z (k,) or rows of z (S, k) of face f to the
        full space, zeros on its pinned coordinates."""
        z = real_array(z)
        x = np.zeros(z.shape[:-1] + (self.masks[f].n,))
        x[..., self.free[f]] = z
        return x

    def pinned_slack(self, f: int, x, Fx=None):
        """min F_i(x) over the pinned rows of face f (+inf when it pins none),
        a float for one x (n,), an array for rows of x (S, n).  Fx is F(x)
        when the caller already has it."""
        inst = self.instance(f)
        x = _as_points(x, inst.n)
        pinned = list(self.masks[f].zero_indices)
        if not pinned:
            slack = np.full(x.shape[:-1], np.inf)
        else:
            F = inst.F(x) if Fx is None else np.asarray(Fx)
            slack = np.min(F[..., pinned], axis=-1)
        return float(slack) if slack.ndim == 0 else slack


class FaceSystem:
    """Reduced square system of one face, alpha of inst: the one-face view of
    a FaceStore, with its arrays block, slots and a_free, its flagged rows
    as tuples, and its embed and pinned_slack.  The solver and the
    copositivity search gather their faces a size at a time and never
    build this view."""

    def __init__(self, inst: TcpInstance, alpha: FaceMask):
        if alpha.n != inst.n:
            raise ValueError(f"face over n = {alpha.n} does not match instance n = {inst.n}")
        self._store = store = FaceStore([inst], [0], [alpha])
        self.instance, self.alpha, self.free, self.k = inst, alpha, alpha.free_indices, store.k
        self.block, self.slots, self.a_free = store.blocks[0], store.slots[0], store.a_free[0]
        self.zero_rows = tuple(np.flatnonzero(store.zero_rows[0]).tolist())
        self.infeasible_rows = tuple(np.flatnonzero(store.infeasible_rows[0]).tolist())

    def embed(self, z) -> np.ndarray:
        """Lift z (k,) or rows of z (S, k) to the full space, zeros on alpha."""
        return self._store.embed(0, z)

    def residual_vec(self, z) -> np.ndarray:
        """F restricted to the free rows, at z of shape (k,) or at every row
        of z of shape (S, k)."""
        return contract_rows(self.block, z) + self.a_free

    def jacobian(self, z) -> np.ndarray:
        """Jacobian of residual_vec, shape (k, k) or (S, k, k)."""
        return jacobian_rows(self.slots, z)

    def pinned_slack(self, x, Fx=None):
        """FaceStore.pinned_slack of this face."""
        return self._store.pinned_slack(0, x, Fx)


def face_system(inst: TcpInstance, alpha: FaceMask) -> FaceSystem:
    return FaceSystem(inst, alpha)
