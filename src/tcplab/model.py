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
    slot_sum,
    tensor_from_dict,
    tensor_to_dict,
)

# coefficient magnitude below which a reduced equation counts as identically zero
ZERO_ROW_TOL = 1e-14


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
    """All 2^n faces in ascending bitmask order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [FaceMask(n, mask) for mask in range(2**n)]


def face_of(x, tol: float) -> FaceMask:
    """Face of a nonnegative point: coordinates with x_i <= tol are pinned."""
    x = as_vector(x)
    if np.min(x) < -tol:
        raise ValueError(f"point is not nonnegative within tol: min entry {np.min(x)}")
    mask = 0
    for i, xi in enumerate(x):
        if xi <= tol:
            mask |= 1 << i
    return FaceMask(x.shape[0], mask)


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
    X = np.asarray(x, dtype=float)
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


class FaceSystem:
    """Reduced square system of one face: F_i(x) = 0 for free i, x pinned on alpha.

    Rows are indexed by the free coordinates.  A row whose reduced polynomial
    has every coefficient below ZERO_ROW_TOL is identically zero (the face is
    underdetermined); a row that is identically a nonzero constant can never
    vanish, so the face is empty.
    """

    def __init__(self, inst: TcpInstance, alpha: FaceMask):
        if alpha.n != inst.n:
            raise ValueError(f"face over n = {alpha.n} does not match instance n = {inst.n}")
        self.instance = inst
        self.alpha = alpha
        self.free = alpha.free_indices
        self.k = len(self.free)

        # every monomial with a pinned index vanishes on the face, so the
        # reduced system is exactly the contraction of the free sub-block;
        # block, its slot sum and a_free are what the row kernels evaluate
        free = list(self.free)
        arr = inst.tensor.array
        if self.k > 0:
            self.block = arr[np.ix_(*([free] * inst.m))]
            self.a_free = inst.a[free]
        else:
            self.block = np.zeros((0,) * inst.m)
            self.a_free = np.zeros(0)
        self.slots = slot_sum(self.block)

        # block[r] holds the coefficients of row r
        coeffs = np.abs(self.block.reshape(self.k, self.k ** (inst.m - 1)))
        vanishing = np.max(coeffs, axis=1, initial=0.0) < ZERO_ROW_TOL
        a_zero = np.abs(self.a_free) < ZERO_ROW_TOL
        self.zero_rows = tuple(np.flatnonzero(vanishing & a_zero).tolist())
        self.infeasible_rows = tuple(np.flatnonzero(vanishing & ~a_zero).tolist())
        self.underdetermined = bool(self.zero_rows)

    def embed(self, z) -> np.ndarray:
        """Lift free coordinates z (k,) or rows of z (S, k) to the full space,
        zeros on alpha."""
        z = np.asarray(z, dtype=float)
        x = np.zeros(z.shape[:-1] + (self.instance.n,))
        x[..., list(self.free)] = z
        return x

    def residual_vec(self, z) -> np.ndarray:
        """F restricted to the free rows, at z of shape (k,) or at every row
        of z of shape (S, k)."""
        return contract_rows(self.block, z) + self.a_free

    def jacobian(self, z) -> np.ndarray:
        """Jacobian of residual_vec, shape (k, k) or (S, k, k)."""
        return jacobian_rows(self.slots, z)

    def pinned_slack(self, x, Fx=None):
        """min F_i(x) over pinned rows (+inf when alpha is empty), a float for
        one x (n,), an array for rows of x (S, n).  Fx is F(x) when the
        caller already has it."""
        x = _as_points(x, self.instance.n)
        pinned = list(self.alpha.zero_indices)
        if not pinned:
            slack = np.full(x.shape[:-1], np.inf)
        else:
            F = self.instance.F(x) if Fx is None else np.asarray(Fx)
            slack = np.min(F[..., pinned], axis=-1)
        return float(slack) if slack.ndim == 0 else slack


def face_system(inst: TcpInstance, alpha: FaceMask) -> FaceSystem:
    return FaceSystem(inst, alpha)
