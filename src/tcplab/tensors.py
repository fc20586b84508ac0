"""Dense real tensors of fixed order and dimension, with the contractions
used throughout the package.

A tensor A of order m and dimension n acts on a vector x through

    contract(A, x)_i = sum over (i2..im) of A[i, i2, .., im] * x[i2] * .. * x[im]

which is homogeneous of degree m - 1, and through the scalar form(A, x),
homogeneous of degree m.  Entries are stored as an ndarray of shape (n,)*m;
the C-order flat layout coincides with lexicographic order of multi-indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# desk-scale guard: refuse tensors with more than this many entries
MAX_ENTRIES = 10_000_000
# entries of the largest temporary of a batched kernel: contract_rows and
# jacobian_rows run their rows, subdivision._bernstein its pieces, in runs
# whose temporaries stay within it
_TEMP_ENTRIES = 1 << 16


def real_array(x) -> np.ndarray:
    """x as a float array; complex input raises ValueError instead of losing
    its imaginary part."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError("complex input is not supported: entries must be real")
    return np.asarray(arr, dtype=float)


def _check_size(m: int, n: int) -> None:
    """Raise ValueError unless m >= 2, n >= 2 and an order-m, dimension-n
    tensor fits MAX_ENTRIES; the Tensor constructor's messages.

    With n >= 2 every m of at least MAX_ENTRIES.bit_length() is over budget,
    so a huge m is refused without computing n**m.
    """
    if m < 2:
        raise ValueError(f"tensor order must be >= 2, got {m}")
    if n < 2:
        raise ValueError(f"tensor dimension must be >= 2, got {n}")
    if m >= MAX_ENTRIES.bit_length() or n**m > MAX_ENTRIES:
        raise ValueError(f"n**m = {n}**{m} exceeds the desk-scale budget {MAX_ENTRIES}")


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and convert x to a finite 1-d float array."""
    v = real_array(x)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def _as_count(name: str, value, zero_ok: bool = False) -> int:
    """value as an int; ValueError naming the parameter unless it is an
    integer, a numpy one too, that is positive, or zero with zero_ok."""
    if not isinstance(value, (int, np.integer)) or value < (0 if zero_ok else 1):
        raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable order-m, dimension-n real tensor."""

    array: np.ndarray

    def __post_init__(self):
        arr = real_array(self.array)
        n = arr.shape[0] if arr.ndim else 0
        _check_size(arr.ndim, n)
        if any(s != n for s in arr.shape):
            raise ValueError(f"all modes must have equal dimension, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor has non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Flat entry list in lexicographic multi-index order."""
        return self.array.reshape(-1)

    @classmethod
    def from_entries(cls, m: int, n: int, entries) -> "Tensor":
        flat = real_array(entries).reshape(-1)
        if flat.size != n**m:
            raise ValueError(f"expected {n**m} entries for (m, n) = ({m}, {n}), got {flat.size}")
        return cls(flat.reshape((n,) * m))

    @classmethod
    def zeros(cls, m: int, n: int) -> "Tensor":
        return cls(np.zeros((n,) * m))

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(-1.0, other))


def flat_index(multi: Sequence[int], n: int) -> int:
    """Zero-based flat position of a 1-based multi-index (lexicographic)."""
    pos = 0
    for i in multi:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        pos = pos * n + (i - 1)
    return pos


def multi_index(flat: int, m: int, n: int) -> tuple[int, ...]:
    """Inverse of flat_index: 1-based multi-index of a flat position."""
    if not 0 <= flat < n**m:
        raise ValueError(f"flat position {flat} out of range for (m, n) = ({m}, {n})")
    out = []
    for _ in range(m):
        out.append(flat % n + 1)
        flat //= n
    return tuple(reversed(out))


def _powers(X: np.ndarray, d: int) -> np.ndarray:
    """Rows of the d-fold outer powers x (x) .. (x) x, shape (S, k**d)."""
    S, k = X.shape
    P = np.ones((S, 1))
    for _ in range(d):
        P = (P[:, :, None] * X[:, None, :]).reshape(S, P.shape[1] * k)
    return P


def _row_sums(arr: np.ndarray, R: int, X: np.ndarray, d: int, block) -> np.ndarray:
    """Row s of the d-fold outer powers of X (S, k), L = k**d entries each
    (_powers), times the (R, L) matrix of arr, summed along L; shape (S, R).

    arr holds R * L entries, or a stack of G such arrays when block gives the
    index of row s's array.  The rows run in runs of at most
    _TEMP_ENTRIES // (R L) of them, so that the powers, the gathered arrays
    and their products stay within _TEMP_ENTRIES entries; rows do not
    interact, so each row's sums are the same bits in any run.
    """
    S, k = X.shape
    L = k**d
    run = max(1, _TEMP_ENTRIES // max(1, R * L))
    if S > run:
        return np.concatenate([_row_sums(arr, R, X[lo:lo + run], d, None if block is None else block[lo:lo + run])
                               for lo in range(0, S, run)])
    P = _powers(X, d)
    if block is None:
        return np.sum(P[:, None, :] * arr.reshape(R, L), axis=2)
    prod = arr.reshape(arr.shape[0], R, L)[block]
    prod *= P[:, None, :]
    return np.sum(prod, axis=2)


def contract_rows(arr: np.ndarray, X, block=None) -> np.ndarray:
    """arr x^{m-1} for one x of shape (k,) or for every row of X, shape (S, k).

    arr is any order-m array of shape (k,)*m or, with block, a stack of G of
    them, shape (G,) + (k,)*m, and row s of X is contracted with
    arr[block[s]].  The work is elementwise products and a sum along one
    axis, in runs of rows whose temporaries stay within _TEMP_ENTRIES
    entries (_row_sums), so each row's result does not depend on how many
    rows share the call or on the other arrays of the stack.
    """
    X = np.asarray(X, dtype=float)
    k, m = arr.shape[-1], arr.ndim - (block is not None)
    out = _row_sums(arr, k, np.atleast_2d(X), m - 1, block)
    return out.reshape(X.shape)


def slot_sum(arr: np.ndarray) -> np.ndarray:
    """The sum over slots p = 2..m of the order-m array arr with slot p moved
    next to the row index: the tensor jacobian_rows contracts with x^{m-2}."""
    return np.ascontiguousarray(sum(np.moveaxis(arr, p, 1) for p in range(1, arr.ndim)))


def gradient_sum(arr: np.ndarray) -> np.ndarray:
    """Sum over p of arr with slot p moved first: its contraction is the gradient of arr x^m."""
    return np.ascontiguousarray(sum(np.moveaxis(arr, p, 0) for p in range(arr.ndim)))


def jacobian_rows(W: np.ndarray, X, block=None) -> np.ndarray:
    """Jacobian of x -> contract_rows(arr, x) at one x, shape (k, k), or at
    every row of X, shape (S, k, k), from W = slot_sum(arr).

    Differentiating the monomial in slot p leaves arr with slot p moved next
    to the row index; the slot sum is contracted with x^{m-2}.  As in
    contract_rows, W may be a stack of G slot sums with block giving each
    row's, and the rows run in runs within _TEMP_ENTRIES entries.
    """
    X = np.asarray(X, dtype=float)
    k, m = W.shape[-1], W.ndim - (block is not None)
    J = _row_sums(W, k * k, np.atleast_2d(X), m - 2, block)
    return J.reshape(X.shape + (k,))


def contract(A: Tensor, x) -> np.ndarray:
    """A x^{m-1}: contract x into all modes but the first."""
    return contract_rows(A.array, as_vector(x, A.dim))


def form(A: Tensor, x) -> float:
    """The scalar A x^m, summed in one pass (independent of contract); the
    26 subscript letters cover every order, which _check_size caps at 23."""
    x = as_vector(x, A.dim)
    letters = "abcdefghijklmnopqrstuvwxyz"[: A.order]
    return float(np.einsum(letters + "," + ",".join(letters), A.array, *[x] * A.order))


def form_gradient(A: Tensor, x) -> np.ndarray:
    """Gradient of x -> form(A, x)."""
    return contract_rows(gradient_sum(A.array), as_vector(x, A.dim))


def frobenius(A: Tensor) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(A.array**2)))


def pair_norm(A: Tensor, a) -> float:
    """Norm of an (A, a) pair: sqrt(frobenius(A)^2 + |a|_2^2)."""
    a = as_vector(a, A.dim)
    return float(np.sqrt(np.sum(A.array**2) + np.sum(a**2)))


def add(A: Tensor, B: Tensor) -> Tensor:
    if A.order != B.order or A.dim != B.dim:
        raise ValueError(
            f"shape mismatch: ({A.order}, {A.dim}) vs ({B.order}, {B.dim})"
        )
    return Tensor(A.array + B.array)


def scale(t: float, A: Tensor) -> Tensor:
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("scale factor must be finite")
    return Tensor(t * A.array)


def random_gaussian(m: int, n: int, seed) -> Tensor:
    """Tensor with iid standard normal entries (PCG64 stream from seed)."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(size=(n,) * m))


def non_r0_witness(m: int, n: int, alpha: Iterable[int], seed) -> Tensor:
    """Random tensor whose entries vanish whenever a multi-index leaves alpha.

    alpha is a set of 1-based coordinates; the |alpha|^m entries indexed
    entirely inside alpha are iid Gaussian, every other entry is zero.  Any
    nonnegative x supported outside alpha then satisfies contract(A, x) = 0,
    so the homogeneous problem has nonzero solutions whenever alpha is a
    proper subset of {1..n}.
    """
    ids = sorted(set(int(i) for i in alpha))
    if any(i < 1 or i > n for i in ids):
        raise ValueError(f"alpha must be a subset of 1..{n}, got {ids}")
    if len(ids) == n:
        raise ValueError("alpha must be a proper subset: the full set leaves no witness ray")
    arr = np.zeros((n,) * m)
    if ids:
        zero_based = [i - 1 for i in ids]
        rng = np.random.default_rng(seed)
        block = rng.standard_normal(size=(len(ids),) * m)
        arr[np.ix_(*([zero_based] * m))] = block
    return Tensor(arr)


# ---------------------------------------------------------------------------
# JSON layer


def tensor_to_dict(A: Tensor, fmt: str = "dense") -> dict:
    """JSON-ready dict; 1-based multi-indices in sparse format."""
    if fmt == "dense":
        return {"m": A.order, "n": A.dim, "format": "dense", "entries": A.entries.tolist()}
    if fmt == "sparse":
        entries = []
        flat = A.entries
        for pos in np.nonzero(flat)[0]:
            entries.append(
                {"index": list(multi_index(int(pos), A.order, A.dim)), "value": float(flat[pos])}
            )
        return {"m": A.order, "n": A.dim, "format": "sparse", "entries": entries}
    raise ValueError(f"unknown tensor format {fmt!r}")


def tensor_from_dict(d: dict) -> Tensor:
    """Load a tensor from its JSON dict; rejects duplicate sparse indices."""
    try:
        m, n, fmt = int(d["m"]), int(d["n"]), d["format"]
        raw = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tensor object: missing field {exc}") from exc
    _check_size(m, n)
    if fmt == "dense":
        flat = np.asarray(raw, dtype=float)
        if flat.size != n**m:
            raise ValueError(f"dense entries: expected {n**m} values, got {flat.size}")
        return Tensor.from_entries(m, n, flat)
    if fmt == "sparse":
        arr = np.zeros(n**m)
        seen = set()
        for k, item in enumerate(raw):
            try:
                idx = tuple(int(i) for i in item["index"])
                val = float(item["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed sparse entry at position {k}: {exc}") from exc
            if len(idx) != m:
                raise ValueError(f"sparse entry {k}: index length {len(idx)} != m = {m}")
            pos = flat_index(idx, n)
            if pos in seen:
                raise ValueError(f"duplicate sparse index {list(idx)}")
            seen.add(pos)
            arr[pos] = val
        return Tensor.from_entries(m, n, arr)
    raise ValueError(f"unknown tensor format {fmt!r}")
