import json

import numpy as np
import pytest

from tcplab import (
    TcpInstance,
    Tensor,
    add,
    contract,
    flat_index,
    form,
    form_gradient,
    frobenius,
    max_residual,
    multi_index,
    non_r0_witness,
    pair_norm,
    random_gaussian,
    scale,
    tensor_from_dict,
    tensor_to_dict,
)
import tcplab.tensors as tensors_mod
from tcplab.tensors import _check_size, contract_rows, jacobian_rows, slot_sum


def _cube_example():
    # F(x) = (-(x1^2 + x2^2), -(x1^2 + x2^2)) for m=3, n=2
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = arr[0, 1, 1] = arr[1, 0, 0] = arr[1, 1, 1] = -1.0
    return Tensor(arr)


def test_contract_matches_hand_computation():
    A = _cube_example()
    out = contract(A, [1.0, 2.0])
    assert np.allclose(out, [-5.0, -5.0])
    assert form(A, [1.0, 2.0]) == pytest.approx(-15.0)


def test_contract_order_two_is_matrix_vector():
    A = Tensor.from_entries(2, 2, [1.0, 2.0, 3.0, 4.0])
    # entries are laid out row-major: a_12 = 2, a_21 = 3
    assert A.array[0, 1] == 2.0
    assert np.allclose(contract(A, [1.0, 1.0]), [3.0, 7.0])


def test_contract_rejects_bad_vectors():
    A = _cube_example()
    with pytest.raises(ValueError):
        contract(A, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        contract(A, [1.0, np.nan])


def test_homogeneity_of_contract_and_form():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        A = random_gaussian(m, n, rng)
        x = rng.uniform(-2.0, 2.0, size=n)
        t = float(rng.uniform(0.0, 3.0))
        lhs = contract(A, t * x)
        rhs = t ** (m - 1) * contract(A, x)
        scale_ref = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale_ref
        fl = form(A, t * x)
        fr = t**m * form(A, x)
        assert abs(fl - fr) <= 1e-10 * max(1.0, abs(fr))


def test_form_is_inner_product_with_contract():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        A = random_gaussian(m, n, rng)
        x = rng.uniform(-2.0, 2.0, size=n)
        f = form(A, x)
        ip = float(np.asarray(x) @ contract(A, x))
        assert abs(f - ip) <= 1e-12 * max(1.0, abs(ip))


def test_form_of_high_order_matches_contract(monkeypatch):
    # form takes one einsum at every order up to the m = 23 that
    # _check_size allows, so it stays independent of contract there too
    rng = np.random.default_rng(17)
    for m in (13, 20):
        A = random_gaussian(m, 2, rng)
        x = rng.uniform(0.0, 1.0, size=2)
        ip = float(x @ contract(A, x))
        with monkeypatch.context() as mp:
            mp.setattr(tensors_mod, "contract", None)
            f = form(A, x)
        assert f == pytest.approx(ip, rel=1e-12, abs=1e-15 * np.abs(A.array).sum())


def test_contract_image_bounded_on_unit_box():
    # Cauchy-Schwarz per output row gives |F_i(x)| <= ||A_i|| * ||x||^(m-1),
    # hence ||F(x)|| <= ||A|| * n^((m-1)/2) on the unit box.
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        A = random_gaussian(m, n, rng)
        x = rng.uniform(-1.0, 1.0, size=n)
        bound = frobenius(A) * n ** ((m - 1) / 2)
        assert np.linalg.norm(contract(A, x)) <= bound + 1e-12


def test_contract_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        A = random_gaussian(m, n, rng)
        x = rng.uniform(-1.5, 1.5, size=n)
        J = jacobian_rows(slot_sum(A.array), x)
        h = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (contract(A, x + e) - contract(A, x - e)) / (2 * h)
            assert np.abs(J[:, j] - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())


def test_stacked_kernels_equal_one_array_calls():
    # with a stack of arrays and a per-row index, every row gets the bits of
    # a call on its own array alone, for orders 2 to 4
    rng = np.random.default_rng(23)
    for m in (2, 3, 4):
        arrs = rng.standard_normal(size=(5,) + (3,) * m)
        block = rng.integers(0, 5, size=40)
        X = rng.uniform(-2.0, 2.0, size=(40, 3))
        W = np.stack([slot_sum(a) for a in arrs])
        F, J = contract_rows(arrs, X, block), jacobian_rows(W, X, block)
        assert F.shape == (40, 3) and J.shape == (40, 3, 3)
        for s in range(40):
            assert np.array_equal(F[s], contract_rows(arrs[block[s]], X[s]))
            assert np.array_equal(J[s], jacobian_rows(slot_sum(arrs[block[s]]), X[s]))


def test_form_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    A = random_gaussian(3, 3, rng)
    x = rng.uniform(-1.0, 1.0, size=3)
    g = form_gradient(A, x)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (form(A, x + e) - form(A, x - e)) / (2 * h)
        assert abs(g[j] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_flat_index_bijection_small_orders():
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            seen = set()
            for flat in range(n**m):
                multi = multi_index(flat, m, n)
                assert len(multi) == m
                assert all(1 <= i <= n for i in multi)
                assert flat_index(multi, n) == flat
                seen.add(multi)
            assert len(seen) == n**m


def test_flat_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        flat_index((0, 1), 2)
    with pytest.raises(ValueError):
        flat_index((1, 3), 2)
    with pytest.raises(ValueError):
        multi_index(16, 2, 4)


def test_entries_round_trip_from_entries():
    rng = np.random.default_rng(23)
    vals = rng.normal(size=27)
    A = Tensor.from_entries(3, 3, vals)
    assert np.array_equal(A.entries, vals)
    # entry a_{ijk} lives at flat position flat_index((i, j, k), n)
    assert A.array[1, 0, 2] == vals[flat_index((2, 1, 3), 3)]


def test_tensor_validation():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3))  # order < 2
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 3)))  # ragged modes
    with pytest.raises(ValueError):
        Tensor(np.zeros((1, 1)))  # dimension < 2
    with pytest.raises(ValueError):
        Tensor.from_entries(2, 2, [1.0, 2.0, 3.0])
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Tensor(bad)


@pytest.mark.parametrize("call", [
    lambda: contract(_cube_example(), np.array([1 + 1j, 2.0])),
    lambda: contract(_cube_example(), [1 + 1j, 2.0]),
    lambda: form(_cube_example(), np.array([1.0, 2.0], dtype=complex)),
    lambda: Tensor(np.full((2, 2, 2), 1j)),
    lambda: Tensor.from_entries(3, 2, [1j] * 8),
    lambda: TcpInstance(_cube_example(), [1j, 0.0]),
    lambda: TcpInstance(_cube_example(), [0.0, 0.0]).F(np.array([[1 + 1j, 2.0]])),
    lambda: max_residual(TcpInstance(_cube_example(), [0.0, 0.0]), [[1j, 0.0], [0.0, 1.0]]),
])
def test_complex_input_raises_value_error(call):
    # the imaginary part is never dropped in silence
    with pytest.raises(ValueError, match="complex"):
        call()


def test_huge_sparse_tensor_is_refused_before_allocation():
    # 2**40 entries would take 8 TiB; the budget check comes first
    for m, n in ((40, 2), (10**6, 3), (24, 2)):
        with pytest.raises(ValueError, match="budget"):
            tensor_from_dict({"m": m, "n": n, "format": "sparse", "entries": []})
    _check_size(23, 2)  # 2**23 entries fit


def test_add_scale_frobenius_pair_norm():
    A = _cube_example()
    assert frobenius(A) == pytest.approx(2.0)
    B = scale(-1.0, A)
    assert np.allclose(add(A, B).array, 0.0)
    assert np.allclose((A + B).array, 0.0)
    assert np.allclose((A - A).array, 0.0)
    assert pair_norm(A, [0.0, 0.0]) == pytest.approx(2.0)
    assert pair_norm(Tensor.zeros(3, 2), [3.0, 4.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        add(A, Tensor.zeros(2, 2))
    with pytest.raises(ValueError):
        scale(np.inf, A)


def test_random_gaussian_is_seed_deterministic():
    A = random_gaussian(3, 2, 42)
    B = random_gaussian(3, 2, 42)
    C = random_gaussian(3, 2, 43)
    assert np.array_equal(A.array, B.array)
    assert not np.array_equal(A.array, C.array)
    # pooled entries should look like standard normals, not a constant
    pooled = np.concatenate([random_gaussian(3, 3, s).entries for s in range(100)])
    assert abs(pooled.mean()) <= 5.0 / np.sqrt(pooled.size)
    assert 0.9 <= pooled.std() <= 1.1


def test_non_r0_witness_kills_the_complementary_ray():
    # entries touching any index outside alpha are zeroed, so the indicator
    # vector of the complement contracts to zero and is a homogeneous solution
    for alpha in ((), (1,), (2,)):
        W = non_r0_witness(3, 2, alpha, seed=5)
        ray = np.array([0.0 if i + 1 in set(alpha) else 1.0 for i in range(2)])
        assert np.abs(contract(W, ray)).max() <= 1e-12
    W = non_r0_witness(3, 2, (1,), seed=5)
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = True
    assert np.all(W.array[~mask] == 0.0)
    assert W.array[0, 0, 0] != 0.0


def test_non_r0_witness_rejects_full_alpha():
    with pytest.raises(ValueError):
        non_r0_witness(3, 2, (1, 2), seed=0)
    with pytest.raises(ValueError):
        non_r0_witness(3, 2, (0,), seed=0)


def test_tensor_dict_round_trip_dense_and_sparse():
    A = random_gaussian(3, 2, 3)
    for fmt in ("dense", "sparse"):
        d = tensor_to_dict(A, fmt)
        text = json.dumps(d)  # must be JSON-serializable as-is
        back = tensor_from_dict(json.loads(text))
        assert back.order == A.order and back.dim == A.dim
        assert np.allclose(back.array, A.array)
    sparse = tensor_to_dict(_cube_example(), "sparse")
    assert len(sparse["entries"]) == 4  # only the nonzeros are stored


def test_tensor_from_dict_rejects_malformed_input():
    with pytest.raises(ValueError):
        tensor_from_dict({"m": 3, "format": "dense", "entries": [0.0] * 8})
    with pytest.raises(ValueError):
        tensor_from_dict({"m": 1, "n": 2, "format": "dense", "entries": [0.0] * 2})
    with pytest.raises(ValueError):
        tensor_from_dict({"m": 2, "n": 2, "format": "dense", "entries": [0.0] * 3})
    with pytest.raises(ValueError):
        tensor_from_dict({"m": 2, "n": 2, "format": "nope", "entries": []})
    dup = {
        "m": 2,
        "n": 2,
        "format": "sparse",
        "entries": [
            {"index": [1, 1], "value": 1.0},
            {"index": [1, 1], "value": 2.0},
        ],
    }
    with pytest.raises(ValueError):
        tensor_from_dict(dup)
    with pytest.raises(ValueError):
        tensor_to_dict(random_gaussian(2, 2, 0), "nope")
