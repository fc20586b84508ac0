import numpy as np
import pytest

from tcplab import (
    FaceMask,
    KktPoint,
    TcpInstance,
    Tensor,
    builtin_example,
    contract,
    enumerate_faces,
    face_of,
    face_system,
    kkt_residual,
    max_residual,
    random_gaussian,
    residual,
    with_rhs,
)
from tcplab.model import ZERO_ROW_TOL, FaceStore
from tcplab.tensors import contract_rows, jacobian_rows, slot_sum


def _random_instance(rng, m=None, n=None):
    m = m or int(rng.integers(2, 5))
    n = n or int(rng.integers(2, 4))
    A = random_gaussian(m, n, rng)
    return TcpInstance(A, rng.normal(size=n))


def test_instance_validation_and_json_round_trip():
    A = random_gaussian(3, 2, 0)
    with pytest.raises(ValueError):
        TcpInstance(A, [1.0, 2.0, 3.0])
    inst = TcpInstance(A, [1.0, -2.0])
    back = TcpInstance.from_json(inst.to_json())
    assert np.allclose(back.tensor.array, inst.tensor.array)
    assert np.allclose(back.a, inst.a)
    with pytest.raises(ValueError):
        TcpInstance.from_json({"tensor": inst.to_json()["tensor"]})


def test_residual_split_on_hand_cases():
    inst = builtin_example("ex1")  # F(x) = a - (x1^2 + x2^2) * (1, 1), a = (2, 1)
    assert residual(inst, [0.0, 1.0]) == (0.0, 0.0, 0.0)
    assert max_residual(inst, [0.0, 1.0]) == 0.0
    feas_x, feas_F, comp = residual(inst, [1.0, 1.0])
    assert feas_x == 0.0
    assert feas_F == pytest.approx(1.0)  # F_2 = 1 - 2 = -1
    assert comp == pytest.approx(1.0)
    feas_x, _, _ = residual(inst, [-0.5, 1.0])
    assert feas_x == pytest.approx(0.5)


def test_origin_solves_whenever_rhs_is_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        inst = _random_instance(rng)
        inst = with_rhs(inst, np.abs(inst.a))
        assert max_residual(inst, np.zeros(inst.n)) == 0.0


def test_enumerate_faces_is_ascending_and_complete():
    faces = enumerate_faces(3)
    assert [f.mask for f in faces] == list(range(8))
    assert faces[0].zero_indices == ()
    assert faces[-1].free_indices == ()
    with pytest.raises(ValueError):
        enumerate_faces(0)


def test_face_mask_index_conventions():
    face = FaceMask.from_indices(3, [2])
    assert face.mask == 0b010
    assert face.zero_indices == (1,)
    assert face.free_indices == (0, 2)
    assert list(face) == [2]  # members iterate 1-based
    assert 2 in face and 1 not in face and 4 not in face
    assert len(face) == 1
    assert face.to_json() == [2]
    with pytest.raises(ValueError):
        FaceMask.from_indices(2, [3])
    with pytest.raises(ValueError):
        FaceMask(2, 4)


def test_face_of_pins_small_coordinates():
    face = face_of([0.5, 0.0], 1e-8)
    assert face.zero_indices == (1,)
    assert face_of([0.0, 0.0], 1e-8).mask == 0b11
    with pytest.raises(ValueError):
        face_of([-1.0, 0.0], 1e-8)


def test_face_partition_covers_positive_orthant():
    # every nonnegative point lands on exactly one face, and the face
    # agrees with its strict-positivity pattern
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.integers(2, 5))
        x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 2.0, size=n))
        face = face_of(x, 1e-12)
        assert set(face.zero_indices) == {i for i in range(n) if x[i] == 0.0}


def test_face_system_reduces_to_free_rows():
    rng = np.random.default_rng(21)
    for _ in range(200):
        inst = _random_instance(rng)
        face = FaceMask(inst.n, int(rng.integers(0, 2**inst.n)))
        fs = face_system(inst, face)
        z = rng.uniform(0.0, 2.0, size=fs.k)
        x = fs.embed(z)
        assert np.all(x[list(face.zero_indices)] == 0.0)
        want = inst.F(x)[list(face.free_indices)]
        got = fs.residual_vec(z)
        assert got.shape == (fs.k,)
        if fs.k:
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_face_system_jacobian_matches_finite_differences():
    rng = np.random.default_rng(27)
    for _ in range(60):
        inst = _random_instance(rng)
        face = FaceMask(inst.n, int(rng.integers(0, 2**inst.n - 1)))
        fs = face_system(inst, face)
        z = rng.uniform(0.2, 1.5, size=fs.k)
        J = fs.jacobian(z)
        h = 1e-6
        for j in range(fs.k):
            e = np.zeros(fs.k)
            e[j] = h
            fd = (fs.residual_vec(z + e) - fs.residual_vec(z - e)) / (2 * h)
            assert np.abs(J[:, j] - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())
        # a stack of rows (S, k) gives one residual and one Jacobian per row
        Z = np.vstack([z, rng.uniform(0.2, 1.5, size=(2, fs.k))])
        R, JS = fs.residual_vec(Z), fs.jacobian(Z)
        assert R.shape == (3, fs.k) and JS.shape == (3, fs.k, fs.k)
        assert np.array_equal(R[0], fs.residual_vec(z)) and np.array_equal(JS[0], J)
        for j in range(fs.k):
            E = np.zeros(fs.k)
            E[j] = h
            FD = (fs.residual_vec(Z + E) - fs.residual_vec(Z - E)) / (2 * h)
            assert np.abs(JS[:, :, j] - FD).max() <= 1e-4 * max(1.0, np.abs(FD).max())


def test_face_system_hand_case_single_free_coordinate():
    # pinning x1 leaves one equation 1 - x2^2 = 0 with root x2 = 1,
    # and the pinned row keeps slack F_1(0, 1) = 1
    inst = builtin_example("ex1")
    fs = face_system(inst, FaceMask.from_indices(2, [1]))
    assert fs.k == 1
    assert fs.zero_rows == () and fs.infeasible_rows == ()
    assert fs.residual_vec([1.0]) == pytest.approx([0.0])
    assert np.allclose(fs.jacobian([1.0]), [[-2.0]])
    assert fs.pinned_slack(fs.embed([1.0])) == pytest.approx(1.0)
    assert max_residual(inst, fs.embed([1.0])) == pytest.approx(0.0)


def test_face_system_flags_zero_and_infeasible_rows():
    zero = Tensor.zeros(3, 2)
    fs = face_system(TcpInstance(zero, [0.0, 1.0]), FaceMask.from_indices(2, [2]))
    assert fs.zero_rows == (0,)
    fs = face_system(TcpInstance(zero, [1.0, 0.0]), FaceMask.from_indices(2, [2]))
    assert fs.infeasible_rows == (0,)
    assert fs.zero_rows == ()
    full = face_system(TcpInstance(zero, [1.0, 0.0]), FaceMask.from_indices(2, [1, 2]))
    assert full.k == 0
    # slack at the origin is min over the pinned rows of F(0) = a
    assert full.pinned_slack(np.zeros(2)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        face_system(TcpInstance(zero, [0.0, 0.0]), FaceMask.from_indices(3, [1]))


def _same_bits(u, v) -> bool:
    u, v = np.asarray(u), np.asarray(v)
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def _tiny_row_tensor():
    # F_2 = 1e-15 * x2^2 is a row below ZERO_ROW_TOL on every face that frees x2
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 1.0
    arr[1, 1, 1] = 1e-15
    return Tensor(arr)


def _store_cases():
    rng = np.random.default_rng(31)
    cases = [(f"gaussian ({m},{n})", [TcpInstance(random_gaussian(m, n, rng), rng.normal(size=n)) for _ in range(2)])
             for m, n in ((2, 4), (3, 4), (4, 3), (5, 3))]
    # a = 0 makes the tiny row a zero row, a_2 = 1 an infeasible one
    cases.append(("tiny row", [TcpInstance(_tiny_row_tensor(), a) for a in ([0.0, 0.0], [0.0, 1.0])]))
    return cases


@pytest.mark.parametrize("name, insts", _store_cases(), ids=[name for name, _ in _store_cases()])
def test_face_store_equals_a_per_face_reference_gather(name, insts):
    # every face of both instances, one store per face size with the faces
    # of the two instances interleaved: each face's block, slot sum, a_free
    # and row flags equal, bit for bit, the reference gather of that face
    # alone, with the rows below ZERO_ROW_TOL set to zero; the one-face view
    # face_system(inst, face) holds the same arrays and flags
    n, m = insts[0].n, insts[0].m
    flags = 0
    for k in range(n + 1):
        faces = [face for face in enumerate_faces(n) for _ in insts if n - len(face) == k]
        which = [j for face in enumerate_faces(n) for j in range(len(insts)) if n - len(face) == k]
        store = FaceStore(insts, which, faces)
        assert store.k == k and store.blocks.shape == (len(faces),) + (k,) * m
        for f, (j, face) in enumerate(zip(which, faces)):
            inst, free = insts[j], list(face.free_indices)
            block = inst.tensor.array[np.ix_(*[free] * m)] if k else np.zeros((0,) * m)
            a_free = inst.a[free]
            vanishing = np.max(np.abs(block.reshape(k, k ** (m - 1))), axis=1, initial=0.0) < ZERO_ROW_TOL
            a_zero = np.abs(a_free) < ZERO_ROW_TOL
            block[vanishing] = 0.0
            a_free[vanishing & a_zero] = 0.0
            want = (block, slot_sum(block), a_free, vanishing & a_zero, vanishing & ~a_zero)
            got = (store.blocks[f], store.slots[f], store.a_free[f], store.zero_rows[f], store.infeasible_rows[f])
            assert all(_same_bits(u, v) for u, v in zip(got, want)), (face, j)
            fs = face_system(inst, face)
            assert all(_same_bits(u, v) for u, v in zip((fs.block, fs.slots, fs.a_free), want)), (face, j)
            assert fs.zero_rows == tuple(np.flatnonzero(want[3])) and fs.k == k
            assert fs.infeasible_rows == tuple(np.flatnonzero(want[4]))
            flags += int(vanishing.any())
    assert (flags > 0) == (name == "tiny row")


@pytest.mark.filterwarnings("error")
def test_complex_points_raise_instead_of_losing_their_imaginary_part():
    # with every warning an error, a ComplexWarning from a float cast would
    # fail this test: the kernels must refuse complex points themselves
    inst = TcpInstance(Tensor(np.ones((2, 2, 2))), [1, 1])
    fs = face_system(inst, FaceMask(2, 0))
    store = FaceStore([inst], [0], [FaceMask(2, 0)])
    z = np.array([1j, 1.0])
    for call in (fs.residual_vec, fs.jacobian, fs.embed, lambda z: store.embed(0, z),
                 lambda z: contract_rows(inst.tensor.array, z), lambda z: jacobian_rows(fs.slots, z[None])):
        with pytest.raises(ValueError, match="complex"):
            call(z)


def test_kkt_point_validation():
    with pytest.raises(ValueError):
        KktPoint([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        KktPoint([np.nan, 0.0], [0.0, 0.0])
    pt = KktPoint([1.0, 0.0], [0.0, 2.0])
    inst = TcpInstance(random_gaussian(3, 3, 0), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        kkt_residual(inst, pt)


def test_kkt_residual_with_natural_multiplier_equals_solution_residual():
    # choosing lam = F(x) makes stationarity exact, so the KKT violation
    # is the same number as the solution residual
    rng = np.random.default_rng(33)
    for _ in range(500):
        inst = _random_instance(rng)
        x = np.abs(rng.normal(size=inst.n))
        point = KktPoint(x, inst.F(x))
        assert kkt_residual(inst, point) == pytest.approx(max_residual(inst, x), abs=1e-15)


def test_exact_kkt_points_are_solutions():
    # backward construction: pick x >= 0 and a complementary lam >= 0, then
    # choose the rhs so that F(x) = lam exactly
    rng = np.random.default_rng(37)
    for _ in range(500):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        A = random_gaussian(m, n, rng)
        x = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.1, 2.0, size=n))
        lam = np.where(x > 0.0, 0.0, np.abs(rng.normal(size=n)))
        a = lam - contract(A, x)
        inst = TcpInstance(A, a)
        assert kkt_residual(inst, KktPoint(x, lam)) <= 1e-12
        assert max_residual(inst, x) <= 1e-12 * (1.0 + float(np.abs(x).sum()))


def test_residuals_of_a_stack_equal_per_row_calls():
    # residual, max_residual and pinned_slack take one point or a stack of
    # rows; each row of a stack must give the per-point value to the bit, and
    # the per-point value must be the scalar formula it replaced (the builtin
    # max, so the sign of a zero part is +0.0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        inst = _random_instance(rng, m=int(rng.integers(2, 5)), n=int(rng.integers(2, 5)))
        X = rng.uniform(-0.5, 2.0, size=(64, inst.n))
        X[::3, 0] = 0.0
        X[1::4] = np.abs(X[1::4])
        X[2::5, -1] = -0.0
        parts = residual(inst, X)
        worst = max_residual(inst, X)
        assert all(p.shape == (64,) for p in parts) and worst.shape == (64,)
        for s, x in enumerate(X):
            one = residual(inst, x)
            Fx = contract(inst.tensor, x) + inst.a
            old = (max(0.0, float(-np.min(x))), max(0.0, float(-np.min(Fx))), abs(float(x @ Fx)))
            assert [float(p).hex() for p in one] == [p.hex() for p in old]
            assert [float(p[s]).hex() for p in parts] == [p.hex() for p in old]
            assert max_residual(inst, x).hex() == max(old).hex() == float(worst[s]).hex()
        for face in enumerate_faces(inst.n):
            fs = face_system(inst, face)
            slack = fs.pinned_slack(X)
            assert slack.shape == (64,)
            assert np.array_equal(slack, [fs.pinned_slack(x) for x in X])
            assert np.array_equal(slack, fs.pinned_slack(X, inst.F(X)))
    with pytest.raises(ValueError):
        residual(inst, np.full((2, inst.n), np.nan))
    with pytest.raises(ValueError):
        max_residual(inst, np.zeros((2, inst.n + 1)))


def test_overflowing_residual_counts_as_infinite():
    # F(x) = (1e300 (x1^2 - x2^2), 1) is inf - inf = NaN in its first entry
    # at x = (1e10, 1e10); a NaN part must read as +inf, not as an exact
    # solution, for one point and for the row of a stack
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0], arr[0, 1, 1] = 1e300, -1e300
    inst = TcpInstance(Tensor(arr), [0.0, 1.0])
    x = np.array([1e10, 1e10])
    X = np.vstack([x, [1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(inst.F(x)[0])
        assert residual(inst, x) == (0.0, np.inf, np.inf)
        assert max_residual(inst, x) == np.inf
        parts = residual(inst, X)
        assert [p.tolist() for p in parts] == [[0.0, 0.0], [np.inf, 0.0], [np.inf, 1.0]]
        assert max_residual(inst, X).tolist() == [np.inf, 1.0]
