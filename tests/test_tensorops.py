import math

import numpy as np
import pytest

from modiff.errors import DegenerateReferenceError, ShapeError
from modiff.rng import RngState
from modiff.tensorops import (
    load_tensor,
    matmul,
    operator_norm,
    relative_l2,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    value_range,
)


def _matmul_oracle(a, b):
    """Triple-loop product, no BLAS."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for q in range(k):
                acc += a[i, q] * b[q, j]
            out[i, j] = acc
    return out


def _jacobi_svd_norm(a, sweeps=60, tol=1e-14):
    """Largest singular value by one-sided Jacobi rotations on columns."""
    u = a.astype(np.float64).copy()
    n = u.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(u[:, p] @ u[:, p])
                beta = float(u[:, q] @ u[:, q])
                gamma = float(u[:, p] @ u[:, q])
                off = max(off, abs(gamma))
                if abs(gamma) <= tol * math.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                up = u[:, p].copy()
                u[:, p] = c * up - s * u[:, q]
                u[:, q] = s * up + c * u[:, q]
        if off < tol:
            break
    return float(np.sqrt(max(float(col @ col) for col in u.T)))


def test_matmul_matches_triple_loop_oracle():
    rng = RngState(seed=201)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert np.max(np.abs(matmul(a, b) - _matmul_oracle(a, b))) <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(np.zeros((3, 4)), np.zeros((5, 2)))
    assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)


def test_matmul_bilinearity():
    rng = RngState(seed=202)
    a, a2 = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    b = rng.normal(size=(6, 3))
    lhs = matmul(2.5 * a + a2, b)
    rhs = 2.5 * matmul(a, b) + matmul(a2, b)
    assert relative_l2(lhs, rhs) <= 1e-10


def test_relative_l2_unit_vectors():
    # ||(1,0) - (0,1)|| / ||(0,1)|| = sqrt(2)
    assert relative_l2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )


def test_relative_l2_zero_iff_equal():
    rng = RngState(seed=203)
    x = rng.normal(size=(4, 4))
    assert relative_l2(x, x.copy()) == 0.0
    y = x.copy()
    y[0, 0] = np.nextafter(y[0, 0], np.inf)
    assert relative_l2(x, y) > 0.0


def test_relative_l2_survives_an_overflowing_reference_norm():
    # ||y||^2 overflows; the drift is still about 1e150 / 1e160
    y = np.full((4, 2), 1e160)
    x = RngState(seed=204).normal(size=(4, 2)) * 1e300
    with np.errstate(over="ignore"):  # as in the sampler's callers, which check
        assert np.linalg.norm(y) == np.inf
        assert relative_l2(y + 1e150, y) == pytest.approx(1e-10, rel=1e-5)
        assert relative_l2(x, x.copy()) == 0.0


@pytest.mark.parametrize("shape", [(1,), (7,), (2, 2), (16, 2), (16, 64), (64, 16), (256, 64),
                                   (3, 5, 7), (120, 100)])
def test_relative_l2_equals_the_linalg_norm_formula_bit_for_bit(shape):
    # above 8,192 elements np.linalg.norm's one dot depends on the BLAS thread
    # count, so the norm is the dots of 8,192-element blocks summed left to
    # right, over the same memory-order view np.linalg.norm takes
    def norm(v):
        v = v.ravel(order="K")
        blocks = [v[i : i + 8192] for i in range(0, v.size, 8192)]
        return math.sqrt(sum(float(np.dot(b, b)) for b in blocks))

    def want(x, y):
        return norm(x - y) / norm(y)

    rng = RngState(seed=205)
    for _ in range(5):
        y = rng.normal(size=shape)
        x = y + 1e-3 * rng.normal(size=shape)
        assert relative_l2(x, y) == want(x, y)
        assert relative_l2(x.T, y.T) == want(x.T, y.T)  # not C-contiguous when ndim > 1
        if y.size <= 8192:
            assert want(x, y) == float(np.linalg.norm(x - y)) / float(np.linalg.norm(y))


def test_relative_l2_rejects_zero_reference():
    with pytest.raises(DegenerateReferenceError):
        relative_l2(np.ones(3), np.zeros(3))


def test_value_range():
    assert value_range(np.array([-1.5, 0.0, 2.5])) == 4.0
    assert value_range(np.full((3, 3), 7.0)) == 0.0


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((4, 3))) == 0.0


def test_operator_norm_matches_jacobi_oracle():
    rng = RngState(seed=204)
    # (24, 16) is the verify suites' layer shape
    for shape in ((6, 4), (24, 16), (64, 32)):
        w = rng.normal(size=shape)
        sigma_jacobi = _jacobi_svd_norm(w)
        # the oracle itself should agree with LAPACK before we trust it
        assert sigma_jacobi == pytest.approx(
            float(np.linalg.svd(w, compute_uv=False)[0]), rel=1e-12
        )
        assert operator_norm(w) == pytest.approx(sigma_jacobi, rel=1e-12), shape


def test_operator_norm_dominates_rayleigh_quotients():
    rng = RngState(seed=205)
    w = rng.normal(size=(8, 5))
    sigma = operator_norm(w)
    for _ in range(100):
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        assert sigma * (1.0 + 1e-8) >= float(np.linalg.norm(w @ v))


# --- MDTN format --------------------------------------------------------


def test_mdtn_round_trip_bitwise(tmp_path):
    rng = RngState(seed=207)
    x = rng.normal(size=(3, 5, 2))
    p = tmp_path / "x.mdtn"
    save_tensor(p, x)
    y = load_tensor(p)
    assert y.shape == x.shape
    assert np.array_equal(
        x.view(np.uint64), y.view(np.uint64)
    )  # bit-for-bit, not just approx


def test_mdtn_header_layout():
    buf = tensor_to_bytes(np.zeros((2, 3)))
    assert buf[:4] == b"MDTN"
    assert int.from_bytes(buf[4:8], "little") == 1  # version
    assert int.from_bytes(buf[8:12], "little") == 2  # rank
    assert int.from_bytes(buf[12:16], "little") == 2
    assert int.from_bytes(buf[16:20], "little") == 3
    assert len(buf) == 20 + 6 * 8


def test_mdtn_rejects_bad_magic_and_truncation():
    buf = tensor_to_bytes(np.ones(4))
    with pytest.raises(ValueError, match="magic"):
        tensor_from_bytes(b"XXXX" + buf[4:])
    with pytest.raises(ValueError):
        tensor_from_bytes(buf[:-8])
    with pytest.raises(ValueError, match="version"):
        tensor_from_bytes(buf[:4] + (99).to_bytes(4, "little") + buf[8:])
