"""The eigensolver against closed-form roots and a cyclic Jacobi reference.

The closed-form oracles are independent of any iteration: 2x2 spectra come
from the quadratic formula and 3x3 spectra from the trigonometric solution
of the cubic characteristic polynomial. For larger matrices the reference
is a plain numpy cyclic Jacobi iteration, an algorithm independent of the
LAPACK routine the package calls.
"""
import math

import numpy as np
import pytest

from hfgdm._kernels import eigenvalues
from hfgdm.errors import NoConvergence

JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_reference(a):
    """Eigenvalues of symmetric a by cyclic Jacobi, ascending.

    Sweeps the strict upper triangle in cyclic order with symmetric Givens
    rotations until the off-diagonal Frobenius norm drops below
    JACOBI_OFF_TOL; fails the test if the sweep budget runs out.
    """
    work = np.array(a, dtype=np.float64, copy=True)
    n = work.shape[0]
    idx = np.arange(n)
    iu = np.triu_indices(n, 1)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off = math.sqrt(2.0 * float(np.sum(np.square(work[iu]))))
        if off < JACOBI_OFF_TOL:
            return np.sort(np.diag(work))
        if sweep == JACOBI_MAX_SWEEPS:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                work[p, p] -= t * apq
                work[q, q] += t * apq
                work[p, q] = work[q, p] = 0.0
                mask = (idx != p) & (idx != q)
                akp = work[mask, p].copy()
                akq = work[mask, q].copy()
                work[mask, p] = work[p, mask] = c * akp - s * akq
                work[mask, q] = work[q, mask] = s * akp + c * akq
    pytest.fail(f"Jacobi reference did not converge in {JACOBI_MAX_SWEEPS} "
                "sweeps")


def eigs_2x2(a):
    half_tr = (a[0, 0] + a[1, 1]) / 2.0
    radius = math.hypot((a[0, 0] - a[1, 1]) / 2.0, a[0, 1])
    return np.sort([half_tr + radius, half_tr - radius])[::-1]


def eigs_3x3(a):
    # Trigonometric roots of the cubic characteristic polynomial of a real
    # symmetric 3x3 matrix.
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = np.trace(a) / 3.0
    p2 = ((a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2
          + 2.0 * p1)
    p = math.sqrt(p2 / 6.0)
    if p < 1e-30:
        return np.full(3, q)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([e1, 3.0 * q - e1 - e3, e3])


def random_symmetric(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, (n, n))
    return (a + a.T) / 2.0


class TestClosedFormAgreement:
    def test_2x2_random(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            a = random_symmetric(rng, 2)
            got = eigenvalues(a)[::-1]
            assert np.allclose(got, eigs_2x2(a), atol=1e-9)

    def test_3x3_random(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            a = random_symmetric(rng, 3)
            got = eigenvalues(a)[::-1]
            assert np.allclose(got, np.sort(eigs_3x3(a))[::-1], atol=1e-9)

    def test_fixture_membership_quartic(self, m1):
        # The bundled first expert's membership matrix factors analytically:
        # eigenvalues are -0.4 (twice) and the roots of x^2 - 0.8x - 0.27.
        a = m1.values[:, :, 0]
        exact = np.sort([
            (0.8 + math.sqrt(1.72)) / 2.0,
            (0.8 - math.sqrt(1.72)) / 2.0,
            -0.4,
            -0.4,
        ])
        assert np.allclose(eigenvalues(a), exact, atol=1e-12)


class TestJacobiReference:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_library_matches_jacobi_reference(self, n):
        rng = np.random.default_rng(404 + n)
        for _ in range(3):
            a = random_symmetric(rng, n)
            assert np.allclose(eigenvalues(a), jacobi_reference(a),
                               rtol=0, atol=1e-12)

    def test_reference_on_bundled_laplacians(self, experts):
        # The matrices the library actually solves: every channel of every
        # bundled relation, as adjacency and as Laplacian.
        for h in experts:
            for k in range(3):
                a = h.values[:, :, k]
                lap = np.diag(a.sum(axis=1)) - a
                for m in (a, lap):
                    assert np.allclose(eigenvalues(m), jacobi_reference(m),
                                       rtol=0, atol=1e-12)


class TestKernelProperties:
    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(303)
        for n in (2, 3, 5, 8, 12):
            a = random_symmetric(rng, n)
            eig = eigenvalues(a)
            assert eig.sum() == pytest.approx(np.trace(a), abs=1e-9)
            assert (eig ** 2).sum() == pytest.approx((a ** 2).sum(),
                                                     abs=1e-9)

    def test_diagonal_matrix_fixed_point(self):
        d = np.diag([3.0, -1.0, 0.5])
        assert np.allclose(eigenvalues(d), [-1.0, 0.5, 3.0], atol=0)

    def test_tiny_inputs(self):
        assert eigenvalues(np.array([[4.2]])).tolist() == [4.2]
        assert eigenvalues(np.zeros((0, 0))).size == 0

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(505)
        stack = np.stack([random_symmetric(rng, 6) for _ in range(3)])
        got = eigenvalues(stack)
        assert got.shape == (3, 6)
        for k in range(3):
            assert np.allclose(got[k], eigenvalues(stack[k]), rtol=0,
                               atol=1e-14)

    def test_input_not_mutated(self):
        a = random_symmetric(np.random.default_rng(606), 5)
        before = a.copy()
        eigenvalues(a)
        assert np.array_equal(a, before)

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            eigenvalues(np.eye(2))
