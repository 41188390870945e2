"""Jacobi SVD, spectral norms, and singular gaps."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pingpong import spectral
from pingpong.errors import ConfigError, ConvergenceError
from pingpong.matrices import IntMatrix, inverse
from pingpong.sampler import BallSpec, enumerate_ball
from pingpong.spectral import singular_gap, svd, svd_batch

PHI = (1 + math.sqrt(5)) / 2

H = IntMatrix.from_rows([[2, 1], [1, 1]])
SHEAR2 = IntMatrix.from_rows([[1, 2], [0, 1]])
SHEAR4 = IntMatrix.from_rows([[1, 4], [0, 1]])


def spectral_norm(m):
    """Largest singular value of an integer or float matrix, from a Jacobi stack of one."""
    a = m.to_float() if isinstance(m, IntMatrix) else np.asarray(m, dtype=float)
    return float(svd_batch(a[None]).sigma[0, 0])


def _random_sl(rng, n, steps=12):
    # random product of elementary matrices stays in SL_n(Z)
    m = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        e[i][j] = rng.randint(-2, 2)
        m = m @ IntMatrix.from_rows(e)
    return m


def test_identity_svd():
    t = svd(IntMatrix.identity(3))
    assert t.sigma == pytest.approx((1.0, 1.0, 1.0))
    assert t.residual <= 1e-15


def test_svd_fibonacci_matrix():
    # eigenvalues of g^t g = [[5,3],[3,2]] are roots of L^2 - 7L + 1
    t = svd(H)
    assert t.sigma[0] == pytest.approx(PHI**2, rel=1e-12)
    assert t.sigma[1] == pytest.approx(PHI**-2, rel=1e-12)


def test_svd_shear():
    # g^t g = [[1,4],[4,17]]: sigma1^2 = 9 + 4 sqrt(5)
    t = svd(SHEAR4)
    assert t.sigma[0] ** 2 == pytest.approx(9 + 4 * math.sqrt(5), rel=1e-12)


def test_svd_requires_unimodular():
    with pytest.raises(ConfigError):
        svd(IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_svd_reconstruction_and_orthogonality():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(20):
            g = _random_sl(rng, n)
            t = svd(g)
            a = g.to_float()
            recon = t.k_g @ np.diag(t.sigma) @ t.k_g_prime
            assert np.max(np.abs(recon - a)) <= t.residual
            for k in (t.k_g, t.k_g_prime):
                assert np.max(np.abs(k.T @ k - np.eye(n))) <= 1e-12
            assert math.prod(t.sigma) == pytest.approx(1.0, abs=1e-8)
            assert all(t.sigma[i] >= t.sigma[i + 1] > 0 for i in range(n - 1))


def test_svd_deterministic():
    t1, t2 = svd(H), svd(H)
    assert t1.sigma == t2.sigma
    assert np.array_equal(t1.k_g, t2.k_g)


def test_spectral_norm_examples():
    assert spectral_norm(IntMatrix.identity(4)) == pytest.approx(1.0)
    assert spectral_norm(IntMatrix.from_rows([[0, -1], [1, 0]])) == pytest.approx(1.0)
    assert spectral_norm(SHEAR2) == pytest.approx(1 + math.sqrt(2), rel=1e-12)


def test_spectral_norm_of_transpose():
    rng = random.Random(4)
    for _ in range(20):
        g = _random_sl(rng, 3)
        assert spectral_norm(g) == pytest.approx(spectral_norm(g.transpose()), rel=1e-9)


def test_entry_bound():
    rng = random.Random(5)
    for _ in range(30):
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        if all(x == 0 for row in m.entries for x in row):
            continue
        max_abs = max(abs(x) for row in m.entries for x in row)
        assert max_abs <= spectral_norm(m) * (1 + 1e-12)


def test_singular_gap_examples():
    assert singular_gap(IntMatrix.identity(2), 1) == pytest.approx(1.0)
    assert singular_gap(H, 1) == pytest.approx(PHI**4, rel=1e-12)
    assert singular_gap(SHEAR2, 1) == pytest.approx(3 + 2 * math.sqrt(2), rel=1e-12)


def test_singular_gap_position_validation():
    with pytest.raises(ConfigError):
        singular_gap(H, 2)


def test_gap_inverse_symmetry():
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(20):
            g = _random_sl(rng, n)
            for k in range(1, n):
                assert singular_gap(g, k) == pytest.approx(
                    singular_gap(inverse(g), n - k), rel=1e-8
                )


def _sweeps(a, monkeypatch):
    """Sweeps the Jacobi takes on float matrix a alone: the fewest it converges in."""
    for cap in range(1, 65):
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", cap)
        try:
            svd_batch(a[None])
        except ConvergenceError:
            continue
        monkeypatch.undo()
        return cap
    raise AssertionError("no convergence within 64 sweeps")


def _bits(t):
    return t.k_g.tobytes(), np.array(t.sigma).tobytes(), t.k_g_prime.tobytes()


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def test_batch_matches_single(monkeypatch):
    # per n: matrices done after one sweep (identity, signed permutation),
    # ball members needing more, and a near-degenerate float matrix with
    # sigma_1 / sigma_2 = 1 + 1e-12
    near = _rotation(0.3) @ np.diag([1 + 1e-12, 1.0]) @ _rotation(1.1)
    stacks = {
        2: [IntMatrix.identity(2), IntMatrix.from_rows([[0, -1], [1, 0]]), near],
        3: [
            IntMatrix.identity(3),
            IntMatrix.from_rows([[0, 0, 1], [-1, 0, 0], [0, -1, 0]]),
            np.pad(near, (0, 1)) + np.diag([0, 0, 1.0]),
        ],
    }
    for n, x, step in ((2, 60, 401), (3, Fraction(5, 2), 97)):
        e = enumerate_ball(BallSpec(n, x))
        rows = e.take(np.arange(e.count))[::step].tolist()
        stacks[n] += [IntMatrix.from_rows(g) for g in rows]
    for n, mats in stacks.items():
        a = np.array([m.to_float() if isinstance(m, IntMatrix) else m for m in mats])
        batch = svd_batch(a)
        sweeps = []
        for i, m in enumerate(mats):
            alone = svd(m) if isinstance(m, IntMatrix) else svd_batch(a[i : i + 1])[0]
            assert _bits(batch[i]) == _bits(alone), (n, i)
            sweeps.append(_sweeps(a[i], monkeypatch))
        assert sweeps[:2] == [1, 1]
        assert any(3 <= s <= 5 for s in sweeps[3:])
    with pytest.raises(ConvergenceError):
        svd_batch(np.array([np.eye(2), np.zeros((2, 2))]))
    with pytest.raises(ConvergenceError):
        spectral_norm(np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        svd(IntMatrix.from_rows([[1, 2], [3, 4]]))
