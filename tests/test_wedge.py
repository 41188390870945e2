"""Exterior-power action and projective metric."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from pingpong.errors import ConfigError
from pingpong.matrices import IntMatrix, inverse
from pingpong.spectral import svd, svd_batch
from pingpong.wedge import (
    attractor_repeller,
    point_hyperplane_distance,
    proj_distance,
    subset_basis,
    unit,
    wedge_matrix,
)

PHI = (1 + math.sqrt(5)) / 2


def _random_int_matrix(rng, n, lo=-3, hi=3):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_wedge_k1_is_the_matrix():
    g = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert np.array_equal(wedge_matrix(g, 1), g.to_float())


def test_wedge_identity():
    for n, k in [(3, 2), (4, 2), (5, 3)]:
        w = wedge_matrix(IntMatrix.identity(n), k)
        assert np.array_equal(w, np.eye(math.comb(n, k)))


def test_wedge_minor_entries():
    # entries must be the 2x2 minors in lexicographic subset order
    g = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    w = wedge_matrix(g, 2)
    basis = subset_basis(3, 2)
    for i, s in enumerate(basis):
        for j, t in enumerate(basis):
            sub = [[g.entries[r][c] for c in t] for r in s]
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            assert w[i, j] == minor


def test_wedge_functorial():
    rng = random.Random(7)
    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        for _ in range(10):
            a, b = _random_int_matrix(rng, n), _random_int_matrix(rng, n)
            lhs = wedge_matrix(a @ b, k)
            rhs = wedge_matrix(a, k) @ wedge_matrix(b, k)
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


def test_wedge_singular_values_are_products():
    rng = random.Random(8)
    for _ in range(10):
        g = IntMatrix.identity(3)
        for _ in range(6):
            e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            i, j = rng.sample(range(3), 2)
            e[i][j] = rng.randint(-2, 2)
            g = g @ IntMatrix.from_rows(e)
        s = svd(g).sigma
        ws = svd_batch(wedge_matrix(g, 2)[None]).sigma[0]  # a stack of one
        expected = sorted(
            (s[i] * s[j] for i, j in itertools.combinations(range(3), 2)), reverse=True
        )
        assert np.allclose(ws, expected, rtol=1e-8)
        # top gap of the wedge action equals a_2/a_3 of g
        assert ws[0] / ws[1] == pytest.approx(s[1] / s[2], rel=1e-8)


def test_proj_distance_examples():
    v = unit([0.3, -1.2, 0.5])
    assert proj_distance(v, v) == pytest.approx(0.0, abs=1e-12)
    e1, e2 = unit([1, 0, 0]), unit([0, 1, 0])
    assert proj_distance(e1, e2) == pytest.approx(1.0)
    mid = unit([1, 1, 0])
    assert proj_distance(e1, mid) == pytest.approx(math.sin(math.pi / 4), rel=1e-12)
    with pytest.raises(ConfigError):
        unit([0.0, 0.0, 0.0])


def test_proj_distance_sign_invariant():
    v = unit([1, 2, -1, 0.5])
    w = unit([-1, -2, 1, -0.5])
    assert proj_distance(v, w) == pytest.approx(0.0, abs=1e-12)


def test_point_hyperplane_examples():
    h = unit([1, 0, 0])
    inside = unit([0, 2, 1])
    assert point_hyperplane_distance(inside, h) == pytest.approx(0.0, abs=1e-12)
    normal = unit([1, 0, 0])
    assert point_hyperplane_distance(normal, h) == pytest.approx(1.0)
    deg30 = unit([math.cos(math.radians(30)), math.sin(math.radians(30)), 0])
    assert point_hyperplane_distance(deg30, h) == pytest.approx(
        math.cos(math.radians(30)), rel=1e-12
    )


def test_orthogonal_action_is_isometric():
    rng = np.random.default_rng(9)
    for n, k in [(3, 1), (4, 2)]:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        wq = wedge_matrix(q, k)
        d = math.comb(n, k)
        for _ in range(20):
            a = unit(rng.normal(size=d))
            b = unit(rng.normal(size=d))
            img_a = unit(wq @ a)
            img_b = unit(wq @ b)
            assert proj_distance(img_a, img_b) == pytest.approx(
                proj_distance(a, b), abs=1e-10
            )


def test_attractor_repeller_diagonalish():
    # diag(2, 1, 1/2) is not integer; use a unimodular with k_g = k_g' = I
    # up to signs: an already-diagonal SL_2 surrogate via symmetric square
    g = IntMatrix.from_rows([[2, 1], [1, 1]])
    v, h = attractor_repeller(g, 1)
    top = np.array([PHI, 1.0])
    top /= np.linalg.norm(top)
    assert proj_distance(v, unit(top)) == pytest.approx(0.0, abs=1e-8)
    # symmetric matrix: repelling hyperplane normal is the same direction
    assert point_hyperplane_distance(v, h) == pytest.approx(1.0, abs=1e-8)


def test_attractor_of_inverse_lies_in_repelling_hyperplane():
    rng = random.Random(10)
    for n, k in [(2, 1), (3, 1)]:
        for _ in range(10):
            g = IntMatrix.identity(n)
            for _ in range(8):
                e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
                i, j = rng.sample(range(n), 2)
                e[i][j] = rng.randint(-2, 2)
                g = g @ IntMatrix.from_rows(e)
            if svd(g).sigma[0] < 1.5:
                continue
            _, h_g = attractor_repeller(g, k)
            v_inv, _ = attractor_repeller(inverse(g), k)
            assert point_hyperplane_distance(v_inv, h_g) == pytest.approx(0.0, abs=1e-7)


# (g, k, attractor, repeller normal, sha256 of wedge_matrix(g, k), sha256 of
# wedge_matrix(g / 7.0, k), inverse(g)), as produced by the wedge layer
# before points and hyperplanes became plain arrays and before inverse and
# the integer wedge action shared one exact minor; k = 2 and k = 3 reach
# the direct 2 x 2 and the determinant branches of both minors.  The
# attractors and normals of the n = 2, 4 and 6 cases were taken again when
# the Jacobi and unit-vector dot products became plain sequential sums: the
# old ones held the low bits of a fused multiply-add BLAS dot kernel.
PINNED_MINORS = [
    (
        [[2, -1], [-5, 3]],
        1,
        [0.3573727461303602, -0.9339618409352949],
        [0.8625025674352924, -0.5060526861578042],
        "c8adecb04b2830843c9e744722dfc92bcd1f9d1970091b0d63fc9eccfe8639aa",
        "00430d6124c50f604d283402e86ed14cb6a31b39cd77e4a708eab9427b8a9666",
        [[3, 1], [5, 2]],
    ),
    (
        [[1, 1, -2], [2, 4, -9], [-1, -2, 5]],
        1,
        [-0.2044788065920558, -0.8596439077714224, 0.46818881819856284],
        [-0.20461001092688205, -0.39172872157883776, 0.8970414439248114],
        "638da0ed854f1af7a36cb3e61602f0f9b1730c69e33265a82d1a7ca40aa9c8d8",
        "cce52b47e402c552dc553e518395c8aa7416ab35b3d2f4ebf1dee520acacecdf",
        [[2, -1, -1], [-1, 3, 5], [0, 1, 2]],
    ),
    (
        [[1, 8, -1, -2], [-2, 5, 0, -4], [-4, 0, 1, -4], [-2, -19, 2, 5]],
        2,
        [-0.21403437459829883, -0.3192986880341559, 0.027857113822087262, -0.20062315983210754,
         -0.48935540800331484, -0.7561370563041963],
        [-0.6641598831140971, 0.05513233045152266, 0.2473657684437413, -0.15958542277728455,
         0.6751727180951929, -0.11548396416834297],
        "47b7ee334215c839c5adcecc576eef04862e6769e480e78c0088d37a515bf0a0",
        "f6b7df4ccf4b967708690ffbb5819ebe47d44ea812ff8d1738a706a0e367b1f0",
        [[-11, 10, -7, -2], [2, -3, 2, 0], [-12, 4, -3, -4], [8, -9, 6, 1]],
    ),
    (
        [[-1, 0, 4, -2, 2], [-7, 5, 0, 2, 0], [-1, 0, 3, -2, 2], [-5, 2, 6, -3, 4],
         [-11, 4, 17, -9, 11]],
        2,
        [0.18636412093393037, 0.0011999003534349658, 0.08132648199078586, 0.15557811367790847,
         -0.15890201009882848, -0.3155332123419415, -0.8800184582555074, 0.06731088037079673,
         0.12698657023206505, -0.12061733345097368],
        [-0.13037513728581568, 0.5823474819570988, -0.4098099037836291, 0.36931928388987084,
         -0.4114426545328865, 0.254001386018611, -0.26283697192979066, 0.1587435115000537,
         0.008504245961240924, -0.10665825153008478],
        "8aa02c7d785135c3f03d7f014b87bbc71d5c84674bf4a5215a35632d80ac2f9f",
        "7ae62ee092b0ef8b86dd1018a0a8a52b07046fcdee60f23cc1146fe1dfe5339c",
        [[-1, 0, -2, -4, 2], [-1, 1, 2, -6, 2], [1, 0, -1, 0, 0], [-1, -2, -12, 1, 2],
         [-3, -2, -11, -1, 3]],
    ),
    (
        [[5, -5, 0, -1, 11, 0], [-8, 9, 0, 2, -19, 0], [2, -2, 1, 0, 0, 0],
         [-4, 4, 0, 1, -9, 0], [-32, 35, 0, 8, -74, 0], [2, -2, 0, 0, 0, 1]],
        3,
        [-0.005161569724371819, -9.939753028247141e-19, 4.486730174611134e-18,
         0.005161569724371759, 0.003235332379292417, 0.007359904945557851, 0.1410923182991094,
         4.229648793661615e-18, 0.0032353323792924083, 0.007359904945557655,
         -0.0013705663731528434, 0.02206986023216875, -0.2442314070488015, 3.058669232015146e-18,
         -0.001370566373152875, 0.022069860232168708, -0.015787943589872587, 0.11562246063949637,
         0.9515337286063247, 0.015787943589872712],
        [-0.019344867301194342, -2.7221220188540416e-17, 3.1525243458234637e-16,
         0.019344867301194283, 0.051420962016561114, -0.47687945682166966, 0.10283033607705863,
         1.6693537962670027e-16, 0.051420962016561066, -0.4768794568216699, -0.05135159361869869,
         0.4761558584830782, -0.11232231179922295, -1.668231365922798e-16, -0.05135159361869866,
         0.4761558584830786, 0.00021337746733929343, 0.02559953971388967, -0.23783756255636346,
         -0.00021337746733920968],
        "1959786d1214ae7f9cffa1c227313922a7868591c9c2eb8e243ab01a76c400b6",
        "aba69ec7e455333a60237e4cdcbba7b52d1dd14c2828ce6a79ef4d03749fd0f9",
        [[1, 4, 0, 1, -1, 0], [0, -2, 0, -4, 1, 0], [-2, -12, 1, -10, 4, 0],
         [4, -3, 0, 3, 1, 0], [0, -3, 0, -2, 1, 0], [-2, -12, 0, -10, 4, 1]],
    ),
]



@pytest.mark.parametrize(
    "rows, k, v, h, wedge_int, wedge_float, inv",
    PINNED_MINORS,
    ids=[f"n{len(case[0])}-k{case[1]}" for case in PINNED_MINORS],
)
def test_minors_and_attractors_bit_identical(rows, k, v, h, wedge_int, wedge_float, inv):
    g = IntMatrix.from_rows(rows)
    got_v, got_h = attractor_repeller(g, k)
    assert (got_v.tolist(), got_h.tolist()) == (v, h)
    digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()  # noqa: E731
    assert digest(wedge_matrix(g, k)) == wedge_int
    assert digest(wedge_matrix(g.to_float() / 7.0, k)) == wedge_float
    assert inverse(g) == IntMatrix.from_rows(inv)
