"""Haar density and Cartan-region quadrature."""

import math

import pytest

from pingpong.errors import ConfigError
from pingpong.haar import (
    CartanRegion,
    gap_fraction,
    haar_density,
    integrate_region,
    integrate_region_raw,
    integrate_region_with_error,
)


def closed_form_n2(log_x: float) -> float:
    return (math.cosh(2 * log_x) - 1) / 2


def test_density_examples():
    assert haar_density([0.0, 0.0]) == 0.0
    assert haar_density([0.7, -0.7]) == pytest.approx(math.sinh(1.4), rel=1e-14)
    # derived by direct evaluation: sinh(1)^2 sinh(2)
    assert haar_density([1.0, 0.0, -1.0]) == pytest.approx(
        math.sinh(1.0) ** 2 * math.sinh(2.0), rel=1e-14
    )
    assert haar_density([1.0, 0.0, -1.0]) == pytest.approx(5.009049095, rel=1e-9)


def test_density_zero_on_chamber_walls():
    assert haar_density([0.5, 0.5, -1.0]) == 0.0


@pytest.mark.parametrize("log_x", [1.0, 3.0, 5.0])
def test_n2_closed_form(log_x):
    v = integrate_region(CartanRegion(2, log_x), 512)
    assert v == pytest.approx(closed_form_n2(log_x), rel=1e-6)


def test_n2_symmetrized_same_region():
    # for n = 2 the symmetrized constraints coincide with the plain ones
    plain = integrate_region(CartanRegion(2, 3.0), 512)
    sym = integrate_region(CartanRegion(2, 3.0, symmetrized=True), 512)
    assert sym == pytest.approx(plain, rel=1e-12)


def test_n2_growth_rate():
    # integral grows like X^2 / 4
    for log_x in (5.0, 7.0):
        v = integrate_region(CartanRegion(2, log_x), 256)
        assert v / (math.exp(2 * log_x) / 4) == pytest.approx(1.0, abs=1e-3)


def test_estimated_error_is_honest():
    for region in (CartanRegion(2, 3.0), CartanRegion(3, 6.0, symmetrized=True)):
        value, err = integrate_region_with_error(region, 256)
        finer = integrate_region_raw(region, 1024)
        assert abs(value - finer) <= max(10 * err, 1e-9 * abs(finer))


def test_n3_plain_growth_rate():
    # plain region integral grows like X^(n^2 - n) = X^6
    r1 = integrate_region(CartanRegion(3, 8.0), 256)
    r2 = integrate_region(CartanRegion(3, 8.0 + math.log(2)), 256)
    assert r2 / r1 == pytest.approx(2**6, rel=0.01)


def test_n3_symmetrized_growth_rate():
    # derived by quadrature at increasing L: the symmetrized region grows
    # like X^4 (mass concentrates at (L, 0, -L) where the density is
    # e^(2 j1 - 2 j3) ~ X^4)
    for log_x in (8.0, 10.0, 12.0):
        v1 = integrate_region(CartanRegion(3, log_x, symmetrized=True), 256)
        v2 = integrate_region(CartanRegion(3, log_x + math.log(2), symmetrized=True), 256)
        assert v2 / v1 == pytest.approx(16.0, rel=0.01)


def test_gap_fraction_trivial_threshold():
    assert gap_fraction(CartanRegion(3, 5.0), [(1, 0.0)], 128) == pytest.approx(1.0)


def test_gap_fraction_monotone_in_threshold():
    fracs = [
        gap_fraction(CartanRegion(3, 8.0), [(1, t)], 256) for t in (0.0, 1.0, 2.0, 4.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(fracs, fracs[1:]))


def test_middle_gap_fraction_increases_with_log_x():
    eta = 5.0
    t = 2 * math.log(eta)
    gaps = [(1, t), (2, t)]
    fracs = [
        gap_fraction(CartanRegion(3, L, symmetrized=True), gaps, 256)
        for L in (4.0, 6.0, 9.0, 14.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] > 0.9


def test_plain_top_gap_fraction_derived_value():
    # quadrature-derived asymptote for n = 3, eta = 5:
    # 2 eta^-4 - eta^-8 (the signed exponential expansion of the sinh
    # product makes the true constant twice the single-term bound)
    eta = 5.0
    t = 2 * math.log(eta)
    frac = gap_fraction(CartanRegion(3, 14.0), [(1, t)], 512)
    assert frac == pytest.approx(2 * eta**-4 - eta**-8, rel=1e-3)


def test_n4_region_runs():
    v = integrate_region(CartanRegion(4, 2.0, symmetrized=True), 64)
    assert v > 0


# integrate_region_raw at 32 and 64 cells on regions with log_x = 3.0,
# keyed by (n, symmetrized, gap_constraints), as produced by the
# per-dimension integrators this nested one replaced; the nested sum
# must keep every bit of them
PINNED_RAW = [
    ((2, False, ((1, 0.75),)), (100.09817643496831, 100.18238489407665)),
    ((2, True, ((1, 0.75),)), (100.09817643496831, 100.18238489407665)),
    ((3, False, ((1, 0.75),)), (133312.6523255506, 134761.32436909946)),
    ((3, False, ((2, 1.0),)), (338523.39981243224, 340725.5920201973)),
    ((3, False, ((1, 0.25), (2, 0.5))), (285074.81905547145, 287754.73751787096)),
    ((3, True, ((1, 0.75),)), (4315.095088535367, 4322.19716265318)),
    ((3, True, ((2, 1.0),)), (4234.348153141791, 4239.308668664383)),
    ((3, True, ((1, 0.25), (2, 0.5))), (4362.87640960378, 4368.366236201449)),
    ((4, False, ((1, 0.75),)), (1891809243.8110754, 2003801188.744473)),
    ((4, False, ((2, 1.0),)), (14168964183.06485, 14190548419.20857)),
    ((4, False, ((3, 1.25),)), (46765975362.857315, 46819885324.45386)),
    ((4, False, ((1, 0.25), (2, 0.5), (3, 0.75))), (14785201286.226486, 15560874269.64159)),
    ((4, True, ((1, 0.75),)), (1937904.5030770698, 1950559.0072871053)),
    ((4, True, ((2, 1.0),)), (3273003.7252455093, 3278803.702640111)),
    ((4, True, ((3, 1.25),)), (893946.9700444839, 898732.6204334059)),
    ((4, True, ((1, 0.25), (2, 0.5), (3, 0.75))), (1888736.0528985516, 1892162.275625335)),
]


@pytest.mark.parametrize("key, values", PINNED_RAW)
def test_raw_integrals_bit_identical(key, values):
    n, sym, gaps = key
    region = CartanRegion(n, 3.0, sym, gaps)
    assert (integrate_region_raw(region, 32), integrate_region_raw(region, 64)) == values


def test_region_validation():
    with pytest.raises(ConfigError):
        CartanRegion(5, 3.0)
    with pytest.raises(ConfigError):
        CartanRegion(3, -1.0)
    with pytest.raises(ConfigError):
        CartanRegion(3, 3.0, gap_constraints=((3, 1.0),))
    with pytest.raises(ConfigError):
        integrate_region(CartanRegion(2, 1.0), 32)
