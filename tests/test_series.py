"""Genus series coefficients against frozen values and classical identities."""

from fractions import Fraction

import pytest

from oracles import MultiPoly, elementary_symmetric, exp_linear, product_over_facets
from toricpick.errors import ShapeError
from toricpick.series import GENUS_KINDS, UniSeries, genus_series

F = Fraction

TODD = (F(1), F(1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240))
SIGHALF = (F(1), F(0), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240))
AHAT = (F(1), F(0), F(-1, 24), F(0), F(7, 5760), F(0), F(-31, 967680))
LSER = (F(1), F(0), F(1, 3), F(0), F(-1, 45), F(0), F(2, 945))


def test_genus_series_frozen_coefficients():
    assert genus_series("Todd", 6).coeffs == TODD
    assert genus_series("SignatureHalf", 6).coeffs == SIGHALF
    assert genus_series("AHat", 6).coeffs == AHAT
    assert genus_series("L", 6).coeffs == LSER


def test_genus_kind_validation():
    assert set(GENUS_KINDS) == {"Todd", "SignatureHalf", "AHat", "L"}
    with pytest.raises(ShapeError):
        genus_series("Chi_y", 4)


def test_half_argument_relation():
    # the signature factor is the full L series with x halved
    lf = genus_series("L", 8)
    sh = genus_series("SignatureHalf", 8)
    assert all(lf.c(k) == sh.c(k) * 2 ** k for k in range(9))


def test_todd_factors_through_exponential():
    # x/(1 - e^-x) = e^(x/2) * (x/2)/sinh(x/2)
    deg = 8
    expo = UniSeries(tuple(F(1, 2) ** k / _fact(k) for k in range(deg + 1)))
    todd = genus_series("Todd", deg)
    ahat = genus_series("AHat", deg)
    assert expo.mul(ahat).coeffs == todd.coeffs


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_reciprocal_round_trip():
    for kind in GENUS_KINDS:
        g = genus_series(kind, 6)
        prod = g.mul(g.reciprocal())
        assert prod.coeffs == (F(1),) + (F(0),) * 6


def test_uniseries_truncation_and_access():
    s = UniSeries((F(1), F(2), F(3)))
    assert s.degree == 2
    assert s.c(5) == 0


def test_multipoly_product_truncates():
    v0 = MultiPoly(2, 2, {(1, 0): 1})
    v0_plus_v1 = MultiPoly(2, 2, {(1, 0): 1, (0, 1): 1})
    prod = v0_plus_v1.mul(v0_plus_v1)
    assert prod.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    cube = prod.mul(v0)
    assert cube.terms == {}


def test_exp_linear_coefficients():
    e = exp_linear([2, -3], 2)
    assert e.terms == {(0, 0): 1, (1, 0): 2, (0, 1): -3,
                       (2, 0): 2, (1, 1): -6, (0, 2): F(9, 2)}


def test_elementary_symmetric_expansion():
    e2 = elementary_symmetric(2, 3, 3)
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary_symmetric(4, 3, 4).terms == {}
    e0 = elementary_symmetric(0, 2, 1)
    assert e0.terms == {(0, 0): 1}


def test_product_over_facets():
    g = UniSeries((F(1), F(1)))
    prod = product_over_facets(g, 2, 2)
    assert prod.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    with pytest.raises(ShapeError):
        product_over_facets(UniSeries((F(2),)), 2, 2)


def test_exp_linear_degree_parts():
    # the degree-d part of exp(v_0 + v_1) is (v_0 + v_1)^d / d!
    e = exp_linear([1, 1], 3)
    assert e.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1,
                       (2, 0): F(1, 2), (1, 1): 1, (0, 2): F(1, 2),
                       (3, 0): F(1, 6), (2, 1): F(1, 2), (1, 2): F(1, 2), (0, 3): F(1, 6)}
