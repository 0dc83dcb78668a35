"""Genus logarithms and the series-division construction of
tests/oracles.py against frozen values, classical identities and each
other, and the genus restriction's integer scale.

Run as a script, the differential test sweeps all four kinds at degrees
0..FULL_DEGREE against the oracle, and the restriction at its scale:

    PYTHONPATH=src python tests/test_series.py
"""

import time
from fractions import Fraction

import pytest

from oracles import (MultiPoly, bernoulli, divided_genus_series,
                     elementary_symmetric, exp_linear, product_over_facets,
                     reciprocal, series_log, series_mul)
from toricpick.errors import DimensionError, ShapeError
from toricpick.invariants import _exponential, _log_rows, _power_sums
from toricpick.series import GENUS_KINDS, genus_log

F = Fraction
FULL_DEGREE = 80

TODD = (F(1), F(1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240))
SIGHALF = (F(1), F(0), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240))
AHAT = (F(1), F(0), F(-1, 24), F(0), F(7, 5760), F(0), F(-31, 967680))
LSER = (F(1), F(0), F(1, 3), F(0), F(-1, 45), F(0), F(2, 945))


def test_genus_series_frozen_coefficients():
    assert divided_genus_series("Todd", 6) == TODD
    assert divided_genus_series("SignatureHalf", 6) == SIGHALF
    assert divided_genus_series("AHat", 6) == AHAT
    assert divided_genus_series("L", 6) == LSER


def test_genus_series_against_bernoulli_numbers():
    # closed forms to degree 16, with B_k from the Fraction recurrence:
    # Todd = sum_k B_k^+ x^k/k! (B_1^+ = +1/2); the other three are even,
    # with coefficient c_k B_k/k! at even k: x coth x has c_k = 2^k,
    # (x/2) coth(x/2) has c_k = 1 and (x/2)/sinh(x/2) has c_k = 2^(1-k) - 1
    assert bernoulli(4) == [1, F(-1, 2), F(1, 6), 0, F(-1, 30)]
    deg = 16
    b = bernoulli(deg)
    b[1] = -b[1]
    even = {
        "L": lambda k: 2 ** k * b[k],
        "SignatureHalf": lambda k: b[k],
        "AHat": lambda k: (F(2) ** (1 - k) - 1) * b[k],
    }
    assert divided_genus_series("Todd", deg) == tuple(b[k] / _fact(k) for k in range(deg + 1))
    for kind, closed in even.items():
        expected = tuple(F(0) if k % 2 else closed(k) / _fact(k) for k in range(deg + 1))
        assert divided_genus_series(kind, deg) == expected, kind


def sweep(max_degree):
    """genus_log against the log of the oracle's series for every kind at
    degrees 0..max_degree; returns the number of (kind, degree) pairs."""
    for kind in GENUS_KINDS:
        for deg in range(max_degree + 1):
            assert genus_log(kind, deg) == series_log(divided_genus_series(kind, deg)), (kind, deg)
    return len(GENUS_KINDS) * (max_degree + 1)


def integral_sweep(max_degree):
    """The restriction of every kind in degree 0..max_degree at one chart
    with the unit weight, untwisted, is the genus series itself: at the
    scale of _log_rows, n! den^n, each coefficient _exponential returns is
    an int equal to the scale times the oracle's.  Returns the number of
    (kind, degree) pairs."""
    for kind in GENUS_KINDS:
        for deg in range(max_degree + 1):
            rows = _log_rows(kind, deg)
            columns = _exponential(deg, rows, [0], _power_sums([[1]], [k for k, _ in rows[2]]))
            got = [x for x, in columns]
            assert all(type(x) is int for x in got), (kind, deg)
            assert got == [rows[0] * c for c in divided_genus_series(kind, deg)], (kind, deg)
    return len(GENUS_KINDS) * (max_degree + 1)


def test_genus_log_and_series_match_the_division_oracle():
    assert sweep(24) == 100


def test_the_restriction_scale_makes_every_coefficient_integral():
    assert integral_sweep(12) == 52


def test_genus_kind_validation():
    assert set(GENUS_KINDS) == {"Todd", "SignatureHalf", "AHat", "L"}
    for make in (genus_log, divided_genus_series):
        with pytest.raises(ShapeError, match="unknown genus kind 'Chi_y'"):
            make("Chi_y", 4)


def test_degree_and_constant_term_checks():
    for make in (genus_log, divided_genus_series):
        with pytest.raises(DimensionError, match="nonnegative"):
            make("L", -1)
    with pytest.raises(DimensionError, match="zero constant term"):
        reciprocal((F(0), F(1)))


def test_half_argument_relation():
    # the signature factor is the full L series with x halved
    lf = divided_genus_series("L", 8)
    sh = divided_genus_series("SignatureHalf", 8)
    assert all(lf[k] == sh[k] * 2 ** k for k in range(9))


def test_todd_factors_through_exponential():
    # x/(1 - e^-x) = e^(x/2) * (x/2)/sinh(x/2)
    deg = 8
    expo = tuple(F(1, 2) ** k / _fact(k) for k in range(deg + 1))
    todd = divided_genus_series("Todd", deg)
    assert series_mul(expo, divided_genus_series("AHat", deg)) == todd


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_reciprocal_round_trip():
    for kind in GENUS_KINDS:
        g = divided_genus_series(kind, 6)
        assert series_mul(g, reciprocal(g)) == (F(1),) + (F(0),) * 6


def test_log_needs_constant_term_one():
    for c0 in (F(0), F(2), F(-1), F(1, 2)):
        with pytest.raises(DimensionError, match="constant term %s, not 1" % c0):
            series_log((c0, F(1)))
    assert series_log((F(1),)) == (F(0),)


def _derivative(s):
    return tuple(k * c for k, c in enumerate(s))[1:]


def test_log_derivative_identity():
    # g' = g (log g)', truncated at the degree of g'
    for kind in GENUS_KINDS:
        for deg in range(11):
            g = divided_genus_series(kind, deg)
            lg = genus_log(kind, deg)
            assert lg[0] == 0, (kind, deg)
            assert _derivative(g) == series_mul(g, _derivative(lg)), (kind, deg)


def test_log_closed_forms_against_bernoulli_numbers():
    # log (x/2)/sinh(x/2) = -sum_k B_2k x^2k / (2k (2k)!), and
    # log Todd = x/2 + log AHat, as x/(1 - e^-x) = e^(x/2) (x/2)/sinh(x/2)
    deg = 10
    b = bernoulli(deg)
    log_ahat = tuple(F(0) if k % 2 or k == 0 else -b[k] / (k * _fact(k))
                     for k in range(deg + 1))
    assert genus_log("AHat", deg) == log_ahat
    assert genus_log("Todd", deg) == (F(0), F(1, 2)) + log_ahat[2:]


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
    prod = product_over_facets((F(1), F(1)), 2, 2)
    assert prod.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    with pytest.raises(ShapeError):
        product_over_facets((F(2),), 2, 2)


def test_exp_linear_degree_parts():
    # the degree-d part of exp(v_0 + v_1) is (v_0 + v_1)^d / d!
    e = exp_linear([1, 1], 3)
    assert e.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1,
                       (2, 0): F(1, 2), (1, 1): 1, (0, 2): F(1, 2),
                       (3, 0): F(1, 6), (2, 1): F(1, 2), (1, 2): F(1, 2), (0, 3): F(1, 6)}


if __name__ == "__main__":
    start = time.perf_counter()
    print("%d (kind, degree) pairs agree with the series-division oracle, %.1f s"
          % (sweep(FULL_DEGREE), time.perf_counter() - start))
    start = time.perf_counter()
    print("%d (kind, degree) restrictions are integral at their scale, %.1f s"
          % (integral_sweep(FULL_DEGREE), time.perf_counter() - start))
