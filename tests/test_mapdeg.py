import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonresultant.exactalg import ExactPolynomial, GaussianRational, NonConvergenceError
from nonresultant.mapdeg import (
    INFINITY,
    ProjectivePoint,
    eval_natural_map,
    map_degree,
    rp1_degree,
)
from nonresultant.nonres import (
    FIELD_COMPLEX,
    FIELD_REAL,
    MembershipError,
    SystemTuple,
    conjugate_tuple,
    is_member,
)

import oracles
from oracles import (
    WindingError,
    cauchy_index_real_line,
    map_degree_winding,
    rp1_degree_lift,
    winding_dense,
    winding_number,
)

z = ExactPolynomial.variable()


def circle_power(k):
    return lambda theta: np.exp(1j * k * np.asarray(theta))


# ---------------------------------------------------------------------------
# winding numbers: the adaptive lift that the oracles build on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
def test_winding_of_circle_powers(k):
    assert winding_number(circle_power(k)) == k


def test_winding_additivity_and_reversal():
    def f(theta):
        t = np.asarray(theta)
        return (np.exp(2j * t) + 0.3) * (np.exp(1j * t) - 0.2j)

    def reversed_f(theta):
        return f(2 * math.pi - np.asarray(theta))

    w = winding_number(f)
    assert w == winding_dense(lambda t: complex(f(t)))
    assert winding_number(reversed_f) == -w


def test_winding_translation_invariance_away_from_zero():
    # a loop not enclosing the origin has winding zero
    assert winding_number(lambda t: np.exp(1j * np.asarray(t)) + 4.0) == 0


def test_winding_rejects_zero_crossing(time_limit):
    # this loop passes through 0 at theta = pi; the lift splits the turning
    # segment down to adjacent floats around pi and stops there
    with time_limit(5), pytest.raises(WindingError, match="too close to zero") as info:
        winding_number(lambda t: 1 + np.exp(1j * np.asarray(t)))
    assert isinstance(info.value, NonConvergenceError)
    diag = info.value.diagnostics
    assert abs(diag["parameter"] - math.pi) < 1e-12
    assert 65 < diag["samples"] < 200
    assert math.pi / 2 <= diag["worst_step"] <= math.pi


def test_winding_rejects_a_sample_at_zero():
    with pytest.raises(WindingError, match="through zero") as info:
        winding_number(lambda t: np.asarray(t) - math.pi)
    diag = info.value.diagnostics
    assert diag["parameter"] == math.pi and diag["samples"] == 65 and math.isnan(diag["worst_step"])


def test_winding_stops_at_the_sample_ceiling(monkeypatch):
    # e^{40 i theta} turns by more than pi/2 between the first samples
    monkeypatch.setattr(oracles, "_MAX_SAMPLES", 64)
    with pytest.raises(WindingError, match="64 samples") as info:
        winding_number(circle_power(40))
    assert info.value.diagnostics["samples"] == 65
    assert info.value.diagnostics["worst_step"] >= math.pi / 2


@pytest.mark.parametrize(
    "fn, expected",
    [
        (lambda t: np.exp(1j * np.asarray(t)) + 1 - 1e-12, 1),
        (lambda t: np.exp(1j * np.asarray(t)) + 1 + 1e-12, 0),
        (lambda t: np.exp(2j * np.asarray(t)) - (1 - 1e-9) * np.exp(1j * np.asarray(t)), 2),
    ],
    ids=["inside", "outside", "double"],
)
def test_winding_resolves_loops_near_zero(fn, expected):
    assert winding_number(fn) == expected


@given(st.integers(min_value=-4, max_value=4), st.fractions(min_value=-1, max_value=1, max_denominator=8))
@settings(max_examples=30, deadline=None)
def test_winding_random_center(k, offset):
    # |offset| < 1 keeps the image of e^{ik t} + offset away from zero
    c = float(offset) * 0.9
    fn = lambda theta: np.exp(1j * k * np.asarray(theta)) + c
    assert winding_number(fn) == (k if abs(c) < 1 else 0)


# ---------------------------------------------------------------------------
# the point map
# ---------------------------------------------------------------------------


def test_eval_natural_map_values():
    t = SystemTuple((z, z + 1), 1, FIELD_REAL)
    p = eval_natural_map(t, F(2))
    assert p.coords == (2 + 0j, 3 + 0j)
    assert eval_natural_map(t, INFINITY).coords == (1 + 0j, 1 + 0j)


def test_eval_natural_map_flags_common_roots():
    t = SystemTuple((z * (z - 1), z * (z + 1)), 1, FIELD_REAL)
    with pytest.raises(MembershipError):
        eval_natural_map(t, 0)
    # away from the common root the map is defined
    assert eval_natural_map(t, 1).coords == (0j, 2 + 0j)


def test_eval_natural_map_small_values_at_an_exact_point_are_not_a_common_root():
    # every coordinate is below 1e-13, but (z, z - 10^-14) is a member and
    # the exact values at 0 are not all zero
    t = SystemTuple((z, z - F(1, 10**14)), 1, FIELD_REAL)
    assert is_member(t)
    assert eval_natural_map(t, F(0)).coords == (0j, complex(-1e-14))


def test_eval_natural_map_below_the_float_range_is_scaled_not_a_common_root():
    # the values at 0 are -10^-400 and -2*10^-400, both below the float range
    t = SystemTuple((z - F(1, 10**400), z - F(2, 10**400)), 1, FIELD_REAL)
    assert is_member(t)
    assert eval_natural_map(t, F(0)).proportional_to(ProjectivePoint((1, 2)))


def test_eval_natural_map_beyond_the_float_range_is_scaled():
    # the values at 10^400 are 10^400 and 10^400 - 1, beyond the float range
    t = SystemTuple((z, z - 1), 1, FIELD_REAL)
    assert eval_natural_map(t, F(10**400)).proportional_to(ProjectivePoint((1, 1)))
    far = GaussianRational(F(0), F(10**400))
    assert eval_natural_map(t, far).proportional_to(ProjectivePoint((1, 1)))


def test_eval_natural_map_equivariance():
    rng = random.Random(3)
    for _ in range(25):
        polys = []
        for _ in range(2):
            coeffs = [
                GaussianRational(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                for _ in range(3)
            ] + [F(1)]
            polys.append(ExactPolynomial(tuple(coeffs)))
        t = SystemTuple(tuple(polys), 1, FIELD_COMPLEX)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            lhs = eval_natural_map(conjugate_tuple(t), alpha.conjugate())
            rhs = eval_natural_map(t, alpha).conjugate()
        except MembershipError:
            continue
        assert lhs.proportional_to(rhs, rel_tol=1e-10)


def test_proportional_to():
    p = ProjectivePoint((1 + 1j, 2))
    assert p.proportional_to(ProjectivePoint((3 + 3j, 6)))
    assert not p.proportional_to(ProjectivePoint((1 + 1j, 2.1)))
    with pytest.raises(MembershipError):
        ProjectivePoint((0, 0))


# ---------------------------------------------------------------------------
# degree of the point map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "polys,n",
    [
        ((z * z + 1, z * z + 2), 1),
        (((z - 1) * (z - 2) * z, z * z * z + 5), 1),
        (((z - 1) * (z + 1),), 2),
        ((z**4 + z + 1,), 3),
    ],
)
def test_map_degree_is_common_degree(polys, n):
    t = SystemTuple(polys, n, FIELD_REAL)
    assert is_member(t)
    rng = random.Random(17)
    lam1 = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(t.m * t.n)]
    lam2 = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(t.m * t.n)]
    d = t.polys[0].degree
    assert map_degree(t, lam1) == d == map_degree_winding(t, lam1)
    assert map_degree(t, lam2) == d == map_degree_winding(t, lam2)


def test_map_degree_of_a_non_member():
    # the shared double root at 1 is a removable point of the map: the jet
    # components f and f + f' share the factor z - 1, leaving degree 4 - 1
    t = SystemTuple(((z - 1) ** 2 * (z - 2) * (z - 3),), 2, FIELD_REAL)
    assert not is_member(t)
    assert map_degree(t, [1.0, 2j]) == 3


def test_map_degree_rejects_bad_lambda():
    t = SystemTuple((z * z + 1, z * z + 2), 1, FIELD_REAL)
    with pytest.raises(ValueError):
        map_degree(t, [1.0])  # wrong length
    with pytest.raises(ValueError):
        map_degree(t, [1.0, -1.0])  # leading terms cancel


def test_map_degree_needs_equal_degrees():
    t = SystemTuple((z, z * z + 1), 1, FIELD_REAL)
    with pytest.raises(ValueError):
        map_degree(t, [1.0, 1.0])


# ---------------------------------------------------------------------------
# the real pair map on RP^1
# ---------------------------------------------------------------------------


def test_rp1_degree_frozen_examples():
    assert rp1_degree(z, z + 1) == 1
    assert rp1_degree(z, z - 1) == -1
    # interlaced quadratics wind the full circle backwards
    f = (z - 0) * (z - 2)
    g = (z - 1) * (z - 3)
    assert rp1_degree(f, g) == -2
    # a member pair with a root 10**-20 from the other entry's: three poles
    # of f2/f1, each jumping from +inf to -inf
    f1 = (z - 1) * (z - 2) * (z - 3)
    f2 = (z - 1 - F(1, 10**20)) * (z - F(5, 2)) * (z - 4)
    assert rp1_degree(f1, f2) == -3


@pytest.mark.parametrize(
    "f,g",
    [
        ((z * z + 1) * (z - 1), (z * z + 1) * (z - 2)),
        ((z - 5) * (z - 1), (z - 5) * (z - 2)),
        (z * z + 3, z * z + 3),
    ],
)
def test_rp1_degree_rejects_common_roots(f, g):
    with pytest.raises(MembershipError):
        rp1_degree(f, g)


def test_rp1_degree_antisymmetry_under_swap():
    f = (z - 0) * (z - 2)
    g = (z - 1) * (z - 3)
    assert rp1_degree(g, f) == -rp1_degree(f, g)


def test_rp1_degree_matches_cauchy_index():
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        d = rng.randint(1, 4)
        f = ExactPolynomial.from_roots([F(rng.randint(-6, 6)) for _ in range(d)])
        g = ExactPolynomial.from_roots([F(rng.randint(-6, 6)) for _ in range(d)])
        t_try = SystemTuple((f, g), 1, FIELD_REAL)
        if not is_member(t_try):
            continue
        assert rp1_degree(f, g) == cauchy_index_real_line(g, f) == rp1_degree_lift(f, g)
        checked += 1


def test_rp1_degree_parity_and_bound():
    rng = random.Random(9)
    for _ in range(30):
        d = rng.randint(1, 5)
        f = ExactPolynomial.from_roots([F(rng.randint(-8, 8), 2) for _ in range(d)])
        g = ExactPolynomial.from_roots([F(rng.randint(-8, 8), 2) for _ in range(d)])
        if not is_member(SystemTuple((f, g), 1, FIELD_REAL)):
            continue
        j = rp1_degree(f, g)
        assert abs(j) <= d
        assert (j - d) % 2 == 0
