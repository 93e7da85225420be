import cmath
import math
from fractions import Fraction as F

import pytest

from nonresultant.case31 import (
    Model31,
    i_d_loop,
    model_from_json,
    model_to_json,
    phi,
    phi_inverse,
    pi1_winding,
    r_d,
    r_tilde,
    r_tilde_exact,
    s1_act,
    s1_act_exact,
)
from nonresultant.exactalg import ExactPolynomial, GaussianRational
from nonresultant.mapdeg import WindingError
from nonresultant.nonres import FIELD_REAL, MembershipError, SystemTuple, is_member

from oracles import alternating_value_refined

z = ExactPolynomial.variable()

# r_tilde multiplies (f2 + i f3) over the ascending real roots of f1 with
# alternating exponents; this cubic model is the worked example used below:
# roots 0, 1, 2 get exponents +1, -1, +1 and (1 + iz) evaluates to
# 1, 1+i, 1+2i, so r_tilde = (1+2i)/(1+i) = (3+i)/2.
WORKED = Model31(z * (z - 1) * (z - 2), ExactPolynomial.one(), z)


# ---------------------------------------------------------------------------
# model coordinates
# ---------------------------------------------------------------------------


def test_phi_round_trip():
    t = SystemTuple((z * z + 1, z * z + z, z * z - 3), 1, FIELD_REAL)
    m = phi(t)
    assert m.f1 == z * z + 1
    assert m.f2 == z - 1
    assert phi_inverse(m) == t


def test_phi_requires_triple_shape():
    with pytest.raises(ValueError):
        phi(SystemTuple((z, z + 1), 1, FIELD_REAL))
    with pytest.raises(ValueError):
        phi(SystemTuple((z, z + 1, z * z + 1), 1, FIELD_REAL))


def test_model_validation():
    with pytest.raises(ValueError):
        Model31(z + 1, ExactPolynomial.one(), z)  # degree < 2
    with pytest.raises(ValueError):
        Model31(z * z + 1, z * z, z)  # sheared degree too big
    with pytest.raises(MembershipError):
        Model31(z * z - 1, z - 1, 2 * z - 2)  # shared root at 1


def test_model_json_round_trip():
    doc = model_to_json(WORKED)
    assert set(doc) == {"f1", "f2", "f3"}
    assert model_from_json(doc) == WORKED
    with pytest.raises(ValueError):
        model_from_json({"f1": ["0", "1"]})
    with pytest.raises(ValueError):
        model_from_json([["0", "1"]])


# ---------------------------------------------------------------------------
# the circle action
# ---------------------------------------------------------------------------


def test_s1_act_exact_pythagorean():
    m = Model31(z * z + 1, z, ExactPolynomial.one())
    out = s1_act_exact(F(3, 5), F(4, 5), m)
    # (f2, f3) rotates as a vector: (z*3/5 - 4/5, z*4/5 + 3/5)
    assert out.f2 == ExactPolynomial((F(-4, 5), F(3, 5)))
    assert out.f3 == ExactPolynomial((F(3, 5), F(4, 5)))
    assert out.f1 == m.f1


def test_s1_act_exact_rejects_off_circle():
    m = Model31(z * z + 1, z, ExactPolynomial.one())
    with pytest.raises(ValueError):
        s1_act_exact(F(1, 2), F(1, 2), m)


def test_s1_act_group_law():
    m = Model31(z * z + 2, z + 1, z - 1)
    a, b = 0.7, -1.3
    lhs = s1_act(a, s1_act(b, m))
    rhs = s1_act(a + b, m)
    for f_l, f_r in zip((lhs.f2, lhs.f3), (rhs.f2, rhs.f3)):
        for c_l, c_r in zip(f_l.coefficients, f_r.coefficients):
            assert abs(float(c_l - c_r)) < 1e-12


def test_s1_action_preserves_membership():
    t = phi_inverse(WORKED)
    assert is_member(t)
    rotated = phi_inverse(s1_act_exact(F(3, 5), F(4, 5), WORKED))
    assert is_member(rotated)


# ---------------------------------------------------------------------------
# the alternating invariant
# ---------------------------------------------------------------------------


def test_r_tilde_worked_example():
    value = r_tilde(WORKED)
    assert cmath.isclose(value, 1.5 + 0.5j, rel_tol=0, abs_tol=1e-12)
    exact = r_tilde_exact(WORKED)
    assert exact == GaussianRational(F(3, 2), F(1, 2))


def test_r_tilde_even_multiplicity_cancels():
    # the double root at 0 contributes nothing; only the root at 1 counts
    m = Model31(z * z * (z - 1), z + 2, ExactPolynomial.one())
    assert r_tilde_exact(m) == GaussianRational(F(3), F(1))


def test_r_tilde_requires_odd_degree():
    with pytest.raises(ValueError):
        r_tilde(Model31(z * z + 1, z, ExactPolynomial.one()))


def test_r_tilde_exact_none_for_irrational_roots():
    m = Model31(z**3 - 2, ExactPolynomial.one(), z)
    assert r_tilde_exact(m) is None
    # the numeric route still works: 1 + i * 2^(1/3)
    value = r_tilde(m)
    assert cmath.isclose(value, 1 + 1j * 2 ** (1 / 3), rel_tol=1e-10)


def test_r_tilde_resolves_roots_far_below_one():
    # roots +-sqrt(2)*eps lie far below any absolute width; evaluated at
    # their correctly rounded floats the value must match exact evaluation
    eps = F(1, 10**200)
    m = Model31((z - 1) * (z * z - 2 * eps * eps), z + eps, z - 3 * eps)
    expected = alternating_value_refined(m, F(1, 2**2000))
    assert cmath.isclose(expected, 2.0752014907484 - 0.6368950822490j, rel_tol=1e-12)
    assert cmath.isclose(r_tilde(m), expected, rel_tol=1e-12)


@pytest.mark.parametrize("far", [3 * 10**300, 2**1000], ids=["3e300", "2^1000"])
def test_r_tilde_beyond_the_float_range_raises(far):
    # the factor 1 + i*far^2 at the root -far has no float value: at
    # 3*10^300 it is infinite, at 2^1000 its conversion overflows
    m = Model31((z + far) * (z * z - 1), ExactPolynomial.one(), z * z)
    with pytest.raises(ValueError, match="beyond the float range"):
        r_tilde(m)
    with pytest.raises(ValueError, match="beyond the float range"):
        r_d(m)
    assert r_tilde_exact(m) == GaussianRational(F(1), F(far * far))


def test_r_d_is_unit():
    value = r_d(WORKED)
    assert abs(abs(value) - 1.0) < 1e-12
    assert cmath.isclose(value, (3 + 1j) / math.sqrt(10), rel_tol=0, abs_tol=1e-12)


def test_r_tilde_on_reference_loop():
    # the reference loop evaluates to exactly e^(i theta)
    for theta in (0.0, 0.9, 2.5, -1.2):
        value = r_tilde(i_d_loop(3, theta))
        assert cmath.isclose(value, cmath.exp(1j * theta), rel_tol=0, abs_tol=1e-12)


def test_i_d_loop_shape():
    m = i_d_loop(5, 0.0)
    assert m.f1 == z**5
    assert m.f2 == z + 1
    assert m.f3 == z
    with pytest.raises(ValueError):
        i_d_loop(1, 0.0)


# ---------------------------------------------------------------------------
# loop winding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 5])
def test_reference_loop_winds_once(d):
    assert pi1_winding(lambda theta: i_d_loop(d, theta)) == 1


def test_double_speed_loop_winds_twice():
    assert pi1_winding(lambda theta: i_d_loop(3, 2 * theta)) == 2


def test_constant_loop_winds_zero():
    assert pi1_winding(lambda theta: WORKED) == 0


def test_orbit_loops_generate():
    # the circle orbit of any member is freely homotopic to the generator
    for m in (WORKED, Model31(z**3 - 2, ExactPolynomial.one(), z)):
        assert pi1_winding(lambda theta: s1_act(theta, m)) == 1


def test_sampled_list_loop():
    samples = [i_d_loop(3, 2 * math.pi * k / 48) for k in range(48)]
    samples.append(samples[0])
    assert pi1_winding(samples) == 1


def test_sampled_list_loop_validation():
    samples = [i_d_loop(3, 0.1 * k) for k in range(4)]
    with pytest.raises(ValueError):
        pi1_winding(samples)  # endpoints differ
    with pytest.raises(ValueError):
        pi1_winding([WORKED, WORKED])  # too short
    quintic = i_d_loop(5, 0.0)
    with pytest.raises(ValueError, match="share"):
        pi1_winding([i_d_loop(3, 0.0), quintic, i_d_loop(3, 0.0)])


def test_sampled_loop_leaving_the_space_is_certified():
    # f1 = z^3 with constant (f2, f3) through (1, 1), (-2, -2), (-1, 1):
    # the first segment meets (0, 0) at u = 1/3, between the samples any
    # lift draws; the exact certificate ends the call before a lift runs
    one = ExactPolynomial.one()
    loop = [Model31(z**3, one * a, one * b) for a, b in [(1, 1), (-2, -2), (-1, 1), (1, 1)]]
    with pytest.raises(MembershipError, match=r"segment 0, .*\[1/3, 1/3\]"):
        pi1_winding(loop)


def test_callable_loop_through_zero_stops_at_the_float_resolution(time_limit):
    # the same loop as a callable: no segment is certified, and r_tilde =
    # f2 + i*f3 passes through 0 at theta = 2*pi/9, where the lift stalls
    one = ExactPolynomial.one()
    vertices = [(F(1), F(1)), (F(-2), F(-2)), (F(-1), F(1)), (F(1), F(1))]

    def loop(theta):
        s = 3 * theta / (2 * math.pi)
        i = min(int(s), 2)
        u = F(s - i)
        (a2, a3), (b2, b3) = vertices[i], vertices[i + 1]
        return Model31(z**3, one * (a2 + (b2 - a2) * u), one * (a3 + (b3 - a3) * u))

    with time_limit(5), pytest.raises(WindingError, match="too close to zero") as info:
        pi1_winding(loop)
    assert abs(info.value.diagnostics["parameter"] - 2 * math.pi / 9) < 1e-12
