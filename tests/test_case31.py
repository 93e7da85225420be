import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from nonresultant import case31
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
from nonresultant.exactalg import ExactPolynomial, GaussianRational, RealRoot, poly_from_json
from nonresultant.nonres import FIELD_REAL, InputError, MembershipError, SystemTuple, is_member

from oracles import alternating_value_refined, pi1_dense_lift

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
    with pytest.raises(ValueError, match="^model entries must be real$"):
        Model31(z * z + 1, z + GaussianRational(F(0), F(1)), z)


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


def closed(models):
    models = list(models)
    return models + models[:1]


def sampled(fn, n=16):
    """The closed loop of fn's values at theta = 2*pi*k/n."""
    return closed(fn(2 * math.pi * k / n) for k in range(n))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_reference_loop_winds_once(d):
    assert pi1_winding(sampled(lambda theta: i_d_loop(d, theta))) == 1


def test_double_speed_loop_winds_twice():
    assert pi1_winding(sampled(lambda theta: i_d_loop(3, 2 * theta))) == 2


def test_constant_loop_winds_zero():
    assert pi1_winding([WORKED, WORKED, WORKED]) == 0


def test_orbit_loops_generate():
    # the circle orbit of any member is freely homotopic to the generator
    for m in (WORKED, Model31(z**3 - 2, ExactPolynomial.one(), z)):
        assert pi1_winding(sampled(lambda theta: s1_act(theta, m))) == 1


def test_sampled_list_loop():
    samples = [i_d_loop(3, 2 * math.pi * k / 48) for k in range(48)]
    samples.append(samples[0])
    assert pi1_winding(samples) == 1


def test_sampled_list_loop_validation():
    samples = [i_d_loop(3, 0.1 * k) for k in range(4)]
    with pytest.raises(InputError, match="^a sampled loop must close up: first != last$"):
        pi1_winding(samples)
    with pytest.raises(InputError, match="^a sampled loop needs at least three entries$"):
        pi1_winding([WORKED, WORKED])
    quintic = i_d_loop(5, 0.0)
    with pytest.raises(InputError, match="^the models of a sampled loop must share one degree$"):
        pi1_winding([i_d_loop(3, 0.0), quintic, i_d_loop(3, 0.0)])


def test_sampled_loop_leaving_the_space_is_certified():
    # f1 = z^3 with constant (f2, f3) through (1, 1), (-2, -2), (-1, 1):
    # the first segment meets (0, 0) at u = 1/3; the exact certificate ends
    # the call before any crossing is counted
    one = ExactPolynomial.one()
    loop = [Model31(z**3, one * a, one * b) for a, b in [(1, 1), (-2, -2), (-1, 1), (1, 1)]]
    with pytest.raises(MembershipError, match=r"segment 0, .*\[1/3, 1/3\]"):
        pi1_winding(loop)


# a loop of constant f1 = (z + 5)(z - 2/3)(z - 3) that the adaptive float
# lift (`oracles.winding_number`, 65 first samples over its 9 segments) reads
# as class 1: its per-root windings are 0, -1 and +1 at the roots -5, 2/3
# and 3, whose exponents are +1, -1 and +1, so the class is 2
OFF_BY_ONE_F1 = ["10", "-49/3", "4/3", "1"]
OFF_BY_ONE_VERTICES = [
    (["-1", "-1/2"], ["-4/3", "1/3"]),
    (["5/4", "8"], ["-4/3", "4/3"]),
    (["-3", "-7/3"], ["-1", "8"]),
    (["1/2", "-5/3"], ["7", "3"]),
    (["1/2", "1"], ["1", "-8"]),
    (["4", "-5/3"], ["-7/3", "2/3"]),
    (["-3", "-3"], ["-7/4", "-5/4"]),
    (["5/2", "3"], ["-1/2", "9"]),
    (["-7/4", "-3/4"], ["-2", "-7/4"]),
]


def off_by_one_loop():
    f1 = poly_from_json(OFF_BY_ONE_F1)
    return closed(Model31(f1, poly_from_json(a), poly_from_json(b)) for a, b in OFF_BY_ONE_VERTICES)


def test_loop_a_coarse_lift_read_as_one_has_class_two():
    loop = off_by_one_loop()
    assert pi1_winding(loop) == 2
    assert pi1_dense_lift(loop) == 2


def test_pi1_needs_neither_r_tilde_nor_floats(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact count evaluated a float")

    monkeypatch.setattr(case31, "r_tilde", refuse)
    monkeypatch.setattr(RealRoot, "float_value", refuse)
    assert pi1_winding(off_by_one_loop()) == 2
    assert pi1_winding(sampled(lambda theta: i_d_loop(5, theta))) == 1


def test_pi1_needs_odd_degree():
    quartic = Model31(z**4 + 1, z, ExactPolynomial.one())
    with pytest.raises(ValueError, match="odd degree"):
        pi1_winding([quartic, s1_act_exact(F(3, 5), F(4, 5), quartic), quartic])


def test_a_ray_that_meets_the_loop_tangentially_is_replaced():
    # f1's real root runs from 1 to -1 along the first segment, where
    # f2 + i f3 = 1 + i x^3 at it: the ray t = 0 touches that curve at x = 0
    # with an inflection, a triple root of Q whose derivative has no sign.
    # f2 > 0 throughout keeps every factor of r_tilde off the negative axis.
    one = ExactPolynomial.one()
    pair = (z * z + 1) * (z * z + 4)
    a = Model31((z - 1) * pair, one, z**3)
    b = Model31((z + 1) * pair, one, z**3)
    c = Model31((z + 1) * pair, 2 * one, z)
    with pytest.raises(case31._DegenerateRay):
        case31._ray_crossings(a, b, *case31._odd_parts(a.f1, b.f1), 0)
    assert pi1_winding([a, b, c, a]) == pi1_dense_lift([a, b, c, a]) == 0


def test_a_ray_along_a_segment_is_replaced(monkeypatch):
    # f1 = z^3 - z with constant (f2, f3): the first segment, (1, 0) -> (2, 0),
    # runs along the ray t = 0, the positive real axis, so the component S
    # across it vanishes at both ends and Q = h_b S_a - h_a S_b is zero
    one = ExactPolynomial.one()
    vertices = [(1, 0), (2, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    loop = [Model31(z**3 - z, one * a, one * b) for a, b in vertices]
    with pytest.raises(case31._DegenerateRay):
        case31._ray_crossings(*loop[:2], *case31._odd_parts(z**3 - z, z**3 - z), 0)
    rays = []
    count = case31._ray_crossings

    def spy(*segment_and_ray):
        rays.append(segment_and_ray[-1])
        return count(*segment_and_ray)

    monkeypatch.setattr(case31, "_ray_crossings", spy)
    assert pi1_winding(loop) == pi1_dense_lift(loop) == 1
    # t = 0 is given up at its first segment, and the class comes from a later ray
    assert rays[0] == 0 and 0 not in rays[1:]


# ---------------------------------------------------------------------------
# the crossing count against a dense lift
# ---------------------------------------------------------------------------

LOOP_KINDS = ["constant", "moving", "double", "triple", "vanishing", "steady"]


def _rational(rng, top=9, den=4):
    return F(rng.randint(-top, top), rng.randint(1, den))


def _entry(rng, degree):
    return ExactPolynomial(tuple(_rational(rng) for _ in range(degree + 1)))


def random_loop(kind: str, seed: int) -> list:
    """A closed loop of 3-7 models of degree 3 or 5.

    constant: one f1 for the whole loop; moving: a fresh f1 at every vertex,
    some with a complex pair; double, triple: a root xi of f1 of that
    multiplicity at every vertex, the other roots moving; vanishing: f3
    vanishes at a simple root of f1 at the first vertex, so the ray t = 0
    meets the loop there; steady: a simple root xi of f1 at every vertex,
    with f2 + i f3 equal at xi on consecutive vertices, so it is constant
    along those segments."""
    rng = random.Random(seed)
    d = rng.choice((3, 5))
    persistent = {"double": 2, "triple": 3, "steady": 1}.get(kind, 0)
    xi = _rational(rng, 3, 2)

    def draw_f1():
        roots = [xi] * persistent + [_rational(rng, 5, 3) for _ in range(d - persistent)]
        if d - persistent >= 2 and rng.random() < 0.3:
            pair = z * z + _rational(rng, 3, 2) * z + 3
            return ExactPolynomial.from_roots(roots[:-2]) * pair
        return ExactPolynomial.from_roots(roots)

    f1 = draw_f1()
    if kind == "vanishing":
        roots = [xi + k for k in range(d)]
        f1 = ExactPolynomial.from_roots(roots)
    size = rng.randint(3, 7)
    models = []
    while len(models) < size:
        if models and kind != "constant" and (kind == "moving" or rng.random() < 0.5):
            f1 = draw_f1()
        f2, f3 = _entry(rng, d - 2), _entry(rng, d - 2)
        if kind == "vanishing" and not models:
            f3 = (z - xi) * _entry(rng, d - 3)
        if kind == "steady" and models:
            f2 = models[-1].f2 + (z - xi) * _entry(rng, d - 3)
            f3 = models[-1].f3 + (z - xi) * _entry(rng, d - 3)
        try:
            models.append(Model31(f1, f2, f3))
        except MembershipError:
            pass
    return closed(models)


@pytest.mark.parametrize("kind", LOOP_KINDS)
def test_random_loop_kinds_have_their_features(kind):
    loop = random_loop(kind, 3)
    ones = [m.f1 for m in loop]
    if kind in ("constant", "moving"):
        assert (len(set(ones)) == 1) == (kind == "constant")
    common = ones[0]
    for f in ones:
        common = case31.gcd_exact(common, f)
    if kind in ("double", "triple"):
        assert [mult for _, mult in case31.squarefree_decomposition(common)] == [{"double": 2, "triple": 3}[kind]]
    if kind == "vanishing":
        segment = (loop[0], loop[1], *case31._odd_parts(loop[0].f1, loop[1].f1))
        with pytest.raises(case31._DegenerateRay):
            case31._ray_crossings(*segment, 0)
    if kind == "steady":
        (xi,) = [r.rational_value() for r in case31.real_roots_exact(common)]
        assert any(a.f2(xi) == b.f2(xi) and a.f3(xi) == b.f3(xi) for a, b in zip(loop, loop[1:]))


@given(st.sampled_from(LOOP_KINDS), st.integers(min_value=0, max_value=2**32))
# time_limit is a stateless factory, so sharing it between examples is safe
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example("constant", 1)
@example("moving", 2)
@example("double", 3)
@example("triple", 4)
@example("vanishing", 5)
@example("steady", 6)
@example("triple", 431)  # a step of the lift turns by 2*pi - 0.265
def test_crossing_count_matches_a_dense_lift(time_limit, kind, seed):
    loop = random_loop(kind, seed)
    with time_limit(10):
        try:
            count = pi1_winding(loop)
        except MembershipError:
            reject()
    with time_limit(60):
        assert count == pi1_dense_lift(loop)
