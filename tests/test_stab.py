import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nonresultant.case12 import component_of_12
from nonresultant.case31 import Model31, i_d_loop, phi_inverse, pi1_winding
from nonresultant.exactalg import ExactPolynomial, poly_from_json, real_roots_exact
from nonresultant import stab
from nonresultant.nonres import (
    FIELD_REAL,
    MembershipError,
    SystemTuple,
    is_member,
    max_common_multiplicity,
)
from nonresultant.stab import (
    loop_T,
    recommended_T,
    stabilize_31,
    stabilize_31_model,
    stabilize_multiplicity,
    stabilize_with_report,
)

z = ExactPolynomial.variable()


def linear_triple():
    return SystemTuple((z, z + 1, z + 2), 1, FIELD_REAL)


# ---------------------------------------------------------------------------
# the triple map
# ---------------------------------------------------------------------------


def test_stabilize_31_formula():
    out = stabilize_31(linear_triple(), 10)
    shifted = (z - 10) * z
    assert out.polys == (shifted, shifted + 1, shifted + 2)
    assert out.degrees == (2, 2, 2)
    assert is_member(out)


def test_stabilize_31_keeps_differences():
    t = SystemTuple((z * z + 1, z * z + z, z * z - 3), 1, FIELD_REAL)
    out = stabilize_31(t, recommended_T(t))
    assert out.polys[1] - out.polys[0] == t.polys[1] - t.polys[0]
    assert out.polys[2] - out.polys[0] == t.polys[2] - t.polys[0]


def test_stabilize_31_rejects_small_T():
    t = SystemTuple((z * z - 100, z * z + z, z * z + 1), 1, FIELD_REAL)
    with pytest.raises(ValueError):
        stabilize_31(t, 3)


def test_stabilize_31_rejects_non_member():
    t = SystemTuple((z * (z - 1), z * (z + 1), z * (z + 5)), 1, FIELD_REAL)
    with pytest.raises(ValueError):
        stabilize_31(t, 100)  # all three vanish at 0


def test_stabilize_31_rejects_float_T():
    with pytest.raises(TypeError):
        stabilize_31(linear_triple(), 10.0)
    stabilize_31(linear_triple(), F(21, 2))  # exact rationals are fine


def test_stabilize_31_model_only_touches_f1():
    m = Model31(z * z + 1, z, ExactPolynomial.one())
    out = stabilize_31_model(m, 50)
    assert out.f1 == (z - 50) * (z * z + 1)
    assert out.f2 == m.f2
    assert out.f3 == m.f3


def test_stabilized_generator_loop_still_winds_once():
    # push the reference loop up two degrees (3 -> 5, where the alternating
    # invariant is defined again); the image is a loop of members in the
    # same class
    samples = []
    for k in range(64):
        m = stabilize_31_model(i_d_loop(3, 2 * math.pi * k / 64), F(9))
        samples.append(stabilize_31_model(m, F(25)))
    samples.append(samples[0])
    assert pi1_winding(samples) == 1


# ---------------------------------------------------------------------------
# a stabilization T that is safe along a whole loop
# ---------------------------------------------------------------------------


def stabilized_twice(loop, pick_T):
    for _ in range(2):
        T = pick_T(loop)
        loop = [stabilize_31_model(m, T) for m in loop]
    return loop


def largest_vertex_T(loop):
    return max(recommended_T(phi_inverse(m)) for m in loop)


def closed_loop(f1, vertices):
    models = [Model31(f1, poly_from_json(a), poly_from_json(b)) for a, b in vertices]
    return models + models[:1]


# f1 = (z - 1)(z + 1)(z - 2) throughout; the leading coefficients of f2 and
# f3 change sign along the segments, and the cross polynomial of the last
# segment has a root near 18.46, beyond every vertex's recommended_T (12)
POINTWISE_REGRESSION = closed_loop(
    poly_from_json(["2", "-1", "-2", "1"]),
    [
        (["-7/4", "-2"], ["5", "-1/2"]),
        (["6", "7/3"], ["0", "4"]),
        (["-7/4", "-5/2"], ["3", "5/2"]),
        (["-8/3", "5"], ["-5/2", "2/3"]),
    ],
)


def test_loop_T_keeps_a_class_that_the_pointwise_T_changes():
    loop = POINTWISE_REGRESSION
    assert pi1_winding(loop) == 0
    assert pi1_winding(stabilized_twice(loop, largest_vertex_T)) == -1
    image = stabilized_twice(loop, loop_T)
    assert image[0].degree == 5
    assert pi1_winding(image) == 0


def test_loop_T_clears_the_vertices_and_the_cross_polynomials():
    loop = POINTWISE_REGRESSION
    T = loop_T(loop)
    assert T >= largest_vertex_T(loop)
    for a, b in zip(loop, loop[1:]):
        cross = a.f2 * b.f3 - a.f3 * b.f2
        assert all(r.refine(F(1)).hi < T for r in real_roots_exact(cross))
    # with only constant cross polynomials the vertex bound is the answer
    one = ExactPolynomial.one()
    square = [Model31(z**3, one * a, one * b) for a, b in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]]
    assert loop_T(square) == largest_vertex_T(square)


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
def test_loop_T_keeps_every_class_of_the_reference_loops(k, d):
    # every class of degree d + 2 is the image of a loop of degree d
    loop = [i_d_loop(d, 2 * math.pi * k * j / 16) for j in range(16)]
    loop.append(loop[0])
    assert pi1_winding(loop) == k
    assert pi1_winding(stabilized_twice(loop, loop_T)) == k


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=15, deadline=None)
def test_loop_T_keeps_the_class_of_random_loops(seed):
    rng = random.Random(seed)
    d = rng.choice((3, 5))

    def rational(top):
        return F(rng.randint(-top, top), rng.randint(1, 4))

    f1 = ExactPolynomial.from_roots([rational(5) for _ in range(d)])
    size = rng.randint(3, 6)
    loop = []
    while len(loop) < size:
        entries = [ExactPolynomial(tuple(rational(9) for _ in range(d - 1))) for _ in range(2)]
        try:
            loop.append(Model31(f1, *entries))
        except MembershipError:
            pass
    loop.append(loop[0])
    try:
        before = pi1_winding(loop)
    except MembershipError:  # a segment leaves the space
        reject()
    assert pi1_winding(stabilized_twice(loop, loop_T)) == before


# ---------------------------------------------------------------------------
# the common-factor map
# ---------------------------------------------------------------------------


def test_stabilize_multiplicity_formula():
    t = SystemTuple(((z - 1) * (z + 1),), 2, FIELD_REAL)
    out = stabilize_multiplicity(t, 7)
    assert out.polys[0] == (z - 7) * (z - 1) * (z + 1)
    assert max_common_multiplicity(out) == 1  # the new shared root is simple
    assert is_member(out)


def test_stabilize_multiplicity_rejects_n1():
    with pytest.raises(ValueError):
        stabilize_multiplicity(linear_triple(), 100)


def test_stabilize_multiplicity_pair():
    t = SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL)
    out = stabilize_multiplicity(t, recommended_T(t))
    assert max_common_multiplicity(out) == 1
    assert is_member(out)


@pytest.mark.parametrize(
    "stabilize, t",
    [
        (stabilize_31, linear_triple()),
        (stabilize_multiplicity, SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL)),
    ],
)
def test_stabilization_checks_its_output_membership(monkeypatch, stabilize, t):
    # the post-condition is a raise, not an assert, so it runs under python -O
    # as well; an output judged a non-member must surface as MembershipError
    degree = t.degrees[0]
    monkeypatch.setattr(stab, "is_member", lambda s: s.degrees[0] == degree)
    with pytest.raises(MembershipError, match="stabilization broke membership"):
        stabilize(t, recommended_T(t))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_triple():
    report = stabilize_with_report(linear_triple())
    assert report.case == "31"
    assert report.member_in and report.member_out
    assert report.input_label is None
    assert report.output.degrees == (2, 2, 2)
    assert report.T_used == recommended_T(linear_triple())


def test_report_single_polynomial_tracks_label():
    f = (z - 1) * (z * z + 1)
    t = SystemTuple((f,), 2, FIELD_REAL)
    report = stabilize_with_report(t)
    assert report.case == "12"
    assert report.input_label == 1
    assert report.output_label == 2
    assert component_of_12(report.output.polys[0]) == 2


def test_report_multiplicity_fallback():
    t = SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL)
    report = stabilize_with_report(t)
    assert report.case == "mult"
    assert report.input_label is None and report.output_label is None


def test_report_json_round_trips_through_membership():
    report = stabilize_with_report(linear_triple(), T=F(15))
    doc = report.to_json()
    assert doc["T"] == "15"
    assert doc["case"] == "31"
    out = SystemTuple.from_json(doc["output"])
    assert is_member(out)
    assert out == report.output


@pytest.mark.parametrize(
    "t, calls",
    [
        (linear_triple(), 2),
        (SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL), 2),
        (SystemTuple(((z - 1) * (z * z + 1),), 2, FIELD_REAL), 0),
    ],
)
def test_report_decides_membership_once_per_tuple(monkeypatch, t, calls):
    # the constructions' own checks decide membership of the input and of
    # the output; case '12' reads it from the squarefree check of its labels
    seen = []

    def counted(s):
        seen.append(s)
        return is_member(s)

    monkeypatch.setattr(stab, "is_member", counted)
    report = stabilize_with_report(t)
    assert report.member_in and report.member_out
    assert seen == [t, report.output][: calls]


def test_report_refuses_inputs_outside_the_space():
    # a report is never returned with member_in or member_out False
    with pytest.raises(ValueError, match="common root"):
        stabilize_with_report(SystemTuple((z, z * (z + 1), z * (z + 2)), 1, FIELD_REAL))
    with pytest.raises(ValueError, match="repeated root"):
        stabilize_with_report(SystemTuple(((z - 1) ** 2 * (z + 1),), 2, FIELD_REAL))
    with pytest.raises(ValueError, match="multiplicity bound"):
        stabilize_with_report(SystemTuple(((z - 1) ** 3, (z - 1) ** 3 * z), 3, FIELD_REAL))


def test_report_explicit_case_override():
    t = SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL)
    report = stabilize_with_report(t, case="mult")
    assert report.case == "mult"
    with pytest.raises(ValueError):
        stabilize_with_report(t, case="31")  # wrong shape for the triple map
    with pytest.raises(ValueError):
        stabilize_with_report(t, case="nope")
