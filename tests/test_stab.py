import math
from fractions import Fraction as F

import pytest

from nonresultant.case12 import component_of_12
from nonresultant.case31 import Model31, i_d_loop, pi1_winding
from nonresultant.exactalg import ExactPolynomial
from nonresultant import stab
from nonresultant.nonres import (
    FIELD_REAL,
    MembershipError,
    SystemTuple,
    is_member,
    max_common_multiplicity,
)
from nonresultant.stab import (
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


def test_report_explicit_case_override():
    t = SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL)
    report = stabilize_with_report(t, case="mult")
    assert report.case == "mult"
    with pytest.raises(ValueError):
        stabilize_with_report(t, case="31")  # wrong shape for the triple map
    with pytest.raises(ValueError):
        stabilize_with_report(t, case="nope")
