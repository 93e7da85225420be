from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonresultant.case21 import (
    ComponentLabel21,
    component_of_21,
    legal_labels_21,
    representative_21,
)
from nonresultant.exactalg import ExactPolynomial
from nonresultant.harness import census, certify_path, locate_violation
from nonresultant.nonres import FIELD_REAL, SystemTuple, is_member

z = ExactPolynomial.variable()


def pair(f, g):
    return SystemTuple((f, g), 1, FIELD_REAL)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_legal_labels():
    assert legal_labels_21(1) == [-1, 1]
    assert legal_labels_21(4) == [-4, -2, 0, 2, 4]
    assert len(legal_labels_21(9)) == 10
    with pytest.raises(ValueError):
        legal_labels_21(0)


def test_label_validation():
    ComponentLabel21(3, -1)
    with pytest.raises(ValueError):
        ComponentLabel21(3, 2)  # parity
    with pytest.raises(ValueError):
        ComponentLabel21(3, 5)  # bound


def test_component_frozen_examples():
    assert component_of_21(pair(z, z + 1)).j == 1
    assert component_of_21(pair(z, z - 1)).j == -1
    interlaced = pair((z - 0) * (z - 2), (z - 1) * (z - 3))
    assert component_of_21(interlaced) == ComponentLabel21(2, -2)
    # root-free quadratics contribute nothing
    assert component_of_21(pair(z * z + 1, z * z + 2)).j == 0


def test_component_requires_membership_and_shape():
    with pytest.raises(ValueError):
        component_of_21(pair(z * (z - 1), z * (z + 1)))  # common root
    with pytest.raises(ValueError):
        component_of_21(SystemTuple((z, z + 1), 2, FIELD_REAL))
    with pytest.raises(ValueError):
        component_of_21(pair(z, z * z + 1))


# ---------------------------------------------------------------------------
# representatives realize every component
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_representatives_cover_all_labels(d):
    for j in legal_labels_21(d):
        t = representative_21(d, j)
        assert is_member(t)
        assert t.degrees == (d, d)
        assert component_of_21(t) == ComponentLabel21(d, j)


def test_representative_rejects_illegal_label():
    with pytest.raises(ValueError):
        representative_21(3, 0)


# ---------------------------------------------------------------------------
# the label is a path invariant
# ---------------------------------------------------------------------------


def test_label_constant_along_certified_path():
    a = representative_21(3, 1)
    # a nearby pair in the same component: nudge every root by 1/100
    f1 = ExactPolynomial.from_roots([F(1) + F(1, 100)])
    f2 = ExactPolynomial.from_roots([F(1, 2) + F(1, 100)])
    quad = z * z + 1
    b = pair(f1 * (z * z + F(2)), f2 * quad)
    path = certify_path(a, b, invariant=lambda t: component_of_21(t).j)
    assert path.certified
    assert path.invariant_constant
    assert set(path.invariant_values) == {1}


def test_cross_label_path_is_blocked():
    a = representative_21(2, 0)
    b = representative_21(2, 2)
    cert = locate_violation(a, b)
    assert cert is not None
    assert cert.width <= F(1, 10**6)
    # the violation parameter is interior
    assert F(0) < cert.lo and cert.hi < F(1)


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=12, deadline=None)
def test_opposite_labels_blocked(d):
    cert = locate_violation(representative_21(d, d), representative_21(d, -d))
    assert cert is not None


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_support_and_determinism():
    counts = census("21", 3, 400, seed=2)
    assert set(counts) <= set(legal_labels_21(3))
    assert sum(counts.values()) == 400
    assert census("21", 3, 400, seed=2) == counts


def test_census_rejects_bad_parameters():
    with pytest.raises(ValueError):
        census("21", 0, 10, seed=1)
    with pytest.raises(ValueError):
        census("21", 2, -1, seed=1)
    with pytest.raises(ValueError):
        census("31", 3, 10, seed=1)
