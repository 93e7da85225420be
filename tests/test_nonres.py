import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonresultant.exactalg import ExactPolynomial, GaussianRational
from nonresultant.nonres import (
    FIELD_COMPLEX,
    FIELD_REAL,
    InputError,
    JetTuple,
    SystemTuple,
    conjugate_tuple,
    is_member,
    is_member_via_jets,
    jet,
    max_common_multiplicity,
    stability_dimension,
)

z = ExactPolynomial.variable()

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def tuple_from_factor_lists(factor_lists, n, field=FIELD_REAL):
    polys = []
    for roots in factor_lists:
        f = ExactPolynomial.from_roots(roots)
        polys.append(f)
    return SystemTuple(tuple(polys), n, field)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def test_jet_components():
    f = (z - 1) * (z - 2)
    jt = jet(f, 3)
    assert jt.order == 3
    assert jt.base == f
    assert jt.components[1] == f + f.derivative()
    assert jt.components[2] == f + f.derivative(2)
    # every component keeps f's degree and leading coefficient
    assert {c.degree for c in jt.components} == {2}
    assert {c.coefficients[-1] for c in jt.components} == {F(1)}
    assert jet(f, 1).components == (f,)


def test_jet_rejects_bad_input():
    with pytest.raises(ValueError):
        jet(z, 0)
    with pytest.raises(ValueError):
        jet(ExactPolynomial(()), 2)
    with pytest.raises(ValueError):
        JetTuple(())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jet_vanishing_detects_multiplicity(k, n):
    # f has a root of multiplicity exactly k at 1/2; the jet components of
    # order n vanish there simultaneously iff k >= n
    a = F(1, 2)
    f = (z - a) ** k * (z + 3)
    values = [c(a) for c in jet(f, n).components]
    if k >= n:
        assert all(v == 0 for v in values)
    else:
        assert any(v != 0 for v in values)


@given(
    st.lists(small_fractions, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_jet_vanishing_lemma_random(extra_roots, mult, n):
    a = F(1, 3)
    f = (z - a) ** mult * ExactPolynomial.from_roots([r for r in extra_roots if r != a])
    vanish = all(c(a) == 0 for c in jet(f, n).components)
    assert vanish == (mult >= n)


# ---------------------------------------------------------------------------
# system tuples
# ---------------------------------------------------------------------------


def test_system_tuple_validation():
    with pytest.raises(ValueError):
        SystemTuple((z,), 1, FIELD_REAL)  # (1, 1) excluded
    with pytest.raises(ValueError):
        SystemTuple((), 1, FIELD_REAL)
    with pytest.raises(ValueError):
        SystemTuple((z * 2,), 2, FIELD_REAL)  # not monic
    with pytest.raises(ValueError):
        SystemTuple((ExactPolynomial((F(1),)),), 2, FIELD_REAL)  # degree 0
    with pytest.raises(ValueError):
        SystemTuple((z,), 2, "Q")
    with pytest.raises(ValueError):
        SystemTuple((z, z), 0, FIELD_REAL)
    gaussian = z + GaussianRational(F(0), F(1))
    with pytest.raises(ValueError):
        SystemTuple((gaussian, z), 1, FIELD_REAL)
    SystemTuple((gaussian, z), 1, FIELD_COMPLEX)  # fine over C


def test_membership_frozen_examples():
    # the all-equal linear triple shares its root at every entry
    f = z + 1
    assert not is_member(SystemTuple((f, f, f), 1, FIELD_REAL))
    # coprime pair
    assert is_member(SystemTuple((z, z + 1), 1, FIELD_REAL))
    # double root at 0 violates the n = 2 bound for a single polynomial
    assert not is_member(SystemTuple((z * z,), 2, FIELD_REAL))
    assert is_member(SystemTuple(((z - 1) * (z - 2),), 2, FIELD_REAL))
    # common simple root is fine for n = 2, fatal for n = 1
    common = SystemTuple((z * (z - 1), z * (z + 1)), 2, FIELD_REAL)
    assert is_member(common)
    assert not is_member(SystemTuple(common.polys, 1, FIELD_REAL))


def test_max_common_multiplicity_planted():
    shared = (z - 2) ** 3
    t = SystemTuple((shared * (z - 5), shared * (z + 1)), 1, FIELD_REAL)
    assert max_common_multiplicity(t) == 3
    t2 = tuple_from_factor_lists([[1, 2], [3, 4]], 1)
    assert max_common_multiplicity(t2) == 0


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_membership_routes_agree(roots_f, roots_g, n):
    t = SystemTuple(
        (ExactPolynomial.from_roots(roots_f), ExactPolynomial.from_roots(roots_g)),
        n,
        FIELD_REAL,
    )
    gcd_route = is_member(t)
    jet_route = is_member_via_jets(t)
    assert gcd_route == jet_route
    assert gcd_route == (max_common_multiplicity(t) < n)


def test_membership_routes_agree_gaussian():
    rng = random.Random(11)
    for _ in range(40):
        roots = [
            GaussianRational(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        shared = rng.choice(roots)
        f = ExactPolynomial.from_roots(roots)
        g = ExactPolynomial.from_roots([shared, GaussianRational(F(5), F(0))])
        t = SystemTuple((f, g), 1, FIELD_COMPLEX)
        assert is_member(t) == is_member_via_jets(t)
        assert not is_member(t)  # shared root was planted


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_tuple_fixes_real_exactly():
    t = tuple_from_factor_lists([[F(1, 2), -2], [0, 3]], 1)
    assert conjugate_tuple(t) == t


def test_conjugate_tuple_involution():
    i = GaussianRational(F(0), F(1))
    f = ExactPolynomial.from_roots([i, F(2)])
    t = SystemTuple((f, z), 1, FIELD_COMPLEX)
    ct = conjugate_tuple(t)
    assert ct != t
    assert conjugate_tuple(ct) == t
    # conjugation maps roots to their mirror images
    assert ct.polys[0](GaussianRational(F(0), F(-1))) == 0


# ---------------------------------------------------------------------------
# stability dimension
# ---------------------------------------------------------------------------


def test_stability_dimension_values():
    assert stability_dimension(7, 3, 1) == 7
    assert stability_dimension(3, 3, 1) == 3
    assert stability_dimension(5, 2, 2) == 5
    assert stability_dimension(8, 1, 2) == -1
    assert stability_dimension(6, 2, 3) == 11


def test_stability_dimension_rejects():
    with pytest.raises(ValueError):
        stability_dimension(4, 1, 1)
    with pytest.raises(ValueError):
        stability_dimension(0, 2, 1)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_stability_dimension_monotone_in_d(d, m, n):
    if m == 1 and n == 1:
        return
    a = stability_dimension(d, m, n)
    b = stability_dimension(d + n, m, n)
    assert b - a == m * n - 2
    assert a == (m * n - 2) * (d // n + 1) - 1


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_tuple_json_round_trip():
    t = tuple_from_factor_lists([[F(1, 2), -1], [2]], 2)
    assert SystemTuple.from_json(t.to_json()) == t


def test_tuple_json_rejects_bad_shapes():
    with pytest.raises(InputError):
        SystemTuple.from_json([1, 2])
    with pytest.raises(InputError):
        SystemTuple.from_json({"n": 1, "polys": [["0", "1"]]})
    with pytest.raises(InputError):
        SystemTuple.from_json({"n": True, "field": "R", "polys": [["0", "1"]]})
    with pytest.raises(InputError):
        SystemTuple.from_json({"n": 1, "field": "R", "polys": []})
    with pytest.raises(InputError):
        # float coefficients are rejected with a pointer to the exact syntax
        SystemTuple.from_json({"n": 1, "field": "R", "polys": [[0.5, 1]]})
    with pytest.raises(InputError):
        SystemTuple.from_json({"n": 1, "field": "R", "polys": [["3/0", "1"], ["1", "1"]]})
