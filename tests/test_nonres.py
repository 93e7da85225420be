import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonresultant import exactalg, nonres
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
from oracles import jet_by_sums

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


# every (m, n) != (1, 1) with m*n <= 6 and n <= 4
SHAPES = [(m, n) for n in range(1, 5) for m in range(1, 7) if m * n <= 6 and (m, n) != (1, 1)]


def planted_roots(rng, m, n, field, max_degree=None):
    """Root lists of m entries with one planted root of multiplicity 0..n+1
    in every entry, plus up to three roots from a small pool (so entries
    share roots by chance), each with multiplicity 1..n, left out where it
    would take the entry's degree beyond `max_degree`; over R a nonreal
    root comes with its conjugate."""
    if field == FIELD_REAL:
        pool = [F(k, 2) for k in range(-4, 5)] + [GaussianRational(F(1), F(1)), GaussianRational(F(-1, 2), F(2))]
    else:
        pool = [GaussianRational(F(a), F(b, 2)).canonical() for a in range(-1, 2) for b in range(-2, 3)]

    def degree(roots):
        pairs = sum(isinstance(r, GaussianRational) for r in roots) if field == FIELD_REAL else 0
        return len(roots) + pairs

    planted, mu = rng.choice(pool), rng.randint(0 if m > 1 else 1, n + 1)
    entries = []
    for _ in range(m):
        roots = [planted] * mu
        for _ in range(rng.randint(0 if mu else 1, 3)):
            extra = [rng.choice(pool)] * rng.randint(1, n)
            if max_degree is None or degree(roots + extra) <= max_degree:
                roots += extra
        if field == FIELD_REAL:
            roots += [r.conjugate() for r in roots if isinstance(r, GaussianRational)]
        entries.append(roots)
    return entries


def member_by_roots(entries, n) -> bool:
    """Member unless some root lies in every entry's list n or more times."""
    common = Counter(entries[0])
    for roots in entries[1:]:
        common &= Counter(roots)
    return all(k < n for k in common.values())


def refuse(*args):
    raise AssertionError("a membership route built a polynomial")


@pytest.mark.parametrize("field", [FIELD_REAL, FIELD_COMPLEX])
@pytest.mark.parametrize("m, n", SHAPES)
def test_membership_routes_match_planted_roots(monkeypatch, m, n, field):
    rng = random.Random(1000 * m + 10 * n + (field == FIELD_COMPLEX))
    cases = []
    for _ in range(16):
        entries = planted_roots(rng, m, n, field)
        t = tuple_from_factor_lists(entries, n, field)
        want = member_by_roots(entries, n)
        cases.append((t, want))
        assert (max_common_multiplicity(t) < n) == want
    assert {want for _, want in cases} == {True, False}
    # both routes fold integer numerators: neither makes a polynomial monic
    # nor takes the derivative of one
    monkeypatch.setattr(ExactPolynomial, "monic", refuse)
    monkeypatch.setattr(ExactPolynomial, "derivative", refuse)
    for t, want in cases:
        assert is_member(t) == want
        assert is_member_via_jets(t) == want


@pytest.mark.parametrize(
    "entries, n, field",
    [
        ([[1, 2, 3]], 3, FIELD_REAL),
        ([[1, 2], [3, 4]], 2, FIELD_REAL),
        ([[GaussianRational(F(1), F(2)), 3, -1]], 3, FIELD_COMPLEX),
        ([[GaussianRational(F(0), F(1)), 2], [1, 1]], 2, FIELD_COMPLEX),
    ],
)
def test_jet_route_stops_at_the_first_coprime_components(monkeypatch, entries, n, field):
    # f and f + f' are coprime for a squarefree f: the fold stops there and
    # the later components f + f^(i), i >= 2, are never generated
    t = tuple_from_factor_lists(entries, n, field)
    ring = exactalg._ring(*t.polys)
    orders = []
    derivative = ring.derivative

    def counted(cs, k):
        orders.append(k)
        return derivative(cs, k)

    monkeypatch.setattr(ring, "derivative", staticmethod(counted))
    assert is_member_via_jets(t)
    assert orders == [1]


@pytest.mark.parametrize(
    "entries, n, field",
    [
        ([[1, 1, -1], [1, 1, 4]], 3, FIELD_REAL),
        ([[1, 2, 3]], 4, FIELD_REAL),
        ([[GaussianRational(F(1), F(1))] * 2 + [5], [GaussianRational(F(1), F(1))] * 2], 3, FIELD_COMPLEX),
    ],
)
def test_gcd_route_builds_no_derivative_when_deg_g_is_below_n(monkeypatch, entries, n, field):
    for ring in (exactalg._Z, exactalg._ZI):
        monkeypatch.setattr(ring, "derivative", staticmethod(refuse))
    assert is_member(tuple_from_factor_lists(entries, n, field))


LARGE_SCALES = [F(10**25 + 13), F(3**52, 2**80 + 1), F(1, 10**24 + 7), F(-(7**28) * 6**3, 5)]
LARGE_GAUSSIAN_SCALES = [
    GaussianRational(F(10**12 + 1), F(1 - 10**12)) ** 2,
    GaussianRational(F(1), F(1)) ** 80 * GaussianRational(F(2), F(1)) ** 30 * F(1, 11),
]


# time_limit is a stateless factory, so sharing it between examples is safe
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(SHAPES),
    st.sampled_from([FIELD_REAL, FIELD_COMPLEX]),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=len(LARGE_SCALES + LARGE_GAUSSIAN_SCALES) - 1),
)
def test_membership_routes_on_planted_tuples_with_large_coefficients(time_limit, shape, field, seed, k):
    # roots of the planted recipe times one scale, so coefficients reach
    # about 10**300 at degree 12; a Gaussian scale only over C
    m, n = shape
    scales = LARGE_SCALES + (LARGE_GAUSSIAN_SCALES if field == FIELD_COMPLEX else [])
    scale = scales[k % len(scales)]
    entries = [[r * scale for r in roots] for roots in planted_roots(random.Random(seed), m, n, field, 12)]
    want = member_by_roots(entries, n)
    with time_limit(20):
        t = tuple_from_factor_lists(entries, n, field)
        assert max(t.degrees) <= 12
        assert is_member(t) == want
        assert is_member_via_jets(t) == want
        assert (max_common_multiplicity(t) < n) == want
        for f in t.polys:
            assert jet(f, n).components == jet_by_sums(f, n)


@pytest.mark.parametrize(
    "roots, n, member",
    [
        # deg g = 3 >= n, yet every common root is simple
        ([[1, 2, 3, 5], [1, 2, 3, -7]], 2, True),
        ([[1, 2, 3]], 2, True),
        # a common root, but deg g = 2 < n
        ([[1, 1, -1], [1, 1, 4]], 3, True),
        ([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2), 3], [F(1, 2), F(1, 2), 0]], 3, True),
        # a common root of multiplicity exactly n
        ([[1, 1, -2], [1, 1, 1]], 2, False),
        ([[0, 0, 0, 5]], 3, False),
        ([[2, 2, 2, 2, 1], [2, 2, 2, 2, 2, -1]], 4, False),
        # deg g >= n from two simple roots and one of multiplicity n - 1
        ([[1, 2, 3, 3], [1, 2, 3, 3, 3]], 3, True),
    ],
)
def test_membership_edge_cases(roots, n, member):
    t = tuple_from_factor_lists(roots, n)
    assert is_member(t) == member
    assert is_member_via_jets(t) == member
    assert (max_common_multiplicity(t) < n) == member


def test_is_member_never_runs_the_squarefree_decomposition(monkeypatch):
    def refuse(f):
        raise AssertionError("is_member ran Yun's algorithm")

    monkeypatch.setattr(nonres, "squarefree_decomposition", refuse)
    assert not is_member(tuple_from_factor_lists([[1, 1, 2], [1, 1, 3]], 2))
    assert is_member(tuple_from_factor_lists([[1, 2, 3], [1, 2, 3, 4]], 2))
    with pytest.raises(AssertionError):
        max_common_multiplicity(tuple_from_factor_lists([[1, 1, 2], [1, 1, 3]], 2))


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
