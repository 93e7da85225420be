import cmath
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonresultant.case12 import (
    HalfPlaneConfig,
    component_of_12,
    electric_degree,
    from_configuration,
    legal_labels_12,
    representative_12,
    stabilize_12,
    to_configuration,
)
from nonresultant import exactalg
from nonresultant.exactalg import (
    ExactPolynomial,
    NonConvergenceError,
    RootCluster,
    cauchy_root_bound,
    count_distinct_real_roots,
    has_real_root_between,
    real_roots_exact,
)
from nonresultant.harness import census
from nonresultant.nonres import FIELD_REAL, SystemTuple, is_member

from oracles import (
    electric_degree_winding,
    float_value_fractions,
    real_roots_fractions,
)

z = ExactPolynomial.variable()


# ---------------------------------------------------------------------------
# component labels
# ---------------------------------------------------------------------------


def test_legal_labels():
    assert legal_labels_12(1) == [0]
    assert legal_labels_12(5) == [0, 1, 2]
    assert legal_labels_12(8) == [0, 1, 2, 3, 4]


def test_component_counts_conjugate_pairs():
    assert component_of_12(z - 3) == 0
    assert component_of_12(z * z + 1) == 1
    assert component_of_12((z * z + 1) * (z - 2)) == 1
    assert component_of_12((z * z + 1) * (z * z + 4)) == 2


def test_component_requires_squarefree():
    with pytest.raises(ValueError):
        component_of_12(z * z)
    with pytest.raises(ValueError):
        component_of_12((z - 1) ** 2 * (z + 2))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_representatives_cover_all_labels(d):
    seen = set()
    for j in legal_labels_12(d):
        f = representative_12(d, j)
        assert f.degree == d
        assert is_member(SystemTuple((f,), 2, FIELD_REAL))
        assert component_of_12(f) == j
        seen.add(j)
    assert seen == set(range(d // 2 + 1))
    with pytest.raises(ValueError):
        representative_12(d, d // 2 + 1)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def test_to_configuration_splits_roots():
    f = (z - 1) * (z + 2) * (z * z + 9)
    cfg = to_configuration(f)
    # real points come from exact isolation, upper points from the numeric
    # root finder
    assert cfg.real_points == (-2.0, 1.0)
    assert len(cfg.upper_points) == 1
    assert cmath.isclose(cfg.upper_points[0], 3j, rel_tol=0, abs_tol=1e-9)
    assert cfg.j == 1
    assert cfg.degree == 4


def test_to_configuration_all_real_needs_no_numeric_roots(monkeypatch):
    def no_numeric(*args, **kwargs):
        raise AssertionError("numeric root finder called")

    monkeypatch.setattr("nonresultant.case12.complex_roots_numeric", no_numeric)
    for f in (
        (z - 1) * (z + 2) * (z - F(1, 3)),
        (z * z - 2) * (z - F(5, 7)),
        (z - F(1, 2**30)) * (z + F(1, 2**30)) * (z * z - 3) * (z - 8),
        z - F(4, 9),
    ):
        expected = tuple(float_value_fractions(r) for r in real_roots_fractions(f))
        assert to_configuration(f) == HalfPlaneConfig(expected, ())


def test_to_configuration_reports_small_real_points_to_the_last_bit():
    for small in (F(1, 10**30), F(1, 2**30)):
        cfg = to_configuration((z - small) * (z - 1) * (z + 1))
        assert cfg == HalfPlaneConfig((-1.0, float(small), 1.0), ())


def test_to_configuration_of_a_real_point_beyond_the_float_range_raises():
    with pytest.raises(ValueError, match="beyond the float range"):
        to_configuration((z - 10**400) * (z - 1))


def test_to_configuration_of_a_coefficient_beyond_the_float_range_raises():
    # no real root: the float range is met by the numeric root finder
    with pytest.raises(ValueError, match="beyond the float range"):
        to_configuration(z * z + 10**400)


@pytest.mark.parametrize(
    "cfg",
    [
        HalfPlaneConfig((1e200, 2e200), ()),  # the product overflows to inf
        HalfPlaneConfig((), (1e300j,)),
        HalfPlaneConfig((-1e300, 1e300), (1e-300 + 1e300j,)),  # inf - inf: a NaN coefficient
    ],
)
def test_from_configuration_of_a_coefficient_beyond_the_float_range_raises(cfg):
    with pytest.raises(ValueError, match="a coefficient lies beyond the float range"):
        from_configuration(cfg)


def test_to_configuration_of_real_roots_closer_than_one_float_raises():
    # squarefree, monic and real (label 1 and 0), but 1 and 1 + 2**-60 round
    # to the same float
    close = (z - 1) * (z - 1 - F(1, 2**60))
    for f in (close * (z * z + 1), close):
        assert component_of_12(f) == (f.degree - 2) // 2
        with pytest.raises(ValueError, match="closer than one float apart"):
            to_configuration(f)


def test_one_sturm_chain_per_polynomial(monkeypatch):
    built = []
    chain = exactalg._sturm_chain

    def counting_chain(a, b):
        built.append(len(a) - 1)
        return chain(a, b)

    monkeypatch.setattr(exactalg, "_sturm_chain", counting_chain)
    f = (z - 1) * (z + 2) * (z - F(1, 3)) * (z * z + 9)
    assert component_of_12(f) == 1
    cfg = to_configuration(f)
    assert count_distinct_real_roots(f) == len(cfg.real_points) == 3
    assert len(real_roots_exact(f)) == 3
    assert has_real_root_between(f, 0, 1)
    assert built == [5]


def test_to_configuration_split_error_carries_count_and_centers(monkeypatch):
    # a root finder that puts the pair +-3i on the real axis
    fake = [RootCluster(complex(x), 1e-7, 1) for x in (-2.0, 1.0, 3.0, -3.0)]
    monkeypatch.setattr("nonresultant.case12.complex_roots_numeric", lambda f: fake)
    with pytest.raises(NonConvergenceError) as info:
        to_configuration((z - 1) * (z + 2) * (z * z + 9))
    assert info.value.diagnostics == {
        "real_count": 2,
        "centers": (-2 + 0j, 1 + 0j, 3 + 0j, -3 + 0j),
    }


def test_configuration_polynomial_round_trip():
    cfg = HalfPlaneConfig((-1.5, 0.25), (0.5 + 2j,))
    back = to_configuration(from_configuration(cfg))
    assert back.real_points == cfg.real_points
    assert len(back.upper_points) == 1
    assert cmath.isclose(back.upper_points[0], 0.5 + 2j, rel_tol=0, abs_tol=1e-9)


def test_configuration_validation():
    with pytest.raises(ValueError):
        HalfPlaneConfig((), (1 - 1j,))  # below the axis
    with pytest.raises(ValueError):
        HalfPlaneConfig((2.0, 1.0), ())  # not ascending
    with pytest.raises(ValueError):
        HalfPlaneConfig((1.0, 1.0), ())  # duplicate
    # upper points are normalised to (re, im) order
    cfg = HalfPlaneConfig((), (2 + 1j, 1j))
    assert cfg.upper_points == (1j, 2 + 1j)


def test_configuration_json_round_trip():
    cfg = HalfPlaneConfig((-2.0, 0.5), (1 + 1j, 1 + 2j))
    doc = cfg.to_json()
    assert doc == [[-2.0, 0.0], [0.5, 0.0], [1.0, 1.0], [1.0, 2.0]]
    assert HalfPlaneConfig.from_json(doc) == cfg
    with pytest.raises(ValueError):
        HalfPlaneConfig.from_json([[1.0, -1.0]])
    with pytest.raises(ValueError):
        HalfPlaneConfig.from_json([[1.0]])
    with pytest.raises(ValueError):
        HalfPlaneConfig.from_json({"re": 1})
    for doc in ([[True, 0], [0, 1]], [[0, 1], [2, False]]):
        with pytest.raises(ValueError, match="booleans are not coordinates"):
            HalfPlaneConfig.from_json(doc)


# ---------------------------------------------------------------------------
# the electric map
# ---------------------------------------------------------------------------


def test_electric_degree_frozen_examples():
    assert electric_degree(HalfPlaneConfig((), (1j, -1 + 1j))) == 2
    assert electric_degree(HalfPlaneConfig((), (3j,))) == 1
    assert electric_degree(HalfPlaneConfig((-1.0, 4.0), ())) == 0
    # real points never change the degree
    assert electric_degree(HalfPlaneConfig((-5.0, 2.0), (1j, -1 + 1j))) == 2


def test_electric_degree_counts_distinct_points():
    # f = (z - i)^2 (z - 2 - i): gcd(f, f + f') = z - i cancels from the map
    assert electric_degree([1j, 1j, 2 + 1j]) == 2
    assert electric_degree([3 + 1j] * 4) == 1
    assert electric_degree([]) == 0


def test_electric_degree_equals_label():
    rng = random.Random(13)
    for _ in range(30):
        d = rng.randint(1, 8)
        j = rng.randint(0, d // 2)
        reals = rng.sample(range(-10, 11), d - 2 * j)
        uppers = []
        while len(uppers) < j:
            u = complex(rng.randint(-5, 5), rng.randint(1, 5))
            if u not in uppers:
                uppers.append(u)
        cfg = HalfPlaneConfig(tuple(sorted(float(x) for x in reals)), tuple(uppers))
        assert electric_degree(cfg) == j == cfg.j == electric_degree_winding(cfg.upper_points)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=997))
@settings(max_examples=40, deadline=None)
def test_electric_degree_on_representatives(d, salt):
    j = salt % (d // 2 + 1)
    cfg = to_configuration(representative_12(d, j))
    assert electric_degree(cfg) == j


# ---------------------------------------------------------------------------
# stabilization raises the label by one
# ---------------------------------------------------------------------------


def test_stabilize_12_increments_label():
    f = (z - 1) * (z * z + 1)
    g = stabilize_12(f, F(5))
    assert g.degree == f.degree + 2
    assert component_of_12(g) == component_of_12(f) + 1


def test_stabilize_12_rejects_small_T():
    f = z * z + 16  # roots at +-4i
    with pytest.raises(ValueError):
        stabilize_12(f, F(2))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=991))
@settings(max_examples=30, deadline=None)
def test_stabilize_12_property(d, salt):
    j = salt % (d // 2 + 1)
    f = representative_12(d, j)
    g = stabilize_12(f, cauchy_root_bound([f]) + 1)
    assert component_of_12(g) == j + 1
    assert is_member(SystemTuple((g,), 2, FIELD_REAL))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_support_and_determinism():
    counts = census("12", 5, 300, seed=1)
    assert set(counts) <= {0, 1, 2}
    assert sum(counts.values()) == 300
    assert census("12", 5, 300, seed=1) == counts
