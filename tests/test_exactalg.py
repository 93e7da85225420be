import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonresultant.exactalg import (
    ExactPolynomial,
    GaussianRational,
    RealRoot,
    cauchy_index,
    cauchy_root_bound,
    complex_roots_many,
    complex_roots_numeric,
    count_distinct_real_roots,
    gcd_exact,
    gcd_many,
    poly_from_json,
    poly_to_json,
    real_roots_exact,
    resultant_exact,
    scalar_from_json,
    scalar_to_json,
    squarefree_decomposition,
)

from nonresultant.exactalg import (
    _aberth_batch,
    _cluster_roots,
    _int_primitive,
    _isolate_squarefree,
    _simplest_between,
)
from oracles import (
    aberth_every_row,
    cauchy_index_real_line,
    cluster_roots_scan,
    float_value_fractions,
    gcd_from_factor_multisets,
    isolate_squarefree_fractions,
    rational_value_fractions,
    real_roots_fractions,
    refine_fractions,
    resultant_from_roots,
    resultant_sylvester,
    simplest_between_recursive,
)

z = ExactPolynomial.variable()
i_unit = GaussianRational(F(0), F(1))

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
# each example draws all its polynomials over Q or all over Q(i)
fields = st.sampled_from([small_fractions, small_gaussians])


def poly_strategy(max_degree=5, coeffs=small_fractions):
    return st.lists(coeffs, min_size=0, max_size=max_degree + 1).map(
        lambda cs: ExactPolynomial(tuple(cs))
    )


def polys_over_a_field(*max_degrees):
    return fields.flatmap(
        lambda c: st.tuples(*(poly_strategy(d, c) for d in max_degrees))
    )


def random_rational(rng, num=20, den=6):
    return F(rng.randint(-num, num), rng.randint(1, den))


def random_poly(rng, degree, monic=True, gaussian=False):
    def scalar():
        if gaussian:
            return GaussianRational(random_rational(rng), random_rational(rng))
        return random_rational(rng)

    coeffs = [scalar() for _ in range(degree)]
    coeffs.append(
        F(1) if monic else (scalar() or F(1))
    )
    return ExactPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# construction and scalar behaviour
# ---------------------------------------------------------------------------


def test_construction_canonical():
    assert ExactPolynomial((1, 2, 0, 0)).degree == 1
    assert ExactPolynomial(()).degree == -1
    assert ExactPolynomial((0,)).degree == -1
    # gaussian coefficients with zero imaginary part collapse to Fraction
    p = ExactPolynomial((GaussianRational(F(3), F(0)), 1))
    assert p.is_real
    assert p.coefficients[0] == F(3)
    with pytest.raises(TypeError):
        ExactPolynomial((0.5, 1))
    with pytest.raises(TypeError):
        z * 0.5
    with pytest.raises(TypeError):
        ExactPolynomial.from_roots([0.5])


@settings(max_examples=60, deadline=None)
@given(polys_over_a_field(6))
def test_coefficient_view_round_trips(polys):
    (p,) = polys
    assert ExactPolynomial(p.coefficients) == p
    assert hash(ExactPolynomial(p.coefficients)) == hash(p)
    assert p.is_real == all(isinstance(c, F) for c in p.coefficients)
    assert poly_from_json(poly_to_json(p)) == p


def test_equal_polynomials_hash_equal():
    half = F(1, 2)
    built = [
        ExactPolynomial.from_roots([half, -i_unit]),
        (z - half) * (z + i_unit),
        ExactPolynomial((GaussianRational(F(0), -half), GaussianRational(F(-1, 2), F(1)), 1)),
        ((2 * z - 1) * (3 * z + 3 * i_unit)) * F(1, 6),
        (z * z + z * (i_unit - half)) - half * i_unit,
        ExactPolynomial.from_roots([F(2, 4), GaussianRational(F(0), F(-3, 3))], lead=GaussianRational(F(1), F(0))),
    ]
    assert all(p == built[0] for p in built)
    assert len({hash(p) for p in built}) == 1
    reals = [z - half, ExactPolynomial((F(-2, 4), GaussianRational(F(1), F(0)))), (2 * z - 1) * half]
    assert len(set(reals)) == 1
    assert reals[0].is_real and reals[1].is_real
    assert (z - i_unit).conjugate() == z + i_unit
    assert hash(ExactPolynomial.zero()) == hash(z - z)


def test_divmod_by_gaussian_leading_coefficient():
    lead = GaussianRational(F(2), F(-3))
    g = z**2 * lead + F(1, 3) * z + i_unit
    f = ExactPolynomial.from_roots([F(1, 2), i_unit, F(-2), GaussianRational(F(1), F(1, 5))])
    q, r = divmod(f, g)
    assert f == q * g + r
    assert r.degree < g.degree
    assert (f * g).exact_div(g) == f
    assert (g * g).exact_div(g) == g
    assert g.monic().leading_coefficient == 1
    assert g.monic() * lead == g


def test_gaussian_scalar_arithmetic():
    a = GaussianRational(F(1, 2), F(3))
    b = GaussianRational(F(2), F(-1))
    assert a + b == GaussianRational(F(5, 2), F(2))
    assert a * b == GaussianRational(F(4), F(11, 2))
    assert (a / b) * b == a
    assert a.conjugate().im == -a.im
    assert GaussianRational(F(2), F(0)) == F(2)
    assert hash(GaussianRational(F(2), F(0))) == hash(F(2))
    assert complex(i_unit) == 1j
    assert i_unit**2 == F(-1)


def test_evaluate_exact_and_float():
    f = (z - 1) * (z + F(1, 2)) * (z - F(3, 4))
    assert f(F(1)) == 0
    x = F(7, 5)
    assert abs(float(f(x)) - f(float(x))) < 1e-12
    val = f(0.5 + 0.25j)
    assert abs(val - f(complex(0.5, 0.25))) == 0


def test_derivative_rules():
    assert (z**2).derivative() == 2 * z
    assert (z**3).derivative(2) == 6 * z
    assert (z**3).derivative(5).is_zero
    rng = random.Random(7)
    for _ in range(25):
        f = random_poly(rng, rng.randint(0, 4), monic=False)
        g = random_poly(rng, rng.randint(0, 4), monic=False)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(polys_over_a_field(5, 5, 5))
def test_ring_identities(polys):
    f, g, h = polys
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == ExactPolynomial.zero()
    assert (f - g) + g == f
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@settings(max_examples=80, deadline=None)
@given(polys_over_a_field(5, 4))
def test_divmod_reconstruction(polys):
    f, g = polys
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert f == q * g + r
    assert r.degree < g.degree
    assert (f * g).exact_div(g) == f


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_frozen_example():
    f = (z**2 - 1) * (z + 2)
    g = (z + 1) * (z + 5)
    assert gcd_exact(f, g) == z + 1


def test_gcd_edge_cases():
    assert gcd_exact(z - 1, ExactPolynomial.zero()) == z - 1
    assert gcd_exact(ExactPolynomial.zero(), 2 * (z - 1)) == z - 1
    assert gcd_exact(z - 1, ExactPolynomial.constant(5)) == ExactPolynomial.one()
    with pytest.raises(ValueError):
        gcd_exact(ExactPolynomial.zero(), ExactPolynomial.zero())


def test_gcd_matches_factor_multiset_oracle():
    rng = random.Random(42)
    pool = [F(k, 2) for k in range(-6, 7)]
    for _ in range(120):
        roots_f = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        roots_g = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        f = ExactPolynomial.from_roots(roots_f)
        g = ExactPolynomial.from_roots(roots_g)
        assert gcd_exact(f, g) == gcd_from_factor_multisets(roots_f, roots_g)


def test_gcd_matches_factor_multiset_oracle_gaussian():
    rng = random.Random(43)
    pool = [
        GaussianRational(F(a), F(b)).canonical()
        for a in range(-2, 3)
        for b in range(-2, 3)
    ]
    for _ in range(60):
        roots_f = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        roots_g = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        f = ExactPolynomial.from_roots(roots_f)
        g = ExactPolynomial.from_roots(roots_g)
        assert gcd_exact(f, g) == gcd_from_factor_multisets(roots_f, roots_g)


def test_gcd_common_factor_property():
    rng = random.Random(44)
    for k in range(90):
        # build f, g coprime by giving them disjoint root sets; every third
        # case runs over Q(i)
        gaussian = k % 3 == 2
        unit = i_unit if gaussian else F(1)
        f = ExactPolynomial.from_roots([F(k) * unit for k in rng.sample(range(1, 9), 2)])
        g = ExactPolynomial.from_roots([F(-k) for k in rng.sample(range(1, 9), 2)])
        h = random_poly(rng, rng.randint(1, 3), monic=False, gaussian=gaussian)
        assert gcd_exact(f * h, g * h) == h.monic() * gcd_exact(f, g)


def test_gcd_scaling_invariance():
    f = (z - 1) * (z - 2)
    g = (z - 1) * (z + 3)
    assert gcd_exact(f * F(7, 3), g * F(-2, 5)) == z - 1
    fg = f * GaussianRational(F(2), F(1))
    assert gcd_exact(fg, g * i_unit) == z - 1


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------


def test_squarefree_frozen_example():
    f = z**3 + z**2
    assert squarefree_decomposition(f) == [(z + 1, 1), (z, 2)]


def test_squarefree_reconstruction_property():
    rng = random.Random(45)
    for _ in range(40):
        roots = rng.sample([F(k, 2) for k in range(-8, 9)], rng.randint(1, 4))
        mults = [rng.randint(1, 3) for _ in roots]
        f = ExactPolynomial.one()
        for r, m in zip(roots, mults):
            f = f * ExactPolynomial.from_roots([r]) ** m
        lead = random_rational(rng) or F(1)
        f = f * lead
        parts = squarefree_decomposition(f)
        rebuilt = ExactPolynomial.constant(lead)
        for p, m in parts:
            rebuilt = rebuilt * p**m
            assert gcd_exact(p, p.derivative()).degree == 0
        assert rebuilt == f
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                assert gcd_exact(parts[a][0], parts[b][0]).degree == 0
        assert max(m for _, m in parts) == max(mults)


def test_squarefree_gaussian():
    f = (z - i_unit) ** 2 * (z + 1)
    parts = squarefree_decomposition(f)
    assert parts == [(z + 1, 1), (z - i_unit, 2)]


# ---------------------------------------------------------------------------
# real roots
# ---------------------------------------------------------------------------


def test_real_roots_frozen_example():
    f = z**3 - 3 * z**2 + 2 * z
    roots = real_roots_exact(f)
    assert [r.multiplicity for r in roots] == [1, 1, 1]
    values = [r.float_value() for r in roots]
    assert values == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)


def test_real_roots_multiplicity_and_order():
    f = (z - 1) ** 2 * z * (z + F(5, 2)) ** 3
    roots = real_roots_exact(f)
    assert [(round(r.float_value(), 6), r.multiplicity) for r in roots] == [
        (-2.5, 3),
        (0.0, 1),
        (1.0, 2),
    ]
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_real_roots_planted_random():
    rng = random.Random(46)
    for _ in range(50):
        planted = sorted(rng.sample([F(k, 4) for k in range(-20, 21)], rng.randint(1, 6)))
        f = ExactPolynomial.from_roots(planted)
        # optionally multiply by a positive irreducible quadratic
        if rng.random() < 0.5:
            c = F(rng.randint(1, 5))
            f = f * (z**2 + c)
        roots = real_roots_exact(f)
        assert len(roots) == len(planted)
        for r, expected in zip(roots, planted):
            refined = r.refine(F(1, 10**12))
            assert refined.lo <= expected <= refined.hi or refined.lo == expected


def test_real_root_refine_and_exact_hit():
    f = (z - F(1, 2)) * (z - F(9, 4))
    roots = real_roots_exact(f)
    r0 = roots[0].refine(F(1, 2**40))
    assert r0.hi - r0.lo <= F(1, 2**40)
    # dyadic roots are eventually hit exactly by dyadic bisection
    assert r0.is_exact or (r0.lo < F(1, 2) < r0.hi)


# factors of a real polynomial whose roots bisection meets in every way:
# dyadic roots (hit exactly), non-dyadic rationals, clusters down to 2**-60
# or 3**-40 apart, irrational pairs +-sqrt(c) and conjugate pairs
dyadic_roots = st.builds(lambda p, k: F(p, 2**k), st.integers(-40, 40), st.integers(0, 6))
odd_roots = st.builds(F, st.integers(-40, 40), st.sampled_from([3, 5, 7, 9, 15, 21]))
cluster_roots = st.builds(
    lambda base, gap, n: [base + j * gap for j in range(n)],
    st.one_of(dyadic_roots, odd_roots),
    st.sampled_from([F(1, 2**20), F(1, 2**60), F(1, 3**40), F(5, 7**12)]),
    st.integers(2, 3),
)
real_factors = st.one_of(
    dyadic_roots.map(lambda r: z - r),
    odd_roots.map(lambda r: z - r),
    cluster_roots.map(ExactPolynomial.from_roots),
    st.builds(lambda c: z**2 - c, st.fractions(1, 30, max_denominator=4)),
    st.builds(lambda a, b: (z - a) ** 2 + b * b, small_fractions, small_fractions.filter(bool)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(real_factors, st.integers(1, 3)), min_size=1, max_size=4))
def test_real_roots_match_fraction_bisection_oracle(factors):
    f = ExactPolynomial.one()
    for factor, mult in factors:
        f = f * factor**mult
    for factor, _ in squarefree_decomposition(f):
        ics = tuple(_int_primitive(factor._re))
        assert _isolate_squarefree(ics) == isolate_squarefree_fractions(ics)
    roots = real_roots_exact(f)
    assert roots == real_roots_fractions(f)
    for r in roots:
        for width in (F(1, 10**6), F(3, 7**20), F(1, 2**90), F(1, 10**40)):
            assert r.refine(width) == refine_fractions(r, width)
        assert r.float_value() == float_value_fractions(r)
        assert r.float_value(1e-40) == float_value_fractions(r, 1e-40)
        assert r.rational_value() == rational_value_fractions(r)


def test_real_roots_far_below_the_recursion_limit():
    # 1900 bisection levels separate the first two roots; a recursive
    # bisection raised RecursionError here
    e = F(1, 3**1200)
    planted = [e, 2 * e, F(1)]
    roots = real_roots_exact(ExactPolynomial.from_roots(planted))
    assert [r.rational_value() for r in roots] == planted


@settings(max_examples=300, deadline=None)
@given(st.fractions(-50, 50, max_denominator=10**6), st.fractions(0, 3, max_denominator=10**6))
def test_simplest_between_matches_recursive_oracle(lo, width):
    assert _simplest_between(lo, lo + width) == simplest_between_recursive(lo, lo + width)


def test_rational_root_with_a_long_continued_fraction():
    # F(1500)/F(1501) has 1500 partial quotients; a recursive search for the
    # simplest rational in its interval raised RecursionError
    a, b = 1, 1
    for _ in range(1500):
        a, b = b, a + b
    f = ExactPolynomial.from_roots([F(a, b)]) * (z**2 - 2)
    values = [r.rational_value() for r in real_roots_exact(f)]
    assert values == [None, F(a, b), None]


def test_count_distinct_real_roots():
    assert count_distinct_real_roots((z - 1) ** 5) == 1
    assert count_distinct_real_roots(z**2 + 1) == 0
    assert count_distinct_real_roots(z**4 - 1) == 2
    rng = random.Random(47)
    for _ in range(40):
        f = random_poly(rng, rng.randint(1, 6))
        assert count_distinct_real_roots(f) == len(real_roots_exact(f))


def test_cauchy_index_matches_pole_oracle():
    # repeated and shared roots on purpose: the sequence must stop at the gcd
    rng = random.Random(48)
    pool = [F(-2), F(-1), F(0), F(1, 2), F(1), F(2)]
    extras = [ExactPolynomial.one(), z**2 + 1, z**2 - 2]
    for _ in range(300):
        roots_f = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        roots_g = [rng.choice(pool) for _ in range(rng.randint(0, len(roots_f) - 1))]
        extra = rng.choice(extras)
        f = ExactPolynomial.from_roots(roots_f) * extra
        g = ExactPolynomial.from_roots(roots_g) * F(rng.choice([-3, -1, 2]), rng.randint(1, 4))
        h = gcd_from_factor_multisets(roots_f, roots_g)
        expected = cauchy_index_real_line(g.exact_div(h), f.exact_div(h))
        assert cauchy_index(f, g) == (expected, h.degree)
        distinct = len(set(roots_f)) + (2 if extra == z**2 - 2 else 0)
        assert count_distinct_real_roots(f) == distinct


def test_real_roots_rejects_nonreal_and_zero():
    with pytest.raises(ValueError):
        real_roots_exact(ExactPolynomial.zero())
    with pytest.raises(ValueError):
        real_roots_exact(z - i_unit)


# ---------------------------------------------------------------------------
# bounds, numeric roots
# ---------------------------------------------------------------------------


def test_cauchy_bound_values():
    assert cauchy_root_bound([z**2]) == 1
    assert cauchy_root_bound([z - 3]) == 4
    assert cauchy_root_bound([z**2 - 2 * z + 1]) == 3
    assert cauchy_root_bound([z**2, z - 3]) == 4


def test_cauchy_bound_contains_all_roots():
    rng = random.Random(48)
    polys = [random_poly(rng, rng.randint(1, 7), gaussian=(k % 3 == 0)) for k in range(30)]
    bound = float(cauchy_root_bound(polys))
    for f in polys:
        for cl in complex_roots_numeric(f):
            assert abs(cl.center) < bound


def test_complex_roots_frozen_example():
    clusters = complex_roots_numeric((z - 1) ** 2)
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 2
    assert abs(clusters[0].center - 1.0) < 1e-6
    assert clusters[0].radius <= 1e-6


def test_complex_roots_planted_products():
    # bulk agreement statistics: planted factored products, degree <= 10
    rng = random.Random(49)
    polys = []
    planted = []
    for _ in range(1000):
        deg = rng.randint(1, 10)
        roots = rng.sample(
            [complex(a / 2, b / 2) for a in range(-6, 7) for b in range(-4, 5)], deg
        )
        planted.append(sorted(roots, key=lambda c: (c.real, c.imag)))
        polys.append(
            ExactPolynomial.from_roots(
                [
                    GaussianRational(F(int(2 * r.real), 2), F(int(2 * r.imag), 2)).canonical()
                    for r in roots
                ]
            )
        )
    results = complex_roots_many(polys)
    hits = 0
    for expected, clusters in zip(planted, results):
        centers = [
            cl.center for cl in clusters for _ in range(cl.multiplicity)
        ]
        ok = len(centers) == len(expected)
        if ok:
            pool = list(centers)
            for want in expected:
                best = min(pool, key=lambda c: abs(c - want))
                if abs(best - want) < 1e-7:
                    pool.remove(best)
                else:
                    ok = False
                    break
        if ok:
            hits += 1
    assert hits >= 990


def test_aberth_batch_matches_every_row_iteration_bitwise():
    # rows retire once all their roots stop; the rest must see the same bits
    rng = np.random.default_rng(51)
    for _ in range(60):
        d = int(rng.integers(1, 10))
        rows = int(rng.integers(1, 40))
        roots = rng.integers(-3, 4, size=(rows, d)) + 1j * rng.integers(-2, 3, size=(rows, d))
        roots[: rows // 2, : d // 2] = roots[: rows // 2, :1]  # planted multiple roots
        coeffs = np.array([np.poly(r)[::-1] for r in roots], dtype=complex)
        coeffs = coeffs / coeffs[:, -1:]
        for max_iter, offset in ((120, 0.41), (9, 1.13)):
            got = _aberth_batch(coeffs.copy(), max_iter, offset)
            want = aberth_every_row(coeffs.copy(), max_iter, offset)
            assert got.tobytes() == want.tobytes()


def test_cluster_roots_matches_full_scan_bitwise():
    rng = random.Random(52)
    for _ in range(400):
        k = rng.randint(1, 9)
        base = [complex(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(k)]
        # near-coincident pairs exercise merging; spread ones the shortcut
        roots = [b + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-9, -1)
                 for b in base]
        tol = 10.0 ** rng.randint(-8, 0)
        got = [(c.center, c.radius, c.multiplicity) for c in _cluster_roots(roots, tol)]
        want = cluster_roots_scan(roots, tol)
        assert repr(got) == repr(want)


def test_complex_roots_multiplicity_sums():
    rng = random.Random(50)
    for _ in range(20):
        f = random_poly(rng, rng.randint(1, 8), gaussian=True)
        clusters = complex_roots_numeric(f)
        assert sum(c.multiplicity for c in clusters) == f.degree


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_resultant_known_values():
    assert resultant_exact(z - 1, z + 1) == 2
    f = z * (z - 1) * (z - 2)
    assert resultant_exact(f, f.derivative()) == -4
    assert resultant_exact(z - 3, ExactPolynomial.constant(5)) == 5


def test_resultant_zero_iff_common_root():
    assert resultant_exact((z - 2) * (z + 1), (z - 2) * (z + 5)) == 0
    assert resultant_exact((z - 2), (z + 2)) != 0


def test_resultant_matches_root_product_oracle():
    rng = random.Random(51)
    for _ in range(40):
        f = random_poly(rng, rng.randint(1, 5))
        g = random_poly(rng, rng.randint(1, 5))
        exact = resultant_exact(f, g)
        approx = resultant_from_roots(f, g)
        assert abs(complex(float(exact)) - approx) <= 1e-6 * max(1.0, abs(approx))


def test_resultant_gaussian():
    r = resultant_exact(z - i_unit, z + i_unit)
    assert r == GaussianRational(F(0), F(2))


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(52)
    for k in range(120):
        gaussian = k % 2 == 1
        f = random_poly(rng, rng.randint(0, 5), monic=False, gaussian=gaussian)
        g = random_poly(rng, rng.randint(0, 5), monic=k % 3 == 0, gaussian=gaussian and k % 4 == 1)
        exact = resultant_exact(f, g)
        assert exact == resultant_sylvester(f, g)
        assert isinstance(exact, F) or not exact.is_real
    # a shared root makes the resultant vanish over Q(i) as over Q
    f = random_poly(rng, 3, gaussian=True) * (z - i_unit)
    assert resultant_exact(f, (z - i_unit) * (z + 3)) == 0 == resultant_sylvester(f, z - i_unit)


def test_resultant_constant_inputs_are_canonical():
    one_i = ExactPolynomial((i_unit,))
    r = resultant_exact(one_i, z**2 + 1)
    assert r == F(-1) and type(r) is F
    assert resultant_exact(z**2 + 1, one_i) == F(-1)
    assert resultant_exact(one_i, z**3) == GaussianRational(F(0), F(-1))
    assert resultant_exact(one_i, one_i) == 1
    assert resultant_exact(ExactPolynomial.constant(F(2, 3)), 2 * z**2 + 1) == F(4, 9)
    assert resultant_exact(3 * z - 1, ExactPolynomial.constant(F(-1, 2))) == F(-1, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_poly_json_round_trip():
    f = ExactPolynomial((F(1, 2), 0, 1))
    assert poly_to_json(f) == ["1/2", "0", "1"]
    assert poly_from_json(["1/2", "0", "1"]) == f
    g = (z - i_unit) * (z - 2)
    assert poly_from_json(poly_to_json(g)) == g


def test_scalar_json_forms():
    assert scalar_to_json(F(-3, 4)) == "-3/4"
    assert scalar_from_json("-3/4") == F(-3, 4)
    assert scalar_from_json(7) == F(7)
    assert scalar_from_json({"re": "1", "im": "2"}) == GaussianRational(F(1), F(2))
    assert scalar_from_json({"re": "1", "im": "0"}) == F(1)
    with pytest.raises(ValueError):
        scalar_from_json(0.5)
    with pytest.raises(ValueError):
        poly_from_json("nope")
