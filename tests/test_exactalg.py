import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nonresultant import exactalg
from nonresultant.exactalg import (
    ExactPolynomial,
    GaussianRational,
    NonConvergenceError,
    cauchy_index,
    cauchy_root_bound,
    complex_roots_many,
    complex_roots_numeric,
    count_distinct_real_roots,
    gcd_exact,
    gcd_many,
    has_real_root_between,
    interpolate_equispaced,
    poly_from_json,
    poly_to_json,
    real_roots_exact,
    resultant_exact,
    scalar_from_json,
    scalar_to_json,
    sign_at,
    squarefree_decomposition,
    sturm_count,
)

from nonresultant.exactalg import (
    _backward_error_ratios,
    _cluster_rows,
    _eigenvalues,
    _int_primitive,
    _isolate_squarefree,
    _link_rows,
    _root_bound_exponent,
    _scalar_parts,
)
from oracles import (
    backward_error_ratio_scalar,
    cauchy_index_real_line,
    cluster_roots_scan,
    float_value_fractions,
    from_roots_list_pass,
    g_prem_by_products,
    g_prs_by_products,
    gcd_euclid,
    gcd_from_factor_multisets,
    gcd_pairwise,
    isolate_squarefree_every_point,
    isolate_squarefree_fractions,
    lagrange,
    rational_value_fractions,
    real_roots_fractions,
    refine_fractions,
    resultant_from_roots,
    resultant_sylvester,
    scalar_from_json_fractions,
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


TINY = F(1, 2**4000)
BIG = 10**300
# small and huge numerators and denominators, and a gap of 2^-4000
construction_rationals = st.one_of(
    small_fractions,
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.sampled_from([TINY, -TINY, 1 + TINY, BIG - TINY]),
)
construction_roots = st.one_of(
    st.integers(-BIG, BIG),
    construction_rationals,
    st.builds(GaussianRational, construction_rationals, construction_rationals),
    st.builds(GaussianRational, st.just(0), construction_rationals),  # purely imaginary
    st.sampled_from([0, F(0), GaussianRational(F(0), F(0))]),
)


@st.composite
def root_lists(draw):
    """Roots of degree <= 40, with repeats drawn from the list itself, and
    every nonreal root followed by its conjugate when `paired` is set."""
    roots = draw(st.lists(construction_roots, max_size=14))
    if roots:
        roots += draw(st.lists(st.sampled_from(roots), max_size=6))
    paired = draw(st.booleans())
    if paired:
        roots += [r.conjugate() for r in roots if isinstance(r, GaussianRational)]
    return draw(st.permutations(roots)), paired


@settings(max_examples=60, deadline=None)
@given(root_lists())
@example(([], False))
@example(([GaussianRational(F(k, 3), F(BIG, 7)) for k in range(20)] * 2, False))
@example(([0, 0, GaussianRational(F(0), TINY), GaussianRational(F(0), -TINY), 1 + TINY], True))
def test_from_roots_matches_the_list_pass_and_the_product_of_factors(drawn):
    roots, paired = drawn
    f = ExactPolynomial.from_roots(roots)
    oracle = from_roots_list_pass(roots)
    assert (f._re, f._im, f._den) == (oracle._re, oracle._im, oracle._den)
    product = ExactPolynomial.one()
    for r in roots:
        product = product * ExactPolynomial((-r, 1))
    assert f == product
    assert f.degree == len(roots) and f.is_monic
    if not roots:
        assert (f._re, f._im, f._den) == ((1,), None, 1)
    if paired:
        assert f._im is None


class _FractionSubclass(F):
    pass


@pytest.mark.parametrize(
    "x, parts",
    [
        (_FractionSubclass(6, -8), (-3, 0, 4)),
        (True, (1, 0, 1)),
        (False, (0, 0, 1)),
        (-7, (-7, 0, 1)),
        (BIG, (BIG, 0, 1)),
        (F(3, 4), (3, 0, 4)),
        (GaussianRational(F(1, 2), F(-1, 3)), (3, -2, 6)),
    ],
)
def test_scalar_parts_of_each_accepted_type(x, parts):
    assert _scalar_parts(x) == parts
    as_fraction = F(parts[0], parts[2]) if not parts[1] else x
    assert ExactPolynomial.from_roots([x, x]) == ExactPolynomial.from_roots([as_fraction] * 2)
    assert ExactPolynomial((x, 1)) == ExactPolynomial((as_fraction, 1))
    assert (z**2 + 3)(x) == (z**2 + 3)(as_fraction)


@pytest.mark.parametrize("x", [0.5, "1"])
def test_inexact_scalars_are_refused_with_the_same_message(x):
    message = (
        f"exact coefficient required, got {type(x).__name__}; "
        "wrap floats explicitly via Fraction(x) if that is intended"
    )
    with pytest.raises(TypeError) as err:
        ExactPolynomial.from_roots([F(1), x])
    assert str(err.value) == message
    with pytest.raises(TypeError) as err:
        ExactPolynomial((1, x))
    assert str(err.value) == message
    # evaluation has a numeric path for floats; anything else is refused
    if isinstance(x, float):
        assert (z**2 + 3)(x) == 3.25
    else:
        with pytest.raises(TypeError, match=r"^cannot evaluate at str$"):
            (z**2 + 3)(x)


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
        ExactPolynomial.from_roots([F(2, 4), GaussianRational(F(0), F(-3, 3))]),
    ]
    assert all(p == built[0] for p in built)
    assert len({hash(p) for p in built}) == 1
    reals = [z - half, ExactPolynomial((F(-2, 4), GaussianRational(F(1), F(0)))), (2 * z - 1) * half]
    assert len(set(reals)) == 1
    assert reals[0].is_real and reals[1].is_real
    assert (z - i_unit).conjugate() == z + i_unit
    assert hash(ExactPolynomial.zero()) == hash(z - z)


def test_exact_div_by_gaussian_leading_coefficient():
    lead = GaussianRational(F(2), F(-3))
    g = z**2 * lead + F(1, 3) * z + i_unit
    f = ExactPolynomial.from_roots([F(1, 2), i_unit, F(-2), GaussianRational(F(1), F(1, 5))])
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


# (1+i)**9 * (2+i)**4 * 6: Gaussian content the PRS must carry through
LARGE_CONTENT = GaussianRational(F(1), F(1)) ** 9 * GaussianRational(F(2), F(1)) ** 4 * 6
LARGE_CONTENT_SCALES = [
    LARGE_CONTENT,
    LARGE_CONTENT * GaussianRational(F(3), F(-2)) ** 5 * F(1, 7),
    F(-12),
    GaussianRational(F(1), F(1)) ** 16,
]
GAUSSIAN_ROOT_POOL = [
    GaussianRational(F(a, c), F(b, c)).canonical()
    for a in range(-2, 3)
    for b in range(-2, 3)
    for c in (1, 3)
]


@settings(max_examples=150, deadline=None)
@given(
    polys_over_a_field(5, 4, 3),
    st.sampled_from([F(1), F(-3, 5), *LARGE_CONTENT_SCALES]),
    st.sampled_from([F(1), F(1, 7), *LARGE_CONTENT_SCALES]),
)
@example((ExactPolynomial.zero(), z - 1, ExactPolynomial.one()), F(1), F(1))
def test_exact_div_recovers_quotients_and_refuses_remainders(polys, sf, sg):
    f, g, r = polys
    f, g = f * sf, g * sg
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            f.exact_div(g)
        return
    assert (f * g).exact_div(g) == f
    r = ExactPolynomial(r.coefficients[: g.degree])  # deg r < deg g
    if not r.is_zero:
        with pytest.raises(ValueError, match="division was expected to be exact"):
            (f * g + r).exact_div(g)


def test_prs_on_gaussian_inputs_with_large_content():
    # the PRS runs on the numerators as stored: scale planted products by
    # scalars with large Gaussian content and leave them non-monic
    rng = random.Random(54)
    for _ in range(40):
        roots = [[rng.choice(GAUSSIAN_ROOT_POOL) for _ in range(rng.randint(1, 5))] for _ in range(3)]
        polys = [ExactPolynomial.from_roots(rs) * rng.choice(LARGE_CONTENT_SCALES) for rs in roots]
        f, g, h = polys
        assert not f.is_monic
        assert gcd_exact(f, g) == gcd_from_factor_multisets(roots[0], roots[1])
        common_gh = list((Counter(roots[1]) & Counter(roots[2])).elements())
        assert gcd_many(polys) == gcd_from_factor_multisets(roots[0], common_gh)
        mults = Counter(roots[0])
        repeated = list((mults - Counter(set(roots[0]))).elements())
        assert gcd_exact(f, f.derivative()) == gcd_from_factor_multisets(roots[0], repeated)
        want = [
            (ExactPolynomial.from_roots([r for r in mults if mults[r] == k]), k)
            for k in sorted(set(mults.values()))
        ]
        assert squarefree_decomposition(f) == want
        assert resultant_exact(f, g) == resultant_sylvester(f, g)


def test_gaussian_kernel_matches_the_product_kernel_bit_for_bit():
    # random Gaussian numerators, then the large-content products above,
    # some with a common factor so the PRS ends in a zero remainder
    rng = random.Random(57)

    def pairs(k, bits):
        out = [(rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)) for _ in range(k)]
        return out[:-1] + [out[-1] if out[-1] != (0, 0) else (1, -1)]

    inputs = []
    for _ in range(150):
        db = rng.randint(1, 7)
        inputs.append((pairs(db + rng.randint(0, 4) + 1, rng.choice((3, 40, 300))), pairs(db + 1, 30)))
    for _ in range(150):
        common = [rng.choice(GAUSSIAN_ROOT_POOL) for _ in range(rng.randint(0, 3))]
        a, b = (
            ExactPolynomial.from_roots(common + [rng.choice(GAUSSIAN_ROOT_POOL) for _ in range(k)])
            * rng.choice(LARGE_CONTENT_SCALES)
            for k in sorted((rng.randint(1, 6), rng.randint(1, 6)), reverse=True)
        )
        inputs.append((exactalg._ZI.numerators(a), exactalg._ZI.numerators(b)))
    endings = Counter()
    for a, b in inputs:
        assert exactalg._g_prem(a, b) == g_prem_by_products(a, b)
        got = exactalg._prs(a, b, exactalg._ZI)
        assert got == g_prs_by_products(a, b)
        endings["zero" if not got[1] else "constant"] += 1
    assert min(endings.values()) >= 20


def test_gaussian_divide_raises_on_an_inexact_quotient():
    assert exactalg._ZI.divide([(6, 4), (0, 10), (0, 0)], (1, 1)) == [(5, -1), (5, 5), (0, 0)]
    assert exactalg._ZI.divide([(6, -4)], (2, 0)) == [(3, -2)]
    with pytest.raises(ArithmeticError, match="inexact division in Z\\[i\\]"):
        exactalg._ZI.divide([(6, 4), (1, 0)], (1, 1))
    with pytest.raises(ArithmeticError):
        exactalg._ZI.divide([(3, 4)], (2, 0))


def test_gcd_many_folds_mixed_families_like_the_pairwise_fold():
    # families of 2-6 entries mixing zero polynomials, nonzero constants,
    # real and Gaussian products, and the large contents above
    rng = random.Random(56)
    scales = [F(1), LARGE_CONTENT, LARGE_CONTENT * F(1, 7), F(-12), GaussianRational(F(1), F(1)) ** 16]
    pool = [F(k, 2) for k in range(-2, 3)] + [GaussianRational(F(a), F(b)) for a in (-1, 1) for b in (-1, 2)]
    kinds = ["zero", "constant", "product", "product", "product"]
    seen = Counter()
    for _ in range(150):
        family, root_lists = [], []
        for _ in range(rng.randint(2, 6)):
            kind = rng.choice(kinds)
            if kind == "zero":
                family.append(ExactPolynomial.zero())
                continue
            roots = [] if kind == "constant" else [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            family.append(ExactPolynomial.from_roots(roots) * rng.choice(scales))
            root_lists.append(roots)
        if not root_lists:
            seen["zero family"] += 1
            with pytest.raises(ValueError, match="gcd of the zero family"):
                gcd_many(family)
            continue
        rest = Counter(root_lists[-1])
        for roots in root_lists[1:]:
            rest &= Counter(roots)
        want = gcd_from_factor_multisets(root_lists[0], list(rest.elements()))
        got = gcd_many(family)
        seen["gaussian" if not got.is_real else "constant" if got.degree == 0 else "real"] += 1
        assert got == want
        assert got == gcd_pairwise(family, gcd_exact)
        assert got == gcd_pairwise(family)
        if len(family) == 2 and not all(f.is_zero for f in family):
            assert gcd_exact(*family) == gcd_euclid(*family)
    assert min(seen[k] for k in ("zero family", "constant", "real", "gaussian")) >= 5


def test_gcd_errors():
    zero = ExactPolynomial.zero()
    with pytest.raises(ValueError, match=r"gcd\(0, 0\) is undefined"):
        gcd_exact(zero, zero)
    with pytest.raises(ValueError, match="gcd of an empty family"):
        gcd_many([])
    with pytest.raises(ValueError, match="gcd of the zero family"):
        gcd_many([zero, zero, zero])
    assert gcd_many([zero, ExactPolynomial.constant(GaussianRational(F(0), F(3))), z]) == ExactPolynomial.one()
    assert gcd_many([zero, 5 * (z - 1) ** 2, zero, (z - 1) * z]) == z - 1


def test_gaussian_gcd_with_large_content_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(f):
        def scalar(c):
            c = GaussianRational.of(c)
            return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
                c.im.numerator, c.im.denominator
            )

        return sympy.Poly([scalar(c) for c in reversed(f.coefficients)], x, domain="QQ_I")

    rng = random.Random(55)
    for _ in range(30):
        h = random_poly(rng, rng.randint(0, 3), monic=False, gaussian=True)
        f = random_poly(rng, rng.randint(1, 4), monic=False, gaussian=True) * h * LARGE_CONTENT
        g = random_poly(rng, rng.randint(1, 4), monic=False, gaussian=True) * h
        want = sympy.gcd(to_sympy(f), to_sympy(g)).monic()
        assert to_sympy(gcd_exact(f, g)) == want


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


def test_float_value_is_the_correctly_rounded_root():
    root = real_roots_exact(z**2 - 2)[1]
    assert root.float_value() == math.sqrt(2)
    assert float(root) == root.float_value()
    for c in range(3, 200):
        if math.isqrt(c) ** 2 != c:
            assert real_roots_exact(z**2 - c)[1].float_value() == math.sqrt(c)


@pytest.mark.parametrize("f", [z**2 - 2, z**5 - 3 * z + 1])
def test_float_value_takes_few_exact_evaluations(monkeypatch, f):
    # quadratic interval refinement: halving takes 53-55 evaluations per root
    calls = []
    value = exactalg._value_at

    def counting_value(cs, p, q):
        calls.append(p)
        return value(cs, p, q)

    roots = real_roots_exact(f)
    expected = [float_value_fractions(r) for r in roots]
    monkeypatch.setattr(exactalg, "_value_at", counting_value)
    for root, want in zip(roots, expected):
        calls.clear()
        assert root.float_value() == want
        assert 0 < len(calls) <= 30


def _surd_value(q: ExactPolynomial, a: F, s: int, c: int) -> tuple:
    """q(a + s*sqrt(c)) as (A, B) with value A + B*sqrt(c), by Horner in
    Q(sqrt(c))."""
    x, y = F(0), F(0)
    for k in reversed(q.coefficients):
        x, y = x * a + y * s * c + k, x * s + y * a
    return x, y


def _surd_sign(A: F, B: F, c: int) -> int:
    if A >= 0 and B >= 0 or A <= 0 and B <= 0:
        total = A + B
        return (total > 0) - (total < 0)
    # mixed signs: the larger of A^2 and c B^2 decides
    gap = A * A - c * B * B
    return ((A > 0) - (A < 0)) * ((gap > 0) - (gap < 0))


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=2),
)
# time_limit is a stateless factory, so sharing it between examples is safe
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sign_of_matches_quadratic_surd_arithmetic(time_limit, a, c, s, multiplier, remainder):
    # q = w * ((z - a)^2 - c) + v vanishes at a +- sqrt(c) exactly when v
    # does; the roots' factor carries a complex pair besides.  Halving alone
    # would never settle a zero at an irrational root, hence the limit.
    quadratic = (z - a) ** 2 - c
    q = ExactPolynomial(tuple(multiplier)) * quadratic + ExactPolynomial(tuple(remainder))
    root = real_roots_exact(quadratic * (z * z + 1))[(s + 1) // 2]
    with time_limit(5):
        assert root.sign_of(q) == _surd_sign(*_surd_value(q, a, s, c), c)
        assert root.sign_of(quadratic) == 0


@pytest.mark.parametrize("root", [F(1, 2**30), F(1, 10**30), F(1, 10**300)])
def test_float_value_resolves_roots_far_below_one(root):
    # the companion roots +-sqrt(3) keep the small root inexact at isolation
    roots = real_roots_exact((z - root) * (z**2 - 3))
    assert roots[1].float_value() == float(root)
    assert float(roots[1]) == roots[1].float_value()


@pytest.mark.parametrize("sign", [1, -1])
def test_float_value_of_a_root_isolated_beyond_the_float_range(sign):
    # the isolating interval of 10**300 reaches out to 2**3322, past every float
    (root,) = real_roots_exact((z - sign * 10**300) * (z**2 + 10**700))
    assert max(abs(root.lo), abs(root.hi)) > 2**1024
    assert root.float_value() == sign * 1e300


def test_float_value_at_the_edge_of_the_float_range():
    # 2**1024 - 2**970 is halfway from the largest float to 2**1024, so it
    # rounds to an infinity, and every point below it to the largest float
    edge = 2**1024 - 2**970
    largest = math.ldexp(1 - 2**-53, 1024)
    for sign, end in ((1, -1), (-1, 0)):
        for c in (edge - 2**969, edge - 1, edge - F(1, 3)):
            for f in ((z - sign * c) * (z**2 + 3), (z - sign * c) * (z - F(1, 3)) * (z**2 - 2)):
                assert real_roots_exact(f)[end].float_value() == sign * largest
        for c in (edge, edge + F(1, 3), 10**400):
            for f in ((z - sign * c) * (z**2 + 3), (z - sign * c) * (z - F(1, 3)) * (z**2 - 2)):
                with pytest.raises(ValueError, match="beyond the float range"):
                    real_roots_exact(f)[end].float_value()
    with pytest.raises(ValueError, match="beyond the float range"):
        real_roots_exact(z**3 - 10**1000)[0].float_value()


# factors of the isolation family: roots at +-2**k, which a bound one
# power too small would put beyond it; dyadic roots that bisection hits
# exactly, which stay ends of the cells around them; huge and tiny roots;
# generic integer polynomials with coefficients up to 10**300; and
# z**3 + p z + q with |q| >> p, whose third chain element -(2p/3 z + q)
# vanishes at -3q/(2p), far beyond the root bound
power_roots = st.builds(lambda s, k: s * F(2) ** k, st.sampled_from([-1, 1]), st.integers(-30, 60))
hit_roots = st.builds(lambda m, k: F(m, 2**k), st.integers(-2**12, 2**12), st.integers(0, 12))
isolation_factors = st.one_of(
    st.one_of(power_roots, hit_roots).map(lambda r: z - r),
    st.builds(lambda a, b: a * z - b, st.integers(1, 10**300), st.integers(-10**300, 10**300).filter(bool)),
    st.lists(st.integers(-10**300, 10**300), min_size=3, max_size=5)
    .filter(lambda cs: cs[-1] and any(cs[:-1]))
    .map(ExactPolynomial),
    st.builds(lambda p, q: z**3 + p * z + q, st.integers(1, 9), st.integers(10**3, 10**300)),
)


def _far_chain_roots(cs, chain) -> bool:
    """Whether an element of the chain of cs has a real root at or beyond
    2**e, the bound past which isolation reads the count at infinity."""
    bound = F(2) ** _root_bound_exponent(cs)
    return any(
        abs(r.lo) >= bound or abs(r.hi) >= bound
        for c in chain[1:]
        if len(c) > 1
        for r in real_roots_exact(ExactPolynomial(c))
    )


@settings(max_examples=120, deadline=None)
@given(st.lists(isolation_factors, min_size=1, max_size=4))
@example([z - 2**40, z - 1])
@example([z**3 + z + 1000, z - 3])
def test_isolation_matches_the_every_point_oracle(factors):
    f = ExactPolynomial.one()
    for factor in factors:
        f = f * factor
    if f.degree > 12:
        f = factors[0]
    for factor, _ in squarefree_decomposition(f):
        ics = tuple(_int_primitive(factor._re))
        chain = factor.sturm_chain if factor.degree > 1 else None
        assert _isolate_squarefree(ics, chain) == isolate_squarefree_every_point(ics, chain)


# planted rational roots on and off the dyadic grid: 0, +-2**-j, k/4, k/8
# and thirds, with multiplicities 1-3, times a leading factor
grid_roots = st.one_of(
    st.just(F(0)),
    st.builds(lambda s, j: s * F(1, 2**j), st.sampled_from([-1, 1]), st.integers(0, 12)),
    st.builds(F, st.integers(-12, 12), st.just(4)),
    st.builds(F, st.integers(-24, 24), st.just(8)),
    st.builds(F, st.integers(-12, 12), st.just(3)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(grid_roots, st.integers(1, 3), min_size=1, max_size=6),
    st.fractions(-7, 7, max_denominator=5).filter(bool),
)
@example({F(k, 4): 1 for k in range(-2, 3)}, F(1))
@example({F(0): 2, F(1, 3): 1, F(1, 2): 3}, F(-2, 3))
def test_real_roots_of_planted_grid_roots_meet_the_isolation_contract(planted, lead):
    # the contract of any bisection rule: exact points are roots; an open
    # interval holds one planted root, and its squarefree factor changes
    # sign across it and vanishes at neither end (an end may be a root of
    # another factor); all are sorted and disjoint
    f = ExactPolynomial.constant(lead)
    for r, mult in planted.items():
        f = f * (z - r) ** mult
    roots = real_roots_exact(f)
    assert len(roots) == len(planted) == count_distinct_real_roots(f)
    assert all(a.hi <= b.lo for a, b in zip(roots, roots[1:]))
    values = []
    for root in roots:
        lo, hi = root.lo, root.hi
        if root.is_exact:
            assert sign_at(f, lo.numerator, lo.denominator) == 0
            inside = [lo]
        else:
            factor = ExactPolynomial(root._factor)
            ends = [sign_at(factor, x.numerator, x.denominator) for x in (lo, hi)]
            assert 0 not in ends and ends[0] != ends[1] and ends[0] == root._sign_lo
            inside = [r for r in planted if lo < r < hi]
        assert len(inside) == 1 and root.multiplicity == planted[inside[0]]
        assert root.float_value() == float_value_fractions(root) == float(inside[0])
        values += inside
    assert values == sorted(planted)


def test_exact_hits_cost_no_more_evaluations_than_roots_off_the_grid(monkeypatch):
    # the 13 roots k/4 are all hit exactly and stay ends of the cells around
    # them; the same roots shifted by 1/3 are never hit, and isolating them
    # is the baseline the hits must not exceed
    calls = []
    value = exactalg._value_at

    def counting_value(cs, p, q):
        calls.append(p)
        return value(cs, p, q)

    counts = []
    monkeypatch.setattr(exactalg, "_value_at", counting_value)
    for shift in (F(0), F(1, 3)):
        f = ExactPolynomial.from_roots([F(k, 4) + shift for k in range(-6, 7)])
        calls.clear()
        out = _isolate_squarefree(tuple(_int_primitive(f._re)), f.sturm_chain)
        assert len(out) == 13 and sum(lo == hi for lo, hi, _ in out) == (13 if shift == 0 else 0)
        counts.append(len(calls))
    assert counts[0] <= counts[1]


def test_root_bound_is_confirmed_and_fixes_the_count_beyond_it():
    # the bound exponent satisfies |a_d| 2**(e d) > sum |a_k| 2**(e k), so f
    # has no root of modulus >= 2**e; at e - 1 the roots +-2**k below sit
    # inside, and a count read from infinity there would be wrong
    rng = random.Random(71)
    for k in range(-8, 40):
        for f in ((z - F(2) ** k) * (z + 1), (z + F(2) ** k) * (z**2 - 3), (z - F(2) ** k) * (z**2 + F(2) ** k)):
            cs = tuple(_int_primitive(f._re))
            e = _root_bound_exponent(cs)
            d = len(cs) - 1
            bound = F(2) ** e
            assert abs(cs[-1]) * bound**d > sum(abs(a) * bound**j for j, a in enumerate(cs[:-1]))
            far = max(bound, cauchy_root_bound([f]))
            assert not has_real_root_between(f, bound, far) and not has_real_root_between(f, -far, -bound)
            # within a factor 16 of M = max |a_j / a_d|**(1/(d-j)), where
            # Fujiwara's bound is 2M: read from bit lengths, not scanned
            assert bound <= 16 * max(abs(F(a, cs[-1])) ** (1 / (d - j)) for j, a in enumerate(cs[:-1]) if a)
            assert _isolate_squarefree(cs, f.sturm_chain) == isolate_squarefree_every_point(cs, f.sturm_chain)
    # a chain element with a root beyond the bound leaves the count unchanged
    f = z**3 + z + 1000
    cs = tuple(f._re)
    assert _far_chain_roots(cs, f.sturm_chain)
    assert _isolate_squarefree(cs, f.sturm_chain) == isolate_squarefree_every_point(cs, f.sturm_chain)
    # coefficients of 10**300 take one bound, not a thousand doublings
    f = ExactPolynomial([rng.randint(-10**300, 10**300) for _ in range(12)] + [1])
    cs = tuple(f._re)
    assert _isolate_squarefree(cs, f.sturm_chain) == isolate_squarefree_every_point(cs, f.sturm_chain)


def test_float_value_near_and_at_a_tie_between_floats():
    # sqrt(c) lies within a relative 2**-100 of a point halfway between two
    # floats; the nearest float is the one on the root's side of the tie
    for e in (-40, -1, 0, 7, 60):
        tie = F(2) ** e * (1 + F(1, 2**53))
        below, above = float(tie * (1 - F(1, 2**60))), float(tie * (1 + F(1, 2**60)))
        assert below < above
        for nudge, expected in ((1 - F(1, 2**99), below), (1 + F(1, 2**99), above)):
            root = real_roots_exact(z**2 - tie * tie * nudge)[1]
            assert not root.is_exact
            assert root.float_value() == expected == float_value_fractions(root)
        # a root exactly at the tie rounds to the even neighbour; where
        # isolation hits the root 0 or tie - 2**-53 * 2**e, bisection never
        # has the tie as a midpoint
        for f in (
            (z - tie) * (z**2 - 2),
            z * (z - tie) * (z**2 - 2),
            ExactPolynomial.from_roots([tie - F(2) ** (e - 53), tie - F(2) ** (e - 54), tie]),
        ):
            (root,) = [r for r in real_roots_exact(f) if r.lo <= tie <= r.hi]
            assert root.float_value() == float(tie) == below == float_value_fractions(root)


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
@given(
    st.lists(st.tuples(real_factors, st.integers(1, 3)), min_size=1, max_size=4),
    st.sampled_from([F(1), F(-1), F(-3, 7), F(12)]),
)
def test_real_roots_match_fraction_bisection_oracle(factors, scalar):
    f = ExactPolynomial.constant(scalar)
    for factor, mult in factors:
        f = f * factor**mult
    for factor, _ in squarefree_decomposition(f):
        ics = tuple(_int_primitive(factor._re))
        assert _isolate_squarefree(ics, factor.sturm_chain) == isolate_squarefree_fractions(ics)
    roots = real_roots_exact(f)
    # the oracle runs Yun on every input, so the factor and the sign at lo
    # must not depend on f's leading coefficient or on whether f is squarefree
    assert roots == real_roots_fractions(f)
    assert roots == real_roots_exact(f.monic())
    for r in roots:
        for width in (F(1, 10**6), F(3, 7**20), F(1, 2**90), F(1, 10**40)):
            assert r.refine(width) == refine_fractions(r, width)
        assert r.float_value() == float_value_fractions(r)
        assert r.rational_value() == rational_value_fractions(r)


def test_real_roots_far_below_the_recursion_limit():
    # 1900 bisection levels separate the first two roots; a recursive
    # bisection raised RecursionError here
    e = F(1, 3**1200)
    planted = [e, 2 * e, F(1)]
    roots = real_roots_exact(ExactPolynomial.from_roots(planted))
    assert [r.rational_value() for r in roots] == planted


@pytest.mark.parametrize("bits", [1000, 4000])
def test_real_roots_separate_factors_at_any_distance(bits):
    # r is sqrt(2) truncated to `bits` binary digits: the Yun factors
    # z**2 - 2 and z - r have roots 2**-bits apart, which took more than the
    # 400 separation passes an earlier version allowed
    r = F(math.isqrt(2 * 4**bits), 2**bits)
    f = (z**2 - 2) ** 2 * (z - r)
    roots = real_roots_exact(f)
    assert [root.multiplicity for root in roots] == [2, 1, 2]
    assert roots == real_roots_fractions(f)


@pytest.mark.parametrize(
    "clusters",
    [
        {10**300: (1, 2, 3)},
        {-(10**300) - 7: (3, 1, 2)},
        {10**300 + 5: (1, 1), -(10**300): (2, 3)},
        {10**300 + 1: (3, 2), 10**300 + 2: (3, 2)},
    ],
    ids=["above", "below", "equal-multiplicities", "degree-10"],
)
def test_real_roots_of_planted_roots_two_to_the_minus_4000_apart(clusters):
    # each cluster plants the roots base + k / 2**4000 (k = 0, 1, ...) with
    # the listed multiplicities, so Yun's factors hold roots 2**-4000 apart,
    # within one factor or across two
    planted = [
        base + F(k, 2**4000)
        for base, mults in clusters.items()
        for k, mult in enumerate(mults)
        for _ in range(mult)
    ]
    f = ExactPolynomial.from_roots(planted)
    assert f.degree <= 10
    counts = Counter(planted)
    roots = real_roots_exact(f)
    assert [r.multiplicity for r in roots] == [counts[x] for x in sorted(counts)]
    for root, x in zip(roots, sorted(counts)):
        assert root.lo == x == root.hi or root.lo < x < root.hi
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo
    repeated = list((counts - Counter(counts.keys())).elements())
    assert gcd_exact(f, f.derivative()) == gcd_from_factor_multisets(planted, repeated)


# the rational root theorem's grid (1/lc)Z: a rational root with a small,
# non-dyadic denominator under a leading coefficient up to 10**300, and
# irrational roots p/q +- sqrt(c)/2**k, k >= 200, beside the rational p/q
small_rationals = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 3, 5, 7, 9, 11, 15, 21]))
big_lc_factors = st.builds(
    lambda r, e, c, scalar: (scalar * (z - r) * (10**e * z**2 + c), [r]),
    small_rationals,
    st.integers(0, 300),
    st.integers(1, 10**6),
    st.sampled_from([F(1), F(-1), F(-3, 7), F(12)]),
)
near_rational_factors = st.builds(
    lambda r, c, k, keep: ((z - r) ** keep * ((z - r) ** 2 - F(c, 4**k)), [r] * keep),
    small_rationals,
    st.sampled_from([2, 3, 5, 6, 7, 10, 11]),
    st.integers(200, 230),
    st.integers(0, 1),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(big_lc_factors, near_rational_factors))
def test_rational_value_matches_the_fraction_oracle_on_large_and_near_rational_roots(planted):
    f, rationals = planted
    roots = real_roots_exact(f)
    values = [r.rational_value() for r in roots]
    assert values == [rational_value_fractions(r) for r in roots]
    assert [v for v in values if v is not None] == rationals


@pytest.mark.parametrize("width", [0, -1])
def test_refine_to_a_width_that_is_not_positive_raises(width):
    root = real_roots_exact(z**2 - 2)[1]
    with pytest.raises(ValueError, match="positive"):
        root.refine(width)
    with pytest.raises(ValueError, match="positive"):
        real_roots_exact(z - F(1, 3))[0].refine(width)


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


# a real polynomial as a multiset of coprime irreducible factors: distinct
# rational roots, distinct irrational pairs +-sqrt(p) and distinct conjugate
# pairs, each with a multiplicity, under a scalar with content and sign
planted_real_polys = st.tuples(
    st.dictionaries(st.fractions(-9, 9, max_denominator=5), st.integers(1, 3), max_size=4),
    st.dictionaries(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), max_size=2),
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(1, 3)), st.integers(1, 3), max_size=2
    ),
    st.sampled_from([F(1), F(-1), F(6), F(-10, 3), F(21, 4)]),
)


@settings(max_examples=200, deadline=None)
@given(planted_real_polys)
def test_sturm_count_matches_the_planted_factors(planted):
    rational, irrational, conjugate, scalar = planted
    f = ExactPolynomial.constant(scalar)
    for r, k in rational.items():
        f = f * (z - r) ** k
    for p, k in irrational.items():
        f = f * (z**2 - p) ** k
    for (a, b), k in conjugate.items():
        f = f * ((z - a) ** 2 + b * b) ** k
    distinct = len(rational) + 2 * len(irrational)
    repeated = sum(k - 1 for k in rational.values()) + sum(
        2 * (k - 1) for k in (*irrational.values(), *conjugate.values())
    )
    assert sturm_count(f) == (distinct, repeated)
    assert count_distinct_real_roots(f) == distinct
    if f.degree > 0:
        assert len(real_roots_exact(f)) == distinct


def test_sturm_count_matches_sympy_real_roots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(57)
    for _ in range(60):
        f = ExactPolynomial.constant(random_rational(rng) or F(1))
        for _ in range(rng.randint(1, 4)):
            f = f * random_poly(rng, rng.randint(1, 3), monic=False) ** rng.randint(1, 3)
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coefficients)]
        poly = sympy.Poly(coeffs, x, domain="QQ")
        distinct = len(set(poly.real_roots()))
        assert sturm_count(f) == (distinct, poly.gcd(poly.diff(x)).degree())


def test_real_roots_of_squarefree_input_skip_yun(monkeypatch):
    def refuse(*args):
        raise AssertionError("Yun's algorithm ran on a squarefree input")

    inputs = ((z**2 - 2) * (z - F(1, 3)), -3 * (z**5 - 3 * z + 1), F(2, 7) * (z - 4))
    expected = [real_roots_fractions(f) for f in inputs]
    monkeypatch.setattr(exactalg, "squarefree_decomposition", refuse)
    monkeypatch.setattr(exactalg, "_yun", refuse)
    assert [real_roots_exact(f) for f in inputs] == expected
    with pytest.raises(AssertionError, match="Yun"):
        real_roots_exact((z - 1) ** 2)


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


def _planted_products():
    """1000 products of distinct half-integer Gaussian roots, degree <= 10,
    and their sorted planted roots."""
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
    return polys, planted


def test_complex_roots_planted_products():
    # bulk agreement statistics: planted factored products, degree <= 10
    polys, planted = _planted_products()
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


def test_every_row_goes_through_the_backward_error_check(monkeypatch):
    # monic rows whose roots are simple are checked like linked, scaled and
    # overflowing ones: no row is certified without the check
    checked = []
    real_ratios = exactalg._backward_error_ratios

    def spy(coef, *clusters):
        checked.extend(tuple(row) for row in coef.tolist())
        return real_ratios(coef, *clusters)

    simple = [z**3 - 2, (z - 1) * (z + 2) * (z**2 + 1), z - F(1, 3), z**2 + z * i_unit + 1]
    linked = (z - 1) ** 2 * (z + 2)  # its double root links
    scaled = 3 * z**2 - 1  # not monic
    overflow = z**2 - 10**200 * z  # the scale at the root 1e200 is infinite
    polys = [*simple, linked, scaled, overflow]
    monkeypatch.setattr("nonresultant.exactalg._backward_error_ratios", spy)
    with np.errstate(over="ignore"):
        got = complex_roots_many(polys)
    assert Counter(checked) == Counter(f.complex_coefficients for f in polys)
    assert [c.multiplicity for c in got[len(simple)]] == [1, 2]
    for f, clusters in zip(polys, got):
        assert sum(c.multiplicity for c in clusters) == f.degree


def _re_im(c):
    return round(c.real, 2), round(c.imag, 2)


def test_eigenvalue_starts_are_the_roots():
    # real rows go through the real eigensolver, Gaussian rows the complex one
    rng = np.random.default_rng(54)
    for gaussian in (False, True):
        for d in range(1, 9):
            roots = rng.integers(-3, 4, size=(5, d)) + 1j * rng.integers(-2, 3, size=(5, d))
            if not gaussian:  # real roots and conjugate pairs
                pairs = d // 2
                roots[:, d - pairs :] = roots[:, :pairs].conj()
                roots[:, pairs : d - pairs] = roots[:, pairs : d - pairs].real
            coeffs = np.array([np.poly(r)[::-1] for r in roots], dtype=complex)
            assert gaussian or not coeffs.imag.any()
            starts = _eigenvalues(coeffs)
            assert starts.shape == (5, d) and starts.dtype == complex
            for got, want in zip(starts, roots):
                got, want = sorted(got, key=_re_im), sorted(want, key=_re_im)
                # a root of multiplicity m moves by about eps**(1/m)
                assert np.allclose(got, want, rtol=0, atol=1e-3)


def _eigensolver_fails(coeffs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_nonconvergence_error_carries_diagnostics(monkeypatch):
    # eigenvalues stuck at 7 cannot certify the roots 1 and 2
    monkeypatch.setattr("nonresultant.exactalg._eigenvalues", lambda coeffs: np.full((len(coeffs), 2), 7.0 + 0j))
    with pytest.raises(NonConvergenceError) as info:
        complex_roots_numeric((z - 1) * (z - 2))
    diag = info.value.diagnostics
    assert diag["coefficients"] == ["2", "-3", "1"]
    # one 2-fold cluster at 7: f(7) = 30 against the scale 49 + 21 + 2, and
    # the least allowance, 1e-9
    assert diag["backward_error_ratio"] == (30 / 72) / 1e-9
    # an eigensolver error is not retried: it names the group's first row
    monkeypatch.setattr("nonresultant.exactalg._eigenvalues", _eigensolver_fails)
    with pytest.raises(NonConvergenceError) as info:
        complex_roots_many([(z - 1) * (z - 2), z**2 + 1])
    assert info.value.diagnostics == {"coefficients": ["2", "-3", "1"]}


def test_an_eigensolver_failure_names_the_first_nonfinite_row():
    # a leading coefficient that rounds to 0.0 makes the monic row non-finite
    tiny = ExactPolynomial((F(1), F(2), F(1, 10**400)))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NonConvergenceError) as info:
        complex_roots_many([z**2 - 2, tiny, z**2 + 3])
    assert info.value.diagnostics == {"coefficients": poly_to_json(tiny)}


def _chebyshev(n):
    a, b = ExactPolynomial.one(), z
    for _ in range(n - 1):
        a, b = b, 2 * z * b - a
    return b


def _mignotte():
    # z^10 - 2 (10 z - 1)^2: two real roots 1.4e-6 apart near 1/10
    mpmath = pytest.importorskip("mpmath")
    f = z**10 - 2 * (10 * z - 1) ** 2
    roots = mpmath.polyroots([int(c) for c in reversed(f.coefficients)], maxsteps=200, extraprec=200)
    return f, [complex(r) for r in roots], 1e-12


_HARD = {
    # binary64 coefficients (up to 1.4e19) move the middle roots by a few %
    "wilkinson20": lambda: (ExactPolynomial.from_roots(range(1, 21)), [complex(k) for k in range(1, 21)], 0.05),
    "chebyshev15": lambda: (
        _chebyshev(15),
        [complex(math.cos((2 * k - 1) * math.pi / 30)) for k in range(1, 16)],
        1e-12,
    ),
    "unity30": lambda: (z**30 - 1, [complex(math.cos(t), math.sin(t)) for t in (2 * math.pi * k / 30 for k in range(30))], 1e-12),
    # the cluster radius scales with the largest root, so 1e-8..1e2 are one cluster
    "decades": lambda: (ExactPolynomial.from_roots([F(10) ** k for k in range(-8, 9)]), [10.0**k for k in range(-8, 9)], 1e-12),
    "mignotte": _mignotte,
}


@pytest.mark.parametrize("name", sorted(_HARD))
def test_hard_polynomials_give_their_planted_roots(name):
    # the planted roots fill the clusters' multiplicities, closest pairs
    # first, and each lies within its cluster's radius plus
    # rel_tol max(1, |root|) of the center
    f, planted, rel_tol = _HARD[name]()
    assert len(planted) == f.degree
    clusters = complex_roots_numeric(f)
    slots = [c for c in clusters for _ in range(c.multiplicity)]
    assert len(slots) == f.degree
    pairs = sorted((abs(c.center - w), i, j) for i, w in enumerate(planted) for j, c in enumerate(slots))
    free_roots, free_slots = set(range(len(planted))), set(range(len(slots)))
    for dist, i, j in pairs:
        if i in free_roots and j in free_slots:
            free_roots.remove(i)
            free_slots.remove(j)
            assert dist <= slots[j].radius + rel_tol * max(1.0, abs(planted[i]))
    assert not free_roots


def _row_clusters(roots, tol):
    """(center, radius, multiplicity) of `_cluster_rows` on one row."""
    row = (np.array([[r.real for r in roots]]), np.array([[r.imag for r in roots]]), np.array([tol]))
    return [(complex(x, y), r, m) for x, y, r, m in zip(*(a[0].tolist() for a in _cluster_rows(*row))) if m]


def test_cluster_roots_matches_full_scan_bitwise():
    rng = random.Random(52)
    for _ in range(400):
        k = rng.randint(1, 9)
        base = [complex(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(k)]
        # near-coincident pairs exercise merging; spread ones the shortcut
        roots = [b + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-9, -1)
                 for b in base]
        tol = 10.0 ** rng.randint(-8, 0)
        assert repr(_row_clusters(roots, tol)) == repr(cluster_roots_scan(roots, tol))
    # sum() starts from the int 0, which turns a center's -0.0 into 0.0
    for roots in ([complex(-0.0, 1.0), complex(2.0, -0.0)], [complex(-0.0, -0.0)] * 2):
        assert repr(_row_clusters(roots, 1e-3)) == repr(cluster_roots_scan(roots, 1e-3))


def test_backward_error_ratios_match_scalar_validation():
    # random centers, mostly with radii of 0.01-0.1 and multiplicities 1-4,
    # so that the allowance (4 r)**m runs above its 1e-9 floor and through
    # CPython's float power, which numpy's vectorised power does not match
    # bit for bit
    rng = random.Random(57)
    for _ in range(300):
        d, k = rng.randint(1, 8), rng.randint(1, 3)
        f = random_poly(rng, d, gaussian=rng.random() < 0.5)
        clusters = [
            (
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                10.0 ** (rng.uniform(-2, -1) if rng.random() < 0.8 else rng.uniform(-16, -2)),
                rng.randint(1, 4),
            )
            for _ in range(k)
        ]
        cre, cim = np.array([[c.real for c, _, _ in clusters]]), np.array([[c.imag for c, _, _ in clusters]])
        rad, mult = np.array([[r for _, r, _ in clusters]]), np.array([[m for _, _, m in clusters]])
        coef = np.array([f.complex_coefficients], dtype=complex)
        (got,) = _backward_error_ratios(coef, cre, cim, rad, mult).tolist()
        assert got == backward_error_ratio_scalar(f, clusters)


def _link_groups(centers, radii, tol):
    """The groups `_link_rows` finds in one row, as lists of indices."""
    order, start = _link_rows(
        np.array([[c.real for c in centers]]),
        np.array([[c.imag for c in centers]]),
        np.array([radii], dtype=float).reshape(1, -1),
        np.array([tol]),
        np.ones((1, len(centers)), dtype=bool),
    )
    groups = []
    for j, first in zip(order[0].tolist(), start[0].tolist()):
        if first:
            groups.append([])
        groups[-1].append(j)
    return groups


def test_link_groups_grow_by_least_linked_index():
    # 0-2 and 2-1 link, 0-1 does not: the group takes 2 before 1
    assert _link_groups([0j, 2 + 0j, 1 + 0j, 10 + 0j], [0.0] * 4, 1.0) == [[0, 2, 1], [3]]
    assert _link_groups([0j, 3 + 0j, 9 + 0j], [0.0] * 3, 1.0) == [[0], [1], [2]]
    # radii widen the link by 5 * (r_i + r_j)
    assert _link_groups([0j, 3 + 0j], [0.25, 0.25], 1.0) == [[0, 1]]
    assert _link_groups([], [], 1.0) == []


def test_batch_clusters_equal_single_row_clusters(monkeypatch):
    # one batch of degrees 1-8 with real and Gaussian coefficients, planted
    # multiplicities 1-4, and generic coefficients; real and Gaussian rows
    # share every degree, and each row keeps its own eigensolver
    rng = random.Random(56)
    reals = [F(a, 2) for a in range(-8, 9)]
    gaussians = [GaussianRational(F(a, 2), F(b, 2)) for a in range(-6, 7) for b in range(-4, 5)]
    polys = []
    for k in range(160):
        gaussian = k % 2 == 1
        d = rng.randint(1, 8)
        if k % 4 >= 2:
            polys.append(random_poly(rng, d, gaussian=gaussian))
            continue
        mu = rng.randint(1, min(4, d))
        while True:  # a Gaussian row needs a nonreal coefficient
            roots = rng.sample(gaussians if gaussian else reals, d - mu + 1)
            f = ExactPolynomial.from_roots(roots[:1] * mu + roots[1:])
            if f.is_real != gaussian:
                break
        polys.append(f)
    for real in (True, False):
        assert {f.degree for f in polys if f.is_real == real} == set(range(1, 9))
    alone = [repr(complex_roots_numeric(f)) for f in polys]
    assert [repr(c) for c in complex_roots_many(polys)] == alone
    # rows split across chunks give the same clusters
    monkeypatch.setattr("nonresultant.exactalg._CHUNK", 3)
    assert [repr(c) for c in complex_roots_many(polys)] == alone


def test_complex_roots_of_a_coefficient_beyond_the_float_range_raise():
    for f in (z**2 + 10**400, z**2 + F(1, 10**400) * z + 1 + F(10**400, 3) * i_unit):
        with pytest.raises(ValueError, match="beyond the float range"):
            complex_roots_numeric(f)


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


def test_interpolate_equispaced_matches_lagrange_oracle():
    rng = random.Random(53)

    def rational():
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    for n in range(1, 17):
        nodes = [F(i, n) for i in range(n + 1)]
        for gaussian in (False, True):
            values = [
                GaussianRational(rational(), rational()).canonical() if gaussian else rational()
                for _ in nodes
            ]
            if n % 3 == 0:
                values[rng.randrange(n + 1)] = F(0)
            p = interpolate_equispaced(values)
            assert p == lagrange(nodes, values)
            assert [p(x) for x in nodes] == values
    assert interpolate_equispaced([F(5, 3)]) == ExactPolynomial.constant(F(5, 3))
    assert interpolate_equispaced([0, 0, 0]).is_zero
    with pytest.raises(ValueError):
        interpolate_equispaced([])


def test_has_real_root_between_counts_the_closed_interval():
    f = (z - F(1, 3)) ** 2 * (z + 2)
    assert has_real_root_between(f, F(0), F(1))
    assert has_real_root_between(f, F(1, 3), F(1))  # a root at an endpoint
    assert not has_real_root_between(f, F(1, 2), F(3))
    assert has_real_root_between(f, F(-3), F(-1))
    assert not has_real_root_between(z**2 + 1, F(-10), F(10))
    assert not has_real_root_between(ExactPolynomial.constant(3), F(0), F(1))
    assert [sign_at(f, p, 3) for p in (-7, -6, 1, 2)] == [-1, 0, 0, 1]


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
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json("3/0")
    with pytest.raises(ValueError):
        poly_from_json("nope")


def _parse_outcome(parse, arr):
    try:
        return "ok", parse(arr)
    except Exception as exc:  # the parses must fail the same way
        return "error", type(exc)


def test_poly_from_json_matches_fraction_parse():
    # integers and decimal "p/q" strings skip Fraction; the value, or the
    # exception type, must be the one the per-coefficient Fraction parse gives
    tokens = [
        "1.5", " 7/3 ", "-0", "1_0", "3/0", "0/0", "1e3", "2/4", "+4/6", "-12/-3", "007",
        "", "1/2/3", "  -5  ", "١٢/٣", "9" * 40 + "/7", "x",
        0, 7, -12, 10**30, True, False, 0.5, None, [1],
        {"re": "1/2", "im": "-3"}, {"re": "1", "im": "0"}, {"im": "2"}, {"re": 3},
        {}, {"re": "3/0", "im": "1"}, {"re": "1.5", "im": "2/6"}, {"re": {"re": "1"}},
        {"re": "1", "x": "2"}, {"re": True}, {"im": " 1/3"},
    ]
    rng = random.Random(53)
    arrays = [[t] for t in tokens]
    arrays += [[rng.choice(tokens) for _ in range(rng.randint(0, 4))] for _ in range(600)]
    for arr in arrays:
        want = _parse_outcome(lambda a: ExactPolynomial(tuple(scalar_from_json(v) for v in a)), arr)
        assert _parse_outcome(poly_from_json, arr) == want, arr


def test_scalar_from_json_matches_fraction_oracle():
    # the one grammar against a reading by Fraction alone: the same value,
    # or the same exception type and message
    tokens = [
        "1.5", " 7/3 ", "-0", "1_0", "3/0", "0/0", "1e3", "2/4", "+4/6", "-12/-3", "007",
        "", "1/2/3", "  -5  ", "١٢/٣", "9" * 40 + "/7", "x", " 1/0 ", "-5/0",
        0, 7, -12, 10**30, True, False, 0.5, None, [1],
        {"re": "1/2", "im": "-3"}, {"re": "1", "im": "0"}, {"im": "2"}, {"re": 3},
        {}, {"re": "3/0", "im": "1"}, {"re": "1.5", "im": "2/6"}, {"re": {"re": "1"}},
        {"re": {"re": "1", "im": "1"}}, {"im": {"im": "0"}}, {"re": "2/4", "im": "1/6"},
        {"re": "1", "x": "2"}, {"re": True}, {"im": " 1/3"}, {"im": "1/0"},
    ]

    def outcome(parse, v):
        try:
            return "ok", parse(v)
        except ValueError as exc:
            return "error", str(exc)

    for v in tokens:
        assert outcome(scalar_from_json, v) == outcome(scalar_from_json_fractions, v), v
