import hashlib
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from nonresultant import harness
from nonresultant.case21 import component_of_21, representative_21
from nonresultant.exactalg import (
    ExactPolynomial,
    GaussianRational,
    RootCluster,
    _link_rows,
    _merge_rows,
    real_roots_exact,
    resultant_exact,
)
from nonresultant.harness import (
    CASE_SHAPES,
    _boundary_polynomial,
    _first_violation,
    census,
    certify_path,
    invariant_sweep,
    locate_violation,
    numeric_common_multiplicities,
    path_tuple,
    planted_tuple,
    random_member,
)
from nonresultant.nonres import (
    FIELD_COMPLEX,
    FIELD_REAL,
    MembershipError,
    SystemTuple,
    is_member,
    jet,
    max_common_multiplicity,
)
from oracles import (
    first_violation_refining_every_root,
    merge_clusters_union_find,
    path_samples_by_gcd,
    union_find_groups,
)

z = ExactPolynomial.variable()
i_unit = GaussianRational(F(0), F(1))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["21", "31", "12", "13", "22"])
def test_random_member_postcondition_and_determinism(case):
    t1 = random_member(case, 4, seed=9)
    t2 = random_member(case, 4, seed=9)
    assert t1 == t2
    assert is_member(t1)
    assert random_member(case, 4, seed=10) != t1


def test_random_member_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_member("21", 0, seed=1)
    with pytest.raises(ValueError):
        random_member("99", 3, seed=1)


def test_random_member_complex_field():
    t = random_member("21", 3, seed=5, field=FIELD_COMPLEX)
    assert t.field == FIELD_COMPLEX
    assert is_member(t)


def test_random_member_gives_up_after_the_attempt_cap(monkeypatch):
    draws = []
    monkeypatch.setattr(harness, "_MAX_ATTEMPTS", 7)
    monkeypatch.setattr(harness, "is_member", lambda t: draws.append(t) and False)
    with pytest.raises(RuntimeError) as exc:
        random_member("21", 3, seed=1)
    assert str(exc.value) == "no member found in 7 attempts for case 21, d=3 (rejection rate 100%)"
    assert len(draws) == 7


@pytest.mark.parametrize(
    "rejecter, run",
    [
        ("component_of_21", lambda: census("21", 3, 5, seed=1)),
        ("component_of_12", lambda: census("12", 3, 5, seed=1)),
        ("component_of_21", lambda: invariant_sweep("21", 3, 5, seed=1)),
        ("Model31", lambda: invariant_sweep("31", 3, 5, seed=1)),
    ],
    ids=["census-21", "census-12", "sweep-21", "sweep-31"],
)
def test_census_and_sweeps_give_up_after_the_attempt_cap(monkeypatch, rejecter, run):
    draws = []

    def reject(*args):
        draws.append(args)
        raise MembershipError("every draw is rejected")

    monkeypatch.setattr(harness, "_MAX_ATTEMPTS", 7)
    monkeypatch.setattr(harness, rejecter, reject)
    with pytest.raises(RuntimeError, match="no member found in 7 attempts"):
        run()
    assert len(draws) == 7


# at these degrees some seeds draw more distinct points than the 29-point
# real lattice holds (others succeed, so no degree is refused up front)
@pytest.mark.parametrize(
    "sample, case, d, seeds",
    [
        (random_member, "21", 30, (0, 1)),
        (random_member, "12", 30, (0, 2)),
        (random_member, "31", 31, (0,)),
        (planted_tuple, "22", 25, (1, 6)),
        (planted_tuple, "31", 30, (0, 1)),
    ],
)
def test_samplers_that_run_out_of_lattice_points_say_so(sample, case, d, seeds):
    for seed in seeds:
        with pytest.raises(ValueError, match=f"^d={d} needs more distinct real points than the 29 "):
            sample(case, d, seed)


def test_samplers_beyond_the_complex_lattices_raise_instead_of_looping():
    with pytest.raises(ValueError, match="complex points than the 441 "):
        random_member("21", 442, seed=1, field=FIELD_COMPLEX)
    with pytest.raises(ValueError, match="conjugate-pair points than the 210 "):
        harness._poly_from_real_roots(random.Random(1), 422, pairs=211)


def test_planted_tuple_hits_requested_multiplicity():
    for case in ("21", "31", "12", "13", "22"):
        for seed in range(12):
            t, mu = planted_tuple(case, 6, seed=seed)
            assert max_common_multiplicity(t) == mu
            if t.m == 1:
                assert mu >= 1


def test_planted_tuple_deterministic():
    a = planted_tuple("22", 5, seed=3)
    b = planted_tuple("22", 5, seed=3)
    assert a == b


# ---------------------------------------------------------------------------
# the numeric route agrees with the exact one
# ---------------------------------------------------------------------------


def test_numeric_multiplicity_on_planted_tuples():
    for case in ("21", "31", "12", "13", "22"):
        for seed in range(25):
            t, mu = planted_tuple(case, 7, seed=100 + seed)
            (numeric,) = numeric_common_multiplicities([t])
            assert numeric == mu
            assert (numeric < t.n) == is_member(t)


def test_numeric_multiplicity_complex_field():
    for seed in range(10):
        t, mu = planted_tuple("21", 5, seed=seed, field=FIELD_COMPLEX)
        assert numeric_common_multiplicities([t]) == [mu]


def _shared_root_tuple(rng, m: int, mu: int, field: str):
    """A tuple of m entries with pairwise unequal degrees that share one
    root: mu times in one entry, mu to 4 times in the others.  Their other
    roots are distinct lattice points, so the largest common multiplicity is
    mu (for m = 1, the largest multiplicity of the one entry)."""
    if field == FIELD_REAL:
        pool = [F(a, 2) for a in range(-12, 13)]
    else:
        pool = [GaussianRational(F(a, 2), F(b, 2)) for a in range(-6, 7) for b in range(-4, 5)]
    rng.shuffle(pool)
    common = pool.pop()
    mults = [mu] + [rng.randint(mu, 4) for _ in range(m - 1)]
    rng.shuffle(mults)
    polys, degrees = [], set()
    for k in mults:
        extra = rng.randint(0, 3)
        while k + extra in degrees or k + extra == 0:
            extra += 1
        degrees.add(k + extra)
        polys.append(ExactPolynomial.from_roots([common] * k + [pool.pop() for _ in range(extra)]))
    return SystemTuple(tuple(polys), 2, field)


def test_numeric_multiplicities_on_unequal_degrees_and_mixed_m(monkeypatch):
    rng = random.Random(83)
    tuples, planted = [], []
    for k in range(90):
        m = 1 + k % 3
        mu = rng.randint(1 if m == 1 else 0, 3)
        field = FIELD_COMPLEX if k % 2 else FIELD_REAL
        t = _shared_root_tuple(rng, m, mu, field)
        assert m == 1 or len(set(t.degrees)) == m
        tuples.append(t)
        planted.append(mu)
    # one batch mixing m = 1, 2 and 3, each tuple on its own, and merge
    # passes that split the batch mid-tuple
    assert numeric_common_multiplicities(tuples) == planted
    assert [numeric_common_multiplicities([t])[0] for t in tuples[:12]] == planted[:12]
    monkeypatch.setattr("nonresultant.harness._MERGE_ROWS", 7)
    assert numeric_common_multiplicities(tuples) == planted
    assert numeric_common_multiplicities([]) == []


def test_numeric_multiplicity_of_a_coefficient_beyond_the_float_range_raises():
    z = ExactPolynomial.variable()
    t = SystemTuple((z * z + 10**400, z * z + 1), 1, FIELD_REAL)
    with pytest.raises(ValueError, match="beyond the float range"):
        numeric_common_multiplicities([t])


def test_numeric_multiplicity_close_roots_still_split():
    # distinct roots at distance 1/4 must not merge
    f = ExactPolynomial.from_roots([F(0), F(1, 4)])
    g = ExactPolynomial.from_roots([F(0), F(3, 4)])
    t = SystemTuple((f, g), 1, FIELD_REAL)
    assert numeric_common_multiplicities([t]) == [1]


def test_merge_clusters_matches_union_find_oracle():
    rng = random.Random(81)
    out_of_order = 0
    for _ in range(400):
        k = rng.randint(1, 8)
        tol = 10.0 ** rng.randint(-3, 0)
        pos, centers = 0j, []
        for _ in range(k):
            # steps under tol chain clusters together, longer ones split them
            pos += complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * tol * rng.choice((0.6, 5.0))
            centers.append(pos)
        rng.shuffle(centers)
        radii = [tol * rng.choice((0.0, 1e-3, 1e-2)) for _ in range(k)]
        clusters = [RootCluster(c, r, rng.randint(1, 4)) for c, r in zip(centers, radii)]
        re, im = np.array([[c.real for c in centers]]), np.array([[c.imag for c in centers]])
        rad, mult, row_tol = np.array([radii]), np.array([[c.multiplicity for c in clusters]]), np.array([tol])
        order, start = _link_rows(re, im, rad, row_tol, mult > 0)
        groups = np.split(order[0], np.flatnonzero(start[0])[1:])
        assert [sorted(g.tolist()) for g in groups] == union_find_groups(centers, radii, tol)
        out_of_order += any(g.tolist() != sorted(g.tolist()) for g in groups)
        merged = [a[0].tolist() for a in _merge_rows(re, im, rad, mult, order, start)]
        got = [(complex(x, y), r, m) for x, y, r, m in zip(*merged) if m]
        want = merge_clusters_union_find(clusters, tol)
        assert [m for _, _, m in got] == [m for _, _, m in want]
        for (c, r, _), (wc, wr, _) in zip(got, want):
            assert abs(c - wc) <= 1e-12 * (1 + abs(wc))
            assert abs(r - wr) <= 1e-12 * (1 + abs(wc))
    # chains like 0-2-1, where the two orders differ, were exercised
    assert out_of_order > 10


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_path_tuple_interpolates():
    a = representative_21(2, 0)
    b = representative_21(2, 2)
    assert path_tuple(a, b, F(0)) == a
    assert path_tuple(a, b, F(1)) == b
    mid = path_tuple(a, b, F(1, 2))
    for f, fa, fb in zip(mid.polys, a.polys, b.polys):
        assert f * 2 == fa + fb


def test_locate_violation_between_components():
    a = representative_21(2, 0)
    b = representative_21(2, 2)
    cert = locate_violation(a, b)
    assert cert is not None
    assert cert.width <= F(1, 10**6)
    assert cert.kind == "resultant_root"
    doc = cert.to_json()
    assert set(doc) == {"kind", "lo", "hi", "sign_change"}
    # independent verification: a common root appears where the resultant
    # of the interpolated pair vanishes, so a sign_change bracket must
    # straddle a sign flip
    res_lo = resultant_exact(*path_tuple(a, b, cert.lo).polys)
    res_hi = resultant_exact(*path_tuple(a, b, cert.hi).polys)
    if cert.sign_change:
        assert (res_lo < 0 < res_hi) or (res_hi < 0 < res_lo) or 0 in (res_lo, res_hi)


def test_locate_violation_none_within_component():
    a = representative_21(3, 1)
    f1 = ExactPolynomial.from_roots([F(101, 100)]) * (z * z + F(2))
    f2 = ExactPolynomial.from_roots([F(51, 100)]) * (z * z + 1)
    b = SystemTuple((f1, f2), 1, FIELD_REAL)
    assert component_of_21(b).j == 1
    assert locate_violation(a, b) is None


def test_locate_violation_requires_member_endpoints():
    bad = SystemTuple((z * (z - 1), z * (z + 1)), 1, FIELD_REAL)
    good = representative_21(2, 0)
    with pytest.raises(ValueError):
        locate_violation(bad, good)


def test_certify_constant_path():
    a = representative_21(3, -1)
    path = certify_path(a, a)
    assert path.certified
    assert path.samples[0][0] == F(0) and path.samples[-1][0] == F(1)


def test_certify_same_component_with_invariant():
    a = representative_21(2, 2)
    f1 = ExactPolynomial.from_roots([F(1) + F(1, 50), F(2) + F(1, 50)])
    f2 = ExactPolynomial.from_roots([F(1, 2) + F(1, 50), F(3, 2) + F(1, 50)])
    b = SystemTuple((f1, f2), 1, FIELD_REAL)
    path = certify_path(a, b, invariant=lambda t: component_of_21(t).j)
    assert path.certified
    assert path.invariant_constant
    assert path.invariant_values == (2,)
    params = [p for p, _, _ in path.samples]
    assert params == sorted(params)


def test_certify_cross_component_is_uncertified():
    path = certify_path(
        representative_21(2, 0),
        representative_21(2, 2),
        invariant=lambda t: component_of_21(t).j,
    )
    assert not path.certified
    assert not path.invariant_constant or path.violations


def test_planted_bad_midpoint_flips_certification():
    # the straight line from (z-1, z+1) to (z+1, z-1) passes through (z, z)
    a = SystemTuple((z - 1, z + 1), 1, FIELD_REAL)
    b = SystemTuple((z + 1, z - 1), 1, FIELD_REAL)
    assert is_member(a) and is_member(b)
    path = certify_path(a, b)
    assert not path.certified
    mid = path_tuple(a, b, F(1, 2))
    assert not is_member(mid)


def test_complex_field_paths_are_certified_exactly():
    # (z - i, z - 1) -> (z - 1, z - i): the roots meet at (1 + i)/2 at t = 1/2
    a = SystemTuple((z - i_unit, z - 1), 1, FIELD_COMPLEX)
    b = SystemTuple((z - 1, z - i_unit), 1, FIELD_COMPLEX)
    cert = locate_violation(a, b)
    assert (cert.kind, cert.lo, cert.hi) == ("resultant_root", F(1, 2), F(1, 2))
    assert not is_member(path_tuple(a, b, F(1, 2)))
    assert certify_path(a, b).violations == (cert,)
    # (z - i, z - 1) -> (z - 2 - i, z - i): the roots i + 2t and 1 - t + ti
    # never meet
    c = SystemTuple((z - 2 - i_unit, z - i_unit), 1, FIELD_COMPLEX)
    assert locate_violation(a, c) is None
    path = certify_path(a, c)
    assert path.certified and path.violations == ()
    # (1,2): z^2 - (1+i)z + (1-t)i has a double root exactly at t = 1/2
    f = SystemTuple((z**2 - z * (1 + i_unit) + i_unit,), 2, FIELD_COMPLEX)
    g = SystemTuple((z**2 - z * (1 + i_unit),), 2, FIELD_COMPLEX)
    cert = locate_violation(f, g)
    assert (cert.kind, cert.lo, cert.hi) == ("discriminant_root", F(1, 2), F(1, 2))
    assert not certify_path(f, g).certified


def _through(a: SystemTuple, nonmember: SystemTuple, t0: F) -> SystemTuple:
    """The endpoint b whose straight line from a meets `nonmember` at t0."""
    polys = tuple(fa + (fn - fa) * (1 / t0) for fa, fn in zip(a.polys, nonmember.polys))
    return SystemTuple(polys, a.n, a.field)


def _nonmember(case: str, d: int, seed: int, field: str) -> SystemTuple:
    while True:
        t, mu = planted_tuple(case, d, seed, field)
        if mu >= t.n:
            return t
        seed += 1000


def test_31_path_through_a_rational_nonmember_is_uncertified():
    # at t = 1/3 the entries are z^2 + z/3, z^2 + 2z/3, z^2 + 5z/3: all vanish at 0
    a = SystemTuple((z**2 + 1, z**2 + 2, z**2 + 3), 1, FIELD_REAL)
    b = SystemTuple((z**2 + z - 2, z**2 + 2 * z - 4, z**2 + 5 * z - 6), 1, FIELD_REAL)
    assert not is_member(path_tuple(a, b, F(1, 3)))
    path = certify_path(a, b)
    assert all(member for _, member, _ in path.samples)
    assert not path.certified
    (cert,) = path.violations
    assert cert.kind == "boundary_root"
    assert cert.lo <= F(1, 3) <= cert.hi and cert.width <= F(1, 10**6)
    assert locate_violation(a, b) == cert


def test_31_path_through_an_irrational_nonmember_is_uncertified():
    # f1 = z^3 + t z - 3 meets z^2 = 2 at z = sqrt(2) when t = (3 sqrt(2) - 4)/2
    q = z**2 - 2
    f1a, f1b = z**3 - 3, z**3 + z - 3
    a = SystemTuple((f1a, f1a + q, f1a + q * 2), 1, FIELD_REAL)
    b = SystemTuple((f1b, f1b + q, f1b + q * 2), 1, FIELD_REAL)
    path = certify_path(a, b)
    assert not path.certified
    (cert,) = path.violations
    assert cert.kind == "boundary_root" and cert.sign_change
    assert cert.width <= F(1, 10**6)
    # lo < (3 sqrt(2) - 4)/2 < hi, squared: (2 lo + 4)^2 < 18 < (2 hi + 4)^2
    assert (2 * cert.lo + 4) ** 2 < 18 < (2 * cert.hi + 4) ** 2
    assert locate_violation(a, b) == cert


@pytest.mark.parametrize(
    "a, nonmember, t0",
    [
        (
            SystemTuple((z**2 + 1, z**2 + 4), 2, FIELD_REAL),
            SystemTuple(((z - 1) ** 2, (z - 1) ** 2), 2, FIELD_REAL),
            F(1, 3),
        ),
        (
            SystemTuple(((z**2 + 1) * (z**2 + 4),), 3, FIELD_REAL),
            SystemTuple(((z - 1) ** 3 * (z + 1),), 3, FIELD_REAL),
            F(2, 5),
        ),
        (
            SystemTuple((z**3 + z + 1,), 3, FIELD_COMPLEX),
            SystemTuple(((z - i_unit) ** 3,), 3, FIELD_COMPLEX),
            F(5, 7),
        ),
    ],
    ids=["22", "13", "13-complex"],
)
def test_planted_nonmember_off_the_dyadic_grid_is_located(a, nonmember, t0):
    b = _through(a, nonmember, t0)
    assert is_member(a) and is_member(b)
    assert path_tuple(a, b, t0) == nonmember
    path = certify_path(a, b)
    assert all(member for _, member, _ in path.samples)
    assert not path.certified
    (cert,) = path.violations
    assert cert.lo <= t0 <= cert.hi and cert.width <= F(1, 10**6)
    assert locate_violation(a, b) == cert


def _sqrt2_parts(u: F, v: F, n: int, h: ExactPolynomial) -> tuple:
    """(A, B) with (z - u - v sqrt 2)^n h = A + B sqrt 2, both rational:
    the even and odd powers of sqrt 2 in the binomial expansion."""
    parts = [ExactPolynomial.constant(0), ExactPolynomial.constant(0)]
    for k in range(n + 1):
        parts[k % 2] = parts[k % 2] + (z - u) ** (n - k) * (math.comb(n, k) * (-v) ** k * 2 ** (k // 2))
    return parts[0] * h, parts[1] * h


@pytest.mark.parametrize(
    "n, hs",
    [(3, [z**2 + 1]), (2, [z + 3, z**2 + 4])],
    ids=["13", "22"],
)
def test_irrational_crossing_is_bracketed(n, hs):
    # with P = (z - u - v sqrt 2)^n h = M + D sqrt 2 per entry, the path from
    # M - D to M + 2D is M + (3t - 1) D, which is P at 3t - 1 = sqrt 2: the
    # entries share a root of multiplicity n at t = (1 + sqrt 2)/3, a root of
    # 9t^2 - 6t - 1; both (2,2) entries move along the same s = 3t - 1
    parts = [_sqrt2_parts(F(1, 2), F(1, 3), n, h) for h in hs]
    a = SystemTuple(tuple(m - d for m, d in parts), n, FIELD_REAL)
    b = SystemTuple(tuple(m + d * 2 for m, d in parts), n, FIELD_REAL)
    assert is_member(a) and is_member(b)

    def crossing_sign(t: F) -> int:
        return (9 * t * t - 6 * t - 1 > 0) - (9 * t * t - 6 * t - 1 < 0)

    cert = locate_violation(a, b)
    assert cert is not None and cert.lo < cert.hi <= cert.lo + F(1, 10**6)
    assert crossing_sign(cert.lo) * crossing_sign(cert.hi) == -1
    path = certify_path(a, b)
    assert not path.certified
    assert path.violations == (cert,)


def test_crossing_closer_to_an_end_than_the_width_is_located():
    # disc(t) = 49 t^2 - 4 (1 - 10^7 t) has a simple root near 1e-7, closer
    # to t = 0 than the bracket width; its isolating interval (0, 2**20) has
    # 0 as an end, so the bracket [0, 2**-20] stays inside [0, 1]
    a = SystemTuple((z**2 + 1,), 2, FIELD_REAL)
    b = SystemTuple((z**2 + 7 * z + 1 - 10**7,), 2, FIELD_REAL)
    cert = locate_violation(a, b)
    assert cert is not None and cert.kind == "discriminant_root" and cert.sign_change
    assert 0 <= cert.lo < cert.hi <= F(1, 10**6)
    disc = lambda t: 49 * t * t - 4 * (1 - 10**7 * t)
    assert disc(cert.lo) < 0 < disc(cert.hi)
    path = certify_path(a, b)
    assert path.violations == (cert,) and not path.certified


def test_even_order_touch_inside_the_path_is_found():
    # f_t = z^2 + 2(3t - 1) z + 6t/5 - 11/25 has discriminant 36 (t - 2/5)^2:
    # a double root at t = 2/5 only, off the dyadic grid, where the
    # boundary polynomial touches 0 without changing sign on [0, 1]
    a = SystemTuple((z**2 - 2 * z - F(11, 25),), 2, FIELD_REAL)
    b = SystemTuple((z**2 + 4 * z + F(19, 25),), 2, FIELD_REAL)
    assert not is_member(path_tuple(a, b, F(2, 5)))
    path = certify_path(a, b)
    assert all(member for _, member, _ in path.samples) and path.refinement_depth == 6
    (cert,) = path.violations
    assert cert.kind == "discriminant_root" and not cert.sign_change
    assert cert.lo <= F(2, 5) <= cert.hi and cert.width <= F(1, 10**6)
    assert not path.certified and locate_violation(a, b) == cert


@pytest.mark.parametrize("sign", [-1, 1])
def test_bracket_near_one_lies_on_one_side_of_it(sign):
    # isolation hits the root 2 exactly and keeps bisecting the same dyadic
    # cells, so the 1e-6 bracket around 1 -+ 2**-53 has 1 as an end and never
    # straddles it; the root below 1 is a violation, the one above is not
    g = (z - 2) * (z - (1 + sign * F(1, 2**53)))
    bracket = real_roots_exact(g)[0].refine(F(1, 10**6))
    assert bracket.hi <= 1 if sign < 0 else bracket.lo >= 1
    cert = _first_violation(SystemTuple((z**2 + 1,), 2, FIELD_REAL), g)
    if sign > 0:
        assert cert is None
    else:
        assert cert.kind == "discriminant_root" and cert.sign_change
        assert cert.lo < 1 - F(1, 2**53) < cert.hi <= 1
        assert 0 <= cert.lo and (cert.lo, cert.hi) == (bracket.lo, bracket.hi)


def _oracle_paths():
    """200 seeded paths over all five shapes and both fields: member to
    member, from a non-member endpoint, and through a planted non-member
    at a dyadic parameter (on the initial grid or at a refinement depth)."""
    rng = random.Random(61)
    out = []
    for k in range(200):
        case = ("21", "31", "12", "13", "22")[k % 5]
        field = FIELD_COMPLEX if k % 2 else FIELD_REAL
        n = CASE_SHAPES[case][1]
        d = rng.randint(n, 4)
        seed = rng.randrange(10**6)
        a = random_member(case, d, seed, field=field)
        kind = (k // 10) % 3
        if kind == 0:
            b = random_member(case, d, seed + 1, field=field)
        elif kind == 1:
            b = a
            a, _ = planted_tuple(case, d, seed + 2, field)
        else:
            t0 = F(rng.randrange(1, 2**8), 2 ** rng.choice((6, 8)))
            b = _through(a, _nonmember(case, d, seed + 3, field), t0)
        out.append((a, b))
    return out


def test_certify_path_samples_match_the_gcd_route_on_every_sample():
    bad_end = bad_inside = refined = 0
    for a, b in _oracle_paths():
        invariant = None
        if a.m == 2 and a.n == 1 and a.field == FIELD_REAL:
            invariant = lambda t: component_of_21(t).j
        path = certify_path(a, b, invariant=invariant)
        samples, depth = path_samples_by_gcd(a, b, invariant=invariant)
        assert path.samples == samples
        assert path.refinement_depth == depth
        ends = samples[0][1] and samples[-1][1]
        bad_end += not ends
        bad_inside += ends and not all(member for _, member, _ in samples)
        refined += depth > 6
        if ends:
            # the certificate of the loop that refines every root of g
            want = first_violation_refining_every_root(_boundary_polynomial(a, b), F(1, 10**6))
            assert [(v.lo, v.hi, v.sign_change) for v in path.violations] == ([want] if want else [])
        if path.violations:
            assert locate_violation(a, b) == path.violations[0]
    # the mix the seed gives: 38, 18 and 56
    assert bad_end >= 30 and bad_inside >= 15 and refined >= 50


def _sympy_poly(f: ExactPolynomial, w, sympy):
    def scalar(c):
        if isinstance(c, GaussianRational):
            return scalar(c.re) + sympy.I * scalar(c.im)
        return sympy.Rational(c.numerator, c.denominator)

    return sum(scalar(c) * w**k for k, c in enumerate(f.coefficients))


def test_boundary_polynomial_matches_a_sympy_bivariate_resultant():
    sympy = pytest.importorskip("sympy")
    t, lam, w = sympy.symbols("t lam w", real=True)
    rng = random.Random(62)
    for k in range(10):
        case = ("31", "13", "22", "21", "12")[k % 5]
        field = FIELD_COMPLEX if k >= 5 else FIELD_REAL
        n = CASE_SHAPES[case][1]
        d = rng.randint(n, 3)
        a = random_member(case, d, rng.randrange(10**6), field=field)
        b = _through(a, _nonmember(case, d, rng.randrange(10**6), field), F(rng.randrange(1, 9), 9))
        comps = [
            sympy.expand(_sympy_poly(ca, w, sympy) * (1 - t) + _sympy_poly(cb, w, sympy) * t)
            for fa, fb in zip(a.polys, b.polys)
            for ca, cb in zip(jet(fa, n).components, jet(fb, n).components)
        ]
        combination = sum(lam ** (i - 1) * c for i, c in enumerate(comps[1:], 1))
        res = sympy.Poly(sympy.resultant(comps[0], combination, w), lam)
        parts = []
        for c in res.coeffs():
            re, im = sympy.expand(c).as_real_imag()
            parts += [p for p in (re, im) if p != 0]
        expected = sympy.Poly(sympy.gcd_list(parts), t).monic()
        g = _boundary_polynomial(a, b)
        assert [F(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())] == list(
            g.monic().coefficients
        )
        cert = locate_violation(a, b)
        assert cert is not None
        # a Sturm count of B itself finds a root in the bracket
        lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (cert.lo, cert.hi))
        assert expected.count_roots(lo, hi) >= 1


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


# sha256 of the report bytes as the Fraction-coefficient kernel wrote them,
# less the "tolerances" field that no exact sweep has: a change of polynomial
# representation must leave every report byte alone (the CLI prints the same
# bytes plus a newline)
@pytest.mark.parametrize(
    "case, d, digest",
    [
        ("21", 4, "ad9c012c6a833778eff52a72811259faae480eb3b0ed07171d9f90ab0d7734b1"),
        ("12", 5, "2484e8147dec31d26f4cafbf19e1c46a191ab03e074fb8c34b9be8419d2bd1fe"),
        ("31", 3, "a53660ead77410469e1a91eac4f1a3937ac3d6392bbfd46e4afe8b10ee182689"),
    ],
)
def test_sweep_report_bytes_are_pinned(case, d, digest):
    report = invariant_sweep(case, d, 40, seed=5)
    assert hashlib.sha256(report.to_bytes()).hexdigest() == digest


def test_sweep_reports_are_byte_identical():
    r1 = invariant_sweep("21", 3, 150, seed=8)
    r2 = invariant_sweep("21", 3, 150, seed=8)
    assert r1.to_bytes() == r2.to_bytes()
    assert r1.failures == 0
    assert json.loads(r1.to_bytes().decode("ascii")) == r1.to_json()


def test_sweep_seed_changes_report():
    r1 = invariant_sweep("12", 4, 100, seed=1)
    r2 = invariant_sweep("12", 4, 100, seed=2)
    assert r1.to_bytes() != r2.to_bytes()
    assert r1.failures == 0 and r2.failures == 0


def test_sweep_support_matches_census_labels():
    report = invariant_sweep("21", 2, 300, seed=5)
    assert set(report.support) <= {-2, 0, 2}
    report12 = invariant_sweep("12", 5, 300, seed=5)
    assert set(report12.support) <= {0, 1, 2}


def test_sweep_31_runs_clean():
    report = invariant_sweep("31", 3, 60, seed=2)
    assert report.failures == 0
    assert report.checks["generator_winding"] == 1


def test_sweep_rejects_unknown_case():
    with pytest.raises(ValueError):
        invariant_sweep("13", 3, 10, seed=1)
