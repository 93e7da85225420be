"""The nine acceptance gates, one test per criterion.

Each test prints a single verdict line (visible under `pytest -s` or in the
captured output of a failing run) and enforces its stated time budget where
one exists.  Randomness is seeded; reruns are bit-for-bit repeatable.
"""

import cmath
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from nonresultant.case12 import (
    component_of_12,
    electric_degree,
    legal_labels_12,
    representative_12,
    stabilize_12,
    to_configuration,
)
from nonresultant.case21 import (
    component_of_21,
    legal_labels_21,
    representative_21,
)
from nonresultant.case31 import (
    Model31,
    i_d_loop,
    phi,
    pi1_winding,
    r_tilde,
)
from nonresultant.exactalg import ExactPolynomial, GaussianRational, cauchy_root_bound
from nonresultant.harness import (
    invariant_sweep,
    locate_violation,
    numeric_common_multiplicities,
    planted_tuple,
    random_member,
)
from nonresultant.mapdeg import eval_natural_map, map_degree
from nonresultant.nonres import (
    FIELD_COMPLEX,
    FIELD_REAL,
    SystemTuple,
    conjugate_tuple,
    is_member,
    is_member_via_jets,
    jet,
    max_common_multiplicity,
)
from nonresultant.stab import stabilize_31_model

z = ExactPolynomial.variable()

CASES = ["21", "31", "12", "13", "22"]


def verdict(number: int, ok: bool, detail: str, elapsed: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {state} - {detail} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. membership oracle triple agreement
# ---------------------------------------------------------------------------


def test_criterion_1_membership_triple_agreement():
    start = time.perf_counter()
    rng = random.Random(20260815)
    tuples, plants = [], []
    per_case = 2000
    for case in CASES:
        for k in range(per_case):
            d = rng.randint(1, 8)
            t, mu = planted_tuple(case, d, seed=rng.randrange(2**31))
            tuples.append(t)
            plants.append(mu)
    numeric = numeric_common_multiplicities(tuples)
    disagreements = 0
    for t, mu, mu_num in zip(tuples, plants, numeric):
        gcd_member = is_member(t)
        jet_member = is_member_via_jets(t)
        num_member = mu_num < t.n
        if not (gcd_member == jet_member == num_member == (mu < t.n)):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    verdict(1, ok, f"{len(tuples)} tuples, {disagreements} disagreements", elapsed)
    assert disagreements == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. jet lemma
# ---------------------------------------------------------------------------


def test_criterion_2_jet_lemma():
    start = time.perf_counter()
    rng = random.Random(2)
    failures = 0
    for _ in range(1000):
        alpha = F(rng.randint(-8, 8), rng.randint(1, 6))
        mult = rng.randint(0, 4)
        n = rng.randint(1, 4)
        extra = [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 2))]
        g = ExactPolynomial.from_roots([r for r in extra if r != alpha])
        f = (z - alpha) ** mult * g * (z * z + 1)
        vanish = all(c(alpha) == 0 for c in jet(f, n).components)
        if vanish != (mult >= n):
            failures += 1
    elapsed = time.perf_counter() - start
    verdict(2, failures == 0, f"1000 planted cases, {failures} failures", elapsed)
    assert failures == 0


# ---------------------------------------------------------------------------
# 3. point-map degree
# ---------------------------------------------------------------------------


def planted_nonmember(case: str, rng: random.Random) -> tuple:
    """(tuple, expected map degree): every entry carries one planted root
    (a rational, or for half the draws a conjugate pair) of multiplicity
    >= n, plus roots drawn with repetition from a small pool.  At a common
    root where the entries vanish to orders k_e, the jet components share
    the factor to order min k_e - n + 1 (when positive), so the expected
    degree d - deg gcd comes from the root multisets alone."""
    m, n = int(case[0]), int(case[1])
    d = rng.randint(n, 6)
    if 2 * n <= d and rng.random() < 0.5:
        g = GaussianRational(F(rng.randint(-2, 2)), F(rng.randint(1, 2)))
        planted, pool = [g, g.conjugate()], [F(-1), F(0), F(1, 2), F(2)]
    else:
        planted = [F(rng.randint(-4, 4), 2)]
        pool = [F(-1), F(0), F(1, 2), F(2), planted[0]]
    entries = []
    for _ in range(m):
        roots = planted * rng.randint(n, d // len(planted))
        entries.append(roots + [rng.choice(pool) for _ in range(d - len(roots))])
    counts = [Counter(roots) for roots in entries]
    common = sum(
        max(0, min(c[r] for c in counts) - n + 1) for r in set().union(*counts)
    )
    t = SystemTuple(tuple(ExactPolynomial.from_roots(r) for r in entries), n, FIELD_REAL)
    return t, d - common


def seeded_map_degree(t: SystemTuple, rng: random.Random) -> int:
    lam = [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(t.m * t.n)
    ]
    try:
        return map_degree(t, lam)
    except ValueError:
        return map_degree(t, [complex(1, i + 1) for i in range(t.m * t.n)])


def test_criterion_3_map_degree():
    start = time.perf_counter()
    rng = random.Random(33)
    failures = 0
    checked = 0
    for case in CASES:
        for k in range(100):
            d = rng.randint(2, 6)
            t = random_member(case, d, seed=rng.randrange(2**31))
            checked += 1
            if seeded_map_degree(t, rng) != d:
                failures += 1
    # non-members: the gcd of the jet components is cancelled from the map
    planted_rng = random.Random(34)
    nonmembers = 0
    for case in CASES:
        for k in range(40):
            t, expected = planted_nonmember(case, planted_rng)
            nonmembers += not is_member(t)
            if seeded_map_degree(t, planted_rng) != expected:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and nonmembers == 200 and elapsed < 120.0
    verdict(
        3,
        ok,
        f"{checked} members, {nonmembers} planted non-members, {failures} wrong degrees",
        elapsed,
    )
    assert failures == 0
    assert nonmembers == 200
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. (2,1) census and blocked cross-label paths
# ---------------------------------------------------------------------------


def test_criterion_4_pair_census():
    start = time.perf_counter()
    bad_support = []
    missing_violations = []
    for d in range(1, 6):
        labels = legal_labels_21(d)
        assert len(labels) == d + 1
        for j in labels:
            assert component_of_21(representative_21(d, j)).j == j
        report = invariant_sweep("21", d, 2000, seed=d)
        if report.failures or not set(report.support) <= set(labels):
            bad_support.append(d)
        for a_idx in range(len(labels)):
            for b_idx in range(a_idx + 1, len(labels)):
                cert = locate_violation(
                    representative_21(d, labels[a_idx]),
                    representative_21(d, labels[b_idx]),
                )
                if cert is None or cert.width > F(1, 10**6):
                    missing_violations.append((d, labels[a_idx], labels[b_idx]))
    elapsed = time.perf_counter() - start
    ok = not bad_support and not missing_violations
    verdict(
        4,
        ok,
        f"d <= 5 labels exact, {len(missing_violations)} unblocked cross-label paths",
        elapsed,
    )
    assert not bad_support
    assert not missing_violations


# ---------------------------------------------------------------------------
# 5. (3,1) winding identity
# ---------------------------------------------------------------------------


def test_criterion_5_winding_identity():
    start = time.perf_counter()
    for d in (3, 5, 7):
        assert pi1_winding(lambda theta: i_d_loop(d, theta)) == 1
    # collision cancellation: as t -> 0 a real root pair of f1 collides and
    # leaves the axis; the alternating product stays continuous
    base = Model31((z * z) * (z - 2), z + 1, z - 1)
    reference = r_tilde(base)
    split, merged = [], []
    for k in (8, 10, 12, 14):
        t = F(1, 10**k)
        split.append(abs(r_tilde(Model31((z * z - t) * (z - 2), z + 1, z - 1)) - reference))
        merged.append(abs(r_tilde(Model31((z * z + t) * (z - 2), z + 1, z - 1)) - reference))
    # approaching the collision from either side converges to the collided
    # value: monotone decay on the split side, already-cancelled on the other
    continuity_ok = (
        split == sorted(split, reverse=True)
        and split[-1] < 1e-6
        and max(merged) < 1e-6
    )
    nonzero = 0
    rng = random.Random(55)
    for _ in range(1000):
        d = rng.choice((3, 5, 7))
        t = random_member("31", d, seed=rng.randrange(2**31))
        if abs(r_tilde(phi(t))) > 1e-12:
            nonzero += 1
    elapsed = time.perf_counter() - start
    ok = continuity_ok and nonzero == 1000
    verdict(
        5,
        ok,
        f"reference loops wind once; collision deviation {split[-1]:.2e}; "
        f"{nonzero}/1000 nonzero",
        elapsed,
    )
    assert continuity_ok
    assert nonzero == 1000


# ---------------------------------------------------------------------------
# 6. stabilization preserves the generator
# ---------------------------------------------------------------------------


def test_criterion_6_stabilization_shadow():
    start = time.perf_counter()
    samples = []
    for k in range(64):
        m = stabilize_31_model(i_d_loop(3, 2 * math.pi * k / 64), F(9))
        samples.append(stabilize_31_model(m, F(25)))
    samples.append(samples[0])
    assert samples[0].degree == 5
    winding = pi1_winding(samples)
    elapsed = time.perf_counter() - start
    verdict(6, winding == 1, f"d 3 -> 5 image loop winds {winding}", elapsed)
    assert winding == 1


# ---------------------------------------------------------------------------
# 7. (1,2) census, electric degrees, stabilization increments
# ---------------------------------------------------------------------------


def test_criterion_7_single_poly_census():
    start = time.perf_counter()
    for d in range(1, 9):
        labels = legal_labels_12(d)
        assert labels == list(range(d // 2 + 1))
        for j in labels:
            assert component_of_12(representative_12(d, j)) == j
    rng = random.Random(7)
    electric_failures = 0
    for _ in range(300):
        d = rng.randint(1, 13)  # j = d // 2 at most, so j <= 6
        t = random_member("12", d, seed=rng.randrange(2**31))
        cfg = to_configuration(t.polys[0])
        if electric_degree(cfg) != cfg.j:
            electric_failures += 1
    increment_failures = 0
    for k in range(1000):
        t = random_member("12", rng.randint(1, 8), seed=rng.randrange(2**31))
        f = t.polys[0]
        before = component_of_12(f)
        after = component_of_12(stabilize_12(f, cauchy_root_bound([f]) + 1))
        if after != before + 1:
            increment_failures += 1
    elapsed = time.perf_counter() - start
    ok = electric_failures == 0 and increment_failures == 0
    verdict(
        7,
        ok,
        f"labels exact for d <= 8; {electric_failures} electric mismatches; "
        f"{increment_failures} bad increments",
        elapsed,
    )
    assert electric_failures == 0
    assert increment_failures == 0


# ---------------------------------------------------------------------------
# 8. conjugation equivariance
# ---------------------------------------------------------------------------


def test_criterion_8_equivariance():
    start = time.perf_counter()
    rng = random.Random(88)
    checked = 0
    failures = 0
    while checked < 1000:
        case = rng.choice(CASES)
        d = rng.randint(1, 5)
        t = random_member(case, d, seed=rng.randrange(2**31), field=FIELD_COMPLEX)
        if len(set(t.degrees)) != 1:
            continue
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            lhs = eval_natural_map(conjugate_tuple(t), alpha.conjugate())
            rhs = eval_natural_map(t, alpha).conjugate()
        except Exception:
            failures += 1
            checked += 1
            continue
        if not lhs.proportional_to(rhs, rel_tol=1e-10):
            failures += 1
        checked += 1
    fixed_failures = 0
    for k in range(100):
        t = random_member(rng.choice(CASES), rng.randint(1, 6), seed=k)
        if conjugate_tuple(t) != t:
            fixed_failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and fixed_failures == 0
    verdict(
        8,
        ok,
        f"1000 complex members equivariant, {failures} failures; "
        f"{fixed_failures} real tuples moved",
        elapsed,
    )
    assert failures == 0
    assert fixed_failures == 0


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism():
    start = time.perf_counter()
    runs = [("21", 3, 2000, 1), ("12", 6, 2000, 1), ("31", 3, 500, 1)]
    expected_support = {
        ("21", 3): (-3, -1, 1, 3),
        ("12", 6): (0, 1, 2, 3),
        ("31", 3): (1,),
    }
    mismatches = []
    for case, d, trials, seed in runs:
        first = invariant_sweep(case, d, trials, seed)
        second = invariant_sweep(case, d, trials, seed)
        if first.to_bytes() != second.to_bytes():
            mismatches.append((case, "bytes"))
        if first.failures != 0:
            mismatches.append((case, "failures"))
        if tuple(first.support) != expected_support[(case, d)]:
            mismatches.append((case, "support"))
    elapsed = time.perf_counter() - start
    verdict(9, not mismatches, f"3 sweeps byte-identical on rerun {mismatches}", elapsed)
    assert not mismatches
