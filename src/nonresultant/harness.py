"""Verification plumbing: random and planted samplers, a numeric membership
route, straight-line path certification, and seeded invariant sweeps.

Paths between two tuples of one shape interpolate coefficients linearly; at
any rational parameter the interpolated tuple is exact, so membership there
is a certainty, not an estimate.  For the pair-resultant shapes ((2,1) via
res(f1, f2), (1,2) via res(f, f')) the boundary locus along the path is the
real root set of an exact polynomial in the parameter, recovered by Lagrange
interpolation from exact resultant values (over C, of the gcd of its real and
imaginary parts); locating violations this way also catches even-order
touches that boolean sampling can never see.

Sweeps draw every trial from a per-index seed, so serial and parallel runs
agree, and reports serialize to canonical JSON bytes for reproducibility
comparisons.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .case12 import component_of_12, legal_labels_12, representative_12
from .case21 import component_of_21, legal_labels_21, representative_21
from .case31 import Model31, i_d_loop, pi1_winding, r_tilde
from .exactalg import (
    ExactPolynomial,
    GaussianRational,
    complex_roots_many,
    gcd_exact,
    real_roots_exact,
    resultant_exact,
)
from .nonres import (
    FIELD_COMPLEX,
    FIELD_REAL,
    SystemTuple,
    is_member,
    max_common_multiplicity,
)

__all__ = [
    "CASE_SHAPES",
    "PathInSpace",
    "SweepReport",
    "ViolationCertificate",
    "certify_path",
    "invariant_sweep",
    "is_member_numeric",
    "locate_violation",
    "numeric_common_multiplicities",
    "numeric_common_multiplicity",
    "path_tuple",
    "planted_tuple",
    "random_member",
]

CASE_SHAPES = {"21": (2, 1), "31": (3, 1), "12": (1, 2), "13": (1, 3), "22": (2, 2)}

# lattice steps keep every distinct sampled root >= 1/4 apart and the scale
# small: a multiplicity-k root blurs to ~(eps*H/g)^(1/k) in binary64, and at
# scale <= 4 that stays an order of magnitude under the gap even for k = 4
_REAL_LATTICE = [Fraction(p, 4) for p in range(-14, 15)]
_COMPLEX_LATTICE = [(a, b) for a in range(-5, 6) for b in range(1, 6)]


def _check_case_d(case: str, d: int) -> tuple:
    if case not in CASE_SHAPES:
        raise ValueError(f"unknown case {case!r}; expected one of {sorted(CASE_SHAPES)}")
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    return CASE_SHAPES[case]


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def _poly_from_real_roots(rng: random.Random, d: int) -> ExactPolynomial:
    """Monic real polynomial: a random mix of lattice reals and conjugate
    pairs, distinct within the polynomial."""
    pairs = rng.randrange(0, d // 2 + 1) if rng.random() < 0.5 else 0
    reals = rng.sample(_REAL_LATTICE, d - 2 * pairs)
    roots = [Fraction(r) for r in reals]
    taken = set()
    while len(taken) < pairs:
        a, b = rng.randrange(-10, 11), rng.randrange(1, 11)
        taken.add((a, b))
    for a, b in sorted(taken):
        g = GaussianRational(Fraction(a, 2), Fraction(b, 2))
        roots += [g, g.conjugate()]
    return ExactPolynomial.from_roots(roots)


def _poly_from_complex_roots(rng: random.Random, d: int) -> ExactPolynomial:
    taken = set()
    while len(taken) < d:
        taken.add((rng.randrange(-10, 11), rng.randrange(-10, 11)))
    return ExactPolynomial.from_roots(
        [GaussianRational(Fraction(a, 2), Fraction(b, 2)) for a, b in sorted(taken)]
    )


def random_member(
    case: str,
    d: int,
    seed: int,
    max_attempts: int = 1000,
    field: str = FIELD_REAL,
) -> SystemTuple:
    """Rejection-sampled member tuple, reproducible under the seed."""
    m, n = _check_case_d(case, d)
    rng = random.Random(seed)
    draw = _poly_from_real_roots if field == FIELD_REAL else _poly_from_complex_roots
    for attempt in range(max_attempts):
        t = SystemTuple(tuple(draw(rng, d) for _ in range(m)), n, field)
        if is_member(t):
            return t
    raise RuntimeError(
        f"no member found in {max_attempts} attempts for case {case}, d={d} "
        f"(rejection rate 100%)"
    )


def planted_tuple(case: str, d: int, seed: int, field: str = FIELD_REAL) -> tuple:
    """(tuple, mu): every entry shares one planted root of multiplicity
    exactly mu (mu = 0 plants nothing); the remaining roots are lattice
    points distinct across all entries, so max_common_multiplicity == mu.

    mu is drawn from 0..min(n+1, d), straddling the membership threshold.
    """
    m, n = _check_case_d(case, d)
    rng = random.Random(seed)
    # a single polynomial always carries multiplicity >= 1; only tuples with
    # m >= 2 can avoid a common root altogether
    mu = rng.randrange(0 if m >= 2 else 1, min(n + 1, d) + 1)
    real_field = field == FIELD_REAL

    pool = list(_REAL_LATTICE)
    rng.shuffle(pool)
    complex_pool = list(_COMPLEX_LATTICE)
    rng.shuffle(complex_pool)

    shared: list = []
    if mu:
        if real_field and mu * 2 <= d and rng.random() < 0.4:
            a, b = complex_pool.pop()
            g = GaussianRational(Fraction(a, 2), Fraction(b, 2))
            shared = [g, g.conjugate()] * mu
        elif real_field:
            shared = [pool.pop()] * mu
        else:
            a, b = complex_pool.pop()
            shared = [GaussianRational(Fraction(a, 2), Fraction(b, 2))] * mu

    polys = []
    for _ in range(m):
        free = d - len(shared)
        roots = list(shared)
        if real_field:
            take = []
            while len(take) < free:
                if free - len(take) >= 2 and rng.random() < 0.3:
                    a, b = complex_pool.pop()
                    g = GaussianRational(Fraction(a, 2), Fraction(b, 2))
                    take += [g, g.conjugate()]
                else:
                    take.append(pool.pop())
            roots += take
        else:
            roots += [
                GaussianRational(Fraction(a, 2), Fraction(b, 2))
                for a, b in (complex_pool.pop() for _ in range(free))
            ]
        polys.append(ExactPolynomial.from_roots(roots))
    return SystemTuple(tuple(polys), n, field), mu


# ---------------------------------------------------------------------------
# numeric membership route
# ---------------------------------------------------------------------------


_MERGE_REL = 2e-2  # well above the mult-4 blur, well below the lattice gap


def _merge_clusters(clusters: list, tol: float) -> list:
    """Single-linkage merge of root clusters whose centers sit within tol
    (plus their own radii) of each other, as (center, radius, multiplicity)
    tuples."""
    k = len(clusters)
    centers = [c.center for c in clusters]
    radii = [c.radius for c in clusters]
    mults = [c.multiplicity for c in clusters]
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        ci, ri = centers[i], radii[i]
        for j in range(i + 1, k):
            if abs(ci - centers[j]) <= tol + 5.0 * (ri + radii[j]):
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    merged = []
    for members in groups.values():
        if len(members) == 1:
            # the sums and the max below, each over one member
            i = members[0]
            total = mults[i]
            center = (0 + centers[i] * total) / total
            merged.append((center, abs(centers[i] - center) + radii[i], total))
            continue
        total = sum(mults[i] for i in members)
        center = sum(centers[i] * mults[i] for i in members) / total
        radius = max(abs(centers[i] - center) + radii[i] for i in members)
        merged.append((center, radius, total))
    return merged


def numeric_common_multiplicities(tuples: Sequence[SystemTuple], cluster_tol: float = None) -> list:
    """Numeric max common multiplicity for a batch of tuples: all entry
    polynomials go through one batched root solve, then the fine clusters are
    re-merged at a scale-relative tolerance (a multiplicity-k root blurs to
    far more than machine epsilon in binary64) and matched across entries.

    Passing cluster_tol uses that absolute tolerance for both stages instead.
    """
    flat = [f for t in tuples for f in t.polys]
    rootss = complex_roots_many(flat, cluster_tol)
    coarse = []
    for clusters in rootss:
        if not clusters:
            coarse.append([])
            continue
        if cluster_tol is None:
            tol = _MERGE_REL * max(1.0, max(abs(c.center) for c in clusters))
        else:
            tol = cluster_tol
        coarse.append(_merge_clusters(clusters, tol))
    out = []
    pos = 0
    for t in tuples:
        per_poly = coarse[pos : pos + t.m]
        pos += t.m
        best = 0
        for cand_center, cand_radius, cand_mult in per_poly[0]:
            mult = cand_mult
            base = cluster_tol if cluster_tol is not None else _MERGE_REL * max(
                1.0, abs(cand_center)
            )
            for clusters in per_poly[1:]:
                match = 0
                for center, radius, multiplicity in clusters:
                    if abs(center - cand_center) <= base + 5.0 * (cand_radius + radius):
                        match = max(match, multiplicity)
                mult = min(mult, match)
                if mult == 0:
                    break
            best = max(best, mult)
        out.append(best)
    return out


def numeric_common_multiplicity(t: SystemTuple, cluster_tol: float = None) -> int:
    return numeric_common_multiplicities([t], cluster_tol)[0]


def is_member_numeric(t: SystemTuple, cluster_tol: float = None) -> bool:
    """Membership judged from numeric root clusters alone (no exact gcd)."""
    return numeric_common_multiplicity(t, cluster_tol) < t.n


# ---------------------------------------------------------------------------
# straight-line paths
# ---------------------------------------------------------------------------


def _same_shape(a: SystemTuple, b: SystemTuple):
    if (a.m, a.n, a.field, a.degrees) != (b.m, b.n, b.field, b.degrees):
        raise ValueError("path endpoints must share (m, n, field, degrees)")


def _interp(f: ExactPolynomial, g: ExactPolynomial, t: Fraction) -> ExactPolynomial:
    return f + (g - f) * t


def path_tuple(a: SystemTuple, b: SystemTuple, t) -> SystemTuple:
    """The straight-line interpolant at rational t (exact; monic throughout)."""
    _same_shape(a, b)
    t = Fraction(t)
    return SystemTuple(
        tuple(_interp(fa, fb, t) for fa, fb in zip(a.polys, b.polys)), a.n, a.field
    )


def _lagrange(nodes: Sequence[Fraction], values: Sequence) -> ExactPolynomial:
    z = ExactPolynomial.variable()
    total = ExactPolynomial.zero()
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if yi == 0:
            continue
        basis = ExactPolynomial.one()
        denom = Fraction(1)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * (z - ExactPolynomial.constant(xj))
            denom *= xi - xj
        total = total + basis * (yi / denom)
    return total


def _boundary_polynomial(a: SystemTuple, b: SystemTuple) -> Optional[ExactPolynomial]:
    """Exact polynomial in t whose roots in (0,1) are the path's boundary
    crossings, for the shapes where one resultant captures membership."""
    if a.m == 2 and a.n == 1:
        pairs = lambda t: (path_tuple(a, b, t).polys)
    elif a.m == 1 and a.n == 2:
        def pairs(t):
            f = path_tuple(a, b, t).polys[0]
            return f, f.derivative()
    else:
        return None
    degree_bound = sum(f.degree for f in pairs(Fraction(0)))
    nodes = [Fraction(i, degree_bound) for i in range(degree_bound + 1)]
    values = [resultant_exact(*pairs(x)) for x in nodes]
    return _lagrange(nodes, values)


@dataclass(frozen=True)
class ViolationCertificate:
    """Where a path leaves the space: a bracket [lo, hi] around a boundary
    parameter.  `sign_change` records an odd-order resultant crossing;
    kind 'nonmember_parameter' means hi itself is an exact non-member."""

    kind: str
    lo: Fraction
    hi: Fraction
    sign_change: bool

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "lo": str(self.lo),
            "hi": str(self.hi),
            "sign_change": self.sign_change,
        }


def locate_violation(
    a: SystemTuple, b: SystemTuple, width: Fraction = Fraction(1, 10**6)
) -> Optional[ViolationCertificate]:
    """Bracket of width <= `width` around a parameter where the straight-line
    path from a to b leaves the space, or None when none is found.

    For the single-resultant shapes None is exact: the boundary polynomial
    has no root in (0, 1).  Other shapes fall back to dyadic scanning plus
    boolean bisection, which can miss zero-measure violations.
    """
    _same_shape(a, b)
    if not (is_member(a) and is_member(b)):
        raise ValueError("path endpoints must be members")
    width = Fraction(width)
    g = _boundary_polynomial(a, b)
    if g is not None:
        kind = "resultant_root" if a.m == 2 else "discriminant_root"
        if g.is_zero:
            return ViolationCertificate(kind, Fraction(0), Fraction(1), False)
        if not g.is_real:
            # over C the resultant is Gaussian; a real t is a root of it
            # exactly when t is a root of its real and imaginary parts
            half = Fraction(1, 2)
            re_part = (g + g.conjugate()) * half
            im_part = (g - g.conjugate()) * GaussianRational(0, -half)
            g = gcd_exact(re_part, im_part)
        inside = []
        for r in real_roots_exact(g):
            r = r.refine(width)
            if 0 < r.midpoint < 1 and r.lo > 0 and r.hi < 1:
                inside.append(r)
        if not inside:
            return None
        r = inside[0]
        return ViolationCertificate(kind, r.lo, r.hi, r.multiplicity % 2 == 1)

    # general shapes: scan dyadic parameters, then bisect on the boolean
    for depth in range(1, 13):
        step = Fraction(1, 2**depth)
        for i in range(1, 2**depth, 2):
            t = i * step
            if not is_member(path_tuple(a, b, t)):
                lo, hi = t - step, t
                while hi - lo > width:
                    mid = (lo + hi) / 2
                    if is_member(path_tuple(a, b, mid)):
                        lo = mid
                    else:
                        hi = mid
                return ViolationCertificate("nonmember_parameter", lo, hi, False)
    return None


@dataclass(frozen=True)
class PathInSpace:
    """A certified straight-line path: dyadic samples (parameter, exact
    membership, optional invariant value), plus any located boundary
    violations.  Samples alone cannot witness an even-order touch at an
    irrational parameter, hence the separate violations field."""

    endpoints: tuple
    samples: tuple
    refinement_depth: int
    violations: tuple = ()

    @property
    def certified(self) -> bool:
        return all(member for _, member, _ in self.samples) and not self.violations

    @property
    def invariant_values(self) -> tuple:
        seen = []
        for _, member, value in self.samples:
            if member and value is not None and value not in seen:
                seen.append(value)
        return tuple(seen)

    @property
    def invariant_constant(self) -> bool:
        return len(self.invariant_values) <= 1


def certify_path(
    a: SystemTuple,
    b: SystemTuple,
    depth_cap: int = 10,
    invariant: Optional[Callable[[SystemTuple], object]] = None,
    min_depth: int = 6,
) -> PathInSpace:
    """Sample the straight-line path on a dyadic grid with exact membership
    at every sample, refining any segment whose endpoints disagree (in
    membership or invariant value) until they agree or depth_cap is hit;
    then search for boundary crossings the grid cannot see."""
    _same_shape(a, b)
    if depth_cap < min_depth:
        raise ValueError("depth_cap below the initial sampling depth")

    def probe(t: Fraction):
        tup = path_tuple(a, b, t)
        member = is_member(tup)
        value = invariant(tup) if (invariant is not None and member) else None
        return (t, member, value)

    grid = {Fraction(i, 2**min_depth): None for i in range(2**min_depth + 1)}
    samples = {t: probe(t) for t in grid}
    depth = min_depth
    while depth < depth_cap:
        ordered = sorted(samples)
        new_params = []
        for left, right in zip(ordered, ordered[1:]):
            la, ra = samples[left], samples[right]
            if la[1] != ra[1] or la[2] != ra[2]:
                new_params.append((left + right) / 2)
        if not new_params:
            break
        depth += 1
        for t in new_params:
            samples[t] = probe(t)

    violations = ()
    if is_member(a) and is_member(b) and a.m * a.n == 2:
        cert = locate_violation(a, b)
        if cert is not None:
            violations = (cert,)
    return PathInSpace(
        endpoints=(a, b),
        samples=tuple(samples[t] for t in sorted(samples)),
        refinement_depth=depth,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Aggregated result of one seeded invariant sweep; serializes to
    canonical bytes so reruns can be compared literally."""

    case_tag: str
    d: int
    trials: int
    seed: int
    failures: int
    support: tuple
    checks: dict
    tolerances: dict

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "d": self.d,
            "trials": self.trials,
            "seed": self.seed,
            "failures": self.failures,
            "support": list(self.support),
            "checks": dict(sorted(self.checks.items())),
            "tolerances": dict(sorted(self.tolerances.items())),
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def _trial_rng(seed: int, index: int) -> random.Random:
    # split per trial so any execution order reproduces the same stream
    return random.Random(seed * 1_000_003 + index)


def _sweep_21(d: int, trials: int, seed: int) -> SweepReport:
    legal = set(legal_labels_21(d))
    failures = 0
    support = set()
    for i in range(trials):
        rng = _trial_rng(seed, i)
        t = None
        while t is None:
            cand = SystemTuple(
                (_poly_from_real_roots(rng, d), _poly_from_real_roots(rng, d)),
                1,
                FIELD_REAL,
            )
            if is_member(cand):
                t = cand
        j = component_of_21(t).j
        support.add(j)
        if j not in legal:
            failures += 1
    reps_ok = 0
    for j in sorted(legal):
        if component_of_21(representative_21(d, j)).j == j:
            reps_ok += 1
        else:
            failures += 1
    return SweepReport(
        case_tag="21",
        d=d,
        trials=trials,
        seed=seed,
        failures=failures,
        support=tuple(sorted(support)),
        checks={"labels_legal": trials, "representatives_realized": reps_ok},
        tolerances={"winding_integer_slack": "0.2"},
    )


def _sweep_12(d: int, trials: int, seed: int) -> SweepReport:
    failures = 0
    support = set()
    labels = legal_labels_12(d)
    for i in range(trials):
        rng = _trial_rng(seed, i)
        j = labels[rng.randrange(len(labels))]
        reals = rng.sample(_REAL_LATTICE, d - 2 * j)
        taken = set()
        while len(taken) < j:
            taken.add((rng.randrange(-10, 11), rng.randrange(1, 11)))
        roots = [Fraction(r) for r in reals]
        for aa, bb in sorted(taken):
            g = GaussianRational(Fraction(aa, 2), Fraction(bb, 2))
            roots += [g, g.conjugate()]
        f = ExactPolynomial.from_roots(roots)
        got = component_of_12(f)
        support.add(got)
        if got != j:
            failures += 1
    reps_ok = 0
    for j in labels:
        if component_of_12(representative_12(d, j)) == j:
            reps_ok += 1
        else:
            failures += 1
    return SweepReport(
        case_tag="12",
        d=d,
        trials=trials,
        seed=seed,
        failures=failures,
        support=tuple(sorted(support)),
        checks={"planted_labels_recovered": trials, "representatives_realized": reps_ok},
        tolerances={},
    )


def _sweep_31(d: int, trials: int, seed: int) -> SweepReport:
    if d % 2 == 0:
        raise ValueError("the triple-case sweep needs odd d")
    failures = 0
    nonzero = 0
    for i in range(trials):
        rng = _trial_rng(seed, i)
        model = None
        while model is None:
            f1 = _poly_from_real_roots(rng, d)
            f2 = _random_low_degree(rng, d)
            f3 = _random_low_degree(rng, d)
            try:
                model = Model31(f1, f2, f3)
            except ValueError:
                model = None
        v = r_tilde(model)
        if v == 0 or not (abs(v) < float("inf")):
            failures += 1
        else:
            nonzero += 1
    winding = pi1_winding(lambda th: i_d_loop(d, th))
    if winding != 1:
        failures += 1
    return SweepReport(
        case_tag="31",
        d=d,
        trials=trials,
        seed=seed,
        failures=failures,
        support=(winding,),
        checks={"r_tilde_nonzero": nonzero, "generator_winding": winding},
        tolerances={"winding_integer_slack": "0.2"},
    )


def _random_low_degree(rng: random.Random, d: int) -> ExactPolynomial:
    deg = rng.randrange(0, d)
    coeffs = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 5)) for _ in range(deg + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.randrange(1, 41), 1)
    return ExactPolynomial(tuple(coeffs))


def invariant_sweep(case: str, d: int, trials: int, seed: int) -> SweepReport:
    """Seeded invariant suite for one case; failures are counted, never
    raised, and the report's canonical bytes depend only on the arguments."""
    _check_case_d(case, d)
    if case == "21":
        return _sweep_21(d, trials, seed)
    if case == "12":
        return _sweep_12(d, trials, seed)
    if case == "31":
        return _sweep_31(d, trials, seed)
    raise ValueError(f"no sweep suite for case {case!r}")
