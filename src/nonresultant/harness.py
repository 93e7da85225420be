"""Verification plumbing: random and planted samplers, a numeric membership
route, straight-line path certification, and seeded invariant sweeps.

Paths between two tuples of one shape interpolate coefficients linearly; at
any rational parameter the interpolated tuple is exact, so membership there
is a certainty, not an estimate.  For every shape the boundary locus along
the path is the real root set of one exact polynomial in the parameter: the
gcd, over generic combinations of the jet components, of their resultants
with f_1, each interpolated from exact resultant values at equispaced nodes
(over C, of the gcd of its real and imaginary parts).  For (2,1) and (1,2) it
is res(f1, f2) and res(f, f').  Its sign decides membership at every dyadic
sample, and its roots in (0, 1) are the violations, so irrational crossings
and even-order touches that boolean sampling can never see are found too.
The entries at the nodes are built on integer numerators over one
denominator, and a path whose polynomial has no root in [0, 1] is clear
without a sign per sample.

Random members, censuses and sweeps share one rejection loop: a draw that
raises MembershipError is drawn again, at most _MAX_ATTEMPTS times.  Sweeps
draw every trial from a per-index seed, so the trials agree in any
execution order, and reports serialize to canonical JSON bytes for
reproducibility comparisons.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .case12 import component_of_12, legal_labels_12, representative_12
from .case21 import component_of_21, legal_labels_21, representative_21
from .case31 import Model31, i_d_loop, pi1_winding, r_tilde
from .exactalg import (
    ExactPolynomial,
    GaussianRational,
    _link_rows,
    _merge_rows,
    _poly,
    _root_cluster_arrays,
    gcd_exact,
    has_real_root_between,
    interpolate_equispaced,
    real_roots_exact,
    resultant_exact,
    sign_at,
)
from .nonres import FIELD_REAL, MembershipError, SystemTuple, is_member, jet

__all__ = [
    "CASE_SHAPES",
    "PathInSpace",
    "SweepReport",
    "ViolationCertificate",
    "census",
    "certify_path",
    "invariant_sweep",
    "locate_violation",
    "numeric_common_multiplicities",
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

_MAX_ATTEMPTS = 1000  # rejection draws before a sampler gives up
_MIN_DEPTH = 6  # certify_path's first samples: t = k / 2**6
_DEPTH_CAP = 10  # its finest refinement: t = k / 2**10
_BRACKET_WIDTH = Fraction(1, 10**6)  # the width bound of every violation bracket


def _check_case_d(case: str, d: int) -> tuple:
    if case not in CASE_SHAPES:
        raise ValueError(f"unknown case {case!r}; expected one of {sorted(CASE_SHAPES)}")
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    return CASE_SHAPES[case]


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def _half(a: int, b: int) -> GaussianRational:
    """The half-lattice point (a + b i) / 2."""
    return GaussianRational(Fraction(a, 2), Fraction(b, 2))


def _rejection_sample(draw: Callable[[random.Random], object], rng: random.Random, case: str, d: int):
    """The first draw(rng) that does not raise MembershipError, the one
    rejection test of every sampler; after _MAX_ATTEMPTS rejections it
    raises RuntimeError."""
    for _ in range(_MAX_ATTEMPTS):
        try:
            return draw(rng)
        except MembershipError:
            pass
    raise RuntimeError(
        f"no member found in {_MAX_ATTEMPTS} attempts for case {case}, d={d} "
        f"(rejection rate 100%)"
    )


def _lattice_exhausted(d: int, kind: str, size: int) -> ValueError:
    return ValueError(
        f"d={d} needs more distinct {kind} points than the {size} of its sampling lattice"
    )


def _poly_from_real_roots(
    rng: random.Random, d: int, pairs: Optional[int] = None
) -> ExactPolynomial:
    """Monic real polynomial: a random mix of lattice reals and conjugate
    pairs (`pairs` of them, drawn when not given), distinct within the
    polynomial; ValueError when the draw needs more distinct points than a
    lattice has."""
    if pairs is None:
        pairs = rng.randrange(0, d // 2 + 1) if rng.random() < 0.5 else 0
    if d - 2 * pairs > len(_REAL_LATTICE):
        raise _lattice_exhausted(d, "real", len(_REAL_LATTICE))
    if pairs > 21 * 10:  # (a + b i) / 2 for -10 <= a <= 10 and 1 <= b <= 10
        raise _lattice_exhausted(d, "conjugate-pair", 21 * 10)
    reals = rng.sample(_REAL_LATTICE, d - 2 * pairs)
    roots = [Fraction(r) for r in reals]
    taken = set()
    while len(taken) < pairs:
        a, b = rng.randrange(-10, 11), rng.randrange(1, 11)
        taken.add((a, b))
    for a, b in sorted(taken):
        g = _half(a, b)
        roots += [g, g.conjugate()]
    return ExactPolynomial.from_roots(roots)


def _poly_from_complex_roots(rng: random.Random, d: int) -> ExactPolynomial:
    if d > 21 * 21:  # (a + b i) / 2 for -10 <= a, b <= 10
        raise _lattice_exhausted(d, "complex", 21 * 21)
    taken = set()
    while len(taken) < d:
        taken.add((rng.randrange(-10, 11), rng.randrange(-10, 11)))
    return ExactPolynomial.from_roots([_half(a, b) for a, b in sorted(taken)])


def random_member(case: str, d: int, seed: int, field: str = FIELD_REAL) -> SystemTuple:
    """Rejection-sampled member tuple, reproducible under the seed."""
    m, n = _check_case_d(case, d)
    poly = _poly_from_real_roots if field == FIELD_REAL else _poly_from_complex_roots

    def draw(rng):
        t = SystemTuple(tuple(poly(rng, d) for _ in range(m)), n, field)
        if not is_member(t):
            raise MembershipError("the draw has a common root of multiplicity >= n")
        return t

    return _rejection_sample(draw, random.Random(seed), case, d)


def census(case: str, d: int, samples: int, seed: int) -> dict:
    """Label counts {label: count}, ascending, over `samples` random member
    tuples of degree d: the real-axis degree j for case '21', the number of
    conjugate pairs for '12'.  Every entry is monic, with lower coefficients
    p/q for uniform p in [-100, 100] and q in [1, 10]; draws outside the
    space (a common root, a repeated root) are rejected exactly."""
    if case not in ("21", "12"):
        raise ValueError(f"census supports cases 21 and 12, not {case!r}")
    m, n = _check_case_d(case, d)
    if samples < 0:
        raise ValueError("sample count must be nonnegative")

    def draw(rng):
        rows = [[Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(d)] for _ in range(m)]
        polys = tuple(ExactPolynomial((*row, Fraction(1))) for row in rows)
        t = SystemTuple(polys, n, FIELD_REAL)
        return component_of_21(t).j if case == "21" else component_of_12(polys[0])

    rng, counts = random.Random(seed), {}
    for _ in range(samples):
        label = _rejection_sample(draw, rng, case, d)
        counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items()))


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

    def point(lattice: list):
        # the next unused point of a shuffled lattice
        if not lattice:
            real = lattice is pool
            size = len(_REAL_LATTICE if real else _COMPLEX_LATTICE)
            raise _lattice_exhausted(d, "real" if real else "complex", size)
        return lattice.pop()

    shared: list = []
    if mu:
        if real_field and mu * 2 <= d and rng.random() < 0.4:
            g = _half(*point(complex_pool))
            shared = [g, g.conjugate()] * mu
        elif real_field:
            shared = [point(pool)] * mu
        else:
            shared = [_half(*point(complex_pool))] * mu

    polys = []
    for _ in range(m):
        free = d - len(shared)
        roots = list(shared)
        if real_field:
            take = []
            while len(take) < free:
                if free - len(take) >= 2 and rng.random() < 0.3:
                    g = _half(*point(complex_pool))
                    take += [g, g.conjugate()]
                else:
                    take.append(point(pool))
            roots += take
        else:
            roots += [_half(*point(complex_pool)) for _ in range(free)]
        polys.append(ExactPolynomial.from_roots(roots))
    return SystemTuple(tuple(polys), n, field), mu


# ---------------------------------------------------------------------------
# numeric membership route
# ---------------------------------------------------------------------------


_MERGE_REL = 2e-2  # well above the mult-4 blur, well below the lattice gap
_MERGE_ROWS = 512  # rows per merge pass: bounds its (B, k, k) temporaries


def numeric_common_multiplicities(tuples: Sequence[SystemTuple]) -> list:
    """Numeric max common multiplicity for a batch of tuples, in array
    passes.  One batched root solve covers every entry; each entry's clusters
    merge at _MERGE_REL max(1, max |center|) plus five radii, since a
    multiple root blurs far beyond machine epsilon.  A merged cluster of the
    first entry counts with the least, over the other entries, of their
    largest multiplicity within _MERGE_REL max(1, |center|) plus five times
    both radii; the tuples of each m are matched together."""
    clusters, merged = _root_cluster_arrays([f for t in tuples for f in t.polys]), []
    for lo in range(0, len(clusters[0]) or 1, _MERGE_ROWS):
        re, im, radius, mult = (a[lo : lo + _MERGE_ROWS] for a in clusters)
        tol = _MERGE_REL * np.maximum(1.0, np.hypot(re, im).max(axis=1, initial=0.0))
        merged.append(_merge_rows(re, im, radius, mult, *_link_rows(re, im, radius, tol, mult > 0)))
    re, im, radius, mult = (np.concatenate(parts) for parts in zip(*merged))
    out, ms = np.zeros(len(tuples), dtype=int), np.array([t.m for t in tuples], dtype=int)
    for m in set(ms.tolist()):
        idx = np.flatnonzero(ms == m)
        row = (np.cumsum(ms) - ms)[idx]
        best = mult[row]
        base = _MERGE_REL * np.maximum(1.0, np.hypot(re[row], im[row]))
        for j in range(1, m):
            other = row + j
            dist = np.hypot(re[row, :, None] - re[other, None, :], im[row, :, None] - im[other, None, :])
            near = dist <= base[:, :, None] + 5.0 * (radius[row, :, None] + radius[other, None, :])
            best = np.minimum(best, np.where(near, mult[other, None, :], 0).max(axis=2))
        out[idx] = best.max(axis=1)
    return out.tolist()


# ---------------------------------------------------------------------------
# straight-line paths
# ---------------------------------------------------------------------------


def _same_shape(a: SystemTuple, b: SystemTuple):
    if (a.m, a.n, a.field, a.degrees) != (b.m, b.n, b.field, b.degrees):
        raise ValueError("path endpoints must share (m, n, field, degrees)")


def _on_line(f: ExactPolynomial, g: ExactPolynomial, p: int, q: int) -> ExactPolynomial:
    """The straight line from f to g at t = p/q, q > 0: ((q - p) f + p g) / q
    on integer numerators."""
    return f._combine(q - p, g, p, q)


def path_tuple(a: SystemTuple, b: SystemTuple, t) -> SystemTuple:
    """The straight-line interpolant at rational t (exact; monic throughout)."""
    _same_shape(a, b)
    p, q = Fraction(t).as_integer_ratio()
    return SystemTuple(tuple(_on_line(fa, fb, p, q) for fa, fb in zip(a.polys, b.polys)), a.n, a.field)


def _boundary_polynomial(a: SystemTuple, b: SystemTuple) -> ExactPolynomial:
    """A real polynomial G in the path parameter t whose roots in [0, 1] are
    exactly the parameters where the path leaves the space; G(t) != 0 at a
    parameter in [0, 1] certifies membership there.

    Jets are linear in the coefficients, so each jet component moves as
    c_k(t) = c_k(a) + t*(c_k(b) - c_k(a)), and the path tuple fails
    membership at t exactly when the c_k(t) share a root.  c_1 = f_1 is monic
    of degree d_1, so that happens exactly when
    R(t, lam) = res_z(c_1, sum_{k>=2} lam^(k-2) c_k) vanishes for every lam
    (the generic combination; Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, ch. 3).  deg_t R <= d_1 + max_k deg c_k =: N, and R_lam(t) is
    interpolated from its exact values at t = i/N, where each entry is
    ((N - i) c(a) + i c(b)) / N on integer numerators.  deg_lam R <= (mn-2)*d_1,
    so the gcd over lam = 0, 1, ..., (mn-2)*d_1 of R_lam(t) is the gcd B(t) of
    R's lam-coefficients.  The running gcd stops early once it has no root in
    [0, 1]; otherwise it ends equal to B up to a constant, the zero
    polynomial when the whole path lies outside the space.  Over C each R_lam
    is replaced by the gcd of its real and imaginary parts.  With mn = 2 there
    is one lam and G is res(f1, f2) or res(f, f + f') = res(f, f').
    """
    ca = [c for f in a.polys for c in jet(f, a.n).components]
    cb = [c for f in b.polys for c in jet(f, b.n).components]
    d1 = ca[0].degree
    count = d1 + max(c.degree for c in ca[1:])

    def nodes(fa: ExactPolynomial, fb: ExactPolynomial) -> list:
        return [_on_line(fa, fb, i, count) for i in range(count + 1)]

    firsts = nodes(ca[0], cb[0])
    g = ExactPolynomial.zero()
    last = (len(ca) - 2) * d1
    for lam in range(last + 1):
        # the combination at t = 0 and at t = 1
        comb_a, comb_b = ca[1], cb[1]
        for k in range(2, len(ca)):
            comb_a = comb_a._combine(1, ca[k], lam ** (k - 1))
            comb_b = comb_b._combine(1, cb[k], lam ** (k - 1))
        r = interpolate_equispaced(
            [resultant_exact(f, h) for f, h in zip(firsts, nodes(comb_a, comb_b))]
        )
        if not r.is_real:
            # a real t is a root of r exactly when it is a root of r's real
            # and imaginary parts
            r = gcd_exact(_poly(r._re, None, r._den), _poly(r._im, None, r._den))
        g = r if g.is_zero else gcd_exact(g, r)
        if lam < last and not g.is_zero and not has_real_root_between(g, 0, 1):
            break
    return g


def _first_violation(a: SystemTuple, g: ExactPolynomial):
    """The certificate for the least root of g in (0, 1), bracketed to width
    <= _BRACKET_WIDTH, or None; g must not vanish at 0 or 1."""
    if a.m * a.n > 2:
        kind = "boundary_root"
    else:
        kind = "resultant_root" if a.m == 2 else "discriminant_root"
    for r in real_roots_exact(g):
        if r.hi <= 0 or r.lo >= 1:
            continue  # 0 and 1 are not roots: the root lies outside [0, 1]
        # isolation and refine halve cells of a dyadic grid anchored at 0;
        # a cell narrower than 1 holds neither 0 nor 1 inside it
        r = r.refine(_BRACKET_WIDTH)
        if 0 <= r.lo and r.hi <= 1:
            return ViolationCertificate(kind, r.lo, r.hi, r.multiplicity % 2 == 1)
    return None


@dataclass(frozen=True)
class ViolationCertificate:
    """Where a path leaves the space: a bracket [lo, hi], a subset of
    [0, 1], around a root in (0, 1) of the path's boundary polynomial, or the
    exact root when lo == hi.  `sign_change` records an odd-order root, where the boundary
    polynomial changes sign.  The kind names the polynomial:
    'resultant_root' for (2,1) (res(f1, f2)), 'discriminant_root' for (1,2)
    (res(f, f')), and 'boundary_root' for mn >= 3 (the gcd B over the
    generic combinations of the jet components)."""

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


def locate_violation(a: SystemTuple, b: SystemTuple) -> Optional[ViolationCertificate]:
    """Bracket of width <= 10**-6 (_BRACKET_WIDTH) around the first
    parameter where the straight-line path from a to b leaves the space, or
    None when it never does.  Exact for every shape: the violations are the
    roots in (0, 1) of the path's boundary polynomial, so even-order touches
    and irrational crossings are found too.
    """
    _same_shape(a, b)
    g = _boundary_polynomial(a, b)
    if sign_at(g, 0, 1) == 0 or sign_at(g, 1, 1) == 0:
        raise ValueError("path endpoints must be members")
    return _first_violation(a, g)


@dataclass(frozen=True)
class PathInSpace:
    """A certified straight-line path: dyadic samples (parameter, exact
    membership, optional invariant value), plus the first boundary
    violation when both endpoints are members.  The samples alone cannot
    see a violation off the dyadic grid; the violation comes from the
    boundary polynomial's roots in (0, 1), so `certified` is exact."""

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
    invariant: Optional[Callable[[SystemTuple], object]] = None,
) -> PathInSpace:
    """Sample the straight-line path at t = k/64, then halve any segment
    whose endpoints disagree (in membership or invariant value) until they
    agree or the spacing reaches 1/1024 (_MIN_DEPTH and _DEPTH_CAP); when
    both endpoints are members, add the first boundary crossing in (0, 1),
    as `locate_violation` brackets it.

    Membership at every sample and the crossings are read from one exact
    boundary polynomial of the path (`_boundary_polynomial`), which vanishes
    in [0, 1] exactly at the non-members; the invariant runs only at member
    samples.  A path whose polynomial is nonzero with no root in [0, 1],
    one Sturm count on its cached chain, is clear: every sample is a member
    and there is no violation, so no sign is read per sample and no root is
    isolated.  Sample parameters are kept as integer numerators over
    2**_DEPTH_CAP until the result is built."""
    _same_shape(a, b)
    g = _boundary_polynomial(a, b)
    scale = 1 << _DEPTH_CAP
    # no root in [0, 1]: every sample is a member and nothing is violated
    clear = not g.is_zero and not has_real_root_between(g, 0, 1)

    def probe(p: int):
        member = clear or sign_at(g, p, scale) != 0
        t = Fraction(p, scale)
        value = invariant(path_tuple(a, b, t)) if (invariant is not None and member) else None
        return (t, member, value)

    samples = {p: probe(p) for p in range(0, scale + 1, 1 << (_DEPTH_CAP - _MIN_DEPTH))}
    depth = _MIN_DEPTH
    while depth < _DEPTH_CAP:
        ordered = sorted(samples)
        new_params = [
            (left + right) >> 1
            for left, right in zip(ordered, ordered[1:])
            if samples[left][1:] != samples[right][1:]
        ]
        if not new_params:
            break
        depth += 1
        for p in new_params:
            samples[p] = probe(p)

    cert = None
    if not clear and samples[0][1] and samples[scale][1]:
        cert = _first_violation(a, g)
    return PathInSpace(
        endpoints=(a, b),
        samples=tuple(samples[p] for p in sorted(samples)),
        refinement_depth=depth,
        violations=() if cert is None else (cert,),
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

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "d": self.d,
            "trials": self.trials,
            "seed": self.seed,
            "failures": self.failures,
            "support": list(self.support),
            "checks": dict(sorted(self.checks.items())),
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def _trial_rng(seed: int, index: int) -> random.Random:
    # split per trial so any execution order reproduces the same stream
    return random.Random(seed * 1_000_003 + index)


def _representatives(labels, label_of_representative: Callable[[int], int]) -> int:
    """How many of the labels their representative realizes."""
    return sum(label_of_representative(j) == j for j in labels)


def _sweep_21(d: int, trials: int, seed: int) -> tuple:
    legal = legal_labels_21(d)

    def label(rng):
        pair = (_poly_from_real_roots(rng, d), _poly_from_real_roots(rng, d))
        return component_of_21(SystemTuple(pair, 1, FIELD_REAL)).j

    support = [_rejection_sample(label, _trial_rng(seed, i), "21", d) for i in range(trials)]
    reps_ok = _representatives(legal, lambda j: component_of_21(representative_21(d, j)).j)
    failures = sum(j not in legal for j in support) + len(legal) - reps_ok
    return failures, support, {"labels_legal": trials, "representatives_realized": reps_ok}


def _sweep_12(d: int, trials: int, seed: int) -> tuple:
    labels = legal_labels_12(d)
    failures, support = 0, []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        j = labels[rng.randrange(len(labels))]
        support.append(component_of_12(_poly_from_real_roots(rng, d, j)))
        failures += support[-1] != j
    reps_ok = _representatives(labels, lambda j: component_of_12(representative_12(d, j)))
    checks = {"planted_labels_recovered": trials, "representatives_realized": reps_ok}
    return failures + len(labels) - reps_ok, support, checks


def _sweep_31(d: int, trials: int, seed: int) -> tuple:
    if d % 2 == 0:
        raise ValueError("the triple-case sweep needs odd d")

    def model(rng):
        return Model31(_poly_from_real_roots(rng, d), _random_low_degree(rng, d), _random_low_degree(rng, d))

    nonzero = 0
    for i in range(trials):
        triple = _rejection_sample(model, _trial_rng(seed, i), "31", d)
        try:
            r_tilde(triple)
            nonzero += 1
        except ValueError:  # beyond the float range
            pass
    loop = [i_d_loop(d, 2 * math.pi * k / 8) for k in range(8)]
    winding = pi1_winding(loop + loop[:1])
    checks = {"r_tilde_nonzero": nonzero, "generator_winding": winding}
    return trials - nonzero + (winding != 1), [winding], checks


def _random_low_degree(rng: random.Random, d: int) -> ExactPolynomial:
    deg = rng.randrange(0, d)
    coeffs = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 5)) for _ in range(deg + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.randrange(1, 41), 1)
    return ExactPolynomial(tuple(coeffs))


_SWEEPS = {"21": _sweep_21, "12": _sweep_12, "31": _sweep_31}


def invariant_sweep(case: str, d: int, trials: int, seed: int) -> SweepReport:
    """Seeded invariant suite for one case; failures are counted, never
    raised, and the report's canonical bytes depend only on the arguments."""
    _check_case_d(case, d)
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    if case not in _SWEEPS:
        raise ValueError(f"no sweep suite for case {case!r}")
    failures, support, checks = _SWEEPS[case](d, trials, seed)
    return SweepReport(case, d, trials, seed, failures, tuple(sorted(set(support))), checks)
