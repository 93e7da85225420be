"""Seeded inputs and their expected answers, derived from exact lattice roots.

Every input is drawn as roots first, on the lattice `nonresultant.harness`
samples from: reals k/4 and Gaussian points (a+bi)/2, distinct within and
across the entries of a tuple unless a common root is planted.  Expected
answers (membership, labels, degrees, r-tilde values) are computed here from
those roots with plain `Fraction` arithmetic, never by the program under test.

The program's scalar types appear only in `Entry.program_roots`, which hands
the drawn roots to `ExactPolynomial.from_roots`; everything else here is
independent of `nonresultant`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SHAPES = ((2, 1), (3, 1), (1, 2), (1, 3), (2, 2))

# the harness's planted-tuple lattices
REAL_LATTICE = tuple(Fraction(p, 4) for p in range(-14, 15))
COMPLEX_LATTICE = tuple((a, b) for a in range(-5, 6) for b in range(1, 6))

# the invariants mix: (kind, weight, variants).  Label, degree and
# stabilization items are the majority; path certificates, each ~20x a label
# query, are a small share.  Within a kind the variants (degree, shape or
# CLI command) are stratified, so each occurs equally often.
_DEGREES = tuple(range(1, 9))
INVARIANT_MIX = (
    ("label21", 6, _DEGREES),
    ("label12", 5, _DEGREES),
    ("r_tilde31", 3, (3, 5, 7)),
    ("map_degree", 4, tuple((s, d) for s in SHAPES for d in range(2, 7))),
    ("stabilize", 4, tuple((s, d) for s in ((1, 2), (3, 1), (2, 2)) for d in _DEGREES)),
    ("path", 1, tuple((s, d) for s in SHAPES for d in range(1, 5))),
    ("cli", 2, ("member", "rp1-degree", "degree", "r-d")),
)


@dataclass(frozen=True)
class Entry:
    """Roots of one monic entry: real roots, conjugate pairs a +- bi (stored
    once, b > 0) and single Gaussian roots (complex field only)."""

    reals: tuple = ()
    pairs: tuple = ()
    gauss: tuple = ()

    @property
    def degree(self) -> int:
        return len(self.reals) + 2 * len(self.pairs) + len(self.gauss)

    def program_roots(self) -> list:
        from nonresultant.exactalg import GaussianRational

        roots = list(self.reals)
        for a, b in self.pairs:
            g = GaussianRational(a, b)
            roots += [g, g.conjugate()]
        roots += [GaussianRational(a, b) for a, b in self.gauss]
        return roots

    def coefficients(self) -> list:
        """Ascending exact coefficients; real entries only."""
        if self.gauss:
            raise ValueError("complex entries have no real coefficient list")
        out = [Fraction(1)]
        for r in self.reals:
            out = _mul(out, [-r, Fraction(1)])
        for a, b in self.pairs:
            out = _mul(out, [a * a + b * b, -2 * a, Fraction(1)])
        return out

    def value(self, x: Fraction) -> Fraction:
        """The entry at a real rational point, from its roots."""
        v = Fraction(1)
        for r in self.reals:
            v *= x - r
        for a, b in self.pairs:
            v *= (x - a) ** 2 + b * b
        return v


def _mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def coeff_json(coeffs) -> list:
    return [str(c) for c in coeffs]


def tuple_json(entries, n: int) -> dict:
    return {"n": n, "field": "R", "polys": [coeff_json(e.coefficients()) for e in entries]}


# ---------------------------------------------------------------------------
# root draws
# ---------------------------------------------------------------------------


def _gauss(a: int, b: int) -> tuple:
    return Fraction(a, 2), Fraction(b, 2)


def _fill(rng: random.Random, pool: list, cpool: list, free: int) -> tuple:
    """(reals, pairs) for `free` more roots of a real entry, popped from the
    shuffled pools so they stay distinct across the tuple."""
    reals, pairs = [], []
    while free:
        if free >= 2 and rng.random() < 0.3:
            pairs.append(_gauss(*cpool.pop()))
            free -= 2
        else:
            reals.append(pool.pop())
            free -= 1
    return reals, pairs


def _pools(rng: random.Random) -> tuple:
    pool, cpool = list(REAL_LATTICE), list(COMPLEX_LATTICE)
    rng.shuffle(pool)
    rng.shuffle(cpool)
    return pool, cpool


def mu_range(m: int, n: int, d: int) -> range:
    """Planted multiplicities, straddling the bound n; a single polynomial
    always has a root, so m = 1 plants at least one."""
    return range(0 if m >= 2 else 1, min(n + 1, d) + 1)


def planted(rng: random.Random, m: int, n: int, d: int, mu: int, field: str) -> tuple:
    """The recipe of `harness.planted_tuple`: every entry shares one planted
    root of multiplicity mu, all other roots are distinct lattice points
    across the tuple."""
    real = field == "R"
    pool, cpool = _pools(rng)
    shared = Entry()
    if mu:
        if real and mu * 2 <= d and rng.random() < 0.4:
            shared = Entry(pairs=(_gauss(*cpool.pop()),) * mu)
        elif real:
            shared = Entry(reals=(pool.pop(),) * mu)
        else:
            shared = Entry(gauss=(_gauss(*cpool.pop()),) * mu)
    entries = []
    for _ in range(m):
        free = d - shared.degree
        if real:
            reals, pairs = _fill(rng, pool, cpool, free)
            entries.append(Entry(shared.reals + tuple(reals), shared.pairs + tuple(pairs)))
        else:
            gauss = shared.gauss + tuple(_gauss(*cpool.pop()) for _ in range(free))
            entries.append(Entry(gauss=gauss))
    return tuple(entries)


def distinct(rng: random.Random, m: int, d: int) -> tuple:
    """A real member tuple: m entries of degree d, all roots distinct."""
    pool, cpool = _pools(rng)
    return tuple(Entry(*map(tuple, _fill(rng, pool, cpool, d))) for _ in range(m))


def squarefree(rng: random.Random, d: int, j: int) -> Entry:
    """One squarefree real polynomial with j conjugate pairs, drawn as in
    the harness's (1,2) sweep."""
    reals = rng.sample(REAL_LATTICE, d - 2 * j)
    taken = set()
    while len(taken) < j:
        taken.add((rng.randrange(-10, 11), rng.randrange(1, 11)))
    return Entry(tuple(reals), tuple(_gauss(a, b) for a, b in sorted(taken)))


def single_or_tuple(rng: random.Random, m: int, d: int) -> tuple:
    if m == 1:
        return (squarefree(rng, d, rng.randrange(0, d // 2 + 1)),)
    return distinct(rng, m, d)


# ---------------------------------------------------------------------------
# expected answers from the roots
# ---------------------------------------------------------------------------


def pair_label(f1: Entry, f2: Entry) -> int:
    """Component label of the coprime pair (f1, f2): the Cauchy index of
    f2/f1 over the real line.  At a simple real root x of f1 the quotient
    jumps from -inf to +inf exactly when f2(x) * f1'(x) > 0, and each sign is
    (-1) to the number of real roots of that entry above x."""
    total = 0
    for x in f1.reals:
        above = sum(r > x for r in f1.reals) + sum(r > x for r in f2.reals)
        total += 1 if above % 2 == 0 else -1
    return total


def r_tilde_exact(f1: Entry, f2: Entry, f3: Entry) -> tuple:
    """(re, im) of prod over ascending real roots x_j of f1 of
    (f2 + i f3)(x_j) ** (-1) ** (j - 1), for a triple with distinct roots;
    the sheared model entries f2 - f1, f3 - f1 take the same values there."""
    re, im = Fraction(1), Fraction(0)
    for pos, x in enumerate(sorted(f1.reals)):
        a, b = f2.value(x), f3.value(x)
        if pos % 2 == 0:
            re, im = re * a - im * b, re * b + im * a
        else:
            norm = a * a + b * b
            re, im = (re * a + im * b) / norm, (im * a - re * b) / norm
    return re, im


def exact_json(re: Fraction, im: Fraction):
    """The CLI's exact scalar form: 'p/q', or {'re', 'im'} off the axis."""
    return str(re) if im == 0 else {"re": str(re), "im": str(im)}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    kind: str
    data: tuple
    expected: object


def _stratified(rng: random.Random, strata: list, count: int) -> list:
    """count draws that hit every stratum equally often (plus a random
    remainder), in seeded random order: the same distribution as uniform
    draws, with less spread between seeds."""
    out = strata * (count // len(strata)) + rng.sample(strata, count % len(strata))
    rng.shuffle(out)
    return out


def membership_items(seed: int, count: int, field: str) -> list:
    """Gate 1's recipe: shape uniform over SHAPES, d uniform in 1..8, a
    planted common root of multiplicity mu uniform in mu_range; the expected
    verdict is mu < n.  count must be a multiple of the 40 (shape, d) pairs."""
    combos = [(s, d) for s in SHAPES for d in range(1, 9)]
    if count % len(combos):
        raise ValueError(f"count must be a multiple of {len(combos)}")
    rng = random.Random(f"membership/{field}/{seed}")
    plan = [
        (m, n, d, mu)
        for (m, n), d in combos
        for mu in _stratified(rng, list(mu_range(m, n, d)), count // len(combos))
    ]
    rng.shuffle(plan)
    return [
        Item("member", (planted(rng, m, n, d, mu, field), n, field), (mu, mu < n))
        for m, n, d, mu in plan
    ]


def _cross_label_pair(rng: random.Random, d: int) -> tuple:
    a = distinct(rng, 2, d)
    while True:
        b = distinct(rng, 2, d)
        if pair_label(*b) != pair_label(*a):
            return a, b


def _lam(rng: random.Random, k: int) -> list:
    # every jet component is monic of one degree, so the combination's
    # leading coefficient is sum(lam); keep it well away from zero
    while True:
        lam = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]
        if abs(sum(lam)) > 0.1:
            return lam


def invariant_item(rng: random.Random, kind: str, variant) -> Item:
    if kind == "label21":
        f1, f2 = distinct(rng, 2, variant)
        return Item(kind, (tuple_json((f1, f2), 1),), pair_label(f1, f2))
    if kind == "label12":
        j = rng.randrange(0, variant // 2 + 1)
        f = squarefree(rng, variant, j)
        return Item(kind, (tuple_json((f,), 2),), (j, tuple(sorted(f.reals)), f.pairs))
    if kind == "r_tilde31":
        triple = distinct(rng, 3, variant)
        return Item(kind, (tuple_json(triple, 1),), r_tilde_exact(*triple))
    if kind == "map_degree":
        (m, n), d = variant
        entries = single_or_tuple(rng, m, d)
        return Item(kind, (tuple_json(entries, n), _lam(rng, m * n)), d)
    if kind == "stabilize":
        (m, n), d = variant
        entries = single_or_tuple(rng, m, d)
        label = len(entries[0].pairs) if (m, n) == (1, 2) else None
        return Item(kind, (tuple_json(entries, n),), (d, label))
    if kind == "path":
        (m, n), d = variant
        if (m, n) == (2, 1):
            a, b = _cross_label_pair(rng, d)
            cross = True
        elif (m, n) == (1, 2):
            ja, jb = rng.sample(range(d // 2 + 1), 2) if d >= 2 else (0, 0)
            a, b = (squarefree(rng, d, ja),), (squarefree(rng, d, jb),)
            cross = ja != jb
        else:
            a, b = single_or_tuple(rng, m, d), single_or_tuple(rng, m, d)
            cross = False
        return Item(kind, (tuple_json(a, n), tuple_json(b, n)), cross)
    if kind == "cli":
        return _cli_item(rng, variant)
    raise ValueError(f"unknown item kind {kind!r}")


def _cli_item(rng: random.Random, command: str) -> Item:
    if command == "member":
        m, n = rng.choice(SHAPES)
        d = rng.randint(1, 8)
        mu = rng.choice(mu_range(m, n, d))
        entries = planted(rng, m, n, d, mu, "R")
        return Item("cli", (command, tuple_json(entries, n)), "true" if mu < n else "false")
    if command == "rp1-degree":
        f1, f2 = distinct(rng, 2, rng.randint(1, 8))
        return Item("cli", (command, tuple_json((f1, f2), 1)), str(pair_label(f1, f2)))
    if command == "degree":
        m, n = rng.choice(SHAPES)
        d = rng.randint(2, 6)
        return Item("cli", (command, tuple_json(single_or_tuple(rng, m, d), n)), str(d))
    f1, f2, f3 = distinct(rng, 3, 5)
    c1 = f1.coefficients()
    model = {
        "f1": coeff_json(c1),
        "f2": coeff_json(_sub(f2.coefficients(), c1)),
        "f3": coeff_json(_sub(f3.coefficients(), c1)),
    }
    return Item("cli", (command, model), exact_json(*r_tilde_exact(f1, f2, f3)))


def _sub(p: list, q: list) -> list:
    out = [a - b for a, b in zip(p, q)]
    while out and out[-1] == 0:
        out.pop()
    return out


def invariant_items(seed: int, count: int) -> list:
    """The invariants mix: count * weight / (total weight) items of each
    kind, variants stratified within the kind, all in seeded random order."""
    rng = random.Random(f"invariants/{seed}")
    total = sum(w for _, w, _ in INVARIANT_MIX)
    plan = [
        (kind, variant)
        for kind, weight, variants in INVARIANT_MIX
        for variant in _stratified(rng, list(variants), count * weight // total)
    ]
    rng.shuffle(plan)
    return [invariant_item(rng, kind, variant) for kind, variant in plan]
