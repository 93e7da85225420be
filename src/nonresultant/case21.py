"""Components of the space of coprime monic pairs (m = 2, n = 1, real).

The space has exactly d + 1 connected components, indexed by the real-axis
degree j in {-d, -d+2, ..., d-2, d}: the degree of the compactified real
line through (f1, f2), which is the Cauchy index of f2/f1 and is read
exactly from the signed remainder sequence of f1 and f2 - f1 (the same
sequence ends in gcd(f1, f2), so it also rejects non-members).
`representative_21` realises every legal label by an explicit pair: |j|
interlaced linear factors (the f2 root sits just left of its f1 partner for
positive j, just right for negative j) padded with root-free quadratics,
which contribute nothing to the index.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import ExactPolynomial
from .mapdeg import rp1_degree
from .nonres import FIELD_REAL, MembershipError, SystemTuple

__all__ = [
    "ComponentLabel21",
    "census_21",
    "component_of_21",
    "legal_labels_21",
    "representative_21",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ComponentLabel21:
    """Component label of a coprime pair: degree d and real-axis degree j,
    with |j| <= d and j = d (mod 2)."""

    d: int
    j: int

    def __post_init__(self):
        if abs(self.j) > self.d or (self.j - self.d) % 2:
            raise ValueError(f"no component (d={self.d}, j={self.j})")


def legal_labels_21(d: int) -> list:
    """The d + 1 legal labels -d, -d+2, ..., d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return list(range(-d, d + 1, 2))


def _check_pair(t: SystemTuple) -> None:
    if t.m != 2 or t.n != 1 or t.field != FIELD_REAL:
        raise ValueError("expected a real pair with multiplicity bound 1")
    if t.degrees[0] != t.degrees[1]:
        raise ValueError("the pair must share one degree")


def component_of_21(t: SystemTuple) -> ComponentLabel21:
    """Label of the component containing a member pair; a pair with a
    common root raises MembershipError."""
    _check_pair(t)
    f1, f2 = t.polys
    return ComponentLabel21(f1.degree, rp1_degree(f1, f2))


def representative_21(d: int, j: int) -> SystemTuple:
    """Canonical member pair with label (d, j)."""
    label = ComponentLabel21(d, j)
    z = ExactPolynomial.variable()
    f1 = ExactPolynomial.one()
    f2 = ExactPolynomial.one()
    offset = Fraction(-1, 2) if label.j >= 0 else Fraction(1, 2)
    for i in range(1, abs(label.j) + 1):
        f1 = f1 * (z - i)
        f2 = f2 * (z - (i + offset))
    for k in range(1, (d - abs(label.j)) // 2 + 1):
        f1 = f1 * (z * z + (2 * k - 1))
        f2 = f2 * (z * z + 2 * k)
    return SystemTuple((f1, f2), 1, FIELD_REAL)


def census_21(d: int, samples: int, seed: int) -> dict:
    """Label counts over random member pairs of degree d.

    Coefficients are uniform rationals with numerator up to 100 and
    denominator up to 10; the rare non-member draws are rejected (exactly)
    and logged.  Returns {j: count} over the labels that occurred.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    rng = random.Random(seed)
    counts: dict = {}
    rejected = 0
    produced = 0
    while produced < samples:
        try:
            label = component_of_21(_random_pair(rng, d))
        except MembershipError:
            rejected += 1
            continue
        counts[label.j] = counts.get(label.j, 0) + 1
        produced += 1
    if rejected:
        log.info("census_21(d=%d): rejected %d non-member draws", d, rejected)
    return dict(sorted(counts.items()))


def _random_pair(rng: random.Random, d: int) -> SystemTuple:
    def poly():
        coeffs = [
            Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(d)
        ]
        coeffs.append(Fraction(1))
        return ExactPolynomial(tuple(coeffs))

    return SystemTuple((poly(), poly()), 1, FIELD_REAL)
