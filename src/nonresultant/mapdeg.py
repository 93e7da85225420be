"""Degrees of the natural maps.

The point map sends alpha to the projective point whose mn coordinates are
the jet components of the tuple's entries evaluated at alpha, and sends the
point at infinity to [1 : ... : 1] (every component is monic of the same
degree, so the leading terms dominate together).  Its degree is d minus the
degree of the gcd of the jet components (d for members), computed exactly.
The real-axis degree of a pair is the Cauchy index of f2/f1 over the real
line, read from a signed remainder sequence in integer arithmetic.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import ExactPolynomial, GaussianRational, cauchy_index
from .nonres import MembershipError, SystemTuple, _jet_gcd, jet

__all__ = [
    "INFINITY",
    "ProjectivePoint",
    "eval_natural_map",
    "map_degree",
    "rp1_degree",
]

INFINITY = math.inf


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of complex projective space, stored as one homogeneous
    coordinate vector; the vector must not be zero."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 2:
            raise ValueError("projective points need at least two coordinates")
        if not any(coords):
            raise MembershipError("zero coordinate vector: the point evaluates a common root")

    def proportional_to(self, other: "ProjectivePoint", rel_tol: float = 1e-9) -> bool:
        if len(self.coords) != len(other.coords):
            return False
        pivot = max(range(len(self.coords)), key=lambda k: abs(self.coords[k]))
        a_p, b_p = self.coords[pivot], other.coords[pivot]
        if abs(b_p) < 1e-13 * max(abs(c) for c in other.coords):
            return False
        scale = max(abs(a_p), abs(b_p))
        for a, b in zip(self.coords, other.coords):
            if abs(a * b_p - b * a_p) > rel_tol * scale * max(abs(a), abs(b), scale):
                return False
        return True

    def conjugate(self) -> "ProjectivePoint":
        return ProjectivePoint(tuple(c.conjugate() for c in self.coords))


def eval_natural_map(t: SystemTuple, alpha) -> ProjectivePoint:
    """Value of the point map at alpha (a number or INFINITY).

    Exact arguments (int/Fraction/GaussianRational) are evaluated exactly and
    converted to complex at the end; floats/complexes use float Horner.
    A zero coordinate vector raises MembershipError - it means alpha
    witnesses a common root of multiplicity >= n.  At an exact alpha that
    test reads the exact values, and a vector whose largest coordinate lies
    outside the normal float range is scaled by a power of two before the
    conversion, so it converts to the same projective point.
    """
    if len({f.degree for f in t.polys}) != 1:
        raise ValueError("the point map needs entries of one common degree")
    if isinstance(alpha, (float, complex)) and cmath.isinf(alpha):
        return ProjectivePoint((1.0 + 0.0j,) * (t.m * t.n))
    values = [comp(alpha) for f in t.polys for comp in jet(f, t.n).components]
    if isinstance(alpha, (int, Fraction, GaussianRational)):
        big = max(abs(q) for v in map(GaussianRational.of, values) for q in (v.re, v.im))
        if 0 < big < sys.float_info.min or big > sys.float_info.max:
            scale = Fraction(2) ** (big.denominator.bit_length() - big.numerator.bit_length())
            values = [v * scale for v in values]
    return ProjectivePoint(tuple(values))


# ---------------------------------------------------------------------------
# degree of the point map
# ---------------------------------------------------------------------------


def map_degree(t: SystemTuple, lam) -> int:
    """Degree of the point map: d - deg gcd(jet components).

    The common zeros of the jet components are removable points of the map;
    after cancelling the gcd the components have no common zero, so the map
    extends to a regular map of the sphere of degree d minus the gcd's
    degree (d for members).  lam is the covector of m*n complex weights the
    argument-principle count would use; it is checked (length, and that the
    leading terms do not cancel) but does not change the degree.
    """
    if len({f.degree for f in t.polys}) != 1:
        raise ValueError("the point map needs entries of one common degree")
    lam = [complex(x) for x in lam]
    if len(lam) != t.m * t.n:
        raise ValueError(f"lambda must have {t.m * t.n} entries")
    # every jet component is monic, so the leading term of the combination is sum(lam)
    if abs(sum(lam)) < 1e-8 * max(max(abs(x) for x in lam), 1e-300):
        raise ValueError("degenerate lambda: leading terms cancel")
    return t.polys[0].degree - (len(_jet_gcd(t)) - 1)


# ---------------------------------------------------------------------------
# real-axis degree of a pair
# ---------------------------------------------------------------------------


def rp1_degree(f1: ExactPolynomial, f2: ExactPolynomial) -> int:
    """Degree of the compactified real line through the pair (f1, f2).

    This is the Cauchy index of f2/f1 over the real line, equal to that of
    (f2 - f1)/f1, whose numerator has lower degree; it is read exactly from
    the signed remainder sequence of f1 and f2 - f1.  The result has the
    parity of d and absolute value at most d.  A pair with a common root
    lies in no component and raises MembershipError.
    """
    if f1.degree != f2.degree or f1.degree < 1:
        raise ValueError("the pair must share one positive degree")
    if not (f1.is_monic and f2.is_monic):
        raise ValueError("the pair must be monic")
    if not (f1.is_real and f2.is_real):
        raise ValueError("the real-axis degree needs real coefficients")
    index, common = cauchy_index(f1, f2 - f1)
    if common:
        raise MembershipError("the pair has a common root and lies in no component")
    return index
