"""Components of the space of squarefree monic real polynomials (m=1, n=2).

A squarefree monic real f of degree d splits its roots into d - 2j reals and
j conjugate pairs; j in {0, ..., floor(d/2)} labels the floor(d/2) + 1
components.  The label is exact: one signed remainder sequence of f and f'
decides squarefreeness (it ends in their gcd) and counts the real roots.
The equivalent configuration view keeps the real roots and the
upper-half-plane representatives of the pairs.

The electric field of a configuration is E(w) = 1 + sum 1/(w - a_k), which
equals (f + f')/f for f with the a_k as roots.  Built from the j upper points
alone, w -> [f(w) : (f + f')(w)] is a rational self-map of the sphere whose
topological degree is the number of distinct points, j - deg gcd(f, f'),
so j for a configuration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactalg import (
    ExactPolynomial,
    NonConvergenceError,
    cauchy_root_bound,
    complex_roots_numeric,
    real_roots_exact,
    sturm_count,
)

__all__ = [
    "HalfPlaneConfig",
    "component_of_12",
    "electric_degree",
    "from_configuration",
    "legal_labels_12",
    "representative_12",
    "stabilize_12",
    "to_configuration",
]


def legal_labels_12(d: int) -> list:
    if d < 1:
        raise ValueError("degree must be positive")
    return list(range(0, d // 2 + 1))


def _check_squarefree(f: ExactPolynomial) -> int:
    """Reject all but squarefree monic real polynomials of positive degree;
    return the number of real roots.  f's Sturm chain gives both: it ends in
    gcd(f, f'), and its variations count the roots (`sturm_count`)."""
    if f.degree < 1 or not f.is_monic or not f.is_real:
        raise ValueError("expected a monic real polynomial of positive degree")
    real_count, repeated = sturm_count(f)
    if repeated:
        raise ValueError("the polynomial has a repeated root")
    return real_count


def component_of_12(f: ExactPolynomial) -> int:
    """Number of conjugate root pairs of a squarefree monic real polynomial,
    computed exactly by Sturm counting."""
    return (f.degree - _check_squarefree(f)) // 2


@dataclass(frozen=True)
class HalfPlaneConfig:
    """A split root configuration: real points ascending, upper-half-plane
    points sorted by (re, im); together with the mirror points below the axis
    they are the roots of one squarefree monic real polynomial."""

    real_points: tuple
    upper_points: tuple

    def __post_init__(self):
        reals = tuple(float(x) for x in self.real_points)
        uppers = tuple(complex(u) for u in self.upper_points)
        if not all(map(cmath.isfinite, reals + uppers)):
            raise ValueError("configuration points must be finite")
        if any(u.imag <= 0 for u in uppers):
            raise ValueError("upper points must have positive imaginary part")
        if list(reals) != sorted(reals):
            raise ValueError("real points must be ascending")
        if len(set(reals)) != len(reals) or len(set(uppers)) != len(uppers):
            raise ValueError("configuration points must be distinct")
        object.__setattr__(self, "real_points", reals)
        object.__setattr__(
            self, "upper_points", tuple(sorted(uppers, key=lambda u: (u.real, u.imag)))
        )

    @property
    def degree(self) -> int:
        return len(self.real_points) + 2 * len(self.upper_points)

    @property
    def j(self) -> int:
        return len(self.upper_points)

    def all_points(self) -> list:
        return (
            [complex(x) for x in self.real_points]
            + list(self.upper_points)
            + [u.conjugate() for u in self.upper_points]
        )

    def to_json(self) -> list:
        """A list of [re, im] pairs: the real points then the upper points
        (the mirror points below the axis are implicit)."""
        return [[float(x), 0.0] for x in self.real_points] + [
            [u.real, u.imag] for u in self.upper_points
        ]

    @staticmethod
    def from_json(obj) -> "HalfPlaneConfig":
        if not isinstance(obj, (list, tuple)):
            raise ValueError("configuration JSON must be a list of [re, im] pairs")
        reals, uppers = [], []
        for entry in obj:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"configuration point {entry!r} is not an [re, im] pair")
            if any(isinstance(x, bool) for x in entry):
                raise ValueError("booleans are not coordinates")
            re, im = float(entry[0]), float(entry[1])
            if im == 0:
                reals.append(re)
            elif -math.inf < im < 0:  # a non-finite im goes on to be rejected
                raise ValueError(
                    "points below the axis are implicit mirrors; list only im >= 0"
                )
            else:
                uppers.append(complex(re, im))
        return HalfPlaneConfig(tuple(sorted(reals)), tuple(uppers))


def to_configuration(f: ExactPolynomial) -> HalfPlaneConfig:
    """Split the roots of a squarefree monic real polynomial.

    Real roots come from exact isolation; the conjugate pairs from the
    numeric root finder, cross-checked against the exact real-root count.
    When every root is real there are no pairs, and no numeric call.  A
    disagreement raises `NonConvergenceError` whose diagnostics hold the
    exact real count and the cluster centers.

    Each real root becomes its nearest float, so two distinct real roots
    closer than one float apart would become one point; that raises
    ValueError, since the configuration cannot hold them."""
    _check_squarefree(f)
    real_roots = real_roots_exact(f)
    reals = tuple(r.float_value() for r in real_roots)
    if any(x == y for x, y in zip(reals, reals[1:])):
        raise ValueError("distinct real roots are closer than one float apart")
    if len(reals) == f.degree:
        return HalfPlaneConfig(reals, ())
    clusters = complex_roots_numeric(f)
    nonreal = sorted(clusters, key=lambda c: abs(c.center.imag))[len(reals):]
    uppers = tuple(c.center for c in nonreal if c.center.imag > 0)
    if 2 * len(uppers) != f.degree - len(reals):
        raise NonConvergenceError(
            "numeric root split disagrees with the exact count",
            real_count=len(reals),
            centers=tuple(c.center for c in clusters),
        )
    return HalfPlaneConfig(reals, uppers)


def from_configuration(config: HalfPlaneConfig) -> ExactPolynomial:
    """The monic real polynomial with the configuration's roots, with float
    coefficients snapped to exact rationals (the imaginary parts cancel)."""
    coeffs = np.array([1.0 + 0.0j], dtype=complex)
    for a in config.all_points():
        coeffs = np.convolve(coeffs, np.array([1.0, -a], dtype=complex))
    rounded = [Fraction(float(c.real)) for c in coeffs[::-1]]
    rounded[-1] = Fraction(1)
    return ExactPolynomial(tuple(rounded))


def electric_degree(config) -> int:
    """Topological degree of the sphere map alpha -> [f(alpha) : (f+f')(alpha)]
    with f the product of z - a over the configuration's points.

    Cancelling gcd(f, f + f') = gcd(f, f') leaves coprime entries of degree
    j - deg gcd(f, f'), the number of distinct points; that is the degree.
    A HalfPlaneConfig contributes its j upper points (the point set the map
    is built from); a bare iterable of complex points is used as given.
    """
    pts = config.upper_points if isinstance(config, HalfPlaneConfig) else config
    return len({complex(a) for a in pts})


def stabilize_12(f: ExactPolynomial, T: Fraction) -> ExactPolynomial:
    """Append one conjugate pair at +-iT, T beyond the root bound: the result
    is squarefree of degree d + 2 with label j + 1."""
    _check_squarefree(f)
    T = Fraction(T)
    if T < cauchy_root_bound([f]):
        raise ValueError("T must be at least the root bound of f")
    z = ExactPolynomial.variable()
    return f * (z * z + T * T)


def representative_12(d: int, j: int) -> ExactPolynomial:
    """Explicit squarefree member with d - 2j real roots and j pairs."""
    if j not in legal_labels_12(d):
        raise ValueError(f"no component (d={d}, j={j})")
    z = ExactPolynomial.variable()
    f = ExactPolynomial.one()
    for i in range(d - 2 * j):
        f = f * (z - i)
    for k in range(1, j + 1):
        f = f * (z * z + k * k)
    return f
