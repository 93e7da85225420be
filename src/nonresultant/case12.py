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
so j for a configuration.  The abelianised braid of a loop of
configurations is the total winding of the discriminant of the upper points
alone: real points cannot braid on the line, mixed differences stay in one
half-plane, and the conjugate mirror exactly cancels the upper contribution,
so the upper discriminant carries the whole exponent sum.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactalg import (
    ExactPolynomial,
    NonConvergenceError,
    cauchy_index,
    cauchy_root_bound,
    complex_roots_numeric,
    real_roots_exact,
)
from .mapdeg import WindingError, arg_steps, whole_turns
from .nonres import FIELD_REAL, SystemTuple

__all__ = [
    "HalfPlaneConfig",
    "abelian_braid_invariant",
    "census_12",
    "component_of_12",
    "electric_degree",
    "electric_field",
    "legal_labels_12",
    "representative_12",
    "stabilize_12",
    "to_configuration",
]

log = logging.getLogger(__name__)


def legal_labels_12(d: int) -> list:
    if d < 1:
        raise ValueError("degree must be positive")
    return list(range(0, d // 2 + 1))


def _check_squarefree(f: ExactPolynomial) -> int:
    """Reject all but squarefree monic real polynomials of positive degree;
    return the number of real roots.  One signed remainder sequence of f and
    f' gives both: it ends in gcd(f, f'), and its variations count the roots."""
    if f.degree < 1 or not f.is_monic or not f.is_real:
        raise ValueError("expected a monic real polynomial of positive degree")
    real_count, repeated = cauchy_index(f, f.derivative())
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
            re, im = float(entry[0]), float(entry[1])
            if im == 0:
                reals.append(re)
            elif im > 0:
                uppers.append(complex(re, im))
            else:
                raise ValueError(
                    "points below the axis are implicit mirrors; list only im >= 0"
                )
        return HalfPlaneConfig(tuple(sorted(reals)), tuple(uppers))


def to_configuration(f: ExactPolynomial) -> HalfPlaneConfig:
    """Split the roots of a squarefree monic real polynomial.

    Real roots come from exact isolation; the conjugate pairs from the
    numeric root finder, cross-checked against the exact real-root count.
    When every root is real there are no pairs, and no numeric call."""
    _check_squarefree(f)
    real_roots = real_roots_exact(f)
    reals = tuple(r.float_value() for r in real_roots)
    if len(reals) == f.degree:
        return HalfPlaneConfig(reals, ())
    clusters = complex_roots_numeric(f)
    nonreal = sorted(clusters, key=lambda c: abs(c.center.imag))[len(reals):]
    uppers = tuple(c.center for c in nonreal if c.center.imag > 0)
    if 2 * len(uppers) != f.degree - len(reals):
        raise NonConvergenceError("numeric root split disagrees with the exact count")
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


def _field_points(config) -> list:
    """Points whose reciprocal terms enter the field: a HalfPlaneConfig
    contributes reals, uppers, and the conjugate mirrors; a bare iterable of
    complex values is used as given."""
    if isinstance(config, HalfPlaneConfig):
        return [complex(p) for p in config.all_points()]
    return [complex(p) for p in config]


def electric_field(config, w: complex) -> complex:
    """E(w) = 1 + sum 1/(w - a_k); equals (f + f')/f at w for f with the
    configuration's points as roots.  Returns inf at a configuration point
    (the chart [0 : 1])."""
    w = complex(w)
    total = 1.0 + 0.0j
    for a in _field_points(config):
        if w == a:
            return complex(math.inf, 0.0)
        total += 1.0 / (w - a)
    return total


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


def abelian_braid_invariant(loop) -> int:
    """Exponent sum of a closed loop of configurations: the winding of the
    squared-difference product of the upper points.  The loop is a sampled
    list whose first and last configurations agree; sampling must be dense
    enough that each discriminant step turns by less than pi/2."""
    configs = list(loop)
    if len(configs) < 2:
        raise ValueError("a loop needs at least two samples")
    first, last = configs[0], configs[-1]
    if first.j != last.j or len(first.real_points) != len(last.real_points):
        raise ValueError("loop endpoints lie in different configuration spaces")
    if first.j <= 1:
        return 0
    values = []
    for cfg in configs:
        if cfg.j != first.j:
            raise ValueError("the number of upper points must stay constant")
        val = 1.0 + 0.0j
        ups = cfg.upper_points
        for a in range(len(ups)):
            for b in range(a + 1, len(ups)):
                val *= (ups[a] - ups[b]) ** 2
        if val == 0:
            raise ValueError("coincident upper points along the loop")
        values.append(val)
    steps, bad = arg_steps(np.array(values))
    if bad.any():
        raise WindingError("discriminant step of pi/2 or more: sample the loop more densely")
    return whole_turns(float(np.sum(steps)))


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


def census_12(d: int, samples: int, seed: int) -> dict:
    """Label counts over random squarefree monic draws of degree d;
    non-squarefree draws are rejected exactly and logged."""
    if d < 1:
        raise ValueError("degree must be positive")
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    rng = random.Random(seed)
    counts: dict = {}
    rejected = 0
    produced = 0
    while produced < samples:
        coeffs = [
            Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(d)
        ]
        coeffs.append(Fraction(1))
        f = ExactPolynomial(tuple(coeffs))
        real_count, repeated = cauchy_index(f, f.derivative())
        if repeated:
            rejected += 1
            continue
        jj = (d - real_count) // 2
        counts[jj] = counts.get(jj, 0) + 1
        produced += 1
    if rejected:
        log.info("census_12(d=%d): rejected %d repeated-root draws", d, rejected)
    return dict(sorted(counts.items()))
