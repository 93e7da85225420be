"""Degrees of the natural maps, and the argument lifts of analytic loops.

The point map sends alpha to the projective point whose mn coordinates are
the jet components of the tuple's entries evaluated at alpha, and sends the
point at infinity to [1 : ... : 1] (every component is monic of the same
degree, so the leading terms dominate together).  Its degree is d minus the
degree of the gcd of the jet components (d for members), computed exactly.
The real-axis degree of a pair is the Cauchy index of f2/f1 over the real
line, read from a signed remainder sequence in integer arithmetic.

Argument lifts remain for the analytic windings (the pi_1 class of r_tilde
and the abelianised braid): a parameter segment whose endpoint values turn
by pi/2 or more is split in half, so any crossing of the branch cut is
resolved before the lift accumulates; failure to settle under the sample cap
signals a loop passing too close to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactalg import ExactPolynomial, GaussianRational, cauchy_index, gcd_many
from .nonres import MembershipError, SystemTuple, jet

__all__ = [
    "INFINITY",
    "LoopSample",
    "ProjectivePoint",
    "WindingError",
    "arg_steps",
    "eval_natural_map",
    "map_degree",
    "rp1_degree",
    "sample_loop",
    "whole_turns",
    "winding_number",
]

INFINITY = math.inf

_JUMP_LIMIT = math.pi / 2
_DEFAULT_CAP = 2**20


class WindingError(RuntimeError):
    """The argument lift would not settle: the loop runs too close to zero."""


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of complex projective space, stored as one homogeneous
    coordinate vector; the vector must not be numerically zero."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 2:
            raise ValueError("projective points need at least two coordinates")
        if max(abs(c) for c in coords) < 1e-13:
            raise MembershipError(
                "zero coordinate vector: the point evaluates a common root"
            )

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
    A (numerically) zero coordinate vector raises MembershipError - it means
    alpha witnesses a common root of multiplicity >= n.
    """
    if len({f.degree for f in t.polys}) != 1:
        raise ValueError("the point map needs entries of one common degree")
    if isinstance(alpha, float) and math.isinf(alpha):
        return ProjectivePoint((1.0 + 0.0j,) * (t.m * t.n))
    if isinstance(alpha, complex) and (math.isinf(alpha.real) or math.isinf(alpha.imag)):
        return ProjectivePoint((1.0 + 0.0j,) * (t.m * t.n))
    coords = []
    for f in t.polys:
        for comp in jet(f, t.n).components:
            coords.append(complex(_eval_any(comp, alpha)))
    return ProjectivePoint(tuple(coords))


def _eval_any(f: ExactPolynomial, alpha):
    value = f(alpha)
    if isinstance(value, (GaussianRational,)):
        return complex(value)
    return value


# ---------------------------------------------------------------------------
# adaptive argument lifts
# ---------------------------------------------------------------------------


def _eval_vectorized(fn, params: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(fn(params), dtype=complex)
        if vals.shape == params.shape:
            return vals
    except Exception:
        pass
    return np.array([complex(fn(float(t))) for t in params], dtype=complex)


def arg_steps(values: np.ndarray) -> tuple:
    """Argument turns between adjacent nonzero samples, and the mask of the
    turns of pi/2 or more, which a lift may not take in one step."""
    steps = np.angle(values[1:] / values[:-1])
    return steps, np.abs(steps) >= _JUMP_LIMIT


def whole_turns(angle: float) -> int:
    """The whole number of turns in an accumulated lift of a closed loop."""
    turns = angle / (2.0 * math.pi)
    out = round(turns)
    if abs(turns - out) > 0.05:
        raise WindingError("accumulated lift is far from a whole turn count")
    return out


def _adaptive_lift(fn, a: float, b: float, cap: int):
    """Sample fn on [a, b] until adjacent values turn by < pi/2 each.

    Returns (params, values, lifted arguments).  Raises WindingError when the
    sample budget is exhausted or the path meets zero exactly.
    """
    n0 = 64
    params = np.linspace(a, b, n0 + 1)
    values = _eval_vectorized(fn, params)
    while True:
        if np.any(values == 0):
            raise WindingError("path passes through zero")
        steps, bad = arg_steps(values)
        if not bad.any():
            lifted = np.concatenate(([0.0], np.cumsum(steps)))
            return params, values, lifted
        if len(params) > cap:
            raise WindingError(
                f"argument lift did not settle within {cap} samples; "
                "the path runs too close to zero"
            )
        idx = np.nonzero(bad)[0]
        mids = (params[idx] + params[idx + 1]) / 2.0
        mid_vals = _eval_vectorized(fn, mids)
        params = np.insert(params, idx + 1, mids)
        values = np.insert(values, idx + 1, mid_vals)


@dataclass(frozen=True)
class LoopSample:
    """An adaptively sampled closed loop in C*: parameters, values, and the
    continuous argument lift.  Adjacent lifted arguments differ by less than
    pi/2 and the first and last differ by 2*pi times the winding number."""

    parameters: tuple
    values: tuple
    unwrapped_args: tuple

    @property
    def winding(self) -> int:
        total = (self.unwrapped_args[-1] - self.unwrapped_args[0]) / (2.0 * math.pi)
        return round(total)


def sample_loop(fn, refinement_cap: int = _DEFAULT_CAP) -> LoopSample:
    """Adaptively sample the closed loop fn on [0, 2*pi]."""
    params, values, lifted = _adaptive_lift(fn, 0.0, 2.0 * math.pi, refinement_cap)
    closure = abs(values[0] - values[-1]) / max(1e-300, abs(values[0]))
    if closure > 1e-6:
        raise WindingError("loop endpoints disagree: fn(0) != fn(2*pi)")
    whole_turns(lifted[-1] - lifted[0])
    base = lifted[0] + math.atan2(values[0].imag, values[0].real)
    return LoopSample(
        tuple(float(p) for p in params),
        tuple(complex(v) for v in values),
        tuple(float(x + base) for x in lifted),
    )


def winding_number(fn, refinement_cap: int = _DEFAULT_CAP) -> int:
    """Winding of a closed loop around 0, by adaptive argument lifting."""
    return sample_loop(fn, refinement_cap).winding


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
    comps = [c for f in t.polys for c in jet(f, t.n).components]
    return comps[0].degree - gcd_many(comps).degree


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
