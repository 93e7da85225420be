"""Stabilization: adding a root from infinity.

Two constructions, both raising the common degree by one.  For a real
triple with multiplicity bound 1, multiplying every entry by (z - T)
would plant a forbidden common root; instead the extra factor is applied
to f1 in the sheared coordinates (f1, f2 - f1, f3 - f1) and pulled back,
which keeps the pairwise differences (hence the shared-root analysis)
untouched.  For multiplicity bound n >= 2 the naive construction is
legal: the new common root T is simple, and 1 < n.

Both maps pick T per input, beyond every root the analysis can see, so
they realize the "from infinity" limit pointwise rather than as one
globally continuous map.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .case12 import component_of_12, stabilize_12
from .case31 import Model31, phi, phi_inverse
from .exactalg import ExactPolynomial, cauchy_root_bound
from .nonres import FIELD_REAL, MembershipError, SystemTuple, is_member

__all__ = [
    "StabilizationReport",
    "loop_T",
    "recommended_T",
    "stabilize_31",
    "stabilize_31_model",
    "stabilize_multiplicity",
    "stabilize_with_report",
]


@dataclass(frozen=True)
class StabilizationReport:
    """What one stabilization did: labels where a case defines them (the
    squarefree case's component index), membership before and after."""

    case: str
    T_used: Fraction
    member_in: bool
    member_out: bool
    input_label: Optional[int]
    output_label: Optional[int]
    output: SystemTuple

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "T": str(self.T_used),
            "member_in": self.member_in,
            "member_out": self.member_out,
            "input_label": self.input_label,
            "output_label": self.output_label,
            "output": self.output.to_json(),
        }


def _as_fraction(T) -> Fraction:
    if isinstance(T, float):
        raise TypeError("T must be rational; wrap floats explicitly via Fraction(x)")
    if not isinstance(T, (int, Fraction, numbers.Rational)):
        raise TypeError("T must be rational")
    return Fraction(T)


def stabilize_31(t: SystemTuple, T) -> SystemTuple:
    """((z-T)f1, (z-T)f1 + (f2-f1), (z-T)f1 + (f3-f1)) for a real triple
    with multiplicity bound 1; T must clear every root of the entries and
    of the differences f2-f1, f3-f1."""
    T = _as_fraction(T)
    if t.m != 3 or t.n != 1 or t.field != FIELD_REAL:
        raise ValueError("expected a real triple with multiplicity bound 1")
    if not is_member(t):
        raise ValueError("input shares a common root")
    f1, f2, f3 = t.polys
    u, v = f2 - f1, f3 - f1
    relevant = [f for f in (f1, f2, f3, u, v) if not f.is_zero]
    if T <= cauchy_root_bound(relevant):
        raise ValueError("T must exceed the root bound of the entries and their differences")
    shifted = (ExactPolynomial.variable() - ExactPolynomial.constant(T)) * f1
    out = SystemTuple((shifted, shifted + u, shifted + v), 1, FIELD_REAL)
    if not is_member(out):
        raise MembershipError("stabilization broke membership")
    return out


def stabilize_31_model(m: Model31, T) -> Model31:
    """The same map in sheared coordinates: only f1 picks up the factor."""
    return phi(stabilize_31(phi_inverse(m), T))


def stabilize_multiplicity(t: SystemTuple, T) -> SystemTuple:
    """Every entry times (z - T); legal only for multiplicity bound n >= 2,
    where the fresh simple common root T is allowed."""
    T = _as_fraction(T)
    if t.n < 2:
        raise ValueError("multiplicity bound 1 admits no common factor; use the triple map")
    if not is_member(t):
        raise ValueError("input violates the multiplicity bound")
    if T <= cauchy_root_bound(list(t.polys)):
        raise ValueError("T must exceed the root bound of the entries")
    factor = ExactPolynomial.variable() - ExactPolynomial.constant(T)
    out = SystemTuple(tuple(factor * f for f in t.polys), t.n, t.field)
    if not is_member(out):
        raise MembershipError("stabilization broke membership")
    return out


def recommended_T(t: SystemTuple) -> Fraction:
    """A T safely beyond everything either map inspects at this one tuple.
    The bound is pointwise: stabilizing the vertices of a (3,1) loop each
    with its own, or with the largest, may change the loop's class (use
    `loop_T`)."""
    polys = list(t.polys)
    if t.m == 3 and t.n == 1:
        f1 = t.polys[0]
        polys += [f - f1 for f in t.polys[1:] if f != f1]
    return cauchy_root_bound([f for f in polys if not f.is_zero]) + 1


def loop_T(loop) -> Fraction:
    """A T that stabilizes a closed sampled loop of (3,1) models, vertex by
    vertex with `stabilize_31_model`, without changing its class: beyond
    every vertex's `recommended_T` and every root of the nonzero cross
    polynomials c_k = f2_k f3_(k+1) - f3_k f2_(k+1).  On segment k, f2 + i f3
    passes through 0 at tau only where c_k(tau) = 0, so the winding of
    u -> (f2 + i f3)(tau), by which the classes after two stabilizations
    differ, is one number for every tau beyond that bound."""
    T = max(recommended_T(phi_inverse(m)) for m in loop)
    cross = [a.f2 * b.f3 - a.f3 * b.f2 for a, b in zip(loop, loop[1:])]
    cross = [c for c in cross if not c.is_zero]
    return max(T, cauchy_root_bound(cross) + 1) if cross else T


def stabilize_with_report(t: SystemTuple, T=None, case: Optional[str] = None) -> StabilizationReport:
    """Route to the construction named by `case` ('31', '12', or 'mult';
    inferred from (m, n) when omitted) and record what happened.

    `member_in` and `member_out` are True whenever a report is returned: the
    constructions (for case '12', `component_of_12`) raise outside the space."""
    if case is None:
        if t.m == 3 and t.n == 1:
            case = "31"
        elif t.m == 1 and t.n == 2:
            case = "12"
        elif t.n >= 2:
            case = "mult"
        else:
            raise ValueError("no stabilization applies to this (m, n)")
    T = recommended_T(t) if T is None else _as_fraction(T)
    label_in = label_out = None
    if case == "31":
        out = stabilize_31(t, T)
    elif case == "12":
        if t.m != 1 or t.n != 2:
            raise ValueError("case '12' needs a single polynomial with multiplicity bound 2")
        label_in = component_of_12(t.polys[0])
        g = stabilize_12(t.polys[0], T)
        out = SystemTuple((g,), 2, FIELD_REAL)
        label_out = component_of_12(g)
    elif case == "mult":
        out = stabilize_multiplicity(t, T)
    else:
        raise ValueError(f"unknown stabilization case {case!r}")
    return StabilizationReport(
        case=case,
        T_used=T,
        member_in=True,
        member_out=True,
        input_label=label_in,
        output_label=label_out,
        output=out,
    )
