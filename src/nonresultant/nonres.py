"""Tuples of monic polynomials and bounded-multiplicity membership.

A system is an m-tuple of monic polynomials together with a multiplicity
bound n >= 1 (with (m, n) = (1, 1) excluded) and a field tag.  The tuple is a
member of the non-resultant space when no point of the algebraic closure is a
common root of all m polynomials with multiplicity >= n.

Membership is decided exactly along two independent routes:

* gcd route — a root of g = gcd(f_1, ..., f_m) has multiplicity >= n exactly
  when g, g', ..., g^(n-1) all vanish there (Farb and Wolfson's jets; over F_p
  Hasse derivatives are needed, as g^(k) = k! * D^(k) g vanishes once p <= k),
  so members have deg g < n or a constant gcd of those n derivatives;
* jet route — the tuple fails membership exactly when the m*n jet components
  f_k + f_k^(i) (i < n) share a common root, so membership is equivalent to
  the gcd of all jet components being constant.

Both are kept callable so they can cross-check each other.  Each is one lazy
gcd fold on integer numerators that generates no member past a constant gcd.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    ExactPolynomial,
    _gcd_fold,
    _ring,
    gcd_many,
    poly_from_json,
    poly_to_json,
    squarefree_decomposition,
)

__all__ = [
    "FIELD_COMPLEX",
    "FIELD_REAL",
    "InputError",
    "JetTuple",
    "MembershipError",
    "SystemTuple",
    "conjugate_tuple",
    "is_member",
    "is_member_via_jets",
    "jet",
    "max_common_multiplicity",
    "stability_dimension",
]

FIELD_REAL = "R"
FIELD_COMPLEX = "C"


class MembershipError(ValueError):
    """An operation that requires membership met a common high-order root."""


class InputError(ValueError):
    """Malformed external input (shape or coefficient syntax)."""


@dataclass(frozen=True)
class JetTuple:
    """The jet of one polynomial: (f, f + f', ..., f + f^(n-1))."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("a jet has at least one component")

    @property
    def base(self) -> ExactPolynomial:
        return self.components[0]

    @property
    def order(self) -> int:
        return len(self.components)


def jet(f: ExactPolynomial, n: int) -> JetTuple:
    """Jet of order n: component 0 is f, component i >= 1 is f + f^(i).

    All components share f's degree and leading coefficient, and they vanish
    simultaneously at a point exactly when f vanishes there to order >= n.
    """
    if n < 1:
        raise ValueError("jet order must be >= 1")
    if f.is_zero:
        raise ValueError("jet of the zero polynomial")
    if n == 1:
        return JetTuple((f,))
    ring = _ring(f)
    _, *later = _jet_numerators(ring, ring.numerators(f), n)
    return JetTuple((f, *(ring.polynomial(cs, f._den) for cs in later)))


def _jet_numerators(ring, cs: list, n: int):
    """Numerators cs, cs + cs', ..., cs + cs^(n-1) of the jet components."""
    yield cs
    for i in range(1, n):
        yield ring.add(cs, ring.derivative(cs, i))


@dataclass(frozen=True)
class SystemTuple:
    """m monic polynomials, a multiplicity bound n, and a field tag."""

    polys: tuple
    n: int
    field: str

    def __post_init__(self):
        if self.field not in (FIELD_REAL, FIELD_COMPLEX):
            raise ValueError(f"unknown field tag {self.field!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("multiplicity bound n must be a positive integer")
        polys = tuple(self.polys)
        object.__setattr__(self, "polys", polys)
        if not polys:
            raise ValueError("a system holds at least one polynomial")
        if len(polys) == 1 and self.n == 1:
            raise ValueError("(m, n) = (1, 1) is excluded: every polynomial of positive degree has a root")
        for f in polys:
            if not isinstance(f, ExactPolynomial):
                raise TypeError("system entries must be ExactPolynomial values")
            if f.degree < 1:
                raise ValueError("system polynomials have positive degree")
            if not f.is_monic:
                raise ValueError("system polynomials must be monic")
            if self.field == FIELD_REAL and not f.is_real:
                raise ValueError("field tag R requires real coefficients")

    @property
    def m(self) -> int:
        return len(self.polys)

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree for f in self.polys)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "polys": [poly_to_json(f) for f in self.polys],
        }

    @staticmethod
    def from_json(obj) -> "SystemTuple":
        if not isinstance(obj, dict):
            raise InputError("system JSON must be an object")
        missing = {"n", "field", "polys"} - set(obj)
        if missing:
            raise InputError(f"system JSON lacks keys: {sorted(missing)}")
        if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
            raise InputError("'n' must be an integer")
        if not isinstance(obj["polys"], list) or not obj["polys"]:
            raise InputError("'polys' must be a nonempty array")
        try:
            polys = tuple(poly_from_json(arr) for arr in obj["polys"])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        return SystemTuple(polys, obj["n"], obj["field"])


def conjugate_tuple(t: SystemTuple) -> SystemTuple:
    """Coefficient-wise complex conjugation; fixes t exactly iff t is real."""
    return SystemTuple(tuple(f.conjugate() for f in t.polys), t.n, t.field)


def max_common_multiplicity(t: SystemTuple) -> int:
    """Largest k such that some point of the closure is a common root of all
    entries with multiplicity >= k; 0 when the entries share no root."""
    return max((m for _, m in squarefree_decomposition(gcd_many(t.polys))), default=0)


def is_member(t: SystemTuple) -> bool:
    """Exact membership by the gcd route: deg g < n or gcd(g, g', ..., g^(n-1)) = 1."""
    ring = _ring(*t.polys)
    g = _gcd_fold(ring, map(ring.numerators, t.polys))
    return len(g) <= t.n or len(_gcd_fold(ring, (ring.derivative(g, k) for k in range(t.n)))) == 1


def is_member_via_jets(t: SystemTuple) -> bool:
    """Exact membership via the jet route: members are exactly the tuples
    whose m*n jet components have constant gcd."""
    return len(_jet_gcd(t)) == 1


def _jet_gcd(t: SystemTuple) -> list:
    """Numerators, up to a unit, of the gcd of the m*n jet components."""
    ring = _ring(*t.polys)
    family = (cs for f in t.polys for cs in _jet_numerators(ring, ring.numerators(f), t.n))
    return _gcd_fold(ring, family)


def stability_dimension(d: int, m: int, n: int) -> int:
    """(m*n - 2) * (floor(d/n) + 1) - 1, the homology stability range."""
    if d < 1 or m < 1 or n < 1:
        raise ValueError("d, m, n must be positive")
    if m == 1 and n == 1:
        raise ValueError("(m, n) = (1, 1) is excluded")
    return (m * n - 2) * (d // n + 1) - 1
