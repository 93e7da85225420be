"""The triple case (m = 3, n = 1, real): model space and loop invariants.

A member triple of one degree d is sheared into model coordinates (f1, f2 -
f1, f3 - f1): the first entry stays monic of degree d, the two differences
have lower degree, and the three share no complex root.  The circle acts by
rotating the pair of differences.

For odd d the alternating evaluation

    r(f1, f2, f3) = prod over ascending real roots x_1 <= ... <= x_r of f1
                    of (f2 + i*f3)(x_j) ** ((-1)**(j-1))

is well defined (roots carry multiplicity; adjacent equal roots cancel, so
only odd-multiplicity roots contribute, with the parity of their position)
and never zero or infinite on the model space.  Normalised to the unit
circle it retracts the model space onto the basic loop theta -> (z^d, z +
cos theta, z + sin theta), whose class generates the fundamental group; the
winding of r along a loop is the loop's class.

A contributing root that isolation finds exactly, or that is itself a
float, is evaluated exactly in Q(i); at every other root f2 and f3 are
evaluated in floating point at the correctly rounded root, the float nearest
to it (`RealRoot.float_value`).  Transcendental rotation angles enter
through the binary value of cos/sin, so every polynomial stays exactly
represented.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    ExactPolynomial,
    GaussianRational,
    gcd_many,
    poly_from_json,
    poly_to_json,
    real_roots_exact,
    sign_at,
)
from .mapdeg import winding_number
from .nonres import FIELD_REAL, MembershipError, SystemTuple

__all__ = [
    "Model31",
    "i_d_loop",
    "model_from_json",
    "model_to_json",
    "phi",
    "phi_inverse",
    "pi1_winding",
    "r_d",
    "r_tilde",
    "r_tilde_exact",
    "s1_act",
    "s1_act_exact",
]


@dataclass(frozen=True)
class Model31:
    """Model coordinates: f1 monic of degree d >= 2, two real polynomials of
    lower degree, no common complex root among the three."""

    f1: ExactPolynomial
    f2: ExactPolynomial
    f3: ExactPolynomial

    def __post_init__(self):
        if self.f1.degree < 2 or not self.f1.is_monic:
            raise ValueError("f1 must be monic of degree >= 2")
        for f in (self.f2, self.f3):
            if f.degree >= self.f1.degree:
                raise ValueError("the sheared entries must have degree < deg f1")
        if not (self.f1.is_real and self.f2.is_real and self.f3.is_real):
            raise ValueError("model entries must be real")
        if gcd_many([self.f1, self.f2, self.f3]).degree != 0:
            raise MembershipError("the model entries share a root")

    @property
    def degree(self) -> int:
        return self.f1.degree

    @functools.cached_property
    def _contributions(self) -> tuple:
        """The ascending real roots of f1 of odd multiplicity, each with its
        exponent: +1 at an odd position among the roots counted with
        multiplicity, else -1 (a root of even multiplicity cancels itself).
        Computed once per model, for r_tilde and r_tilde_exact alike."""
        if self.degree % 2 == 0:
            raise ValueError("the alternating evaluation needs odd degree")
        out = []
        position = 1
        for root in real_roots_exact(self.f1):
            if root.multiplicity % 2:
                out.append((root, 1 if position % 2 else -1))
            position += root.multiplicity
        return tuple(out)


def phi(t: SystemTuple) -> Model31:
    """Shear a member triple into model coordinates; exact, and undone
    exactly by `phi_inverse`."""
    if t.m != 3 or t.n != 1 or t.field != FIELD_REAL:
        raise ValueError("expected a real triple with multiplicity bound 1")
    if len(set(t.degrees)) != 1:
        raise ValueError("the triple must share one degree")
    f1, f2, f3 = t.polys
    return Model31(f1, f2 - f1, f3 - f1)


def phi_inverse(m: Model31) -> SystemTuple:
    return SystemTuple((m.f1, m.f1 + m.f2, m.f1 + m.f3), 1, FIELD_REAL)


def s1_act_exact(cos_t: Fraction, sin_t: Fraction, m: Model31) -> Model31:
    """Rotation by an exact point of the circle (cos_t^2 + sin_t^2 = 1)."""
    c, s = Fraction(cos_t), Fraction(sin_t)
    if c * c + s * s != 1:
        raise ValueError("(cos_t, sin_t) must lie on the unit circle exactly")
    return _rotate(c, s, m)


def s1_act(theta: float, m: Model31) -> Model31:
    """Rotation by the angle theta; the binary values of cos/sin are used
    exactly, so membership is preserved exactly (the matrix stays invertible)."""
    return _rotate(Fraction(math.cos(theta)), Fraction(math.sin(theta)), m)


def _rotate(c: Fraction, s: Fraction, m: Model31) -> Model31:
    return Model31(m.f1, m.f2 * c - m.f3 * s, m.f2 * s + m.f3 * c)


def i_d_loop(d: int, theta: float) -> Model31:
    """The basic loop: (z^d, z + cos theta, z + sin theta)."""
    if d < 2:
        raise ValueError("the basic loop needs degree >= 2")
    z = ExactPolynomial.variable()
    return Model31(
        z**d,
        z + ExactPolynomial.constant(Fraction(math.cos(theta))),
        z + ExactPolynomial.constant(Fraction(math.sin(theta))),
    )


def r_tilde(m: Model31) -> complex:
    """The alternating evaluation, as a complex number; d must be odd.
    r_tilde and its factors are never zero or infinite on the model space,
    so a factor or product with no nonzero finite float value lies beyond
    the float range and raises ValueError."""
    result = 1.0 + 0.0j
    try:
        for root, sign in m._contributions:
            x = root.lo if root.is_exact else root.float_value()
            if root.is_exact or sign_at(m.f1, *x.as_integer_ratio()) == 0:
                v = complex(GaussianRational(m.f2(Fraction(x)), m.f3(Fraction(x))))
            else:
                v = complex(m.f2(x), m.f3(x))
            if not 0 < abs(v) < math.inf:
                break
            result = result * v if sign > 0 else result / v
        else:
            if 0 < abs(result) < math.inf:
                return result
    except OverflowError:  # too large to convert, or to take the modulus of
        pass
    raise ValueError("r_tilde lies beyond the float range")


def r_tilde_exact(m: Model31):
    """Exact value in Q(i) when every odd-multiplicity real root of f1 is
    rational; None otherwise."""
    result = GaussianRational(Fraction(1), Fraction(0))
    for root, sign in m._contributions:
        x = root.rational_value()
        if x is None:
            return None
        v = GaussianRational(m.f2(x), m.f3(x))
        result = result * v if sign > 0 else result / v
    return result


def r_d(m: Model31) -> complex:
    """r_tilde pushed to the unit circle."""
    v = r_tilde(m)
    return v / abs(v)


def pi1_winding(loop) -> int:
    """Class of a closed loop of odd-degree models: the winding of r_tilde.

    `loop` is either a callable theta -> Model31 on [0, 2*pi] or a closed
    sampled list of models (first == last), joined by the straight paths
    between their triples (`harness.path_tuple`).  Every segment is
    certified exactly (`harness.locate_violation`) before the lift runs; one
    that leaves the space raises MembershipError naming the segment and the
    bracket where it does.  A callable loop that runs too close to zero
    raises WindingError once the lift reaches the float resolution.
    """
    # harness imports this module, so the path kernel is imported here
    from .harness import locate_violation, path_tuple

    if callable(loop):
        fn = loop
    else:
        tuples = [phi_inverse(m) for m in loop]
        if len(tuples) < 3:
            raise ValueError("a sampled loop needs at least three entries")
        if tuples[0] != tuples[-1]:
            raise ValueError("a sampled loop must close up: first != last")
        for i, (a, b) in enumerate(zip(tuples, tuples[1:])):
            cert = locate_violation(a, b)
            if cert is not None:
                raise MembershipError(
                    f"the loop leaves the space on segment {i}, "
                    f"at a parameter in [{cert.lo}, {cert.hi}]"
                )
        segments = len(tuples) - 1

        def fn(theta: float) -> Model31:
            s = (theta / (2.0 * math.pi)) * segments
            i = min(int(math.floor(s)), segments - 1)
            return phi(path_tuple(tuples[i], tuples[i + 1], Fraction(s - i)))

    return winding_number(lambda thetas: [r_tilde(fn(float(th))) for th in thetas])


def model_to_json(m: Model31) -> dict:
    return {
        "f1": poly_to_json(m.f1),
        "f2": poly_to_json(m.f2),
        "f3": poly_to_json(m.f3),
    }


def model_from_json(obj) -> Model31:
    if not isinstance(obj, dict) or {"f1", "f2", "f3"} - set(obj):
        raise ValueError("model JSON needs 'f1', 'f2', 'f3' arrays")
    return Model31(
        poly_from_json(obj["f1"]),
        poly_from_json(obj["f2"]),
        poly_from_json(obj["f3"]),
    )
