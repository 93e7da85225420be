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
winding of r along a loop is the loop's class, which `pi1_winding` reads
exactly as a signed count of the factors' crossings with one ray.

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
    gcd_exact,
    gcd_many,
    poly_from_json,
    poly_to_json,
    real_roots_exact,
    sign_at,
    squarefree_decomposition,
)
from .nonres import FIELD_REAL, InputError, MembershipError, SystemTuple

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
    """Exact value in Q(i), a Fraction when real, when every
    odd-multiplicity real root of f1 is rational; None otherwise."""
    result = ExactPolynomial.one()
    for root, sign in m._contributions:
        x = root.rational_value()
        if x is None:
            return None
        v = ExactPolynomial.constant(GaussianRational(m.f2(x), m.f3(x)))
        result = result * v if sign > 0 else result.exact_div(v)
    return result.coefficient(0)


def r_d(m: Model31) -> complex:
    """r_tilde pushed to the unit circle."""
    v = r_tilde(m)
    return v / abs(v)


def pi1_winding(loop) -> int:
    """Class of a closed sampled loop of odd-degree models (first == last),
    joined by the straight paths between their triples.  A list that is not
    a closed loop of >= 3 models of one degree raises InputError; a segment
    that leaves the space (`harness.locate_violation`) raises MembershipError
    naming it and the bracket where it does.  The class is the signed count
    of crossings (`_ray_crossings`) with the first ray t = 0, 1, 2, ... that
    meets no segment degenerately; finitely many rays do."""
    # harness imports this module, so the path kernel is imported here
    from .harness import locate_violation

    tuples = [phi_inverse(m) for m in loop]
    if len(tuples) < 3:
        raise InputError("a sampled loop needs at least three entries")
    if tuples[0] != tuples[-1]:
        raise InputError("a sampled loop must close up: first != last")
    if len({m.degree for m in loop}) != 1:
        raise InputError("the models of a sampled loop must share one degree")
    if loop[0].degree % 2 == 0:
        raise ValueError("the alternating evaluation needs odd degree")
    for i, (a, b) in enumerate(zip(tuples, tuples[1:])):
        cert = locate_violation(a, b)
        if cert is not None:
            raise MembershipError(
                f"the loop leaves the space on segment {i}, "
                f"at a parameter in [{cert.lo}, {cert.hi}]"
            )
    # a constant segment crosses no ray in 0 < u < 1
    segments = [(a, b, *_odd_parts(a.f1, b.f1)) for a, b in zip(loop, loop[1:]) if a != b]
    t = 0
    while True:
        try:
            return sum(_ray_crossings(*segment, t) for segment in segments)
        except _DegenerateRay:
            t += 1


class _DegenerateRay(Exception):
    """The ray meets a segment at a vertex, tangentially or along a piece."""


def _odd_parts(f: ExactPolynomial, g: ExactPolynomial) -> tuple:
    """f and g over the even-multiplicity part of their gcd c: on the segment
    h_u = (1-u) h_f + u h_g is f1 = c ((1-u) f/c + u g/c) over a square, so
    r_tilde's factors sit at its simple real roots, with exponents sign h_u'."""
    c = gcd_exact(f, g)
    odd = ExactPolynomial.one()
    for p, mult in squarefree_decomposition(c):
        if mult % 2:
            odd *= p
    return odd * f.exact_div(c), odd * g.exact_div(c)


def _ray_crossings(a: Model31, b: Model31, ha, hb, t: int) -> int:
    """Signed crossings, over 0 < u < 1, of f2_u + i f3_u along the zero
    curve of h_u(x) with the ray through ((1-t^2)/(1+t^2), 2t/(1+t^2)).

    S and P, the components across and along the ray, and h are affine in u.
    With {h = 0} oriented by (h_x, -h_u), the winding of r_tilde counts its
    points where S = 0 < P, signed sign(S_u h_x - S_x h_u) (Milnor, Topology
    from the Differentiable Viewpoint, 1965).  They lie at the real roots xi
    of Q = h_b S_a - h_a S_b, at u = h_a/(h_a - h_b) (or where S = 0 on a root
    of f1 all along the segment), and a simple root adds -sign Q'(xi)."""
    x, y = 1 - t * t, 2 * t
    sa, sb = a.f3 * x - a.f2 * y, b.f3 * x - b.f2 * y
    pa, pb = a.f2 * x + a.f3 * y, b.f2 * x + b.f3 * y
    q = hb * sa - ha * sb
    if q.is_zero:
        raise _DegenerateRay
    dq, hp, sp = q.derivative(), ha * pb - hb * pa, sa * pb - sb * pa
    count = 0
    for xi in real_roots_exact(q):
        side_a, side_b, lp = xi.sign_of(ha), xi.sign_of(hb), hp
        if side_a == side_b == 0:  # a root of f1 all along the segment
            side_a, side_b, lp = xi.sign_of(sa), xi.sign_of(sb), sp
        if side_a * side_b == 0:
            raise _DegenerateRay
        # with L = h or S, u lies in (0, 1) when L_a and L_b differ in sign
        # (with equal signs u is outside, or no u makes h vanish), and there
        # P has the sign of (L_a P_b - L_b P_a) / (L_a - L_b)
        if side_a == side_b or xi.sign_of(lp) != side_a:
            continue
        if xi.multiplicity > 1:
            raise _DegenerateRay
        count -= xi.sign_of(dq)
    return count


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
