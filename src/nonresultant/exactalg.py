"""Exact arithmetic for univariate polynomials over Q and Q(i).

A polynomial is stored as integer numerators over one positive denominator:
a tuple of ints for the real parts of its coefficients, a second tuple for the
imaginary parts only when one of them is nonzero, and the denominator.  The
form is reduced: the leading numerator is nonzero and the gcd of all
numerators and the denominator is 1.  Equal polynomials then have equal
tuples (the denominator is the least common denominator of the coefficients,
and the numerators follow from it), so `==` and `hash` compare integers and
nothing is ever re-normalized.  Arithmetic runs on the numerators; the
`Fraction`/`GaussianRational` view of the coefficients exists only at the API
and JSON boundary and is built on demand.  A product of linear factors
(`from_roots`) is built by Kronecker substitution: the real and the imaginary
numerators are each one integer, the polynomial's value at a power of 2 past
their bound, so each root costs a shift and a few integer products.  The one
division is exact (Yun's quotients): a nonreal divisor b is made real as
b*conj(b), and the real and imaginary numerators are divided by its primitive
part, which by Gauss's lemma takes only integer steps.

Gcds and resultants come from one subresultant polynomial remainder sequence
(Collins 1967; Brown and Traub 1971), run on the numerators over Z or over
Z[i]: the reduction factors g*h**delta keep every division exact and the
intermediate coefficient growth polynomial in the input size, unlike the
naive Euclidean remainder sequence whose numerators explode.  The gcd is the
last nonzero remainder made monic; the resultant is read off the last
constant term (Cohen, A Course in Computational Algebraic Number Theory,
Algorithm 3.3.7).  The PRS runs on the numerators as stored; a family's gcd
is one PRS fold that keeps the primitive part between steps (over Z[i], the
monic associate's numerators) and makes only the final gcd monic.  Families
are lazy streams of numerator lists, read only up to the first constant.  The
Z[i] kernel writes the Gaussian products out and divides each remainder by
the step's divisor with its conjugate and norm computed once.

Real roots are isolated by Sturm's theorem: the signed remainder chain is
built over Z with positive content stripped at each step, once per
polynomial (it is cached on it, and a chain ending in a constant proves the
input squarefree, so Yun is skipped), and sign variations are counted at p/q
from the integer q**d * f(p/q).  Bisection runs on integer numerators only,
over an explicit worklist of dyadic intervals, and produces refinable
isolating intervals whose endpoints are dyadic rationals.  An exact rational
hit during bisection is returned as a degenerate interval [r, r].  Rounding
a root to its float uses quadratic interval refinement instead of halving.

Complex roots are the eigenvalues of the companion matrices, one `eigvals`
call per degree group for its real rows and one for the others; these are
backward-stable approximations (Edelman and Murakami 1995).  They are
grouped into clusters whose multiplicity is the cluster size, and every
cluster center is validated against a backward-error bound.  There is no
iteration and no retry: a polynomial that fails the check, or that the
eigensolver fails on, raises `NonConvergenceError` carrying the diagnostics
to reproduce it, and a coefficient beyond the float range raises ValueError.
Clustering and validation are array passes over a degree group that repeat
CPython's complex arithmetic on split real and imaginary floats, so they give
the scalar code's results bit for bit (numpy's complex product, modulus and
power differ in the last bit).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ExactPolynomial",
    "GaussianRational",
    "NonConvergenceError",
    "RealRoot",
    "RootCluster",
    "Scalar",
    "cauchy_index",
    "cauchy_root_bound",
    "complex_roots_many",
    "complex_roots_numeric",
    "count_distinct_real_roots",
    "gcd_exact",
    "gcd_many",
    "has_real_root_between",
    "interpolate_equispaced",
    "poly_from_json",
    "poly_to_json",
    "real_roots_exact",
    "resultant_exact",
    "scalar_from_json",
    "scalar_to_json",
    "sign_at",
    "squarefree_decomposition",
    "sturm_count",
]


class NonConvergenceError(RuntimeError):
    """A numeric procedure could not certify its result.  `diagnostics`
    holds the data needed to reproduce the failure (empty when there is
    nothing beyond the message)."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """An element of Q(i), kept as an exact pair of Fractions."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _to_fraction(self.re))
        object.__setattr__(self, "im", _to_fraction(self.im))

    # -- coercion ---------------------------------------------------------
    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_to_fraction(x), Fraction(0))

    def canonical(self) -> Union[Fraction, "GaussianRational"]:
        """Collapse to a plain Fraction when the imaginary part vanishes."""
        return self.re if self.im == 0 else self

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __pow__(self, k: int):
        return _power(self, k, GaussianRational(Fraction(1), Fraction(0)), operator.mul)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """|x|^2, exactly."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ------------------------------------------
    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # real values must hash like their Fraction counterpart
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


Scalar = Union[Fraction, GaussianRational]


def _scalar_parts(x) -> tuple:
    """Integers (re, im, den) with x = (re + im*i)/den and den > 0."""
    # the exact types are tested first: isinstance(x, Fraction) is an ABC check
    if type(x) is Fraction:
        return x.numerator, 0, x.denominator
    if type(x) is not GaussianRational:
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        if isinstance(x, int):
            return x, 0, 1
        if not isinstance(x, GaussianRational):
            raise TypeError(
                f"exact coefficient required, got {type(x).__name__}; "
                "wrap floats explicitly via Fraction(x) if that is intended"
            )
    dr, di = x.re.denominator, x.im.denominator
    den = math.lcm(dr, di)
    return x.re.numerator * (den // dr), x.im.numerator * (den // di), den


def _scalar(re: int, im: int, den: int) -> Scalar:
    """The canonical exact value of (re + im*i)/den: a Fraction when real."""
    if im:
        return GaussianRational(Fraction(re, den), Fraction(im, den))
    return Fraction(re, den)


# ---------------------------------------------------------------------------
# integer numerator lists; an imaginary part of None means all zeros
# ---------------------------------------------------------------------------


def _conv(a: Sequence[int], b: Sequence[int]) -> list:
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _lin(sa: int, a: Sequence[int], sb: int, b: Sequence[int]) -> list:
    """sa*a + sb*b, padding the shorter list with zeros."""
    if len(a) < len(b):
        a = list(a) + [0] * (len(b) - len(a))
    elif len(b) < len(a):
        b = list(b) + [0] * (len(a) - len(b))
    return [sa * x + sb * y for x, y in zip(a, b)]


def _cmul(ar, ai, br, bi) -> tuple:
    """(ar + i*ai) * (br + i*bi) on numerator lists."""
    re = _conv(ar, br)
    if ai is None and bi is None:
        return re, None
    if ai is None:
        return re, _conv(ar, bi)
    if bi is None:
        return re, _conv(ai, br)
    return _lin(1, re, -1, _conv(ai, bi)), _lin(1, _conv(ar, bi), 1, _conv(ai, br))


def _reduce(re: Sequence[int], im, den: int) -> tuple:
    """Reduced form of (re + i*im)/den, for lists of equal length and den != 0:
    trailing zeros stripped, an all-zero imaginary part dropped, den > 0 and
    coprime to the numerators."""
    n = len(re)
    if im is None:
        while n and not re[n - 1]:
            n -= 1
    else:
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        im = tuple(im[:n]) if any(im[:n]) else None
    if not n:
        return (), None, 1
    re = tuple(re[:n])
    if den < 0:
        re, den = tuple(-c for c in re), -den
        im = im and tuple(-c for c in im)
    if den != 1:
        g = math.gcd(den, *re, *(im or ()))
        if g > 1:
            re, den = tuple(c // g for c in re), den // g
            im = im and tuple(c // g for c in im)
    return re, im, den


def _from_parts(parts: Sequence[tuple]) -> tuple:
    """Reduced form of the coefficients (re + im*i)/den given as parts."""
    den = math.lcm(*[d for _, _, d in parts])
    re = [a * (den // d) for a, _, d in parts]
    im = [b * (den // d) for _, b, d in parts] if any(b for _, b, _ in parts) else None
    return _reduce(re, im, den)


def _signed_digits(v: int, n: int, b: int) -> list:
    """The n digits c_k, ascending, with v = sum(c_k * 2**(b*k)) and
    |c_k| < 2**(b-1)."""
    base, mask = 1 << b, (1 << b) - 1
    half = base >> 1
    out = []
    for _ in range(n):
        c = v & mask
        if c >= half:
            c -= base
        out.append(c)
        v = (v - c) >> b
    return out


def _poly(re: Sequence[int], im=None, den: int = 1) -> "ExactPolynomial":
    return ExactPolynomial._raw(*_reduce(re, im, den))


def _int_quotient(a: Sequence[int], b: Sequence[int]) -> list:
    """a / b for integer lists with b primitive: by Gauss's lemma the quotient
    of an exact division has integer coefficients, so each step of the long
    division divides exactly, and a nonzero leftover means b does not divide a."""
    r, db = list(a), len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[db + k] // b[-1]
        if c:
            for i, x in enumerate(b, k):
                r[i] -= c * x
    if any(r):
        raise ValueError("division was expected to be exact")
    return q


class ExactPolynomial:
    """Dense univariate polynomial over Q or Q(i), immutable.

    Stored as integer numerators over one positive denominator: `_re` holds
    the real parts of the coefficients ascending by degree, `_im` the
    imaginary parts, or None when all of them are zero (so `is_real` is a
    structural test), and `_den` the denominator.  The numerators and the
    denominator have no common factor and the leading coefficient is
    nonzero, which makes the form unique: equality and hashing compare the
    three fields.  The zero polynomial has no numerators, denominator 1 and
    degree -1.

    `coefficients` is the exact view, a tuple of `Fraction` values and
    `GaussianRational` ones for nonreal coefficients, built on each access.
    """

    def __init__(self, coefficients: Iterable = ()):
        self._re, self._im, self._den = _from_parts([_scalar_parts(c) for c in coefficients])

    @classmethod
    def _raw(cls, re: tuple, im: Optional[tuple], den: int) -> "ExactPolynomial":
        # fields already in reduced form
        p = object.__new__(cls)
        p._re, p._im, p._den = re, im, den
        return p

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "ExactPolynomial":
        return ExactPolynomial._raw((), None, 1)

    @staticmethod
    def one() -> "ExactPolynomial":
        return ExactPolynomial._raw((1,), None, 1)

    @staticmethod
    def variable() -> "ExactPolynomial":
        return ExactPolynomial._raw((0, 1), None, 1)

    @staticmethod
    def constant(c) -> "ExactPolynomial":
        return ExactPolynomial((c,))

    @staticmethod
    def from_roots(roots: Iterable) -> "ExactPolynomial":
        """The product of (z - r) over the roots r, by Kronecker substitution.

        A root r = (p + q*i)/d contributes the integer factor d*z - p - q*i,
        and the product is divided by the product of the d.  Every real and
        imaginary numerator of every partial product has absolute value at
        most M = prod(d + |p| + |q|), since each factor's term is >= 1.  With
        2**(b-1) > M, the real and the imaginary numerators are each packed
        into one integer, the polynomial's value at 2**b, so folding in a
        root is a shift and a few integer products:
        re' = (d*re << b) - p*re + q*im and im' = (d*im << b) - p*im - q*re.
        The numerators are read back once, as signed base-2**b digits.
        """
        parts = [_scalar_parts(r) for r in roots]
        b = math.prod(d + abs(p) + abs(q) for p, q, d in parts).bit_length() + 1
        re, im, den = 1, 0, 1
        for p, q, d in parts:
            den *= d
            if q or im:
                re, im = (d * re << b) - p * re + q * im, (d * im << b) - p * im - q * re
            else:
                re = (d * re << b) - p * re
        n = len(parts) + 1
        return _poly(_signed_digits(re, n, b), _signed_digits(im, n, b) if im else None, den)

    # -- structure ----------------------------------------------------------
    @property
    def _im_parts(self) -> tuple:
        """The imaginary numerators, zeros included."""
        return self._im or (0,) * len(self._re)

    @property
    def coefficients(self) -> tuple:
        """Ascending exact coefficients: Fraction, or GaussianRational when nonreal."""
        return tuple(_scalar(a, b, self._den) for a, b in zip(self._re, self._im_parts))

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    @property
    def is_zero(self) -> bool:
        return not self._re

    @property
    def is_real(self) -> bool:
        return self._im is None

    @property
    def leading_coefficient(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    @property
    def is_monic(self) -> bool:
        return (
            not self.is_zero
            and self._re[-1] == self._den
            and (self._im is None or not self._im[-1])
        )

    def coefficient(self, k: int) -> Scalar:
        if not 0 <= k <= self.degree:
            return Fraction(0)
        return _scalar(self._re[k], self._im[k] if self._im else 0, self._den)

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return (
            self._re == other._re and self._im == other._im and self._den == other._den
        )

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    # -- ring operations ------------------------------------------------------
    def _combine(self, u: int, other: "ExactPolynomial", v: int, w: int = 1) -> "ExactPolynomial":
        """(u*self + v*other) / w for integers u, v and w != 0, on the
        numerators over the least common denominator."""
        den = math.lcm(self._den, other._den)
        sf, sg = u * (den // self._den), v * (den // other._den)
        re = _lin(sf, self._re, sg, other._re)
        im = None
        if self._im is not None or other._im is not None:
            im = _lin(sf, self._im_parts, sg, other._im_parts)
        return _poly(re, im, den * w)

    def __add__(self, other):
        return self._combine(1, _as_poly(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(1, _as_poly(other), -1)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __neg__(self):
        im = self._im and tuple(-c for c in self._im)
        return ExactPolynomial._raw(tuple(-c for c in self._re), im, self._den)

    def __mul__(self, other):
        other = _as_poly(other)
        re, im = _cmul(self._re, self._im, other._re, other._im)
        return _poly(re, im, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, ExactPolynomial.one(), operator.mul)

    def exact_div(self, other) -> "ExactPolynomial":
        """self / other, raising ValueError unless other divides self."""
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ar, ai, b = self._re, self._im, other._re
        if other._im is not None:
            # self / b = self*conj(b) / (b*conj(b)), whose divisor is real
            conj = tuple(-c for c in other._im)
            ar, ai = _cmul(ar, ai, b, conj)
            b = _cmul(b, other._im, b, conj)[0]
        # self = N/n and other = c*P/m with P primitive, so self/other = (N/P)*m/(n*c)
        c, m = math.gcd(*b), other._den
        p = [x // c for x in b]
        qr = [m * x for x in _int_quotient(ar, p)]
        qi = ai and [m * x for x in _int_quotient(ai, p)]
        return _poly(qr, qi, self._den * c)

    def derivative(self, order: int = 1) -> "ExactPolynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        return _poly(_Z.derivative(self._re, order), self._im and _Z.derivative(self._im, order), self._den)

    def monic(self) -> "ExactPolynomial":
        if self.is_zero:
            raise ValueError("cannot make the zero polynomial monic")
        if self.is_monic:
            return self
        lr = self._re[-1]
        li = self._im[-1] if self._im else 0
        if not li:
            return _poly(self._re, self._im, lr)
        # N/(lr + i*li) = N*(lr - i*li)/(lr^2 + li^2)
        re, im = _cmul(self._re, self._im, (lr,), (-li,))
        return _poly(re, im, lr * lr + li * li)

    def conjugate(self) -> "ExactPolynomial":
        im = self._im and tuple(-c for c in self._im)
        return ExactPolynomial._raw(self._re, im, self._den)

    # -- evaluation ------------------------------------------------------------
    @cached_property
    def complex_coefficients(self) -> tuple:
        den = self._den
        return tuple(complex(a / den, b / den) for a, b in zip(self._re, self._im_parts))

    @cached_property
    def float_coefficients(self) -> tuple:
        if not self.is_real:
            raise ValueError("polynomial has nonreal coefficients")
        return tuple(a / self._den for a in self._re)

    @cached_property
    def sturm_chain(self) -> list:
        """The Sturm chain of a real polynomial: the signed remainder
        sequence of its numerators and their derivative (`_sturm_chain`),
        ending in gcd(f, f') up to a positive factor.  Built on first use and
        shared by every later reader, which must not modify it."""
        if not self.is_real:
            raise ValueError("Sturm counting needs real coefficients")
        return _sturm_chain(self._re, _Z.derivative(self._re, 1))

    def __call__(self, x):
        if isinstance(x, (int, Fraction, GaussianRational)):
            if self.is_zero:
                return Fraction(0)
            # Horner on x = (p + q*i)/d scaled by d**degree stays in Z[i]
            p, q, d = _scalar_parts(x)
            sr = si = 0
            scale = 1
            for a, b in zip(reversed(self._re), reversed(self._im_parts)):
                sr, si = sr * p - si * q + a * scale, sr * q + si * p + b * scale
                scale *= d
            return _scalar(sr, si, self._den * d**self.degree)
        if isinstance(x, complex):
            acc_c = 0j
            for c in reversed(self.complex_coefficients):
                acc_c = acc_c * x + c
            return acc_c
        if isinstance(x, float):
            if self.is_real:
                acc_f = 0.0
                for cf in reversed(self.float_coefficients):
                    acc_f = acc_f * x + cf
                return acc_f
            return self(complex(x))
        raise TypeError(f"cannot evaluate at {type(x).__name__}")

    # -- display ------------------------------------------------------------
    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ExactPolynomial({self})"


def _as_poly(x) -> ExactPolynomial:
    if isinstance(x, ExactPolynomial):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return ExactPolynomial((x,))
    raise TypeError(f"cannot treat {type(x).__name__} as a polynomial")


# ---------------------------------------------------------------------------
# the subresultant PRS over Z and over Z[i]; Z[i] elements are (re, im) pairs
# ---------------------------------------------------------------------------


def _int_prem(a: Sequence[int], b: Sequence[int]) -> list:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        for i in range(db + k):
            r[i] = lb * r[i] - (c * b[i - k] if i >= k else 0)
        del r[db + k :]
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_primitive(cs: Sequence[int]) -> list:
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


def _g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _power(base, k: int, one, mul):
    """base**k by square-and-multiply, for a nonnegative integer k."""
    if not isinstance(k, int) or k < 0:
        raise TypeError("only nonnegative integer powers")
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def _g_prem(a: list, b: list) -> list:
    """Pseudo-remainder over Z[i], with the Gaussian products written out."""
    da, db = len(a) - 1, len(b) - 1
    lr, li = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        cr, ci = r.pop()
        for i in range(k):
            x, y = r[i]
            r[i] = (lr * x - li * y, lr * y + li * x)
        for i in range(k, db + k):
            x, y = r[i]
            u, v = b[i - k]
            r[i] = (lr * x - li * y - cr * u + ci * v, lr * y + li * x - cr * v - ci * u)
    while r and r[-1] == (0, 0):
        r.pop()
    return r


class _Z:
    """The integers as the PRS sees them."""

    one = 1
    mul = staticmethod(operator.mul)
    pow = staticmethod(pow)
    prem = staticmethod(_int_prem)
    primitive = staticmethod(_int_primitive)

    @staticmethod
    def divide(cs: list, d: int) -> list:
        return [c // d for c in cs]  # only ever called on exact quotients

    @staticmethod
    def derivative(cs: Sequence[int], k: int) -> list:
        return [math.perm(j, k) * c for j, c in enumerate(cs[k:], k)]

    @staticmethod
    def add(a: list, b: list) -> list:
        return _lin(1, a, 1, b)

    @staticmethod
    def numerators(f: ExactPolynomial) -> list:
        return list(f._re)

    @staticmethod
    def polynomial(cs: list, den: int = 1) -> ExactPolynomial:
        return _poly(cs, None, den)

    @staticmethod
    def scalar(x: int, den: int) -> Scalar:
        return Fraction(x, den)


class _ZI:
    """The Gaussian integers as the PRS sees them: (re, im) int pairs."""

    one = (1, 0)
    mul = staticmethod(_g_mul)
    prem = staticmethod(_g_prem)

    @staticmethod
    def pow(a, k: int):
        return _power(a, k, (1, 0), _g_mul)

    @staticmethod
    def divide(cs: list, d: tuple) -> list:
        dr, di = d
        n = dr * dr + di * di
        out = []
        for x, y in cs:
            re, sr = divmod(x * dr + y * di, n)
            im, si = divmod(y * dr - x * di, n)
            if sr or si:
                raise ArithmeticError("inexact division in Z[i]")
            out.append((re, im))
        return out

    @staticmethod
    def derivative(cs: list, k: int) -> list:
        return [(math.perm(j, k) * x, math.perm(j, k) * y) for j, (x, y) in enumerate(cs[k:], k)]

    @staticmethod
    def add(a: list, b: list) -> list:
        # b no longer than a
        return [(x + u, y + v) for (x, y), (u, v) in zip(a, b)] + a[len(b) :]

    @staticmethod
    def primitive(cs: list) -> list:
        # the numerators of the monic associate
        lr, li = cs[-1]
        if li:
            cs = [_g_mul(c, (lr, -li)) for c in cs]
        g = math.gcd(*(x for c in cs for x in c))
        return [(x // g, y // g) for x, y in cs] if g > 1 else cs

    @staticmethod
    def numerators(f: ExactPolynomial) -> list:
        return list(zip(f._re, f._im_parts))

    @staticmethod
    def polynomial(cs: list, den: int = 1) -> ExactPolynomial:
        return _poly([x for x, _ in cs], [y for _, y in cs], den)

    @staticmethod
    def scalar(x: tuple, den: int) -> Scalar:
        return _scalar(x[0], x[1], den)


def _ring(*polys: ExactPolynomial):
    return _Z if all(f.is_real for f in polys) else _ZI


def _prs(a: list, b: list, ring) -> tuple:
    """Run the subresultant PRS from deg a >= deg b >= 1 until a remainder
    of degree < 1.  Returns (a, b, h, s): the last two terms (b is [] when
    the final pseudo-remainder vanished, else one constant), the last
    subresultant factor h, and the sign s the degree parities give the
    resultant."""
    g = h = ring.one
    s = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) & (len(b) - 1) & 1:
            s = -s
        r = ring.prem(a, b)
        div = ring.mul(g, ring.pow(h, delta))
        a, b = b, ring.divide(r, div) if div != ring.one else r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            (h,) = ring.divide([ring.pow(g, delta)], ring.pow(h, delta - 1))
    return a, b, h, s


def gcd_exact(f: ExactPolynomial, g: ExactPolynomial) -> ExactPolynomial:
    """Monic gcd of two polynomials over Q or Q(i), never both zero."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return gcd_many((f, g))


def gcd_many(polys: Sequence[ExactPolynomial]) -> ExactPolynomial:
    """Monic gcd of a nonempty family, by `_gcd_fold` on its numerators."""
    if not polys:
        raise ValueError("gcd of an empty family")
    ring = _ring(*polys)
    acc = _gcd_fold(ring, map(ring.numerators, polys))
    if not acc:
        raise ValueError("gcd of the zero family")
    return ring.polynomial(acc).monic() if len(acc) > 1 else ExactPolynomial.one()


def _gcd_fold(ring, family: Iterable[list]) -> list:
    """Numerators, up to a unit, of the gcd of a lazy family of numerator lists:
    one PRS fold that strips content and stops at the first constant ([] if all zero)."""
    acc = []
    for b in family:
        if len(acc) > 1 and len(b) > 1:
            a, b = (acc, b) if len(acc) >= len(b) else (b, acc)
            last, rem, _, _ = _prs(a, b, ring)
            b = [ring.one] if rem else ring.primitive(last)
        if b:
            acc = b
        if len(acc) == 1:
            break
    return acc


def squarefree_decomposition(f: ExactPolynomial) -> list:
    """Yun's algorithm: [(p_i, i), ...] with f = lc * prod p_i**i, p_i monic,
    pairwise coprime and squarefree; factors of multiplicity i are listed in
    increasing i with trivial levels omitted."""
    if f.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if f.degree == 0:
        return []
    w = f.monic()
    return _yun(w, gcd_exact(w, w.derivative()))


def _yun(w: ExactPolynomial, g: ExactPolynomial) -> list:
    """Yun's loop on a monic w of positive degree, given g = gcd(w, w')."""
    if g.degree == 0:
        return [(w, 1)]
    out = []
    c = w.exact_div(g)
    d = w.derivative().exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        p = gcd_exact(c, d)
        if p.degree > 0:
            out.append((p, i))
        c = c.exact_div(p)
        d = d.exact_div(p) - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# real root isolation (Sturm)
#
# Every point the isolation visits is p/q with integers p and q > 0, and
# `_value_at` gives q**d * f(p/q) by Horner on integers (`_sign_at` is its
# sign); no Fraction is built inside a refinement loop.  The Sturm chain of a
# real polynomial is built once and cached on it (`ExactPolynomial.sturm_chain`):
# `sturm_count`, `count_distinct_real_roots`, `has_real_root_between` and the
# isolation all read that one chain.  `real_roots_exact` runs one isolation
# loop over squarefree factors: f alone when its chain ends in a constant,
# else Yun's factors, Yun starting from the chain's last element, gcd(f, f').
# Each factor is isolated as its positive-leading primitive numerators with
# its own chain, which for f alone is the cached one.
#
# Isolation starts from (-2**j, 2**j) with 2**j the least power of 2 above
# the Cauchy bound, taken from one integer quotient, and works through an
# explicit worklist of dyadic cells (a/2**k, b/2**k), each carrying the
# chain's sign variations V and f's sign at both ends: a cell holding one
# root, with neither end a root, is output, and any other nonempty cell is
# halved.  A midpoint that is itself a root is output as [r, r] and stays an
# end of both halves.  V skips zeros, so it is right-continuous and drops by
# one at each root: V(a) - V(b) counts the roots in (a, b], one too many for
# the open cell when f(b) = 0.  Every point is evaluated once, and the chain
# starts with +-f, so the same values give f's sign.  f has no root of
# modulus >= 2**e, for the e of Fujiwara's bound that `_root_bound_exponent`
# reads from bit lengths and confirms with one exact inequality; by Sturm's
# theorem V and f's sign at a point there are those at -inf or +inf, read
# once from the chain's leading coefficients, and no chain element is
# evaluated (other elements may vanish beyond the bound; the count does not
# depend on them).
#
# `RealRoot.refine` brings lo and hi over one denominator and bisects the
# numerators; its intervals are part of the output (violation brackets, sweep
# reports), so it stays plain bisection.  `RealRoot.float_value` only needs the
# correctly rounded float, which is unique, and gets there by quadratic
# interval refinement (Abbott 2006; Kerber and Sagraloff, ISSAC 2011): a
# secant step tested on a grid whose size squares on every hit, so the bits
# gained double per step where bisection gains one.
# ---------------------------------------------------------------------------


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _value_at(cs: Sequence[int], p: int, q: int) -> int:
    """q**d * f(p/q) = sum a_k p**k q**(d-k) for q > 0, by Horner on integers."""
    s = 0
    qq = 1
    for a in reversed(cs):
        s = s * p + a * qq
        qq *= q
    return s


def _sign_at(cs: Sequence[int], p: int, q: int) -> int:
    """Sign of f(p/q) for q > 0, exactly."""
    return _sign(_value_at(cs, p, q))


def _sturm_chain(a: Sequence[int], b: Sequence[int]) -> list:
    """Signed remainder sequence a, b, -rem(a, b), ... of two integer
    polynomials with deg b < deg a, up to and including gcd(a, b): the last
    element is the gcd up to a positive factor, a constant when a and b are
    coprime.  With b = a' this is the Sturm chain of a.

    Each element is the negated remainder of the previous two, rescaled by a
    positive rational; positivity of the rescaling is what preserves the sign
    variation count, so the pseudo-remainder's leading-coefficient power is
    sign-corrected before stripping content.
    """
    chain = [_int_primitive(a)]
    while b:
        b = _int_primitive(b)
        chain.append(b)
        if len(b) == 1:
            break
        a = chain[-2]
        # prem(a, b) = lc(b)**(deg a - deg b + 1) * rem(a, b)
        s = -1 if (len(a) - len(b)) % 2 or b[-1] > 0 else 1
        b = [s * c for c in _int_prem(a, b)]
    return chain


def _variations(values: Iterable[int]) -> int:
    """Sign changes along a sequence of integers, zeros skipped."""
    out = 0
    neg = None
    for v in values:
        if v:
            if neg is not None and (v < 0) != neg:
                out += 1
            neg = v < 0
    return out


def _variations_at_inf(chain: list) -> tuple:
    """(V(-inf), V(+inf)) of a remainder chain, in one pass over its leading
    coefficients: two neighbours differ in sign at -inf exactly when they do
    at +inf with degrees of the same parity."""
    v_minus = v_plus = 0
    for a, b in zip(chain, chain[1:]):
        change = (a[-1] > 0) != (b[-1] > 0)
        v_plus += change
        v_minus += change == (len(a) % 2 == len(b) % 2)
    return v_minus, v_plus


def cauchy_index(f: ExactPolynomial, g: ExactPolynomial) -> tuple:
    """(Ind(g/f), deg gcd(f, g)) for real f != 0 and deg g < deg f.

    Ind(g/f) is the Cauchy index of g/f over the real line: the number of
    real poles where g/f jumps from -inf to +inf minus the number where it
    jumps back.  By Sylvester's theorem it is V(-inf) - V(+inf), the sign
    variations of the signed remainder sequence of f and g at the two ends
    (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, Thm 2.58);
    the last term of that sequence is the gcd.
    """
    if f.is_zero:
        raise ValueError("the Cauchy index needs a nonzero denominator")
    if not (f.is_real and g.is_real):
        raise ValueError("Sturm counting needs real coefficients")
    if g.degree >= f.degree:
        raise ValueError("the Cauchy index needs deg g < deg f")
    return _chain_index(_sturm_chain(f._re, g._re))


def _chain_index(chain: list) -> tuple:
    """(V(-inf) - V(+inf), degree of the last element) of a remainder chain."""
    v_minus, v_plus = _variations_at_inf(chain)
    return v_minus - v_plus, len(chain[-1]) - 1


def sturm_count(f: ExactPolynomial) -> tuple:
    """(number of distinct real roots, deg gcd(f, f')) of a real f != 0,
    read from its cached Sturm chain: the count is the Cauchy index of
    f'/f, which jumps from -inf to +inf at every real root of f whatever
    its multiplicity, and the chain ends in gcd(f, f')."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    return _chain_index(f.sturm_chain)


# the largest float, and the least magnitude that rounds to an infinity
_FLOAT_MAX = float((1 << 1024) - (1 << 971))
_FLOAT_OVERFLOW = (1 << 1024) - (1 << 970)


@dataclass(frozen=True)
class RealRoot:
    """One real root of the primitive squarefree integer factor `_factor`:
    an open isolating interval (lo, hi) whose rational endpoints are not
    roots, or an exact rational root when lo == hi.  `_sign_lo` is the sign
    of the factor at lo (0 for an exact root).

    `real_roots_exact` makes the factor the positive-leading primitive
    numerators of f or of a Yun factor, the same polynomial either way, so a
    root's value does not depend on the leading coefficient of its input.
    `rational_value` reads the root exactly by the rational root theorem.

    `refine` returns a new value whose interval is at most `max_width` wide,
    and raises ValueError unless max_width > 0.  It puts lo and hi over one
    common denominator q and bisects the integer numerators: each step
    doubles them and q and takes their sum as the midpoint, so the
    interval's numerator width stays fixed and the width test is one integer
    comparison.  The signs come from `_sign_at`; a midpoint where the factor
    vanishes becomes an exact root.  The endpoints are built as Fractions
    once, at the end.  Its intervals are the dyadic halvings of the
    isolating one, and callers report them, so `refine` stays bisection;
    `float_value` uses a faster refinement because only its float, not its
    interval, is seen."""

    lo: Fraction
    hi: Fraction
    multiplicity: int
    _factor: tuple
    _sign_lo: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refine(self, max_width: Fraction) -> "RealRoot":
        w = Fraction(max_width)
        if w <= 0:
            raise ValueError("the refinement width must be positive")
        if self.is_exact:
            return self
        lo, hi = self.lo, self.hi
        q = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
        a = lo.numerator * (q // lo.denominator)
        b = hi.numerator * (q // hi.denominator)
        # (b - a) / q > w, cross-multiplied; b - a never changes
        width, bound = (b - a) * w.denominator, w.numerator * q
        cs, s_lo = self._factor, self._sign_lo
        while width > bound:
            m = a + b
            a, b, q, bound = a << 1, b << 1, q << 1, bound << 1
            s = _sign_at(cs, m, q)
            if s == 0:
                root = Fraction(m, q)
                return RealRoot(root, root, self.multiplicity, cs, 0)
            if s == s_lo:
                a = m
            else:
                b = m
        return RealRoot(Fraction(a, q), Fraction(b, q), self.multiplicity, cs, s_lo)

    def float_value(self) -> float:
        """The root rounded to the nearest float, at any magnitude.

        The interval is refined on integer numerators until an evaluated
        point is the root or both ends round to one float.  Each step is one
        of quadratic interval refinement: the secant through the factor's
        values at the ends predicts a cell of a grid of n cells over the
        interval, and one or two exact evaluations test it.  On a hit the
        cell is the new interval and n is squared; on a miss n drops to its
        square root (at least 2) and the interval is halved at its grid
        midpoint.  With n = 2 the predicted cell is always tested against an
        end, so the step is a bisection and always hits.  Once the ends round
        to two adjacent floats, the factor's sign at the tie between the two
        decides the side; a root at the tie rounds to even.  A root at or
        beyond +-(2**1024 - 2**970) would round to an infinity and raises
        ValueError; the interval is first cut there, and an end at a cut reads
        as the largest float, the rounding of every point inside it."""
        q = math.lcm(self.lo.denominator, self.hi.denominator)
        a, b = (e.numerator * (q // e.denominator) for e in (self.lo, self.hi))
        cs, s_lo = self._factor, self._sign_lo
        top = q * _FLOAT_OVERFLOW
        for edge in (-top, top):
            if a < edge < b:
                s = _sign_at(cs, edge, q)
                if s == 0:
                    a = b = edge
                else:
                    a, b = (edge, b) if s == s_lo else (a, edge)
        if a >= top or b <= -top:
            raise ValueError("the real root lies beyond the float range")
        d = len(cs) - 1
        fa = fb = None
        n = 4
        while (x := -_FLOAT_MAX if a == -top else a / q) != (y := _FLOAT_MAX if b == top else b / q):
            if math.nextafter(x, y) == y:
                tie = (Fraction(x) + Fraction(y)) / 2
                s = _sign_at(cs, tie.numerator, tie.denominator)
                if s == 0:
                    return float(tie)
                return y if s == s_lo else x
            if fa is None:
                fa, fb = _value_at(cs, a, q), _value_at(cs, b, q)
            # the secant meets zero at a + t*(b - a), t = fa / (fa - fb); m is
            # the inner point of the n-cell grid nearest to it
            u, v = abs(fa), abs(fb)
            i = min(max((2 * n * u + u + v) // (2 * (u + v)), 1), n - 1)
            w, scale = b - a, n**d
            a, b, q, top, fa, fb = a * n, b * n, q * n, top * n, fa * scale, fb * scale
            m = a + i * w
            fm = _value_at(cs, m, q)
            if fm == 0:
                return m / q
            # the cell next to m on the root's side is a hit when the sign
            # changes across it; else the root lies beyond it
            right = _sign(fm) == s_lo
            c = m + w if right else m - w
            fc = fb if c == b else fa if c == a else _value_at(cs, c, q)
            if fc == 0:
                return c / q
            if (_sign(fc) == s_lo) != right:
                a, b, fa, fb = (m, c, fm, fc) if right else (c, m, fc, fm)
                n *= n
                continue
            # a miss: halve the interval at its grid midpoint
            mid = a + n // 2 * w
            fmid = fm if mid == m else fc if mid == c else _value_at(cs, mid, q)
            if fmid == 0:
                return mid / q
            if _sign(fmid) == s_lo:
                a, fa = mid, fmid
            else:
                b, fb = mid, fmid
            n = max(math.isqrt(n), 2)
        return x

    __float__ = float_value

    def rational_value(self) -> Optional[Fraction]:
        """The root as an exact rational, or None when it is irrational.

        By the rational root theorem a rational root p/q of the primitive
        integer factor has q dividing its leading coefficient lc, so it is
        n/lc for an integer n.  Once the interval is at most 1/lc wide, the
        least point n/lc above lo is the only such point it can hold, and
        one sign test there decides."""
        lc = abs(self._factor[-1])
        r = self.refine(Fraction(1, lc))
        if r.is_exact:
            return r.lo
        n = math.floor(r.lo * lc) + 1
        if Fraction(n, lc) < r.hi and _sign_at(self._factor, n, lc) == 0:
            return Fraction(n, lc)
        return None

    def sign_of(self, q: "ExactPolynomial") -> int:
        """Sign of the real polynomial q at the root: 0 when gcd(q, factor)
        has a root in the interval, else q's sign at an end once halving has
        cleared q's roots from the interval."""
        r = self
        if not r.is_exact and has_real_root_between(gcd_exact(q, _poly(r._factor)), r.lo, r.hi):
            return 0
        while not r.is_exact and has_real_root_between(q, r.lo, r.hi):
            r = r.refine((r.hi - r.lo) / 2)
        return sign_at(q, r.hi.numerator, r.hi.denominator)


def _root_bound_exponent(cs: Sequence[int]) -> int:
    """An e with |a_d| 2**(e d) > sum_{k<d} |a_k| 2**(e k), so that f has no
    root of modulus >= 2**e, for integer coefficients cs of degree >= 1
    with a nonzero lower one.  Read from bit lengths: 2**e0 exceeds
    M = max_k |a_k / a_d|**(1/(d-k)); e0 is kept when the inequality
    confirms it, else e0 + 1, where 2**(e0+1) > 2M, Fujiwara's bound
    (Tohoku Math. J. 10, 1916), for which the sum is below |a_d| 2**(e d)
    times sum_j 2**-j < 1."""
    d, lead = len(cs) - 1, abs(cs[-1])
    n = lead.bit_length()
    # ceil((bits(a_k) - bits(a_d) + 1) / (d - k)), as |a_d| >= 2**(bits - 1)
    e = max(-((n - 1 - abs(a).bit_length()) // (d - k)) for k, a in enumerate(cs[:-1]) if a)
    # both sides times 2**(-lo), which makes every shift a nonnegative one
    lo = min(e, 0) * d
    if lead << (e * d - lo) > sum(abs(a) << (e * k - lo) for k, a in enumerate(cs[:-1])):
        return e
    return e + 1


def _isolate_squarefree(cs: Sequence[int], chain: Optional[list]) -> list:
    """Isolating intervals/exact points for a squarefree integer polynomial
    with Sturm chain `chain` (unused, and may be None, below degree 2), as
    sorted (lo, hi, sign of f at lo) triples of Fractions: open dyadic
    cells whose ends are not roots, and the midpoints that are roots."""
    d = len(cs) - 1
    if d < 1:
        return []
    if d == 1:
        r = Fraction(-cs[0], cs[1])
        return [(r, r, 0)]
    # the least 2**j >= top / lead = 1 + max|a_k| / |a_d|, the Cauchy bound
    lead = abs(cs[-1])
    top = lead + max(abs(c) for c in cs[:-1])
    b = 1 << (-(-top // lead) - 1).bit_length()
    # no root lies at or beyond 2**e, so there V and f's sign are those at -+inf
    e = _root_bound_exponent(cs)
    s_inf = _sign(cs[-1])
    v_minus, v_plus = _variations_at_inf(chain)
    at_inf = ((v_minus, -s_inf if d % 2 else s_inf), (v_plus, s_inf))
    flip = s_inf * _sign(chain[0][-1])  # the chain starts with flip * f

    def var(p: int, k: int) -> tuple:
        # (sign variations of the chain, f's sign) at p / 2**k
        z = min((p & -p).bit_length() - 1, k) if p else k
        p, k = p >> z, k - z
        if p and p.bit_length() > k + e:  # |p| / 2**k >= 2**e
            return at_inf[p > 0]
        values = [_value_at(c, p, 1 << k) for c in chain]
        return _variations(values), _sign(values[0]) * flip

    out = []
    work = [(-b, b, 0, *var(-b, 0), *var(b, 0))]
    while work:
        lo, hi, k, v_lo, s_lo, v_hi, s_hi = work.pop()
        count = v_lo - v_hi - (s_hi == 0)  # roots in (lo/2**k, hi/2**k)
        if count == 0:
            continue
        if count == 1 and s_lo and s_hi:
            q = 1 << k
            out.append((Fraction(lo, q), Fraction(hi, q), s_lo))
            continue
        mid, k = lo + hi, k + 1
        v, s = var(mid, k)
        if s == 0:
            r = Fraction(mid, 1 << k)
            out.append((r, r, 0))
        work.append((lo << 1, mid, k, v_lo, s_lo, v, s))
        work.append((mid, hi << 1, k, v, s, v_hi, s_hi))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _disjoint(a: RealRoot, b: RealRoot) -> bool:
    return a.hi <= b.lo or b.hi <= a.lo


def real_roots_exact(f: ExactPolynomial) -> list:
    """All real roots of a nonzero rational polynomial, sorted ascending,
    as RealRoot values carrying multiplicities; intervals are pairwise
    disjoint so the ordering is the ordering of the roots themselves.  One
    loop isolates each squarefree factor: f itself when it is squarefree,
    else its Yun factors."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if not f.is_real:
        raise ValueError("real root isolation needs real coefficients")
    if f.degree == 0:
        return []
    chain = f.sturm_chain
    # a chain that ends in a constant proves f squarefree; otherwise Yun's
    # first gcd is the chain's last element, made monic
    factors = [(f, 1)] if len(chain[-1]) == 1 else _yun(f.monic(), _Z.polynomial(chain[-1]).monic())
    roots = []
    for p, mult in factors:
        chain = p.sturm_chain  # chain[0] is p's primitive numerators
        ics = tuple(c if chain[0][-1] > 0 else -c for c in chain[0])
        for lo, hi, s_lo in _isolate_squarefree(ics, chain):
            roots.append(RealRoot(lo, hi, mult, ics, s_lo))
    # roots of coprime factors are distinct, so refining whichever of two
    # overlapping intervals is wider separates them after finitely many passes
    changed = True
    while changed:
        changed = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                a, b = roots[i], roots[j]
                if a._factor is b._factor or _disjoint(a, b):
                    continue
                w_a, w_b = a.hi - a.lo, b.hi - b.lo
                # an exact root cannot shrink; refine the other interval
                if w_b == 0 or (w_a >= w_b and w_a > 0):
                    roots[i] = a.refine(w_a / 4)
                else:
                    roots[j] = b.refine(w_b / 4)
                changed = True
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots


def count_distinct_real_roots(f: ExactPolynomial) -> int:
    """Number of distinct real roots of a real f != 0 (`sturm_count`)."""
    return sturm_count(f)[0]


def sign_at(f: ExactPolynomial, p: int, q: int) -> int:
    """Sign of the real polynomial f at p/q for q > 0, by integer Horner."""
    return _sign_at(f._re, p, q)


def has_real_root_between(f: ExactPolynomial, lo, hi) -> bool:
    """Whether the real polynomial f != 0 vanishes somewhere in the closed
    interval [lo, hi] (rational ends): at an end, or, by Sturm's theorem,
    where the sign variations of the chain of f and f' drop between them."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if not f.is_real:
        raise ValueError("Sturm counting needs real coefficients")
    cs = f._re
    if len(cs) < 2:
        return False
    ends = [(x.numerator, x.denominator) for x in (Fraction(lo), Fraction(hi))]
    if any(_sign_at(cs, p, q) == 0 for p, q in ends):
        return True
    v_lo, v_hi = (_variations(_value_at(c, p, q) for c in f.sturm_chain) for p, q in ends)
    return v_lo > v_hi


def cauchy_root_bound(polys: Sequence[ExactPolynomial]) -> Fraction:
    """Exact rational B with every complex root of every input inside |z| < B."""
    if not polys:
        raise ValueError("no polynomials given")
    best = Fraction(1)
    for f in polys:
        if f.is_zero:
            raise ValueError("the zero polynomial has unbounded roots")
        if f.degree == 0:
            continue
        # the common denominator cancels from the ratio
        im = f._im_parts
        lead_low = max(abs(f._re[-1]), abs(im[-1]))  # <= |lead|
        m = max(abs(a) + abs(b) for a, b in zip(f._re[:-1], im[:-1]))
        best = max(best, 1 + Fraction(m, lead_low))
    return best


# ---------------------------------------------------------------------------
# numeric roots (companion eigenvalues) and clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootCluster:
    """A group of numerically coincident roots: center, radius, multiplicity."""

    center: complex
    radius: float
    multiplicity: int


def _eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the rows' companion matrices, (B, d): one `eigvals`
    call on the stack of real rows, which uses the real eigensolver, and one
    on the stack of the others.  Each row's solver depends on that row
    alone, so its roots do not depend on the batch it came in.  These are
    backward-stable root approximations (Edelman and Murakami, Math. Comp.
    64, 1995).  Raises `np.linalg.LinAlgError` when a matrix holds a
    non-finite entry or the eigensolver does not converge."""
    batch, dp1 = coeffs.shape
    d = dp1 - 1
    real = ~np.logical_or.reduce(coeffs.imag != 0, axis=1)
    out = np.empty((batch, d), dtype=complex)
    for rows, part in ((real, coeffs.real), (~real, coeffs)):
        if rows.any():
            comp = np.zeros((np.count_nonzero(rows), d, d), dtype=part.dtype)
            comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            comp[:, :, -1] = -part[rows, :-1]
            out[rows] = np.linalg.eigvals(comp)
    return out


# rows per array pass: bounds the (B, d, d) temporaries of the companion
# matrices and of linking
_CHUNK = 4096


def _link_rows(re, im, radii, tol: np.ndarray, valid: np.ndarray) -> tuple:
    """Single-linkage groups of the discs in each row of (B, k) arrays:
    valid discs i and j link when |c_i - c_j| <= tol + 5 (r_i + r_j).  A
    group starts at the least ungrouped index, then takes one at a time the
    least index linked to a member: the order in which a scan merging one
    disc at a time into the first cluster it links would add them, so sums
    in it round as the scan's do.  Returns (order, start): each row's indices
    in that order, and the mask of group starts."""
    batch, k = re.shape
    diag = np.arange(k)
    order, start = np.repeat(diag[None, :], batch, axis=0), np.ones((batch, k), dtype=bool)
    near = np.hypot(re[:, :, None] - re[:, None, :], im[:, :, None] - im[:, None, :])
    near = near <= tol[:, None, None] + 5.0 * (radii[:, :, None] + radii[:, None, :])
    near &= valid[:, :, None] & valid[:, None, :]
    near[:, diag, diag] = False
    if not np.count_nonzero(near):
        return order, start
    hit = np.flatnonzero(np.logical_or.reduce(near.reshape(batch, -1), axis=1))
    links, at = near[hit], np.arange(len(hit))
    grouped, reach = np.zeros((2, len(hit), k), dtype=bool)
    for pos in range(k):
        fresh = ~np.logical_or.reduce(reach, axis=1)
        j = np.where(fresh[:, None], ~grouped, reach).argmax(axis=1)
        order[hit, pos], start[hit, pos] = j, fresh
        grouped[at, j] = True
        reach = (reach | links[at, j]) & ~grouped
    return order, start


def _merge_rows(re, im, radii, weight, order: np.ndarray, start: np.ndarray) -> tuple:
    """Merge each row's discs (B, k) in the groups `_link_rows` gave as
    (order, start); weight 0 marks an empty slot.  Returns (re, im, radius,
    weight) of the groups in the order of their first members, then empty
    slots: the center sum(w c) / sum(w), summed in the visit order, and the
    radius max |c - center| + r, each float step the one CPython takes for a
    complex c and an int w (for w = 1 the products are exact)."""
    at = np.arange(len(re))[:, None]
    re, im, radii, weight = re[at, order], im[at, order], radii[at, order], weight[at, order]
    # c * w multiplies by the complex (w, 0); sum() starts from the int 0
    steps = (re * weight - im * 0.0, re * 0.0 + im * weight, weight)
    runs = (0.0 + steps[0], 0.0 + steps[1], weight.copy())
    for pos in range(1, re.shape[1]):  # running sums, restarted at each group
        go = ~start[:, pos]
        for run, step in zip(runs, steps):
            run[go, pos] = run[go, pos - 1] + step[go, pos]
    # a group's sums stand at its last member; move them to the group's slot
    group = np.cumsum(start, axis=1) - 1
    rows, pos = np.nonzero(np.roll(start, -1, axis=1))  # start[:, 0] is set
    sum_re, sum_im, total = (np.zeros_like(run) for run in runs)
    for moved, run in zip((sum_re, sum_im, total), runs):
        moved[rows, group[rows, pos]] = run[rows, pos]
    # s / n divides by the complex (n, 0)
    c_re, c_im = np.stack((sum_re + sum_im * 0.0, sum_im - sum_re * 0.0)) / np.maximum(total, 1)
    radius = np.zeros(re.shape)
    np.maximum.at(radius, (at, group), np.hypot(re - c_re[at, group], im - c_im[at, group]) + radii)
    return c_re, c_im, radius, total


def _cluster_rows(re: np.ndarray, im: np.ndarray, tol: np.ndarray) -> tuple:
    """Single-linkage clusters of each row's roots at radius tol (B,): the
    roots sorted by (real, imag) and merged with radius 0 and weight 1, each
    cluster's radius at least tol / 10.  Returns (re, im, radius,
    multiplicity), (B, k) each, sorted by center, then empty slots."""
    at = np.arange(len(re))[:, None]
    by_root = np.lexsort((im, re), axis=1)
    re, im, radii, ones = re[at, by_root], im[at, by_root], np.zeros(re.shape), np.ones(re.shape, dtype=int)
    order, start = _link_rows(re, im, radii, tol, ones > 0)
    floor = tol[:, None] / 10
    if np.logical_and.reduce(start, axis=None):
        # no link: every root a cluster of one, centered at 0 + root
        return 0.0 + re, 0.0 + im, floor + radii, ones
    cre, cim, rad, mult = _merge_rows(re, im, radii, ones, order, start)
    by_center = np.lexsort((cim, cre, mult == 0), axis=1)
    return cre[at, by_center], cim[at, by_center], np.maximum(rad, floor)[at, by_center], mult[at, by_center]


def _backward_error_ratios(coef: np.ndarray, cre, cim, rad, mult) -> np.ndarray:
    """Per row of (B, k) clusters of the polynomials with coefficients coef
    (B, d+1), the worst ratio of a center's relative backward error to its
    allowance: 0 when every center passes, inf when one is degenerate."""
    az = np.fmax(1.0, np.hypot(cre, cim))
    # (|c_j|, re c_j, im c_j) from the leading coefficient down, spread to (B, k)
    table = np.stack((np.hypot(coef.real, coef.imag), coef.real, coef.imag)).transpose(2, 0, 1)[::-1]
    scale, v_re, v_im = np.zeros((3, *cre.shape))
    # f(z) by Horner, exactly as ExactPolynomial.__call__ evaluates it
    for mag, c_re, c_im in np.repeat(table[..., None], cre.shape[1], axis=3):
        scale = scale * az + mag
        v_re, v_im = v_re * cre - v_im * cim + c_re, v_re * cim + v_im * cre + c_im
    err = np.hypot(v_re, v_im) / scale
    # an m-fold cluster center is accurate to about the cluster radius, so
    # its residual scales like radius**m (CPython's float power)
    power = 4.0 * np.maximum(rad, 1e-15)
    if np.count_nonzero(mult > 1):
        power[mult > 1] = [b**m for b, m in zip(power[mult > 1].tolist(), mult[mult > 1].tolist())]
    allowed = np.fmax(1e-9, power)
    failed = (mult > 0) & ~(err <= allowed)
    worst = np.fmax.reduce(np.divide(err, allowed, out=np.zeros(err.shape), where=failed), axis=1)
    # a NaN residual (a non-finite center) is degenerate, not small
    worst[np.logical_or.reduce(failed & np.isnan(err), axis=1)] = math.inf
    return worst


def _root_cluster_arrays(polys: Sequence[ExactPolynomial]) -> tuple:
    """Root clusters as padded arrays (re, im, radius, multiplicity), each
    (P, D) for P polynomials of degree at most D: row p holds the clusters
    of polys[p] sorted by center (real part, then imaginary), then empty
    slots of multiplicity 0 and center 0.  Each degree group of up to _CHUNK
    rows takes one pass: the companion eigenvalues (`_eigenvalues`),
    clustered by `_cluster_rows` and validated row by row by
    `_backward_error_ratios`.  A row that fails the check, or a group the
    eigensolver fails on, raises `NonConvergenceError` with the
    polynomial's coefficient JSON (and the row's backward-error ratio); a
    coefficient beyond the float range raises ValueError.

    The 1e-6 linking radius merges only double roots: a root of
    multiplicity k >= 3 blurs to about eps**(1/k), past the radius, and
    comes out as k simple clusters.  For (z - r)**k (z - 2)(z + 1) with r in
    {1/3, 5/4, -7/2, 1/2 + 3i/2} a row holds one 2-fold cluster at k = 2 and
    only simple clusters for k = 3..6; `harness.numeric_common_multiplicities`
    merges again at a wider radius and reads k for each of them."""
    by_degree: dict = {}
    for idx, f in enumerate(polys):
        if f.is_zero:
            raise ValueError("the zero polynomial has every root")
        if f.degree:
            by_degree.setdefault(f.degree, []).append(idx)
    width = max(by_degree, default=0)
    out = np.zeros((4, len(polys), width))
    for d, indices in by_degree.items():
        for lo in range(0, len(indices), _CHUNK):
            chunk = np.array(indices[lo : lo + _CHUNK])
            try:
                coef = np.array([polys[idx].complex_coefficients for idx in chunk], dtype=complex)
            except OverflowError:
                raise ValueError("a coefficient lies beyond the float range") from None
            mat = coef / coef[:, -1:]
            try:
                roots = _eigenvalues(mat)
            except np.linalg.LinAlgError:
                # name the first row the solver cannot take, else the first
                bad = polys[chunk[np.argmin(np.logical_and.reduce(np.isfinite(mat), axis=1))]]
                raise NonConvergenceError(
                    f"the eigensolver failed on {bad!r}", coefficients=poly_to_json(bad)
                ) from None
            # double roots blur to ~1e-7 in binary64: "coincident" means 1e-6
            tol = 1e-6 * np.maximum(1.0, np.maximum.reduce(np.hypot(roots.real, roots.imag), axis=1))
            clusters = _cluster_rows(roots.real, roots.imag, tol)
            ratios = _backward_error_ratios(coef, *clusters)
            failed = np.flatnonzero(ratios)
            if len(failed):
                bad = polys[chunk[failed[0]]]
                raise NonConvergenceError(
                    f"root finding failed to certify clusters for {bad!r}",
                    coefficients=poly_to_json(bad),
                    backward_error_ratio=float(ratios[failed[0]]),
                )
            out[:, chunk, :d] = np.stack(clusters)
    return (*out[:3], out[3].astype(int))


def complex_roots_numeric(f: ExactPolynomial) -> list:
    """Root clusters of a nonconstant polynomial; multiplicities sum to deg f."""
    return complex_roots_many([f])[0]


def complex_roots_many(polys: Sequence[ExactPolynomial]) -> list:
    """Batch variant of `complex_roots_numeric`, over `_root_cluster_arrays`:
    a double root is one 2-fold cluster, but a root of multiplicity 3 or more
    comes out as simple clusters (see there)."""
    return [
        [RootCluster(complex(x, y), r, m) for x, y, r, m in zip(*row) if m]
        for row in zip(*(a.tolist() for a in _root_cluster_arrays(polys)))
    ]


# ---------------------------------------------------------------------------
# resultants (exact)
# ---------------------------------------------------------------------------


def resultant_exact(f: ExactPolynomial, g: ExactPolynomial) -> Scalar:
    """Resultant of f and g over Q or Q(i), as an exact scalar (a Fraction
    when real), from the subresultant PRS of the numerators:
    res(Nf/df, Ng/dg) = res(Nf, Ng) / (df**deg g * dg**deg f)."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    m, n = f.degree, g.degree
    ring = _ring(f, g)
    a, b = ring.numerators(f), ring.numerators(g)
    den = f._den**n * g._den**m
    if m == 0:
        return ring.scalar(ring.pow(a[0], n), den)
    if n == 0:
        return ring.scalar(ring.pow(b[0], m), den)
    sign = 1
    if m < n:
        a, b = b, a
        if m & n & 1:
            sign = -1
    a, b, h, s = _prs(a, b, ring)
    if not b:
        return Fraction(0)
    d = len(a) - 1
    (res,) = ring.divide([ring.pow(b[0], d)], ring.pow(h, d - 1))
    # the sign rides on the denominator; the scalar constructors normalize it
    return ring.scalar(res, sign * s * den)


def interpolate_equispaced(values: Sequence) -> ExactPolynomial:
    """The polynomial of degree <= N through (i/N, values[i]), i = 0..N.

    Newton's forward-difference form in s = N*t: with the values over one
    denominator D the differences are integers, and
    N! * p = sum_k (N!/k!) * Delta^k y_0 * s(s-1)...(s-k+1)
    expands to integer coefficients in s; the coefficient of t^j then picks
    up N^j.  No polynomial products and no Fractions.
    """
    n = len(values) - 1
    if n < 0:
        raise ValueError("interpolation needs at least one value")
    parts = [_scalar_parts(v) for v in values]
    den = math.lcm(*[d for _, _, d in parts])

    def expand(ys: list) -> list:
        out = [0] * (n + 1)
        falling = [1]  # s(s-1)...(s-k+1), ascending
        scale = math.factorial(n)  # N!/k!
        for k in range(n + 1):
            if k:
                scale //= k
                falling = [a - (k - 1) * b for a, b in zip([0] + falling, falling + [0])]
                ys = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
            c = ys[0] * scale
            if c:
                for j, f in enumerate(falling):
                    out[j] += c * f
        return [c * n**j for j, c in enumerate(out)]

    re = expand([a * (den // d) for a, _, d in parts])
    im = expand([b * (den // d) for _, b, d in parts]) if any(b for _, b, _ in parts) else None
    return _poly(re, im, den * math.factorial(n))


# ---------------------------------------------------------------------------
# JSON forms: rationals are "p/q" strings, Q(i) scalars are {"re","im"} maps
# ---------------------------------------------------------------------------


def scalar_to_json(x: Scalar):
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        return {"re": str(x.re), "im": str(x.im)}
    return str(x)


def scalar_from_json(v) -> Scalar:
    return _scalar(*_json_parts(v))


def poly_to_json(f: ExactPolynomial) -> list:
    return [scalar_to_json(c) for c in f.coefficients]


# "p" or "p/q" in ASCII decimal digits: the forms `poly_to_json` writes
_DECIMAL_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def _json_parts(v) -> tuple:
    """(re, im, den) of one JSON coefficient, with x = (re + im*i)/den: an
    int, a rational string in `Fraction`'s syntax, or a {"re", "im"} map of
    real parts.  Decimal "p"/"p/q" strings with q != 0 are read straight to
    integers; a zero denominator raises ValueError."""
    if type(v) is str:
        m = _DECIMAL_RATIO.fullmatch(v)
        q = int(m[2] or 1) if m else 0
        if q:
            return int(m[1]), 0, q
        try:
            x = Fraction(v)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {exc}") from exc
        return x.numerator, 0, x.denominator
    if isinstance(v, bool):
        raise ValueError("booleans are not coefficients")
    if isinstance(v, int):
        return int(v), 0, 1
    if isinstance(v, float):
        raise ValueError(
            "float coefficients are not accepted; send exact 'p/q' strings"
        )
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        (a, ai, da), (b, bi, db) = (_json_parts(v.get(k, "0")) for k in ("re", "im"))
        if ai or bi:
            raise ValueError("nested complex parts")
        den = math.lcm(da, db)
        return a * (den // da), b * (den // db), den
    raise ValueError(f"cannot parse coefficient {v!r}")


def poly_from_json(arr) -> ExactPolynomial:
    if not isinstance(arr, (list, tuple)):
        raise ValueError("polynomial JSON must be an array of coefficients")
    return ExactPolynomial._raw(*_from_parts([_json_parts(v) for v in arr]))
