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
and JSON boundary and is built on demand.  Division first multiplies the
divisor by the conjugate of its leading numerator, which makes that
coefficient a positive integer, and then pseudo-divides over Z or Z[i].

Gcds and resultants come from one subresultant polynomial remainder sequence
(Collins 1967; Brown and Traub 1971), run on the numerators over Z or over
Z[i]: the reduction factors g*h**delta keep every division exact and the
intermediate coefficient growth polynomial in the input size, unlike the
naive Euclidean remainder sequence whose numerators explode.  The gcd is the
last nonzero remainder made monic; the resultant is read off the last
constant term (Cohen, A Course in Computational Algebraic Number Theory,
Algorithm 3.3.7).

Real roots are isolated by Sturm's theorem: the signed remainder chain is
built once per squarefree factor over Z with positive content stripped at
each step, and sign variations are counted at p/q from the integer
q**d * f(p/q).  Bisection runs on integer numerators only, over an explicit
worklist of dyadic intervals, and produces refinable isolating intervals
whose endpoints are dyadic rationals.  An exact rational hit during
bisection is returned as a degenerate interval [r, r].

Complex roots are approximated by the Aberth-Ehrlich simultaneous iteration
(vectorised, with a batch entry point so many same-degree polynomials share
one iteration loop), then grouped into clusters whose multiplicity is the
cluster size.  Cluster centers are validated against a backward-error bound;
failure raises `NonConvergenceError` after deterministic restarts.
"""

from __future__ import annotations

import math
import operator
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
    "poly_from_json",
    "poly_to_json",
    "real_roots_exact",
    "resultant_exact",
    "scalar_from_json",
    "scalar_to_json",
    "squarefree_decomposition",
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
        if not isinstance(k, int) or k < 0:
            raise TypeError("only nonnegative integer powers")
        out = GaussianRational(Fraction(1), Fraction(0))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, GaussianRational):
        dr, di = x.re.denominator, x.im.denominator
        den = math.lcm(dr, di)
        return x.re.numerator * (den // dr), x.im.numerator * (den // di), den
    raise TypeError(
        f"exact coefficient required, got {type(x).__name__}; "
        "wrap floats explicitly via Fraction(x) if that is intended"
    )


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


def _poly(re: Sequence[int], im=None, den: int = 1) -> "ExactPolynomial":
    return ExactPolynomial._raw(*_reduce(re, im, den))


def _pdivmod(ar, ai, br, bi, lead: int) -> tuple:
    """Pseudo-division by a divisor whose leading numerator is the positive
    integer `lead`: (q_re, q_im, r_re, r_im, s) with s*a = q*b + r and
    deg r < deg b.  A step scales the running remainder (and quotient) only by
    the part of `lead` its leading coefficient lacks, so s stays small."""
    db = len(br) - 1
    nq = len(ar) - db
    if ai is None and bi is None:
        r, q, s = list(ar), [0] * nq, 1
        for k in range(nq - 1, -1, -1):
            c = r[db + k]
            if not c:
                continue
            m = lead // math.gcd(lead, c)
            if m > 1:
                s *= m
                r, q, c = [m * x for x in r], [m * x for x in q], c * m
            c //= lead
            q[k] = c
            for i, x in enumerate(br, k):
                r[i] -= c * x
        return q, None, r[:db], None, s
    rr = list(ar)
    ri = list(ai) if ai is not None else [0] * len(ar)
    bi = bi if bi is not None else (0,) * len(br)
    qr, qi, s = [0] * nq, [0] * nq, 1
    for k in range(nq - 1, -1, -1):
        cr, ci = rr[db + k], ri[db + k]
        if not (cr or ci):
            continue
        m = lead // math.gcd(lead, cr, ci)
        if m > 1:
            s *= m
            rr, ri = [m * x for x in rr], [m * x for x in ri]
            qr, qi = [m * x for x in qr], [m * x for x in qi]
            cr, ci = cr * m, ci * m
        cr, ci = cr // lead, ci // lead
        qr[k], qi[k] = cr, ci
        for i, x, y in zip(range(k, k + db + 1), br, bi):
            rr[i] -= cr * x - ci * y
            ri[i] -= cr * y + ci * x
    return qr, qi, rr[:db], ri[:db], s


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
        parts = [_scalar_parts(c) for c in coefficients]
        den = math.lcm(*[d for _, _, d in parts])
        re = [a * (den // d) for a, _, d in parts]
        im = [b * (den // d) for _, b, d in parts] if any(b for _, b, _ in parts) else None
        self._re, self._im, self._den = _reduce(re, im, den)

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
    def from_roots(roots: Iterable, lead=1) -> "ExactPolynomial":
        # each root (p + q*i)/d contributes the integer factor d*z - p - q*i
        re, im, den = [1], None, 1
        for r in roots:
            p, q, d = _scalar_parts(r)
            den *= d
            if im is None and not q:
                re = [d * a - p * b for a, b in zip([0] + re, re + [0])]
                continue
            if im is None:
                im = [0] * len(re)
            re, im = (
                [d * a - p * b + q * c for a, b, c in zip([0] + re, re + [0], im + [0])],
                [d * a - p * b - q * c for a, b, c in zip([0] + im, im + [0], re + [0])],
            )
        lp, lq, ld = _scalar_parts(lead)
        re, im = _cmul(re, im, (lp,), (lq,) if lq else None)
        return _poly(re, im, den * ld)

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
    def _add(self, other, sign: int) -> "ExactPolynomial":
        other = _as_poly(other)
        den = math.lcm(self._den, other._den)
        sf, sg = den // self._den, sign * (den // other._den)
        re = _lin(sf, self._re, sg, other._re)
        im = None
        if self._im is not None or other._im is not None:
            im = _lin(sf, self._im_parts, sg, other._im_parts)
        return _poly(re, im, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

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
        if not isinstance(k, int) or k < 0:
            raise TypeError("only nonnegative integer powers")
        out = ExactPolynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return ExactPolynomial.zero(), self
        # multiplying the divisor by u = conj(lc), or by the sign of a real
        # lc, makes its leading numerator a positive integer
        lr = other._re[-1]
        li = other._im[-1] if other._im else 0
        ur, ui = (lr, -li) if li else (1 if lr > 0 else -1, 0)
        br, bi = _cmul(other._re, other._im, (ur,), (ui,) if ui else None)
        qr, qi, rr, ri, s = _pdivmod(self._re, self._im, br, bi, br[-1])
        # s*N = Q*(u*M) + R for self = N/n and other = M/m, hence
        # self = (Q*u*m/(s*n)) * other + R/(s*n)
        m, sn = other._den, s * self._den
        qr, qi = _cmul(qr, qi, (ur * m,), (ui * m,) if ui else None)
        return _poly(qr, qi, sn), _poly(rr, ri, sn)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "ExactPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division was expected to be exact")
        return q

    def derivative(self, order: int = 1) -> "ExactPolynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self

        def diff(cs):
            return [math.perm(k, order) * c for k, c in enumerate(cs) if k >= order]

        return _poly(diff(self._re), self._im and diff(self._im), self._den)

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


def _int_primitive(cs: Sequence[int]) -> list:
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


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


def _g_is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def _g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _round_div(x: int, n: int) -> int:
    # nearest integer to x/n for n > 0 (ties toward +inf); |x - q*n| <= n/2
    return (2 * x + n) // (2 * n)


def _g_mod(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    x = a[0] * b[0] + a[1] * b[1]
    y = a[1] * b[0] - a[0] * b[1]
    qx, qy = _round_div(x, n), _round_div(y, n)
    return (a[0] - qx * b[0] + qy * b[1], a[1] - qx * b[1] - qy * b[0])


def _g_gcd(a, b):
    while not _g_is_zero(b):
        a, b = b, _g_mod(a, b)
    return a


def _g_divexact(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    x = a[0] * b[0] + a[1] * b[1]
    y = a[1] * b[0] - a[0] * b[1]
    if x % n or y % n:
        raise ArithmeticError("inexact division in Z[i]")
    return (x // n, y // n)


def _g_pow(a, k: int):
    out = (1, 0)
    while k:
        if k & 1:
            out = _g_mul(out, a)
        a = _g_mul(a, a)
        k >>= 1
    return out


def _g_primitive(cs: list) -> list:
    g = (0, 0)
    for c in cs:
        if not _g_is_zero(c):
            g = _g_gcd(g, c) if not _g_is_zero(g) else c
            if g[0] * g[0] + g[1] * g[1] == 1:
                return list(cs)
    return [_g_divexact(c, g) for c in cs]


def _g_prem(a: list, b: list) -> list:
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        for i in range(db + k):
            t = _g_mul(lb, r[i])
            if i >= k:
                u = _g_mul(c, b[i - k])
                t = (t[0] - u[0], t[1] - u[1])
            r[i] = t
        del r[db + k :]
    while r and _g_is_zero(r[-1]):
        r.pop()
    return r


class _Z:
    """The integers as the PRS sees them."""

    one = 1
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.floordiv)  # only ever called on exact quotients
    pow = staticmethod(pow)
    prem = staticmethod(_int_prem)
    primitive = staticmethod(_int_primitive)

    @staticmethod
    def numerators(f: ExactPolynomial) -> list:
        return list(f._re)

    @staticmethod
    def polynomial(cs: list) -> ExactPolynomial:
        return _poly(cs)

    @staticmethod
    def scalar(x: int, den: int) -> Scalar:
        return Fraction(x, den)


class _ZI:
    """The Gaussian integers as the PRS sees them: (re, im) int pairs."""

    one = (1, 0)
    mul = staticmethod(_g_mul)
    div = staticmethod(_g_divexact)
    pow = staticmethod(_g_pow)
    prem = staticmethod(_g_prem)
    primitive = staticmethod(_g_primitive)

    @staticmethod
    def numerators(f: ExactPolynomial) -> list:
        return list(zip(f._re, f._im_parts))

    @staticmethod
    def polynomial(cs: list) -> ExactPolynomial:
        return _poly([x for x, _ in cs], [y for _, y in cs])

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
        a, b = b, [ring.div(c, div) for c in r]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = ring.div(ring.pow(g, delta), ring.pow(h, delta - 1))
    return a, b, h, s


def gcd_exact(f: ExactPolynomial, g: ExactPolynomial) -> ExactPolynomial:
    """Monic gcd of two polynomials over Q or Q(i), never both zero."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    if f.degree == 0 or g.degree == 0:
        return ExactPolynomial.one()
    ring = _ring(f, g)
    a, b = ring.primitive(ring.numerators(f)), ring.primitive(ring.numerators(g))
    if len(a) < len(b):
        a, b = b, a
    last, rem, _, _ = _prs(a, b, ring)
    if rem:
        return ExactPolynomial.one()
    return ring.polynomial(last).monic()


def gcd_many(polys: Sequence[ExactPolynomial]) -> ExactPolynomial:
    """Monic gcd of a nonempty family, with an early exit at gcd == 1."""
    if not polys:
        raise ValueError("gcd of an empty family")
    acc = polys[0]
    for p in polys[1:]:
        if acc.degree == 0 and not acc.is_zero:
            return ExactPolynomial.one()
        acc = gcd_exact(acc, p) if not (acc.is_zero and p.is_zero) else acc
    if acc.is_zero:
        raise ValueError("gcd of the zero family")
    return acc.monic() if acc.degree >= 1 else ExactPolynomial.one()


def squarefree_decomposition(f: ExactPolynomial) -> list:
    """Yun's algorithm: [(p_i, i), ...] with f = lc * prod p_i**i, p_i monic,
    pairwise coprime and squarefree; factors of multiplicity i are listed in
    increasing i with trivial levels omitted."""
    if f.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if f.degree == 0:
        return []
    w = f.monic()
    g = gcd_exact(w, w.derivative())
    if g.degree == 0:
        return [(w, 1)]
    out = []
    c = w.exact_div(g)
    d = w.derivative().exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        p = gcd_exact(c, d) if not d.is_zero else c.monic()
        if p.degree > 0:
            out.append((p, i))
        c = c.exact_div(p)
        d = d.exact_div(p) - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# real root isolation (Sturm)
#
# Every point the bisection visits is p/q with integers p and q > 0, and
# `_sign_at` decides the sign of f there from q**d * f(p/q) by Horner on
# integers; no Fraction is built inside a bisection loop.  Isolation starts
# from (-2**e, 2**e) with 2**e above the Cauchy bound, and works through an
# explicit worklist of dyadic intervals (a/2**k, b/2**k, count): an interval
# holding one root is output, one holding more is halved, and a midpoint that
# is itself a root is output as [r, r] with a root-free strip around it cut
# out of the interval.  Sturm variation counts are cached per point, keyed by
# the reduced (numerator, k).  `RealRoot.refine` brings lo and hi over one
# denominator and bisects the numerators.
# ---------------------------------------------------------------------------


def _int_derivative(cs: Sequence[int]) -> list:
    return [k * c for k, c in enumerate(cs)][1:]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_at(cs: Sequence[int], p: int, q: int) -> int:
    """Sign of f(p/q) for q > 0: the sign of sum a_k p**k q**(d-k), exactly."""
    s = 0
    qq = 1
    for a in reversed(cs):
        s = s * p + a * qq
        qq *= q
    return _sign(s)


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


def _variations(signs: Iterable[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def _variations_at_inf(chain: list, positive: bool) -> int:
    if positive:
        return _variations(_sign(cs[-1]) for cs in chain)
    return _variations(
        _sign(cs[-1]) * (-1 if (len(cs) - 1) % 2 else 1) for cs in chain
    )


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
    chain = _sturm_chain(f._re, g._re)
    index = _variations_at_inf(chain, False) - _variations_at_inf(chain, True)
    return index, len(chain[-1]) - 1


@dataclass(frozen=True)
class RealRoot:
    """One real root of the primitive squarefree integer factor `_factor`:
    an open isolating interval (lo, hi) whose rational endpoints are not
    roots, or an exact rational root when lo == hi.  `_sign_lo` is the sign
    of the factor at lo (0 for an exact root).

    `refine` returns a new value whose interval is at most `max_width` wide.
    It puts lo and hi over one common denominator q and bisects the integer
    numerators: each step doubles them and q and takes their sum as the
    midpoint, so the interval's numerator width stays fixed and the width
    test is one integer comparison.  The signs come from `_sign_at`; a
    midpoint where the factor vanishes becomes an exact root.  The endpoints
    are built as Fractions once, at the end."""

    lo: Fraction
    hi: Fraction
    multiplicity: int
    _factor: tuple
    _sign_lo: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint)

    def refine(self, max_width: Fraction) -> "RealRoot":
        if self.is_exact:
            return self
        lo, hi = self.lo, self.hi
        q = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
        a = lo.numerator * (q // lo.denominator)
        b = hi.numerator * (q // hi.denominator)
        w = Fraction(max_width)
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

    def float_value(self, rel: float = 1e-16) -> float:
        """Float approximation refined until the width is negligible."""
        if self.is_exact:
            return float(self.lo)
        scale = max(Fraction(1), abs(self.lo), abs(self.hi))
        r = self.refine(Fraction(rel) * scale)
        return float(r.midpoint)

    def rational_value(self) -> Optional[Fraction]:
        """The root as an exact rational, or None when it is irrational.

        A rational root p/q of the primitive integer factor has q dividing
        the leading coefficient, and two rationals with denominator <= lc
        differ by more than 1/lc^2; so once the interval is below that, the
        simplest rational in it is the only candidate.  When that width lies
        more than 64 bits down, the simplest rational is also tried at widths
        2**-64, 2**-128, ... on the way, so a root whose denominator is far
        smaller than lc is found long before it.
        """
        lc = abs(self._factor[-1])
        r, bits = self, 64
        while True:
            last = bits > 2 * lc.bit_length()
            r = r.refine(Fraction(1, 2 * lc * lc) if last else Fraction(1, 1 << bits))
            if r.is_exact:
                return r.lo
            candidate = _simplest_between(r.lo, r.hi)
            if _sign_at(self._factor, candidate.numerator, candidate.denominator) == 0:
                return candidate
            if last:
                return None
            bits <<= 1


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Minimal-denominator rational in [lo, hi], by the continued fraction
    the two endpoints share: while no integer lies in [lo, hi], the common
    integer part n becomes the next term and the search goes on in
    [1/(hi - n), 1/(lo - n)]; p/q and p0/q0 are the convergents so far, and
    the answer is the Moebius image (p*t + p0) / (q*t + q0) of the last term t.
    """
    if lo > hi:
        raise ValueError("empty interval")
    p, q, p0, q0 = 1, 0, 0, 1
    while lo != hi:
        cl, fl = math.ceil(lo), math.floor(hi)
        if cl <= fl:
            t = 0 if cl <= 0 <= fl else (cl if cl > 0 else fl)
            break
        n = math.floor(lo)
        p, q, p0, q0 = n * p + p0, n * q + q0, p, q
        lo, hi = 1 / (hi - n), 1 / (lo - n)
    else:
        t = lo
    return Fraction(p * t + p0) / (q * t + q0)


def _isolate_squarefree(cs: Sequence[int]) -> list:
    """Isolating intervals/exact points for a squarefree integer polynomial,
    as sorted (lo, hi, sign of f at lo) triples of Fractions."""
    d = len(cs) - 1
    if d < 1:
        return []
    if d == 1:
        r = Fraction(-cs[0], cs[1])
        return [(r, r, 0)]
    chain = _sturm_chain(cs, _int_derivative(cs))
    # 2**e >= 1 + max|a_k| / |a_d|, the Cauchy bound
    lead = abs(cs[-1])
    top = lead + max(abs(c) for c in cs[:-1])
    b = 1
    while b * lead < top:
        b <<= 1
    var_cache = {}

    def var(p: int, k: int) -> int:
        # sign variations of the chain at p / 2**k
        z = min((p & -p).bit_length() - 1, k) if p else k
        key = (p >> z, k - z)
        v = var_cache.get(key)
        if v is None:
            q = 1 << key[1]
            v = var_cache[key] = _variations(_sign_at(c, key[0], q) for c in chain)
        return v

    out = []
    # invariant: f(lo) != 0 != f(hi), count = #roots in (lo/2**k, hi/2**k)
    work = [(-b, b, 0, var(-b, 0) - var(b, 0))]
    while work:
        lo, hi, k, count = work.pop()
        if count == 0:
            continue
        if count == 1:
            q = 1 << k
            out.append((Fraction(lo, q), Fraction(hi, q), _sign_at(cs, lo, q)))
            continue
        mid, lo, hi, k = lo + hi, lo << 1, hi << 1, k + 1
        if _sign_at(cs, mid, 1 << k) == 0:
            # exact rational hit: record it and excise a root-free strip
            # (mid - eps, mid + eps) so interval endpoints are never roots;
            # eps = e / 2**k starts at a quarter of the half-width, so the
            # strip lies inside (lo, hi)
            r = Fraction(mid, 1 << k)
            out.append((r, r, 0))
            e = hi - lo
            mid, lo, hi, k = mid << 3, lo << 3, hi << 3, k + 3
            while True:
                a, b2 = mid - e, mid + e
                q = 1 << k
                if _sign_at(cs, a, q) and _sign_at(cs, b2, q) and var(a, k) - var(b2, k) == 1:
                    break
                # halve eps: same numerator one level deeper
                mid, lo, hi, k = mid << 1, lo << 1, hi << 1, k + 1
            work.append((lo, a, k, var(lo, k) - var(a, k)))
            work.append((b2, hi, k, var(b2, k) - var(hi, k)))
        else:
            v = var(mid, k)
            work.append((lo, mid, k, var(lo, k) - v))
            work.append((mid, hi, k, v - var(hi, k)))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _disjoint(a: RealRoot, b: RealRoot) -> bool:
    return a.hi <= b.lo or b.hi <= a.lo


def real_roots_exact(f: ExactPolynomial) -> list:
    """All real roots of a nonzero rational polynomial, sorted ascending,
    as RealRoot values carrying multiplicities; intervals are pairwise
    disjoint so the ordering is the ordering of the roots themselves."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if not f.is_real:
        raise ValueError("real root isolation needs real coefficients")
    if f.degree == 0:
        return []
    roots = []
    for factor, mult in squarefree_decomposition(f):
        ics = tuple(_int_primitive(factor._re))
        for lo, hi, s_lo in _isolate_squarefree(ics):
            roots.append(RealRoot(lo, hi, mult, ics, s_lo))
    # roots of coprime factors are distinct: refine until intervals separate
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 400:
            raise RuntimeError("failed to separate isolating intervals")
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
    """Number of distinct real roots: the Cauchy index of f'/f, which jumps
    from -inf to +inf at every real root of f, whatever its multiplicity."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if not f.is_real:
        raise ValueError("Sturm counting needs real coefficients")
    return cauchy_index(f, f.derivative())[0]


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
# numeric roots (Aberth-Ehrlich) and clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootCluster:
    """A group of numerically coincident roots: center, radius, multiplicity."""

    center: complex
    radius: float
    multiplicity: int


_ABERTH_RESTARTS = (0.41, 1.13, 1.97)


def _aberth_batch(coeffs: np.ndarray, max_iter: int, offset: float) -> np.ndarray:
    """Run Aberth-Ehrlich on a batch of monic polynomials of equal degree.

    coeffs: (B, d+1) complex, ascending, last column all ones. Returns (B, d).
    A root stops moving once its residual is at rounding level, so a row
    whose roots have all stopped is final; such rows leave the working set,
    and the rows still moving give bit-for-bit the same iterates.  The
    (B, d, d) pairwise terms, the one large intermediate, live in buffers
    made once per call rather than in fresh arrays on every iteration.
    """
    batch, dp1 = coeffs.shape
    d = dp1 - 1
    radius = 1.0 + np.abs(coeffs[:, :-1]).max(axis=1)
    angles = 2.0 * np.pi * np.arange(d) / d + offset
    z = radius[:, None] * np.exp(1j * angles)[None, :]
    out = z
    rows = np.arange(batch)
    dcoeffs = coeffs[:, 1:] * np.arange(1, dp1)[None, :]
    abs_coeffs = np.abs(coeffs)
    active = np.ones((batch, d), dtype=bool)
    pair_buf = np.empty((batch, d, d), dtype=complex)
    mag_buf = np.empty((batch, d, d))
    tiny_buf = np.empty((batch, d, d), dtype=bool)
    for _ in range(max_iter):
        p = np.broadcast_to(coeffs[:, -1][:, None], z.shape).copy()
        for k in range(d - 1, -1, -1):
            p = p * z + coeffs[:, k][:, None]
        dp = np.broadcast_to(dcoeffs[:, -1][:, None], z.shape).copy()
        for k in range(d - 2, -1, -1):
            dp = dp * z + dcoeffs[:, k][:, None]
        az = np.maximum(1.0, np.abs(z))
        # backward-error scale: sum |c_k| * max(1,|z|)^k via Horner in |z|
        s = np.broadcast_to(abs_coeffs[:, -1][:, None], z.shape).copy()
        for k in range(d - 1, -1, -1):
            s = s * az + abs_coeffs[:, k][:, None]
        small = np.abs(p) <= 1e-14 * s
        active &= ~small
        if not active.any():
            break
        dp = np.where(np.abs(dp) < 1e-290, 1e-290, dp)
        newton = p / dp
        n = len(z)
        diff, mag, tiny = pair_buf[:n], mag_buf[:n], tiny_buf[:n]
        np.subtract(z[:, :, None], z[:, None, :], out=diff)
        np.einsum("bii->bi", diff)[:] = np.inf
        np.less(np.abs(diff, out=mag), 1e-290, out=tiny)
        np.copyto(diff, 1e-290, where=tiny)
        ssum = np.divide(1.0, diff, out=diff).sum(axis=2)
        denom = 1.0 - newton * ssum
        denom = np.where(np.abs(denom) < 1e-12, 1.0, denom)
        w = np.where(active, newton / denom, 0.0)
        z = z - w
        if np.max(np.abs(w) / (1.0 + np.abs(z))) < 1e-15:
            break
        moving = active.any(axis=1)
        if not moving.all():
            out[rows[~moving]] = z[~moving]
            rows, z, active = rows[moving], z[moving], active[moving]
            coeffs, dcoeffs, abs_coeffs = coeffs[moving], dcoeffs[moving], abs_coeffs[moving]
    out[rows] = z
    return out


def _cluster_roots(roots: Sequence[complex], tol: float) -> list:
    """Single-linkage clusters at radius tol, merged until pairwise disjoint."""
    pts = sorted(roots, key=lambda c: (c.real, c.imag))
    clusters = [[r] for r in pts]

    def center(c):
        return sum(c) / len(c)

    # roots that are pairwise farther apart than tol, the common case, stay
    # singletons: the merge scan below would find nothing to merge
    merged = any(abs(a - b) <= tol for i, a in enumerate(pts) for b in pts[i + 1 :])
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                ci, cj = clusters[i], clusters[j]
                if min(abs(a - b) for a in ci for b in cj) <= tol:
                    clusters[i] = ci + cj
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    out = []
    for c in clusters:
        if len(c) == 1:
            # center(c) and the radius below, for a single root
            z0 = (0 + c[0]) / 1
            rad = abs(c[0] - z0)
        else:
            z0 = center(c)
            rad = max(abs(a - z0) for a in c)
        out.append(RootCluster(z0, max(rad, tol / 10), len(c)))
    out.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return out


def _validate_clusters(f: ExactPolynomial, clusters: list) -> float:
    """Max relative backward error of cluster centers; inf when degenerate."""
    worst = 0.0
    top_down = f.complex_coefficients[::-1]
    mags = [abs(c) for c in top_down]
    for cl in clusters:
        z = cl.center
        az = max(1.0, abs(z))
        s = 0.0
        for m in mags:
            s = s * az + m
        # f(z) by Horner, exactly as ExactPolynomial.__call__ evaluates it
        v = 0j
        for c in top_down:
            v = v * z + c
        err = abs(v) / s
        # an m-fold cluster center is accurate to about the cluster radius,
        # so its residual scales like radius**m
        allowed = max(1e-9, (4.0 * max(cl.radius, 1e-15)) ** cl.multiplicity)
        if err > allowed * 1.0:
            worst = max(worst, err / allowed)
    return worst


def complex_roots_numeric(f: ExactPolynomial, cluster_tol: float = None) -> list:
    """Root clusters of a nonconstant polynomial; multiplicities sum to deg f."""
    return complex_roots_many([f], cluster_tol)[0]


def complex_roots_many(polys: Sequence[ExactPolynomial], cluster_tol: float = None) -> list:
    """Batch variant of `complex_roots_numeric`: one Aberth loop per degree."""
    results: list = [None] * len(polys)
    by_degree: dict = {}
    for idx, f in enumerate(polys):
        if f.is_zero:
            raise ValueError("the zero polynomial has every root")
        if f.degree == 0:
            results[idx] = []
            continue
        by_degree.setdefault(f.degree, []).append(idx)
    for d, indices in by_degree.items():
        for start in range(0, len(indices), 4096):
            chunk = indices[start : start + 4096]
            mat = np.array([polys[idx].complex_coefficients for idx in chunk], dtype=complex)
            mat = mat / mat[:, -1:]
            pending = list(range(len(chunk)))
            for attempt, offset in enumerate(_ABERTH_RESTARTS):
                roots = _aberth_batch(
                    mat[pending], max_iter=120 * (attempt + 1), offset=offset
                )
                still = []
                for row, rts in zip(pending, roots.tolist()):
                    idx = chunk[row]
                    f = polys[idx]
                    scale = max(1.0, max(map(abs, rts)))
                    # double roots blur to ~1e-7 in binary64, so "coincident"
                    # defaults to a 1e-6 resolution
                    tol = cluster_tol if cluster_tol is not None else 1e-6 * scale
                    clusters = _cluster_roots(rts, tol)
                    if _validate_clusters(f, clusters) == 0.0:
                        results[idx] = clusters
                    else:
                        still.append(row)
                pending = still
                if not pending:
                    break
            if pending:
                bad = polys[chunk[pending[0]]]
                raise NonConvergenceError(
                    f"root finding failed to certify clusters for {bad!r}"
                )
    return results


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
    res = ring.div(ring.pow(b[0], d), ring.pow(h, d - 1))
    # the sign rides on the denominator; the scalar constructors normalize it
    return ring.scalar(res, sign * s * den)


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
    if isinstance(v, bool):
        raise ValueError("booleans are not coefficients")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise ValueError(
            "float coefficients are not accepted; send exact 'p/q' strings"
        )
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        re = scalar_from_json(v.get("re", "0"))
        im = scalar_from_json(v.get("im", "0"))
        if isinstance(re, GaussianRational) or isinstance(im, GaussianRational):
            raise ValueError("nested complex parts")
        return GaussianRational(re, im).canonical()
    raise ValueError(f"cannot parse coefficient {v!r}")


def poly_to_json(f: ExactPolynomial) -> list:
    return [scalar_to_json(c) for c in f.coefficients]


def poly_from_json(arr) -> ExactPolynomial:
    if not isinstance(arr, (list, tuple)):
        raise ValueError("polynomial JSON must be an array of coefficients")
    return ExactPolynomial(tuple(scalar_from_json(v) for v in arr))
