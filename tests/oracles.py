"""Independent oracles used to derive frozen expected values in the tests.

Each oracle deliberately avoids the code path it checks: gcds come from
factor multisets instead of remainder sequences, and family gcds from a
pairwise fold of Euclid steps by long division on the exact coefficients
instead of one subresultant fold on integer numerators; windings from
brute-force dense sampling instead of adaptive refinement; the pi_1 class
of a sampled loop from a float argument lift of r_tilde at exact path
parameters instead of an exact count of ray crossings; real-axis degrees
from the Cauchy index at isolated poles instead of a remainder sequence; map,
real-axis and electric degrees of members also from float argument lifts
instead of gcds and remainder sequences; resultants from the root-product
formula or the Sylvester determinant instead of remainder sequences; real
root isolation and refinement by recursive bisection on Fractions instead of
integer numerators, and isolation on integer numerators with the whole chain
evaluated at every point, the ends of the root bound's box included, instead
of the counts at infinity read there; the first violation of a path with
every root of its boundary polynomial refined instead of the roots outside
[0, 1] skipped; interpolation by Lagrange basis products instead of forward
differences; path samples by the exact gcd route at every sample instead of the sign of the
path's boundary polynomial; JSON coefficients by one `Fraction` per value
instead of integer parts; products of linear factors by one pass over the
numerator lists per root instead of Kronecker substitution; single-linkage
groups by union-find instead of the transitive closure of the link mask; the Z[i]
pseudo-remainder and subresultant PRS by one tuple-building Gaussian product
per term and one exact division per coefficient instead of the written-out
kernel that divides once per step; jet components by `Fraction` coefficient
arithmetic instead of the numerator kernels; Q(i) scalars (Sylvester
determinants, Euclid remainders, r_tilde at refined roots, and products that
build test inputs) by pairs of `Fraction`s instead of `ExactPolynomial`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from nonresultant.case31 import phi, phi_inverse, r_tilde
from nonresultant.exactalg import (
    ExactPolynomial,
    GaussianRational,
    NonConvergenceError,
    RealRoot,
    _int_primitive,
    _poly,
    _scalar_parts,
    _sign_at,
    _sturm_chain,
    _value_at,
    _variations,
    real_roots_exact,
    squarefree_decomposition,
)
from nonresultant.harness import path_tuple
from nonresultant.nonres import is_member, jet


def from_roots_list_pass(roots) -> ExactPolynomial:
    """The product of (z - r) over the roots r, multiplying in each integer
    factor d*z - p - q*i of a root (p + q*i)/d by one pass over the
    numerator lists."""
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
    return _poly(re, im, den)


def gcd_from_factor_multisets(factors_f, factors_g) -> ExactPolynomial:
    """Monic gcd of two products of monic linear factors, by multiset
    intersection of the root lists (no polynomial division involved)."""
    remaining = list(factors_g)
    common = []
    for r in factors_f:
        if r in remaining:
            remaining.remove(r)
            common.append(r)
    return ExactPolynomial.from_roots(common)


def _field_remainder(f: ExactPolynomial, g: ExactPolynomial) -> ExactPolynomial:
    """f mod g for g != 0, by long division on the exact coefficients as
    (re, im) pairs of Fractions."""
    r, b = [_pair(c) for c in f.coefficients], [_pair(c) for c in g.coefficients]
    while len(r) >= len(b):
        c = _q_div(r[-1], b[-1])
        for i, x in enumerate(b, len(r) - len(b)):
            r[i] = _q_sub(r[i], _g_mul(c, x))
        while r and r[-1] == (0, 0):
            r.pop()
    return ExactPolynomial([_value(p) for p in r])


def gcd_euclid(f: ExactPolynomial, g: ExactPolynomial) -> ExactPolynomial:
    """Monic gcd of two polynomials, not both zero, by Euclid's algorithm
    over the field: remainders from `_field_remainder`, no pseudo-remainders."""
    while not g.is_zero:
        f, g = g, _field_remainder(f, g)
    return f.monic()


def gcd_pairwise(polys, gcd2=gcd_euclid) -> ExactPolynomial:
    """Monic gcd of a family folded one pair at a time with `gcd2`: zero
    entries are skipped and the fold stops at the first constant gcd."""
    acc = ExactPolynomial.zero()
    for p in polys:
        if acc.degree == 0:
            break
        if not p.is_zero:
            acc = p.monic() if acc.is_zero else gcd2(acc, p)
    if acc.is_zero:
        raise ValueError("gcd of the zero family")
    return acc.monic()


def _g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _g_divexact(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    x = a[0] * b[0] + a[1] * b[1]
    y = a[1] * b[0] - a[0] * b[1]
    if x % n or y % n:
        raise ArithmeticError("inexact division in Z[i]")
    return (x // n, y // n)


def _g_pow(a, k: int):
    out = (1, 0)
    for _ in range(k):
        out = _g_mul(out, a)
    return out


# Q(i) as (re, im) pairs of Fractions, apart from the package's kernel on
# integer numerators; `_g_mul` multiplies these pairs too


def _pair(x) -> tuple:
    """(re, im) Fractions of an int, Fraction or GaussianRational."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _value(p: tuple):
    """The exact value of an (re, im) pair: a Fraction when real."""
    return p[0] if p[1] == 0 else GaussianRational(*p)


def _q_sub(a: tuple, b: tuple) -> tuple:
    return a[0] - b[0], a[1] - b[1]


def _q_div(a: tuple, b: tuple) -> tuple:
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def q_i_product(*factors):
    """The exact product of Q(i) scalars, by pairs: a Fraction when real."""
    out = (Fraction(1), Fraction(0))
    for x in factors:
        out = _g_mul(out, _pair(x))
    return _value(out)


def g_prem_by_products(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over Z[i], on
    (re, im) pairs, with one `_g_mul` call and tuple per product."""
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
    while r and r[-1] == (0, 0):
        r.pop()
    return r


def g_prs_by_products(a: list, b: list) -> tuple:
    """The subresultant PRS over Z[i] from deg a >= deg b >= 1, returning
    (a, b, h, s) like `exactalg._prs`: `g_prem_by_products` for every
    remainder, then one exact Gaussian division per coefficient."""
    g = h = (1, 0)
    s = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) & (len(b) - 1) & 1:
            s = -s
        r = g_prem_by_products(a, b)
        div = _g_mul(g, _g_pow(h, delta))
        a, b = b, [_g_divexact(c, div) for c in r]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _g_divexact(_g_pow(g, delta), _g_pow(h, delta - 1))
    return a, b, h, s


def jet_by_sums(f: ExactPolynomial, n: int) -> tuple:
    """Jet components f, f + f', ..., f + f^(n-1), each derivative taken
    on the Fraction/GaussianRational coefficients."""
    cs = f.coefficients
    out = [f]
    for i in range(1, n):
        out.append(f + ExactPolynomial([q_i_product(math.perm(j, i), c) for j, c in enumerate(cs) if j >= i]))
    return tuple(out)


def resultant_from_roots(f: ExactPolynomial, g: ExactPolynomial) -> complex:
    """res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots alpha of f,
    evaluated with numpy's eigenvalue root finder."""
    fc = np.array([complex(c) for c in reversed(f.complex_coefficients)])
    roots = np.roots(fc)
    out = complex(f.leading_coefficient) ** g.degree
    for a in roots:
        out *= g(complex(a))
    return out


def resultant_sylvester(f: ExactPolynomial, g: ExactPolynomial):
    """res(f, g) as the determinant of the Sylvester matrix, by exact
    Gaussian elimination over Q or Q(i) on the coefficient view as (re, im)
    pairs; a Fraction when real."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    m, n = f.degree, g.degree
    size = m + n
    zero = (Fraction(0), Fraction(0))
    fc = [_pair(c) for c in reversed(f.coefficients)]
    gc = [_pair(c) for c in reversed(g.coefficients)]
    rows = [[zero] * k + fc + [zero] * (n - 1 - k) for k in range(n)]
    rows += [[zero] * k + gc + [zero] * (m - 1 - k) for k in range(m)]
    det = (Fraction(1), Fraction(0))
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if rows[r][col] != zero), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = _q_sub(zero, det)
        pivot = rows[col][col]
        det = _g_mul(det, pivot)
        for r in range(col + 1, size):
            if rows[r][col] != zero:
                factor = _q_div(rows[r][col], pivot)
                rows[r] = [_q_sub(x, _g_mul(factor, y)) for x, y in zip(rows[r], rows[col])]
    return _value(det)


def cluster_roots_scan(roots, tol: float) -> list:
    """(center, radius, multiplicity) of single-linkage clusters at radius
    tol, by rescanning all cluster pairs after every merge, with no shortcut
    for well separated roots."""
    clusters = [[r] for r in sorted(roots, key=lambda c: (c.real, c.imag))]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if min(abs(a - b) for a in clusters[i] for b in clusters[j]) <= tol:
                    clusters[i] = clusters[i] + clusters[j]
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    out = []
    for c in clusters:
        z0 = sum(c) / len(c)
        rad = max((abs(a - z0) for a in c), default=0.0)
        out.append((z0, max(rad, tol / 10), len(c)))
    return sorted(out, key=lambda cl: (cl[0].real, cl[0].imag))


def backward_error_ratio_scalar(f: ExactPolynomial, clusters) -> float:
    """Worst ratio of a cluster center's relative backward error to its
    allowance max(1e-9, (4 max(radius, 1e-15))**m), over (center, radius,
    m) clusters, in CPython complex arithmetic: 0 when every center passes,
    inf when a residual is NaN."""
    worst = 0.0
    top_down = f.complex_coefficients[::-1]
    for z, radius, m in clusters:
        az = max(1.0, abs(z))
        s, v = 0.0, 0j
        for c in top_down:
            s = s * az + abs(c)
            v = v * z + c
        err = abs(v) / s
        allowed = max(1e-9, (4.0 * max(radius, 1e-15)) ** m)
        if not err <= allowed:
            worst = math.inf if math.isnan(err) else max(worst, err / allowed)
    return worst


def union_find_groups(centers, radii, tol: float) -> list:
    """Single-linkage groups of discs (i and j link when |c_i - c_j| <= tol +
    5 (r_i + r_j)) by union-find, each listed in ascending index order, the
    groups ordered by their least index."""
    k = len(centers)
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for j in range(i + 1, k):
            if abs(centers[i] - centers[j]) <= tol + 5.0 * (radii[i] + radii[j]):
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def merge_clusters_union_find(clusters, tol: float) -> list:
    """(center, radius, multiplicity) of the single-linkage merge of root
    clusters, summing each union-find group in ascending index order."""
    centers = [c.center for c in clusters]
    radii = [c.radius for c in clusters]
    mults = [c.multiplicity for c in clusters]
    merged = []
    for members in union_find_groups(centers, radii, tol):
        total = sum(mults[i] for i in members)
        center = sum(centers[i] * mults[i] for i in members) / total
        radius = max(abs(centers[i] - center) + radii[i] for i in members)
        merged.append((center, radius, total))
    return merged


def winding_dense(loop, samples: int = 200_000) -> int:
    """Brute-force winding number: dense uniform sampling plus angle sums."""
    ts = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    vals = np.array([loop(float(t)) for t in ts])
    args = np.angle(vals[1:] / vals[:-1])
    total = float(np.sum(args))
    return round(total / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# adaptive argument lifts of float loops
# ---------------------------------------------------------------------------


class WindingError(NonConvergenceError):
    """An argument lift would not settle: its loop is sampled too coarsely
    or runs too close to zero; `diagnostics` may say where."""


def _arg_steps(values: np.ndarray) -> tuple:
    """Argument turns between adjacent nonzero samples, and the mask of the
    turns of pi/2 or more, which a lift may not take in one step."""
    steps = np.angle(values[1:] / values[:-1])
    return steps, np.abs(steps) >= math.pi / 2


def _whole_turns(angle: float) -> int:
    """The whole number of turns in an accumulated lift of a closed loop."""
    turns = angle / (2.0 * math.pi)
    out = round(turns)
    if abs(turns - out) > 0.05:
        raise WindingError("accumulated lift is far from a whole turn count")
    return out


# every lift starts from this many samples
_FIRST_SAMPLES = 65
# a memory ceiling for loops that turn fast on every segment
_MAX_SAMPLES = 2**20


def _adaptive_lift(fn, a: float, b: float):
    """Sample fn, which maps an array of parameters to an array of values,
    on [a, b] until adjacent values turn by < pi/2 each.

    Returns (values, lifted arguments).  Raises WindingError when the path
    meets zero exactly, when a segment that turns too far cannot be split
    (its ends are adjacent floats), or past the memory ceiling of samples.
    """
    params = np.linspace(a, b, _FIRST_SAMPLES)
    values = np.asarray(fn(params), dtype=complex)
    while not (values == 0).any():
        steps, bad = _arg_steps(values)
        if not bad.any():
            return values, np.concatenate(([0.0], np.cumsum(steps)))
        idx = np.flatnonzero(bad)
        mids = (params[idx] + params[idx + 1]) / 2.0
        stuck = (mids == params[idx]) | (mids == params[idx + 1])
        if stuck.any() or len(params) > _MAX_SAMPLES:
            limit = "the float resolution" if stuck.any() else f"{_MAX_SAMPLES} samples"
            raise WindingError(
                f"argument lift stalled at {limit}; the path runs too close to zero",
                parameter=float(params[idx[np.argmax(stuck)]]),
                samples=len(params),
                worst_step=float(np.max(np.abs(steps))),
            )
        params = np.insert(params, idx + 1, mids)
        values = np.insert(values, idx + 1, np.asarray(fn(mids), dtype=complex))
    at = float(params[np.argmax(values == 0)])
    raise WindingError("path passes through zero", parameter=at, samples=len(params), worst_step=math.nan)


def winding_number(fn) -> int:
    """Winding of the closed loop fn on [0, 2*pi] around 0, by adaptive
    argument lifting; fn maps an array of parameters to an array of values.
    Unchecked precondition: fn's argument varies by less than a half turn over
    each interval of the first 65-sample grid; exp(65j*t) reads 1."""
    values, lifted = _adaptive_lift(fn, 0.0, 2.0 * math.pi)
    closure = abs(values[0] - values[-1]) / max(1e-300, abs(values[0]))
    if closure > 1e-6:
        raise WindingError("loop endpoints disagree: fn(0) != fn(2*pi)")
    return _whole_turns(lifted[-1] - lifted[0])


def pi1_dense_lift(loop, max_step: float = 0.3) -> int:
    """Class of a closed sampled loop of models as the winding of r_tilde,
    evaluated along each straight segment (`path_tuple`) at exact Fraction
    parameters: eight equal steps, each bisected until r_tilde turns by less
    than max_step radians across each of its halves.  A step's own turn
    cannot settle it: a turn of nearly a full circle reads as a small one."""
    total = 0.0
    for a, b in zip(loop, loop[1:]):
        ta, tb = phi_inverse(a), phi_inverse(b)

        def value(u, _a=ta, _b=tb):
            return r_tilde(phi(path_tuple(_a, _b, u)))

        nodes = [Fraction(k, 8) for k in range(9)]
        values = [value(u) for u in nodes]
        stack = list(zip(nodes, values, nodes[1:], values[1:]))[::-1]
        while stack:
            u0, v0, u1, v1 = stack.pop()
            mid = (u0 + u1) / 2
            vm = value(mid)
            left, right = cmath.phase(vm / v0), cmath.phase(v1 / vm)
            if abs(left) < max_step and abs(right) < max_step:
                total += left + right
                continue
            stack += [(mid, vm, u1, v1), (u0, v0, mid, vm)]
    return _whole_turns(total)


def cauchy_index_real_line(f1: ExactPolynomial, f2: ExactPolynomial) -> int:
    """Cauchy index of f1/f2 over the whole real line: the number of jumps of
    f1/f2 from -inf to +inf minus the jumps from +inf to -inf, summed over the
    real poles.  Computed from exact signs of f1 around each real root of f2.

    For coprime monic pairs the component label of (f, g) equals the index
    of g/f, i.e. cauchy_index_real_line(g, f).
    """
    total = 0
    poles = real_roots_exact(f2)
    foreign = real_roots_exact(f1)
    for k, root in enumerate(poles):
        if root.multiplicity % 2 == 0:
            continue
        # shrink all isolating intervals in lockstep until [lo, hi] holds the
        # pole alone, so f2 changes sign only there and f1 is root-free
        r = root
        others = [s for i, s in enumerate(poles) if i != k] + list(foreign)
        width = max((r.hi - r.lo), Fraction(1, 16))
        while True:
            lo, hi = r.lo - width, r.hi + width
            # strict separation: lo/hi must not touch a root of either factor
            if all(s.hi < lo or s.lo > hi for s in others):
                break
            width /= 2
            r = r.refine(width)
            others = [s.refine(width) for s in others]
        s_left = _sign_of(f1(lo)) * _sign_of(f2(lo))
        s_right = _sign_of(f1(hi)) * _sign_of(f2(hi))
        # f1/f2 jumps -inf -> +inf when the product sign goes - to +
        if s_left < 0 < s_right:
            total += 1
        elif s_left > 0 > s_right:
            total -= 1
    return total


def rp1_degree_lift(f1: ExactPolynomial, f2: ExactPolynomial) -> int:
    """Real-axis degree of a member pair as the half-winding of
    s -> cos(s)^d * (f2 + i*f1)(tan(s)) for s from -pi/2 to pi/2, by the
    adaptive float argument lift, evaluated in the homogeneous chart so the
    point at infinity needs no special casing."""
    d = f1.degree
    coeffs = np.array(
        [complex(b) + 1j * complex(a)
         for a, b in zip(f1.complex_coefficients, f2.complex_coefficients)],
        dtype=complex,
    )
    rev = coeffs[::-1]

    def homogeneous(s):
        s = np.asarray(s, dtype=float)
        t, c = np.sin(s), np.cos(s)
        small_t = np.abs(t) <= np.abs(c)
        # |t| <= |c|: evaluate c^d * P(t/c); otherwise t^d * P_rev(c/t)
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(small_t, t / np.where(c == 0, 1.0, c), c / np.where(t == 0, 1.0, t))
        acc_a = np.full_like(u, coeffs[-1], dtype=complex)
        acc_b = np.full_like(u, rev[-1], dtype=complex)
        for k in range(d - 1, -1, -1):
            acc_a = acc_a * u + coeffs[k]
            acc_b = acc_b * u + rev[k]
        return np.where(small_t, acc_a * c**d, acc_b * t**d)

    _, lifted = _adaptive_lift(homogeneous, -math.pi / 2, math.pi / 2)
    half_turns = (lifted[-1] - lifted[0]) / math.pi
    j = round(half_turns)
    if abs(half_turns - j) > 0.2 or (j - d) % 2 != 0:
        raise WindingError("real-axis lift did not land on a consistent degree")
    return j


def _circle_count(coeffs: np.ndarray) -> int:
    """Zeros of the polynomial with ascending complex coefficients, as the
    winding around a Cauchy circle, doubling the radius when a zero lies too
    close to it."""
    radius = 2.0 * (1.0 + float(np.max(np.abs(coeffs[:-1]))) / abs(coeffs[-1]))
    for _ in range(5):
        def on_circle(theta, _r=radius):
            return np.polyval(coeffs[::-1], _r * np.exp(1j * np.asarray(theta)))

        try:
            return winding_number(on_circle)
        except WindingError:
            radius *= 2.0
    raise WindingError("no valid counting circle found after retries")


def map_degree_winding(t, lam) -> int:
    """Point-map degree of a member by the argument principle: the zero
    count of p_lambda = sum lambda_k * (jet component k) inside a circle
    enclosing all its zeros.  Every zero of p_lambda counts, so a non-member
    gets d here too."""
    comps = [c for f in t.polys for c in jet(f, t.n).components]
    coeffs = np.zeros(comps[0].degree + 1, dtype=complex)
    for weight, comp in zip(lam, comps):
        coeffs += complex(weight) * np.asarray(comp.complex_coefficients, dtype=complex)
    return _circle_count(coeffs)


def electric_degree_winding(points) -> int:
    """Electric degree by the argument principle: the number of preimages
    of the target i under [f : f + f'], i.e. the zero count of
    (1 - i) f + f' for f = prod (z - a).  Equal points are counted with
    their multiplicity, so this is the degree only for distinct points."""
    f = np.array([1.0 + 0.0j])
    for a in points:
        f = np.convolve(f, np.array([-complex(a), 1.0]))
    if len(f) == 1:
        return 0
    h = (1.0 - 1.0j) * f
    h[:-1] += np.arange(1, len(f)) * f[1:]
    return _circle_count(h)


def _sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# real roots by recursive bisection on Fractions: the integer bisection in
# nonresultant.exactalg must reproduce every interval of these exactly
# ---------------------------------------------------------------------------


def _sign_at_fraction(cs, x: Fraction) -> int:
    # sign of sum a_k p^k q^(d-k) = q^d f(p/q), exact
    p, q = x.numerator, x.denominator
    s = 0
    qq = 1
    for a in reversed(cs):
        s = s * p + a * qq
        qq *= q
    return _sign_of(s)


def _isolation_box(cs) -> int:
    """max(2**e, 1) for the root bound 2**e of `exactalg._root_bound_exponent`
    of integer coefficients cs of degree >= 2 with a nonzero lower one, by
    its definition in Fraction arithmetic: e0 = max ceil((bits(a_k) -
    bits(a_d) + 1) / (d - k)) over the nonzero a_k, kept when |a_d| x**d >
    sum_{k<d} |a_k| x**k at x = 2**e0, else e0 + 1."""
    d, lead = len(cs) - 1, abs(cs[-1])
    e = max(
        math.ceil(Fraction(abs(a).bit_length() - lead.bit_length() + 1, d - k))
        for k, a in enumerate(cs[:-1])
        if a
    )
    x = Fraction(2) ** e
    if lead * x**d <= sum(abs(a) * x**k for k, a in enumerate(cs[:-1])):
        x *= 2
    return max(int(x), 1)


def isolate_squarefree_fractions(cs) -> list:
    """Isolating intervals/exact points of a squarefree integer polynomial
    of degree >= 1, as sorted (lo, hi, sign at lo), by recursive Sturm
    bisection of Fraction intervals starting from (-b, b), b the box of
    `_isolation_box`.  An interval is output when it holds one root and
    neither end is a root; a midpoint that is a root is output as [r, r]
    and stays an end of both halves."""
    d = len(cs) - 1
    if d == 1:
        r = Fraction(-cs[0], cs[1])
        return [(r, r, 0)]
    chain = _sturm_chain(cs, [k * c for k, c in enumerate(cs)][1:])
    b = Fraction(_isolation_box(cs))
    out = []

    def var(x: Fraction) -> int:
        return _variations(_sign_at_fraction(c, x) for c in chain)

    def rec(lo: Fraction, hi: Fraction):
        # V skips zeros, so V(lo) - V(hi) counts the roots in (lo, hi]
        count = var(lo) - var(hi) - (_sign_at_fraction(cs, hi) == 0)
        if count == 0:
            return
        s_lo = _sign_at_fraction(cs, lo)
        if count == 1 and s_lo != 0 != _sign_at_fraction(cs, hi):
            out.append((lo, hi, s_lo))
            return
        mid = (lo + hi) / 2
        if _sign_at_fraction(cs, mid) == 0:
            out.append((mid, mid, 0))
        rec(lo, mid)
        rec(mid, hi)

    rec(-b, b)
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def isolate_squarefree_every_point(cs: Sequence[int], chain: Optional[list]) -> list:
    """Isolating intervals/exact points for a squarefree integer polynomial
    of degree >= 1 with Sturm chain `chain` (unused, and may be None, at
    degree 1), as sorted (lo, hi, sign of f at lo) triples of Fractions.

    The reference for `exactalg._isolate_squarefree`: the same dyadic cells
    on integer numerators, starting from the box of `_isolation_box`, with
    the whole chain and f read at both ends of every cell visited (the
    box's ends too, where the program reads the counts at infinity; nothing
    is carried from the parent cell).  Each point is evaluated once per
    call, at p/2**k in lowest terms, and cached."""
    d = len(cs) - 1
    if d == 1:
        r = Fraction(-cs[0], cs[1])
        return [(r, r, 0)]
    b = _isolation_box(cs)

    seen: dict = {}

    def at(p: int, k: int) -> tuple:
        # (sign variations of the chain, sign of f) at p / 2**k
        z = math.gcd(p, 1 << k).bit_length() - 1
        p, k = p >> z, k - z
        if (p, k) not in seen:
            q = 1 << k
            seen[p, k] = _variations(_value_at(c, p, q) for c in chain), _sign_at(cs, p, q)
        return seen[p, k]

    out = []
    work = [(-b, b, 0)]
    while work:
        lo, hi, k = work.pop()
        (v_lo, s_lo), (v_hi, s_hi) = at(lo, k), at(hi, k)
        # V skips zeros, so V(lo) - V(hi) counts the roots in (lo, hi]
        count = v_lo - v_hi - (s_hi == 0)
        if count == 0:
            continue
        if count == 1 and s_lo != 0 != s_hi:
            q = 1 << k
            out.append((Fraction(lo, q), Fraction(hi, q), s_lo))
            continue
        mid, k = lo + hi, k + 1
        if at(mid, k)[1] == 0:
            r = Fraction(mid, 1 << k)
            out.append((r, r, 0))
        work.append((lo << 1, mid, k))
        work.append((mid, hi << 1, k))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def refine_fractions(root: RealRoot, max_width) -> RealRoot:
    """Bisect the Fraction interval (lo, hi) until it is at most max_width
    wide or a midpoint is the root."""
    lo, hi, s_lo = root.lo, root.hi, root._sign_lo
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        s = _sign_at_fraction(root._factor, mid)
        if s == 0:
            lo = hi = mid
            s_lo = 0
            break
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return RealRoot(lo, hi, root.multiplicity, root._factor, s_lo)


def float_value_fractions(root: RealRoot) -> float:
    """`RealRoot.float_value` by plain halving: a rational root is rounded by
    `float` itself; otherwise `refine_fractions` halves the interval until
    both ends round to one float.  That ends, since an irrational root is
    never a tie between two floats; a rational one at a tie may never be a
    midpoint of an interval off the dyadic grid."""
    exact = rational_value_fractions(root)
    if exact is not None:
        return float(exact)
    while float(root.lo) != float(root.hi):
        root = refine_fractions(root, (root.hi - root.lo) / 2)
    return float(root.lo)


def _simplest_between_recursive(lo: Fraction, hi: Fraction) -> Fraction:
    """Minimal-denominator rational in [lo, hi] (mediant recursion)."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    cl, fl = math.ceil(lo), math.floor(hi)
    if cl <= fl:
        if cl <= 0 <= fl:
            return Fraction(0)
        return Fraction(cl if cl > 0 else fl)
    n = math.floor(lo)
    return n + 1 / _simplest_between_recursive(1 / (hi - n), 1 / (lo - n))


def rational_value_fractions(root: RealRoot):
    """`RealRoot.rational_value` on top of `refine_fractions`."""
    if root.is_exact:
        return root.lo
    lc = abs(root._factor[-1])
    r = refine_fractions(root, Fraction(1, 2 * lc * lc))
    if r.is_exact:
        return r.lo
    candidate = _simplest_between_recursive(r.lo, r.hi)
    return candidate if _sign_at_fraction(root._factor, candidate) == 0 else None


def real_roots_fractions(f: ExactPolynomial) -> list:
    """`real_roots_exact` on top of the Fraction isolation and refinement:
    isolate each squarefree factor, then refine overlapping intervals of
    different factors, the wider one to a quarter, until all are disjoint."""
    roots = []
    for factor, mult in squarefree_decomposition(f):
        ics = tuple(_int_primitive(factor._re))
        for lo, hi, s_lo in isolate_squarefree_fractions(ics):
            roots.append(RealRoot(lo, hi, mult, ics, s_lo))
    changed = True
    while changed:
        changed = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                a, b = roots[i], roots[j]
                if a._factor is b._factor or a.hi <= b.lo or b.hi <= a.lo:
                    continue
                w_a, w_b = a.hi - a.lo, b.hi - b.lo
                if w_b == 0 or (w_a >= w_b and w_a > 0):
                    roots[i] = refine_fractions(a, w_a / 4)
                else:
                    roots[j] = refine_fractions(b, w_b / 4)
                changed = True
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots


def alternating_value_refined(m, width: Fraction) -> complex:
    """r_tilde of a triple model (f1, f2, f3) from the Fraction oracles:
    each odd-multiplicity real root of f1 is refined to `width` and f2, f3
    are evaluated exactly at the interval's midpoint; exponents alternate
    with the root's position counted with multiplicity."""
    total = (Fraction(1), Fraction(0))
    position = 1
    for root in real_roots_fractions(m.f1):
        if root.multiplicity % 2:
            r = refine_fractions(root, width)
            x = (r.lo + r.hi) / 2
            v = (m.f2(x), m.f3(x))
            total = _g_mul(total, v) if position % 2 else _q_div(total, v)
        position += root.multiplicity
    return complex(float(total[0]), float(total[1]))


def lagrange(nodes, values) -> ExactPolynomial:
    """The interpolating polynomial as a sum of Lagrange basis products."""
    z = ExactPolynomial.variable()
    total = ExactPolynomial.zero()
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if yi == 0:
            continue
        basis = ExactPolynomial.one()
        denom = Fraction(1)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * (z - ExactPolynomial.constant(xj))
            denom *= xi - xj
        total = total + basis * yi * (1 / denom)
    return total


def first_violation_refining_every_root(g: ExactPolynomial, width: Fraction):
    """(lo, hi, sign_change) of the least root of g in (0, 1), or None, for
    g nonzero at 0 and 1: every root of g, wherever it lies, is refined to
    the width and halved until its bracket lies on one side of 0 and of 1,
    and only then tested against [0, 1]."""
    for r in real_roots_exact(g):
        r = r.refine(width)
        while r.lo < 0 < r.hi or r.lo < 1 < r.hi:
            r = r.refine((r.hi - r.lo) / 2)
        if 0 <= r.lo and r.hi <= 1:
            return r.lo, r.hi, r.multiplicity % 2 == 1
    return None


def path_samples_by_gcd(a, b, depth_cap: int = 10, invariant=None, min_depth: int = 6) -> tuple:
    """(samples, refinement_depth) of a straight-line path, with exact
    gcd-route membership at every dyadic sample: the grid of 2**min_depth
    segments, then every segment whose ends disagree in membership or
    invariant value halved, until none do or depth_cap is reached."""

    def probe(t: Fraction):
        tup = path_tuple(a, b, t)
        member = is_member(tup)
        value = invariant(tup) if (invariant is not None and member) else None
        return (t, member, value)

    samples = {Fraction(i, 2**min_depth): None for i in range(2**min_depth + 1)}
    samples = {t: probe(t) for t in samples}
    depth = min_depth
    while depth < depth_cap:
        ordered = sorted(samples)
        new_params = []
        for left, right in zip(ordered, ordered[1:]):
            la, ra = samples[left], samples[right]
            if la[1] != ra[1] or la[2] != ra[2]:
                new_params.append((left + right) / 2)
        if not new_params:
            break
        depth += 1
        for t in new_params:
            samples[t] = probe(t)
    return tuple(samples[t] for t in sorted(samples)), depth


def scalar_from_json_fractions(v):
    """One JSON coefficient read by `Fraction` alone, recursing into
    {"re", "im"} maps: the grammar `exactalg._json_parts` reads to integers."""
    if isinstance(v, bool):
        raise ValueError("booleans are not coefficients")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise ValueError("float coefficients are not accepted; send exact 'p/q' strings")
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {exc}") from exc
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        re = scalar_from_json_fractions(v.get("re", "0"))
        im = scalar_from_json_fractions(v.get("im", "0"))
        if isinstance(re, GaussianRational) or isinstance(im, GaussianRational):
            raise ValueError("nested complex parts")
        return _value((re, im))
    raise ValueError(f"cannot parse coefficient {v!r}")
