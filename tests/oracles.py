"""Independent oracles used to derive frozen expected values in the tests.

Each oracle deliberately avoids the code path it checks: gcds come from
factor multisets instead of remainder sequences; windings from brute-force
dense sampling instead of adaptive refinement; real-axis degrees from the
Cauchy index at isolated poles instead of a remainder sequence; map,
real-axis and electric degrees of members also from float argument lifts
instead of gcds and remainder sequences; resultants from the root-product
formula or the Sylvester determinant instead of remainder sequences; real
root isolation and refinement by recursive bisection on Fractions instead of
integer numerators.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from nonresultant.exactalg import (
    ExactPolynomial,
    GaussianRational,
    RealRoot,
    _int_derivative,
    _int_primitive,
    _sturm_chain,
    _variations,
    real_roots_exact,
    squarefree_decomposition,
)
from nonresultant.mapdeg import WindingError, _adaptive_lift, winding_number
from nonresultant.nonres import jet


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
    Gaussian elimination over Q or Q(i) on the coefficient view; canonical
    (a Fraction when real)."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    m, n = f.degree, g.degree
    size = m + n
    fc = list(reversed(f.coefficients))
    gc = list(reversed(g.coefficients))
    rows = [[0] * k + fc + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + gc + [0] * (m - 1 - k) for k in range(m)]
    det = GaussianRational(Fraction(1), Fraction(0))
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = GaussianRational.of(rows[r][col]) / pivot
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det.canonical()


def aberth_every_row(coeffs: np.ndarray, max_iter: int, offset: float) -> np.ndarray:
    """Batched Aberth-Ehrlich iterates with every row updated on every
    iteration in fresh arrays (a row whose roots have all stopped gets a zero
    step); the kernel must reproduce these bits."""
    batch, dp1 = coeffs.shape
    d = dp1 - 1
    radius = 1.0 + np.abs(coeffs[:, :-1]).max(axis=1)
    z = radius[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + offset))[None, :]
    dcoeffs = coeffs[:, 1:] * np.arange(1, dp1)[None, :]
    abs_coeffs = np.abs(coeffs)
    active = np.ones((batch, d), dtype=bool)
    for _ in range(max_iter):
        p = np.broadcast_to(coeffs[:, -1][:, None], z.shape).copy()
        for k in range(d - 1, -1, -1):
            p = p * z + coeffs[:, k][:, None]
        dp = np.broadcast_to(dcoeffs[:, -1][:, None], z.shape).copy()
        for k in range(d - 2, -1, -1):
            dp = dp * z + dcoeffs[:, k][:, None]
        az = np.maximum(1.0, np.abs(z))
        s = np.broadcast_to(abs_coeffs[:, -1][:, None], z.shape).copy()
        for k in range(d - 1, -1, -1):
            s = s * az + abs_coeffs[:, k][:, None]
        active &= ~(np.abs(p) <= 1e-14 * s)
        if not active.any():
            break
        dp = np.where(np.abs(dp) < 1e-290, 1e-290, dp)
        newton = p / dp
        diff = z[:, :, None] - z[:, None, :]
        np.einsum("bii->bi", diff)[:] = np.inf
        diff = np.where(np.abs(diff) < 1e-290, 1e-290, diff)
        denom = 1.0 - newton * (1.0 / diff).sum(axis=2)
        denom = np.where(np.abs(denom) < 1e-12, 1.0, denom)
        w = np.where(active, newton / denom, 0.0)
        z = z - w
        if np.max(np.abs(w) / (1.0 + np.abs(z))) < 1e-15:
            break
    return z


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


def winding_dense(loop, samples: int = 200_000) -> int:
    """Brute-force winding number: dense uniform sampling plus angle sums."""
    ts = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    vals = np.array([loop(float(t)) for t in ts])
    args = np.angle(vals[1:] / vals[:-1])
    total = float(np.sum(args))
    return round(total / (2.0 * math.pi))


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


def rp1_degree_lift(f1: ExactPolynomial, f2: ExactPolynomial, cap: int = 2**20) -> int:
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

    _, _, lifted = _adaptive_lift(homogeneous, -math.pi / 2, math.pi / 2, cap)
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


def braid_winding_pairwise(points_path) -> int:
    """Total winding of prod_{k<l} (a_k - a_l)^2 along a sampled loop of
    configurations; `points_path` is a list of point tuples, first == last."""
    total = 0.0
    prev = None
    for pts in points_path:
        val = 1.0 + 0.0j
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                val *= (pts[i] - pts[j]) ** 2
        if prev is not None:
            total += cmath.phase(val / prev)
        prev = val
    return round(total / (2.0 * math.pi))


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


def isolate_squarefree_fractions(cs) -> list:
    """Isolating intervals/exact points of a squarefree integer polynomial,
    as sorted (lo, hi, sign at lo), by recursive Sturm bisection of
    Fraction intervals starting from (-b, b), b the power of 2 at or above
    the Cauchy bound."""
    d = len(cs) - 1
    if d < 1:
        return []
    if d == 1:
        r = Fraction(-cs[0], cs[1])
        return [(r, r, 0)]
    chain = _sturm_chain(cs, _int_derivative(cs))
    lead = abs(cs[-1])
    bound = 1 + max(abs(c) for c in cs[:-1]) / Fraction(lead)
    b = Fraction(1)
    while b < bound:
        b *= 2
    out = []
    var_cache = {}

    def var(x: Fraction) -> int:
        if x not in var_cache:
            var_cache[x] = _variations(_sign_at_fraction(c, x) for c in chain)
        return var_cache[x]

    def rec(lo: Fraction, hi: Fraction, count: int):
        # invariant: f(lo) != 0 != f(hi), count = #roots in (lo, hi)
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi, _sign_at_fraction(cs, lo)))
            return
        mid = (lo + hi) / 2
        if _sign_at_fraction(cs, mid) == 0:
            # exact rational hit: record it and excise a root-free strip so
            # recursion endpoints are never themselves roots
            out.append((mid, mid, 0))
            eps = (hi - lo) / 8
            while True:
                a, b2 = mid - eps, mid + eps
                if (
                    a > lo
                    and b2 < hi
                    and _sign_at_fraction(cs, a) != 0
                    and _sign_at_fraction(cs, b2) != 0
                    and var(a) - var(b2) == 1
                ):
                    break
                eps /= 2
            rec(lo, a, var(lo) - var(a))
            rec(b2, hi, var(b2) - var(hi))
        else:
            v = var(mid)
            rec(lo, mid, var(lo) - v)
            rec(mid, hi, v - var(hi))

    rec(-b, b, var(-b) - var(b))
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


def float_value_fractions(root: RealRoot, rel: float = 1e-16) -> float:
    """`RealRoot.float_value` on top of `refine_fractions`."""
    if root.is_exact:
        return float(root.lo)
    scale = max(Fraction(1), abs(root.lo), abs(root.hi))
    return float(refine_fractions(root, Fraction(rel) * scale).midpoint)


def simplest_between_recursive(lo: Fraction, hi: Fraction) -> Fraction:
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
    return n + 1 / simplest_between_recursive(1 / (hi - n), 1 / (lo - n))


def rational_value_fractions(root: RealRoot):
    """`RealRoot.rational_value` on top of `refine_fractions`."""
    if root.is_exact:
        return root.lo
    lc = abs(root._factor[-1])
    r = refine_fractions(root, Fraction(1, 2 * lc * lc))
    if r.is_exact:
        return r.lo
    candidate = simplest_between_recursive(r.lo, r.hi)
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
    total = GaussianRational(Fraction(1), Fraction(0))
    position = 1
    for root in real_roots_fractions(m.f1):
        if root.multiplicity % 2:
            x = refine_fractions(root, width).midpoint
            v = GaussianRational(m.f2(x), m.f3(x))
            total = total * v if position % 2 else total / v
        position += root.multiplicity
    return complex(total)
