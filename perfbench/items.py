"""Item runners: each drives `nonresultant` through its public functions only,
then checks the outputs against the generator's expected answers.

A runner is split in two.  `run_<kind>` is the timed part: the calls a user
makes, each wrapped in a tracer span, followed in the traced run by probes —
the same public call an upper layer makes inside, repeated on the item's own
data so the lower layer gets its own span.  `check_<kind>` is untimed: it
raises `Mismatch` on a wrong answer, adds to the exact counts, and returns
the item's canonical output line for the run digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from nonresultant.case12 import component_of_12, electric_degree, to_configuration
from nonresultant.case21 import component_of_21
from nonresultant.case31 import phi, r_tilde
from nonresultant.cli import main as cli_main
from nonresultant.exactalg import (
    ExactPolynomial,
    GaussianRational,
    complex_roots_many,
    count_distinct_real_roots,
    gcd_many,
    real_roots_exact,
    resultant_exact,
    squarefree_decomposition,
)
from nonresultant.harness import (
    certify_path,
    locate_violation,
    numeric_common_multiplicities,
    path_tuple,
)
from nonresultant.mapdeg import map_degree, rp1_degree
from nonresultant.nonres import SystemTuple, is_member, is_member_via_jets, jet
from nonresultant.stab import stabilize_with_report


class Mismatch(Exception):
    """An output disagrees with the generator's expected answer."""


class Tracer:
    """Span recorder.  Disabled, `call` is a plain call and `probe` does
    nothing; enabled, every call and probe appends a span
    (item id, name, start, end, parent name, is_probe) and probe time is
    summed so the caller can leave it out of item latency."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.item_id = None
        self.parent = None
        self.probe_s = 0.0

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.item_id, name, start, perf_counter(), self.parent, False))

    def probe(self, name, fn, *args):
        if not self.enabled:
            return None
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.probe_s += end - start
            self.spans.append((self.item_id, name, start, end, self.parent, True))


def coeff_bits(polys) -> int:
    bits = 0
    for f in polys:
        for c in f.coefficients:
            parts = (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
            for q in parts:
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _max(counts: Counter, key: str, value: int) -> None:
    counts[key] = max(counts[key], value)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# membership workloads
# ---------------------------------------------------------------------------


def run_member(tr: Tracer, data):
    roots, n, field = data
    polys = tuple(tr.call("exactalg.from_roots", ExactPolynomial.from_roots, r) for r in roots)
    t = SystemTuple(polys, n, field)
    gcd_member = tr.call("nonres.is_member", is_member, t)
    jet_member = tr.call("nonres.is_member_via_jets", is_member_via_jets, t)
    if tr.enabled:
        g = tr.probe("exactalg.gcd_many", gcd_many, polys)
        if g.degree > 0:
            tr.probe("exactalg.squarefree_decomposition", squarefree_decomposition, g)
        comps = [c for f in polys for c in tr.probe("nonres.jet", jet, f, n).components]
        tr.probe("exactalg.gcd_many", gcd_many, comps)
    return t, gcd_member, jet_member


def check_member(expected, result, counts: Counter) -> str:
    t, gcd_member, jet_member = result
    mu, member = expected
    counts["exactalg.from_roots.degree_sum"] += sum(t.degrees)
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(t.polys))
    counts["nonres.is_member.nonmembers"] += not gcd_member
    _expect(gcd_member == member, f"gcd route says {gcd_member}, planted mu={mu}")
    _expect(jet_member == member, f"jet route says {jet_member}, planted mu={mu}")
    return f"member {gcd_member}"


def run_numeric_batch(tr: Tracer, tuples: list) -> list:
    out = tr.call("harness.numeric_common_multiplicities", numeric_common_multiplicities, tuples)
    if tr.enabled:
        tr.probe("exactalg.complex_roots_many", complex_roots_many, [f for t in tuples for f in t.polys])
    return out


# ---------------------------------------------------------------------------
# invariants workload: every input arrives as coefficient JSON
# ---------------------------------------------------------------------------


def _parse(tr: Tracer, obj) -> SystemTuple:
    # SystemTuple.from_json parses each entry with exactalg.poly_from_json
    return tr.call("exactalg.poly_from_json", SystemTuple.from_json, obj)


def run_label21(tr: Tracer, data):
    t = _parse(tr, data[0])
    label = tr.call("case21.component_of_21", component_of_21, t).j
    if tr.enabled:
        tr.probe("exactalg.gcd_many", gcd_many, t.polys)
        tr.probe("mapdeg.rp1_degree", rp1_degree, *t.polys)
    return t, label


def check_label21(expected, result, counts: Counter) -> str:
    t, label = result
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(t.polys))
    _expect(label == expected, f"label {label}, Cauchy index {expected}")
    return f"label21 {label}"


def run_label12(tr: Tracer, data):
    t = _parse(tr, data[0])
    f = t.polys[0]
    j = tr.call("case12.component_of_12", component_of_12, f)
    cfg = tr.call("case12.to_configuration", to_configuration, f)
    degree = tr.call("case12.electric_degree", electric_degree, cfg)
    roots = None
    if tr.enabled:
        tr.probe("exactalg.count_distinct_real_roots", count_distinct_real_roots, f)
        roots = tr.probe("exactalg.real_roots_exact", real_roots_exact, f)
        tr.probe("exactalg.complex_roots_many", complex_roots_many, [f])
    return t, j, cfg, degree, roots


def _close(x: complex, y: complex, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def check_label12(expected, result, counts: Counter) -> str:
    t, j, cfg, degree, roots = result
    want_j, reals, pairs = expected
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(t.polys))
    if roots is not None:
        counts["exactalg.real_roots_exact.roots"] += len(roots)
    _expect(j == want_j, f"label {j}, {want_j} conjugate pairs drawn")
    _expect(degree == want_j, f"electric degree {degree}, label {want_j}")
    _expect(len(cfg.real_points) == len(reals), "configuration real-point count")
    _expect(all(_close(x, float(r)) for x, r in zip(cfg.real_points, reals)), "real points")
    _expect(len(cfg.upper_points) == len(pairs), "configuration upper-point count")
    # drawn points are >= 1/2 apart, so matching each to a close point is
    # unambiguous; the config's own (re, im) order can swap near-equal re
    uppers = [complex(float(a), float(b)) for a, b in pairs]
    _expect(all(any(_close(u, w) for u in cfg.upper_points) for w in uppers), "upper points")
    return f"label12 {j} {degree} {len(cfg.real_points)}"


def run_r_tilde31(tr: Tracer, data):
    t = _parse(tr, data[0])
    model = tr.call("case31.phi", phi, t)
    value = tr.call("case31.r_tilde", r_tilde, model)
    roots = None
    if tr.enabled:
        tr.probe("exactalg.gcd_many", gcd_many, [model.f1, model.f2, model.f3])
        roots = tr.probe("exactalg.real_roots_exact", real_roots_exact, model.f1)
    return t, value, roots


def check_r_tilde31(expected, result, counts: Counter) -> str:
    t, value, roots = result
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(t.polys))
    if roots is not None:
        counts["exactalg.real_roots_exact.roots"] += len(roots)
    want = complex(float(expected[0]), float(expected[1]))
    _expect(math.isfinite(abs(value)) and value != 0, f"r_tilde {value} not finite and nonzero")
    _expect(abs(value - want) <= 1e-9 * abs(want), f"r_tilde {value}, exact {want}")
    return f"r_tilde31 {value.real:.9g} {value.imag:.9g}"


def run_map_degree(tr: Tracer, data):
    obj, lam = data
    t = _parse(tr, obj)
    degree = tr.call("mapdeg.map_degree", map_degree, t, lam)
    if tr.enabled:
        for f in t.polys:
            tr.probe("nonres.jet", jet, f, t.n)
    return t, degree


def check_map_degree(expected, result, counts: Counter) -> str:
    t, degree = result
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(t.polys))
    _expect(degree == expected, f"map degree {degree}, d = {expected}")
    return f"map_degree {degree}"


def run_stabilize(tr: Tracer, data):
    t = _parse(tr, data[0])
    report = tr.call("stab.stabilize_with_report", stabilize_with_report, t)
    if tr.enabled:
        tr.probe("exactalg.gcd_many", gcd_many, report.output.polys)
        if report.case == "12":
            tr.probe("exactalg.count_distinct_real_roots", count_distinct_real_roots, report.output.polys[0])
    return t, report


def check_stabilize(expected, result, counts: Counter) -> str:
    t, report = result
    d, label = expected
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(t.polys))
    _expect(report.member_in and report.member_out, "stabilization left the space")
    grow = 2 if report.case == "12" else 1
    _expect(report.output.degrees == (d + grow,) * t.m, f"output degrees {report.output.degrees}")
    if label is not None:
        _expect(report.input_label == label, f"input label {report.input_label}, drawn {label}")
        _expect(report.output_label == label + 1, f"output label {report.output_label}, want {label + 1}")
    return f"stabilize {report.case} {report.T_used} {report.output_label}"


def _boundary_pairs(a: SystemTuple, b: SystemTuple, x: Fraction) -> tuple:
    polys = path_tuple(a, b, x).polys
    return polys if a.m == 2 else (polys[0], polys[0].derivative())


def run_path(tr: Tracer, data):
    a, b = _parse(tr, data[0]), _parse(tr, data[1])
    path = tr.call("harness.certify_path", certify_path, a, b)
    bits = None
    if tr.enabled:
        tr.probe("harness.path_tuple", path_tuple, a, b, Fraction(1, 2))
        if a.m * a.n == 2:
            tr.probe("harness.locate_violation", locate_violation, a, b)
            # the nodes harness._boundary_polynomial interpolates at
            bound = sum(f.degree for f in _boundary_pairs(a, b, Fraction(0)))
            bits = 0
            for i in range(bound + 1):
                pair = _boundary_pairs(a, b, Fraction(i, bound))
                r = tr.probe("exactalg.resultant_exact", resultant_exact, *pair)
                bits = max(bits, r.numerator.bit_length(), r.denominator.bit_length())
    return a, b, path, bits


def check_path(expected, result, counts: Counter) -> str:
    a, b, path, bits = result
    _max(counts, "exactalg.inputs.max_coeff_bits", coeff_bits(a.polys + b.polys))
    if bits is not None:
        _max(counts, "exactalg.resultant_exact.max_bits", bits)
    counts["harness.certify_path.samples"] += len(path.samples)
    counts["harness.certify_path.violations"] += len(path.violations)
    _expect(path.samples[0][1] and path.samples[-1][1], "a path endpoint sampled as non-member")
    _expect(len(path.samples) >= 65, f"{len(path.samples)} samples")
    if expected:
        _expect(
            bool(path.violations) and path.violations[0].width <= Fraction(1, 10**6),
            "cross-label path without a violation certificate of width <= 1e-6",
        )
    certs = " ".join(f"{v.kind}:{v.lo}:{v.hi}:{v.sign_change}" for v in path.violations)
    return f"path {len(path.samples)} {path.refinement_depth} {certs}"


def run_cli(tr: Tracer, data):
    command, obj = data
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(obj))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call("cli.main", cli_main, [command])
    finally:
        sys.stdin = stdin
    return command, code, out.getvalue(), err.getvalue()


def check_cli(expected, result, counts: Counter) -> str:
    command, code, out, err = result
    _expect(code == 0, f"cli {command} exited {code}: {err.strip()}")
    got = json.loads(out)["r_tilde_exact"] if command == "r-d" else out.strip()
    _expect(got == expected, f"cli {command} printed {got!r}, expected {expected!r}")
    return f"cli {command} {json.dumps(got, sort_keys=True)}"


RUNNERS = {
    "member": (run_member, check_member),
    "label21": (run_label21, check_label21),
    "label12": (run_label12, check_label12),
    "r_tilde31": (run_r_tilde31, check_r_tilde31),
    "map_degree": (run_map_degree, check_map_degree),
    "stabilize": (run_stabilize, check_stabilize),
    "path": (run_path, check_path),
    "cli": (run_cli, check_cli),
}
