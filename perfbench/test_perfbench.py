"""Tests of the benchmark itself: seeded inputs repeat byte for byte, the
generator's expected labels agree with independent oracles, and wrong
answers, exceptions and overruns are counted as failed items.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import gen  # noqa: E402
import items  # noqa: E402
import run  # noqa: E402
from nonresultant.exactalg import ExactPolynomial  # noqa: E402
from oracles import cauchy_index_real_line  # noqa: E402

DIGEST_SCRIPT = (
    "import hashlib, sys; sys.path[:0] = sys.argv[1:]; import run; "
    "print(hashlib.sha256(repr([(w, run.build_inputs(w, 11)[:300]) "
    "for w in sorted(run.WORKLOADS)]).encode()).hexdigest())"
)


def poly(entry: gen.Entry) -> ExactPolynomial:
    return ExactPolynomial(tuple(entry.coefficients()))


def test_same_seed_gives_byte_identical_inputs_across_processes():
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT, str(ROOT / "src"), str(HERE)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert repr(gen.invariant_items(3, 260)) == repr(gen.invariant_items(3, 260))
    assert repr(gen.invariant_items(3, 260)) != repr(gen.invariant_items(4, 260))
    assert repr(gen.membership_items(3, 80, "C")) != repr(gen.membership_items(4, 80, "C"))


@pytest.mark.parametrize("seed", range(4))
def test_pair_labels_match_the_cauchy_index_oracle(seed):
    import random

    rng = random.Random(seed)
    for d in range(1, 9):
        f1, f2 = gen.distinct(rng, 2, d)
        # the oracle's index of g/f is the label of the pair (f, g)
        assert gen.pair_label(f1, f2) == cauchy_index_real_line(poly(f2), poly(f1))


def test_single_polynomial_labels_match_an_independent_real_root_count():
    for it in gen.invariant_items(5, 520):
        if it.kind != "label12":
            continue
        coeffs = [float(Fraction(c)) for c in it.data[0]["polys"][0]]
        roots = np.roots(coeffs[::-1])
        real = int(np.sum(np.abs(roots.imag) < 1e-7))
        assert it.expected[0] == (len(coeffs) - 1 - real) // 2


def test_r_tilde_expectation_matches_coefficient_evaluation():
    import random

    rng = random.Random(9)
    for d in (3, 5, 7):
        f1, f2, f3 = gen.distinct(rng, 3, d)
        p2, p3 = poly(f2), poly(f3)
        want = complex(1)
        for pos, x in enumerate(sorted(f1.reals)):
            v = complex(float(p2(x)), float(p3(x)))
            want = want * v if pos % 2 == 0 else want / v
        re, im = gen.r_tilde_exact(f1, f2, f3)
        assert abs(complex(float(re), float(im)) - want) <= 1e-12 * abs(want)


def test_wrong_answers_exceptions_and_overruns_count_as_failed(monkeypatch):
    inputs = run.build_inputs("invariants", 2)[:26]
    label = next(i for i, (kind, _, _) in enumerate(inputs) if kind == "label21")
    kind, data, expected = inputs[label]
    inputs[label] = (kind, data, expected + 2)
    path = next(i for i, (kind, _, _) in enumerate(inputs) if kind == "path")
    inputs[path] = ("path", ({"n": 1},) * 2, False)
    result = run.run_pass(inputs, items.Tracer(False), 0)
    assert result["failed"] == 2
    assert result["errors"] == Counter({"Mismatch": 1, "InputError": 1})

    monkeypatch.setattr(run, "ITEM_DEADLINE_S", 1e-4)
    slow = [i for i in inputs if i[0] == "cli"][:1]
    result = run.run_pass(slow, items.Tracer(False), 0)
    assert result["failed"] == 1
    assert result["errors"] == Counter({"timeout": 1})


def test_traced_pass_nests_spans_under_item_spans():
    inputs = run.build_inputs("membership", 1)[:40]
    tr = items.Tracer(True)
    run.run_pass(inputs, tr, 1)
    roots = {s[0]: s for s in tr.spans if s[4] is None}
    for item_id, name, start, end, parent, probe in tr.spans:
        if parent is None:
            continue
        top = roots[item_id]
        assert parent == top[1] and top[2] <= start <= end <= top[3]
    names = {s[1] for s in tr.spans}
    assert {"exactalg.from_roots", "exactalg.gcd_many", "exactalg.complex_roots_many"} <= names


def test_printed_metrics_are_the_ones_benchmark_json_declares():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = run.build_inputs("invariants", 1)[:25] + run.build_inputs("membership", 1)[:10]
    passes = []
    for k in range(4):
        tr = items.Tracer(k % 2 == 1)
        passes.append(dict(run.run_pass(inputs, tr, k), traced=tr.enabled, spans=tr.spans))
    for metrics, key in ((run.end_to_end(passes, [1.0]), "end_to_end"), (run.per_layer(passes), "per_layer")):
        assert {(k, u) for k, (_, u) in metrics.items()} == {(m["name"], m["unit"]) for m in declared[key]}
