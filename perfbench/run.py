"""The repository benchmark: seeded workloads driven through the public API.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 30 --trace 0

Run from the repository root; `src/` is put on the import path, nothing is
installed.  The workloads, and why each was chosen, are listed in
BENCHMARK.json:

  membership        real tuples over five shapes, planted common roots
  membership-gauss  the same recipe over C with Gaussian roots
  invariants        labels, degrees, r-tilde, stabilization, path
                    certificates and CLI calls on coefficient JSON

Load model: one process, one caller, closed loop (each item starts when the
previous one ends), BLAS pinned to one thread.  The seeded input set is run in
whole passes until --seconds have been spent in passes; every pass must
reproduce the first pass's output digest.  Each item has a deadline
(ITEM_DEADLINE_S); an overrun, an exception or a wrong answer counts as a
failed item and is never retried.

Latencies are per item, each item's fastest repeat over the passes: this
machine's speed drifts by up to 2x within seconds, and the least of repeats
spread over the run is what the code costs.  item_p50_ms and item_p99_ms are
nearest-rank percentiles over those 1000 per-item values (ten lie beyond the
p99); items_per_s is items over their summed latencies plus, for the
membership workloads, the fastest numeric batch.

--trace 0 prints the end-to-end metrics.  setup_s is the median, over
SETUP_PROBES fresh interpreters started one at a time between passes, of the
wall time from process start to inputs built (import nonresultant plus
generation).

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: `<layer>.calls` in one pass, `<layer>.s` busy seconds in a pass (the
least over traced passes), per-kind median latencies, exact counts, and
trace.overhead_ratio (traced items/s over untraced items/s, probe time
excluded).  The spans of the first traced pass go to
.perfbench/spans-<workload>-<seed>.jsonl.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the lines before it are a readable report and the run
record (machine, versions, commit, seed, sample counts, exact counts,
digest), which is also written under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# one BLAS thread: the load model is a single caller on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# items per pass: 1000 puts ten per-item latencies beyond the p99
WORKLOADS = {"membership": 1000, "membership-gauss": 1000, "invariants": 1000}
# an item that runs longer than this counts as failed: hangs show as errors,
# not stalls (the slowest item seen on the current code takes ~0.1 s)
ITEM_DEADLINE_S = 5.0
BATCH_DEADLINE_S = 60.0
SETUP_PROBES = 5

# which end-to-end metric each layer metric is expected to move
LAYER_EFFECTS = (
    ("exactalg.from_roots.s", "items_per_s, item_p50_ms", "membership, membership-gauss", "invariants"),
    ("exactalg.gcd_many.s", "items_per_s, item_p99_ms (non-members)", "membership (Z), membership-gauss (Z[i])", "-"),
    ("exactalg.squarefree_decomposition.s", "items_per_s, item_p99_ms (non-members)", "membership (Z), membership-gauss (Z[i])", "-"),
    ("exactalg.complex_roots_many.s", "items_per_s only", "membership, membership-gauss", "item_p50_ms anywhere"),
    ("exactalg.real_roots_exact.s", "item_p99_ms, items_per_s", "invariants", "membership*"),
    ("exactalg.count_distinct_real_roots.s", "item_p99_ms, items_per_s", "invariants", "membership*"),
    ("exactalg.resultant_exact.s", "item_p99_ms, items_per_s", "invariants", "membership*"),
    ("harness.certify_path.samples", "item_p99_ms, items_per_s", "invariants", "membership*"),
    ("mapdeg.rp1_degree.s", "item_p50_ms", "invariants", "membership*"),
    ("mapdeg.map_degree.s", "item_p50_ms", "invariants", "membership*"),
    ("case21.component_of_21.s", "item_p50_ms", "invariants", "membership*"),
    ("cli.main.s", "item_p50_ms", "invariants", "setup_s (tracks import only)"),
)


class ItemTimeout(Exception):
    """An item ran past its deadline."""


def _alarm(signum, frame):
    raise ItemTimeout()


def build_inputs(workload: str, seed: int) -> list:
    """(kind, prepared data, expected) for one pass, all made from the seed."""
    import gen

    count = WORKLOADS[workload]
    if workload == "invariants":
        return [(it.kind, it.data, it.expected) for it in gen.invariant_items(seed, count)]
    field = "C" if workload == "membership-gauss" else "R"
    out = []
    for it in gen.membership_items(seed, count, field):
        entries, n, fld = it.data
        out.append((it.kind, ([e.program_roots() for e in entries], n, fld), it.expected))
    return out


def load(workload: str, seed: int) -> list:
    """Everything set-up does: import the program, then build the inputs."""
    sys.path[:0] = [str(SRC), str(Path(__file__).parent)]
    import nonresultant  # noqa: F401  (the whole package, as a user imports it)

    return build_inputs(workload, seed)


# ---------------------------------------------------------------------------
# one pass over the input set
# ---------------------------------------------------------------------------


def _timed(tr, item_id: str, parent: str, deadline: float, fn, *args) -> tuple:
    """fn(tr, *args) as one item span under a deadline: (result, error name
    or None, latency without probe time)."""
    tr.item_id, tr.parent, tr.probe_s = item_id, parent, 0.0
    result = error = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        result = fn(tr, *args)
    except ItemTimeout:
        error = "timeout"
    except Exception as exc:  # a failed item is counted, never raised
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    if tr.enabled:
        tr.spans.append((item_id, parent, start, end, None, False))
    return result, error, end - start - tr.probe_s


def run_pass(inputs: list, tr, pass_no: int) -> dict:
    from items import RUNNERS, run_numeric_batch

    signal.signal(signal.SIGALRM, _alarm)
    latencies, kinds, lines, errors = [], [], [], Counter()
    failed = set()
    counts: Counter = Counter()
    tuples = []
    batch_s = 0.0
    for idx, (kind, data, expected) in enumerate(inputs):
        runner, check = RUNNERS[kind]
        result, error, latency = _timed(
            tr, f"{pass_no}:{idx}", f"item.{kind}", ITEM_DEADLINE_S, runner, data
        )
        latencies.append(latency)
        kinds.append(kind)
        if error is None:
            try:
                lines.append(check(expected, result, counts))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed.add(idx)
            errors[error.split(":")[0]] += 1
            lines.append(f"failed {error}")
        elif kind == "member":
            tuples.append((idx, result[0], expected[1]))

    if tuples:
        numeric, error, batch_s = _timed(
            tr, f"{pass_no}:batch", "item.numeric_batch", BATCH_DEADLINE_S,
            run_numeric_batch, [t for _, t, _ in tuples],
        )
        if error is not None:
            errors[f"numeric batch {error}"] += 1
        for k, (idx, t, member) in enumerate(tuples):
            if numeric is None:
                failed.add(idx)
            elif (numeric[k] < t.n) != member:
                failed.add(idx)
                errors["numeric mismatch"] += 1
        lines.append("numeric " + ("failed" if numeric is None else " ".join(map(str, numeric))))

    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {
        "latencies": latencies,
        "batch_s": batch_s,
        "kinds": kinds,
        "failed": len(failed),
        "errors": errors,
        "counts": counts,
        "digest": digest,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def measure(inputs: list, args) -> tuple:
    """Whole passes until --seconds of them have run.  Untraced, a set-up
    probe runs before each of the first SETUP_PROBES passes, never during
    one.  Traced, passes alternate untraced/traced, at least two of each."""
    from items import Tracer

    passes, setups = [], []
    spent = 0.0
    while spent < args.seconds or len(passes) < (4 if args.trace else 2):
        if not args.trace and len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
        tr = Tracer(bool(args.trace) and len(passes) % 2 == 1)
        start = time.perf_counter()
        result = run_pass(inputs, tr, len(passes))
        spent += time.perf_counter() - start
        result["traced"] = tr.enabled
        result["spans"] = tr.spans
        passes.append(result)
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
    return passes, setups


def fastest(passes: list) -> tuple:
    """Each item's least latency over the passes, and the least batch time.
    The machine's speed drifts by up to 2x over seconds; the least of
    several repeats spread over the run is what the code costs."""
    latencies = [min(xs) for xs in zip(*(p["latencies"] for p in passes))]
    return latencies, min(p["batch_s"] for p in passes)


def items_per_s(passes: list) -> float:
    latencies, batch_s = fastest(passes)
    return len(latencies) / (sum(latencies) + batch_s)


def end_to_end(passes: list, setups: list) -> dict:
    lat = sorted(fastest(passes)[0])
    return {
        "items_per_s": (items_per_s(passes), "1/s"),
        "item_p50_ms": (1000 * quantile(lat, 0.50), "ms"),
        "item_p99_ms": (1000 * quantile(lat, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


PER_LAYER_NAMES = (
    "exactalg.from_roots", "exactalg.poly_from_json", "nonres.is_member",
    "nonres.is_member_via_jets", "harness.numeric_common_multiplicities",
    "case21.component_of_21", "case12.component_of_12", "case12.to_configuration",
    "case12.electric_degree", "case31.phi", "case31.r_tilde", "mapdeg.map_degree",
    "stab.stabilize_with_report", "harness.certify_path", "cli.main",
    # probes
    "exactalg.gcd_many", "exactalg.squarefree_decomposition", "nonres.jet",
    "exactalg.complex_roots_many", "exactalg.real_roots_exact",
    "exactalg.count_distinct_real_roots", "mapdeg.rp1_degree", "harness.path_tuple",
    "harness.locate_violation", "exactalg.resultant_exact",
)
KINDS = ("label21", "label12", "r_tilde31", "map_degree", "stabilize", "path", "cli")
COUNT_NAMES = (
    "exactalg.from_roots.degree_sum", "exactalg.inputs.max_coeff_bits",
    "nonres.is_member.nonmembers", "exactalg.real_roots_exact.roots",
    "exactalg.resultant_exact.max_bits", "harness.certify_path.samples",
    "harness.certify_path.violations",
)


def per_layer(passes: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    calls, busy = [], []
    for p in traced:
        calls.append(Counter())
        busy.append(defaultdict(float))
        for _, name, start, end, parent, _ in p["spans"]:
            if parent is not None:
                calls[-1][name] += 1
                busy[-1][name] += end - start
    out = {}
    for name in PER_LAYER_NAMES:
        out[f"{name}.calls"] = (calls[0][name], "count")
        out[f"{name}.s"] = (min(b[name] for b in busy), "s")
    by_kind = defaultdict(list)
    for kind, x in zip(plain[0]["kinds"], fastest(plain)[0]):
        by_kind[kind].append(x)
    for kind in KINDS:
        xs = sorted(by_kind.get(kind, ()))
        out[f"{kind}.p50_ms"] = (1000 * quantile(xs, 0.5) if xs else 0.0, "ms")
    for name in COUNT_NAMES:
        out[name] = (traced[0]["counts"][name], "count")
    out["trace.overhead_ratio"] = (items_per_s(traced) / items_per_s(plain), "ratio")
    return out


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nonresultant").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, passes: list, inputs: list) -> dict:
    import numpy

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    # traced passes also hold the counts only probes make
    counted = next((p for p in passes if p["traced"]), passes[0])
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in declared if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_sha256(),
        "item_deadline_s": ITEM_DEADLINE_S,
        "items_per_pass": len(inputs),
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        # p50/p99 are taken over one latency per item, its fastest repeat
        "percentile_samples": len(inputs),
        "repeats_per_item": sum(not p["traced"] for p in passes),
        "pass_p50_ms": [1000 * statistics.median(p["latencies"]) for p in passes],
        "errors": dict(sum((p["errors"] for p in passes), Counter())),
        "digest": passes[0]["digest"],
        "exact_counts": dict(sorted(counted["counts"].items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "nonresultant" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'nonresultant'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        load(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    inputs = load(args.workload, args.seed)
    passes, setups = measure(inputs, args)

    attempted = len(inputs) * len(passes)
    failed = sum(p["failed"] for p in passes)
    steady = all(p["digest"] == passes[0]["digest"] for p in passes)
    record = run_record(args, passes, inputs)
    record["digests_agree"] = steady
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setups)
        record["setup_s_samples"] = setups
    record["attempted"], record["failed"] = attempted, failed
    record["error_rate"] = failed / attempted

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    (OUT / f"record-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        traced = next(p for p in passes if p["traced"])
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for item, name, start, end, parent, probe in traced["spans"]:
                fh.write(json.dumps({"item": item, "name": name, "start": start, "end": end,
                                     "parent": parent, "probe": probe}) + "\n")

    report(args, metrics, record)
    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, metrics: dict, record: dict) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} items in {record['passes']} passes of "
          f"{record['items_per_pass']}; percentiles over {record['percentile_samples']} items, "
          f"each the fastest of {record['repeats_per_item']} untraced repeats; "
          f"error_rate {record['error_rate']:.6g} ({record['failed']} failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    if args.trace:
        print("# expected effects (layer metric -> end-to-end metric, workload):")
        for name, moves, on, not_on in LAYER_EFFECTS:
            value, unit = metrics.get(name, (None, ""))
            shown = "-" if value is None else f"{value:.6g} {unit}"
            print(f"  {name:40s} {shown:>18s}  moves {moves} on {on}; not on {not_on}")
    print("# record " + json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
