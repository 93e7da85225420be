"""Command-line front end.

Every operation is scriptable: inputs arrive as JSON on stdin or from a
file (--input), outputs are JSON or CSV on stdout, and all randomness is
seeded.  Exit codes: 0 on success (a "false" membership verdict is a
success), 1 on a domain error (valid input, illegal mathematics), 2 on a
usage error (bad flags or malformed input).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .case12 import HalfPlaneConfig, electric_degree
from .case21 import component_of_21
from .case31 import model_from_json, pi1_winding, r_tilde, r_tilde_exact
from .exactalg import poly_from_json, poly_to_json, scalar_to_json
from .harness import census, invariant_sweep
from .mapdeg import map_degree
from .nonres import InputError, SystemTuple, is_member, jet, stability_dimension
from .stab import stabilize_with_report

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _read_json(args):
    """Parse the JSON document named by --input ('-' = stdin)."""
    path = getattr(args, "input", "-")
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read --input {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc


def _parsed(build, obj):
    # constructor failures are the caller's fault, not domain errors
    try:
        return build(obj)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _rational_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational 'p/q', got {text!r}") from exc


def _f15(x: float) -> float:
    """Round a float to 15 significant digits for stable output."""
    return float(f"{float(x):.15g}")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_stability_dim(args) -> int:
    print(stability_dimension(args.d, args.m, args.n))
    return 0


def _cmd_member(args) -> int:
    t = _parsed(SystemTuple.from_json, _read_json(args))
    print("true" if is_member(t) else "false")
    return 0


def _cmd_jet(args) -> int:
    f = _parsed(poly_from_json, _read_json(args))
    _emit([poly_to_json(c) for c in jet(f, args.n).components])
    return 0


def _cmd_degree(args) -> int:
    t = _parsed(SystemTuple.from_json, _read_json(args))
    print(map_degree(t, [1] * (t.m * t.n)))  # any covector with a nonzero sum gives this degree
    return 0


def _cmd_rp1_degree(args) -> int:
    t = _parsed(SystemTuple.from_json, _read_json(args))
    print(component_of_21(t).j)
    return 0


def _cmd_r_d(args) -> int:
    m = _parsed(model_from_json, _read_json(args))
    raw = r_tilde(m)
    value = raw / abs(raw)  # r_d, from the one evaluation of r_tilde
    exact = r_tilde_exact(m)
    _emit(
        {
            "r_d": [_f15(value.real), _f15(value.imag)],
            "r_tilde": [_f15(raw.real), _f15(raw.imag)],
            "r_tilde_exact": None if exact is None else scalar_to_json(exact),
        }
    )
    return 0


def _cmd_pi1(args) -> int:
    obj = _read_json(args)
    if not isinstance(obj, list):
        raise InputError("loop JSON must be a list of model objects")
    models = [_parsed(model_from_json, entry) for entry in obj]
    print(pi1_winding(models))
    return 0


def _cmd_electric_degree(args) -> int:
    config = _parsed(HalfPlaneConfig.from_json, _read_json(args))
    print(electric_degree(config))
    return 0


def _cmd_census(args) -> int:
    rows = census(args.case, args.d, args.trials, args.seed).items()
    if args.format == "csv":
        print(f"# case={args.case} d={args.d} trials={args.trials} seed={args.seed}")
        print("j,count")
        for j, count in rows:
            print(f"{j},{count}")
    else:
        _emit(
            {
                "case": args.case,
                "d": args.d,
                "trials": args.trials,
                "seed": args.seed,
                "counts": [[j, count] for j, count in rows],
            }
        )
    return 0


def _cmd_stabilize(args) -> int:
    t = _parsed(SystemTuple.from_json, _read_json(args))
    report = stabilize_with_report(t, T=args.T, case=args.case)
    _emit(report.to_json())
    return 0


def _cmd_sweep(args) -> int:
    report = invariant_sweep(args.case, args.d, args.trials, args.seed)
    payload = report.to_bytes()
    if args.out is not None:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("ascii") + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="nonresultant",
        description="Spaces of polynomial tuples without common roots of "
        "bounded multiplicity: membership, invariants, censuses, sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        if needs_input:
            p.add_argument(
                "--input",
                default="-",
                help="JSON input path, '-' for stdin (default)",
            )
        return p

    p = add("stability-dim", _cmd_stability_dim, "dimension bound for stable classes", needs_input=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    add("member", _cmd_member, "exact membership verdict for a system tuple")

    p = add("jet", _cmd_jet, "jet components of one polynomial")
    p.add_argument("--n", type=int, required=True, help="jet order (>= 1)")

    add(
        "degree",
        _cmd_degree,
        "topological degree of the point map: d - deg gcd of the jet components, "
        "exact on non-members too and independent of any covector",
    )

    add("rp1-degree", _cmd_rp1_degree, "half-winding label of a real pair (m=2, n=1)")

    add("r-d", _cmd_r_d, "alternating root invariant of a triple model (m=3, n=1)")

    add("pi1", _cmd_pi1, "exact pi_1 class of a sampled loop: a signed count of ray crossings")

    add("electric-degree", _cmd_electric_degree, "degree of the field map of a configuration")

    p = add("census", _cmd_census, "label counts over random members", needs_input=False)
    p.add_argument("--case", required=True, choices=["21", "12"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("stabilize", _cmd_stabilize, "degree-raising stabilization with a report")
    p.add_argument(
        "--T",
        type=_rational_flag,
        default=None,
        help="shift parameter 'p/q' (default: stab.recommended_T, a pointwise bound for this one "
        "tuple; stabilizing the vertices of a (3,1) loop one by one needs --T set to stab.loop_T "
        "of the whole loop, or the loop's class may change)",
    )
    p.add_argument("--case", default=None, choices=["31", "12", "mult"], help="construction override")

    p = add("sweep", _cmd_sweep, "seeded invariant sweep report", needs_input=False)
    p.add_argument("--case", required=True, choices=["21", "12", "31"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="write the report to this path instead of stdout")

    return parser


def main(argv=None) -> int:
    # exact numbers have no digit limit, read or written; the caller's is restored
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"nonresultant: input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"nonresultant: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
