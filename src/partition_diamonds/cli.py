"""Command-line surface: coefficient tables, identity suites, oracle
cross-validation, congruence verification, and progression scanning.

Exit codes are strict: 0 means success (or all claims verified/held),
1 means a mathematical counterexample or failed identity, 2 means a usage
or budget error, or (from the pdiamonds script) a reader that closed stdout
early.  Only identities takes --seed, with a fixed default, so identical
invocations produce byte-identical output.  Only oracle and verify take
--budget, the work guard, else DIAMOND_BUDGET, validated before any estimate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product

from .congruences import (builtin_claims, claim_by_label,
                          report_to_json_dict, scan_progressions, verify_claims)
from .genfun import (ddn_series_closed, mersmann_F_series, rd_series,
                     sd_series)
from .omega import crude_Dd1_check, run_omega_suite
from .oracle import (BudgetError, count_rd_upto, count_sd_upto,
                     series_Ddn_bruteforce)
from .polynomials import eulerian_poly, fd_at_w1
from .series import (RingSpec, TruncatedSeries, ZZ, jacobi_cube_series,
                     pentagonal_series, product_family, reduce_mod,
                     series_to_json_dict)

DEFAULT_SEED = int.from_bytes(b"D1A30ND5", "big")  # fixed 64-bit mnemonic
BUDGET_HELP = ("work guard, a positive integer, checked before any estimate "
               "(default DIAMOND_BUDGET, else 1e9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdiamonds",
        description="Exact toolkit for d-fold partition diamond series "
                    "and their congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, formats=("json", "csv", "plain")):
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("coeffs", help="print series coefficients")
    p.add_argument("--series", choices=("rd", "sd", "ddn"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="length (ddn only)")
    p.add_argument("--N", type=int, default=100, help="truncation order")
    p.add_argument("--mod", type=int, default=None,
                   help="reduce coefficients mod m")
    common(p, cmd_coeffs)

    p = sub.add_parser("identities", help="run the identity check suite")
    p.add_argument("--only", choices=IDENTITY_CHECKS, default=None)
    p.add_argument("--d-max", type=int, default=12)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--instances", type=int, default=200,
                   help="random elimination instances")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, cmd_identities, formats=("json",))

    p = sub.add_parser("oracle", help="closed form vs raw enumeration")
    p.add_argument("--kind", choices=("rd", "sd", "ddn"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="length (ddn only)")
    p.add_argument("--N", type=int, default=20)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    common(p, cmd_oracle, formats=("json",))

    p = sub.add_parser("verify", help="verify congruence claims")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--claim", type=str, default=None,
                       help="a claim label (see --list)")
    group.add_argument("--list", action="store_true",
                       help="list builtin claim labels")
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    common(p, cmd_verify)

    p = sub.add_parser("scan", help="search a series for zero progressions")
    p.add_argument("--series", choices=("rd", "sd"), default="sd")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="residue modulus")
    p.add_argument("--M-max", type=int, required=True, dest="M_max")
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--min-support", type=int, default=10)
    common(p, cmd_scan)

    return parser


# ---------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------

def _emit(payload, fmt: str = "json", header=(), rows=(),
          plain_width: int | None = None) -> None:
    """Print `payload` as JSON, or `rows` as CSV under `header`, or as plain
    space-separated lines of their first `plain_width` columns.

    Commands without a table (identities, oracle) accept only JSON.
    """
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        import csv  # only csv jobs pay for this import
        writer = csv.writer(sys.stdout, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for row in rows:
            print(*row[:plain_width])


# ---------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------

MAX_CLI_D = 64  # d! coefficient growth; a CLI guard, not a library limit


def _check_d(args: argparse.Namespace) -> None:
    if args.d < 1:
        raise ValueError(f"--d must be >= 1, got {args.d}")
    if args.d > MAX_CLI_D:
        raise ValueError(f"--d is capped at {MAX_CLI_D}")


def _check_positive(*flags) -> None:
    """Refuse any (flag, value) pair below 1 before doing any work."""
    for flag, value in flags:
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")


def _check_n(kind: str, flag: str, n: int | None) -> None:
    """--n is the ddn cell count: required there, refused elsewhere."""
    if kind == "ddn" and n is None:
        raise ValueError(f"{flag} ddn requires --n")
    if kind != "ddn" and n is not None:
        raise ValueError(f"--n applies only to {flag} ddn, not {kind}")


def _closed_form(kind: str, d: int, order: int, n: int | None = None,
                 mod: int | None = None) -> TruncatedSeries:
    """The rd, sd or ddn closed form below `order`, over Z/mod if given."""
    # RingSpec refuses a bad modulus before anything is built
    ring = ZZ if mod is None else RingSpec(mod)
    if kind == "ddn":
        series = ddn_series_closed(d, n, order)
        # ddn has no ring argument
        return series if mod is None else reduce_mod(series, mod)
    build = rd_series if kind == "rd" else sd_series
    return build(d, order, ring)


def cmd_coeffs(args: argparse.Namespace) -> int:
    _check_d(args)
    _check_n(args.series, "--series", args.n)
    series = _closed_form(args.series, args.d, args.N, args.n, args.mod)
    _emit(series_to_json_dict(series), args.format, ("index", "coefficient"),
          ((i, str(c)) for i, c in enumerate(series.coeffs)))
    return 0


def _check_eulerian(d_max: int) -> dict:
    bad = [d for d in range(1, d_max + 1)
           if fd_at_w1(d) != eulerian_poly(d)]
    return {"name": "eulerian", "passed": not bad,
            "detail": {"d_max": d_max, "failures": bad}}


def _check_euler_factor(order: int) -> dict:
    bad = []
    for d in range(1, 7):
        power_sum = TruncatedSeries.from_terms(
            {j: (j + 1) ** d for j in range(order)}, order, ZZ)
        closed = (eulerian_poly(d).to_series(order)
                  * TruncatedSeries.from_terms({0: 1, 1: -1}, order, ZZ)
                  ** (-(d + 1)))
        if power_sum != closed:
            bad.append(d)
    return {"name": "euler-factor", "passed": not bad,
            "detail": {"order": order, "failures": bad}}


def _check_pentagonal(order: int) -> dict:
    direct = product_family(
        lambda n: TruncatedSeries.from_terms({0: 1, n: -1}, order, ZZ),
        order, ZZ)
    ok = pentagonal_series(order) == direct
    return {"name": "pentagonal", "passed": ok, "detail": {"order": order}}


def _check_jacobi(order: int) -> dict:
    ok = jacobi_cube_series(order) == pentagonal_series(order) ** 3
    return {"name": "jacobi", "passed": ok, "detail": {"order": order}}


def _check_mersmann(order: int) -> dict:
    result = mersmann_F_series(order)
    return {"name": "mersmann", "passed": result.agree,
            "detail": {"order": order}}


def _check_omega(instances: int, seed: int) -> dict:
    report = run_omega_suite(instances, seed)
    failures = [
        {"j": inst.j, "d": inst.d, "x_exponents": list(inst.x_exponents),
         "y_exponent": inst.y_exponent}
        for inst in report.failures
    ]
    return {"name": "omega", "passed": not failures,
            "detail": {"instances": report.instances, "failures": failures}}


def _check_crude(order: int = 15) -> dict:
    bad = []
    for d in (1, 2, 3):
        for exps in product((1, 2), repeat=3):
            if not crude_Dd1_check(d, *exps, order):
                bad.append({"d": d, "exponents": list(exps)})
    return {"name": "crude", "passed": not bad,
            "detail": {"order": order, "failures": bad}}


# --only choices, in run order; each check is looked up when it runs
IDENTITY_CHECKS = {
    "eulerian": lambda args: _check_eulerian(args.d_max),
    "euler-factor": lambda args: _check_euler_factor(min(args.N, 60)),
    "pentagonal": lambda args: _check_pentagonal(args.N),
    "jacobi": lambda args: _check_jacobi(args.N),
    "mersmann": lambda args: _check_mersmann(args.N),
    "omega": lambda args: _check_omega(args.instances, args.seed),
    "crude": lambda args: _check_crude(),
}


def cmd_identities(args: argparse.Namespace) -> int:
    # a check over nothing would pass
    _check_positive(("--d-max", args.d_max), ("--N", args.N),
                    ("--instances", args.instances))
    names = [args.only] if args.only else IDENTITY_CHECKS
    checks = [IDENTITY_CHECKS[name](args) for name in names]
    passed = all(c["passed"] for c in checks)
    _emit({"checks": checks, "passed": passed})
    return 0 if passed else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    _check_d(args)
    _check_n(args.kind, "--kind", args.n)
    mismatches = []
    # the guarded enumeration runs first, so a refused job builds no series
    if args.kind == "ddn":
        counts = series_Ddn_bruteforce(args.d, args.n, args.N,
                                       args.budget).coeffs
    elif args.kind == "rd":
        counts = count_rd_upto(args.d, args.N - 1, args.budget)
    else:
        counts = count_sd_upto(args.d, args.N - 1, args.budget)
    closed = _closed_form(args.kind, args.d, args.N, args.n)
    for n, (got, want) in enumerate(zip(closed.coeffs, counts)):
        if got != want:
            mismatches.append({"index": n, "closed_form": str(got),
                               "enumeration": str(want)})
    report = {"kind": args.kind, "d": args.d, "N": args.N,
              "equal": not mismatches, "mismatches": mismatches}
    if args.kind == "ddn":
        report["n"] = args.n
    _emit(report)
    return 0 if not mismatches else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        rows = [(claim.label, "conjecture" if claim.conjectural else "theorem")
                for claim in builtin_claims()]
        _emit({"claims": [{"label": label, "kind": kind}
                          for label, kind in rows]},
              args.format, ("label", "kind"), rows)
        return 0
    if args.claim is not None:
        try:
            claims = [claim_by_label(args.claim)]
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    else:
        claims = list(builtin_claims())
    reports = verify_claims(claims, args.k_max, args.n_max, args.budget)
    dicts = [report_to_json_dict(r) for r in reports]
    rows = []
    for d in dicts:
        w = d["witness"] or {}
        rows.append([d["claim"]["label"], d["status"], str(w.get("d", "")),
                     str(w.get("index", "")), str(w.get("value", ""))])
    # plain output is "label status" only
    _emit({"reports": dicts}, args.format,
          ("label", "status", "witness_d", "witness_index", "witness_value"),
          rows, plain_width=2)
    ok = all(r.status == "verified_up_to_bounds" for r in reports)
    return 0 if ok else 1


def cmd_scan(args: argparse.Namespace) -> int:
    _check_d(args)
    # a progression that inspects no coefficient would be reported as zero
    _check_positive(("--M-max", args.M_max),
                    ("--min-support", args.min_support))
    series = _closed_form(args.series, args.d, args.N, mod=args.m)
    found = scan_progressions(series, args.M_max, args.min_support)
    _emit({"series": args.series, "d": args.d, "m": args.m,
           "M_max": args.M_max, "N": args.N,
           "progressions": [{"M": M, "r": r} for M, r in found]},
          args.format, ("M", "r"), found)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point it at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
