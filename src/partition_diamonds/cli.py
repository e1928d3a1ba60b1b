"""Command-line surface: coefficient tables, identity suites, oracle
cross-validation, congruence verification, and progression scanning.

Exit codes are strict: 0 means success (or all claims verified/held),
1 means a mathematical counterexample or failed identity, 2 means a usage
or budget error, or (from the pdiamonds script) a reader that closed stdout
early.  Only identities takes --seed, with a fixed default, so identical
invocations produce byte-identical output.  Only oracle and verify take
--budget, the work guard (default 1e9), validated before any estimate.
COMMANDS holds every flag and default; parse_args reads argv from it as
argparse did, without importing argparse or re.  BOUNDS holds every bound
on a flag's value, and main refuses a value outside it, on every command
that takes the flag, with exit 2 before any guard, build or check: a check
or scan over nothing would pass on nothing.

cli is the one module that shapes output: series_to_json_dict and
report_to_json_dict give a series and a claim report their JSON shapes, and
_emit prints JSON, CSV or plain rows; the library modules return values.
"""

import os
import sys
from itertools import product
from types import SimpleNamespace

from .congruences import (ClaimReport, builtin_claims, claim_by_label,
                          scan_progressions, verify_claims)
from .genfun import (ddn_series_closed, mersmann_F_series, rd_series,
                     sd_series)
from .omega import crude_Dd1_check, run_omega_suite
from .oracle import (BudgetError, count_rd_upto, count_sd_upto,
                     series_Ddn_bruteforce)
from .polynomials import eulerian_poly, fd_at_w1
from .series import (RingSpec, TruncatedSeries, ZZ, jacobi_cube_series,
                     pentagonal_series, product_family)

DEFAULT_SEED = int.from_bytes(b"D1A30ND5", "big")  # fixed 64-bit mnemonic


def series_to_json_dict(s: TruncatedSeries) -> dict:
    ring = "Z" if s.ring.modulus is None else {"mod": s.ring.modulus}
    return {"ring": ring, "order": s.order, "coeffs": [str(c) for c in s.coeffs]}


def report_to_json_dict(report: ClaimReport) -> dict:
    """ClaimReport as a JSON-ready dict; conjectural claims get their own
    status strings so a failed conjecture is not confused with a bug."""
    claim = report.claim
    verified = report.status == "verified_up_to_bounds"
    if claim.conjectural:
        status = "conjecture-held" if verified else "conjecture-failed"
    else:
        status = "verified" if verified else "counterexample"
    return {
        "claim": {
            "label": claim.label,
            "d_stride": claim.d_stride,
            "d_offset": claim.d_offset,
            "prog_modulus": claim.prog_modulus,
            "residue": claim.residue,
            "modulus": "2^d" if claim.power_of_two_in_d else claim.modulus,
            "conjectural": claim.conjectural,
        },
        "status": status,
        "k_max": report.k_max,
        "n_max": report.n_max,
        "witness": (None if report.witness is None
                    else report.witness._asdict()),
    }


def _emit(payload, fmt: str = "json", header=(), rows=(),
          plain_width: int | None = None) -> None:
    """Print `payload` as JSON, or `rows` as CSV under `header`, or as plain
    space-separated lines of their first `plain_width` columns.

    Commands without a table (identities, oracle) accept only JSON.
    """
    if fmt == "json":
        import json  # only json jobs pay for this import
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        import csv  # only csv jobs pay for this import
        writer = csv.writer(sys.stdout, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for row in rows:
            print(*row[:plain_width])


def _check_n(kind: str, flag: str, n: int | None) -> None:
    """--n is the ddn cell count: required there, refused elsewhere."""
    if kind != "ddn":
        if n is not None:
            raise ValueError(f"--n applies only to {flag} ddn, not {kind}")
    elif n is None:
        raise ValueError(f"{flag} ddn requires --n")


def _closed_form(kind: str, d: int, order: int, n: int | None = None,
                 mod: int | None = None) -> TruncatedSeries:
    """The rd, sd or ddn closed form below `order`, over Z/mod if given."""
    # RingSpec refuses a bad modulus before anything is built
    ring = ZZ if mod is None else RingSpec(mod)
    if kind == "ddn":
        return ddn_series_closed(d, n, order, ring)
    build = rd_series if kind == "rd" else sd_series
    return build(d, order, ring)


def cmd_coeffs(args: SimpleNamespace) -> int:
    _check_n(args.series, "--series", args.n)
    series = _closed_form(args.series, args.d, args.N, args.n, args.mod)
    payload = series_to_json_dict(series)
    _emit(payload, args.format, ("index", "coefficient"),
          enumerate(payload["coeffs"]))
    return 0


def _check_eulerian(d_max: int) -> tuple:
    bad = [d for d in range(1, d_max + 1)
           if fd_at_w1(d) != eulerian_poly(d)]
    return not bad, {"d_max": d_max, "failures": bad}


def _check_euler_factor(order: int) -> tuple:
    bad = []
    for d in range(1, 7):
        power_sum = TruncatedSeries.from_terms(
            {j: (j + 1) ** d for j in range(order)}, order, ZZ)
        closed = (TruncatedSeries.from_coeffs(eulerian_poly(d), order)
                  * TruncatedSeries.from_terms({0: 1, 1: -1}, order, ZZ)
                  ** (-(d + 1)))
        if power_sum != closed:
            bad.append(d)
    return not bad, {"order": order, "failures": bad}


def _check_pentagonal(order: int) -> tuple:
    direct = product_family(
        lambda n: TruncatedSeries.from_terms({0: 1, n: -1}, order, ZZ),
        order, ZZ)
    return pentagonal_series(order) == direct, {"order": order}


def _check_jacobi(order: int) -> tuple:
    ok = jacobi_cube_series(order) == pentagonal_series(order) ** 3
    return ok, {"order": order}


def _check_mersmann(order: int) -> tuple:
    return mersmann_F_series(order).agree, {"order": order}


def _check_omega(instances: int, seed: int) -> tuple:
    report = run_omega_suite(instances, seed)
    failures = [
        {"j": inst.j, "d": inst.d, "x_exponents": list(inst.x_exponents),
         "y_exponent": inst.y_exponent}
        for inst in report.failures
    ]
    return not failures, {"instances": report.instances, "failures": failures}


def _check_crude() -> tuple:
    order = 15
    bad = []
    for d in (1, 2, 3):
        for exps in product((1, 2), repeat=3):
            if not crude_Dd1_check(d, *exps, order):
                bad.append({"d": d, "exponents": list(exps)})
    return not bad, {"order": order, "failures": bad}


# --only choices, in run order; each check returns (passed, detail) and is
# looked up when it runs
IDENTITY_CHECKS = {
    "eulerian": lambda args: _check_eulerian(args.d_max),
    "euler-factor": lambda args: _check_euler_factor(min(args.N, 60)),
    "pentagonal": lambda args: _check_pentagonal(args.N),
    "jacobi": lambda args: _check_jacobi(args.N),
    "mersmann": lambda args: _check_mersmann(args.N),
    "omega": lambda args: _check_omega(args.instances, args.seed),
    "crude": lambda args: _check_crude(),
}


def cmd_identities(args: SimpleNamespace) -> int:
    checks = []
    for name in [args.only] if args.only else IDENTITY_CHECKS:
        ok, detail = IDENTITY_CHECKS[name](args)
        checks.append({"name": name, "passed": ok, "detail": detail})
    passed = all(c["passed"] for c in checks)
    _emit({"checks": checks, "passed": passed})
    return 0 if passed else 1


def cmd_oracle(args: SimpleNamespace) -> int:
    _check_n(args.kind, "--kind", args.n)
    mismatches = []
    # the guarded enumeration runs first, so a refused job builds no
    # comparison series (its guard only sums the closed form it checks)
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


def cmd_verify(args: SimpleNamespace) -> int:
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
    rows = [[d["claim"]["label"], d["status"],
             *map(str, r.witness or ("", "", ""))]
            for d, r in zip(dicts, reports)]
    # plain output is "label status" only
    _emit({"reports": dicts}, args.format,
          ("label", "status", "witness_d", "witness_index", "witness_value"),
          rows, plain_width=2)
    ok = all(r.status == "verified_up_to_bounds" for r in reports)
    return 0 if ok else 1


def cmd_scan(args: SimpleNamespace) -> int:
    series = _closed_form(args.series, args.d, args.N, mod=args.m)
    found = scan_progressions(series, args.M_max, args.min_support)
    _emit({"series": args.series, "d": args.d, "m": args.m,
           "M_max": args.M_max, "N": args.N,
           "progressions": [{"M": M, "r": r} for M, r in found]},
          args.format, ("M", "r"), found)
    return 0


REQUIRED = object()  # the default of a flag that must be given
WIDTH, KINDS = (int, REQUIRED, None, None), ("rd", "sd", "ddn")
LENGTH = (int, None, None, "length (ddn only)")
BUDGET = (int, None, None, "work guard, a positive integer, checked before "
          "any estimate (default 1e9)")
FORMAT = {"--format": (str, "json", ("json", "csv", "plain"), None)}
JSON_ONLY = {"--format": (str, "json", ("json",), None)}  # no table to print

# command -> (handler, help, {flag: (type, default, choices, help)})
COMMANDS = {
    "coeffs": (cmd_coeffs, "print series coefficients", {
        "--series": (str, REQUIRED, KINDS, None), "--d": WIDTH, "--n": LENGTH,
        "--N": (int, 100, None, "truncation order"),
        "--mod": (int, None, None, "reduce coefficients mod m"), **FORMAT}),
    "identities": (cmd_identities, "run the identity check suite", {
        "--only": (str, None, IDENTITY_CHECKS, None),
        "--d-max": (int, 12, None, None), "--N": (int, 100, None, None),
        "--instances": (int, 200, None, "random elimination instances"),
        "--seed": (int, DEFAULT_SEED, None, None), **JSON_ONLY}),
    "oracle": (cmd_oracle, "closed form vs raw enumeration", {
        "--kind": (str, REQUIRED, KINDS, None), "--d": WIDTH, "--n": LENGTH,
        "--N": (int, 20, None, None), "--budget": BUDGET, **JSON_ONLY}),
    "verify": (cmd_verify, "verify congruence claims", {
        "--all": (bool, False, None, None),
        "--claim": (str, None, None, "a claim label (see --list)"),
        "--list": (bool, False, None, "list builtin claim labels"),
        "--k-max": (int, 2, None, None), "--n-max": (int, 40, None, None),
        "--budget": BUDGET, **FORMAT}),
    "scan": (cmd_scan, "search a series for zero progressions", {
        "--series": (str, "sd", ("rd", "sd"), None), "--d": WIDTH,
        "--m": (int, REQUIRED, None, "residue modulus"),
        "--M-max": (int, REQUIRED, None, None), "--N": (int, 100, None, None),
        "--min-support": (int, 10, None, None), **FORMAT}),
}
ONE_OF = ("--all", "--claim", "--list")  # verify takes exactly one of these
HELP = ("-h", "--help")
MAX_CLI_D = 64  # d! coefficient growth; a CLI guard, not a library limit
# flag -> (least, most or None)
BOUNDS = {"--d": (1, MAX_CLI_D), "--d-max": (1, MAX_CLI_D), "--n": (1, None),
          "--N": (1, None), "--M-max": (1, None), "--min-support": (1, None),
          "--instances": (1, None)}


def _attr(flag: str) -> str:
    """The attribute a flag sets: "--M-max" sets M_max."""
    return flag[2:].replace("-", "_")


def _usage(command: str | None) -> str:
    return (f"usage: pdiamonds {command} [-h] [flags]" if command else
            "usage: pdiamonds [-h] {" + ",".join(COMMANDS) + "} ...")


def _help(command: str | None):
    """Print the usage and what each command or flag takes; exit 0."""
    if command is None:
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        rows = []
        for flag, (_, default, choices, text) in COMMANDS[command][2].items():
            notes = [text] if text else []
            if choices:
                notes.append("one of " + ", ".join(choices))
            if default is REQUIRED:
                notes.append("required")
            elif flag in ONE_OF:
                notes.append("exactly one of " + "/".join(ONE_OF))
            elif default is not None:
                notes.append(f"default {default}")
            rows.append((flag, "; ".join(notes)))
    print(_usage(command), *(f"  {a:16}{b}" for a, b in rows), sep="\n")
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    print(_usage(command), f"pdiamonds{' ' + command if command else ''}: "
          f"error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _classify(token: str, names, command: str | None):
    """None for a value, else (name, explicit value or None), with name None
    for an unknown option.  A name is given whole, as name=value, as a long
    name's unique prefix, or as -h followed by more h's or a value."""
    name, eq, explicit = token.partition("=")
    if not eq:
        explicit = None
    if name in names:
        return name, explicit
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if token.startswith("--"):
        found = [n for n in names if n.startswith(name)]
    elif token[1] == "h":
        found = ["-h"]
        explicit = token[2:].lstrip("h") or None  # "-hh" is -h twice
    else:
        found = []
    if len(found) > 1:
        _fail(command, f"ambiguous option: {token} could match "
                       + ", ".join(found))
    if found:
        return found[0], explicit
    # argparse's ^-\d+$|^-\d*\.\d+$; \d is isdecimal, $ allows a final \n
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    if ((whole + frac).isdecimal() and (frac or not dot)) or " " in token:
        return None  # a negative number or spaced text is a value
    return None, None


def _value(command: str | None, name: str, kind, text: str | None, choices):
    if text is None:
        _fail(command, f"argument {name}: expected one argument")
    try:
        value = kind(text)
    except ValueError:
        _fail(command, f"argument {name}: invalid {kind.__name__} value: "
                       f"{text!r}")
    if choices is not None and value not in choices:
        _fail(command, f"argument {name}: invalid choice: {value!r} (choose "
                       f"from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv=None) -> SimpleNamespace:
    """The command, its handler and one attribute per flag (named by
    _attr), read from COMMANDS; a usage error exits 2 and help exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command, handler, flags = None, None, {}
    given, extras = {}, []
    options = [_classify(token, HELP, None) for token in argv]
    cut = len(argv)  # where the options end: at "--", or the end of argv
    j = 0
    while j < cut:
        token, option = argv[j], options[j]
        j += 1
        if option is None and command is None:
            command = _value(None, "command", str, token, COMMANDS)
            handler, _, flags = COMMANDS[command]
            if "--" in argv[j:]:
                cut = argv.index("--", j)
            options[j:cut] = [_classify(t, (*HELP, *flags), command)
                              for t in argv[j:cut]]
            continue
        if option is None or option[0] is None:  # a stray value or option
            extras.append(token)
            continue
        flag, value = option
        # -h/--help is the one flag that the table does not hold
        kind, _, choices, _ = flags.get(flag, (bool, None, None, None))
        if kind is bool:  # a store-true flag or help takes no value
            if value is not None:
                name = "/".join(HELP) if flag in HELP else flag
                _fail(command, f"argument {name}: ignored explicit argument "
                               f"{value!r}")
            if flag in HELP:
                _help(command)
            value = True
        else:
            if value is None and j < cut and options[j] is None:
                value = argv[j]
                j += 1
            value = _value(command, flag, kind, value, choices)
        # as in argparse, a group conflict is checked after the value
        others = [f for f in ONE_OF if f in given and f != flag]
        if flag in ONE_OF and others:
            _fail(command, f"argument {flag}: not allowed with argument "
                           f"{others[0]}")
        given[flag] = value
    missing = [f for f, spec in flags.items()
               if spec[1] is REQUIRED and f not in given]
    if command is None or missing:
        _fail(command, "the following arguments are required: "
                       + (", ".join(missing) or "command"))
    if ONE_OF[0] in flags and not given.keys() & ONE_OF:
        _fail(command, f"one of the arguments {' '.join(ONE_OF)} is required")
    if extras or cut < len(argv):
        _fail(None, "unrecognized arguments: "
                    + " ".join(extras + argv[cut:]))
    return SimpleNamespace(command=command, handler=handler, **{
        _attr(f): given.get(f, s[1]) for f, s in flags.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    flags = COMMANDS[args.command][2]
    # interpreters since 3.10.7 refuse str() of a long int; exact output
    # lifts that limit while the job runs, so no setting changes stdout
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    try:
        for flag, (least, most) in BOUNDS.items():
            value = getattr(args, _attr(flag)) if flag in flags else None
            if value is None:  # a flag the command lacks, or --n left out
                continue
            if value < least:
                raise ValueError(f"{flag} must be >= {least}, got {value}")
            if most is not None and value > most:
                raise ValueError(f"{flag} is capped at {most}")
        if set_digits is None:
            return args.handler(args)
        limit = sys.get_int_max_str_digits()
        set_digits(0)
        try:
            return args.handler(args)
        finally:
            set_digits(limit)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    # a size past the machine's index range raises OverflowError
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
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
