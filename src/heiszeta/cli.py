"""Command-line front end.

Subcommands: zeta (closed forms), verify (identity suites), coeffs
(Dirichlet coefficients, optionally against the brute-force oracle), oracle
(finite-ring enumerations), global (Euler-factor polynomial and numeric
residue factor).  Exit codes: 0 success, 1 mathematical mismatch, 2 usage or
guard violation, 141 stdout closed by its reader before the output was
written (as by `| head`).  The library refuses each numeric input out of its
range (errors.LIMITS): below the least value with one `usage:` line on
stderr, above the largest with one `guard:` line, both before any
computation.  Each command checks its own options first, before it computes
anything, and main opens `--out` before the command runs, truncated as by the
shell's `>`: a path that cannot be written is refused with one `usage:` line
before any work.  All output is deterministic for fixed inputs and version.

Library names load on first use: each command imports the modules it runs
inside its own function.  `--version` loads only this module and `errors`;
zeta, verify and global never load the oracles.  The verify checks, and the
second derivations they compare with, are in the package `verify`, which only
the verify command loads, one module per check, each imported when its check
runs; of the closed forms only form a, and of the checks only fibre and
crossform, load `combinat`; only `global --rn` loads the float code of
`numeric`.  The exact kernel `exactalg` loads its sum-and-division engine
`_engine` on the first sum, division, reduction or large product, so forms c
and graded, `global` and the residue check never load it.  `oracle
lagrangian` and `oracle sublattice` load `oracle` and `combinat`, and `oracle
factorization` also `counts`, for its integer Birkhoff numbers; no oracle
mode loads the exact kernel `exactalg`, the closed forms or `igusa`.  Only the functions that write JSON import `json`, and when
the command line starts with a command, main builds the parser of that
command only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .errors import HeiszetaError, SizeGuard, UsageError, check_limit, check_prime

# The exit code when the reader of stdout closes it before the output is
# written, 128 + SIGPIPE as a shell reports a process killed by SIGPIPE.
EXIT_PIPE = 141

# The commands, in the order in which the parser lists them.
COMMANDS = ("zeta", "verify", "coeffs", "oracle", "global")


def _zeta():
    """The module of the closed forms, imported on first use."""
    from . import zeta

    return zeta


# Each form is looked up in heiszeta.zeta when it runs, so that building the
# parser, which lists the form names, imports no library module.
FORMS = {
    "a": lambda n: _zeta().zeta_igusa_sum(n),
    "b": lambda n: _zeta().zeta_compact(n),
    "c": lambda n: _zeta().zeta_hyperoctahedral(n),
    "ideal": lambda n: _zeta().zeta_ideal(n),
    "graded": lambda n: _zeta().zeta_graded(n),
    "reduced": lambda n: _zeta().reduced_zeta(n),
}


def _render(f, fmt: str) -> str:
    from .exactalg import format_latex, format_plain, rational_to_json

    if fmt == "plain":
        return format_plain(f)
    if fmt == "latex":
        return format_latex(f)
    import json

    data = rational_to_json(f)
    data["version"] = __version__
    return json.dumps(data, sort_keys=True)


def cmd_zeta(args, out) -> int:
    print(_render(FORMS[args.form](args.n), args.output), file=out)
    return 0


def cmd_verify(args, out) -> int:
    """Run each check and print its report: the check's name and n, the
    status and detail the check returns, its seconds and the version.  A
    mismatch raised inside a check is its "fail" status, with the message as
    detail; a refusal ends the command.  n, the names in --checks and the
    size rows (verify.GUARDS) of every named check are checked first."""
    check_limit("verify", "n", args.n)
    checks = list(filter(None, map(str.strip, args.checks.split(","))))
    if not checks:
        raise UsageError("--checks names no check")
    from .verify import CHECKS, GUARDS

    for name in checks:
        if name not in CHECKS:
            raise UsageError("unknown check %r" % name)
    for name in checks:
        for owner, what in GUARDS[name]:
            check_limit(owner, what, args.n)
    reports = []
    failed = None
    for name in checks:
        t0 = time.perf_counter()
        rep = {"check": name, "n": args.n}
        try:
            rep.update(CHECKS[name](args.n))
        except (UsageError, SizeGuard):
            raise
        except HeiszetaError as exc:
            rep.update(status="fail", detail=str(exc))
        rep["seconds"] = round(time.perf_counter() - t0, 3)
        rep["version"] = __version__
        reports.append(rep)
        if rep["status"] != "pass" and failed is None:
            failed = name
    import json

    print(json.dumps(reports, sort_keys=True, indent=2), file=out)
    if failed:
        print("FAILED: %s" % failed, file=sys.stderr)
        return 1
    return 0


def cmd_coeffs(args, out) -> int:
    """a_{p^i} by the formula, and with --oracle by the subalgebra oracle.
    --prime must be a prime, though dirichlet_coeffs takes any q >= 2.  The
    oracle counts, which refuse past their HNF budget, come before the
    formula is computed, and after its own rows, as without --oracle."""
    check_prime(args.prime)
    from .zeta import dirichlet_coeffs

    counts = []
    if args.oracle:
        from .oracle import enum_subalgebras

        check_limit("dirichlet_coeffs", "order", args.max_order)
        check_limit("zeta_compact", "n", args.n)
        counts = enum_subalgebras(args.n, args.prime, args.max_order)
    formula = dirichlet_coeffs(args.n, args.prime, args.max_order)
    header = ["index", "formula"]
    columns = [["%d^%d" % (args.prime, i) for i in range(len(formula))], formula]
    agree = []
    if args.oracle:
        agree = [c == f for c, f in zip(counts, formula)]
        header += ["oracle", "agree"]
        columns += [counts, agree]
    # a count may pass the interpreter's limit on the digits of an int turned
    # into text (4300, where it has one): lifted for this table only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        lines = ["\t".join(header)] + ["\t".join(map(str, row)) for row in zip(*columns)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print("\n".join(lines), file=out)
    return 0 if all(agree) else 1


def cmd_oracle(args, out) -> int:
    """The oracle's counts as JSON rows.  Each mode refuses the options it
    does not read; sublattice and factorization default to --n 1 --max-val 2."""

    def row(lam, mu, count):
        return {"lambda": str(lam), "mu": str(mu), "p": args.prime, "count": str(count)}

    if args.mode == "lagrangian":
        if args.n is not None or args.max_val is not None:
            raise UsageError("oracle lagrangian takes no --n or --max-val")
        from .combinat import Partition

        try:
            mu = Partition.from_string(args.mu or "")
        except UsageError as exc:
            raise UsageError("--mu %r is not a partition: %s" % (args.mu, exc)) from None
        from .oracle import enum_lagrangians

        counts = enum_lagrangians(mu, args.prime)
        rows = [row(lam, mu, c) for lam, c in sorted(counts.items())]
        rows.append(row("*", mu, sum(counts.values())))
    else:
        if args.mu is not None:
            raise UsageError("oracle %s takes no --mu" % args.mode)
        n = 1 if args.n is None else args.n
        max_val = 2 if args.max_val is None else args.max_val
        if args.mode == "sublattice":
            from .oracle import enum_sublattices

            table = enum_sublattices(n, args.prime, max_val)
            rows = [row(lam, mu, c) for (lam, mu), c in sorted(table.items())]
        else:  # factorization
            from .oracle import check_factorization

            rows = check_factorization(n, args.prime, max_val)
    import json

    print(json.dumps(rows, sort_keys=True, indent=2), file=out)
    return 0


def cmd_global(args, out) -> int:
    from .exactalg import format_poly
    from .zeta import global_factor, global_factor_eval

    rn = None
    if args.rn:
        from .numeric import rn_numeric

        # R_n first, so that its refusals come before N_n is built
        rn = rn_numeric(args.n, args.prime_bound)
    lines = [
        "N_%d(X, Y) = %s"
        % (args.n, format_poly(global_factor(args.n), qvar="X", tvar="Y"))
    ]
    if args.eval:
        lines.append(
            "N_%d(p, p^-%d) = %s"
            % (args.n, 2 * args.n, format_poly(global_factor_eval(args.n), qvar="p"))
        )
    if rn:
        import json

        lines.append(json.dumps(rn, sort_keys=True))
    print("\n".join(lines), file=out)
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the named command, or of every command when none is
    named.  Each usage line lists every command either way."""
    ap = argparse.ArgumentParser(
        prog="heiszeta",
        description="Exact subalgebra zeta functions of higher Heisenberg Lie algebras",
    )
    ap.add_argument("--version", action="version", version=__version__)
    # the metavar only where the parser lacks commands: with every command,
    # argparse names the command argument "command" in its errors
    metavar = "{%s}" % ",".join(COMMANDS) if command else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "zeta"):
        z = sub.add_parser("zeta", help="print a closed form")
        z.set_defaults(func=cmd_zeta)
        z.add_argument("--n", type=int, required=True)
        z.add_argument("--form", choices=sorted(FORMS), default="b")
        z.add_argument("--output", choices=["plain", "json", "latex"], default="plain")
        z.add_argument("--out", help="write to file instead of stdout")

    if command in (None, "verify"):
        v = sub.add_parser("verify", help="run identity checks")
        v.set_defaults(func=cmd_verify)
        v.add_argument("--n", type=int, required=True)
        v.add_argument("--checks", default="crossform,funeq")
        v.add_argument("--out")

    if command in (None, "coeffs"):
        c = sub.add_parser("coeffs", help="Dirichlet coefficients a_{p^i}")
        c.set_defaults(func=cmd_coeffs)
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--prime", type=int, required=True)
        c.add_argument("--max-order", type=int, required=True)
        c.add_argument("--oracle", action="store_true")
        c.add_argument("--out")

    if command in (None, "oracle"):
        o = sub.add_parser("oracle", help="finite-ring brute-force counts")
        o.set_defaults(func=cmd_oracle)
        o.add_argument("mode", choices=["lagrangian", "sublattice", "factorization"])
        o.add_argument("--mu")
        o.add_argument("--n", type=int)
        o.add_argument("--prime", type=int, required=True)
        o.add_argument("--max-val", type=int)
        o.add_argument("--out")

    if command in (None, "global"):
        g = sub.add_parser("global", help="global Euler-factor polynomial N_n")
        g.set_defaults(func=cmd_global)
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--eval", action="store_true")
        g.add_argument("--rn", action="store_true")
        g.add_argument("--prime-bound", type=int, default=1000)
        g.add_argument("--out")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line that starts with a command needs that command's parser
    # only; any other (-h, --version, an unknown command) needs them all
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
        if not args.out:
            return args.func(args, sys.stdout)
        try:
            # truncated as by `>`; the library writes no file, so an OSError
            # here is this file's, on open or on a later write
            with open(args.out, "w") as out:
                return args.func(args, out)
        except OSError as exc:
            raise UsageError("cannot write --out %s: %s" % (args.out, exc.strerror or exc)) from None
    except UsageError as exc:
        print("usage: %s" % exc, file=sys.stderr)
        return 2
    except SizeGuard as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return 2
    except HeiszetaError as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout now writes to devnull, so that its flush at exit, of what is
        # still buffered, does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def __getattr__(name):
    """`cli.CHECKS`, the table of the verify checks, read from its home in
    heiszeta.verify on first use (PEP 562), for the code that wraps the
    checks by that name, such as bench/tracing.py."""
    if name == "CHECKS":
        from .verify import CHECKS

        return CHECKS
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


if __name__ == "__main__":
    sys.exit(main())
