"""Command-line front end.

Subcommands: zeta (closed forms), verify (identity suites), coeffs
(Dirichlet coefficients, optionally against the brute-force oracle), oracle
(finite-ring enumerations), global (Euler-factor polynomial and numeric
residue factor).  Exit codes: 0 success, 1 mathematical mismatch, 2 usage or
guard violation.  The library refuses each numeric input out of its range
(errors.LIMITS): below the least value with one `usage:` line on stderr,
above the largest with one `guard:` line, both before any computation.
All output is deterministic for fixed inputs and version.

Library names load on first use: each command imports the modules it runs
inside its own function.  `--version` loads only this module and `errors`;
zeta, verify and global never load the oracles, and only the verify checks
load `verify`, the second derivations they compare with.  `oracle
lagrangian` and `oracle sublattice` load `oracle` and `combinat`, and
`oracle factorization` also `counts`, for its integer Birkhoff numbers; no
oracle mode loads the exact kernel `exactalg`, the closed forms or `igusa`.
Only the functions that write JSON import `json`, and the parser that main
builds holds the arguments of the named command only.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .errors import HeiszetaError, SizeGuard, UsageError, check_limit, check_prime


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


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write --out %s: %s" % (out_path, exc.strerror or exc)) from None
    else:
        print(text)


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


def cmd_zeta(args) -> int:
    f = FORMS[args.form](args.n)
    _emit(_render(f, args.output), args.out)
    return 0


def _check_crossform(n: int) -> dict:
    """Forms a, b and c agree, and form c's numerator is the B_n group sum."""
    from .verify import hyperoctahedral_numerator
    from .zeta import c_exponents, zeta_compact, zeta_hyperoctahedral, zeta_igusa_sum

    a, b, c = zeta_igusa_sum(n), zeta_compact(n), zeta_hyperoctahedral(n)
    ok = a == b and b == c and c.num == hyperoctahedral_numerator(n, c_exponents(n))
    return {"status": "pass" if ok else "fail"}


def _check_funeq(n: int) -> dict:
    from .verify import funeq_check

    return {"status": "pass", "detail": funeq_check(n)}


def _check_poles(n: int) -> dict:
    """The pole orders of form b, and the double-pole law: the poles of order
    2 or more are exactly the s = m with m(m+1) = 4n (s = 3 at n = 3, s = 4
    at n = 5).  The law is observed, not proved: it holds for every n <= 12,
    the n up to which verify runs this check."""
    from .verify import pole_analysis

    orders = pole_analysis(n)
    double = [s for s, o in orders.items() if o >= 2]
    ok = double == [m for m in range(1, n + 1) if m * (m + 1) == 4 * n]
    detail = {
        "integral": [[int(s), o] for s, o in orders.items() if s.denominator == 1],
        "fractional": [[str(s), o] for s, o in orders.items() if s.denominator > 1],
        "double": [str(s) for s in double],
    }
    return {"status": "pass" if ok else "fail", "detail": detail}


def _check_fibre(n: int) -> dict:
    """The fibre identity I = P K / (E(-T) prod (1 - X_j)) for every k <= n.

    r and 2k+1-r name the same fibre, with the same E, P and K, so each
    pair is proved once, at r <= k; the detail lists the (k, r) proved.
    """
    from .verify import check_I_equals_K

    pairs = []
    for k in range(n + 1):
        for r in range(k + 1):
            check_I_equals_K(n, k, r)
            pairs.append([k, r])
    return {"status": "pass", "detail": {"pairs": pairs}}


def _check_residue(n: int) -> dict:
    """igusa_B's numerator against the descent sum on the same slots, over the
    slot denominator both share, then the residue of igusa_B at X_m -> 1 in
    factored form against the descent sum with slot m set to 1, for m < n.
    The descent sums all come from one run of the dynamic program, made
    first, so that its size guard refuses before any other work.

    igusa_B, and the factored residue through it, is the subset expansion.
    At m = n the two residues are igusa_B(n) on n slots and its descent sum
    (X_n is never a descent slot), which the first comparison already checks.
    """
    from .igusa import igusa_B
    from .verify import GENERIC_Z as Z
    from .verify import generic_slots, igusa_B_residue, residue_limits

    X = generic_slots(n)
    descent, limits = residue_limits(n, -1, Z, X)
    if igusa_B(n, -1, Z, generic_slots(n + 1)).num != descent:
        return {"status": "fail", "detail": "subset"}
    for m, limit in enumerate(limits):
        if igusa_B_residue(n, m, -1, Z, X) != limit:
            return {"status": "fail", "detail": "m=%d" % m}
    return {"status": "pass"}


def _check_reduced(n: int) -> dict:
    """reduced_zeta against the Eulerian form, the lattice-point oracle and
    self-reciprocity; reduced_c against its telescoped form and the limit
    P_n(1) / (n+1)^{n+1} of the normalized numerator, and inside (0, 1)."""
    from fractions import Fraction

    from .verify import _reduced_c_telescoped, _reduced_eulerian, is_self_reciprocal
    from .verify import reduced_c, reduced_cone_series
    from .zeta import reduced_zeta

    f = reduced_zeta(n)
    series = [c.coefficient(0, 0) for c in f.series_in_T(10)]
    ok = series == reduced_cone_series(n, 10)
    ok = ok and is_self_reciprocal(f, 0, 2 * n + 1) and f == _reduced_eulerian(n)
    cn = reduced_c(n)
    limit = Fraction(sum(f.num.terms.values()), (n + 1) ** (n + 1))
    ok = ok and cn == _reduced_c_telescoped(n) == limit and 0 < cn < 1
    return {"status": "pass" if ok else "fail"}


# Each check returns the status of its report, and its detail where it has
# one; cmd_verify adds the rest.
CHECKS = {
    "crossform": _check_crossform,
    "funeq": _check_funeq,
    "poles": _check_poles,
    "fibre": _check_fibre,
    "residue": _check_residue,
    "reduced": _check_reduced,
}


def cmd_verify(args) -> int:
    """Run each check and print its report: the check's name and n, the
    status and detail the check returns, its seconds and the version.  A
    mismatch raised inside a check is its "fail" status, with the message as
    detail; a refusal ends the command."""
    reports = []
    failed = None
    for name in args.checks:
        t0 = time.time()
        rep = {"check": name, "n": args.n}
        try:
            rep.update(CHECKS[name](args.n))
        except (UsageError, SizeGuard):
            raise
        except HeiszetaError as exc:
            rep.update(status="fail", detail=str(exc))
        rep["seconds"] = round(time.time() - t0, 3)
        rep["version"] = __version__
        reports.append(rep)
        if rep["status"] != "pass" and failed is None:
            failed = name
    import json

    _emit(json.dumps(reports, sort_keys=True, indent=2), args.out)
    if failed:
        print("FAILED: %s" % failed, file=sys.stderr)
        return 1
    return 0


def cmd_coeffs(args) -> int:
    from .zeta import dirichlet_coeffs

    formula = dirichlet_coeffs(args.n, args.prime, args.max_order)
    header = ["index", "formula"]
    columns = [["%d^%d" % (args.prime, i) for i in range(len(formula))], formula]
    agree = []
    if args.oracle:
        from .oracle import enum_subalgebras

        counts = enum_subalgebras(args.n, args.prime, args.max_order)
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
    _emit("\n".join(lines), args.out)
    return 0 if all(agree) else 1


def cmd_oracle(args) -> int:
    from .oracle import check_factorization, enum_lagrangians, enum_sublattices

    if args.mode == "lagrangian":
        mu = args.mu
        counts = enum_lagrangians(mu, args.prime)
        rows = [
            {"lambda": str(lam), "mu": str(mu), "p": args.prime, "count": str(c)}
            for lam, c in sorted(counts.items(), key=lambda kv: kv[0].parts)
        ]
        rows.append(
            {
                "lambda": "*",
                "mu": str(mu),
                "p": args.prime,
                "count": str(sum(counts.values())),
            }
        )
    elif args.mode == "sublattice":
        table = enum_sublattices(args.n, args.prime, args.max_val)
        rows = [
            {"lambda": str(lam), "mu": str(mu), "p": args.prime, "count": str(c)}
            for (lam, mu), c in sorted(
                table.items(), key=lambda kv: (kv[0][0].parts, kv[0][1].parts)
            )
        ]
    else:  # factorization
        rows = check_factorization(args.n, args.prime, args.max_val)
    import json

    _emit(json.dumps(rows, sort_keys=True, indent=2), args.out)
    return 0


def cmd_global(args) -> int:
    from .exactalg import format_poly
    from .zeta import global_factor, global_factor_eval, rn_numeric

    # R_n first, so that its refusals come before N_n is built
    rn = rn_numeric(args.n, args.prime_bound) if args.rn else None
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
    _emit("\n".join(lines), args.out)
    return 0


def validate(args) -> None:
    """Parse what argparse leaves as text, and apply the command line's own
    policies, before any computation.

    Raises UsageError, which main maps to exit code 2.  verify's --checks
    becomes the list of check names (an empty list or an unknown name is
    rejected) and needs n >= 1; coeffs needs a prime --prime, though
    dirichlet_coeffs takes any integer q; oracle lagrangian's --mu becomes a
    Partition, and each oracle mode refuses the options of the others.
    Every numeric range is the library's: each entry point refuses a value
    below its least value with UsageError and above its largest with
    SizeGuard (errors.LIMITS).
    """
    if args.command == "verify":
        check_limit("verify", "n", args.n)
        args.checks = list(filter(None, map(str.strip, args.checks.split(","))))
        if not args.checks:
            raise UsageError("--checks names no check")
        for name in args.checks:
            if name not in CHECKS:
                raise UsageError("unknown check %r" % name)
    elif args.command == "coeffs":
        check_prime(args.prime)
    elif args.command == "oracle" and args.mode == "lagrangian":
        from .combinat import Partition

        if args.n is not None or args.max_val is not None:
            raise UsageError("oracle lagrangian takes no --n or --max-val")
        try:
            args.mu = Partition.from_string(args.mu or "")
        except ValueError as exc:
            raise UsageError("--mu %r is not a partition: %s" % (args.mu, exc)) from None
    elif args.command == "oracle":
        if args.mu is not None:
            raise UsageError("oracle %s takes no --mu" % args.mode)
        args.n = 1 if args.n is None else args.n
        args.max_val = 2 if args.max_val is None else args.max_val


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the arguments of the named command
    only, or of every command when none is named."""
    ap = argparse.ArgumentParser(
        prog="heiszeta",
        description="Exact subalgebra zeta functions of higher Heisenberg Lie algebras",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zeta", help="print a closed form")
    z.set_defaults(func=cmd_zeta)
    if command in (None, "zeta"):
        z.add_argument("--n", type=int, required=True)
        z.add_argument("--form", choices=sorted(FORMS), default="b")
        z.add_argument("--output", choices=["plain", "json", "latex"], default="plain")
        z.add_argument("--out", help="write to file instead of stdout")

    v = sub.add_parser("verify", help="run identity checks")
    v.set_defaults(func=cmd_verify)
    if command in (None, "verify"):
        v.add_argument("--n", type=int, required=True)
        v.add_argument("--checks", default="crossform,funeq")
        v.add_argument("--out")

    c = sub.add_parser("coeffs", help="Dirichlet coefficients a_{p^i}")
    c.set_defaults(func=cmd_coeffs)
    if command in (None, "coeffs"):
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--prime", type=int, required=True)
        c.add_argument("--max-order", type=int, required=True)
        c.add_argument("--oracle", action="store_true")
        c.add_argument("--out")

    o = sub.add_parser("oracle", help="finite-ring brute-force counts")
    o.set_defaults(func=cmd_oracle)
    if command in (None, "oracle"):
        o.add_argument("mode", choices=["lagrangian", "sublattice", "factorization"])
        o.add_argument("--mu")
        o.add_argument("--n", type=int)
        o.add_argument("--prime", type=int, required=True)
        o.add_argument("--max-val", type=int)
        o.add_argument("--out")

    g = sub.add_parser("global", help="global Euler-factor polynomial N_n")
    g.set_defaults(func=cmd_global)
    if command in (None, "global"):
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--eval", action="store_true")
        g.add_argument("--rn", action="store_true")
        g.add_argument("--prime-bound", type=int, default=1000)
        g.add_argument("--out")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first word that is not an option, since no option
    # before it takes a value: only its arguments are added to the parser
    command = None
    for word in argv:
        if not word.startswith("-"):
            command = word
            break
    args = build_parser(command).parse_args(argv)
    try:
        validate(args)
        return args.func(args)
    except UsageError as exc:
        print("usage: %s" % exc, file=sys.stderr)
        return 2
    except SizeGuard as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return 2
    except HeiszetaError as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
