import json
import os
import subprocess
import sys
import time

import pytest

from pathlib import Path

from heiszeta.cli import build_parser, main
from heiszeta import numeric, zeta
from heiszeta.errors import LIMITS, PRIME_LIMIT, SizeGuard, UsageError, check_prime


PACKAGE = str(Path(zeta.__file__).parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_zeta_plain_n1(capsys):
    code, out = run(capsys, "zeta", "--n", "1", "--form", "b", "--output", "plain")
    assert code == 0
    assert out.strip() == (
        "(1 - q^3 T^3) / ((1 - T)(1 - q T)(1 - q^2 T^2)(1 - q^3 T^2))"
    )


def test_zeta_ideal_n1(capsys):
    code, out = run(capsys, "zeta", "--n", "1", "--form", "ideal")
    assert code == 0
    assert out.strip() == "(1) / ((1 - T)(1 - q T)(1 - q^2 T^3))"


def test_zeta_reduced_n2(capsys):
    code, out = run(capsys, "zeta", "--n", "2", "--form", "reduced")
    assert code == 0
    assert out.strip() == (
        "(1 + 2 T + 3 T^2 + 5 T^3 + 3 T^4 + 2 T^5 + T^6) / ((1 - T)^2(1 - T^3)^3)"
    )


def test_zeta_latex_and_json(capsys):
    code, out = run(capsys, "zeta", "--n", "1", "--form", "b", "--output", "latex")
    assert code == 0 and out.startswith("\\frac{")
    code, out = run(capsys, "zeta", "--n", "1", "--form", "b", "--output", "json")
    data = json.loads(out)
    assert data["version"] and data["den"]


def test_zeta_json_round_trips_to_equal_value(capsys):
    from heiszeta.exactalg import rational_from_json
    from heiszeta.zeta import zeta_compact

    for n in (1, 2):
        _, out = run(capsys, "zeta", "--n", str(n), "--form", "b", "--output", "json")
        back = rational_from_json(json.loads(out))
        assert back == zeta_compact(n)


def test_zeta_deterministic(capsys):
    _, out1 = run(capsys, "zeta", "--n", "2", "--form", "c")
    _, out2 = run(capsys, "zeta", "--n", "2", "--form", "c")
    assert out1 == out2


def test_zeta_guard_exit_code(capsys):
    code, _ = run(capsys, "zeta", "--n", "9", "--form", "c")
    assert code == 2


def test_verify_crossform_funeq(capsys):
    code, out = run(capsys, "verify", "--n", "3", "--checks", "crossform,funeq")
    assert code == 0
    reports = json.loads(out)
    assert [r["status"] for r in reports] == ["pass", "pass"]
    assert all(r["version"] for r in reports)


def test_verify_poles_reports_double(capsys):
    code, out = run(capsys, "verify", "--n", "3", "--checks", "poles")
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["detail"]["double"] == ["3"]


def test_verify_fibre_residue_reduced(capsys):
    code, out = run(
        capsys, "verify", "--n", "2", "--checks", "fibre,residue,reduced"
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["status"] == "pass" for r in reports)
    # each (k, r) with r <= k stands for r and 2k+1-r
    pairs = [[k, r] for k in range(3) for r in range(k + 1)]
    assert reports[0]["detail"] == {"pairs": pairs} and len(pairs) == 6


def test_residue_check_builds_each_descent_sum_once(monkeypatch):
    from heiszeta import verify

    calls = []
    descent_sum = verify.signed_descent_sum

    def counted(n, y_exponent, Z, X):
        calls.append((n, y_exponent, Z, tuple(X)))
        return descent_sum(n, y_exponent, Z, X)

    monkeypatch.setattr(verify, "signed_descent_sum", counted)
    assert verify._check_residue(5)["status"] == "pass"
    # one run on marker slots gives the sum on the generic slots and every
    # residue limit; the factored residues build their type-B factor by the
    # subset expansion, with no descent sum
    assert len(calls) == 1


def test_verify_residue_past_the_descent_guard_exits_2(capsys):
    # each check builds its guarded side first, so the refusal enters at most
    # 10 package functions, as each refusal of tests/test_limits.py does; the
    # fibre check's guard is fibre_K's
    from heiszeta import combinat, igusa, verify  # noqa: F401 (loaded before the count)

    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            entered.append(frame.f_code.co_name)

    for n, check in [(9, "residue"), (10, "residue"), (9, "fibre")]:
        entered.clear()
        sys.setprofile(profile)
        try:
            code = main(["verify", "--n", str(n), "--checks", check])
        finally:
            sys.setprofile(None)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", (n, check)
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("guard: "), (n, check)
        assert "check_limit" in entered and len(entered) <= 10, (n, check, entered)


def test_verify_raised_mismatch_keeps_every_report(capsys, monkeypatch):
    # a check that raises a mismatch reports "fail" with the message; the
    # reports before and after it are still printed
    from heiszeta import verify
    from heiszeta.errors import IdentityMismatch

    def failing(n):
        raise IdentityMismatch("functional equation failed at n = %d" % n)

    monkeypatch.setattr(verify, "funeq_check", failing)
    code = main(["verify", "--n", "2", "--checks", "crossform,funeq,reduced"])
    captured = capsys.readouterr()
    assert code == 1
    reports = json.loads(captured.out)
    assert [(r["check"], r["status"]) for r in reports] == [
        ("crossform", "pass"), ("funeq", "fail"), ("reduced", "pass")]
    assert reports[1]["detail"] == "functional equation failed at n = 2"
    assert captured.err.splitlines() == ["FAILED: funeq"]


def test_verify_unknown_check(capsys):
    code = main(["verify", "--n", "2", "--checks", "bogus"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage: ")


def test_coeffs_oracle_agreement(capsys):
    code, out = run(
        capsys,
        "coeffs", "--n", "1", "--prime", "2", "--max-order", "2", "--oracle",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["index", "formula", "oracle", "agree"]
    assert lines[1].split("\t") == ["2^0", "1", "1", "True"]
    assert lines[2].split("\t") == ["2^1", "3", "3", "True"]
    assert lines[3].split("\t") == ["2^2", "19", "19", "True"]


def test_coeffs_formula_only(capsys):
    code, out = run(capsys, "coeffs", "--n", "2", "--prime", "2", "--max-order", "1")
    assert code == 0
    assert out.strip().splitlines()[2].split("\t") == ["2^1", "15"]


def test_coeffs_prime3(capsys):
    code, out = run(
        capsys,
        "coeffs", "--n", "1", "--prime", "3", "--max-order", "1", "--oracle",
    )
    assert code == 0
    assert out.strip().splitlines()[2].split("\t") == ["3^1", "4", "4", "True"]


def test_coeffs_oracle_agrees_at_3_to_the_7(capsys):
    # a budget on the 9,077,708 rank-3 bases the count stands for would refuse it
    code, out = run(
        capsys,
        "coeffs", "--n", "1", "--prime", "3", "--max-order", "7", "--oracle",
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["3^%d" % i for i in range(8)]
    assert all(r[3] == "True" for r in rows)


def test_coeffs_prints_counts_past_the_interpreter_digit_limit(capsys):
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = digit_limit()
    code, out = run(capsys, "coeffs", "--n", "2", "--prime", "1000003", "--max-order", "250")
    assert code == 0
    assert max(len(line.split("\t")[1]) for line in out.splitlines()[1:]) > 4300
    # the limit is lifted for the table only
    assert digit_limit() == limit


def test_oracle_lagrangian(capsys):
    code, out = run(capsys, "oracle", "lagrangian", "--mu", "1", "--prime", "2")
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == {"lambda": "*", "mu": "1", "p": 2, "count": "3"}


def test_oracle_lagrangian_empty_mu(capsys):
    code, out = run(capsys, "oracle", "lagrangian", "--mu", "", "--prime", "5")
    assert code == 0
    rows = json.loads(out)
    assert rows[-1]["count"] == "1"


def test_oracle_modes_keep_their_defaults(capsys):
    # sublattice and factorization at n = 1 and max-val 2, lagrangian at mu = ()
    _, out = run(capsys, "oracle", "sublattice", "--prime", "2")
    _, expect = run(capsys, "oracle", "sublattice", "--n", "1", "--prime", "2", "--max-val", "2")
    assert out == expect
    _, out = run(capsys, "oracle", "lagrangian", "--prime", "3")
    assert json.loads(out)[-1] == {"lambda": "*", "mu": "", "p": 3, "count": "1"}


def test_oracle_names_the_option_it_does_not_read(capsys):
    assert main(["oracle", "sublattice", "--mu", "x", "--prime", "2"]) == 2
    assert capsys.readouterr().err == "usage: oracle sublattice takes no --mu\n"


def test_oracle_factorization(capsys):
    code, out = run(
        capsys,
        "oracle", "factorization", "--n", "1", "--prime", "2", "--max-val", "2",
    )
    assert code == 0
    assert all(r["ok"] for r in json.loads(out))


def test_oracle_sublattice(capsys):
    code, out = run(
        capsys,
        "oracle", "sublattice", "--n", "1", "--prime", "2", "--max-val", "1",
    )
    assert code == 0
    rows = json.loads(out)
    assert {(r["lambda"], r["mu"]): r["count"] for r in rows} == {
        ("", ""): "1",
        ("1", "1"): "3",
    }


def test_oracle_budget_exit(capsys):
    code, _ = run(
        capsys,
        "oracle", "sublattice", "--n", "2", "--prime", "7", "--max-val", "6",
    )
    assert code == 2


def test_global_n1(capsys):
    code, out = run(capsys, "global", "--n", "1", "--eval")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N_1(X, Y) = 1 - X^3 Y^3"
    assert lines[1] == "N_1(p, p^-2) = -p^-3 + 1"


def test_global_rn(capsys):
    code, out = run(
        capsys, "global", "--n", "2", "--rn", "--prime-bound", "50"
    )
    assert code == 0
    rep = json.loads(out.strip().splitlines()[-1])
    assert rep["label"] == "APPROXIMATE"
    assert rep["delta_vs_half_bound"] < 0.05


def test_out_file(tmp_path, capsys):
    path = tmp_path / "z.txt"
    code, out = run(capsys, "zeta", "--n", "1", "--form", "b", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("(1 - q^3 T^3)")


@pytest.mark.parametrize("where", ["missing/x", "."], ids=["no directory", "a directory"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    code = main(["zeta", "--n", "3", "--form", "b", "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage: cannot write --out ")


def test_stdout_closed_early_exits_141_without_a_traceback():
    # the reader takes one byte of a 219 KB output and closes the pipe, as
    # `| head -c 1` does: the write fails with EPIPE, which is no mismatch
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(PACKAGE).parent),
                                                    env.get("PYTHONPATH")) if p)
    code = "import sys\nfrom heiszeta.cli import main\nsys.exit(main())"
    argv = ["zeta", "--n", "10", "--form", "b", "--output", "json"]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b"", err.decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_verify_seconds_do_not_follow_the_wall_clock(capsys, monkeypatch):
    # the wall clock may be set back while a check runs
    clock = iter(range(10**6, 0, -1000))
    monkeypatch.setattr(time, "time", lambda: next(clock))
    code, out = run(capsys, "verify", "--n", "2", "--checks", "funeq,poles")
    assert code == 0
    assert all(0 <= rep["seconds"] < 60 for rep in json.loads(out))


# One command line of each kind that argparse itself answers, with help, usage
# or an error: each command's help, a missing, an invalid and an unknown
# option, an extra trailing word, a missing and an unknown command.
PARSER_ARGV = [
    ["-h"], ["--version"], ["zeta", "--help"], ["verify", "--help"], ["coeffs", "-h"],
    ["oracle", "--help"], ["global", "--help"], ["-h", "zeta"],
    ["zeta"], ["oracle", "--prime", "2"], ["zeta", "--n", "x"],
    ["zeta", "--n", "3", "--form", "d"], ["oracle", "bogus", "--prime", "2"],
    ["verify", "--n", "2", "--bogus"], ["zeta", "--n", "3", "extra"],
    ["global", "--n", "2", "--eval", "2"], [], ["bogus"], ["--n", "3"],
]


def _parsed(capsys, parse, argv):
    try:
        parse(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()
    raise AssertionError("argparse did not end %r" % argv)


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no words")
def test_the_parser_of_one_command_answers_as_the_parser_of_all(capsys, argv):
    # main builds the parser of the command that starts the command line; its
    # usage lines must still list every command
    full = _parsed(capsys, build_parser(None).parse_args, argv)
    assert _parsed(capsys, main, argv) == full


def test_a_missing_command_is_named_command(capsys):
    code, captured = _parsed(capsys, main, [])
    assert code == 2
    assert captured.err.endswith("error: the following arguments are required: command\n")


# Each bad input exits 2 with one line on stderr and no traceback: `usage:`
# below a least value or on malformed input, `guard:` above a largest value.
BAD_INPUTS = [
    ("zeta", "--n", "-1"),
    ("zeta", "--n", "-1", "--form", "c"),
    ("zeta", "--n", "0", "--form", "a"),
    ("verify", "--n", "0"),
    ("verify", "--n", "2", "--checks", ","),
    ("coeffs", "--n", "1", "--prime", "1", "--max-order", "2"),
    ("coeffs", "--n", "1", "--prime", "4", "--max-order", "2"),
    ("coeffs", "--n", "1", "--prime", "561", "--max-order", "2"),
    ("coeffs", "--n", "1", "--prime", "2", "--max-order", "-1"),
    ("oracle", "lagrangian", "--mu", "1,2", "--prime", "2"),
    ("oracle", "lagrangian", "--mu", "x", "--prime", "2"),
    # each oracle mode refuses the options it does not read
    ("oracle", "lagrangian", "--mu", "1", "--prime", "2", "--n", "-5", "--max-val", "-3"),
    ("oracle", "lagrangian", "--mu", "1", "--prime", "2", "--n", "1"),
    ("oracle", "lagrangian", "--prime", "2", "--max-val", "2"),
    ("oracle", "sublattice", "--mu", "x", "--prime", "2"),
    ("oracle", "factorization", "--mu", "1", "--prime", "2"),
    ("oracle", "sublattice", "--n", "0", "--prime", "2"),
    ("oracle", "factorization", "--n", "1", "--prime", "2", "--max-val", "-1"),
    ("global", "--n", "1", "--rn"),
    ("global", "--n", "-1"),
    ("global", "--n", "2", "--rn", "--prime-bound", "1"),
]
GUARD_INPUTS = [
    ("global", "--n", "2", "--rn", "--prime-bound", "100000000000000"),
    ("coeffs", "--n", "1", "--prime", "2", "--max-order", "1000000000"),
    ("coeffs", "--n", "1", "--prime", "3317044064679887385961981", "--max-order", "1"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS + GUARD_INPUTS, ids=" ".join)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    prefix = "guard: " if argv in GUARD_INPUTS else "usage: "
    assert len(lines) == 1 and lines[0].startswith(prefix)


def _stop(*args):
    raise RuntimeError("past the check")


# the largest value gets past the entry point's check to its first step of
# work, and one more is refused there
@pytest.mark.parametrize("row, call, module, work", [
    (("dirichlet_coeffs", "order"), lambda v: zeta.dirichlet_coeffs(1, 2, v), zeta,
     "zeta_compact"),
    (("rn_numeric", "prime_bound"), lambda v: numeric.rn_numeric(2, v), numeric,
     "_primes_up_to"),
], ids=["max-order", "prime-bound"])
def test_size_limit_is_the_largest_value_accepted(monkeypatch, row, call, module, work):
    largest = LIMITS[row][1]
    monkeypatch.setattr(module, work, _stop)
    with pytest.raises(RuntimeError, match="past the check"):
        call(largest)
    with pytest.raises(SizeGuard, match="exceeds %d" % largest):
        call(largest + 1)


@pytest.mark.parametrize("form", ["b", "c", "graded", "reduced", "ideal"])
def test_zeta_n0_is_one_over_one_minus_T(capsys, form):
    code, out = run(capsys, "zeta", "--n", "0", "--form", form)
    assert code == 0
    assert out.strip() == "(1) / ((1 - T))"


def _accepted(p):
    try:
        check_prime(p)
    except UsageError:
        return False
    return True


def test_check_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [p for p in range(-3, 20000) if _accepted(p) != sympy.isprime(p)] == []
    assert _accepted(sympy.prevprime(PRIME_LIMIT))


# Strong pseudoprimes to the first 4, 9 and 12 prime bases, and Carmichael numbers.
@pytest.mark.parametrize(
    "n",
    [3215031751, 3825123056546413051, 318665857834031151167461,
     561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185],
)
def test_check_prime_refuses_pseudoprimes(n):
    assert not _accepted(n)


def test_check_prime_refuses_at_its_limit():
    # the limit itself is a strong pseudoprime to all 13 bases
    assert LIMITS["check_prime", "p"][1] == PRIME_LIMIT - 1
    for p in (PRIME_LIMIT, PRIME_LIMIT + 2, 10**30 + 57):
        with pytest.raises(SizeGuard, match="exceeds %d" % (PRIME_LIMIT - 1)):
            check_prime(p)


def test_large_prime_is_checked_at_once(capsys):
    argv = ("coeffs", "--n", "1", "--prime", "1000000000000000003", "--max-order", "1")
    t0 = time.perf_counter()
    code, out = run(capsys, *argv)
    assert code == 0 and time.perf_counter() - t0 < 1.0
    assert out.splitlines()[-1] == "1000000000000000003^1\t1000000000000000004"


def test_cli_checks_is_the_table_of_verify():
    # code that wraps the checks by name reads them as cli.CHECKS
    from heiszeta import cli, verify

    assert cli.CHECKS is verify.CHECKS
    assert list(cli.CHECKS) == ["crossform", "funeq", "poles", "fibre", "residue", "reduced"]
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
