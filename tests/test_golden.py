"""Golden outputs: the canonical JSON of every closed form, byte for byte.

Each file under tests/golden/ holds one line per n, starting at n = 1: the
`rational_dumps` of the value (for `global_factor`, the compact JSON of its
`poly_to_json`).  The files were written before the exact kernel's sums,
equality and products were rewritten, so they pin the kernel's behaviour.
`verify.jsonl` holds the compact JSON of `verify`'s reports, without their
`seconds` and `version`: every check for n <= 5, then funeq and poles up to
n = 12.  It was written before each report came to be built in one place.
`oracle.jsonl` holds, on line i, the compact JSON (keys sorted) of the stdout
of the i-th command in `ORACLE_COMMANDS`: Lagrangian, sublattice and
factorization tables keyed by the partitions (lambda, mu), in row order.  It
was written before `Partition` became a tuple.
Regenerate them only after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from heiszeta.cli import main
from heiszeta.errors import LIMITS
from heiszeta.exactalg import poly_to_json, rational_dumps
from heiszeta.verify import CHECKS
from heiszeta.zeta import (
    global_factor,
    reduced_zeta,
    zeta_compact,
    zeta_graded,
    zeta_hyperoctahedral,
    zeta_igusa_sum,
)

GOLDEN = Path(__file__).parent / "golden"


def _poly_dumps(p):
    return json.dumps(poly_to_json(p), separators=(",", ":"))


def _top(fn, cap):
    return min(cap, LIMITS[fn.__name__, "n"][1])


def verify_reports(n):
    """verify's reports at n, without the wall-clock `seconds` and `version`."""
    checks = ",".join(CHECKS) if n <= 5 else "funeq,poles"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--n", str(n), "--checks", checks]) == 0
    reports = json.loads(out.getvalue())
    for rep in reports:
        del rep["seconds"], rep["version"]
    return reports


def _reports_dumps(reports):
    return json.dumps(reports, sort_keys=True, separators=(",", ":"))


ORACLE_COMMANDS = (
    "oracle lagrangian --mu 2,1,1 --prime 2",
    "oracle lagrangian --mu 2,1 --prime 3",
    "oracle lagrangian --mu 3,2 --prime 2",
    "oracle sublattice --n 2 --prime 2 --max-val 3",
    "oracle sublattice --n 1 --prime 5 --max-val 4",
    "oracle factorization --n 2 --prime 2 --max-val 3",
    "oracle factorization --n 2 --prime 3 --max-val 3",
    "oracle factorization --n 3 --prime 2 --max-val 2",
)


def oracle_rows(i):
    """The JSON rows that the i-th of ORACLE_COMMANDS prints, from i = 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ORACLE_COMMANDS[i - 1].split()) == 0
    return json.loads(out.getvalue())


# file stem -> (function, serializer, largest n)
CASES = {
    "zeta_a": (zeta_igusa_sum, rational_dumps, _top(zeta_igusa_sum, 6)),
    "zeta_b": (zeta_compact, rational_dumps, _top(zeta_compact, 8)),
    "zeta_c": (zeta_hyperoctahedral, rational_dumps, _top(zeta_hyperoctahedral, 6)),
    "zeta_graded": (zeta_graded, rational_dumps, _top(zeta_graded, 6)),
    "reduced_zeta": (reduced_zeta, rational_dumps, _top(reduced_zeta, 8)),
    "global_factor": (global_factor, _poly_dumps, _top(global_factor, 6)),
    "verify": (verify_reports, _reports_dumps, 12),
    "oracle": (oracle_rows, _reports_dumps, len(ORACLE_COMMANDS)),
}


def _path(stem):
    return GOLDEN / (stem + ".jsonl")


def _lines(stem):
    return _path(stem).read_bytes().split(b"\n")[:-1]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_file_covers_every_n(stem):
    assert len(_lines(stem)) == CASES[stem][2]


@pytest.mark.parametrize(
    "stem,n",
    [(stem, n) for stem in sorted(CASES) for n in range(1, CASES[stem][2] + 1)],
)
def test_golden_output(stem, n):
    fn, dumps, _ = CASES[stem]
    assert dumps(fn(n)).encode() == _lines(stem)[n - 1]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for stem, (fn, dumps, top) in sorted(CASES.items()):
        text = "".join(dumps(fn(n)) + "\n" for n in range(1, top + 1))
        _path(stem).write_text(text)


if __name__ == "__main__":
    regenerate()
