"""The benchmark's workloads and the checks on every output.

Each case is the argv of one `heiszeta` CLI invocation.  Exact outputs are
compared with sha256 digests of the same invocation's stdout at the seed
commit: the zeta JSON and plain forms, the oracle JSON, the `coeffs` table and
the `N_n` lines of `global`.  `verify` reports carry a wall-clock `seconds`
field, so they are checked field by field instead, and the float `R_n` value
of `global --rn` is compared with a relative tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math

# Why each workload and why these sizes: see bench/README.md.  Each entry is
# (argv, sha256 of the exact output at the seed commit, expected R_n report).
WORKLOADS = {
    # Closed forms: FactoredRational.sum/reduced (forms a, b) and the B_n
    # enumeration (c, graded, global).  The oracle is idle.
    "closed_forms": [
        ("zeta --n 6 --form b --output json",
         "5f7594fa9a82d56b27349aa42171c72feae5fb8e2d9029769f1a40dc01ab5fc0", None),
        ("zeta --n 4 --form a --output json",
         "937b7cf5c1f46d2b65e19a607e7638dfd97f3cba5358e8c84933eddce3def750", None),
        ("zeta --n 5 --form c --output json",
         "d290730583d4a517a58507f05123a269727aa1112b3e5d693d8bec6898ddfc84", None),
        ("zeta --n 6 --form graded --output json",
         "ed24180c9b460f5706575d45f75b2ac566ba9da46d9b9c9180578f8036b0847d", None),
        ("zeta --n 7 --form reduced",
         "a28d0791dba5ac4fac263dc4bfde033ad71299e905bc4a00120d21d7dda0bbd7", None),
        ("global --n 5 --eval --rn --prime-bound 1000",
         "a7b843656d86e798eb55e39a9b7777b9f28eda63a9bb341cb4b52dcc7f61a8b5",
         {
             "delta_vs_half_bound": 0.0003357020231558039,
             "label": "APPROXIMATE",
             "n": 5,
             "prime_bound": 1000,
             "value": 2.292305505149899,
             "zeta_arguments": [2, 3, 4, 5, 6, 7, 8, 9, 10, 35, 36, 38, 41, 45, 50],
         }),
    ],
    # Proofs: cross-multiplied equality, subs_inverse, exact division, eval_q,
    # series, and the igusa fibre and residue machinery.  Checks in one
    # invocation share cached forms.
    "verify_proofs": [
        ("verify --n 5 --checks funeq,poles,reduced", None, None),
        ("verify --n 5 --checks residue", None, None),
        ("verify --n 4 --checks crossform", None, None),
        ("verify --n 4 --checks fibre", None, None),
        ("verify --n 6 --checks funeq,poles,reduced", None, None),
    ],
    # Brute force over Z/p^k: the oracle takes >99% of in-process self time
    # and the exact kernel a fraction of a percent.
    "oracle_counts": [
        ("coeffs --n 1 --prime 3 --max-order 5 --oracle",
         "17a72ce7c8ed2c78c1c06ae18ab02bafde8f10582588033dee747275debcdab4", None),
        ("coeffs --n 2 --prime 2 --max-order 3 --oracle",
         "68f731b85cd5a02c3cf66447f9974b366e6f395d07e8f2362e243f39cd79ede6", None),
        ("oracle lagrangian --mu 2,1,1 --prime 2",
         "729479d65eb88d62f0ac36c3458a328656903e0faaa332fc8f4659ccbebd049d", None),
        ("oracle lagrangian --mu 2,1 --prime 3",
         "27e51e54629f71a6de45ed25e9b9d32d89c22dd26df9ea5a73f53fd469ee8864", None),
        ("oracle factorization --n 2 --prime 2 --max-val 3",
         "40a7158a98f08acf1b75d6ba6b2f91b355b837c79642e559307d86bb63bec482", None),
    ],
}
# R_n is a float product over primes, so it is compared with a tolerance.
RN_REL_TOL = 1e-9


class Case:
    """One CLI invocation and what its output must be."""

    def __init__(self, index: int, line: str, digest: str | None, rn: dict | None):
        self.index = index
        self.line = line
        self.argv = line.split()
        self.digest = digest
        self.rn = rn

    def check(self, returncode: int, stdout: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if returncode != 0:
            return "exit code %d" % returncode
        command = self.argv[0]
        if command == "verify":
            return _check_verify(self.argv, stdout)
        exact = stdout
        if command == "global":
            lines = stdout.splitlines()
            exact = "\n".join(ln for ln in lines if ln.startswith("N_"))
            problem = _check_rn([ln for ln in lines if not ln.startswith("N_")], self.rn)
            if problem:
                return problem
        if command == "coeffs" and "--oracle" in self.argv:
            rows = [ln.split("\t") for ln in stdout.splitlines()[1:]]
            if not rows or any(row[-1] != "True" for row in rows):
                return "oracle disagrees with the formula"
        if hashlib.sha256(exact.encode()).hexdigest() != self.digest:
            return "output differs from the seed digest"
        return None


def _check_verify(argv: list[str], stdout: str) -> str | None:
    n = int(argv[argv.index("--n") + 1])
    checks = argv[argv.index("--checks") + 1].split(",")
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        return "verify output is not JSON"
    if [r.get("check") for r in reports] != checks:
        return "verify ran %s, not %s" % ([r.get("check") for r in reports], checks)
    for r in reports:
        if r.get("n") != n or r.get("status") != "pass":
            return "verify %s: n=%r status=%r" % (r.get("check"), r.get("n"), r.get("status"))
    return None


def _check_rn(lines: list[str], expected: dict) -> str | None:
    if len(lines) != 1:
        return "expected one R_n line, got %d" % len(lines)
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError:
        return "R_n line is not JSON"
    if rep.keys() != expected.keys():
        return "R_n keys %s" % sorted(rep)
    for key, want in expected.items():
        got = rep[key]
        if isinstance(want, float):
            if not isinstance(got, float) or not math.isclose(got, want, rel_tol=RN_REL_TOL):
                return "R_n %s = %r, expected %r" % (key, got, want)
        elif got != want:
            return "R_n %s = %r, expected %r" % (key, got, want)
    return None


def cases(workload: str) -> list[Case]:
    return [Case(i, *entry) for i, entry in enumerate(WORKLOADS[workload])]
