"""What `import heiszeta` and each CLI command load.

The package resolves its public names on first use, and each command imports
only the library modules it runs: the verify checks and their second
derivations in `heiszeta.verify` load with the verify command only, the
enumerators of `heiszeta.combinat` with form a (and the oracles and checks)
only, and the float code of `heiszeta.numeric` with `global --rn` only.  No module imports `dataclasses`, whose
import pulls in inspect, dis and tokenize, and only the functions that use
`fractions` (with decimal and numbers behind it) or that write JSON import
them.  Import sets are read in a fresh interpreter per case, since this
process has loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heiszeta

SRC = str(Path(__file__).parent.parent / "src")

# Runs cli.main on its arguments, then prints the heiszeta modules loaded,
# and which of dataclasses, fractions and json were loaded before heiszeta
# and after the command.
PROBE = """\
import sys
WATCHED = ("dataclasses", "fractions", "json")
bare = {m: m in sys.modules for m in WATCHED}
from heiszeta.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "heiszeta")
after = {m: m in sys.modules for m in WATCHED}
import json
print(json.dumps([loaded, bare, after]))
"""

BASE = {"heiszeta", "heiszeta.cli", "heiszeta.errors"}
# forms b and ideal, and coeffs
CLOSED_FORMS = BASE | {"heiszeta.exactalg", "heiszeta.zeta"}
# forms c, graded and reduced, and global
IGUSA_FORMS = CLOSED_FORMS | {"heiszeta.igusa"}
# form a, the only form that sums over the w-vectors of combinat
FORM_A = IGUSA_FORMS | {"heiszeta.combinat"}
# global --rn, the only command that runs the float code
GLOBAL_RN = IGUSA_FORMS | {"heiszeta.numeric"}
# every verify check; the second derivations build on the Igusa functions
VERIFY = FORM_A | {"heiszeta.verify"}
# the fibre and residue checks, which build no closed form
PROOFS = VERIFY - {"heiszeta.zeta"}
ORACLE = BASE | {"heiszeta.combinat", "heiszeta.oracle"}  # lagrangian and sublattice
# alpha_n(mu; q^2) at q = p as an integer, without the exact kernel
FACTORIZATION = ORACLE | {"heiszeta.counts"}


def _run(code, *argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--version"], BASE),
        (["zeta", "--n", "3", "--form", "b"], CLOSED_FORMS),
        (["zeta", "--n", "3", "--form", "ideal"], CLOSED_FORMS),
        (["zeta", "--n", "2", "--form", "a"], FORM_A),
        (["zeta", "--n", "2", "--form", "c"], IGUSA_FORMS),
        (["zeta", "--n", "3", "--form", "graded"], IGUSA_FORMS),
        (["zeta", "--n", "3", "--form", "reduced"], IGUSA_FORMS),
        (["global", "--n", "2", "--eval"], IGUSA_FORMS),
        (["global", "--n", "2", "--eval", "--rn", "--prime-bound", "10"], GLOBAL_RN),
        (["coeffs", "--n", "1", "--prime", "2", "--max-order", "2"], CLOSED_FORMS),
        (["coeffs", "--n", "1", "--prime", "2", "--max-order", "2", "--oracle"],
         CLOSED_FORMS | {"heiszeta.combinat", "heiszeta.oracle"}),
        (["verify", "--n", "2", "--checks", "funeq"], VERIFY),
        (["verify", "--n", "2", "--checks", "crossform"], VERIFY),
        (["verify", "--n", "2", "--checks", "poles"], VERIFY),
        (["verify", "--n", "2", "--checks", "fibre"], PROOFS),
        (["verify", "--n", "2", "--checks", "residue"], PROOFS),
        (["verify", "--n", "2", "--checks", "reduced"], VERIFY),
        (["oracle", "lagrangian", "--mu", "1", "--prime", "2"], ORACLE),
        (["oracle", "sublattice", "--n", "1", "--prime", "2", "--max-val", "1"], ORACLE),
        (["oracle", "factorization", "--n", "1", "--prime", "2", "--max-val", "1"],
         FACTORIZATION),
    ],
    ids=["version", "zeta", "zeta-ideal", "zeta-igusa", "zeta-c", "zeta-graded", "zeta-reduced",
         "global", "global-rn", "coeffs", "coeffs-oracle", "verify", "verify-crossform", "verify-poles",
         "verify-fibre", "verify-residue", "verify-reduced", "oracle", "oracle-sublattice",
         "oracle-factorization"],
)
def test_each_command_loads_only_what_it_runs(argv, modules):
    loaded, bare, after = _run(PROBE, *argv)
    assert set(loaded) == modules
    if not bare["dataclasses"]:
        assert not after["dataclasses"], "dataclasses was imported"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["zeta", "--n", "3", "--form", "b"], False),
        (["verify", "--n", "3", "--checks", "poles"], True),
    ],
    ids=["zeta", "verify-poles"],
)
def test_fractions_loads_only_where_it_is_used(argv, expected):
    _, bare, after = _run(PROBE, *argv)
    if not bare["fractions"]:
        assert after["fractions"] is expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--version"], False),
        (["zeta", "--n", "3", "--form", "b"], False),
        (["zeta", "--n", "2", "--output", "json"], True),
        (["verify", "--n", "1", "--checks", "funeq"], True),
    ],
    ids=["version", "zeta-plain", "zeta-json", "verify"],
)
def test_json_loads_only_where_json_is_written(argv, expected):
    _, bare, after = _run(PROBE, *argv)
    if not bare["json"]:
        assert after["json"] is expected


def test_import_heiszeta_loads_no_submodule():
    code = (
        "import json, sys, heiszeta\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('heiszeta'))))"
    )
    assert _run(code) == ["heiszeta"]


@pytest.mark.parametrize("name", heiszeta.__all__)
def test_public_name_resolves_to_its_home(name):
    obj = getattr(heiszeta, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("heiszeta.")
    assert getattr(home, name) is obj
    assert name in dir(heiszeta)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heiszeta.no_such_name
    assert not hasattr(heiszeta, "zeta_compactt")
    namespace = {}
    exec("from heiszeta import *", namespace)
    assert set(heiszeta.__all__) <= set(namespace)
