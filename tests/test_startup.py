"""What `import heiszeta` and each CLI command load, and how much it compiles.

The package resolves its public names on first use, and each command imports
only the library modules it runs: each verify check loads its own module of
`heiszeta.verify` and no other check's, the enumerators of
`heiszeta.combinat` load with form a, the oracles and the fibre and
crossform checks only, the float code of `heiszeta.numeric` with
`global --rn` only, and the sum-and-division engine `heiszeta._engine` of
the exact kernel only with a command that sums, divides, reduces or packs a
product.  No module imports `dataclasses`, whose import pulls in inspect,
dis and tokenize, and only the modules that use `fractions` (with decimal
and numbers behind it) or the functions that write JSON import them.  Import
sets are read in a fresh interpreter per case, since this process has loaded
every module.  The benchmark compiles every module it loads from source, so
the AST nodes of the modules a command loads are bounded by the figures of
BENCH_verify_path.json.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heiszeta

ROOT = Path(__file__).parent.parent
SRC = str(ROOT / "src")

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

ENGINE = "heiszeta._engine"
BASE = {"heiszeta", "heiszeta.cli", "heiszeta.errors"}
# form ideal, which neither sums nor divides
IDEAL = BASE | {"heiszeta.exactalg", "heiszeta.zeta"}
# form b and coeffs
CLOSED_FORMS = IDEAL | {ENGINE}
# forms c and graded, and global: products and rendering only
IGUSA_FORMS = IDEAL | {"heiszeta.igusa"}
# form reduced, which divides out (1 - T)^n
REDUCED_FORM = IGUSA_FORMS | {ENGINE}
# form a, the only form that sums over the w-vectors of combinat
FORM_A = REDUCED_FORM | {"heiszeta.combinat"}
# global --rn, the only command that runs the float code
GLOBAL_RN = IGUSA_FORMS | {"heiszeta.numeric"}
ORACLE = BASE | {"heiszeta.combinat", "heiszeta.oracle"}  # lagrangian and sublattice
# alpha_n(mu; q^2) at q = p as an integer, without the exact kernel
FACTORIZATION = ORACLE | {"heiszeta.counts"}

# The modules of the six verify checks, and what each check, run alone,
# loads besides the package heiszeta.verify and the exact kernel.
CHECK_MODULES = {name: "heiszeta.verify." + name
                 for name in ("crossform", "funeq", "poles", "fibre", "residue", "reduced")}
VERIFY = BASE | {"heiszeta.exactalg", "heiszeta.verify"}
DESCENT = "heiszeta.verify.descent"
CHECK_LOADS = {
    "crossform": {DESCENT, "heiszeta.zeta", "heiszeta.igusa", "heiszeta.combinat", ENGINE},
    "funeq": {"heiszeta.zeta", ENGINE},
    "poles": {"heiszeta.zeta", ENGINE},
    # the fibre sum sums over the w-vectors of combinat, and builds no closed form
    "fibre": {DESCENT, "heiszeta.igusa", "heiszeta.combinat", ENGINE},
    # no closed form, and every comparison over one denominator: no sum
    "residue": {DESCENT, "heiszeta.igusa"},
    "reduced": {"heiszeta.zeta", "heiszeta.igusa", ENGINE},
}


def _check_set(check):
    return VERIFY | {CHECK_MODULES[check]} | CHECK_LOADS[check]


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
        (["zeta", "--n", "3", "--form", "ideal"], IDEAL),
        (["zeta", "--n", "2", "--form", "a"], FORM_A),
        (["zeta", "--n", "2", "--form", "c"], IGUSA_FORMS),
        (["zeta", "--n", "3", "--form", "graded"], IGUSA_FORMS),
        (["zeta", "--n", "3", "--form", "reduced"], REDUCED_FORM),
        (["global", "--n", "2", "--eval"], IGUSA_FORMS),
        (["global", "--n", "2", "--eval", "--rn", "--prime-bound", "10"], GLOBAL_RN),
        (["coeffs", "--n", "1", "--prime", "2", "--max-order", "2"], CLOSED_FORMS),
        (["coeffs", "--n", "1", "--prime", "2", "--max-order", "2", "--oracle"],
         CLOSED_FORMS | {"heiszeta.combinat", "heiszeta.oracle"}),
        (["verify", "--n", "2", "--checks", "funeq"], _check_set("funeq")),
        (["verify", "--n", "2", "--checks", "crossform"], _check_set("crossform")),
        (["verify", "--n", "2", "--checks", "poles"], _check_set("poles")),
        (["verify", "--n", "2", "--checks", "fibre"], _check_set("fibre")),
        (["verify", "--n", "2", "--checks", "residue"], _check_set("residue")),
        (["verify", "--n", "2", "--checks", "reduced"], _check_set("reduced")),
        (["oracle", "lagrangian", "--mu", "1", "--prime", "2"], ORACLE),
        (["oracle", "sublattice", "--n", "1", "--prime", "2", "--max-val", "1"], ORACLE),
        (["oracle", "factorization", "--n", "1", "--prime", "2", "--max-val", "1"],
         FACTORIZATION),
    ],
    ids=["version", "zeta", "zeta-ideal", "zeta-igusa", "zeta-c", "zeta-graded", "zeta-reduced",
         "global", "global-rn", "coeffs", "coeffs-oracle", "verify", "verify-crossform",
         "verify-poles", "verify-fibre", "verify-residue", "verify-reduced", "oracle",
         "oracle-sublattice", "oracle-factorization"],
)
def test_each_command_loads_only_what_it_runs(argv, modules):
    loaded, bare, after = _run(PROBE, *argv)
    assert set(loaded) == modules
    if not bare["dataclasses"]:
        assert not after["dataclasses"], "dataclasses was imported"


@pytest.mark.parametrize("check", list(CHECK_MODULES))
def test_no_check_loads_another_checks_module(check):
    loaded, _, _ = _run(PROBE, "verify", "--n", "2", "--checks", check)
    assert CHECK_MODULES[check] in loaded
    assert [m for m in loaded if m in CHECK_MODULES.values()] == [CHECK_MODULES[check]]


@pytest.mark.parametrize(
    "argv, expected",
    [(["verify", "--n", "3", "--checks", name], name in ("poles", "reduced"))
     for name in CHECK_MODULES]
    + [(["zeta", "--n", "3", "--form", form], False) for form in ("b", "a", "c", "reduced")],
    ids=["verify-" + name for name in CHECK_MODULES] + ["zeta", "zeta-a", "zeta-c", "zeta-reduced"],
)
def test_fractions_loads_only_where_it_is_used(argv, expected):
    _, bare, after = _run(PROBE, *argv)
    if not bare["fractions"]:
        assert after["fractions"] is expected


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--n", "5", "--form", "c", "--output", "json"],
        ["zeta", "--n", "6", "--form", "graded", "--output", "json"],
        ["global", "--n", "5", "--eval", "--rn", "--prime-bound", "1000"],
        ["verify", "--n", "5", "--checks", "residue"],
    ],
    ids=["zeta-c", "zeta-graded", "global", "verify-residue"],
)
def test_products_and_rendering_do_not_load_the_engine(argv):
    # at the sizes of bench/workloads.py, where a larger product could pass
    # the Kronecker size rule of exactalg._p_mul
    loaded, _, _ = _run(PROBE, *argv)
    assert "heiszeta.exactalg" in loaded and ENGINE not in loaded


# Sums the AST nodes of every heiszeta module that a command loads, as the
# benchmark compiles them on every start.
FOOTPRINT = PROBE.replace("import json\nprint(json.dumps([loaded, bare, after]))", """\
import ast, json
print(json.dumps(sum(
    sum(1 for _ in ast.walk(ast.parse(open(sys.modules[m].__file__).read()))) for m in loaded)))
""")
# the verify_proofs cases of bench/workloads.py, and forms c and graded and
# global, which do not load the engine
BOUNDS = {command: row["bound"] for command, row in json.loads(
    (ROOT / "BENCH_verify_path.json").read_text())["ast_nodes"]["commands"].items()
    if "bound" in row}


@pytest.mark.parametrize("command", sorted(BOUNDS))
def test_compile_footprint_stays_inside_its_recorded_bound(command):
    # a module merged back into the start-up path of these commands adds
    # thousands of nodes; each bound is the recorded count plus about 3%
    assert _run(FOOTPRINT, *command.split()) <= BOUNDS[command]


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
