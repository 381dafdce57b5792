"""What each entry point loads: the package's exports and the CLI's solver
names resolve on first use, so a command imports only the modules it runs.

Every check that counts loaded modules runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layeredit
from layeredit.fileio import serialize_instance, serialize_solution

from conftest import ref_instance, ref_mlce_solution_k1_d2

ROOT = Path(__file__).resolve().parents[1]
CLI_BASE = {"cli", "core", "fileio"}

# the package's public names: 35 exports and the six submodules that its
# eager imports bound before its exports became lazy
PUBLIC_NAMES = [
    "CapabilityError", "Constraint", "Formula223", "InputError", "Instance", "KernelResult",
    "LayerGraph", "MLCE", "ParseError", "PlantedParams", "SearchStats",
    "Solution", "TCE", "VerifyReport", "apply_edits", "branching", "core",
    "enumerate_cluster_editing_sets", "fileio", "find_p3", "generate_planted",
    "generate_sat_reduction", "is_cluster_graph", "kernelize", "layer_from_edges",
    "max_weight_matching", "oracle", "oracle_mlce", "oracle_tce", "pair", "parse_instance",
    "parse_solution", "serialize_instance", "serialize_solution", "solve_mlce",
    "solve_tce_xp", "solve_two_layer_zero_edit", "structured_mlce", "tcepath", "twolayer",
    "verify",
]

LOADED = ("sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('layeredit.'))")
# stdlib modules whose import costs every command milliseconds of start-up
# (``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``); the ones the
# interpreter loaded before the code ran do not count
AVOIDED = "sorted({'dataclasses', 'inspect'} & set(sys.modules) - before)"


def run_fresh(code: str):
    """Run ``code`` in a new interpreter on ``src/``; returns what it prints
    last, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(*argvs, watched: str = LOADED) -> list[set[str]]:
    """The ``watched`` modules (by default the layeredit submodules) loaded
    after ``import layeredit.cli`` and after each ``cli.run(argv)`` in turn;
    every run must exit 0."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "import layeredit.cli as cli\n"
        f"steps = [[0, {watched}]]\n"
        f"for argv in {list(map(list, argvs))!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(argv)\n"
        f"    steps.append([code, {watched}])\n"
        "print(json.dumps(steps))\n"
    )
    steps = run_fresh(code)
    assert [code for code, _ in steps[1:]] == [0] * len(argvs)
    return [set(modules) for _, modules in steps]


@pytest.fixture
def files(tmp_path):
    inst = ref_instance("mlce", 1, 2)
    (tmp_path / "ref.mlg").write_text(serialize_instance(inst))
    (tmp_path / "ref.sol").write_text(serialize_solution(ref_mlce_solution_k1_d2(), inst))
    (tmp_path / "tce.mlg").write_text(serialize_instance(ref_instance("tce", 1, 1)))
    (tmp_path / "f.cnf").write_text("1 2 3\n1 -2 -3\n-1 2 -3\n-1 -2 3\n")
    return tmp_path


def test_import_package_loads_no_submodule():
    assert run_fresh(f"import json, sys, layeredit; print(json.dumps({LOADED}))") == []


def test_import_cli_loads_core_and_fileio():
    (after_import,) = loaded_after()
    assert after_import == CLI_BASE


def test_generate_and_verify_load_no_solver(files):
    steps = loaded_after(["generate", "sat", str(files / "f.cnf"), "--out", str(files / "s.mlg")],
                         ["verify", str(files / "ref.mlg"), str(files / "ref.sol")])
    assert all(modules == CLI_BASE for modules in steps)


def test_solve_and_kernelize_load_their_solver_only(files):
    # the tce solve shares core's pair index with the branch search, not the search
    for argv, modules in ((["solve", str(files / "ref.mlg")], {"branching"}),
                          (["solve", str(files / "tce.mlg")], {"tcepath", "twolayer"}),
                          (["kernelize", str(files / "ref.mlg")], {"kernelize"})):
        _, after = loaded_after(argv)
        assert after == CLI_BASE | modules, argv


def test_commands_load_neither_dataclasses_nor_inspect(files):
    planted = ["generate", "planted", "--n", "8", "--ell", "3", "--clusters", "3",
               "--noise", "1", "--drift", "1", "--out", str(files / "p.mlg")]
    steps = loaded_after(planted,
                         ["generate", "sat", str(files / "f.cnf"), "--out", str(files / "s.mlg")],
                         ["solve", str(files / "ref.mlg"), "--out", str(files / "out.sol")],
                         ["solve", str(files / "tce.mlg")],
                         ["verify", str(files / "ref.mlg"), str(files / "ref.sol")],
                         ["kernelize", str(files / "p.mlg")],
                         watched=AVOIDED)
    assert steps == [set()] * 7


def test_public_names_are_unchanged():
    assert sorted(layeredit.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(layeredit))


def test_star_import_binds_every_public_name():
    code = ("import json\nfrom layeredit import *\n"
            "print(json.dumps(sorted(n for n in globals() if not n.startswith('_') "
            "and n != 'json')))")
    assert run_fresh(code) == PUBLIC_NAMES


def test_each_export_is_its_submodules_object():
    for name in PUBLIC_NAMES:
        value = getattr(layeredit, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"layeredit.{name}"]
        else:
            defining = sys.modules[f"layeredit.{layeredit._EXPORTS[name]}"]
            assert value is getattr(defining, name), name


def test_kernelize_stays_the_function():
    # the submodule shares the function's name; loading it must not rebind it
    code = ("import json, layeredit, layeredit.kernelize as alias\n"
            "from layeredit.kernelize import kernelize\n"
            "print(json.dumps([alias is kernelize, layeredit.kernelize is kernelize]))")
    assert run_fresh(code) == [True, True]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        layeredit.no_such_name
    import layeredit.cli as cli
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_benchmark_hooks_resolve():
    # perfbench/tracing.py wraps functions under the names their callers
    # bind; a metric none of whose bindings resolves is reported absent
    code = (
        "import importlib.util, json\n"
        "spec = importlib.util.spec_from_file_location('tracing', 'perfbench/tracing.py')\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "import layeredit\n"
        "print(json.dumps(sorted(name for name, bindings in tracing.SPAN_HOOKS.items()\n"
        "    if not any(tracing._resolve(b)[1] for b in bindings))))\n"
    )
    assert run_fresh(code) == []
    import layeredit.branching
    import layeredit.cli
    import layeredit.tcepath
    assert layeredit.cli.solve_mlce is layeredit.branching.solve_mlce
    assert layeredit.cli.solve_tce_xp is layeredit.tcepath.solve_tce_xp
