"""Export tests: every exported name resolves, and removed API stays removed."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uavsense

MODULES = sorted(m.name for m in pkgutil.iter_modules(uavsense.__path__))
ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))

# public names deleted because nothing in the pipeline read them
REMOVED = {
    "channel": ["los_probability", "average_pathloss", "snr", "link_rate",
                "_check_geometry"],
    "analysis": ["DominanceModel", "dominance_threshold", "fit_eta", "knee_subcarriers"],
    # the greedy scheduler ranks the requesters' own states: no slot mapping
    "scheduler": ["OnDemand", "_Estimates", "_ProjectsCompletion"],
    "simulator": ["_Residuals", "_slots_to_drain"],  # Leg.slots_to_deliver
    "placement": ["adjust_collinear"],  # placement has one move, the retreat
    # planners read the observed mask itself; constant_speed_leg sums with _summed
    "trajectory": ["grant_from_mask", "_granted_total"],
    "bench": ["fsl_plan"],  # run_scheme runs every scheme
    "itsso": ["_CollectorPaused"],  # run_itsso pauses the collector itself
    "sensing": ["sensing_success_single"],  # sensing_success_coop([d]) is the same number
}


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in ``__init__``."""
    tree = ast.parse(inspect.getsource(uavsense))
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"uavsense.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"uavsense.{name}.__all__ lists missing {export!r}"


def test_every_package_import_resolves():
    imports = _package_imports()
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(f"uavsense.{module}"), name)
        assert hasattr(uavsense, name)


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_functions_are_gone(module):
    mod = importlib.import_module(f"uavsense.{module}")
    package_names = {name for _, name in _package_imports()}
    for name in REMOVED[module]:
        assert not hasattr(mod, name)
        assert name not in getattr(mod, "__all__", ())
        assert name not in package_names


def test_removed_members_are_gone():
    from uavsense import bench, itsso, placement, simulator, trajectory
    from uavsense.bench import ExperimentResult, ScenarioConfig
    from uavsense.channel import Position3
    from uavsense.cli import build_parser
    from uavsense.scheduler import schedule_slot
    from uavsense.simulator import SimOutcome, run
    from uavsense.trajectory import drain_leg

    assert not hasattr(trajectory, "_Path")  # a Leg reads its own rates
    assert not hasattr(trajectory._Line, "point")
    assert "uneven_split" not in {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert not hasattr(Position3, "is_finite")
    assert not hasattr(ExperimentResult, "mean")
    assert "tran_durations" not in {f.name for f in dataclasses.fields(SimOutcome)}
    assert "max_slots" not in inspect.signature(run).parameters
    assert "max_slots" not in inspect.signature(drain_leg).parameters
    # a rank key carries its residual; nothing is left to default
    params = inspect.signature(schedule_slot).parameters
    assert list(params) == ["keys", "k"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    # legs are re-planned only by placement; the initial builder has one mode
    assert set(inspect.signature(itsso._build_plans).parameters) == {
        "scenario", "locations", "cache"}
    assert not hasattr(itsso, "replan_leg") and not hasattr(itsso, "grant_from_mask")
    assert not hasattr(placement._Search, "_replan_incoming")
    assert not hasattr(placement._Search, "_replan_outgoing")
    # one owner per leg-planning rule
    assert not hasattr(simulator.UavPlan, "sensing_slots")  # UavPlan.first_slot
    assert not hasattr(placement, "_first_slot")
    assert not hasattr(trajectory, "_reaches")  # trajectory._summed
    assert not hasattr(trajectory._Line, "_full")
    # every leg rate is read through Leg.rate; Leg.waypoints spreads its own
    assert not hasattr(trajectory._Line, "filled") and not hasattr(trajectory.Leg, "_spread")
    assert not hasattr(itsso, "default_initial_locations")  # itsso.overhead_locations
    # the budget keeps every group at its threshold: no repair move
    for member in ("_repair", "upper_bound", "_grow_location"):
        assert not hasattr(placement._Search, member)
    # one grant representation: the observed mask, a function or None
    assert not hasattr(trajectory, "_MaskGrant") and not hasattr(trajectory, "GrantFn")
    # one table of experiments; nothing the search computes goes unread
    assert not hasattr(bench, "_SWEEPS") and not hasattr(bench, "_MANIFESTS")
    assert "t_max_history" not in {f.name for f in dataclasses.fields(
        placement.SensingAssignment)}
    # options and helpers no caller reads; fig8 checks feasibility without a run
    assert "seed" not in inspect.signature(bench.nc_config).parameters
    assert "q_cap" not in inspect.signature(bench._min_q_simulated).parameters
    assert not hasattr(ExperimentResult, "raw_values")
    assert not hasattr(bench, "initial_solution")
    # sweeps run in one process: no pool to size
    assert "workers" not in inspect.signature(bench.run_experiment).parameters
    assert not hasattr(build_parser().parse_args(["experiment", "--id", "fig4"]), "workers")
    # the scenario decides FSL's pin (itsso._pinned_height); nothing passes it
    assert "fixed_locations" not in inspect.signature(itsso.run_itsso).parameters
    assert "locations" not in inspect.signature(itsso.initial_solution).parameters
    assert list(inspect.signature(itsso._check_feasible).parameters) == ["scenario"]
    assert bench.run_scheme is itsso.run_itsso
    # a solution states its objective and its iteration count once
    solution_fields = {f.name for f in dataclasses.fields(itsso.Solution)}
    assert not solution_fields & {"t_max", "iterations"}


def test_one_function_reads_fsls_rule():
    # a comparison with the scheme name "fsl" happens only where the pin is
    # decided, itsso._pinned_height
    where = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"uavsense.{name}")))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where += [f"{name}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Compare)
                          and any(isinstance(c, ast.Constant) and c.value == "fsl"
                                  for c in [node.left, *node.comparators])]
    assert where == ["itsso._pinned_height"]


def _unused_imports(source: str) -> list[str]:
    """Module-level imports that no name in ``source`` reads: a stand-in for
    pyflakes' F401, since no linter is installed."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{n} (line {line})" for n, line in imported.items() if n not in used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_level_imports(name):
    # the package's __init__, which imports only to re-export, is not a module here
    unused = _unused_imports(inspect.getsource(importlib.import_module(f"uavsense.{name}")))
    assert not unused, f"uavsense.{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", TEST_FILES + PERFBENCH_FILES,
                         ids=lambda path: path.name if path in TEST_FILES
                         else f"perfbench/{path.name}")
def test_no_unused_imports_in_tests(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.parent.name}/{path.name} imports names it never uses: {unused}"


def test_the_micro_benchmarks_run():
    # perfbench's micro-benchmarks are skipped unless selected with -m micro;
    # running each call once here keeps the benchmark's calls into the
    # package working
    src = str(Path(uavsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/test_perfbench_micro.py", "-m", "micro",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout and "skipped" not in done.stdout


def _package_trees_and_reads() -> tuple[dict[str, ast.Module], set[str]]:
    """Each module's syntax tree, and every name the package reads: loaded
    names, attribute names and names imported from a module."""
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"uavsense.{name}")))
             for name in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return trees, read


def test_no_orphaned_private_helpers():
    # no dead-code linter is installed, so this stands in for one: every
    # private module-level name is read somewhere in the package
    trees, read = _package_trees_and_reads()
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"uavsense.{name}.{d} (line {node.lineno})" for d in defined
                        if d.startswith("_") and not d.startswith("__") and d not in read]
    assert not orphans, f"private names that nothing in the package reads: {orphans}"


def test_no_unread_class_members():
    # the same stand-in for a dead-code linter, for classes: every method or
    # property a package class defines, dunders aside, is read somewhere in
    # the package, public ones included
    trees, read = _package_trees_and_reads()
    unread = [f"uavsense.{name}.{cls.name}.{fn.name} (line {fn.lineno})"
              for name, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not fn.name.startswith("__") and fn.name not in read]
    assert not unread, f"class members that nothing in the package reads: {unread}"
