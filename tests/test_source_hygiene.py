"""Source hygiene: hazards that no runtime test can observe.

Four patterns are checked by walking the package's syntax trees:

* a mutable default argument (``def f(x=[])``) is one object shared by
  every call, so state leaks between calls without changing any trace
  until the leak grows large;
* ``==`` / ``!=`` against a float literal in the simulation core
  (``core/``, ``sim/``, ``opsys/``) is exact today but breaks silently
  when accumulated rounding moves a value off the literal; thresholds
  must be orderings;
* a core lease taken or returned outside the lease mechanism (the
  inventory and the ``ElasticController`` that edits its tenant's
  leases) bypasses tenant arbitration, and an experiment that does it
  still runs to completion;
* a ``def`` that no program code names (the package, ``benchmarks/``
  and ``examples/``) is a library method only its own tests call; each
  one that stays is listed in :data:`UNREFERENCED_DEFS` with its reason.
  The match is by bare name, so a method shares a name with any other
  use of that name: coarse by design.

Everything else a determinism rule could flag (host clocks, unseeded
randomness, hash-ordered iteration, unpicklable callbacks, lease
rollback) is caught by the golden traces, the hash-seed golden run and
the snapshot and lease tests.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent

#: the program code whose references keep a ``def`` alive
CALLER_ROOTS = (PACKAGE, PACKAGE.parents[1] / "benchmarks",
                PACKAGE.parents[1] / "examples")

#: ``def`` names no program code refers to, and why each stays
UNREFERENCED_DEFS = {
    # the per-page reference model in tests/test_props_touch_runs.py
    "transfer": "per-page reference for Machine.touch's link charges",
    "place_batch": "per-page reference for VirtualMemory's placement",
    "is_placed": "per-page reference for VirtualMemory's placement",
    "flush_caches": "resets the per-page reference's machine",
    "note_pages": "per-page reference for the VM's residency counts",
    "access": "per-page LRU oracle that SharedCache.resolve is tested "
              "against",
    # oracles of the property tests
    "state_of": "oracle of the PrT-net property tests",
    "total_tokens": "token-conservation oracle of the PrT-net tests",
    "schedule_at": "absolute-time twin of schedule(); the event-queue "
                   "property tests drive both",
    "size_bytes": "snapshot size the snapshot tests bound",
    "free_cores": "inventory oracle of the inventory property tests",
    "is_governed": "inventory oracle of the inventory property tests",
    "hottest": "end of NodePriorityQueue.by_priority the mode tests "
               "check",
    "coldest": "end of NodePriorityQueue.by_priority the mode tests "
               "check",
    "run_to_completion": "single-query engine driver of the engine tests",
    # runs in CI
    "run_traced": "fig13 golden-trace parity (tests/test_golden_trace.py)",
    # called by the pickle module
    "persistent_id": "pickle hook of SimState's pickler",
    "persistent_load": "pickle hook of SimState's unpickler",
    # documented entry points
    "by_index": "CounterBank's per-index read; the conservation tests "
                "read whole families through it",
    "account_busy": "checked busy-time entry; the scheduler writes the "
                    "family in place",
    "attach": "SystemValidator's periodic mode (see repro.validate)",
    "lifecycle": "the controller's state (docs/control_plane.md)",
}

#: packages whose comparisons must be orderings
STRICT_ZONES = ("core", "sim", "opsys")

#: the modules that are the lease mechanism
LEASE_HOMES = ("opsys/inventory.py", "core/controller.py")

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}
_LEASE_METHODS = {"acquire", "release", "seed"}


def mutable_defaults(tree: ast.AST) -> list[int]:
    """Lines of default arguments that build a mutable object."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS):
                lines.append(default.lineno)
    return lines


def float_equalities(tree: ast.AST) -> list[int]:
    """Lines comparing with ``==`` / ``!=`` against a float literal."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    for side in operands[i:i + 2]):
                lines.append(node.lineno)
    return lines


def lease_edits(tree: ast.AST) -> list[int]:
    """Lines calling ``acquire`` / ``release`` / ``seed`` on an
    inventory (a receiver whose source text mentions ``inventory``)."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LEASE_METHODS):
            continue
        if "inventory" in ast.unparse(node.func.value):
            lines.append(node.lineno)
    return lines


def defined_names(tree: ast.AST) -> dict[str, int]:
    """Non-dunder ``def`` names, each with its first line."""
    found: dict[str, int] = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            found.setdefault(node.name, node.lineno)
    return found


def referenced_names(tree: ast.AST) -> set[str]:
    """Names the tree uses: bare names, attributes, imported names and
    the ``attr`` of ``"module:attr"`` spec strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                           str):
            spec = re.fullmatch(r"[\w.]+:(\w+)", node.value)
            if spec:
                names.add(spec.group(1))
    return names


def unreferenced_defs(tree: ast.AST, used: set[str]) -> dict[str, int]:
    """``def`` names of ``tree`` outside ``used``, with their lines."""
    return {name: line for name, line in defined_names(tree).items()
            if name not in used}


@pytest.fixture(scope="module")
def modules() -> list[tuple[str, ast.AST]]:
    found = [(path.relative_to(PACKAGE).as_posix(),
              ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.rglob("*.py"))]
    assert len(found) > 50, f"walked only {len(found)} modules"
    return found


def test_no_mutable_default_arguments(modules):
    hits = [f"{name}:{line}" for name, tree in modules
            for line in mutable_defaults(tree)]
    assert not hits, f"mutable default arguments: {hits}"


def test_no_float_literal_equality_in_the_simulation_core(modules):
    hits = [f"{name}:{line}" for name, tree in modules
            if name.split("/")[0] in STRICT_ZONES
            for line in float_equalities(tree)]
    assert not hits, f"== / != against a float literal: {hits}"


def test_lease_edits_stay_in_the_lease_mechanism(modules):
    hits = [f"{name}:{line}" for name, tree in modules
            if name not in LEASE_HOMES
            for line in lease_edits(tree)]
    assert not hits, f"inventory edits outside {LEASE_HOMES}: {hits}"


def test_every_def_is_named_by_program_code(modules):
    callers = [ast.parse(path.read_text(), filename=str(path))
               for root in CALLER_ROOTS
               for path in sorted(root.rglob("*.py"))]
    used = set().union(*map(referenced_names, callers))
    hits = [f"{name} ({module}:{line})" for module, tree in modules
            for name, line in unreferenced_defs(tree, used).items()
            if name not in UNREFERENCED_DEFS]
    assert not hits, f"defs no program code names: {hits}"
    stale = [name for name in UNREFERENCED_DEFS if name in used]
    assert not stale, f"allowlisted defs that are now named: {stale}"


def test_reference_scan_sees_every_kind_of_use():
    tree = ast.parse(
        "def named(): pass\n"
        "def attribute(): pass\n"
        "def imported(): pass\n"
        "def spec(): pass\n"
        "def unused(): pass\n"
        "def __dunder__(): pass\n"
        "named()\n"
        "obj.attribute\n"
        "from pkg.mod import imported\n"
        "task = 'pkg.mod:spec'\n")
    assert unreferenced_defs(tree, referenced_names(tree)) == {"unused": 5}


@pytest.mark.parametrize("detector, source", [
    (mutable_defaults, "def f(x=[]): pass"),
    (mutable_defaults, "def f(*, x=dict()): pass"),
    (mutable_defaults, "g = lambda x={1}: x"),
    (float_equalities, "ok = load == 0.5"),
    (float_equalities, "ok = 0 < 1.0 != load"),
    (lease_edits, "os_.inventory.acquire('db', 3)"),
    (lease_edits, "inventory.release('db', 3)"),
])
def test_detectors_flag_their_hazard(detector, source):
    assert detector(ast.parse(source)) == [1]


@pytest.mark.parametrize("detector, source", [
    (mutable_defaults, "def f(x=None, y=(), z=frozenset()): pass"),
    (float_equalities, "ok = load <= 0.5 and n == 0"),
    (lease_edits, "lock.acquire(); pool.release(x); rng.seed(1)"),
])
def test_detectors_pass_the_safe_forms(detector, source):
    assert detector(ast.parse(source)) == []
