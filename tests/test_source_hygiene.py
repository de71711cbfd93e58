"""Source hygiene: hazards that no runtime test can observe.

Three patterns are checked by walking the package's syntax trees:

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
  still runs to completion.

Everything else a determinism rule could flag (host clocks, unseeded
randomness, hash-ordered iteration, unpicklable callbacks, lease
rollback) is caught by the golden traces, the hash-seed golden run and
the snapshot and lease tests.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent

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
