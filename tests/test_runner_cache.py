"""Unit tests for the content-addressed result cache.

The cache must be *sound* before it is fast: identical inputs map to one
key across processes and instances, and any change to the source tree,
the task spec or the canonicalised parameters must change the key.  The
pool integration is covered through ``run_tasks`` with a side-effect
counter — a hit must mean the task did not execute.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.runner.cache import (ResultCache, canonical, configure,
                                current, resolve_cache, tree_fingerprint)
from repro.runner.pool import Task, run_tasks

#: bumped by _counted below; reset per test
_CALLS = {"n": 0}


def _counted(x):
    _CALLS["n"] += 1
    return x * 3


@pytest.fixture(autouse=True)
def _reset_calls():
    _CALLS["n"] = 0
    yield
    configure(None)


def _tree(tmp_path, text="x = 1\n"):
    root = tmp_path / "srctree"
    root.mkdir(exist_ok=True)
    (root / "mod.py").write_text(text)
    return root


# ---------------------------------------------------------------------
# keys


def test_key_is_stable_across_instances_and_kwarg_order(tmp_path):
    root = _tree(tmp_path)
    a = ResultCache(directory=tmp_path / "c", tree_root=root)
    b = ResultCache(directory=tmp_path / "c", tree_root=root)
    kwargs = dict(seed=7, users=(1, 4), scale=0.01)
    reordered = dict(scale=0.01, seed=7, users=[1, 4])
    assert a.task_key("m:f", kwargs) == b.task_key("m:f", reordered)


def test_key_changes_with_params_and_spec(tmp_path):
    cache = ResultCache(directory=tmp_path / "c",
                        tree_root=_tree(tmp_path))
    base = cache.task_key("m:f", dict(seed=7))
    assert cache.task_key("m:f", dict(seed=8)) != base
    assert cache.task_key("m:g", dict(seed=7)) != base
    assert cache.task_key("m:f", dict(seed=7, extra=None)) != base


def test_source_edit_invalidates_every_key(tmp_path):
    root = _tree(tmp_path, "x = 1\n")
    before = ResultCache(directory=tmp_path / "c", tree_root=root) \
        .task_key("m:f", dict(seed=7))
    _tree(tmp_path, "x = 2\n")
    after = ResultCache(directory=tmp_path / "c", tree_root=root) \
        .task_key("m:f", dict(seed=7))
    assert before != after


def test_default_tree_fingerprint_is_memoised_and_nonempty():
    assert tree_fingerprint() == tree_fingerprint()
    assert len(tree_fingerprint()) == 64


def test_canonical_digests_bulk_values():
    arr = np.arange(8, dtype=np.float64)
    assert canonical(arr) == canonical(arr.copy())
    assert canonical(arr) != canonical(arr + 1)
    assert canonical(b"abc") == canonical(bytearray(b"abc"))
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
    assert canonical((1, 2)) == canonical([1, 2])


def test_canonical_uses_simstate_fingerprints():
    from repro.sim.engine import Simulator

    state = Simulator().snapshot()
    assert canonical(state) == {"fingerprint": state.fingerprint()}


# ---------------------------------------------------------------------
# storage


def test_lookup_store_roundtrip_and_stats(tmp_path):
    cache = ResultCache(directory=tmp_path / "c",
                        tree_root=_tree(tmp_path))
    key = cache.task_key("m:f", dict(seed=1))
    hit, _ = cache.lookup(key)
    assert not hit
    assert cache.store(key, {"rows": [1, 2, 3]})
    hit, value = cache.lookup(key)
    assert hit and value == {"rows": [1, 2, 3]}
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["stored"] == 1
    assert stats["entries"] == 1
    assert stats["bytes"] > 0


def test_corrupt_entries_read_as_misses(tmp_path):
    cache = ResultCache(directory=tmp_path / "c",
                        tree_root=_tree(tmp_path))
    key = cache.task_key("m:f", dict(seed=1))
    cache.store(key, "ok")
    cache._entry_path(key).write_bytes(b"\x80garbage")
    hit, _ = cache.lookup(key)
    assert not hit


def test_clear_removes_entries_and_counters(tmp_path):
    cache = ResultCache(directory=tmp_path / "c",
                        tree_root=_tree(tmp_path))
    for seed in range(3):
        cache.store(cache.task_key("m:f", dict(seed=seed)), seed)
    assert cache.clear() == 3
    stats = cache.stats()
    assert stats["entries"] == 0
    assert stats["stored"] == 0


# ---------------------------------------------------------------------
# pool integration


def test_run_tasks_replays_hits_without_executing(tmp_path):
    cache = ResultCache(directory=tmp_path / "c")
    tasks = [Task("tests.test_runner_cache:_counted", dict(x=i))
             for i in range(4)]
    first = run_tasks(tasks, cache=cache)
    assert first == [0, 3, 6, 9]
    assert _CALLS["n"] == 4
    second = run_tasks(tasks, cache=cache)
    assert second == first
    assert _CALLS["n"] == 4  # all four replayed
    # a new task mixes hits and misses, in submission order
    mixed = run_tasks(tasks + [Task("tests.test_runner_cache:_counted",
                                    dict(x=9))], cache=cache)
    assert mixed == [0, 3, 6, 9, 27]
    assert _CALLS["n"] == 5


def test_run_tasks_cache_false_disables(tmp_path):
    configure(ResultCache(directory=tmp_path / "c"))
    tasks = [Task("tests.test_runner_cache:_counted", dict(x=1))]
    run_tasks(tasks)  # cache=None -> configured cache
    run_tasks(tasks)
    assert _CALLS["n"] == 1
    run_tasks(tasks, cache=False)
    assert _CALLS["n"] == 2


def test_resolve_cache_and_current(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    configure(None)
    assert current() is None
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    store = ResultCache(directory=tmp_path / "c")
    assert resolve_cache(store) is store
    configure(store)
    assert current() is store
    assert resolve_cache(None) is store


def test_env_var_activates_cache(tmp_path, monkeypatch):
    configure(None)
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    import repro.runner.cache as cache_mod
    monkeypatch.setattr(cache_mod, "_ENV_CACHE", None)
    store = current()
    assert store is not None
    assert store.directory == tmp_path / "envcache"


def test_cached_experiment_results_pickle_identically(tmp_path):
    """A replayed cell is byte-identical to the run that stored it."""
    from repro.experiments import fig13_scheduling

    cache = ResultCache(directory=tmp_path / "c")
    configure(cache)
    try:
        kwargs = dict(users=(1,), repetitions=1)
        cold = fig13_scheduling.run(**kwargs)
        warm = fig13_scheduling.run(**kwargs)
    finally:
        configure(None)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)
    assert cache.stats()["hits"] >= 1
