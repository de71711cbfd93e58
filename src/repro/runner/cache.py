"""Content-addressed result cache: skip cells whose inputs are unchanged.

Every experiment cell is a pure function of (the repro source tree, the
task's ``module:attr`` spec, its canonicalised kwargs) — the simulation
is deterministic by construction, seeds included in the kwargs.  The
cache keys cells on exactly that triple, so ``repro run`` replays
unchanged cells from disk instead of re-simulating them, and any edit
under ``src/repro`` invalidates every key at once.

Key derivation
--------------
* **tree fingerprint** — sha256 over the relative path and content of
  every ``*.py`` file under the installed ``repro`` package.  Content-
  based (not ``git rev-parse``) so uncommitted edits invalidate too, and
  it works outside a git checkout.
* **canonical params** — kwargs normalised to a JSON document: mappings
  key-sorted, tuples/lists unified, bulk values replaced by content
  digests (bytes and numpy arrays by sha256,
  :class:`~repro.sim.SimState` captures by their
  :meth:`~repro.sim.SimState.fingerprint`, anything else by the digest
  of its pickle).

The cache is **off** in the library (``run_tasks(cache=None)`` consults
:func:`current`, which only activates via :func:`configure` or the
``REPRO_CACHE=1`` environment variable) and **on** by default in the
CLI's ``run`` command, where ``--no-cache`` opts out and
``repro cache stats``/``repro cache clear`` manage the store.  Entries
live under ``.repro-cache/`` (override with ``REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from ..atoms import atom_hexdigest
from ..errors import ReproError

ENV_ENABLED = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
DEFAULT_DIR = Path(".repro-cache")

#: bump when the key material or entry layout changes
KEY_SCHEMA = 1

#: pickle protocol pinned so keys and entries are stable across the
#: supported interpreter versions
_PROTOCOL = 4

_STATS_FILE = "stats.json"
_STATS_KEYS = ("hits", "misses", "stored")

#: memoised fingerprint of the installed package (computed once per
#: process; the tree does not change mid-run)
_DEFAULT_TREE: str | None = None


def tree_fingerprint(root: Path | str | None = None) -> str:
    """sha256 over the source tree's ``*.py`` paths and contents.

    ``root`` defaults to the installed ``repro`` package; explicit roots
    (tests, forks of the layout) are never memoised.
    """
    global _DEFAULT_TREE
    if root is None:
        if _DEFAULT_TREE is not None:
            return _DEFAULT_TREE
        import repro
        value = tree_fingerprint(Path(repro.__file__).parent)
        _DEFAULT_TREE = value
        return value
    base = Path(root)
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def canonical(value: Any) -> Any:
    """Normalise one task kwarg into a JSON-serialisable form.

    Equal inputs canonicalise equally across processes; bulk values are
    replaced by content digests so keys stay small.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips floats exactly; json would too, but pin it
        return {"float": repr(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, Mapping):
        return {"map": {str(key): canonical(item)
                        for key, item in sorted(
                            value.items(), key=lambda kv: str(kv[0]))}}
    if isinstance(value, (set, frozenset)):
        return {"set": sorted(json.dumps(canonical(item), sort_keys=True)
                              for item in value)}
    if isinstance(value, (bytes, bytearray)):
        return {"bytes": hashlib.sha256(bytes(value)).hexdigest()}
    fingerprint = getattr(value, "fingerprint", None)
    if callable(fingerprint):  # SimState captures and friends
        return {"fingerprint": fingerprint()}
    tobytes = getattr(value, "tobytes", None)
    if callable(tobytes):  # numpy arrays (same scheme, memoised)
        return {"array": atom_hexdigest(value)}
    try:
        payload = pickle.dumps(value, protocol=_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ReproError(
            f"cannot canonicalise cache parameter of type "
            f"{type(value).__name__}: {exc}") from exc
    return {"pickle": hashlib.sha256(payload).hexdigest()}


class ResultCache:
    """One on-disk result store, keyed by content."""

    def __init__(self, directory: Path | str | None = None,
                 tree_root: Path | str | None = None):
        if directory is None:
            directory = os.environ.get(ENV_DIR) or DEFAULT_DIR
        self.directory = Path(directory)
        self._tree = tree_fingerprint(tree_root)

    # ------------------------------------------------------------------
    # keys

    def task_key(self, fn: str, kwargs: Mapping[str, Any]) -> str:
        """The content address of one task's result."""
        material = json.dumps(
            {"schema": KEY_SCHEMA, "tree": self._tree, "fn": fn,
             "params": canonical(dict(kwargs))},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode()).hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # lookup / store

    def lookup(self, key: str) -> tuple[bool, Any]:
        """(hit, value); a corrupt or missing entry is a miss."""
        path = self._entry_path(key)
        try:
            payload = path.read_bytes()
            value = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError, IndexError):
            self._bump(misses=1)
            return False, None
        self._bump(hits=1)
        return True, value

    def store(self, key: str, value: Any) -> bool:
        """Persist one result; returns False when it cannot pickle."""
        try:
            payload = pickle.dumps(value, protocol=_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError):
            return False
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, payload)
        self._bump(stored=1)
        return True

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # stats / maintenance

    def _bump(self, hits: int = 0, misses: int = 0,
              stored: int = 0) -> None:
        counts = self._read_stats()
        counts["hits"] += hits
        counts["misses"] += misses
        counts["stored"] += stored
        self.directory.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            self.directory / _STATS_FILE,
            json.dumps(counts, sort_keys=True).encode() + b"\n")

    def _read_stats(self) -> dict[str, int]:
        try:
            raw = json.loads(
                (self.directory / _STATS_FILE).read_text())
        except (OSError, ValueError):
            raw = {}
        return {name: int(raw.get(name, 0) or 0)
                for name in _STATS_KEYS}

    def stats(self) -> dict[str, Any]:
        """Counters plus the store's current footprint."""
        entries = list(self.directory.glob("*/*.pkl"))
        counts: dict[str, Any] = self._read_stats()
        counts["entries"] = len(entries)
        counts["bytes"] = sum(path.stat().st_size for path in entries)
        counts["directory"] = str(self.directory)
        return counts

    def clear(self) -> int:
        """Delete every entry (and the counters); returns entries removed."""
        removed = 0
        for path in self.directory.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            (self.directory / _STATS_FILE).unlink()
        except OSError:
            pass
        return removed


# ----------------------------------------------------------------------
# process-wide activation (the CLI's hook; the library default is off)

_CURRENT: "ResultCache | bool | None" = None
_ENV_CACHE: ResultCache | None = None


def configure(cache: "ResultCache | bool | None") -> None:
    """Install the process-wide cache.

    ``None`` removes a configured cache (the ``REPRO_CACHE=1``
    environment fallback applies again); ``False`` forces caching off
    even against the environment — ``repro monitor`` uses this so a
    monitored run always simulates instead of replaying, which would
    leave the live bus with nothing to stream.
    """
    global _CURRENT
    _CURRENT = cache


def current() -> ResultCache | None:
    """The active cache: configured one, else ``REPRO_CACHE=1``, else
    ``None`` (caching off); ``configure(False)`` forces off."""
    global _ENV_CACHE
    if _CURRENT is False:
        return None
    if isinstance(_CURRENT, ResultCache):
        return _CURRENT
    if os.environ.get(ENV_ENABLED, "").lower() in ("1", "true", "yes",
                                                   "on"):
        if _ENV_CACHE is None:
            _ENV_CACHE = ResultCache()
        return _ENV_CACHE
    return None


def resolve_cache(cache: "ResultCache | bool | None") -> \
        ResultCache | None:
    """Normalise a ``run_tasks(cache=...)`` argument.

    ``None`` defers to :func:`current`; ``False`` forces caching off;
    ``True`` activates the default store; a :class:`ResultCache` is used
    as-is.
    """
    if cache is None:
        return current()
    if cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache
