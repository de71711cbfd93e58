"""Content digests for shared atoms, memoised per object.

Two layers hash the same immutable bulk values — the TPC-H column
arrays and the dataset object that owns them:

* :meth:`repro.sim.state.SimState.fingerprint` digests a capture's
  shared atoms into its cache-key identity, and
* :func:`repro.runner.cache.canonical` digests array-valued task
  kwargs into result-cache keys.

The scheme must stay byte-identical across both (cache keys and
snapshot fingerprints persist on disk), so it lives here once: numpy
arrays digest as ``sha256("<dtype>:<shape>" + raw buffer)``, everything
else as the sha256 of its pickle.

Digests are memoised by object identity — the atoms are megabytes and
immutable by contract, so each is hashed once per process no matter how
many sweeps and cache lookups touch it.  A weakref
callback evicts the entry when the atom is collected, so a recycled
``id()`` can never alias a stale digest; values that cannot be weakly
referenced (``bytes``, plain containers) are simply hashed each call.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from typing import Any

#: id(atom) -> (weakref guard, digest).  The guard's callback removes
#: the entry when the atom dies; only weakly-referenceable atoms enter.
_MEMO: dict[int, tuple[Any, bytes]] = {}


def _compute(atom: Any) -> bytes:
    tobytes = getattr(atom, "tobytes", None)
    if callable(tobytes):  # numpy arrays: raw buffer + dtype + shape
        meta = f"{getattr(atom, 'dtype', '')}:{getattr(atom, 'shape', '')}"
        return hashlib.sha256(meta.encode() + tobytes()).digest()
    return hashlib.sha256(
        pickle.dumps(atom, protocol=pickle.HIGHEST_PROTOCOL)).digest()


def _evict(key: int) -> None:
    _MEMO.pop(key, None)


def atom_digest(atom: Any) -> bytes:
    """Stable 32-byte content digest of one shared atom (memoised)."""
    key = id(atom)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit[1]
    value = _compute(atom)
    try:
        guard = weakref.ref(atom, lambda _ref, key=key: _evict(key))
    except TypeError:
        # bytes/containers take no weak references; hash each call
        return value
    _MEMO[key] = (guard, value)
    return value


def atom_hexdigest(atom: Any) -> str:
    """Hex form of :func:`atom_digest`."""
    return atom_digest(atom).hex()
