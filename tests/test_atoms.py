"""Content digests for shared atoms: the persisted scheme and its memo.

Result-cache keys and snapshot fingerprints persist on disk, so the
digest scheme must never drift; the per-object memo must never outlive
its atom.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np

from repro.atoms import _MEMO, atom_digest


def test_atom_digest_matches_the_historical_scheme():
    arr = np.arange(16, dtype=np.int64)
    meta = f"{arr.dtype}:{arr.shape}"
    expected = hashlib.sha256(meta.encode() + arr.tobytes()).digest()
    assert atom_digest(arr) == expected
    obj = ("tuple", 3)
    assert atom_digest(obj) == hashlib.sha256(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).digest()


def test_atom_digest_is_memoised_and_evicted_on_collection():
    arr = np.arange(1024, dtype=np.float64)
    first = atom_digest(arr)
    assert _MEMO[id(arr)][1] == first
    assert atom_digest(arr) is _MEMO[id(arr)][1]
    key = id(arr)
    del arr
    assert key not in _MEMO  # weakref callback evicted the entry
