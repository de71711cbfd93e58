"""Core leases: per-tenant arbitration of one machine's cores.

The paper runs "one controller instance per DBMS" — but the seed
implementation let that single controller edit the machine-wide cpuset
directly, so a second governed engine on the same machine would clobber
the first one's mask.  The :class:`CoreInventory` closes that gap: cores
are *leased* per tenant, the cpuset a tenant's threads see is derived
from its leases, and the inventory arbitrates conflicting claims — two
concurrent controllers (say a Volcano engine and a NUMA-aware engine)
can now shrink and grow side by side without ever overlapping.

Semantics:

* every tenant owns a :class:`~repro.opsys.cpuset.CpuSet`; the *default*
  tenant (``"db"``) owns the legacy machine-wide mask, so single-tenant
  programs behave exactly as before;
* a tenant is **governed** once a controller seeds its mask
  (:meth:`CoreInventory.seed`); from then on its cpuset contents and its
  leases are the same set;
* leases are **exclusive**: :meth:`acquire` refuses a core leased to a
  different tenant (:class:`~repro.errors.LeaseError`);
* :meth:`release` refuses to drop a tenant below its ``min_cores``
  floor, independently of the controller's own ``t7`` guard.

The invariants (leases disjoint, union within the online cores, release
only what is held, ``min_cores`` respected) are stated as hypothesis
property tests in ``tests/test_props_inventory.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import LeaseError
from .cpuset import CpuSet

#: name of the tenant owning the legacy machine-wide cpuset
DEFAULT_TENANT = "db"


@dataclass(frozen=True, slots=True)
class CoreLease:
    """One core held by one tenant."""

    tenant: str
    core: int


@dataclass
class _TenantEntry:
    """Inventory bookkeeping for one tenant."""

    name: str
    cpuset: CpuSet
    min_cores: int = 1
    governed: bool = False


class CoreInventory:
    """Ownership ledger mapping cores to tenants."""

    def __init__(self, n_cores: int):
        if n_cores < 1:
            raise LeaseError("an inventory needs at least one core")
        self.n_cores = n_cores
        self._tenants: dict[str, _TenantEntry] = {}
        #: core id -> tenant name, for leased cores only
        self._owner: dict[int, str] = {}

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------

    def adopt(self, tenant: str, cpuset: CpuSet,
              min_cores: int = 1) -> None:
        """Register ``tenant`` with its cpuset (no leases yet)."""
        if tenant in self._tenants:
            raise LeaseError(f"tenant {tenant!r} already registered")
        if cpuset.n_cores != self.n_cores:
            raise LeaseError("tenant cpuset size does not match the "
                             "inventory")
        if min_cores < 1:
            raise LeaseError("min_cores must be >= 1")
        self._tenants[tenant] = _TenantEntry(tenant, cpuset, min_cores)

    def tenants(self) -> list[str]:
        """Registered tenant names, in registration order."""
        return list(self._tenants)

    def cpuset_of(self, tenant: str) -> CpuSet:
        """The cpuset derived from ``tenant``'s leases."""
        return self._entry(tenant).cpuset

    def min_cores_of(self, tenant: str) -> int:
        """The release floor of ``tenant``."""
        return self._entry(tenant).min_cores

    def is_governed(self, tenant: str) -> bool:
        """Whether a controller has seeded ``tenant``'s mask."""
        return self._entry(tenant).governed

    def _entry(self, tenant: str) -> _TenantEntry:
        entry = self._tenants.get(tenant)
        if entry is None:
            raise LeaseError(f"unknown tenant {tenant!r}")
        return entry

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def leases(self) -> list[CoreLease]:
        """Every lease, ordered by core id."""
        return [CoreLease(tenant=self._owner[core], core=core)
                for core in sorted(self._owner)]

    def mask_of(self, tenant: str) -> frozenset[int]:
        """Cores currently leased by ``tenant``."""
        self._entry(tenant)
        return frozenset(core for core, owner in self._owner.items()
                         if owner == tenant)

    def owner_of(self, core: int) -> str | None:
        """The tenant holding ``core``, or ``None`` when free."""
        return self._owner.get(core)

    def free_cores(self) -> frozenset[int]:
        """Cores leased by no tenant."""
        return frozenset(range(self.n_cores)) - set(self._owner)

    def unavailable_to(self, tenant: str) -> frozenset[int]:
        """Cores leased to *other* tenants (off-limits for planning)."""
        self._entry(tenant)
        return frozenset(core for core, owner in self._owner.items()
                         if owner != tenant)

    # ------------------------------------------------------------------
    # lease edits
    # ------------------------------------------------------------------

    def seed(self, tenant: str, cores: Iterable[int]) -> None:
        """Grant the initial lease set and apply it as one mask edit.

        This is the controller ``start()`` path: the tenant's cpuset is
        replaced atomically (one listener notification, exactly like the
        legacy ``set_mask``) and every core in it becomes a lease.
        """
        entry = self._entry(tenant)
        wanted = sorted(set(cores))
        for core in wanted:
            if not 0 <= core < self.n_cores:
                raise LeaseError(f"core {core} is not an online core")
            owner = self._owner.get(core)
            if owner is not None and owner != tenant:
                raise LeaseError(
                    f"core {core} is leased to tenant {owner!r}")
        if len(wanted) < entry.min_cores:
            raise LeaseError(
                f"initial lease set of {len(wanted)} cores is below "
                f"tenant {tenant!r}'s min_cores={entry.min_cores}")
        for core in sorted(self.mask_of(tenant)):
            del self._owner[core]
        for core in wanted:
            self._owner[core] = tenant
        entry.governed = True
        entry.cpuset.set_mask(wanted)

    def acquire(self, tenant: str, core: int) -> CoreLease:
        """Lease one free core to ``tenant`` and expose it in its mask.

        Every check runs before the first edit: allowing the core runs
        the scheduler's mask listener, which may move a thread at once.
        """
        entry = self._entry(tenant)
        if not 0 <= core < self.n_cores:
            raise LeaseError(f"core {core} is not an online core")
        owner = self._owner.get(core)
        if owner is not None:
            raise LeaseError(
                f"core {core} is already leased to tenant {owner!r}")
        self._owner[core] = tenant
        entry.cpuset.allow(core)
        return CoreLease(tenant=tenant, core=core)

    def release(self, tenant: str, core: int) -> None:
        """Return one of ``tenant``'s leased cores to the free pool."""
        entry = self._entry(tenant)
        if self._owner.get(core) != tenant:
            raise LeaseError(
                f"core {core} is not leased to tenant {tenant!r}")
        held = len(self.mask_of(tenant))
        if held <= entry.min_cores:
            raise LeaseError(
                f"tenant {tenant!r} holds {held} cores, at its "
                f"min_cores={entry.min_cores} floor")
        del self._owner[core]
        entry.cpuset.disallow(core)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Assert the ledger's invariants (cheap; used by experiments).

        * leases are disjoint by construction (one owner per core) —
          what is verified here is the derived-mask agreement: every
          governed tenant's cpuset equals its lease set;
        * every lease names an online core.
        """
        for core, owner in self._owner.items():
            if not 0 <= core < self.n_cores:
                raise LeaseError(
                    f"lease of offline core {core} by {owner!r}")
        for entry in self._tenants.values():
            if not entry.governed:
                continue
            mask = self.mask_of(entry.name)
            if mask != entry.cpuset.allowed():
                raise LeaseError(
                    f"tenant {entry.name!r} cpuset "
                    f"{sorted(entry.cpuset.allowed())} disagrees with "
                    f"its leases {sorted(mask)}")
