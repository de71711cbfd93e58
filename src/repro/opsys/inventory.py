"""Core leases: per-tenant arbitration of one machine's cores.

The paper runs "one controller instance per DBMS" — but the seed
implementation let that single controller edit the machine-wide cpuset
directly, so a second governed engine on the same machine would clobber
the first one's mask.  The :class:`CoreInventory` closes that gap: it is
the one registry of tenant masks, and it arbitrates conflicting claims —
two concurrent controllers (say a Volcano engine and a NUMA-aware engine)
can now shrink and grow side by side without ever overlapping.

Semantics:

* every tenant owns a :class:`~repro.opsys.cpuset.CpuSet`, held in
  :attr:`CoreInventory.cpusets` (the scheduler reads that same dict);
  the *default* tenant (``"db"``) owns the legacy machine-wide mask, so
  single-tenant programs behave exactly as before;
* a tenant is **governed** once a controller seeds its mask
  (:meth:`CoreInventory.seed`); from then on its cpuset *is* its lease
  set — an ungoverned tenant holds no leases;
* leases are **exclusive**: :meth:`acquire` refuses a core leased to a
  tenant (:class:`~repro.errors.LeaseError`), before any edit;
* :meth:`release` refuses to drop a tenant below its ``min_cores``
  floor, independently of the controller's own ``t7`` guard.

The invariants (leases disjoint, union within the online cores, release
only what is held, ``min_cores`` respected) are stated as hypothesis
property tests in ``tests/test_props_inventory.py``.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import LeaseError
from .cpuset import CpuSet

#: name of the tenant owning the legacy machine-wide cpuset
DEFAULT_TENANT = "db"


class CoreInventory:
    """The tenant registry: every tenant's mask, and who leases a core."""

    def __init__(self, n_cores: int):
        if n_cores < 1:
            raise LeaseError("an inventory needs at least one core")
        self.n_cores = n_cores
        #: tenant name -> the cpuset confining its managed threads, in
        #: registration order; the scheduler binds this dict object
        self.cpusets: dict[str, CpuSet] = {}
        self._min_cores: dict[str, int] = {}
        #: tenants whose cpuset is their lease set
        self._governed: set[str] = set()

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------

    def adopt(self, tenant: str, cpuset: CpuSet,
              min_cores: int = 1) -> None:
        """Register ``tenant`` with its cpuset (no leases yet)."""
        if tenant in self.cpusets:
            raise LeaseError(f"tenant {tenant!r} already registered")
        if cpuset.n_cores != self.n_cores:
            raise LeaseError("tenant cpuset size does not match the "
                             "inventory")
        if min_cores < 1:
            raise LeaseError("min_cores must be >= 1")
        self.cpusets[tenant] = cpuset
        self._min_cores[tenant] = min_cores

    def tenants(self) -> list[str]:
        """Registered tenant names, in registration order."""
        return list(self.cpusets)

    def cpuset_of(self, tenant: str) -> CpuSet:
        """The cpuset confining ``tenant``'s managed threads."""
        cpuset = self.cpusets.get(tenant)
        if cpuset is None:
            raise LeaseError(f"unknown tenant {tenant!r}")
        return cpuset

    def min_cores_of(self, tenant: str) -> int:
        """The release floor of ``tenant``."""
        self.cpuset_of(tenant)
        return self._min_cores[tenant]

    def is_governed(self, tenant: str) -> bool:
        """Whether a controller has seeded ``tenant``'s mask."""
        self.cpuset_of(tenant)
        return tenant in self._governed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def mask_of(self, tenant: str) -> frozenset[int]:
        """Cores currently leased by ``tenant``."""
        cpuset = self.cpuset_of(tenant)
        if tenant not in self._governed:
            return frozenset()
        return cpuset.allowed()

    def _leases(self) -> Iterable[tuple[str, CpuSet]]:
        """Every governed tenant with its cpuset, in registration
        order."""
        return ((tenant, cpuset) for tenant, cpuset in self.cpusets.items()
                if tenant in self._governed)

    def owner_of(self, core: int) -> str | None:
        """The tenant holding ``core``, or ``None`` when free."""
        for tenant, cpuset in self._leases():
            if core in cpuset:
                return tenant
        return None

    def free_cores(self) -> frozenset[int]:
        """Cores leased by no tenant."""
        return frozenset(range(self.n_cores)).difference(
            *(cpuset.allowed_tuple() for _, cpuset in self._leases()))

    def unavailable_to(self, tenant: str) -> frozenset[int]:
        """Cores leased to *other* tenants (off-limits for planning)."""
        self.cpuset_of(tenant)
        return frozenset().union(
            *(cpuset.allowed_tuple() for other, cpuset in self._leases()
              if other != tenant))

    # ------------------------------------------------------------------
    # lease edits
    # ------------------------------------------------------------------

    def seed(self, tenant: str, cores: Iterable[int]) -> None:
        """Grant the initial lease set and apply it as one mask edit.

        This is the controller ``start()`` path: the tenant's cpuset is
        replaced atomically (one listener notification, exactly like the
        legacy ``set_mask``) and becomes its lease set.
        """
        cpuset = self.cpuset_of(tenant)
        wanted = sorted(set(cores))
        for core in wanted:
            if not 0 <= core < self.n_cores:
                raise LeaseError(f"core {core} is not an online core")
            owner = self.owner_of(core)
            if owner is not None and owner != tenant:
                raise LeaseError(
                    f"core {core} is leased to tenant {owner!r}")
        floor = self._min_cores[tenant]
        if len(wanted) < floor:
            raise LeaseError(
                f"initial lease set of {len(wanted)} cores is below "
                f"tenant {tenant!r}'s min_cores={floor}")
        self._governed.add(tenant)
        cpuset.set_mask(wanted)

    def acquire(self, tenant: str, core: int) -> None:
        """Lease one free core to ``tenant`` and expose it in its mask.

        Every check runs before the edit: allowing the core runs the
        scheduler's mask listener, which may move a thread at once.
        """
        cpuset = self.cpuset_of(tenant)
        if tenant not in self._governed:
            raise LeaseError(
                f"tenant {tenant!r} holds no leases; seed it first")
        if not 0 <= core < self.n_cores:
            raise LeaseError(f"core {core} is not an online core")
        owner = self.owner_of(core)
        if owner is not None:
            raise LeaseError(
                f"core {core} is already leased to tenant {owner!r}")
        cpuset.allow(core)

    def release(self, tenant: str, core: int) -> None:
        """Return one of ``tenant``'s leased cores to the free pool."""
        if core not in self.mask_of(tenant):
            raise LeaseError(
                f"core {core} is not leased to tenant {tenant!r}")
        cpuset = self.cpusets[tenant]
        floor = self._min_cores[tenant]
        if len(cpuset) <= floor:
            raise LeaseError(
                f"tenant {tenant!r} holds {len(cpuset)} cores, at its "
                f"min_cores={floor} floor")
        cpuset.disallow(core)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Assert the ledger's invariants (cheap; used by experiments):
        governed masks are pairwise disjoint and hold only online
        cores."""
        owners: dict[int, str] = {}
        for tenant, cpuset in self._leases():
            for core in cpuset.allowed_tuple():
                if not 0 <= core < self.n_cores:
                    raise LeaseError(
                        f"lease of offline core {core} by {tenant!r}")
                if core in owners:
                    raise LeaseError(
                        f"core {core} is leased to both "
                        f"{owners[core]!r} and {tenant!r}")
                owners[core] = tenant
