"""Property tests: the core-lease ledger under random edit sequences.

Hypothesis drives a :class:`~repro.opsys.CoreInventory` shared by three
tenants through random seed/acquire/release sequences and asserts the
invariants the docstring promises:

* leases are pairwise **disjoint** — one owner per core, ever;
* the union of tenant masks stays **within the online cores**;
* :meth:`release` succeeds only for a **core the tenant holds**, and
  afterwards the core is free;
* no edit ever drops a governed tenant below its **min_cores** floor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LeaseError
from repro.opsys.cpuset import CpuSet
from repro.opsys.inventory import CoreInventory

N_CORES = 12
TENANTS = ("a", "b", "c")
MIN_CORES = {"a": 1, "b": 2, "c": 1}

#: one random lease edit: (tenant, operation, core)
edits = st.lists(
    st.tuples(st.sampled_from(TENANTS),
              st.sampled_from(("acquire", "release")),
              st.integers(min_value=0, max_value=N_CORES - 1)),
    max_size=80)

#: initial seeds: disjoint prefixes of the core range per tenant
seed_sizes = st.tuples(st.integers(min_value=1, max_value=3),
                       st.integers(min_value=2, max_value=3),
                       st.integers(min_value=1, max_value=3))


def build_inventory() -> CoreInventory:
    inventory = CoreInventory(N_CORES)
    for tenant in TENANTS:
        inventory.adopt(tenant, CpuSet(N_CORES),
                        min_cores=MIN_CORES[tenant])
    return inventory


def seed_all(inventory: CoreInventory, sizes) -> None:
    start = 0
    for tenant, size in zip(TENANTS, sizes):
        inventory.seed(tenant, range(start, start + size))
        start += size


def assert_invariants(inventory: CoreInventory) -> None:
    masks = {tenant: inventory.mask_of(tenant) for tenant in TENANTS}
    # pairwise disjoint
    for one in TENANTS:
        for other in TENANTS:
            if one != other:
                assert not masks[one] & masks[other]
    # union within the online cores
    union = frozenset().union(*masks.values())
    assert union <= frozenset(range(N_CORES))
    # min_cores floor of every governed tenant
    for tenant in TENANTS:
        if inventory.is_governed(tenant):
            assert len(masks[tenant]) >= MIN_CORES[tenant]
    # the ledger's own self-check agrees
    inventory.check()


@given(sizes=seed_sizes, sequence=edits)
@settings(max_examples=120, deadline=None)
def test_lease_invariants_under_random_edits(sizes, sequence):
    inventory = build_inventory()
    seed_all(inventory, sizes)
    assert_invariants(inventory)
    for tenant, operation, core in sequence:
        held_before = inventory.mask_of(tenant)
        owner_before = inventory.owner_of(core)
        if operation == "acquire":
            try:
                inventory.acquire(tenant, core)
            except LeaseError:
                # only a held core is refused
                assert owner_before is not None
            else:
                assert owner_before is None
                assert inventory.owner_of(core) == tenant
                assert core in inventory.mask_of(tenant)
        else:
            try:
                inventory.release(tenant, core)
            except LeaseError:
                # refused iff not held, or at the floor
                assert (core not in held_before
                        or len(held_before) <= MIN_CORES[tenant])
            else:
                # release only returns a core the tenant held
                assert core in held_before
                assert inventory.owner_of(core) is None
        assert_invariants(inventory)


@given(sizes=seed_sizes)
@settings(max_examples=40, deadline=None)
def test_seed_is_atomic_and_exact(sizes):
    inventory = build_inventory()
    seed_all(inventory, sizes)
    start = 0
    for tenant, size in zip(TENANTS, sizes):
        wanted = frozenset(range(start, start + size))
        assert inventory.mask_of(tenant) == wanted
        assert inventory.cpuset_of(tenant).allowed() == wanted
        assert inventory.is_governed(tenant)
        start += size
    assert inventory.free_cores() == frozenset(range(start, N_CORES))


@given(sizes=seed_sizes, core=st.integers(0, N_CORES - 1))
@settings(max_examples=60, deadline=None)
def test_foreign_cores_are_never_acquirable(sizes, core):
    inventory = build_inventory()
    seed_all(inventory, sizes)
    owner = inventory.owner_of(core)
    for tenant in TENANTS:
        if owner is not None and owner != tenant:
            assert core in inventory.unavailable_to(tenant)
            try:
                inventory.acquire(tenant, core)
            except LeaseError:
                pass
            else:
                raise AssertionError("foreign core was acquirable")


def test_reseed_replaces_the_lease_set():
    inventory = build_inventory()
    inventory.seed("a", [0, 1, 2])
    inventory.seed("a", [5, 6])
    assert inventory.mask_of("a") == {5, 6}
    assert inventory.free_cores() >= {0, 1, 2}


def test_seed_refuses_foreign_and_sub_floor_sets():
    inventory = build_inventory()
    inventory.seed("a", [0, 1])
    try:
        inventory.seed("b", [1, 2])
    except LeaseError:
        pass
    else:
        raise AssertionError("seed over a foreign lease succeeded")
    try:
        inventory.seed("b", [2])  # b's floor is 2
    except LeaseError:
        pass
    else:
        raise AssertionError("sub-floor seed succeeded")
