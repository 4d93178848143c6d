"""Hierarchical inconsistency bounds: catalog structure and the ledger."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hierarchy import ROOT_GROUP, GroupCatalog, HierarchyLedger
from repro.errors import SpecificationError


def banking_catalog() -> GroupCatalog:
    """The paper's Figure 1 tree."""
    catalog = GroupCatalog()
    catalog.add_group("company")
    catalog.add_group("preferred")
    catalog.add_group("personal")
    catalog.add_group("com1", parent="company")
    catalog.add_group("com2", parent="company")
    catalog.add_group("div1", parent="com1")
    catalog.assign(1, "div1")
    catalog.assign(2, "com2")
    catalog.assign(3, "preferred")
    catalog.assign(4, "personal")
    return catalog


class TestGroupCatalog:
    def test_path_walks_to_root(self):
        catalog = banking_catalog()
        assert catalog.path(1) == ("div1", "com1", "company", ROOT_GROUP)
        assert catalog.path(3) == ("preferred", ROOT_GROUP)

    def test_independent_object_path_is_root_only(self):
        catalog = banking_catalog()
        assert catalog.path(999) == (ROOT_GROUP,)
        assert catalog.group_of(999) == ROOT_GROUP

    def test_duplicate_group_rejected(self):
        catalog = banking_catalog()
        with pytest.raises(SpecificationError):
            catalog.add_group("company")

    def test_unknown_parent_rejected(self):
        catalog = GroupCatalog()
        with pytest.raises(SpecificationError):
            catalog.add_group("child", parent="ghost")

    def test_root_name_rejected_as_group(self):
        catalog = GroupCatalog()
        with pytest.raises(SpecificationError):
            catalog.add_group(ROOT_GROUP)
        with pytest.raises(SpecificationError):
            catalog.add_group("")

    def test_assign_to_unknown_group_rejected(self):
        catalog = GroupCatalog()
        with pytest.raises(SpecificationError):
            catalog.assign(1, "nowhere")

    def test_reassign_moves_object(self):
        catalog = banking_catalog()
        catalog.assign(1, "personal")
        assert catalog.path(1) == ("personal", ROOT_GROUP)

    def test_reassign_moves_object_between_member_sets(self):
        """Membership follows re-assignments exactly."""
        catalog = banking_catalog()
        assert catalog.group_of(1) == "div1"
        assert catalog.group_of(4) == "personal"
        catalog.assign(1, "personal")
        assert catalog.group_of(1) == "personal"
        # ...and a ledger built before the move charges the new path.
        ledger = HierarchyLedger(
            catalog, 1e9, {"personal": 100.0, "com1": 100.0}
        )
        catalog.assign(1, "div1")
        assert catalog.group_of(1) == "div1"
        assert catalog.group_of(4) == "personal"
        assert ledger.try_charge(1, 60.0).admitted
        assert ledger.usage_of("com1") == 60.0
        assert ledger.usage_of("personal") == 0.0

    def test_members_and_children(self):
        catalog = banking_catalog()
        assert catalog.group_of(1) == "div1"
        assert set(catalog.children_of("company")) == {"com1", "com2"}
        assert catalog.parent_of("div1") == "com1"

    def test_root_has_no_parent(self):
        with pytest.raises(SpecificationError):
            banking_catalog().parent_of(ROOT_GROUP)

    def test_assign_many(self):
        catalog = banking_catalog()
        catalog.assign_many({10: "com1", 11: "com2"})
        assert catalog.group_of(10) == "com1"
        assert catalog.group_of(11) == "com2"

    def test_len_counts_groups(self):
        assert len(banking_catalog()) == 6


class TestHierarchyLedger:
    def test_charge_within_all_limits(self):
        catalog = banking_catalog()
        ledger = HierarchyLedger(
            catalog, 10_000, {"company": 4_000, "com1": 2_000}
        )
        outcome = ledger.check_and_charge(1, 1_500.0)
        assert outcome.admitted
        assert ledger.usage_of("com1") == 1_500.0
        assert ledger.usage_of("company") == 1_500.0
        assert ledger.total == 1_500.0

    def test_leaf_level_violation_reported(self):
        catalog = banking_catalog()
        ledger = HierarchyLedger(catalog, 10_000, {"com1": 2_000})
        outcome = ledger.check_and_charge(1, 2_500.0)
        assert not outcome.admitted
        assert outcome.violated_level == "com1"
        assert outcome.limit == 2_000

    def test_object_level_checked_first(self):
        catalog = banking_catalog()
        ledger = HierarchyLedger(catalog, 10_000, {"com1": 2_000})
        outcome = ledger.check_and_charge(1, 2_500.0, object_limit=1_000.0)
        assert outcome.violated_level == "object"

    def test_intermediate_level_violation(self):
        catalog = banking_catalog()
        ledger = HierarchyLedger(catalog, 10_000, {"company": 3_000})
        assert ledger.check_and_charge(1, 2_000.0).admitted
        outcome = ledger.check_and_charge(2, 1_500.0)
        assert not outcome.admitted
        assert outcome.violated_level == "company"

    def test_transaction_level_violation(self):
        catalog = banking_catalog()
        ledger = HierarchyLedger(catalog, 3_000)
        assert ledger.check_and_charge(3, 2_000.0).admitted
        outcome = ledger.check_and_charge(4, 1_500.0)
        assert not outcome.admitted
        assert outcome.violated_level == ROOT_GROUP

    def test_rejection_leaves_usage_untouched(self):
        catalog = banking_catalog()
        ledger = HierarchyLedger(catalog, 10_000, {"com1": 1_000, "company": 5_000})
        ledger.check_and_charge(2, 3_000.0)  # charges company via com2
        before = ledger.snapshot()
        assert not ledger.check_and_charge(1, 1_500.0).admitted
        assert ledger.snapshot() == before

    def test_sibling_budget_shared_through_parent(self):
        # com1 and com2 compete for the company budget (paper section 3.1).
        catalog = banking_catalog()
        ledger = HierarchyLedger(catalog, 100_000, {"company": 4_000})
        assert ledger.check_and_charge(1, 3_000.0).admitted  # via com1
        assert not ledger.check_and_charge(2, 1_500.0).admitted  # via com2
        assert ledger.check_and_charge(2, 1_000.0).admitted

    def test_unknown_group_limit_rejected(self):
        with pytest.raises(SpecificationError):
            HierarchyLedger(banking_catalog(), 100, {"ghost": 10})

    def test_negative_limits_rejected(self):
        catalog = banking_catalog()
        with pytest.raises(SpecificationError):
            HierarchyLedger(catalog, -1)
        with pytest.raises(SpecificationError):
            HierarchyLedger(catalog, 100, {"company": -5})

    def test_negative_charge_rejected(self):
        ledger = HierarchyLedger(banking_catalog(), 100)
        with pytest.raises(SpecificationError):
            ledger.try_charge(1, -1.0)

    def test_would_admit_does_not_charge(self):
        ledger = HierarchyLedger(banking_catalog(), 1_000)
        assert ledger.would_admit(1, 800.0)
        assert ledger.total == 0.0
        assert not ledger.would_admit(1, 1_200.0)

    def test_headroom(self):
        ledger = HierarchyLedger(banking_catalog(), 1_000)
        ledger.check_and_charge(3, 400.0)
        assert ledger.headroom() == 600.0

    def test_unlimited_groups_pass_through(self):
        ledger = HierarchyLedger(banking_catalog(), math.inf)
        assert ledger.check_and_charge(1, 1e12).admitted
        assert ledger.limit_of("com1") == math.inf


# -- property tests -----------------------------------------------------------------


@st.composite
def charges(draw):
    object_id = draw(st.sampled_from([1, 2, 3, 4]))
    amount = draw(st.floats(min_value=0, max_value=2_000))
    return object_id, amount


@settings(max_examples=60)
@given(st.lists(charges(), max_size=40))
def test_invariant_no_level_exceeds_its_limit(sequence):
    """After any charge sequence, usage <= limit at every level."""
    catalog = banking_catalog()
    limits = {"company": 4_000.0, "com1": 2_000.0, "preferred": 3_000.0}
    ledger = HierarchyLedger(catalog, 10_000.0, limits)
    for object_id, amount in sequence:
        ledger.check_and_charge(object_id, amount)
    for level, (usage, limit) in ledger.snapshot().items():
        assert usage <= limit + 1e-9, f"level {level} over budget"


@settings(max_examples=60)
@given(st.lists(charges(), max_size=40))
def test_invariant_parent_usage_is_sum_of_descendant_charges(sequence):
    """Admitted charges propagate 1:1 to every ancestor on the path."""
    catalog = banking_catalog()
    ledger = HierarchyLedger(
        catalog, 1e9, {"company": 1e9, "com1": 1e9, "preferred": 1e9}
    )
    admitted_total = 0.0
    company_total = 0.0
    for object_id, amount in sequence:
        if ledger.check_and_charge(object_id, amount).admitted:
            admitted_total += amount
            if object_id in (1, 2):
                company_total += amount
    assert ledger.total == pytest.approx(admitted_total)
    assert ledger.usage_of("company") == pytest.approx(company_total)


@settings(max_examples=40)
@given(
    st.lists(charges(), max_size=30),
    st.floats(min_value=0, max_value=20_000),
)
def test_invariant_total_never_exceeds_transaction_limit(sequence, limit):
    ledger = HierarchyLedger(banking_catalog(), limit)
    for object_id, amount in sequence:
        ledger.check_and_charge(object_id, amount)
    assert ledger.total <= limit + 1e-9


@st.composite
def random_hierarchies(draw):
    """A random group tree, object assignment, and per-group limits."""
    n_groups = draw(st.integers(min_value=0, max_value=6))
    catalog = GroupCatalog()
    names = [f"g{i}" for i in range(n_groups)]
    for index, name in enumerate(names):
        # Parent is the root or any earlier group — always acyclic.
        parent_index = draw(st.integers(min_value=-1, max_value=index - 1))
        catalog.add_group(
            name, None if parent_index < 0 else names[parent_index]
        )
    n_objects = draw(st.integers(min_value=1, max_value=8))
    for object_id in range(n_objects):
        target = draw(st.integers(min_value=-1, max_value=n_groups - 1))
        if target >= 0:
            catalog.assign(object_id, names[target])
    limited = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    limits = {
        name: draw(st.floats(min_value=0, max_value=5_000)) for name in limited
    }
    transaction_limit = draw(st.floats(min_value=0, max_value=10_000))
    return catalog, transaction_limit, limits, n_objects


@settings(max_examples=80)
@given(
    random_hierarchies(),
    st.data(),
)
def test_would_admit_iff_try_charge_succeeds(hierarchy, data):
    """The admission predicate and the charging logic never drift.

    For any hierarchy and any charge sequence, ``would_admit`` answers
    exactly whether ``try_charge`` will admit — and a rejected charge
    leaves every usage untouched.
    """
    catalog, transaction_limit, limits, n_objects = hierarchy
    ledger = HierarchyLedger(catalog, transaction_limit, limits)
    steps = data.draw(st.integers(min_value=0, max_value=25))
    for _ in range(steps):
        object_id = data.draw(st.integers(min_value=0, max_value=n_objects - 1))
        amount = data.draw(st.floats(min_value=0, max_value=3_000))
        predicted = ledger.would_admit(object_id, amount)
        before = ledger.snapshot()
        outcome = ledger.try_charge(object_id, amount)
        assert outcome.admitted == predicted
        if not outcome.admitted:
            assert ledger.snapshot() == before, "rejected charge mutated usage"
