import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcassort import mcdlp
from mcassort.mcdlp import McdlpVariant
from mcassort.model import (
    AssortmentFamily,
    CustomerType,
    Instance,
    InvalidInstanceError,
    Item,
    Mnl,
    Product,
    Tabular,
    choice_prob,
    family_probs,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    split_inventory,
    validate,
)
from scalar_oracles import no_purchase_prob


def _single_type_instance(probs, q=1.0, patience=1, revenues=None, T=1):
    n = len(probs)
    ct = CustomerType(
        id=0,
        arrival=q,
        revenues=tuple(revenues) if revenues else (1.0,) * n,
        choice=Tabular(entries={}, item_probs=tuple(probs)),
        patience=patience,
    )
    return Instance.single_level(
        T=T, inventories=[1] * n, types=(ct,),
        family=AssortmentFamily.size_capped(1), matching_with_timeouts=True,
    )


class TestValidate:
    def test_trivial_instance_valid(self):
        inst = _single_type_instance([0.5])
        assert inst.validate().ok

    def test_arrival_mass_exceeds_one(self):
        types = tuple(
            CustomerType(id=j, arrival=0.6, revenues=(1.0,),
                         choice=Tabular(entries={}, item_probs=(0.5,)), patience=1)
            for j in range(2)
        )
        inst = Instance.single_level(T=1, inventories=[1], types=types,
                                     family=AssortmentFamily.size_capped(1))
        report = inst.validate()
        assert not report.ok
        assert any("arrival mass" in v for v in report.violations)

    def test_substitutability_violation_detected(self):
        entries = {
            (0, frozenset({0})): 0.3,
            (0, frozenset({0, 1})): 0.4,  # adding item 1 must not raise item 0
            (1, frozenset({1})): 0.2,
            (1, frozenset({0, 1})): 0.2,
        }
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                          choice=Tabular(entries=entries), patience=1)
        inst = Instance.single_level(T=1, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(2))
        report = inst.validate()
        assert any("substitutability" in v for v in report.violations)

    def test_both_patience_fields_rejected(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,),
                          choice=Tabular(entries={}, item_probs=(0.5,)),
                          patience=1, leave_prob=0.5)
        inst = Instance.single_level(T=1, inventories=[1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        assert any("exactly one" in v for v in inst.validate().violations)

    def test_matching_tag_requires_singletons(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                          choice=Mnl(weights=(1.0, 1.0), no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=1, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(2),
                                     matching_with_timeouts=True)
        assert any("matching" in v for v in inst.validate().violations)

    def test_family_enumerated_once_for_every_tabular_type(self, monkeypatch):
        calls = []
        enumerate_family = AssortmentFamily.assortments
        monkeypatch.setattr(AssortmentFamily, "assortments",
                            lambda fam, n: calls.append(n) or enumerate_family(fam, n))

        def tabular_types(n, k):
            types = tuple(CustomerType(id=j, arrival=0.2, revenues=(1.0,) * n, patience=1,
                                       choice=Tabular(entries={}, item_probs=(0.05,) * n))
                          for j in range(3))
            return Instance.single_level(T=1, inventories=[1] * n, types=types,
                                         family=AssortmentFamily.size_capped(k))

        assert validate(tabular_types(4, 2)).ok
        assert calls == [4]
        # a family too large to enumerate is still named once per tabular type
        report = validate(tabular_types(17, 17))
        assert calls == [4, 17]
        assert report.violations == tuple(
            f"type {j}: family too large to enumerate (131072 sets); use column generation" for j in range(3))


class TestValidateAtEntry:
    def _bad(self):
        # arrival mass 1.2 at every step and a negative inventory
        return Instance.single_level(T=2, inventories=[1, -1], types=(
            CustomerType(id=0, arrival=0.6, revenues=(1.0, 1.0), choice=Mnl((1.0, 1.0), 1.0), patience=1),
            CustomerType(id=1, arrival=0.6, revenues=(1.0, 1.0), choice=Mnl((1.0, 1.0), 1.0), patience=1),
        ), family=AssortmentFamily.size_capped(1))

    def test_load_instance_rejects(self, tmp_path):
        path = str(tmp_path / "bad.json")
        save_instance(self._bad(), path)
        with pytest.raises(InvalidInstanceError) as info:
            load_instance(path)
        assert "item 1: negative inventory" in info.value.violations
        assert sum("arrival mass exceeds 1" in v for v in info.value.violations) == 2
        assert isinstance(info.value, ValueError)
        assert "negative inventory" in str(info.value)

    def test_solve_variant_rejects(self):
        with pytest.raises(InvalidInstanceError, match="negative inventory"):
            mcdlp.solve_variant(self._bad(), McdlpVariant.SINGLE_ITEM)


class TestChoiceProb:
    def test_mnl_symmetric(self):
        m = Mnl(weights=(1.0, 1.0), no_purchase=1.0)
        assert choice_prob(m, 0, {0, 1}) == pytest.approx(1 / 3)

    def test_mnl_equal_weight_single(self):
        m = Mnl(weights=(2.0,), no_purchase=2.0)
        assert choice_prob(m, 0, {0}) == pytest.approx(0.5)

    def test_tabular_lookup_identity(self):
        t = Tabular(entries={(0, frozenset({0, 1})): 0.25, (1, frozenset({0, 1})): 0.5})
        assert choice_prob(t, 1, {0, 1}) == 0.5

    def test_item_not_in_assortment_rejected(self):
        m = Mnl(weights=(1.0, 1.0), no_purchase=1.0)
        with pytest.raises(ValueError):
            choice_prob(m, 0, {1})

    def test_mnl_probabilities_sum_to_one_with_no_purchase(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            w = tuple(float(x) for x in rng.uniform(0.1, 3.0, n))
            m = Mnl(weights=w, no_purchase=float(rng.uniform(0.1, 3.0)))
            S = frozenset(range(n))
            total = sum(choice_prob(m, i, S) for i in S) + no_purchase_prob(m, S)
            assert total == pytest.approx(1.0)

    def test_mnl_substitutability_property(self):
        # adding any item never raises an incumbent's probability
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            w = tuple(float(x) for x in rng.uniform(0.05, 4.0, n))
            m = Mnl(weights=w, no_purchase=float(rng.uniform(0.1, 2.0)))
            members = [i for i in range(n) if rng.random() < 0.5]
            if not members:
                members = [0]
            S = frozenset(members)
            outside = [i for i in range(n) if i not in S]
            if not outside:
                continue
            extra = outside[0]
            for i in S:
                assert choice_prob(m, i, S) >= choice_prob(m, i, S | {extra})

    def test_family_probs_pads_and_refuses_unknown_products(self):
        model = Mnl(weights=(1.0, 2.0, 0.5), no_purchase=1.0)
        table = Tabular(entries={}, item_probs=(0.1, 0.2, 0.3))
        sets = [frozenset(), frozenset({2, 0}), frozenset({1})]
        members, probs = family_probs([model, table], sets, 3)
        assert members.tolist() == [[3, 3], list(sets[1]), [1, 3]]
        for choice, got in zip((model, table), probs):
            assert got.tolist() == [[0.0, 0.0], [p for _, p in choice.probs(sets[1])], [choice.prob(1, sets[2]), 0.0]]
        for bad in ({3}, {-1, 0}, {4}):
            with pytest.raises(ValueError, match=r"outside 0\.\.2"):
                family_probs([model], [frozenset(bad)], 3)


class TestSplitInventory:
    def test_single_item_three_units(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(2.0,),
                          choice=Tabular(entries={}, item_probs=(0.5,)), patience=1)
        inst = Instance.single_level(T=1, inventories=[3], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        out = split_inventory(inst)
        assert out.n_items == 3
        assert all(it.inventory == 1 for it in out.items)
        assert out.types[0].revenues == (2.0, 2.0, 2.0)

    def test_unit_inventory_identity(self):
        inst = _single_type_instance([0.5, 0.3])
        assert split_inventory(inst) is inst

    def test_parent_map(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 2.0),
                          choice=Tabular(entries={}, item_probs=(0.5, 0.25)), patience=1)
        inst = Instance.single_level(T=1, inventories=[2, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        out = split_inventory(inst)
        assert out.n_items == 3
        assert [it.parent for it in out.items] == [0, 0, 1]

    def test_table_entries_survive_next_to_item_probs(self):
        # entries take precedence over the set-independent fallback, so every
        # copy of item 0 keeps p(0, {0}) = 0.9
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                          choice=Tabular(entries={(0, frozenset({0})): 0.9}, item_probs=(0.5, 0.5)),
                          patience=1)
        inst = Instance.single_level(T=1, inventories=[2, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        assert inst.validate().ok
        out = split_inventory(inst)
        probs = [choice_prob(out.types[0].choice, p.id, frozenset({p.id})) for p in out.products]
        assert probs == [0.9, 0.9, 0.5]

    def test_preserves_total_inventory_and_lp_optimum(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            types = []
            for j in range(m):
                types.append(CustomerType(
                    id=j, arrival=float(0.9 / m),
                    revenues=tuple(float(x) for x in rng.uniform(0.5, 2.0, n)),
                    choice=Tabular(entries={}, item_probs=tuple(float(x) for x in rng.uniform(0.1, 0.9, n))),
                    patience=int(rng.integers(1, n + 1)),
                ))
            inst = Instance.single_level(
                T=5, inventories=[int(b) for b in rng.integers(1, 4, n)], types=tuple(types),
                family=AssortmentFamily.size_capped(1), matching_with_timeouts=True,
            )
            out = split_inventory(inst)
            assert sum(it.inventory for it in out.items) == sum(it.inventory for it in inst.items)
            o1 = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM).objective
            o2 = mcdlp.solve_variant(out, McdlpVariant.SINGLE_ITEM).objective
            assert o1 == pytest.approx(o2, abs=1e-7)


class TestFamily:
    def test_enumeration_is_lexicographic_and_has_empty(self):
        fam = AssortmentFamily.size_capped(2)
        sets = fam.assortments(3)
        as_tuples = [tuple(sorted(s)) for s in sets]
        assert as_tuples[0] == ()
        assert as_tuples == sorted(as_tuples)
        assert len(sets) == 1 + 3 + 3

    def test_explicit_dedup_and_empty_always_present(self):
        fam = AssortmentFamily.explicit([[1, 0], [0, 1], [2]])
        assert len(fam.sets) == 3  # empty, {0,1}, {2}
        assert frozenset() in fam.sets

    def test_too_large_enumeration_rejected(self):
        fam = AssortmentFamily.size_capped(20)
        with pytest.raises(ValueError, match="column generation"):
            fam.assortments(30)


@st.composite
def _valid_instances(draw):
    """Valid instances: stationary or tabulated arrivals, deterministic or
    geometric patience, MNL or set-independent tables (some with singleton
    entries), size-capped or explicit families, one or two price levels,
    and split into unit items when the instance allows it."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 2))
    P = n * K
    T = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        family = AssortmentFamily.size_capped(draw(st.integers(0, P)))
    else:
        family = AssortmentFamily.explicit(
            draw(st.lists(st.frozensets(st.integers(0, P - 1)), max_size=4)))
    q = st.floats(0.0, 1.0 / m)
    types = []
    for j in range(m):
        arrival = draw(st.one_of(q, st.tuples(*[q] * T)))
        if draw(st.booleans()):
            patience, leave_prob = draw(st.integers(1, 3)), None
        else:
            patience, leave_prob = None, draw(st.floats(0.0, 1.0, exclude_min=True))
        if draw(st.booleans()):
            weight = st.floats(1e-3, 10.0)
            choice = Mnl(weights=tuple(draw(weight) for _ in range(P)), no_purchase=draw(weight))
        else:
            probs = tuple(draw(st.floats(0.0, 1.0 / P)) for _ in range(P))
            pinned = draw(st.frozensets(st.integers(0, P - 1)))
            choice = Tabular(entries={(i, frozenset({i})): probs[i] for i in pinned},
                             item_probs=probs)
        types.append(CustomerType(id=j, arrival=arrival,
                                  revenues=tuple(draw(st.floats(0.0, 100.0)) for _ in range(P)),
                                  choice=choice, patience=patience, leave_prob=leave_prob))
    items = tuple(Item(i, draw(st.integers(0, 3))) for i in range(n))
    inst = Instance(
        T=T, items=items, products=tuple(Product(i * K + lv, i, lv) for i in range(n) for lv in range(K)),
        types=tuple(types), family=family, price_levels=K,
        repeated_offers_allowed=draw(st.booleans()),
        matching_with_timeouts=family.is_singleton_family(P) and draw(st.booleans()),
    )
    splittable = family.mode == "size_capped" and (family.is_singleton_family(P) or all(
        isinstance(ct.choice, Mnl) or not ct.choice.entries for ct in types))
    if splittable and draw(st.booleans()):
        inst = split_inventory(inst)
    return inst


def _with_type(inst, j, **changes):
    types = list(inst.types)
    types[j] = dataclasses.replace(types[j], **changes)
    return dataclasses.replace(inst, types=tuple(types))


def _with_item(inst, i, **changes):
    items = list(inst.items)
    items[i] = dataclasses.replace(items[i], **changes)
    return dataclasses.replace(inst, items=tuple(items))


def _single_field_mutations(inst, j):
    """Ways to break one field of the valid ``inst`` (type ``j`` for the
    per-type fields), each with the violation ``validate`` must name."""
    P = inst.n_products
    ct = inst.types[j]
    out = [
        (dataclasses.replace(inst, T=0), "T must be positive"),
        (dataclasses.replace(inst, price_levels=0), "price_levels must be >= 1"),
        (_with_type(inst, j, id=j + 9), f"type ids must be dense, got {j + 9} at {j}"),
        (_with_type(inst, j, arrival=1.5), f"type {j}: arrival probabilities outside [0,1]"),
        (_with_type(inst, j, arrival=(0.0,) * (inst.T + 1)), f"type {j}: arrival table length {inst.T + 1} != T={inst.T}"),
        (_with_type(inst, j, revenues=ct.revenues + (1.0,)), f"type {j}: revenue vector length {P + 1} != {P}"),
        (dataclasses.replace(inst, family=AssortmentFamily.explicit(inst.family.assortments(P) + (frozenset({P}),))),
         f"family set [{P}] references unknown products"),
    ]
    if P:  # splitting an instance drops its zero-stock items
        out += [
            (dataclasses.replace(inst, products=inst.products[:-1]), "products must be the item x price-level cross product"),
            (dataclasses.replace(inst, products=(dataclasses.replace(inst.products[0], id=P + 3),) + inst.products[1:]),
             f"product {P + 3}: id must equal item*K+level"),
            (_with_item(inst, 0, id=7), "item ids must be dense 0..n-1, got 7 at 0"),
            (_with_item(inst, 0, inventory=-1), "item 0: negative inventory"),
            (_with_type(inst, j, revenues=(-1.0,) + ct.revenues[1:]), f"type {j}: revenues must be finite and non-negative"),
            (_with_type(inst, j, revenues=ct.revenues[:-1] + (math.inf,)), f"type {j}: revenues must be finite and non-negative"),
        ]
    if ct.patience is not None:
        out += [(_with_type(inst, j, leave_prob=0.5), f"type {j}: exactly one of patience and leave_prob must be set"),
                (_with_type(inst, j, patience=0), f"type {j}: patience must be a positive integer")]
    else:
        out += [(_with_type(inst, j, leave_prob=None), f"type {j}: exactly one of patience and leave_prob must be set"),
                (_with_type(inst, j, leave_prob=1.5), f"type {j}: leave_prob must lie in (0,1]")]
    if isinstance(ct.arrival, tuple):
        out.append((_with_type(inst, j, arrival=ct.arrival[:-1] + (-0.5,)), f"type {j}: arrival probabilities outside [0,1]"))
    if isinstance(ct.choice, Mnl) and P:
        w = ct.choice.weights
        out += [
            (_with_type(inst, j, choice=Mnl(w[:-1], ct.choice.no_purchase)), f"type {j}: MNL weight vector length {P - 1} != {P}"),
            (_with_type(inst, j, choice=Mnl((0.0,) + w[1:], ct.choice.no_purchase)), f"type {j}: MNL weights must be strictly positive"),
            (_with_type(inst, j, choice=Mnl(w, 0.0)), f"type {j}: MNL weights must be strictly positive"),
        ]
    elif isinstance(ct.choice, Tabular):
        # a product shown in some family set without a table entry there
        # reads its set-independent probability
        shown = sorted({i for S in inst.family.assortments(P) for i in S if (i, S) not in ct.choice.entries})
        if shown:
            i = shown[0]
            probs = ct.choice.item_probs[:i] + (1.5,) + ct.choice.item_probs[i + 1:]
            out.append((_with_type(inst, j, choice=Tabular(ct.choice.entries, probs)),
                        f"type {j}: probability 1.5 outside [0,1] for product {i}"))
        if ct.choice.item_probs is not None:
            out.append((_with_type(inst, j, choice=Tabular(ct.choice.entries, ct.choice.item_probs + (0.0,))),
                        f"type {j}: tabular item_probs length {P + 1} != {P}"))
    if not inst.family.is_singleton_family(P):
        out.append((dataclasses.replace(inst, matching_with_timeouts=True),
                    "matching-with-timeouts instances must have |S| <= 1 assortments"))
    return out


class TestValidateMutations:
    @settings(max_examples=80, deadline=None)
    @given(_valid_instances(), st.data())
    def test_each_single_field_mutation_is_named(self, inst, data):
        assert validate(inst).ok, validate(inst).violations
        j = data.draw(st.integers(0, inst.m - 1))
        for bad, message in _single_field_mutations(inst, j):
            assert message in validate(bad).violations


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(_valid_instances())
    def test_json_roundtrip_of_valid_instances(self, inst):
        assert validate(inst).ok, validate(inst).violations
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert back == inst

    def test_json_roundtrip_lossless(self):
        from mcassort.simlab import random_norepeat_instance
        inst = random_norepeat_instance(seed=2, n=4, cap=2, m=3)
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_tabular_roundtrip(self):
        entries = {(0, frozenset({0})): 0.5, (0, frozenset({0, 1})): 0.25,
                   (1, frozenset({1})): 0.5, (1, frozenset({0, 1})): 0.25}
        ct = CustomerType(id=0, arrival=(0.4, 0.6), revenues=(1.0, 2.0),
                          choice=Tabular(entries=entries), leave_prob=0.5)
        inst = Instance.single_level(T=2, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.explicit([[0], [1], [0, 1]]))
        back = instance_from_dict(instance_to_dict(inst))
        assert back.types[0].choice.entries == entries
        assert back.types[0].arrival == (0.4, 0.6)
        assert back == inst
