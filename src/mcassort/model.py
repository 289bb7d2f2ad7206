"""Immutable problem instances for multi-stage, multi-customer assortment sales.

An instance bundles items (inventory holders), products (offerable units, one
per item and price level), customer types with choice models and patience, and
the family of assortments the platform may display.  Instances are frozen
after construction and safe to share across concurrent simulation replicas.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_TOL = 1e-9
MAX_TABULAR_FAMILY = 1 << 16

__all__ = [
    "Item",
    "Product",
    "Mnl",
    "Tabular",
    "CustomerType",
    "AssortmentFamily",
    "Instance",
    "ValidationReport",
    "InvalidInstanceError",
    "choice_prob",
    "family_probs",
    "slot_sums",
    "validate",
    "split_inventory",
    "load_instance",
    "save_instance",
]


@dataclass(frozen=True)
class Item:
    """One inventory holder.  ``parent`` tracks the original id after splitting."""

    id: int
    inventory: int
    parent: int | None = None


@dataclass(frozen=True)
class Product:
    """An offerable unit: item ``item`` at price level ``level``."""

    id: int
    item: int
    level: int


@dataclass(frozen=True)
class Mnl:
    """Multinomial-logit choice model: weight per product plus a no-purchase weight."""

    weights: tuple[float, ...]
    no_purchase: float

    def prob(self, product: int, assortment: frozenset[int]) -> float:
        denom = self.no_purchase + sum(self.weights[k] for k in assortment)
        return self.weights[product] / denom

    def probs(self, assortment: frozenset[int]) -> list[tuple[int, float]]:
        """``(product, prob(product, assortment))`` for each displayed product,
        in the assortment's order, from one denominator."""
        denom = self.no_purchase + sum(self.weights[k] for k in assortment)
        return [(i, self.weights[i] / denom) for i in assortment]


@dataclass(frozen=True, eq=True, unsafe_hash=False)
class Tabular:
    """Explicit table of purchase probabilities per (product, assortment).

    ``item_probs`` optionally gives set-independent probabilities used as a
    fallback for assortments not present in ``entries`` (this covers models
    where each displayed product is chosen with a fixed per-product
    probability, which are trivially substitutable).
    """

    entries: Mapping[tuple[int, frozenset[int]], float]
    item_probs: tuple[float, ...] | None = None

    def prob(self, product: int, assortment: frozenset[int]) -> float:
        key = (product, assortment)
        if key in self.entries:
            return self.entries[key]
        if self.item_probs is not None:
            return self.item_probs[product]
        raise KeyError(f"no tabular entry for product {product} in {sorted(assortment)}")

    @property
    def set_independent(self) -> bool:
        """True when every probability comes from ``item_probs``, whatever the set."""
        return self.item_probs is not None and not self.entries

    def probs(self, assortment: frozenset[int]) -> list[tuple[int, float]]:
        """``(product, prob(product, assortment))`` for each displayed product,
        in the assortment's order."""
        return [(i, self.prob(i, assortment)) for i in assortment]


ChoiceModel = Mnl | Tabular


def choice_prob(model: ChoiceModel, product: int, assortment: frozenset[int] | Iterable[int]) -> float:
    """Probability that ``product`` is purchased when ``assortment`` is displayed."""
    if not isinstance(assortment, frozenset):
        assortment = frozenset(assortment)
    if product not in assortment:
        raise ValueError(f"product {product} not in displayed assortment {sorted(assortment)}")
    return model.prob(product, assortment)


def family_probs(choice: ChoiceModel, sets: Sequence[frozenset[int]], n_products: int) -> tuple[np.ndarray, np.ndarray]:
    """(members, probs), each (F, k_max): row r holds ``sets[r]``'s products in
    the frozenset's own iteration order, padded with product ``n_products`` at
    probability 0.  MNL rows take ``Mnl.probs``' float operations (weights
    summed slot by slot, plus the no-purchase weight, one division per slot);
    other models go through ``choice.probs``."""
    slots = list(itertools.zip_longest(*sets, fillvalue=n_products))
    members = np.array(slots, dtype=np.intp).reshape(len(slots), len(sets)).T
    if members.min(initial=0) < 0 or members.max(initial=0) > n_products or any(n_products in S for S in sets):
        raise ValueError(f"a set names a product outside 0..{n_products - 1}")
    filled = members < n_products
    if isinstance(choice, Mnl):
        w = np.append(choice.weights, 0.0)[members]
        return members, w / (choice.no_purchase + slot_sums(w))[:, None]
    probs = np.zeros(filled.shape)
    probs[filled] = [p for S in sets for _, p in choice.probs(S)]
    return members, probs


def slot_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of ``terms`` summed left to right from 0.0 along its last axis,
    as ``sum`` adds a set's terms; padding slots add +0.0."""
    out = np.zeros(terms.shape[:-1])
    for s in range(terms.shape[-1]):
        out += terms[..., s]
    return out


@dataclass(frozen=True)
class CustomerType:
    """One customer segment.

    ``arrival`` is either a stationary per-step probability or a length-T
    tuple.  Exactly one of ``patience`` (deterministic number of stages) and
    ``leave_prob`` (per-stage exit probability, geometric patience) is set.
    ``revenues`` has one entry per product.
    """

    id: int
    arrival: float | tuple[float, ...]
    revenues: tuple[float, ...]
    choice: ChoiceModel
    patience: int | None = None
    leave_prob: float | None = None

    def q(self, t: int) -> float:
        """Arrival probability at time-step ``t`` (0-based)."""
        if isinstance(self.arrival, tuple):
            return self.arrival[t]
        return self.arrival

    def total_rate(self, T: int) -> float:
        """Expected number of arrivals over the horizon."""
        if isinstance(self.arrival, tuple):
            return float(sum(self.arrival))
        return self.arrival * T

    @property
    def stationary(self) -> bool:
        return not isinstance(self.arrival, tuple)


@dataclass(frozen=True)
class AssortmentFamily:
    """Feasible assortments: every subset up to size ``k``, or an explicit list.

    The empty assortment ("no offer") is always a member.  Enumeration order
    is lexicographic over sorted member ids, which downstream code relies on
    for deterministic variable ordering.
    """

    mode: str  # "size_capped" | "explicit"
    k: int | None = None
    sets: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if self.mode not in ("size_capped", "explicit"):
            raise ValueError(f"unknown family mode {self.mode!r}")
        if self.mode == "size_capped" and (self.k is None or self.k < 0):
            raise ValueError("size_capped family needs k >= 0")
        if self.mode == "explicit":
            if self.sets is None:
                raise ValueError("explicit family needs sets")
            dedup = {frozenset(s) for s in self.sets}
            dedup.add(frozenset())
            object.__setattr__(self, "sets", tuple(sorted(dedup, key=lambda s: tuple(sorted(s)))))

    @staticmethod
    def size_capped(k: int) -> "AssortmentFamily":
        return AssortmentFamily(mode="size_capped", k=k)

    @staticmethod
    def explicit(sets: Iterable[Iterable[int]]) -> "AssortmentFamily":
        return AssortmentFamily(mode="explicit", sets=tuple(frozenset(s) for s in sets))

    def count(self, n_products: int) -> int:
        if self.mode == "explicit":
            return len(self.sets)
        return sum(math.comb(n_products, s) for s in range(min(self.k, n_products) + 1))

    def assortments(self, n_products: int) -> tuple[frozenset[int], ...]:
        """All member assortments in lexicographic order (empty set first)."""
        if self.mode == "explicit":
            return self.sets
        if self.count(n_products) > MAX_TABULAR_FAMILY:
            raise ValueError(
                f"family too large to enumerate ({self.count(n_products)} sets); use column generation"
            )
        out = []
        for size in range(min(self.k, n_products) + 1):
            out.extend(frozenset(c) for c in itertools.combinations(range(n_products), size))
        return tuple(sorted(out, key=lambda s: tuple(sorted(s))))

    def __contains__(self, assortment: frozenset[int]) -> bool:
        if self.mode == "size_capped":
            return len(assortment) <= self.k
        return frozenset(assortment) in self.sets

    def max_size(self, n_products: int) -> int:
        if self.mode == "size_capped":
            return min(self.k, n_products)
        return max((len(s) for s in self.sets), default=0)

    def is_singleton_family(self, n_products: int) -> bool:
        return self.max_size(n_products) <= 1

    def is_unrestricted(self, n_products: int) -> bool:
        """True when every subset of the products is feasible."""
        return self.mode == "size_capped" and self.k >= n_products


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def require(self) -> None:
        """Raise ``InvalidInstanceError`` listing every violation, if any."""
        if self.violations:
            raise InvalidInstanceError(self.violations)


class InvalidInstanceError(ValueError):
    """An instance broke its structural invariants; ``violations`` lists how."""

    def __init__(self, violations: tuple[str, ...]):
        self.violations = tuple(violations)
        super().__init__("invalid instance:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class Instance:
    """A full problem description.  Immutable; all algorithms share one object.

    Products are the canonical cross product of items and price levels, with
    ``product.id == item * price_levels + level``.  For single-price problems
    products coincide with items.
    """

    T: int
    items: tuple[Item, ...]
    products: tuple[Product, ...]
    types: tuple[CustomerType, ...]
    family: AssortmentFamily
    price_levels: int = 1
    repeated_offers_allowed: bool = False
    matching_with_timeouts: bool = False

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_products(self) -> int:
        return len(self.products)

    @property
    def m(self) -> int:
        return len(self.types)

    @property
    def stationary(self) -> bool:
        return all(j.stationary for j in self.types)

    @property
    def unit_inventory(self) -> bool:
        return all(it.inventory == 1 for it in self.items)

    def q(self, t: int, j: int) -> float:
        return self.types[j].q(t)

    def products_of_item(self, item: int) -> tuple[int, ...]:
        return tuple(p.id for p in self.products if p.item == item)

    def validate(self) -> ValidationReport:
        return validate(self)

    @staticmethod
    def single_level(
        T: int,
        inventories: Sequence[int],
        types: Sequence[CustomerType],
        family: AssortmentFamily,
        repeated_offers_allowed: bool = False,
        matching_with_timeouts: bool = False,
    ) -> "Instance":
        """Build a one-price-level instance (products coincide with items)."""
        items = tuple(Item(i, int(b)) for i, b in enumerate(inventories))
        products = tuple(Product(i, i, 0) for i in range(len(items)))
        return Instance(
            T=T,
            items=items,
            products=products,
            types=tuple(types),
            family=family,
            price_levels=1,
            repeated_offers_allowed=repeated_offers_allowed,
            matching_with_timeouts=matching_with_timeouts,
        )


def _check_choice_model(inst: Instance, j: int, fam: tuple | ValueError, out: list[str]) -> None:
    """``fam`` is the enumerated family, or the error enumerating it raised."""
    ct = inst.types[j]
    model = ct.choice
    n = inst.n_products
    if isinstance(model, Mnl):
        if len(model.weights) != n:
            out.append(f"type {j}: MNL weight vector length {len(model.weights)} != {n}")
            return
        if model.no_purchase <= 0 or any(w <= 0 for w in model.weights):
            out.append(f"type {j}: MNL weights must be strictly positive")
        return
    # Tabular: exhaustive checks over the enumerated family.
    if model.item_probs is not None and len(model.item_probs) != n:
        out.append(f"type {j}: tabular item_probs length {len(model.item_probs)} != {n}")
        return
    if isinstance(fam, ValueError):
        out.append(f"type {j}: {fam}")
        return
    fam_set = set(fam)
    for S in fam:
        if any(i < 0 or i >= n for i in S):
            continue  # validate names the set itself
        total = 0.0
        for i in S:
            try:
                p = model.prob(i, S)
            except KeyError as exc:
                out.append(f"type {j}: {exc}")
                continue
            if p < -PROB_TOL or p > 1 + PROB_TOL:
                out.append(f"type {j}: probability {p} outside [0,1] for product {i}")
            total += p
        if total > 1 + PROB_TOL:
            out.append(f"type {j}: choice probabilities sum to {total} > 1 on {sorted(S)}")
        # substitutability: adding one product never raises another's probability
        for extra in range(n):
            if extra in S:
                continue
            S2 = S | {extra}
            if S2 not in fam_set:
                continue
            for i in S:
                if model.prob(i, S) < model.prob(i, S2) - PROB_TOL:
                    out.append(
                        f"type {j}: substitutability violated for product {i}: "
                        f"p(i,{sorted(S)})={model.prob(i, S)} < p(i,{sorted(S2)})={model.prob(i, S2)}"
                    )
    return


def validate(inst: Instance) -> ValidationReport:
    """Collect structural invariant violations (empty report means valid)."""
    out: list[str] = []
    K = inst.price_levels
    if K < 1:
        out.append("price_levels must be >= 1")
    for idx, it in enumerate(inst.items):
        if it.id != idx:
            out.append(f"item ids must be dense 0..n-1, got {it.id} at {idx}")
        if it.inventory < 0:
            out.append(f"item {idx}: negative inventory")
    if len(inst.products) != inst.n_items * K:
        out.append("products must be the item x price-level cross product")
    else:
        for p in inst.products:
            if p.id != p.item * K + p.level:
                out.append(f"product {p.id}: id must equal item*K+level")
    if inst.T < 1:
        out.append("T must be positive")
    for t in range(inst.T):
        mass = sum(inst.q(t, j) for j in range(inst.m))
        if mass > 1 + PROB_TOL:
            out.append(f"arrival mass exceeds 1 at time-step {t} (got {mass})")
    fam: tuple | ValueError = ()
    if not all(isinstance(ct.choice, Mnl) for ct in inst.types):
        try:  # enumerated once, for every tabular type
            fam = inst.family.assortments(inst.n_products)
        except ValueError as exc:
            fam = exc
    for j, ct in enumerate(inst.types):
        if ct.id != j:
            out.append(f"type ids must be dense, got {ct.id} at {j}")
        if (ct.patience is None) == (ct.leave_prob is None):
            out.append(f"type {j}: exactly one of patience and leave_prob must be set")
        if ct.patience is not None and ct.patience < 1:
            out.append(f"type {j}: patience must be a positive integer")
        if ct.leave_prob is not None and not (0 < ct.leave_prob <= 1):
            out.append(f"type {j}: leave_prob must lie in (0,1]")
        if isinstance(ct.arrival, tuple) and len(ct.arrival) != inst.T:
            out.append(f"type {j}: arrival table length {len(ct.arrival)} != T={inst.T}")
        qs = ct.arrival if isinstance(ct.arrival, tuple) else (ct.arrival,)
        if any(q < -PROB_TOL or q > 1 + PROB_TOL for q in qs):
            out.append(f"type {j}: arrival probabilities outside [0,1]")
        if len(ct.revenues) != inst.n_products:
            out.append(f"type {j}: revenue vector length {len(ct.revenues)} != {inst.n_products}")
        elif any((not math.isfinite(r)) or r < 0 for r in ct.revenues):
            out.append(f"type {j}: revenues must be finite and non-negative")
        _check_choice_model(inst, j, fam, out)
    if inst.matching_with_timeouts and not inst.family.is_singleton_family(inst.n_products):
        out.append("matching-with-timeouts instances must have |S| <= 1 assortments")
    if inst.family.mode == "explicit":
        for S in inst.family.sets:
            if any(i < 0 or i >= inst.n_products for i in S):
                out.append(f"family set {sorted(S)} references unknown products")
    return ValidationReport(tuple(out))


def split_inventory(inst: Instance) -> Instance:
    """Split multi-unit items into unit copies, duplicating weights and revenues.

    The parent map lives on ``Item.parent`` so simulation reports can aggregate
    per original item.  Supported for MNL models and set-independent tables
    (``item_probs`` with no ``entries``), whose copies become distinct
    products with identical weights, and for any table on a singleton family;
    an all-unit instance is returned unchanged.
    """
    if inst.unit_inventory:
        return inst
    if inst.family.mode == "explicit":
        raise ValueError("split_inventory does not support explicit families with multi-unit items")
    K = inst.price_levels
    new_items: list[Item] = []
    copy_of: list[int] = []  # new item -> old item
    for it in inst.items:
        for _ in range(it.inventory):
            copy_of.append(it.id)
            new_items.append(Item(len(new_items), 1, parent=it.parent if it.parent is not None else it.id))
    products = tuple(
        Product(i * K + lv, i, lv) for i in range(len(new_items)) for lv in range(K)
    )
    old = [copy_of[p.item] * K + p.level for p in products]  # new product -> old product

    new_types = []
    for ct in inst.types:
        choice = ct.choice
        if isinstance(choice, Mnl):
            model: ChoiceModel = replace(choice, weights=tuple(choice.weights[o] for o in old))
        elif choice.set_independent:
            model = replace(choice, item_probs=tuple(choice.item_probs[o] for o in old))
        elif inst.family.is_singleton_family(inst.n_products):
            model = Tabular(entries={(p.id, frozenset({p.id})): choice.prob(o, frozenset({o}))
                                     for p, o in zip(products, old)})
        else:
            raise ValueError("split_inventory cannot remap a general tabular model")
        new_types.append(replace(ct, revenues=tuple(ct.revenues[o] for o in old), choice=model))
    return replace(inst, items=tuple(new_items), products=products, types=tuple(new_types))


# ---------------------------------------------------------------------------
# Canonical JSON schema (documented in README.md); round-trips losslessly.

def _choice_to_dict(model: ChoiceModel) -> dict:
    if isinstance(model, Mnl):
        return {"mnl": {"weights": list(model.weights), "no_purchase": model.no_purchase}}
    return {
        "tabular": {
            "entries": [[i, sorted(S), p] for (i, S), p in sorted(
                model.entries.items(), key=lambda kv: (kv[0][0], tuple(sorted(kv[0][1])))
            )],
            "item_probs": list(model.item_probs) if model.item_probs is not None else None,
        }
    }


def _number(value, name: str, kind=Real):
    """``value`` if it is a ``kind`` number and not a bool; otherwise a
    ``TypeError`` that names the field."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return value


def _numbers(values, name: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_number(x, f"{name}[{k}]") for k, x in enumerate(values))


def _choice_from_dict(d: dict, name: str) -> ChoiceModel:
    if "mnl" in d:
        return Mnl(weights=_numbers(d["mnl"]["weights"], f"{name}.mnl.weights"),
                   no_purchase=_number(d["mnl"]["no_purchase"], f"{name}.mnl.no_purchase"))
    tab = d["tabular"]
    entries = {(i, frozenset(S)): _number(p, f"{name}.tabular.entries[{k}]")
               for k, (i, S, p) in enumerate(tab["entries"])}
    probs = tab.get("item_probs")
    probs = None if probs is None else _numbers(probs, f"{name}.tabular.item_probs")
    return Tabular(entries=entries, item_probs=probs)


def instance_to_dict(inst: Instance) -> dict:
    fam: dict = {"mode": inst.family.mode}
    if inst.family.mode == "size_capped":
        fam["k"] = inst.family.k
    else:
        fam["sets"] = [sorted(S) for S in inst.family.sets]
    types = []
    for ct in inst.types:
        d = {
            "arrival": list(ct.arrival) if isinstance(ct.arrival, tuple) else ct.arrival,
            "patience": ct.patience,
            "leave_prob": ct.leave_prob,
            "revenues": list(ct.revenues),
        }
        d.update(_choice_to_dict(ct.choice))
        types.append(d)
    return {
        "n": inst.n_items,
        "T": inst.T,
        "price_levels": inst.price_levels,
        "repeated_offers_allowed": inst.repeated_offers_allowed,
        "matching_with_timeouts": inst.matching_with_timeouts,
        "items": [{"inventory": it.inventory, "parent": it.parent} for it in inst.items],
        "family": fam,
        "types": types,
    }


def instance_from_dict(d: dict) -> Instance:
    """Inverse of ``instance_to_dict``.  A missing field raises ``KeyError``
    and a wrong-typed number ``TypeError``, each naming the field."""
    K = _number(d.get("price_levels", 1), "price_levels", Integral)
    items = tuple(
        Item(i, int(_number(it["inventory"], f"items[{i}].inventory", Integral)), it.get("parent"))
        for i, it in enumerate(d["items"])
    )
    products = tuple(Product(i * K + lv, i, lv) for i in range(len(items)) for lv in range(K))
    fam_d = d["family"]
    if fam_d["mode"] == "explicit":
        family = AssortmentFamily.explicit(fam_d["sets"])
    else:
        family = AssortmentFamily(mode=fam_d["mode"], k=fam_d.get("k"))
    types = []
    for j, td in enumerate(d["types"]):
        name = f"types[{j}]"
        try:
            arrival = td["arrival"]
            arrival = (_numbers(arrival, f"{name}.arrival") if isinstance(arrival, list)
                       else _number(arrival, f"{name}.arrival"))
            patience, leave_prob = td.get("patience"), td.get("leave_prob")
            types.append(
                CustomerType(
                    id=j,
                    arrival=arrival,
                    revenues=_numbers(td["revenues"], f"{name}.revenues"),
                    choice=_choice_from_dict(td, name),
                    patience=None if patience is None else _number(patience, f"{name}.patience", Integral),
                    leave_prob=None if leave_prob is None else _number(leave_prob, f"{name}.leave_prob"),
                )
            )
        except KeyError as exc:
            raise KeyError(f"{name}.{exc.args[0]}") from None
    return Instance(
        T=_number(d["T"], "T", Integral),
        items=items,
        products=products,
        types=tuple(types),
        family=family,
        price_levels=K,
        repeated_offers_allowed=d.get("repeated_offers_allowed", False),
        matching_with_timeouts=d.get("matching_with_timeouts", False),
    )


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    """Read an instance file; raises ``InvalidInstanceError`` if a field is
    missing or malformed, or if the instance fails ``validate``."""
    with open(path) as fh:
        try:
            inst = instance_from_dict(json.load(fh))
        except KeyError as exc:
            raise InvalidInstanceError((f"missing field {exc.args[0]}",)) from None
        except (TypeError, ValueError) as exc:
            raise InvalidInstanceError((f"malformed instance file: {exc}",)) from None
    validate(inst).require()
    return inst
