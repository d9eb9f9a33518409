"""Structural inference over the class taxonomy.

Computes the reflexive-transitive subsumption closure and realizes
individuals into every class they belong to. No constructor-level reasoning
happens here; the taxonomy must be a DAG and cycles are hard errors.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Optional, Union

from .model import (
    Diagnostic,
    E_CYCLE,
    IndividualDecl,
    Kind,
    Literal,
    Ontology,
    SubClassOf,
    THING,
    error,
)

# Maps the digits of a binary numeral to the bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> bytes:
    """One byte per bit of `mask`, lowest first: 1 where the bit is set, 0
    where it is not, up to the highest set bit. `itertools.compress` reads
    it as its selectors, to keep the items at the set bits' positions."""
    if mask < 0:
        raise ValueError(f"a mask is never negative: {mask}")
    return f"{mask:b}"[::-1].encode().translate(_BIT_BYTES)


class MaskView(Mapping[str, frozenset[str]]):
    """Read-only map from a name to a set of names stored as int bitmasks.

    Bit i of a mask stands for `universe[i]`. `keys` holds the names the view
    maps: `in`, `len` and iteration answer from it and compute no mask.
    `masks` holds the raw ints for bitwise callers; the reasoner's views
    compute them on first read (a `dict` subclass whose `__missing__`
    computes, so a hit is a plain lookup). A set is decoded on its first
    access and cached.
    """

    def __init__(self, masks: dict[str, int], universe: Sequence[str], keys: Collection[str]):
        self.masks = masks
        self.universe = universe
        self._keys = keys
        self._decoded: dict[str, frozenset[str]] = {}

    def names(self, mask: int) -> Iterator[str]:
        """The universe members whose bits are set in `mask`, in bit order."""
        return compress(self.universe, bits(mask))

    def __getitem__(self, key: str) -> frozenset[str]:
        found = self._decoded.get(key)
        if found is None:
            found = self._decoded[key] = frozenset(self.names(self.masks[key]))
        return found

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class _Walks(dict):
    """A view's masks, one key at a time: a missing key's mask is one walk
    from `start(key)` along `step`, and `positions` gives the bits of the
    nodes it reached. The walk does not go past a node whose mask `memo`
    (by default, this dict) holds already; it ORs that mask in. Only the key
    read is memoized: memoizing every node a walk passes would compute the
    whole view."""

    def __init__(
        self,
        start: Callable[[str], Iterable[str]],
        step: Mapping[str, Iterable[str]],
        positions: Callable[[set[str]], list[int]],
        memo: Optional[dict[str, int]] = None,
    ):
        super().__init__()
        # `None` stands for this dict: holding itself would make a cycle.
        self.start, self.step, self.positions, self.memo = start, step, positions, memo

    def __missing__(self, key: str) -> int:
        step, memo = self.step, self if self.memo is None else self.memo
        mask = 0
        seen = set(self.start(key))
        stack = list(seen)
        while stack:
            node = stack.pop()
            done = memo.get(node)
            if done is not None:
                mask |= done
                continue
            for nxt in step[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        mask = self[key] = mask | _mask(self.positions(seen))
        return mask


def _mask(positions: list[int]) -> int:
    """The int with the bits at `positions` set, read from a numeral in one
    linear pass; OR-ing one shifted bit at a time would copy the int for
    every position."""
    if not positions:
        return 0
    top = max(positions)
    digits = bytearray(b"0") * (top + 1)
    for p in positions:
        digits[top - p] = 49  # "1"
    return int(digits, 2)


@dataclass(frozen=True)
class TaxonomyClosure:
    """Transitive closure of the subclass relation.

    `ancestors` is strict (a class is not its own ancestor) and includes
    Thing for every other class; `descendants` is its inverse;
    `direct_parents` keeps only the direct edges the closure was built from,
    and `direct_children` is their inverse. Both closure views are masks
    over `order`, the classes in a topological order with parents first;
    `position` is each class's bit.

    `compute_closure` fills `order`, `position` and `direct_parents`. A
    closure view's entry is one walk from its class, up `direct_parents` or
    down `direct_children`, on its first read (see `_Walks`), so a command
    computes only the entries it reads.
    """

    order: tuple[str, ...]
    position: dict[str, int]
    direct_parents: dict[str, frozenset[str]]

    @cached_property
    def direct_children(self) -> dict[str, list[str]]:
        """Each class's direct subclasses, built on first read: only the
        descending views and queries walk down the taxonomy, so computing
        the closure does not pay for it."""
        children: dict[str, list[str]] = {name: [] for name in self.order}
        for name, parents in self.direct_parents.items():
            for p in parents:
                children[p].append(name)
        return children

    @cached_property
    def ancestors(self) -> MaskView:
        return self._view(self.direct_parents)

    @cached_property
    def descendants(self) -> MaskView:
        return self._view(self.direct_children)

    def _view(self, step: Mapping[str, Iterable[str]]) -> MaskView:
        position = self.position
        walks = _Walks(step.__getitem__, step, lambda seen: list(map(position.__getitem__, seen)))
        return MaskView(walks, self.order, position)


@dataclass(frozen=True)
class Realization:
    """Inferred individual memberships, and each property's assertions.

    `members_of` masks and `assertion_index` masks are over
    `members_of.universe`, the individuals sorted by name; `types_of` masks
    are over the closure's class order. An object property's index entry is
    a list in universe order: slot i holds the mask of `universe[i]`'s
    subjects, or 0. A data property's entry maps each literal to the mask
    of its subjects. Instance queries read only these masks and decode only
    their answer.

    Each entry computes on its first read (see `_Walks`): `members_of[c]`
    walks down from `c` and collects the individuals asserted on the way,
    so `check` computes only its domain and range classes and a query only
    the classes it names; `types_of[i]` walks up from `i`'s asserted types;
    `assertion_index[p]` is one pass over `p`'s assertions.
    """

    members_of: MaskView
    types_of: MaskView
    assertion_index: _AssertionIndex


class _AssertionIndex(dict):
    """`Realization.assertion_index`. An object property's entry has one
    slot per individual, numbered by `position`, the bit order of a mask:
    each slot holds the mask of the subjects asserted with that individual
    as their object, so a `some` term selects slots by its filler's bits. A
    data property's entry maps each asserted literal (literals equal by
    `key()` share one entry) to the mask of its subjects. A missing declared
    property's entry is one pass over the assertions of its kind; an
    undeclared one is a `KeyError`."""

    def __init__(self, o: Ontology, position: dict[str, int]):
        super().__init__()
        self.o, self.position = o, position

    def __missing__(self, prop: str) -> Union[list[int], dict[Literal, int]]:
        # Each subject mask is as wide as its highest subject's position:
        # with objects and subjects both growing with the individuals, the
        # index grows quadratically in memory at scale.
        kind, position = self.o.symbols.get(prop), self.position
        if kind is Kind.OBJECT_PROPERTY:
            slots = self[prop] = [0] * len(position)
            for ax in self.o.obj_assertions:
                if ax.prop == prop:
                    slots[position[ax.object]] |= 1 << position[ax.subject]
            return slots
        if kind is not Kind.DATA_PROPERTY:
            raise KeyError(prop)
        targets = self[prop] = {}
        for ax in self.o.data_assertions:
            if ax.prop == prop:
                targets[ax.value] = targets.get(ax.value, 0) | 1 << position[ax.subject]
        return targets


def _post_orders(
    roots: Iterable[str], step: Callable[[str], Iterable[str]]
) -> Iterator[list[str]]:
    """One depth-first walk along `step` from each root not reached yet,
    yielding the walk's nodes in post-order: a node after every node first
    reached from it. Iterative, so a deep taxonomy meets no recursion limit."""
    seen: set[str] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        walk: list[str] = []
        stack = [(root, iter(step(root)))]
        while stack:
            node, nexts = stack[-1]
            for nxt in nexts:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(step(nxt))))
                    break
            else:
                stack.pop()
                walk.append(node)
        yield walk


def compute_closure(o: Ontology) -> tuple[Optional[TaxonomyClosure], list[Diagnostic]]:
    """Close the subclass relation over direct edges (implicit root included).

    `order` is the post-order of a depth-first walk up the sorted parents
    from each class in sorted order, so every class comes after its parents
    unless a cycle exists. An edge whose parent comes after its child shows
    one; then a second walk, down the children from each class in reverse
    `order`, reaches exactly one strongly connected component from each
    fresh root (Kosaraju). Returns one E_CYCLE diagnostic per cycle, naming
    every class on it, and no closure.
    """
    asserted: dict[str, set[str]] = {c: set() for c in o.classes}
    for ax in o.by_variant.get(SubClassOf, ()):
        asserted[ax.child].add(ax.parent)
    # A parentless class sits under the implicit root, which has no parent.
    parents = {c: frozenset(ps or {THING}) for c, ps in asserted.items()}
    parents[THING] = frozenset()
    order = tuple(chain.from_iterable(_post_orders(sorted(parents), lambda n: sorted(parents[n]))))
    position = {name: i for i, name in enumerate(order)}
    closure = TaxonomyClosure(order=order, position=position, direct_parents=parents)
    if all(position[p] < i for i, name in enumerate(order) for p in parents[name]):
        return closure, []

    components = _post_orders(reversed(order), closure.direct_children.__getitem__)
    cycles = sorted(sorted(c) for c in components if len(c) > 1)
    # One pass over the edges finds each cycle's earliest internal edge.
    cycle_of = {name: i for i, cycle in enumerate(cycles) for name in cycle}
    anchors: dict[int, tuple[str, int]] = {}
    for ax in o.by_variant.get(SubClassOf, ()):
        i = cycle_of.get(ax.child)
        if i is not None and cycle_of.get(ax.parent) == i:
            anchors[i] = min(anchors.get(i, (ax.file, ax.line)), (ax.file, ax.line))
    return None, [
        error(E_CYCLE, "classes form a subclass cycle: " + ", ".join(cycle), *anchors[i])
        for i, cycle in enumerate(cycles)
    ]


def realize(o: Ontology, closure: TaxonomyClosure) -> Realization:
    """Infer each individual's full class membership.

    An individual belongs to its asserted types and to every ancestor of
    those types; `members_of` holds the inverse view with an entry (possibly
    empty) for every class. Each map entry computes on first read; this
    numbers the individuals and records each class's asserted positions.
    """
    individuals = tuple(sorted(o.individuals))
    position = dict(zip(individuals, range(len(individuals))))
    asserted: dict[str, list[int]] = {}
    for ax in o.by_variant.get(IndividualDecl, ()):
        for t in ax.types:
            asserted.setdefault(t, []).append(position[ax.name])
    # A name that is no class fails at its walk's first step.
    members = _Walks(
        lambda c: (c,),
        closure.direct_children,
        lambda nodes: [i for n in nodes for i in asserted.get(n, ())],
    )
    # A type walk stops at a class whose ancestors were read already.
    ancestors = closure.ancestors.masks
    types = _Walks(
        lambda i: o.asserted_types[i], closure.direct_parents, ancestors.positions, ancestors
    )
    return Realization(
        members_of=MaskView(members, individuals, closure.position),
        types_of=MaskView(types, closure.order, position),
        assertion_index=_AssertionIndex(o, position),
    )
