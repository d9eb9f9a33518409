"""Subsumption closure and realization."""

from __future__ import annotations

import random
from itertools import product

import pytest

import bruteforce
from ontokit.dlquery import Named
from ontokit.model import (
    ClassDecl,
    IndividualDecl,
    SubClassOf,
    THING,
    build_ontology,
)
from ontokit.reasoner import MaskView, bits, compute_closure, realize


def closure_of(axioms):
    onto, diags = build_ontology("t", axioms)
    assert onto is not None, diags
    closure, cdiags = compute_closure(onto)
    assert closure is not None, cdiags
    return onto, closure


def parents_first(closure) -> bool:
    """Every class comes after each of its direct parents in `order`, which
    the inferred DOT's reduction and the cycle check rely on."""
    position = {name: i for i, name in enumerate(closure.order)}
    return all(position[p] < position[c] for c, ps in closure.direct_parents.items() for p in ps)


class TestClosure:
    def test_chain_ancestors(self, corpus_closure):
        assert corpus_closure.ancestors["Kimri"] == {
            "Developing_stages",
            "Dates",
            "Date_fruit",
            THING,
        }

    def test_root_has_only_thing(self, corpus_closure):
        assert corpus_closure.ancestors["Date_fruit"] == {THING}

    def test_strictness_and_acyclicity(self, corpus_closure):
        for cls, ancs in corpus_closure.ancestors.items():
            assert cls not in ancs
            if cls != THING:
                assert THING in ancs

    def test_transitively_closed(self, corpus_closure):
        anc = corpus_closure.ancestors
        for c in anc:
            for b in anc[c]:
                assert anc[b] <= anc[c]

    def test_descendants_inverse(self, corpus_closure):
        anc = corpus_closure.ancestors
        desc = corpus_closure.descendants
        for c in anc:
            for a in anc[c]:
                assert c in desc[a]

    def test_matches_reachability_oracle_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 50)
            onto, closure = closure_of(bruteforce.random_taxonomy_axioms(rng, n))
            oracle = bruteforce.reachability(bruteforce.direct_parents(onto))
            assert {c: set(a) for c, a in closure.ancestors.items()} == oracle
            assert parents_first(closure)

    def test_reachability_oracle_matches_the_matrix_definition(self):
        """On any graph, a node's reach is the set of nodes at the end of a
        path of 1 to n edges from it: the union of the first n powers of
        the edge matrix, here one row of bits per node. A class on a cycle
        reaches itself; a class that only appears as a parent is a node."""
        rng = random.Random(43)
        cyclic = 0
        for _ in range(150):
            names = [f"C{i}" for i in range(rng.randint(1, 40))]
            density = rng.choice((0.5, 1.5, 3.0)) / len(names)
            parents = {
                a: frozenset(b for b in names if rng.random() < density)
                for a in names
                if rng.random() < 0.9
            }
            nodes = sorted({THING, *parents, *(p for ps in parents.values() for p in ps)})
            bit = {c: 1 << i for i, c in enumerate(nodes)}
            edges = {c: sum(bit[p] for p in parents.get(c, ())) for c in nodes}

            def step(row: int) -> int:
                """The row times the edge matrix."""
                out = 0
                for c in nodes:
                    if row & bit[c]:
                        out |= edges[c]
                return out

            power, paths = dict(edges), dict(edges)
            for _ in range(len(nodes) - 1):
                power = {c: step(power[c]) for c in nodes}
                paths = {c: paths[c] | power[c] for c in nodes}
            expected = {c: {p for p in nodes if paths[c] & bit[p]} for c in nodes}
            reach = bruteforce.reachability(parents)
            assert reach == expected
            cyclic += any(c in reach[c] for c in reach)
        assert 0 < cyclic < 150  # graphs with and without a cycle both occur

    def test_deterministic(self, corpus):
        first, _ = compute_closure(corpus)
        second, _ = compute_closure(corpus)
        assert first.ancestors == second.ancestors
        assert first.descendants == second.descendants


class TestDeepTaxonomy:
    """A deep 300-class taxonomy (window 5): ancestor sets grow with depth,
    so the bitmask views are checked where they are largest."""

    @pytest.fixture(scope="class")
    def deep(self):
        rng = random.Random(29)
        onto, closure = closure_of(
            bruteforce.deep_taxonomy_axioms(rng, 300, window=5, individuals_per_class=2)
        )
        return onto, closure, realize(onto, closure)

    def test_closure_matches_reachability_oracle(self, deep):
        onto, closure, _ = deep
        oracle = bruteforce.reachability(bruteforce.direct_parents(onto))
        assert {c: set(a) for c, a in closure.ancestors.items()} == oracle
        assert parents_first(closure)
        inverse: dict[str, set[str]] = {c: set() for c in oracle}
        for c, ancestors in oracle.items():
            for a in ancestors:
                inverse[a].add(c)
        assert {c: set(d) for c, d in closure.descendants.items()} == inverse

    def test_realization_matches_instance_oracle(self, deep):
        onto, _, realization = deep
        members = bruteforce.oracle_members(onto)
        assert {c: set(m) for c, m in realization.members_of.items()} == members
        for ind in onto.individuals:
            assert realization.types_of[ind] == bruteforce.walk_types(onto, ind)
        for cls in random.Random(31).sample(sorted(onto.classes), 10):
            assert realization.members_of[cls] == bruteforce.oracle_instances(onto, Named(cls))

    def test_views_are_read_only_mappings(self, deep):
        _, closure, realization = deep
        assert "C0299" in closure.ancestors and "Nope" not in closure.ancestors
        assert len(closure.ancestors) == len(closure.descendants) == 301
        assert closure.ancestors["C0299"] is closure.ancestors["C0299"]
        with pytest.raises(KeyError):
            realization.members_of["Nope"]
        with pytest.raises(TypeError):
            closure.ancestors["C0001"] = frozenset()


class TestMaskView:
    def test_negative_mask_rejected(self):
        """`f"{-1:b}"` is "-1", which would decode as the first two members;
        an intersection folded from -1 with no part would hide that way."""
        view = MaskView({}, ["a", "b", "c"], {})
        assert list(view.names(0b101)) == ["a", "c"]
        assert bits(0b101) == b"\1\0\1" and bits(0) == b"\0"
        for mask in (-1, -2, -(1 << 70)):
            for decode in (bits, view.names):
                with pytest.raises(ValueError, match="never negative"):
                    decode(mask)


class TestLazyViews:
    """The views compute on first read: `in`, `len` and iteration compute
    nothing, each view memoizes only the entries read, and entries read
    partially and in any order equal the oracles'."""

    @staticmethod
    def computed(view) -> set[str]:
        return set(dict.keys(view.masks))

    def test_partial_reads_match_oracles_on_random_ontologies(self):
        rng = random.Random(41)
        for draw in range(300):
            onto = bruteforce.random_ontology(
                rng,
                n_classes=rng.randint(1, 25),
                n_individuals=rng.randint(0, 12),
                redundant=rng.randint(0, 3),
            )
            closure, _ = compute_closure(onto)
            realization = realize(onto, closure)
            views = {
                "ancestors": closure.ancestors,
                "descendants": closure.descendants,
                "members_of": realization.members_of,
                "types_of": realization.types_of,
            }
            classes = [*closure.order]
            assert sorted(classes) == sorted(onto.classes | {THING})
            individuals = sorted(onto.individuals)
            for name, view in views.items():
                keys = individuals if name == "types_of" else classes
                assert list(view) == keys and len(view) == len(keys), (draw, name)
                assert all(k in view for k in keys) and "Nope" not in view
                assert not self.computed(view), (draw, name)

            reach = bruteforce.reachability(bruteforce.direct_parents(onto))
            reads = [(name, k) for name, view in views.items() for k in view]
            reads = rng.sample(reads, rng.randint(0, len(reads)))
            for name, key in reads:
                got = views[name][key]
                if name == "ancestors":
                    expected = reach[key]
                elif name == "descendants":
                    expected = {c for c in reach if key in reach[c]}
                elif name == "members_of":
                    expected = bruteforce.oracle_instances(onto, Named(key))
                else:
                    expected = bruteforce.walk_types(onto, key)
                assert got == expected, (draw, name, key)
            for name, view in views.items():
                read = {key for view_name, key in reads if view_name == name}
                assert self.computed(view) == read, (draw, name)

    def test_long_chain_reads_without_recursion(self):
        n = 5000
        names = [f"C{i:04d}" for i in range(n)]
        axioms = [ClassDecl(c) for c in names]
        axioms += [SubClassOf(names[i], names[i - 1]) for i in range(1, n)]
        axioms += [IndividualDecl(f"i{i}", (names[i],)) for i in range(0, n, 1000)]
        onto, closure = closure_of(axioms)
        realization = realize(onto, closure)
        assert realization.members_of[names[0]] == {f"i{i}" for i in range(0, n, 1000)}
        assert realization.members_of[names[-1]] == frozenset()
        assert closure.ancestors[names[-1]] == {*names[:-1], THING}
        assert realization.types_of["i4000"] == {*names[:4001], THING}


class TestCycles:
    def test_two_node_cycle(self):
        onto, _ = build_ontology(
            "t",
            [
                ClassDecl("A", line=1),
                ClassDecl("B", line=2),
                SubClassOf("A", "B", file="f", line=3),
                SubClassOf("B", "A", file="f", line=4),
            ],
        )
        closure, diags = compute_closure(onto)
        assert closure is None
        (diag,) = diags
        assert diag.code == "E_CYCLE"
        assert "A" in diag.message and "B" in diag.message
        assert (diag.file, diag.line) == ("f", 3)

    def test_each_cycle_reported_separately(self):
        axioms = [ClassDecl(n) for n in "ABCDE"]
        axioms += [
            SubClassOf("A", "B"),
            SubClassOf("B", "A"),
            SubClassOf("C", "D"),
            SubClassOf("D", "E"),
            SubClassOf("E", "C"),
        ]
        onto, _ = build_ontology("t", axioms)
        closure, diags = compute_closure(onto)
        assert closure is None
        assert len(diags) == 2
        messages = sorted(d.message for d in diags)
        assert "A, B" in messages[0]
        assert "C, D, E" in messages[1]

    def test_classes_outside_cycle_not_named(self):
        axioms = [ClassDecl(n) for n in "ABC"]
        axioms += [SubClassOf("A", "B"), SubClassOf("B", "A"), SubClassOf("C", "A")]
        onto, _ = build_ontology("t", axioms)
        _, diags = compute_closure(onto)
        assert len(diags) == 1
        assert "C" not in diags[0].message

    def test_matches_cycle_oracle_on_random_graphs(self):
        """Each cycle's message and anchor match the oracle's, with the
        edges spread over two files in shuffled line order."""
        rng = random.Random(31)
        counts = []
        shapes = set()
        for density, _ in product((1.2, 3.0), range(80)):
            names = [f"C{i}" for i in range(rng.randint(2, 20))]
            edges = [
                (a, b)
                for a in names
                for b in names
                if a != b and rng.random() < density / len(names)
            ]
            edges += rng.sample(edges, len(edges) // 4)  # repeated edges
            lines = rng.sample(range(1, 2 * len(edges) + 1), len(edges))
            axioms = [ClassDecl(n) for n in names] + [
                SubClassOf(a, b, file=rng.choice(["a.oft", "b.oft"]), line=ln)
                for (a, b), ln in zip(edges, lines)
            ]
            onto, diags = build_ontology("t", axioms)
            assert onto is not None, diags
            closure, diags = compute_closure(onto)
            expected = bruteforce.oracle_cycles(onto)
            assert (closure is None) == bool(expected)
            assert [(d.code, d.message, d.file, d.line) for d in diags] == [
                ("E_CYCLE", *found) for found in expected
            ]
            counts.append(len(expected))
            cycles = [message.split(": ")[1].split(", ") for message, _, _ in expected]
            reach = bruteforce.reachability(bruteforce.direct_parents(onto))
            if any(len(cycle) >= 3 for cycle in cycles):
                shapes.add("3 or more classes")
            if any(a is not b and b[0] in reach[a[0]] for a in cycles for b in cycles):
                shapes.add("a cycle below another")
        # Graphs without a cycle, with one, and with several all occur, and
        # so do the shapes a second walk in the wrong order would merge.
        assert {0, 1} < set(counts)
        assert shapes == {"3 or more classes", "a cycle below another"}

    def test_ring_of_20000_classes_without_recursion(self):
        """A ring far deeper than the recursion limit, with a tail below each
        of its classes and a separate two-class cycle: each cycle is named
        once, in sorted order and at its earliest edge, and no tail is."""
        n = 20000
        ring = [f"R{i}" for i in range(n)]
        axioms = [ClassDecl(c) for c in [*ring, "X", "Y"]]
        axioms += [ClassDecl(f"T{i}") for i in range(n)]
        for i in range(n):
            axioms.append(SubClassOf(ring[i], ring[(i + 1) % n], file="r.oft", line=n - i))
            axioms.append(SubClassOf(f"T{i}", ring[i], file="t.oft", line=i + 1))
        axioms += [SubClassOf("X", "Y", file="a.oft", line=9)]
        axioms += [SubClassOf("Y", "X", file="b.oft", line=1)]
        onto, diags = build_ontology("t", axioms)
        assert onto is not None, diags
        closure, diags = compute_closure(onto)
        assert closure is None
        assert [(d.code, d.message, d.file, d.line) for d in diags] == [
            ("E_CYCLE", "classes form a subclass cycle: " + ", ".join(sorted(ring)), "r.oft", 1),
            ("E_CYCLE", "classes form a subclass cycle: X, Y", "a.oft", 9),
        ]


class TestRealization:
    def test_individual_inherits_up_the_chain(self, corpus_realization):
        assert "Barhee" in corpus_realization.members_of["Species"]
        assert "Barhee" in corpus_realization.members_of["Date_fruit"]
        assert "Barhee" in corpus_realization.members_of[THING]

    def test_empty_abox(self):
        onto, closure = closure_of([ClassDecl("A"), ClassDecl("B"), SubClassOf("B", "A")])
        realization = realize(onto, closure)
        assert all(not members for members in realization.members_of.values())

    def test_types_superset_of_asserted(self, corpus, corpus_realization):
        for ind, asserted in corpus.asserted_types.items():
            assert asserted <= corpus_realization.types_of[ind]

    def test_subclass_members_flow_upward(self, corpus_closure, corpus_realization):
        members = corpus_realization.members_of
        for child, parents in corpus_closure.direct_parents.items():
            for parent in parents:
                assert members[child] <= members[parent]

    def test_matches_path_walk_oracle_on_corpus(self, corpus, corpus_realization):
        oracle = bruteforce.oracle_members(corpus)
        assert {c: set(m) for c, m in corpus_realization.members_of.items()} == oracle

    def test_soundness_on_random_ontologies(self):
        rng = random.Random(13)
        for _ in range(20):
            onto = bruteforce.random_ontology(rng)
            closure, _ = compute_closure(onto)
            realization = realize(onto, closure)
            for cls, members in realization.members_of.items():
                for ind in onto.individuals:
                    expected = any(
                        t == cls or cls in closure.ancestors[t]
                        for t in onto.asserted_types[ind]
                    )
                    assert (ind in members) == expected
