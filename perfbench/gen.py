"""Seeded input generators for the three benchmark workloads.

Each generator writes OFT and CSV text directly and never calls ontokit, so
the sizes and expectations it derives (error counts, the inferred DOT graph)
are independent of the code under test. The same seed always gives the same
bytes.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

THING = "Thing"
# Strict ancestor pairs of the deep taxonomies: about 1 500 and 1 000 classes.
DEEP_CHECK_PAIRS = 790_000
QUERY_MIX_PAIRS = 350_000


@dataclass
class Inputs:
    """Files the program reads, the CLI calls of one iteration, and checks."""

    files: dict[str, str]
    ops: list[tuple[str, list[str], str | None]]  # (name, argv, -o file)
    sizes: dict[str, int]
    expect: dict = field(default_factory=dict)


def _cname(i: int) -> str:
    return f"C{i:04d}"


def _ancestor_bits(parents: list[list[int]]) -> list[int]:
    """Strict ancestor set of each class as an int bitmask (parents precede children)."""
    anc: list[int] = []
    for ps in parents:
        bits = 0
        for p in ps:
            bits |= (1 << p) | anc[p]
        anc.append(bits)
    return anc


def deep_parents(rng: random.Random, target_pairs: int, window: int = 5) -> list[list[int]]:
    """Class i takes 1-2 parents from the `window` classes just before it.

    Classes are added until the strict ancestor pairs reach `target_pairs`.
    Closure and realization cost follow that sum, and its spread between
    seeds at a fixed class count (about 6% between quartiles) would swamp
    the benchmark's bounds.
    """
    parents: list[list[int]] = [[]]
    anc = [0]
    total = 0
    while total < target_pairs:
        i = len(parents)
        lo = max(0, i - window)
        ps = sorted(rng.sample(range(lo, i), rng.randint(1, min(2, i - lo))))
        bits = 0
        for p in ps:
            bits |= (1 << p) | anc[p]
        parents.append(ps)
        anc.append(bits)
        total += bits.bit_count()
    return parents


def deep_text(
    rng: random.Random,
    parents: list[list[int]],
    name: str,
    inds_per_class: int = 2,
    rels_per_class: int = 4,
    with_attrs: bool = False,
) -> tuple[str, dict[str, int]]:
    n = len(parents)
    inds = [f"I{i:04d}{chr(97 + k)}" for i in range(n) for k in range(inds_per_class)]
    lines = [
        f"ontology {name}",
        "objprop rel0 domain C0000 range C0000",
        "objprop rel1 domain C0000",
        "objprop rel2",
        "objprop rel3",
    ]
    if with_attrs:
        lines += [
            "dataprop size type number card single",
            'dataprop tag type string allowed "red", "green", "blue" card multiple',
        ]
    assertions = 0
    for i, ps in enumerate(parents):
        cls = _cname(i)
        lines.append(f"class {cls} sub " + ", ".join(map(_cname, ps)) if ps else f"class {cls}")
        own = inds[i * inds_per_class : (i + 1) * inds_per_class]
        lines.extend(f"individual {ind} type {cls}" for ind in own)
        for _ in range(rels_per_class):
            lines.append(f"rel {rng.choice(own)} rel{rng.randrange(4)} {rng.choice(inds)}")
        if with_attrs:
            lines.append(f"attr {own[0]} size {rng.randint(1, 40)}")
        assertions += rels_per_class + with_attrs
    anc = _ancestor_bits(parents)
    sizes = {
        "lines": len(lines),
        "classes": n,
        "individuals": len(inds),
        "assertions": assertions,
        # The closure also counts Thing as an ancestor of every class.
        "sum_ancestors": sum(a.bit_count() + 1 for a in anc),
    }
    return "\n".join(lines) + "\n", sizes


def inferred_dot(parents: list[list[int]]) -> str:
    """`export-dot --inferred` output, derived from the generator's own edges.

    A direct edge survives the transitive reduction iff no other direct
    parent of the same class already reaches it.
    """
    anc = _ancestor_bits(parents)
    edges: list[tuple[str, str]] = []
    for i, ps in enumerate(parents):
        if not ps:
            edges.append((THING, _cname(i)))
        for p in ps:
            others = 0
            for q in ps:
                if q != p:
                    others |= anc[q]
            if not (others >> p) & 1:
                edges.append((_cname(p), _cname(i)))
    edges.sort()
    nodes = sorted([_cname(i) for i in range(len(parents))] + [THING])
    lines = ["digraph taxonomy {"]
    lines.extend(f'  "{n}";' for n in nodes)
    lines.extend(f'  "{p}" -> "{c}";' for p, c in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def deep_check(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    parents = deep_parents(rng, round(DEEP_CHECK_PAIRS * scale))
    text, sizes = deep_text(rng, parents, "deep")
    n = len(parents)
    query = (
        f"{_cname(rng.randrange(n // 10, n // 2))} and "
        f"rel{rng.randrange(4)} some {_cname(rng.randrange(n // 10, n // 2))}"
    )
    return Inputs(
        files={"deep.oft": text},
        ops=[
            ("check", ["check", "deep.oft"], None),
            ("export_dot", ["export-dot", "deep.oft", "--inferred"], None),
            ("query", ["query", "deep.oft", "-q", query], None),
        ],
        sizes=sizes,
        expect={"dot": inferred_dot(parents), "query": query},
    )


def query_mix(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    parents = deep_parents(rng, round(QUERY_MIX_PAIRS * scale))
    text, sizes = deep_text(rng, parents, "qdeep", with_attrs=True)
    return Inputs(files={"qdeep.oft": text}, ops=[], sizes=sizes)


# --- assert_heavy -----------------------------------------------------------

N_ROOTS = 10
# name, domain root, range root
OBJ_PROPS = [("o0", 0, 1), ("o1", 2, None), ("o2", None, 3), ("o3", None, None), ("o4", 4, 4)]
# name, domain root, value type, allowed (written form), cardinality
DATA_PROPS = [
    ("d_str", None, "string", None, "multiple"),
    ("d_strv", 4, "string", ['"alpha"', '"beta gamma"', '"q\\"x"'], "single"),
    ("d_num", 1, "number", None, "single"),
    ("d_numv", None, "number", ["1", "2.5", "-3"], "multiple"),
    ("d_bool", None, "boolean", None, "single"),
    ("d_date", 5, "datetime", None, "single"),
    ("d_any", None, "literal", None, "multiple"),
    ("d_enum", None, "enum", ['"red"', '"green"', '"blue"'], "single"),
    ("d_req", 0, "string", None, "multiple"),
]
_STRINGS = ['"honey"', '"a b"', '"x\\"y"', '"back\\\\slash"', '"plain"', '""', '"Zz_9"']
_NUMBERS = ["1", "1.0", "-3.25", "100", "2e3", "0.5", "42"]
_DATES = ["2021-05-01", "1999-12-31", "2020-02-29T12:30:00"]
CSV_MAP = "name=d_str,year=d_num,flag=d_bool,when=d_date,score=d_any"


def _value(rng: random.Random, vtype: str, allowed: list[str] | None) -> str:
    if allowed:
        return rng.choice(allowed)
    if vtype == "string":
        return rng.choice(_STRINGS)
    if vtype == "number":
        return rng.choice(_NUMBERS)
    if vtype == "boolean":
        return rng.choice(["true", "false"])
    if vtype == "datetime":
        return rng.choice(_DATES)
    return rng.choice(_STRINGS + _NUMBERS + _DATES + ["true"])


def _prop_decls(obj_props, data_props) -> list[str]:
    lines = []
    for name, dom, rng_ in obj_props:
        parts = [f"objprop {name}"]
        if dom is not None:
            parts.append(f"domain R{dom}")
        if rng_ is not None:
            parts.append(f"range R{rng_}")
        lines.append(" ".join(parts))
    for name, dom, vtype, allowed, card in data_props:
        parts = [f"dataprop {name}"]
        if dom is not None:
            parts.append(f"domain R{dom}")
        parts.append(f"type {vtype}")
        if allowed:
            parts.append("allowed " + ", ".join(allowed))
        parts.append(f"card {card}")
        lines.append(" ".join(parts))
    return lines


def assert_heavy(seed: int, scale: float = 1.0) -> Inputs:
    """Shallow, wide taxonomy under heavy assertional load.

    A seeded 2% of the assertion lines each break exactly one facet, domain
    or range rule, and 3% of the members of R0 lack their required `d_req`
    value, so the expected diagnostic counts are known per code.
    """
    rng = random.Random(seed)
    n_leaves = max(20, round(300 * scale))
    n_inds = max(100, round(10_000 * scale))
    n_assert = max(500, round(50_000 * scale))
    n_rows = max(50, round(5_000 * scale))

    # The first leaves and individuals cover every root, so that no root is
    # empty at small scales.
    leaf_roots = [
        sorted({l % N_ROOTS} | set(rng.sample(range(N_ROOTS), 1 if rng.random() < 0.1 else 0)))
        for l in range(n_leaves)
    ]
    lines = ["ontology assert_a"]
    lines += [f"class R{r}" for r in range(N_ROOTS)]
    lines += [
        f"class L{l:03d} sub " + ", ".join(f"R{r}" for r in rs) for l, rs in enumerate(leaf_roots)
    ]
    lines += _prop_decls(OBJ_PROPS, DATA_PROPS)

    inds = [f"X{i:05d}" for i in range(n_inds)]
    members: list[list[int]] = [[] for _ in range(N_ROOTS)]
    ind_roots: list[set[int]] = []
    for i, ind in enumerate(inds):
        leaves = [i] if i < n_leaves else rng.sample(range(n_leaves), 2 if rng.random() < 0.05 else 1)
        roots = {r for l in leaves for r in leaf_roots[l]}
        ind_roots.append(roots)
        for r in roots:
            members[r].append(i)
        lines.append(f"individual {ind} type " + ", ".join(f"L{l:03d}" for l in leaves))

    body: list[str] = []
    used_single: set[tuple[int, str]] = set()
    with_bool: list[int] = []
    expect_codes: dict[str, int] = {}

    missing_req = 0
    for i in members[0]:
        if rng.random() < 0.03:
            missing_req += 1
        else:
            body.append(f"attr {inds[i]} d_req {rng.choice(_STRINGS)}")
    if missing_req:
        expect_codes["E_CARD_MULTIPLE"] = missing_req

    n_bad = round(n_assert * 0.02)
    clean_props = [p for p in DATA_PROPS if p[0] != "d_req"]
    while len(body) < n_assert - n_bad:
        i = rng.randrange(n_inds)
        if rng.random() < 0.4:
            name, dom, rng_ = rng.choice(OBJ_PROPS)
            if dom is not None and dom not in ind_roots[i]:
                i = rng.choice(members[dom])
            obj = rng.choice(members[rng_]) if rng_ is not None else rng.randrange(n_inds)
            body.append(f"rel {inds[i]} {name} {inds[obj]}")
            continue
        name, dom, vtype, allowed, card = rng.choice(clean_props)
        if dom is not None and dom not in ind_roots[i]:
            i = rng.choice(members[dom])
        if card == "single":
            if (i, name) in used_single:
                continue
            used_single.add((i, name))
            if name == "d_bool":
                with_bool.append(i)
        body.append(f"attr {inds[i]} {name} {_value(rng, vtype, allowed)}")

    not_r2 = [i for i in range(n_inds) if 2 not in ind_roots[i]]
    not_r3 = [i for i in range(n_inds) if 3 not in ind_roots[i]]
    for _ in range(n_bad):
        kind = rng.randrange(5)
        if kind == 0:
            code = "E_TYPE_MISMATCH"
            body.append(f'attr {rng.choice(inds)} d_numv "n/a"')
        elif kind == 1:
            code = "E_ALLOWED_VALUE"
            body.append(f"attr {rng.choice(inds)} d_numv 7")
        elif kind == 2:
            code = "E_DOMAIN"
            body.append(f"rel {inds[rng.choice(not_r2)]} o1 {rng.choice(inds)}")
        elif kind == 3:
            code = "E_RANGE"
            body.append(f"rel {rng.choice(inds)} o2 {inds[rng.choice(not_r3)]}")
        else:
            code = "E_CARD_SINGLE"
            body.append(f"attr {inds[rng.choice(with_bool)]} d_bool true")
        expect_codes[code] = expect_codes.get(code, 0) + 1
    rng.shuffle(body)
    lines += body
    main = "\n".join(lines) + "\n"

    other = _merge_partner(rng, n_leaves, leaf_roots, inds)
    rows = _csv_rows(rng, n_rows)
    target = f"L{next(l for l, rs in enumerate(leaf_roots) if 1 in rs):03d}"
    errors = sum(v for k, v in expect_codes.items() if k != "E_CARD_MULTIPLE")
    return Inputs(
        files={"a.oft": main, "b.oft": other, "rows.csv": rows},
        ops=[
            ("check", ["check", "a.oft"], None),
            ("merge", ["merge", "a.oft", "b.oft", "-o", "merged.oft"], "merged.oft"),
            (
                "ingest",
                ["ingest", "a.oft", "--csv", "rows.csv", "--class", target,
                 "--map", CSV_MAP, "-o", "combined.oft"],
                "combined.oft",
            ),
        ],
        sizes={
            "lines": len(lines),
            "classes": N_ROOTS + n_leaves,
            "individuals": n_inds,
            "assertions": len(body),
            "sum_ancestors": sum(len(rs) + 1 for rs in leaf_roots) + N_ROOTS,
            "merge_lines": other.count("\n"),
            "csv_rows": n_rows,
        },
        expect={
            "codes": expect_codes,
            "summary": f"{errors} errors, {expect_codes.get('E_CARD_MULTIPLE', 0)} warnings\n",
            "csv_rows": n_rows,
        },
    )


def _merge_partner(
    rng: random.Random, n_leaves: int, leaf_roots: list[list[int]], a_inds: list[str]
) -> str:
    """A second ontology overlapping the first in classes, properties and
    individuals, with a few declarations that clash with it."""
    lines = ["ontology assert_b"]
    lines += [f"class R{r}" for r in range(N_ROOTS)]
    for l, rs in enumerate(leaf_roots):
        if rng.random() < 0.05:
            rs = sorted(set(rs) | {rng.randrange(N_ROOTS)})
        lines.append(f"class L{l:03d} sub " + ", ".join(f"R{r}" for r in rs))
    n_new_leaves = max(5, n_leaves // 6)
    lines += [f"class M{m:03d} sub R{rng.randrange(N_ROOTS)}" for m in range(n_new_leaves)]
    obj_props = [OBJ_PROPS[0], ("o3", 2, None), ("p0", None, None), ("p1", 1, None)]
    data_props = [
        DATA_PROPS[0],
        ("d_bool", None, "number", None, "single"),
        ("d_num", 2, "number", None, "single"),
        ("e_str", None, "string", None, "multiple"),
    ]
    lines += _prop_decls(obj_props, data_props)

    n_inds = max(30, len(a_inds) * 3 // 10)
    shared = rng.sample(a_inds, n_inds // 2)
    shared_set = set(shared)
    inds = shared + [f"Y{i:05d}" for i in range(n_inds - len(shared))]
    types = [f"L{l:03d}" for l in range(n_leaves)] + [f"M{m:03d}" for m in range(n_new_leaves)]
    lines += [f"individual {ind} type {rng.choice(types)}" for ind in inds]
    # Names that are individuals in the first ontology but classes here.
    clashing = [ind for ind in a_inds[:50] if ind not in shared_set][:3]
    for name in clashing:
        lines.append(f"class {name} sub R{rng.randrange(N_ROOTS)}")
        lines.append(f"individual Z{name} type {name}")
    for _ in range(n_inds * 3):
        subject = rng.choice(inds)
        pick = rng.randrange(4)
        if pick == 0:
            lines.append(f"rel {subject} {rng.choice(['o3', 'p0', 'p1'])} {rng.choice(inds)}")
        elif pick == 1:
            lines.append(f"attr {subject} e_str {rng.choice(_STRINGS)}")
        elif pick == 2:
            lines.append(f"attr {subject} d_str {rng.choice(_STRINGS)}")
        else:
            lines.append(f"attr {subject} d_bool {rng.choice(_NUMBERS)}")
    return "\n".join(lines) + "\n"


def _csv_rows(rng: random.Random, n_rows: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "name", "year", "flag", "when", "score"])
    for r in range(n_rows):
        writer.writerow(
            [
                f"N{r:05d}",
                rng.choice(["Barhee", "Medjool, large", 'say "hi"', "", "Deglet Noor"]),
                rng.choice([str(rng.randint(1900, 2024)), "12.5", ""]),
                rng.choice(["true", "false", ""]),
                rng.choice(_DATES + [""]),
                rng.choice(["7", "true", "2020-01-01", "plain text", ""]),
            ]
        )
    return buf.getvalue()


GENERATORS = {"deep_check": deep_check, "assert_heavy": assert_heavy, "query_mix": query_mix}
