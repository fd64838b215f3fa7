import hashlib
import itertools
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import relkit.freeclone as freeclone
from relkit.algebra import App, CapExceeded, FiniteAlgebra, Var, parse_term
from relkit.caps import DEFAULT_CAPS, Caps
from relkit.fixtures import FIXTURES, resolve
from relkit.freeclone import (
    TermTable,
    _new_tuple_blocks,
    _symmetric_pairs,
    clone_as_algebra,
    dump_clone,
    free_relations,
    generate_clone,
    identity_holds,
    separating_cells,
    slot_identifications,
    table_of_term,
)
from relkit.relations import BinRel, admissible_closure, compose, intersect

from test_algebra import endomorphism_cases
from test_table_layout import ref_restrict_table


def monotone_01_preserving_tables(k):
    """Oracle for the 2-chain: term functions of the lattice (0,1,∨,∧) in k
    variables are exactly the monotone functions fixing the constant tuples."""
    points = list(itertools.product((0, 1), repeat=k))
    out = set()
    for bits in range(1 << len(points)):
        f = {p: (bits >> i) & 1 for i, p in enumerate(points)}
        if f[points[0]] != 0 or f[points[-1]] != 1:
            continue
        if all(
            f[p] <= f[q]
            for p, q in itertools.combinations(points, 2)
            if all(a <= b for a, b in zip(p, q))
        ):
            out.add(tuple(f[p] for p in points))
    return out


def parity_tables(k):
    # z2 term functions: sums of variable subsets (empty sum via x+x)
    points = list(itertools.product((0, 1), repeat=k))
    out = set()
    for coeffs in itertools.product((0, 1), repeat=k):
        out.add(tuple(sum(c * a for c, a in zip(coeffs, p)) % 2 for p in points))
    return out


def test_clone_counts_with_oracles(lattice2, z2):
    c = generate_clone(lattice2, 3)
    assert c.complete and len(c) == 18
    assert {tuple(e.table) for e in c.elements} == monotone_01_preserving_tables(3)
    c4 = generate_clone(lattice2, 4)
    assert c4.complete and len(c4) == 166
    assert {tuple(e.table) for e in c4.elements} == monotone_01_preserving_tables(4)
    cz = generate_clone(z2, 3)
    assert cz.complete and len(cz) == 8
    assert {tuple(e.table) for e in cz.elements} == parity_tables(3)


def test_clone_counts_regression(baker4, lattice_2x2):
    assert len(generate_clone(baker4, 3)) == 10
    assert len(generate_clone(baker4, 4)) == 53
    # same variety as the 2-chain, so the same free algebra size
    assert len(generate_clone(lattice_2x2, 3)) == 18


def test_capped_4ary_clone_of_lattice_n5_is_pinned():
    """The tables, their BFS order and the witnesses of the capped clone
    that the terms benchmark's lattice_n5 searches stop at."""
    c = generate_clone(resolve("lattice_n5"), 4, cap=20000)
    assert len(c) == 20000 and not c.complete
    assert max(e.depth for e in c.elements) == 4
    tables = hashlib.sha256(c.matrix().tobytes()).hexdigest()
    witnesses = hashlib.sha256("\n".join(str(e.witness) for e in c.elements).encode()).hexdigest()
    assert tables == "6486bc20c4ab332d4cba9b56b547c37a5e22dfebcf9b4103ac3a45ab5be2e49e"
    assert witnesses == "57350a5270b8a1f0ac19ee09b89e34fea50a827ff98aee231729084c534ddcfd"


def test_projections_and_witness_depths(lattice2):
    c = generate_clone(lattice2, 3)
    for i in range(3):
        assert c.elements[i].witness == Var(i)
        assert c.elements[i].depth == 0
    # depths never exceed a parent chain: witnesses replay to their tables
    for e in c.elements:
        assert list(table_of_term(lattice2, e.witness, 3)) == list(e.table)


def test_witness_tables_replay(z2, baker4):
    for alg in (z2, baker4):
        c = generate_clone(alg, 3)
        for e in c.elements:
            assert list(table_of_term(alg, e.witness, 3)) == list(e.table)


def test_clone_closed_under_operations(lattice2):
    c = generate_clone(lattice2, 3)
    keys = {e.key() for e in c.elements}
    tables = c.matrix()
    for op in lattice2.ops:
        table = np.array(op.table, dtype=tables.dtype)
        for combo in itertools.product(range(len(c)), repeat=op.arity):
            args = tables[list(combo)]
            flat = args[0].copy()
            for col in args[1:]:
                flat *= lattice2.size
                flat += col
            assert table[flat].tobytes() in keys


def test_generation_cap(lattice2):
    c = generate_clone(lattice2, 3, cap=5)
    assert not c.complete and len(c) == 5
    with pytest.raises(CapExceeded):
        clone_as_algebra(c)
    tight = Caps(clone_cap_3=7)
    assert len(generate_clone(lattice2, 3, caps=tight)) == 7


def test_clone_as_algebra_operations(lattice2):
    c = generate_clone(lattice2, 3)
    free = clone_as_algebra(c)
    assert free.size == 18
    # the induced operation composes pointwise
    for i, j in itertools.product(range(0, 18, 5), repeat=2):
        k = free.apply("join", (i, j))
        assert (c.table(k) == np.maximum(c.table(i), c.table(j))).all()
        m = free.apply("meet", (i, j))
        assert (c.table(m) == np.minimum(c.table(i), c.table(j))).all()


def test_free_relations_basics(lattice2):
    fr = free_relations(generate_clone(lattice2, 3))
    assert (fr.x, fr.y, fr.z) == (0, 1, 2)
    assert fr.alpha.contains(fr.x, fr.z) and fr.alpha.is_transitive()
    assert fr.beta.contains(fr.x, fr.y) and fr.beta.is_reflexive()
    # the distributive-lattice middle element joins x to z through both sides
    mid = intersect(compose(intersect(fr.alpha, fr.beta), intersect(fr.alpha, fr.gamma)), fr.alpha)
    assert mid.contains(fr.x, fr.z)


def test_identity_holds_patterns(lattice2):
    c = generate_clone(lattice2, 3)
    maj = parse_term("join(meet(x,y),join(meet(x,z),meet(y,z)))")
    assert identity_holds(lattice2, maj, Var(0), "aab")
    assert identity_holds(lattice2, maj, Var(0), "aba")
    assert identity_holds(lattice2, maj, Var(1), "abb")
    assert not identity_holds(lattice2, maj, Var(0), "abc")
    assert identity_holds(lattice2, App("join", (Var(0), Var(1))), App("join", (Var(1), Var(0))), "ab")
    assert len({e.key() for e in c.elements}) == 18


def test_restrict_table_oracle(lattice2):
    c4 = generate_clone(lattice2, 4)
    n = 2
    for e in c4.elements[:12]:
        for slot in range(3):
            got = ref_restrict_table(e.table, n, 4, slot)
            want = []
            for args in itertools.product(range(n), repeat=3):
                full = args + (args[slot],)
                idx = 0
                for a in full:
                    idx = idx * n + a
                want.append(e.table[idx])
            assert list(got) == want


def test_slot_identifications(lattice2):
    c3 = generate_clone(lattice2, 3)
    c4 = generate_clone(lattice2, 4)
    slots = slot_identifications(c4, c3)
    assert len(slots) == len(c4)
    by_key = {e.key(): e.id for e in c3.elements}
    for uid, (ax, ay, az) in enumerate(slots):
        tab = c4.table(uid)
        assert by_key[ref_restrict_table(tab, 2, 4, 0).tobytes()] == ax
        assert by_key[ref_restrict_table(tab, 2, 4, 1).tobytes()] == ay
        assert by_key[ref_restrict_table(tab, 2, 4, 2).tobytes()] == az


def test_principal_sigma_dual_route():
    """The 4-ary slot relations σ = {(u@x, u@z)}, τ = {(u@x, u@y)} and
    υ = {(u@y, u@z)} equal the admissible closures of {(x,z)}, {(x,y)} and
    {(y,z)} in the free algebra: two independent constructions of the
    relations find_vr walks."""
    for name in ("lattice2", "z2", "baker4", "lattice_2x2"):
        alg = resolve(name)
        c3 = generate_clone(alg, 3)
        fr = free_relations(c3)
        slots = slot_identifications(generate_clone(alg, 4), c3)
        gens = (fr.x, fr.y, fr.z)
        for i, j in ((0, 2), (0, 1), (1, 2)):
            rel = BinRel.from_pairs(len(c3), [(ids[i], ids[j]) for ids in slots])
            assert rel == admissible_closure(fr.free, [(gens[i], gens[j])]), (name, i, j)


def test_dump_clone_format(z2):
    c = generate_clone(z2, 3)
    d = dump_clone(c)
    assert d["count"] == 8 and d["complete"] and d["arity"] == 3
    assert len(d["elements"]) == 8
    for el in d["elements"]:
        assert el["table"] == list(c.table(el["id"]))
        assert parse_term(el["witness"]) == c.witness(el["id"])


def test_nullary_free_algebra_error(lattice2):
    with pytest.raises(ValueError):
        generate_clone(lattice2, 0)
    with pytest.raises(ValueError):
        free_relations(generate_clone(lattice2, 4))


# ---------------------------------------------------------------------------
# generate_clone against the plain loop it replaced


def plain_generate_clone(alg, k, cap=None, caps=DEFAULT_CAPS):
    """Every argument tuple through itertools.product, skipping those whose
    ids all predate the previous depth, 4096 at a time, with the flat table
    index written out in intp and one dict lookup per output row."""
    n = alg.size
    span = n**k
    if cap is None:
        cap = caps.clone_cap(k)
    dtype = np.min_scalar_type(n - 1)
    elements, index = [], {}

    def admit(table, depth, witness):
        key = table.tobytes()
        if key in index:
            return False
        e = TermTable(len(elements), table, witness(), depth)
        index[key] = e.id
        elements.append(e)
        return True

    grid = np.indices((n,) * k, dtype=dtype)
    for j in range(k):
        admit(grid[j].reshape(-1), 0, lambda j=j: Var(j))
    ops = sorted(alg.ops, key=lambda o: o.name)
    depth, prev_total = 0, 0
    while True:
        total = len(elements)
        if total == prev_total and depth > 0:
            break
        frontier_start, prev_total = prev_total, total
        depth += 1
        tm = np.stack([e.table for e in elements[:total]])
        grew = False
        for op in ops:
            r = op.arity
            otab = np.asarray(op.table, dtype=dtype)
            if r == 0:
                grew |= admit(np.full(span, otab[0], dtype=dtype), depth, lambda: App(op.name, ()))
                continue
            batch = []

            def flush():
                nonlocal grew
                ids = np.array(batch, dtype=np.intp)
                flat = tm[ids[:, 0]].astype(np.intp)
                for col in range(1, r):
                    flat = flat * n + tm[ids[:, col]]
                for row, combo in zip(otab[flat], batch):
                    witness = lambda: App(op.name, tuple(elements[i].witness for i in combo))
                    grew |= admit(row, depth, witness)
                batch.clear()

            for combo in itertools.product(range(total), repeat=r):
                if max(combo) < frontier_start:
                    continue
                batch.append(combo)
                if len(batch) >= 4096:
                    flush()
                    if len(elements) > cap:
                        break
            if batch:
                flush()
            if len(elements) > cap:
                return PlainClone(alg, elements[:cap], complete=False)
        if not grew:
            break
    return PlainClone(alg, elements, complete=True)


@dataclass
class PlainClone:
    algebra: FiniteAlgebra
    elements: list
    complete: bool

    def __len__(self):
        return len(self.elements)


def assert_same_clone(got, want):
    assert (len(got), got.complete) == (len(want), want.complete), got.algebra
    for g, w in zip(got.elements, want.elements):
        assert (g.id, g.depth, g.witness) == (w.id, w.depth, w.witness), (got.algebra, w.id)
        assert g.table.dtype == w.table.dtype and np.array_equal(g.table, w.table)


def _random_algebra(rng, size, arities):
    ops = [
        (f"f{i}", r, [rng.randrange(size) for _ in range(size**r)])
        for i, r in enumerate(arities)
    ]
    return FiniteAlgebra(size, ops, name=f"rnd{size}{arities}")


def _random_clone_cases(seed=113, count=30):
    """(algebra, k, cap): arities 0-4.  Uncapped only where every clone is
    small (at most 27 functions); caps small enough that the oracle's
    total^r tuples stay in the tens of thousands."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        size = rng.choice((1, 2, 2, 3))
        arities = tuple(sorted(rng.choice((0, 1, 2, 3, 4)) for _ in range(rng.randrange(1, 4))))
        alg = _random_algebra(rng, size, arities)
        if i % 3 == 0:
            k = {1: rng.randrange(1, 5), 2: rng.randrange(1, 3), 3: 1}[size]
            cases.append((alg, k, None))
        else:
            k = rng.randrange(1, 5)
            top = max(arities)
            cap = rng.choice({4: (4, 9, 16), 3: (5, 20, 40)}.get(top, (5, 40, 150)))
            cases.append((alg, k, max(cap, k)))
    return cases


def _fixture_clone_cases():
    cases = []
    for name in FIXTURES:
        alg = resolve(name)
        for k in range(1, 5):
            if alg.size**k > DEFAULT_CAPS.max_table_cells or (name, k) == ("lattice_n5", 4):
                continue  # lattice_n5's 4-ary clone only capped, below
            cases.append((alg, k, None))
    return cases


def test_generate_clone_matches_plain_loop():
    cases = _fixture_clone_cases()
    cases += [(resolve("lattice_n5"), 4, cap) for cap in (5, 777, 20000)]
    cases += _random_clone_cases()
    assert any(op.arity == 0 for alg, _, _ in cases for op in alg.ops)
    assert any(op.arity == 4 for alg, _, _ in cases for op in alg.ops)
    for alg, k, cap in cases:
        assert_same_clone(generate_clone(alg, k, cap=cap), plain_generate_clone(alg, k, cap=cap))


@pytest.mark.parametrize("chunk", [1, 40, 300])
def test_generate_clone_small_chunks(monkeypatch, chunk):
    """Chunks of a few cells split every depth, and a cap trips mid-chunk.
    Random cases only with at most 5000 tuples per operation and depth: a
    chunk may hold a single tuple."""
    cases = [
        (resolve("lattice2"), 3, None),
        (resolve("lattice2"), 3, 7),
        (resolve("lattice2"), 4, 40),
        (resolve("baker4"), 3, None),
        (resolve("lattice_n5"), 4, 60),
    ]
    for alg, k, cap in _random_clone_cases(seed=127, count=20):
        most = cap or alg.size ** alg.size**k
        if most ** max(op.arity for op in alg.ops) <= 5000:
            cases.append((alg, k, cap))
    want = [plain_generate_clone(alg, k, cap=cap) for alg, k, cap in cases]
    monkeypatch.setattr(freeclone, "_CHUNK", chunk)
    for (alg, k, cap), w in zip(cases, want):
        assert_same_clone(generate_clone(alg, k, cap=cap), w)


def _recipe_cases(small_chunks):
    """(algebra, k, cap): every fixture at k = 3 and 4.  lattice_n5's 4-ary
    clone is capped at 20000, as in the terms benchmark; for chunks of a
    few cells every 4-ary clone is capped at 30 (cutting those of baker4
    and the lattices), so that a chunk may hold one tuple and the test
    stays fast."""
    cases = []
    for name in FIXTURES:
        cases.append((resolve(name), 3, None))
        four = 30 if small_chunks else 20000 if name == "lattice_n5" else None
        cases.append((resolve(name), 4, four))
    return cases


@pytest.mark.parametrize("chunk", [None, 1, 40, 300])
def test_array_recipes_match_plain_loop(monkeypatch, chunk):
    """The recipes and depths held in arrays give the plain loop's ids,
    depths, tables, witness strings and complete flag, in dump_clone (as
    Python ints, which JSON needs) and through witness(i) asked deepest first,
    at the default chunk and at chunks of a few cells."""
    cases = _recipe_cases(small_chunks=chunk is not None)
    want = [plain_generate_clone(alg, k, cap=cap) for alg, k, cap in cases]
    if chunk is not None:
        monkeypatch.setattr(freeclone, "_CHUNK", chunk)
    for (alg, k, cap), w in zip(cases, want):
        got = generate_clone(alg, k, cap=cap)
        assert [got.witness(i) for i in reversed(range(len(w)))] == [e.witness for e in reversed(w.elements)]
        dump = dump_clone(got)
        assert (dump["count"], dump["complete"]) == (len(w), w.complete), (alg, k)
        assert dump["elements"] == [
            {"id": e.id, "depth": e.depth, "table": e.table.tolist(), "witness": str(e.witness)}
            for e in w.elements
        ], (alg, k)
        assert {type(v) for el in dump["elements"] for v in (el["id"], el["depth"], *el["table"])} == {int}
        assert_same_clone(got, w)


def test_capped_4ary_clone_memory_gate():
    """Building the capped 4-ary lattice_n5 clone of the terms benchmark
    peaks at most at 16 MB of traced allocations (13.5 MB on a 2-vCPU Xeon
    VM; 20.8 MB with 2^21-cell chunks).  May be tightened, never loosened."""
    alg = resolve("lattice_n5")
    tracemalloc.start()
    try:
        clone = generate_clone(alg, 4, cap=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(clone) == 20000 and not clone.complete
    assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MB"


# Operations symmetric in some argument pairs: a table constant on the
# classes of a canonical form, with the pairs i < j whose swap fixes it.
_SYMMETRIC_KINDS = {
    "comm2": (2, lambda t: tuple(sorted(t)), [(0, 1)]),
    "sym02": (3, lambda t: (min(t[0], t[2]), t[1], max(t[0], t[2])), [(0, 2)]),
    "sym3": (3, lambda t: tuple(sorted(t)), [(0, 1), (0, 2), (1, 2)]),
    "sym13": (4, lambda t: (t[0], min(t[1], t[3]), t[2], max(t[1], t[3])), [(1, 3)]),
}


def _symmetric_table(rng, n, kind):
    """A random table of the kind, symmetric in exactly its pairs; the
    commutative binary one is not idempotent."""
    r, canon, pairs = _SYMMETRIC_KINDS[kind]
    tuples = list(itertools.product(range(n), repeat=r))
    while True:
        values = {}
        table = [values.setdefault(canon(t), rng.randrange(n)) for t in tuples]
        idempotent = all(table[tuples.index((x,) * r)] == x for x in range(n))
        if _brute_symmetric_pairs(table, n, r) == pairs and not (kind == "comm2" and idempotent):
            return table


def _brute_symmetric_pairs(table, n, r):
    """The transpositions among itertools.permutations of the argument
    positions that fix the operation on every tuple."""
    tuples = list(itertools.product(range(n), repeat=r))
    value = dict(zip(tuples, table))
    pairs = []
    for perm in itertools.permutations(range(r)):
        moved = [i for i in range(r) if perm[i] != i]
        if len(moved) == 2 and all(value[t] == value[tuple(t[p] for p in perm)] for t in tuples):
            pairs.append(tuple(moved))
    return sorted(pairs)


def _symmetric_clone_cases():
    """(algebra, k, cap): each symmetric kind on 2 and 3 elements, alone and
    beside a random binary operation; uncapped where the clone has at most
    27 functions, and with caps 7 and 40."""
    rng = random.Random(131)
    cases = []
    for kind, n, with_binary in itertools.product(_SYMMETRIC_KINDS, (2, 3), (False, True)):
        r = _SYMMETRIC_KINDS[kind][0]
        ops = [(kind, r, _symmetric_table(rng, n, kind))]
        if with_binary:
            ops.append(("g", 2, [rng.randrange(n) for _ in range(n * n)]))
        alg = FiniteAlgebra(n, ops, name=f"{kind}-{n}-{len(ops)}")
        cases += [(alg, k, None) for k in ((1, 2) if n == 2 else (1,))]
        cases += [(alg, 3 if n == 2 else 2, cap) for cap in (7, 40)]
    return cases


def test_symmetric_pairs_against_brute_force():
    rng = random.Random(137)
    tables = [
        (op.table, alg.size, op.arity)
        for alg, _, _ in _symmetric_clone_cases()
        for op in alg.ops
    ]
    for n in (1, 2, 3):
        for r in range(5):
            tables += [([rng.randrange(n) for _ in range(n**r)], n, r) for _ in range(3)]
    tables += [(op.table, alg.size, op.arity) for alg in map(resolve, FIXTURES) for op in alg.ops]
    for table, n, r in tables:
        assert _symmetric_pairs(table, n, r) == _brute_symmetric_pairs(table, n, r), (table, n, r)


def test_generate_clone_symmetric_ops_match_plain_loop():
    """Pruning the tuples a symmetric operation repeats changes no id,
    table, witness, depth, complete flag or cap cut."""
    for alg, k, cap in _symmetric_clone_cases():
        assert_same_clone(generate_clone(alg, k, cap=cap), plain_generate_clone(alg, k, cap=cap))


@pytest.mark.parametrize("chunk", [1, 40])
def test_generate_clone_symmetric_ops_small_chunks(monkeypatch, chunk):
    """As above with chunks of a few cells, so a pruned block may be empty;
    only cases with at most 5000 tuples per operation and depth."""
    cases = [
        (alg, k, cap)
        for alg, k, cap in _symmetric_clone_cases()
        if (cap or alg.size ** alg.size**k) ** max(op.arity for op in alg.ops) <= 5000
    ]
    want = [plain_generate_clone(alg, k, cap=cap) for alg, k, cap in cases]
    monkeypatch.setattr(freeclone, "_CHUNK", chunk)
    for (alg, k, cap), w in zip(cases, want):
        assert_same_clone(generate_clone(alg, k, cap=cap), w)


# ---------------------------------------------------------------------------
# separating cells


def _cover_cases():
    """(algebra, k): the fixtures at every k with at most 4096 cells, and
    the random algebras of the endomorphism tests at k = 1, 2, 3."""
    cases = []
    for name in FIXTURES:
        alg = resolve(name)
        cases += [(alg, k) for k in range(1, 5) if alg.size**k <= 4096]
    cases += [(alg, k) for alg in endomorphism_cases() for k in (1, 2, 3)]
    return cases


def test_separating_cells_cover_every_cell():
    """Each cell c is emaps[hid[c]] applied to its representative, the maps
    are endomorphisms with the identity among them, and the cells are
    distinct and ascending."""
    for alg, k in _cover_cases():
        n = alg.size
        cover = separating_cells(alg, k)
        digits = np.indices((n,) * k).reshape(k, -1).T  # cell -> its k coordinates
        source = digits[cover.cells[cover.rep]]
        assert np.array_equal(cover.emaps[cover.hid[:, None], source], digits), (alg, k)
        maps = [tuple(h) for h in cover.emaps.tolist()]
        assert tuple(range(n)) in maps and set(maps) <= set(freeclone.endomorphisms(alg))
        assert np.all(np.diff(cover.cells) > 0)


def test_separating_cells_keep_one_chunk_of_images(monkeypatch):
    """Only max(1, _CHUNK // n^k) endomorphisms join the cover, the
    identity first; with the identity alone every cell is its own
    representative."""
    z2cube = resolve("z2cube")
    monkeypatch.setattr(freeclone, "_CHUNK", 512 * 7)
    cover = separating_cells(z2cube, 3)
    assert len(cover.emaps) == 7 and cover.emaps[0].tolist() == list(range(8))
    monkeypatch.setattr(freeclone, "_CHUNK", 1)
    cover = separating_cells(z2cube, 3)
    assert cover.emaps.tolist() == [list(range(8))]
    assert cover.cells.tolist() == cover.rep.tolist() == list(range(512))
    assert not cover.hid.any()


def test_generate_clone_on_every_cell_matches_separating_cells(monkeypatch):
    """generate_clone with endomorphisms cut to the identity, so on every
    cell, gives the same ids, depths, tables, dtypes, witnesses and complete
    flag as on the separating cells, which are fewer on every fixture."""
    cases = [  # lattice_n5's 4-ary clone capped, as in the terms benchmark
        (resolve(name), k, 20000 if (name, k) == ("lattice_n5", 4) else None)
        for name in FIXTURES
        for k in (3, 4)
    ]
    cases += _random_clone_cases()
    want = [generate_clone(alg, k, cap=cap) for alg, k, cap in cases]
    for got in want[: 2 * len(FIXTURES)]:
        assert len(got.cover.cells) < got.algebra.size**got.arity
    monkeypatch.setattr(freeclone, "endomorphisms", lambda alg: [tuple(range(alg.size))])
    for (alg, k, cap), w in zip(cases, want):
        got = generate_clone(alg, k, cap=cap)
        assert len(got.cover.cells) == alg.size**k
        assert_same_clone(got, w)


def _ids_cases():
    """(clone, capped): every fixture at k = 3 and 4 (lattice_n5's 4-ary
    clone capped at 3000), and the same clone cut to half its elements."""
    cases = []
    for name in FIXTURES:
        alg = resolve(name)
        for k in (3, 4):
            full = generate_clone(alg, k, cap=3000 if (name, k) == ("lattice_n5", 4) else None)
            cases.append((full, generate_clone(alg, k, cap=max(k, len(full) // 2))))
    return cases


def test_ids_match_full_table_index():
    """Clone.ids of restricted rows equals a lookup of the full tables in a
    dict of the clone's full-table bytes, on rows repeated, shuffled and in
    Fortran order: on the clone's own rows, and on the rows of the larger
    clone, whose tables the capped one lacks map to -1."""
    rng = np.random.default_rng(139)
    for full, capped in _ids_cases():
        assert np.array_equal(full.cover.cells, capped.cover.cells)
        order = rng.permutation(np.concatenate([np.arange(len(full)), rng.choice(len(full), 30)]))
        for c in (full, capped):
            index = {row.tobytes(): i for i, row in enumerate(c.matrix())}
            want = [index.get(row.tobytes(), -1) for row in full.matrix()[order]]
            assert len(set(want) - {-1}) == len(c)
            for rows in (full.rows()[order], np.asfortranarray(full.rows()[order])):
                got = c.ids(rows)
                assert got.dtype == np.intp and got.tolist() == want, c.algebra
        assert -1 in want


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_values_match_matrix_columns(monkeypatch, chunk):
    """values(cells) is matrix()[:, cells] for unsorted, repeated and single
    cells, at the default chunk and at chunks of a few cells."""
    clones = [
        generate_clone(resolve("lattice2"), 4),
        generate_clone(resolve("baker4"), 3),
        generate_clone(resolve("z2cube"), 3),
        generate_clone(resolve("lattice_n5"), 4, cap=300),
    ]
    want = [c.matrix() for c in clones]
    if chunk is not None:
        monkeypatch.setattr(freeclone, "_CHUNK", chunk)
    rng = np.random.default_rng(151)
    for c, tm in zip(clones, want):
        span = tm.shape[1]
        for cells in (rng.permutation(span)[:40], np.array([5, 0, 5, 5, span - 1]), [span - 1]):
            got = c.values(cells)
            assert got.dtype == tm.dtype and np.array_equal(got, tm[:, cells]), (c.algebra, cells)


def _lex_new_tuples(start, total, r):
    return [t for t in itertools.product(range(total), repeat=r) if max(t) >= start]


@pytest.mark.parametrize("limit", [1, 2, 7, 64, 10**6])
def test_new_tuple_blocks_against_itertools(limit):
    for total in range(1, 7):
        for start in range(total):
            for r in range(1, 5):
                blocks = list(_new_tuple_blocks(start, total, r, limit))
                assert all(b.shape[0] == r and 1 <= b.shape[1] <= limit for b in blocks)
                got = [tuple(t) for b in blocks for t in b.T.tolist()]
                assert got == _lex_new_tuples(start, total, r), (start, total, r)


def test_new_tuple_blocks_beyond_int64():
    """total^4 = 2^64: the first block comes without any count overflowing.
    For a prefix (0, 0, a) with a < start, the tuples with an entry >= start
    are (0, 0, a, start) and (0, 0, a, start + 1), so those, a = 0, 1, ...,
    are the first in lexicographic order."""
    total = 1 << 16
    start = total - 2
    assert total**4 > 2**63
    block = next(_new_tuple_blocks(start, total, 4, 1000))
    want = [(0, 0, a, b) for a in range(500) for b in (start, start + 1)]
    assert [tuple(t) for t in block.T.tolist()] == want
