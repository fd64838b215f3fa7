import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from relkit.algebra import FiniteAlgebra
from relkit.caps import Caps
from relkit.relations import (
    BinRel,
    admissible_closure,
    compose,
    compose_alt,
    congruence_gen,
    converse,
    enumerate_relations,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive_admissible,
    is_tolerance,
    rel_power,
    symmetric_closure,
    tolerance_gen,
    transitive_closure,
    union,
)


def brute_compose(r, s):
    out = set()
    for a, b in r.pairs():
        for b2, c in s.pairs():
            if b == b2:
                out.add((a, c))
    return BinRel.from_pairs(r.n, out)


def rand_rel(rng, n):
    return BinRel(n, rng.getrandbits(n * n))


def test_compose_left_to_right():
    r = BinRel.from_pairs(3, [(0, 1)])
    s = BinRel.from_pairs(3, [(1, 2)])
    assert compose(r, s).pairs() == [(0, 2)]
    assert compose(s, r).pairs() == []


def test_compose_against_brute_force():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5, 7):
        for _ in range(30):
            r, s = rand_rel(rng, n), rand_rel(rng, n)
            assert compose(r, s) == brute_compose(r, s)


def test_compose_associative_converse_antihom():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 6)
        r, s, t = (rand_rel(rng, n) for _ in range(3))
        assert compose(compose(r, s), t) == compose(r, compose(s, t))
        assert converse(compose(r, s)) == compose(converse(s), converse(r))
        assert converse(converse(r)) == r
        assert converse(intersect(r, s)) == intersect(converse(r), converse(s))


def test_compose_alt_factor_conventions():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 5)
        s, t = rand_rel(rng, n), rand_rel(rng, n)
        # m factors from the left: S∘T∘S∘...
        assert compose_alt(s, t, 1, "right") == s
        assert compose_alt(s, t, 2, "right") == compose(s, t)
        assert compose_alt(s, t, 3, "right") == compose(compose(s, t), s)
        # ending at the right argument: ...∘S∘T; odd m starts with T
        assert compose_alt(s, t, 3, "left") == compose(compose(t, s), t)
        assert compose_alt(s, t, 2, "left") == compose(s, t)
        assert compose_alt(s, t, 4, "left") == compose_alt(s, t, 4, "right")


def test_rel_power():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 5)
        r = rand_rel(rng, n)
        acc = r
        for h in range(1, 5):
            assert rel_power(r, h) == acc
            acc = compose(acc, r)


def brute_transitive_closure(r):
    cur = r
    while True:
        nxt = union(cur, compose(cur, r))
        if nxt == cur:
            return cur
        cur = nxt


def test_transitive_closure_minimal():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 6)
        r = rand_rel(rng, n)
        c = transitive_closure(r)
        assert c == brute_transitive_closure(r)
        assert c.is_transitive()
        assert r.mask | c.mask == c.mask
        # closure laws: monotone, idempotent
        assert transitive_closure(c) == c
    r = BinRel.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert transitive_closure(r).contains(0, 3)


def test_symmetric_closure():
    r = BinRel.from_pairs(3, [(0, 1)])
    assert symmetric_closure(r).pairs() == [(0, 1), (1, 0)]


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_cached_shape_flags_agree(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    r = BinRel(n, mask)
    # query twice: cached answer must match recomputation on a fresh object
    assert r.is_reflexive() == BinRel(n, mask).is_reflexive()
    assert r.is_symmetric() == (r == converse(r))
    assert r.is_transitive() == (compose(r, r).mask | r.mask == r.mask)
    assert r.is_reflexive() == all(r.contains(a, a) for a in range(n))


def brute_admissible(alg, r):
    # independent filter: apply each operation row-wise to tuples of pairs
    import numpy as np

    pairs = r.pairs()
    if not pairs:
        return True
    left = np.array([p[0] for p in pairs])
    right = np.array([p[1] for p in pairs])
    member = np.zeros((alg.size, alg.size), dtype=bool)
    member[left, right] = True
    for op in alg.ops:
        table = np.array(op.table)
        grids = np.meshgrid(*[np.arange(len(pairs))] * op.arity, indexing="ij")
        ia = np.zeros_like(grids[0])
        ib = np.zeros_like(grids[0])
        for g in grids:
            ia = ia * alg.size + left[g]
            ib = ib * alg.size + right[g]
        if not member[table[ia], table[ib]].all():
            return False
    return True


def test_is_admissible_against_brute_force(lattice2, baker4):
    rng = random.Random(2)
    for alg in (lattice2, baker4):
        n = alg.size
        for _ in range(40):
            r = rand_rel(rng, n)
            assert is_admissible(alg, r) == brute_admissible(alg, r)


def test_closures_are_minimal(baker4):
    seed = [(0, 3)]
    adm = admissible_closure(baker4, seed)
    tol = tolerance_gen(baker4, seed)
    cg = congruence_gen(baker4, seed)
    assert is_reflexive_admissible(baker4, adm)
    assert is_tolerance(baker4, tol)
    assert is_congruence(baker4, cg)
    assert adm.mask | tol.mask == tol.mask  # adm <= tol
    assert tol.mask | cg.mask == cg.mask
    # minimality: no smaller relation of the same kind contains the seed
    n = baker4.size
    for mask in range(1 << (n * n)):
        r = BinRel(n, mask)
        if not r.contains(0, 3):
            continue
        if r.count() < adm.count() and is_reflexive_admissible(baker4, r):
            raise AssertionError("admissible closure not minimal")
        if r.count() < cg.count() and is_congruence(baker4, r):
            raise AssertionError("congruence closure not minimal")


def all_partitions(universe):
    if not universe:
        yield []
        return
    head, *rest = universe
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def partition_to_rel(n, blocks):
    pairs = [(a, b) for blk in blocks for a in blk for b in blk]
    return BinRel.from_pairs(n, pairs)


def test_congruence_enumeration_oracle_z2cube(z2cube):
    # oracle: filter all 4140 equivalence relations on 8 points
    expected = set()
    for blocks in all_partitions(list(range(8))):
        rel = partition_to_rel(8, blocks)
        if brute_admissible(z2cube, rel):
            expected.add(rel.mask)
    enum = enumerate_relations(z2cube, "congruence")
    assert enum.exhaustive
    assert {r.mask for r in enum.relations} == expected
    assert len(enum.relations) == 16


def test_congruence_enumeration_oracle_small(lattice2, baker4, lattice_n5):
    for alg, want in ((lattice2, 2), (baker4, None), (lattice_n5, 5)):
        expected = set()
        for blocks in all_partitions(list(range(alg.size))):
            rel = partition_to_rel(alg.size, blocks)
            if brute_admissible(alg, rel):
                expected.add(rel.mask)
        got = enumerate_relations(alg, "congruence")
        assert {r.mask for r in got} == expected
        if want is not None:
            assert len(got) == want


def test_tolerance_enumeration_oracle(lattice_n5):
    n = lattice_n5.size
    expected = set()
    diag = BinRel.diagonal(n).mask
    for sym_bits in range(1 << (n * (n - 1) // 2)):
        mask = diag
        k = 0
        for a in range(n):
            for b in range(a + 1, n):
                if (sym_bits >> k) & 1:
                    mask |= (1 << (a * n + b)) | (1 << (b * n + a))
                k += 1
        rel = BinRel(n, mask)
        if brute_admissible(lattice_n5, rel):
            expected.add(mask)
    got = enumerate_relations(lattice_n5, "tolerance")
    assert {r.mask for r in got} == expected
    assert len(got) == 5


def test_reflexive_admissible_enumeration_oracle(lattice2, baker4):
    for alg in (lattice2, baker4):
        n = alg.size
        diag = BinRel.diagonal(n).mask
        expected = {
            mask
            for mask in (m | diag for m in range(1 << (n * n)))
            if brute_admissible(alg, BinRel(n, mask))
        }
        got = enumerate_relations(alg, "reflexive_admissible")
        assert {r.mask for r in got} == expected
    assert len(enumerate_relations(lattice2, "reflexive_admissible")) == 4
    assert len(enumerate_relations(baker4, "reflexive_admissible")) == 16


def brute_relations(alg, kind):
    # independent oracle: filter every candidate of the kind's shape
    n = alg.size
    diag = [(a, a) for a in range(n)]
    if kind == "congruence":
        cands = [partition_to_rel(n, blocks) for blocks in all_partitions(list(range(n)))]
    else:
        free = [(a, b) for a in range(n) for b in range(n) if a != b]
        if kind == "tolerance":
            free = [(a, b) for a, b in free if a < b]
        cands = []
        for bits in range(1 << len(free)):
            chosen = [p for j, p in enumerate(free) if (bits >> j) & 1]
            if kind == "tolerance":
                chosen += [(b, a) for a, b in chosen]
            cands.append(BinRel.from_pairs(n, chosen + diag))
    return {r.mask for r in cands if brute_admissible(alg, r)}


def test_enumeration_matches_brute_force(baker4, lattice_2x2):
    # the principal generators joined to a fixpoint reach every relation
    rng = random.Random(17)
    algebras = [baker4, lattice_2x2, FiniteAlgebra(4, [("u", 1, (0, 1, 2, 3))], name="id4")]
    for size in (2, 3, 3, 4, 4):
        table = [rng.randrange(size) for _ in range(size * size)]
        algebras.append(FiniteAlgebra(size, [("f", 2, table)]))
    for alg in algebras:
        for kind in ("congruence", "tolerance", "reflexive_admissible"):
            got = enumerate_relations(alg, kind)
            assert got.exhaustive and not got.truncated
            assert {r.mask for r in got} == brute_relations(alg, kind), (alg.name, kind)
    assert len(enumerate_relations(algebras[2], "reflexive_admissible")) == 1 << 12


def test_enumeration_canonical_order(baker4):
    rels = enumerate_relations(baker4, "congruence").relations
    assert rels == sorted(rels, key=lambda r: r.pairs())
    assert len({r.mask for r in rels}) == len(rels)


def test_enumeration_truncation_flag(lattice_n5):
    tight = Caps(max_relations=3)
    out = enumerate_relations(lattice_n5, "reflexive_admissible", caps=tight)
    assert out.truncated and not out.exhaustive
    assert len(out.relations) < 25  # the true count; the cap cut generation short
