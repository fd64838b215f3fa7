import functools
import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relkit.relations as relations
from relkit.algebra import FiniteAlgebra
from relkit.caps import DEFAULT_CAPS, Caps
from relkit.fixtures import FIXTURES, resolve
from relkit.freeclone import clone_as_algebra, generate_clone
from relkit.identities import AltL, AltR, Pow, RVar, eval_expr
from relkit.relations import (
    KINDS,
    BinRel,
    _image_mask,
    _pairs_cmp,
    admissible_closure,
    bar_masks,
    compose,
    compose_masks,
    congruence_gen,
    converse,
    converse_masks,
    enumerate_relations,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive_admissible,
    is_tolerance,
    joins,
    pairs_order,
    principal_relations,
    star_masks,
    symmetric_closure,
    tolerance_gen,
    transitive_closure,
    union,
)
from relkit.uadmissible import enumerate_u

from test_uadmissible import differential_algebras


def brute_compose(r, s):
    out = set()
    for a, b in r.pairs():
        for b2, c in s.pairs():
            if b == b2:
                out.add((a, c))
    return BinRel.from_pairs(r.n, out)


def rand_rel(rng, n):
    return BinRel(n, rng.getrandbits(n * n))


def reflexive_masks(n):
    """Every reflexive relation on n points: the diagonal joined with each
    subset of the off-diagonal bits."""
    diag = BinRel.diagonal(n).mask
    off = BinRel.full(n).mask & ~diag
    sub = off
    while True:
        yield sub | diag
        if not sub:
            return
        sub = (sub - 1) & off


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


def compose_alt(s, t, m, side="right"):
    """Alternating composition with m factors, as an explicit chain.

    side="right": s o t o s ... starting from s.
    side="left":  ... t o s o t ending at t; equals the right form on (s, t)
    for even m and on (t, s) for odd m.
    """
    if side == "left" and m % 2:
        s, t = t, s
    out = s
    for i in range(1, m):
        out = compose(out, (s, t)[i % 2])
    return out


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


def test_alternating_compositions_evaluate_to_explicit_chains():
    """eval_expr of s ;^m t and s m^; t is the explicit chain of m factors."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 5)
        alg = FiniteAlgebra(n, [])
        env = {"s": rand_rel(rng, n), "t": rand_rel(rng, n)}
        for m in range(1, 6):
            for alt, side in ((AltR, "right"), (AltL, "left")):
                got = eval_expr(alg, alt(RVar("s"), RVar("t"), m), env)
                assert got == compose_alt(env["s"], env["t"], m, side), (n, m, side)


def test_rel_power():
    """pow(r, h) evaluates to the h-fold composition of r."""
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 5)
        alg = FiniteAlgebra(n, [])
        r = rand_rel(rng, n)
        acc = r
        for h in range(1, 5):
            assert eval_expr(alg, Pow(RVar("r"), h), {"r": r}) == acc
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


def test_is_admissible_stops_at_the_first_escaping_operation(monkeypatch):
    """f moves (0, 1) to (1, 2), outside the relation, so the image under g
    is never needed."""
    f = [1, 2, 2]
    g = [0, 0, 0]
    alg = FiniteAlgebra(3, [("f", 1, f), ("g", 1, g)])
    calls = []
    image = relations._image_mask
    monkeypatch.setattr(relations, "_image_mask", lambda *a: calls.append(a[0].name) or image(*a))
    assert not is_admissible(alg, BinRel.from_pairs(3, [(0, 1)]))
    assert calls == ["f"]


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
    # (both kinds are reflexive, so only reflexive candidates are scanned)
    n = baker4.size
    for mask in reflexive_masks(n):
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
        expected = {
            mask for mask in reflexive_masks(n) if brute_admissible(alg, BinRel(n, mask))
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
            assert got.exhaustive
            assert {r.mask for r in got} == brute_relations(alg, kind), (alg.name, kind)
    assert len(enumerate_relations(algebras[2], "reflexive_admissible")) == 1 << 12


def test_enumeration_canonical_order(baker4):
    rels = enumerate_relations(baker4, "congruence").relations
    assert rels == sorted(rels, key=lambda r: r.pairs())
    assert len({r.mask for r in rels}) == len(rels)


def test_enumeration_truncation_flag(lattice_n5):
    tight = Caps(max_relations=3)
    out = enumerate_relations(lattice_n5, "reflexive_admissible", caps=tight)
    assert not out.exhaustive
    assert len(out.relations) < 25  # the true count; the cap cut generation short


# ---------------------------------------------------------------------------
# the worklist enumeration the join loop replaced

REF_CLOSURES = {
    "congruence": congruence_gen,
    "tolerance": tolerance_gen,
    "reflexive_admissible": admissible_closure,
}


def ref_enumerate_relations(alg, kind, caps=DEFAULT_CAPS):
    """(relations, exhaustive, join closures) of the worklist enumeration:
    each relation found is joined with each principal relation but the least,
    and the union is closed unless it is a relation found or a union closed
    before."""
    close, n = REF_CLOSURES[kind], alg.size
    principal = {}
    for a in range(n):
        for b in range(n):
            g = close(alg, [(a, b)])
            principal.setdefault(g.mask, g)
    found = {}
    truncated = False
    for g in principal.values():
        found[g.mask] = g
        if len(found) > caps.max_relations:
            truncated = True
            break
    gens = list(found)[1:]
    worklist = list(found.values())
    tried = set()
    while worklist and not truncated:
        cur = worklist.pop()
        for gm in gens:
            um = cur.mask | gm
            if um in found or um in tried:
                continue
            tried.add(um)
            joined = close(alg, BinRel(n, um))
            if joined.mask not in found:
                found[joined.mask] = joined
                worklist.append(joined)
                if len(found) > caps.max_relations:
                    truncated = True
                    break
    return sorted(found.values(), key=pairs_order), not truncated, len(tried)


def counted_join_closures(monkeypatch):
    """The unions the three closures are asked to close, as they are asked
    (single-pair closures, whose seed is a list, are not counted)."""
    joined = []
    for name in ("congruence_gen", "tolerance_gen", "admissible_closure"):
        def counted(alg, seed, _original=getattr(relations, name)):
            if isinstance(seed, BinRel):
                joined.append(seed.mask)
            return _original(alg, seed)
        monkeypatch.setattr(relations, name, counted)
    return joined


def test_join_loop_matches_the_worklist(monkeypatch):
    """The join loop finds the worklist's relations, in the same order and
    with the same flag, and never closes more unions."""
    joined = counted_join_closures(monkeypatch)
    ours = theirs = cases = 0
    for alg in differential_algebras():
        for kind in KINDS:
            want, exhaustive, ref_closures = ref_enumerate_relations(alg, kind)
            joined.clear()
            got = enumerate_relations(alg, kind)
            assert got.relations == want and got.exhaustive == exhaustive, (alg.name, kind)
            assert len(joined) <= ref_closures, (alg.name, kind)
            ours, theirs, cases = ours + len(joined), theirs + ref_closures, cases + 1
    assert (cases, theirs, ours) == (114, 471, 390)


def test_join_loop_closures_on_z2cube(monkeypatch):
    """z2cube has 16 relations of each kind (they are its congruences), 8 of
    them principal; the join loop closes 33 unions for each kind, the
    worklist 49."""
    joined = counted_join_closures(monkeypatch)
    for kind in KINDS:
        alg = resolve("z2cube")
        joined.clear()
        assert len(enumerate_relations(alg, kind)) == 16
        assert len(principal_relations(alg, kind)) == 8
        assert len(joined) == len(set(joined)) == 33
        assert ref_enumerate_relations(alg, kind)[2] == 49


def test_truncated_pools_hold_the_first_views_of_the_join_loop(z2cube):
    """A pool cut by max_relations during the joins holds exactly the first
    max_relations + 1 views that the uncapped loop finds."""
    n = z2cube.size
    principal = [g.mask for g in principal_relations(z2cube, "congruence")]

    def close(m):
        return congruence_gen(z2cube, BinRel(n, m)).mask

    order = list(joins(principal, close)[0])
    assert len(principal) < 11 < len(order)
    capped, truncated = joins(principal, close, bound=10)
    assert truncated and list(capped) == order[:11]
    out = enumerate_relations(z2cube, "congruence", Caps(max_relations=10))
    assert not out.exhaustive
    assert out.relations == sorted((BinRel(n, m) for m in order[:11]), key=pairs_order)

    base = enumerate_relations(z2cube, "reflexive_admissible").relations
    masks = [b.mask for b in base]
    order = list(joins(masks)[0])
    assert len(base) < 101 < len(order)
    capped, truncated = joins(masks, bound=100)
    assert truncated and list(capped) == order[:101]
    full = {u.union_view.mask: u for u in enumerate_u(base, True)}
    out = enumerate_u(base, True, Caps(max_relations=100))
    assert not out.exhaustive
    want = sorted((full[m] for m in order[:101]), key=lambda u: pairs_order(u.union_view))
    assert out.relations == want


def test_kinds_reach_closures_through_module_bindings(monkeypatch, baker4):
    """enumerate_relations and class_member call the closures and membership
    tests bound on the relations module at call time, so a wrapper rebound
    there (as perfbench's tracer rebinds them) sees every call.  A table of
    function objects built at import would bypass it."""
    from relkit.identities import RelClass, class_member
    from relkit.uadmissible import UAdmRel

    calls = {}
    for name in ("congruence_gen", "admissible_closure", "is_congruence", "is_reflexive_admissible"):
        def counted(*args, _original=getattr(relations, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(relations, name, counted)
    congruences = enumerate_relations(baker4, "congruence").relations
    assert set(calls) == {"congruence_gen"} and calls["congruence_gen"] >= len(congruences)
    enumerate_relations(baker4, "reflexive_admissible")
    assert calls["admissible_closure"] >= 16
    assert class_member(baker4, RelClass.Congruence, congruences[1])
    assert class_member(baker4, RelClass.UnionOfTwoCongruences, UAdmRel(congruences[1:3]))
    assert calls["is_congruence"] == 3
    assert class_member(baker4, RelClass.U2Admissible, UAdmRel(congruences[1:3]))
    assert calls["is_reflexive_admissible"] == 2


# ---------------------------------------------------------------------------
# reference closures: the full-image loop the semi-naive closures replaced


def ref_pair_tuple_chunks(left, right, n, r, chunk=1 << 22):
    """Flat table indices for all r-tuples over a pair list, chunked."""
    m = len(left)
    if r == 1 or m**r <= chunk:
        li, ri = left, right
        for _ in range(r - 1):
            li = (li[:, None] * n + left[None, :]).ravel()
            ri = (ri[:, None] * n + right[None, :]).ravel()
        yield li, ri
        return
    scale = n ** (r - 1)
    for j in range(m):
        for sli, sri in ref_pair_tuple_chunks(left, right, n, r - 1, chunk):
            yield left[j] * scale + sli, right[j] * scale + sri


def ref_image_mask(alg, rel):
    """Union of (g(a-row), g(b-row)) over all op tuples of related pairs."""
    n = alg.size
    prs = rel.pairs()
    left = np.array([p[0] for p in prs], dtype=np.intp)
    right = np.array([p[1] for p in prs], dtype=np.intp)
    hit = np.zeros(n * n, dtype=bool)
    for op in alg.ops:
        if op.arity == 0:
            c = op.table[0]
            hit[c * n + c] = True
            continue
        if len(prs) == 0:
            continue
        tab = np.asarray(op.table, dtype=np.intp)
        for li, ri in ref_pair_tuple_chunks(left, right, n, op.arity):
            hit[tab[li] * n + tab[ri]] = True
    mask = 0
    for pos in np.nonzero(hit)[0]:
        mask |= 1 << int(pos)
    return mask


def image_mask(alg, mask, old=0):
    """The OR of _image_mask over every operation of alg, one pair-array
    dict shared by the calls."""
    arrays = {}
    out = 0
    for op in alg.ops:
        out |= _image_mask(op, alg.size, mask, old, arrays)
    return out


def ref_admissible_closure(alg, seed):
    n = alg.size
    mask = seed.mask if isinstance(seed, BinRel) else BinRel.from_pairs(n, seed).mask
    mask |= BinRel.diagonal(n).mask
    while True:
        img = ref_image_mask(alg, BinRel(n, mask))
        if img | mask == mask:
            return BinRel(n, mask)
        mask |= img


def ref_tolerance_gen(alg, seed):
    cur = seed if isinstance(seed, BinRel) else BinRel.from_pairs(alg.size, seed)
    cur = union(cur, BinRel.diagonal(alg.size))
    while True:
        nxt = ref_admissible_closure(alg, symmetric_closure(cur))
        if nxt.mask == cur.mask:
            return cur
        cur = nxt


def ref_congruence_gen(alg, seed):
    cur = seed if isinstance(seed, BinRel) else BinRel.from_pairs(alg.size, seed)
    cur = union(cur, BinRel.diagonal(alg.size))
    while True:
        nxt = ref_admissible_closure(alg, transitive_closure(symmetric_closure(cur)))
        if nxt.mask == cur.mask:
            return cur
        cur = nxt


CLOSURE_PAIRS = (
    (admissible_closure, ref_admissible_closure),
    (tolerance_gen, ref_tolerance_gen),
    (congruence_gen, ref_congruence_gen),
)

# (_SMALL, _DENSE_RATIO, _CHUNK): the defaults; the semi-naive tuple path at
# every size, in chunks of 7 tuples; the dense kernel for every binary op
KERNEL_SETTINGS = {
    "default": {},
    "tuples": {"_SMALL": 0, "_DENSE_RATIO": 0, "_CHUNK": 7},
    "dense": {"_SMALL": 0, "_DENSE_RATIO": 1 << 60},
}


@pytest.fixture(params=list(KERNEL_SETTINGS))
def kernel(request, monkeypatch):
    for name, value in KERNEL_SETTINGS[request.param].items():
        monkeypatch.setattr(relations, name, value)
    return request.param


def random_algebra(rng, size, arities):
    ops = [
        (f"f{i}", r, [rng.randrange(size) for _ in range(size**r)])
        for i, r in enumerate(arities)
    ]
    return FiniteAlgebra(size, ops, name=f"rnd{size}{arities}")


def random_algebras(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randrange(2, 7)
        arities = sorted(rng.choice((0, 1, 2, 2, 3)) for _ in range(rng.randrange(1, 4)))
        out.append(random_algebra(rng, size, arities))
    out.append(random_algebra(rng, 4, (0, 1, 2, 3)))
    return out


def objects(masks, shape=(-1,)):
    """The masks as a numpy object array of the given shape."""
    out = np.empty(len(masks), dtype=object)
    out[:] = masks
    return out.reshape(shape)


def test_mask_kernels_act_elementwise():
    """On object arrays the mask kernels give, cell by cell, Python ints equal
    to their int form; compose_masks broadcasts its operands.  From n = 8 on
    the masks do not fit int64."""
    rng = random.Random(17)
    for n in (*range(1, 10), 27):
        alg = random_algebra(rng, n, (2,))
        masks = [rng.getrandbits(n * n) for _ in range(4)]
        for k in (1, 2, n):  # sparse masks keep ^* and bar below the full relation
            masks.append(BinRel.from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]).mask)
        masks += masks[:3]  # repeats: the per-distinct kernels map them once
        left, right = objects(masks, (-1, 1)), objects(masks[::-1], (1, -1))
        got = compose_masks(left, right, n)
        assert got.shape == (len(masks), len(masks)) and got.dtype == object
        for (i, j), value in np.ndenumerate(got):
            assert type(value) is int and value == compose_masks(left[i, 0], right[0, j], n)
        grid = objects(masks, (2, -1))
        for kernel in (
            lambda m: converse_masks(m, n),
            lambda m: star_masks(m, n),
            lambda m: bar_masks(alg, m),
        ):
            got = kernel(grid)
            assert got.shape == grid.shape and got.dtype == object
            for idx, value in np.ndenumerate(got):
                assert type(value) is int and value == kernel(grid[idx])


def test_mask_kernels_on_uint64_arrays_match_int_kernels():
    """The exhaustive scan binds masks as uint64 arrays when n^2 <= 64.  On
    them every kernel gives its int kernel's value cell by cell and keeps the
    uint64 dtype: compose_masks on 2-D operands broadcast as the scan's axes
    are, and on an int bound against an array, as a prefix variable is.  The
    masks include 0, the full relation and bit n^2 - 1 (bit 63 at n = 8),
    and an overflow warning fails the test."""
    rng = random.Random(15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 9):
            alg = random_algebra(rng, n, (2,))
            top = 1 << (n * n - 1)
            masks = [0, (1 << (n * n)) - 1, top, top | 1]
            masks += [rng.getrandbits(n * n) | top for _ in range(3)]
            for k in (1, 2, n):  # sparse masks keep ^* and bar below the full relation
                masks.append(BinRel.from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]).mask)
            left = np.array(masks, dtype=np.uint64).reshape(-1, 1)
            right = np.array(masks[::-1], dtype=np.uint64).reshape(1, -1)
            got = compose_masks(left, right, n)
            assert got.shape == (len(masks), len(masks)) and got.dtype == np.uint64
            for (i, j), value in np.ndenumerate(got):
                assert int(value) == compose_masks(masks[i], masks[-1 - j], n)
            for m in masks:
                got = compose_masks(m, right, n)
                assert got.dtype == np.uint64
                assert got.ravel().tolist() == [compose_masks(m, o, n) for o in masks[::-1]]
                got = compose_masks(left, m, n)
                assert got.dtype == np.uint64
                assert got.ravel().tolist() == [compose_masks(o, m, n) for o in masks]
            grid = np.array(masks[:8], dtype=np.uint64).reshape(2, -1)
            for kernel in (
                lambda m: converse_masks(m, n),
                lambda m: star_masks(m, n),
                lambda m: bar_masks(alg, m),
            ):
                got = kernel(grid)
                assert got.shape == grid.shape and got.dtype == np.uint64
                for idx, value in np.ndenumerate(got):
                    assert int(value) == kernel(int(grid[idx]))


@functools.lru_cache(maxsize=None)
def free_algebra(name):
    """The 3-generated free algebra F(name, 3)."""
    return clone_as_algebra(generate_clone(resolve(name), 3))


def check_closures_agree(alg, rng, seeds, max_pairs):
    n = alg.size
    for _ in range(seeds):
        seed = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_pairs))]
        for fast, ref in CLOSURE_PAIRS:
            assert fast(alg, seed) == ref(alg, seed), (alg.name, fast.__name__, seed)
        rel = rand_rel(rng, n)
        assert is_admissible(alg, rel) == (ref_image_mask(alg, rel) | rel.mask == rel.mask)
        assert image_mask(alg, rel.mask) == ref_image_mask(alg, rel)


def test_closures_match_reference_on_fixtures(kernel):
    rng = random.Random(41)
    for name in sorted(FIXTURES):
        check_closures_agree(resolve(name), rng, 6, 3)


def test_closures_match_reference_on_random_algebras(kernel):
    rng = random.Random(43)
    for alg in random_algebras(47, 25):
        check_closures_agree(alg, rng, 5, 3)


def test_closures_match_reference_on_free_algebras():
    rng = random.Random(53)
    for name in ("lattice2", "baker4"):  # binary ops; one ternary op
        check_closures_agree(free_algebra(name), rng, 8, 2)


def test_dense_closures_match_reference_on_free_lattice_n5(monkeypatch):
    alg = free_algebra("lattice_n5")
    assert alg.size == 99
    dense_calls = []
    dense = relations._dense_image
    monkeypatch.setattr(
        relations, "_dense_image", lambda *a: dense_calls.append(1) or dense(*a)
    )
    rng = random.Random(59)
    seeds = [[(rng.randrange(99), rng.randrange(99)) for _ in range(k)] for k in (1, 4)]
    seeds.append([(75, 4), (61, 31), (95, 51), (53, 85)])
    for seed in seeds:
        assert admissible_closure(alg, seed) == ref_admissible_closure(alg, seed)
    assert dense_calls, "no seed reached the dense kernel"
    assert tolerance_gen(alg, seeds[0]) == ref_tolerance_gen(alg, seeds[0])
    assert congruence_gen(alg, seeds[0]) == ref_congruence_gen(alg, seeds[0])


def test_dense_and_tuple_kernels_agree(monkeypatch):
    rng = random.Random(61)
    algebras = [random_algebra(rng, size, (2,)) for size in (2, 3, 5, 8, 11)]
    algebras.append(free_algebra("lattice2"))
    for alg in algebras:
        n = alg.size
        rels = [rand_rel(rng, n) for _ in range(6)]
        rels += [BinRel(n, 0), BinRel.diagonal(n), BinRel.full(n)]
        images = {}
        for mode in ("tuples", "dense"):
            with monkeypatch.context() as m:
                for name, value in KERNEL_SETTINGS[mode].items():
                    m.setattr(relations, name, value)
                images[mode] = [image_mask(alg, r.mask) for r in rels]
        assert images["tuples"] == images["dense"], alg.name
        assert images["tuples"] == [ref_image_mask(alg, r) for r in rels]


def test_dense_kernel_on_tables_that_miss_values(monkeypatch):
    """Binary tables that never take some values: a constant operation (its
    value never 0) and operations into {0, 1}.  The dense kernel, forced for
    every relation, gives each value the table misses an empty row and puts
    the others at their own value."""
    rng = random.Random(71)
    dense_calls = []
    dense = relations._dense_image
    monkeypatch.setattr(relations, "_dense_image", lambda *a: dense_calls.append(1) or dense(*a))
    for name, value in KERNEL_SETTINGS["dense"].items():
        monkeypatch.setattr(relations, name, value)
    for size in (5, 7, 11):
        tables = {
            "const": [rng.randrange(1, size)] * size**2,
            "bit": [rng.randrange(2) for _ in range(size**2)],
            "and": [min(a, b, 1) for a in range(size) for b in range(size)],
        }
        for op, table in tables.items():
            alg = FiniteAlgebra(size, [(op, 2, table)], name=f"{op}{size}")
            rels = [rand_rel(rng, size) for _ in range(6)]
            rels += [BinRel.diagonal(size), BinRel.full(size), BinRel.from_pairs(size, [(1, 2)])]
            dense_calls.clear()
            for r in rels:
                assert image_mask(alg, r.mask) == ref_image_mask(alg, r), (alg.name, r)
            assert len(dense_calls) == len(rels), alg.name


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4),
)
def test_tolerance_is_closure_of_symmetric_seed(alg_seed, pairs):
    rng = random.Random(alg_seed)
    alg = random_algebra(rng, 6, sorted(rng.choice((0, 1, 2, 3)) for _ in range(2)))
    seed = BinRel.from_pairs(6, pairs)
    base = symmetric_closure(union(seed, BinRel.diagonal(6)))
    assert tolerance_gen(alg, seed) == admissible_closure(alg, base)


# ---------------------------------------------------------------------------
# the translation kernel of congruence_gen and the turns of _close


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    st.data(),
)
def test_congruence_gen_matches_reference(size, arities, data):
    """Random algebras with nullary to ternary operations, size 1 included,
    seeded with pair lists and with unions of two congruences, the seeds
    the join loop passes."""
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    alg = random_algebra(rng, size, sorted(arities))
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    seed = data.draw(st.lists(pair, max_size=4))
    assert congruence_gen(alg, seed) == ref_congruence_gen(alg, seed)
    first, second = (congruence_gen(alg, data.draw(st.lists(pair, max_size=2))) for _ in range(2))
    joined = union(first, second)
    assert congruence_gen(alg, joined) == ref_congruence_gen(alg, joined)


def test_congruence_gen_needs_no_image_kernel(monkeypatch):
    """Cg runs on the basic translations and a partition alone."""

    def forbidden(*args):
        raise AssertionError("congruence_gen called an image kernel")

    rng = random.Random(73)
    algebras = [resolve(name) for name in sorted(FIXTURES)] + random_algebras(79, 10)
    cases = []
    with monkeypatch.context() as m:
        m.setattr(relations, "_image_mask", forbidden)
        m.setattr(relations, "transitive_closure", forbidden)
        for alg in algebras:
            n = alg.size
            for _ in range(4):
                seed = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
                cases.append((alg, seed, congruence_gen(alg, seed)))
    for alg, seed, cg in cases:
        assert cg == ref_congruence_gen(alg, seed)


def test_closure_reimages_an_operation_after_its_own_additions():
    """f and g feed each other: g maps (0, 1) to (2, 3), which f maps to
    (4, 5), which f maps to (6, 7).  The turn of f that adds (4, 5) must
    not count f as done, or the closure stops once g adds nothing and
    misses (6, 7)."""
    f = [0, 0, 4, 5, 6, 7, 0, 0]
    g = [2, 3, 0, 0, 0, 0, 0, 0]
    alg = FiniteAlgebra(8, [("f", 1, f), ("g", 1, g)])
    closed = BinRel.from_pairs(8, [(0, 1), (2, 3), (4, 5), (6, 7)] + [(a, a) for a in range(8)])
    assert admissible_closure(alg, [(0, 1)]) == closed == ref_admissible_closure(alg, [(0, 1)])
    assert tolerance_gen(alg, [(0, 1)]) == ref_tolerance_gen(alg, [(0, 1)])


@pytest.mark.parametrize("n, r", [(16, 2), (4, 4), (16, 4), (17, 2)])
def test_tuple_kernel_at_index_dtype_bounds(monkeypatch, n, r):
    """n^r is 256 or 65,536: the largest flat tuple index, n^r - 1, is the
    largest value of the uint8 or uint16 index arrays, and at n = 16 the
    flat image index f(a) * 16 + f(b) reaches 255 in a uint8 table copy;
    at n = 17 it outgrows uint8.  Every relation holds pairs at element
    n - 1; the split images must add up to the whole image."""
    for name, value in KERNEL_SETTINGS["tuples"].items():
        monkeypatch.setattr(relations, name, value)
    rng = random.Random(83 + n + r)
    table = [rng.randrange(n) for _ in range(n**r)]
    table[-1] = n - 1
    alg = FiniteAlgebra(n, [("f", r, table)])
    top = n - 1
    pairs = 16 if r == 2 else 6
    for _ in range(3):
        extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs)]
        rel = BinRel.from_pairs(n, [(top, top), (top, 0), (0, top), *extra])
        assert image_mask(alg, rel.mask) == ref_image_mask(alg, rel)
        old = BinRel.from_pairs(n, rel.pairs()[::2])
        split = image_mask(alg, rel.mask, old.mask) | ref_image_mask(alg, old)
        assert split == ref_image_mask(alg, rel)


def _list_cmp(x, y):
    return (x > y) - (x < y)


def test_pairs_order_matches_pair_lists():
    rng = random.Random(67)
    for _ in range(20000):
        n = rng.randrange(1, 7)
        r = rand_rel(rng, n)
        if rng.random() < 0.3:  # a prefix of r: its lowest k pairs
            s = BinRel.from_pairs(n, r.pairs()[: rng.randrange(r.count() + 1)])
        else:
            s = BinRel(n, r.mask ^ (rng.getrandbits(n * n) & rng.getrandbits(n * n)))
        assert _pairs_cmp(r, s) == _list_cmp(r.pairs(), s.pairs()), (n, r, s)
    rels = [rand_rel(rng, 4) for _ in range(300)]
    rels += [BinRel.from_pairs(4, r.pairs()[:k]) for r in rels[:50] for k in range(3)]
    assert sorted(rels, key=pairs_order) == sorted(rels, key=lambda r: r.pairs())
