"""The table layout helpers and everything built on them, each compared with
the hand-indexed code it replaced, kept here as the reference."""

import functools
import itertools
import random

import numpy as np
import pytest

from relkit.algebra import (
    CapExceeded,
    FiniteAlgebra,
    Operation,
    Var,
    _index_dtype,
    apply_table,
    parse_term,
    pattern_cells,
    product,
)
from relkit.caps import DEFAULT_CAPS
from relkit.fixtures import FIXTURES, resolve
from relkit.freeclone import (
    clone_as_algebra,
    generate_clone,
    identity_holds,
    slot_identifications,
    table_of_term,
)
from relkit.maltsev import _LADDERS, _MAL_SIDE, _MIDDLE, _SINGLE, _satisfies

PATTERNS = ("aab", "aba", "abb", "abc", "aaa")


# ---------------------------------------------------------------------------
# reference code: flat indices written out by hand


def term_arity(t):
    """1 + the largest variable index used."""
    if isinstance(t, Var):
        return t.index + 1
    return max((term_arity(a) for a in t.args), default=0)


def ref_product(a, b, caps=DEFAULT_CAPS):
    n = a.size * b.size
    if n > caps.max_universe:
        raise CapExceeded("universe")
    ops = []
    for opa in a.ops:
        opb = b.op(opa.name)
        r = opa.arity
        cells = n**r
        table = [0] * cells
        for idx in range(cells):
            rest = idx
            ia = 0
            ib = 0
            for shift in range(r - 1, -1, -1):
                arg = (rest // (n**shift)) % n
                ia = ia * a.size + arg // b.size
                ib = ib * b.size + arg % b.size
            table[idx] = opa.table[ia] * b.size + opb.table[ib]
        ops.append(Operation(opa.name, r, table))
    return FiniteAlgebra(n, ops)


def ref_apply_table(table, n, args):
    """The flat index in intp, whatever n^r is."""
    flat = None
    for a in args:
        if flat is None:
            flat = np.array(a, dtype=np.intp)
        else:
            flat *= n
            flat += a
    return table[0] if flat is None else table[flat]


def ref_index(tm):
    """Full table bytes -> row of a clone matrix."""
    return {row.tobytes(): i for i, row in enumerate(tm)}


def ref_clone_as_algebra(clone):
    m = len(clone)
    n = clone.algebra.size
    tm = clone.matrix()
    index = ref_index(tm)
    ops = []
    for op in clone.algebra.ops:
        r = op.arity
        if r == 0:
            tab = np.full(n**clone.arity, op.table[0], dtype=tm.dtype)
            ops.append(Operation(op.name, 0, (index.get(tab.tobytes()),)))
            continue
        otab = np.asarray(op.table, dtype=tm.dtype)
        table = []
        for combo in itertools.product(range(m), repeat=r):
            flat = tm[combo[0]].astype(np.intp, copy=True)
            for col in range(1, r):
                flat *= n
                flat += tm[combo[col]]
            target = index.get(otab[flat].tobytes())
            if target is None:
                raise CapExceeded("not closed")
            table.append(target)
        ops.append(Operation(op.name, r, tuple(table)))
    return FiniteAlgebra(m, ops)


def ref_table_of_term(alg, t, k):
    n = alg.size
    dtype = np.min_scalar_type(n - 1)
    grid = np.indices((n,) * k, dtype=dtype)
    projs = [grid[j].reshape(-1) for j in range(k)]
    return _ref_rec(alg, t, n, k, projs, dtype)


def _ref_rec(alg, t, n, k, projs, dtype):
    if isinstance(t, Var):
        return projs[t.index]
    otab = np.asarray(alg.op(t.op).table, dtype=dtype)
    if not t.args:
        return np.full(n**k, otab[0], dtype=dtype)
    flat = _ref_rec(alg, t.args[0], n, k, projs, dtype).astype(np.intp, copy=True)
    for a in t.args[1:]:
        flat *= n
        flat += _ref_rec(alg, a, n, k, projs, dtype)
    return otab[flat]


def ref_identity_holds(alg, lhs, rhs, pattern):
    k = len(pattern)
    n = alg.size
    lt = ref_table_of_term(alg, lhs, k)
    rt = ref_table_of_term(alg, rhs, k)
    grid = np.indices((n,) * k).reshape(k, -1)
    ok = np.ones(n**k, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if pattern[i] == pattern[j]:
                ok &= grid[i] == grid[j]
    return bool(np.array_equal(lt[ok], rt[ok]))


def ref_restrict_table(table, n, k, slot):
    grid = np.indices((n,) * (k - 1)).reshape(k - 1, -1)
    flat = grid[0].astype(np.intp, copy=True)
    for j in range(1, k - 1):
        flat *= n
        flat += grid[j]
    flat *= n
    flat += grid[slot]
    return np.ascontiguousarray(np.asarray(table)[flat])


def ref_slot_identifications(clone4, clone3):
    n = clone4.algebra.size
    index = ref_index(clone3.matrix())
    return [
        tuple(index.get(ref_restrict_table(e.table, n, 4, slot).tobytes()) for slot in range(3))
        for e in clone4.elements
    ]


def _flat(n, *coords):
    idx = coords[0]
    for c in coords[1:]:
        idx = idx * n + c
    return idx


def _pair_grid(n):
    a, b = np.indices((n, n))
    return a.reshape(-1), b.reshape(-1)


def ref_majority_filter(tm, n):
    a, b = _pair_grid(n)
    return (
        np.all(tm[:, _flat(n, a, a, b)] == a, axis=1)
        & np.all(tm[:, _flat(n, a, b, a)] == a, axis=1)
        & np.all(tm[:, _flat(n, b, a, a)] == a, axis=1)
    )


def ref_pixley_filter(tm, n):
    a, b = _pair_grid(n)
    return (
        np.all(tm[:, _flat(n, a, b, b)] == a, axis=1)
        & np.all(tm[:, _flat(n, a, b, a)] == a, axis=1)
        & np.all(tm[:, _flat(n, a, a, b)] == b, axis=1)
    )


def ref_middle_keys(tm, n):
    """The Jonsson filters: j(a,b,a) = a, and the (a,a,c), (a,c,c) keys."""
    a, b = _pair_grid(n)
    return (
        np.all(tm[:, _flat(n, a, b, a)] == a, axis=1),
        tm[:, _flat(n, a, a, b)],
        tm[:, _flat(n, a, b, b)],
    )


def ref_mal_side(tm4, n):
    """The MalF side conditions u(a,b,a,b) = a and u(a,b,a,c) = a."""
    a, b = _pair_grid(n)
    g = np.indices((n, n, n)).reshape(3, -1)
    return {
        1: np.all(tm4[:, _flat(n, a, b, a, b)] == a, axis=1),
        2: np.all(tm4[:, _flat(n, g[0], g[1], g[0], g[2])] == g[0], axis=1),
    }


# ---------------------------------------------------------------------------
# inputs


def random_algebra(rng, size, arities):
    ops = [
        (f"f{i}", r, [rng.randrange(size) for _ in range(size**r)])
        for i, r in enumerate(arities)
    ]
    return FiniteAlgebra(size, ops, name=f"rnd{size}{arities}")


def random_algebras(seed, count, sizes=(2, 3, 4), arities=(0, 1, 2, 2, 3)):
    """The first has one operation of each of the arities, of the first size."""
    rng = random.Random(seed)
    out = [random_algebra(rng, sizes[0], tuple(sorted(set(arities))))]
    for _ in range(count):
        chosen = sorted(rng.choice(arities) for _ in range(rng.randrange(1, 4)))
        out.append(random_algebra(rng, rng.choice(sizes), tuple(chosen)))
    return out


@functools.lru_cache(maxsize=None)
def clone(name, k, cap=None):
    return generate_clone(resolve(name), k, cap=cap)


@functools.lru_cache(maxsize=None)
def free_n5():
    """F(lattice_n5, 3), 99 elements."""
    return clone_as_algebra(clone("lattice_n5", 3))


def free_n5_terms(count):
    """Witnesses of lattice_n5's first ternary clone elements, x, y, z first:
    terms to evaluate on F(lattice_n5,3), whose ternary tables have 99^3 cells."""
    return [e.witness for e in clone("lattice_n5", 3).elements[:count]]


# ---------------------------------------------------------------------------
# the helpers themselves


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_apply_table_and_pattern_cells_against_enumeration(n):
    rng = random.Random(n)
    for r in range(4):
        table = np.array([rng.randrange(7) for _ in range(n**r)])
        # itertools.product lists the tuples in table order, last argument fastest
        tuples = list(itertools.product(range(n), repeat=r))
        args = [np.array([t[i] for t in tuples], dtype=np.uint8) for i in range(r)]
        got = apply_table(table, n, args)
        assert np.reshape(got, len(tuples)).tolist() == table.tolist()
    for pattern in ("a", "ab", "aa", "aab", "aba", "abb", "abc", "abca", "abac", "baab"):
        letters = list(dict.fromkeys(pattern))
        values = itertools.product(range(n), repeat=len(letters))  # lexicographic
        full = list(itertools.product(range(n), repeat=len(pattern)))
        want = [full.index(tuple(v[letters.index(c)] for c in pattern)) for v in values]
        assert pattern_cells(n, pattern).tolist() == want, pattern


@pytest.mark.parametrize(
    "n, r",
    [(2, 8), (4, 4), (16, 2), (256, 1), (257, 1), (2, 9), (3, 6), (1, 0), (1, 1), (1, 3), (5, 0)],
)
def test_apply_table_narrow_index_matches_intp(n, r):
    """n^r = 256 fills the uint8 index, 257 needs uint16; every argument
    dtype and shape a caller passes, the all-(n-1) tuple included.  The
    narrowest table up to 256 cells takes the bytes.translate gather; a
    larger one and the intp table of Operation.array() go through take."""
    rng = np.random.default_rng(n * 10 + r)
    values = rng.integers(0, max(n, 2), size=n**r)
    for table in (values.astype(np.min_scalar_type(max(n, 2) - 1)), Operation("f", r, values).array()):
        before = table.copy()
        for shape in [(), (1,), (7,), (3, 5)]:
            for dtype in (np.uint8, np.uint16, np.intp):
                if n - 1 > np.iinfo(dtype).max:
                    continue
                args = [rng.integers(0, n, size=shape).astype(dtype) for _ in range(r)]
                for a in args:
                    a.reshape(-1)[-1:] = n - 1
                want = ref_apply_table(table, n, args)
                got = apply_table(table, n, iter(args))
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (shape, dtype)
                assert np.asarray(got).dtype == table.dtype
                if isinstance(got, np.ndarray):  # take gives a scalar for a 0-d index
                    got[...] = 0  # writable, and no view of the table
                    assert np.array_equal(table, before)
        # scalars as FiniteAlgebra.apply passes them
        last = (n - 1,) * r
        assert int(apply_table(table, n, last)) == int(ref_apply_table(table, n, last))


def test_index_dtype_is_narrowest():
    assert [_index_dtype(c) for c in (1, 256, 257, 1 << 16, (1 << 16) + 1)] == [
        np.uint8, np.uint8, np.uint16, np.uint16, np.uint32
    ]
    assert _index_dtype((1 << 32) + 1) == np.uint64


# ---------------------------------------------------------------------------
# differential tests against the reference code


def _product_pairs():
    fx = {name: resolve(name) for name in FIXTURES}
    pairs = [
        (fx["lattice2"], fx["lattice_n5"]),
        (fx["lattice_n5"], fx["lattice_2x2"]),
        (fx["baker4"], fx["baker4"]),
        (fx["z2cube"], fx["z2"]),
        (fx["z2"], fx["z2cube"]),
        (free_n5(), fx["lattice2"]),
    ]
    rng = random.Random(71)
    for alg in random_algebras(73, 12):
        arities = tuple(op.arity for op in alg.ops)
        other = random_algebra(rng, rng.randrange(1, 4), arities)
        pairs.append((alg, other))
        pairs.append((other, alg))
    return pairs


def test_product_matches_reference():
    for a, b in _product_pairs():
        assert product(a, b) == ref_product(a, b), (a, b)


def test_clone_as_algebra_matches_reference():
    clones = [clone(name, 3) for name in FIXTURES]  # lattice_n5's gives F(lattice_n5,3)
    clones += [clone("lattice2", 4), clone("lattice_2x2", 4), clone("baker4", 4)]
    for i, alg in enumerate(random_algebras(79, 16, sizes=(2,))):
        clones.append(generate_clone(alg, 1 + i % 2))
    for alg in random_algebras(83, 8, sizes=(3,)):
        clones.append(generate_clone(alg, 1))
    for c in clones:
        assert c.complete
        assert clone_as_algebra(c) == ref_clone_as_algebra(c), c.algebra


def test_clone_as_algebra_chunks(monkeypatch):
    import relkit.freeclone as freeclone

    c = clone("lattice2", 4)
    want = clone_as_algebra(c)
    monkeypatch.setattr(freeclone, "_CHUNK", 7)
    assert clone_as_algebra(c) == want
    capped = generate_clone(resolve("lattice2"), 3, cap=17)
    capped.complete = True  # a clone that is not closed under the operations
    with pytest.raises(CapExceeded):
        clone_as_algebra(capped)


def _slot_cases():
    cases = [(clone(name, 4), clone(name, 3)) for name in FIXTURES if name != "lattice_n5"]
    # the 4-ary clone of lattice_n5 is too large to close; its first
    # elements still restrict into the closed 3-ary clone
    cases.append((clone("lattice_n5", 4, cap=3000), clone("lattice_n5", 3)))
    # a ternary operation on two elements can make the 3-ary clone too large
    for alg in random_algebras(89, 10, sizes=(2,), arities=(0, 1, 2, 2)):
        cases.append((generate_clone(alg, 4, cap=200), generate_clone(alg, 3)))
    return cases


def test_slot_identifications_match_reference():
    for c4, c3 in _slot_cases():
        assert c3.complete
        n = c4.algebra.size
        assert slot_identifications(c4, c3) == ref_slot_identifications(c4, c3)
        for e in c4.elements[:50]:
            for slot in range(3):
                got = np.asarray(e.table)[pattern_cells(n, [0, 1, 2, slot])]
                assert np.array_equal(got, ref_restrict_table(e.table, n, 4, slot))


def _identity_cases():
    """(algebra, terms of arity 3) pairs; the first three terms are x, y, z."""
    cases = [(resolve(name), [e.witness for e in clone(name, 3).elements]) for name in FIXTURES]
    cases.append((free_n5(), free_n5_terms(6)))
    for alg in random_algebras(97, 12):
        cases.append((alg, [e.witness for e in generate_clone(alg, 3, cap=30).elements]))
    return cases


def test_identity_holds_matches_reference():
    for alg, terms in _identity_cases():
        for t in terms:
            # four arguments only on small algebras: 99^4 cells on F(lattice_n5,3)
            for pattern in PATTERNS + ("ab", "aa") + (("abca",) if alg.size <= 5 else ()):
                k = len(pattern)
                for rhs in (Var(0), Var(k - 1), terms[min(5, len(terms) - 1)]):
                    if max(term_arity(t), term_arity(rhs)) > k:
                        continue
                    want = ref_identity_holds(alg, t, rhs, pattern)
                    assert identity_holds(alg, t, rhs, pattern) == want, (alg, t, pattern)


def test_conditions_agree_with_identity_holds():
    """A condition (pattern, j) on the clone matrix is the equation
    term = projection j on pattern: clone element j is projection j."""
    for name in FIXTURES:
        alg, c = resolve(name), clone(name, 3)
        for pattern in PATTERNS:
            for j in range(3):
                ok = _satisfies(c, [(pattern, j)])
                want = [identity_holds(alg, e.witness, Var(j), pattern) for e in c.elements]
                assert ok.tolist() == want, (name, pattern, j)


def _filter_cases():
    """3-ary clones, whose elements 0-2 are the projections."""
    cases = [clone(name, 3) for name in FIXTURES]
    # on F(lattice_n5,3), whose ternary tables have 99^3 cells
    n5 = generate_clone(free_n5(), 3, cap=8)
    assert [n5.witness(i) for i in range(8)] == free_n5_terms(8)
    cases.append(n5)
    for alg in random_algebras(101, 16):
        cases.append(generate_clone(alg, 3, cap=60))
    return cases


def test_finder_filters_match_reference():
    for c in _filter_cases():
        tm, n = c.matrix(), c.algebra.size
        assert np.array_equal(_satisfies(c, _SINGLE["Majority"][1]), ref_majority_filter(tm, n))
        assert np.array_equal(_satisfies(c, _SINGLE["Pixley"][1]), ref_pixley_filter(tm, n))
        mid_ok, aac, acc = ref_middle_keys(tm, n)
        assert np.array_equal(_satisfies(c, [_MIDDLE]), mid_ok)
        for _, links in _LADDERS.values():
            for link in links:
                for pattern in link:
                    want = {"aac": aac, "acc": acc}[pattern]
                    assert np.array_equal(c.values(pattern_cells(n, pattern)), want)


def test_mal_side_filters_match_reference():
    cases = [clone(name, 4) for name in FIXTURES if name != "lattice_n5"]
    cases.append(clone("lattice_n5", 4, cap=3000))
    for alg in random_algebras(103, 10, sizes=(2, 3)):
        cases.append(generate_clone(alg, 4, cap=60))
    for c4 in cases:
        want = ref_mal_side(c4.matrix(), c4.algebra.size)
        for v, cond in _MAL_SIDE.items():
            assert np.array_equal(_satisfies(c4, [cond]), want[v])


def test_table_of_term_rejects_arity_mismatch(lattice2):
    meet_x, meet_y = parse_term("meet(x)"), parse_term("meet(y)")
    with pytest.raises(ValueError, match="arity"):
        table_of_term(lattice2, meet_x, 3)
    with pytest.raises(ValueError, match="arity"):
        identity_holds(lattice2, meet_x, meet_y, "abc")
    assert ref_identity_holds(lattice2, meet_x, meet_y, "abc")  # the old misreading
