import itertools
import json
import math
import random

import pytest

from relkit.algebra import (
    App,
    CapExceeded,
    FiniteAlgebra,
    Operation,
    Var,
    automorphisms,
    endomorphisms,
    load_algebra,
    parse_term,
    power,
    product,
)
import relkit.algebra as algebra
from relkit.caps import Caps
from relkit.fixtures import FIXTURES, resolve


def eval_term(alg, t, args):
    """The value of the term t at the argument tuple args, by recursion."""
    if isinstance(t, Var):
        if t.index >= len(args):
            raise ValueError(f"term uses variable {t} beyond args")
        return args[t.index]
    return alg.apply(t.op, tuple(eval_term(alg, a, args) for a in t.args))


def mod3_alg():
    # f(a,b) = (2a + b) mod 3, flat table with the LAST argument fastest
    table = [(2 * a + b) % 3 for a in range(3) for b in range(3)]
    return FiniteAlgebra(3, [("f", 2, tuple(table))], name="mod3")


def test_table_indexing_last_argument_fastest():
    alg = mod3_alg()
    for a in range(3):
        for b in range(3):
            assert alg.apply("f", (a, b)) == (2 * a + b) % 3
    # explicit flat index check: f(2,1) sits at 2*3 + 1
    assert alg.op("f").table[2 * 3 + 1] == alg.apply("f", (2, 1))


def test_ternary_indexing():
    table = [a for a in range(2) for b in range(2) for c in range(2)]
    # that table is the first projection; index = ((a)*2 + b)*2 + c
    alg = FiniteAlgebra(2, [("p", 3, tuple(table))])
    for a, b, c in itertools.product(range(2), repeat=3):
        assert alg.apply("p", (a, b, c)) == a


def test_validation_errors():
    with pytest.raises(ValueError):
        FiniteAlgebra(0, [])
    with pytest.raises(ValueError):
        FiniteAlgebra(2, [("f", 2, (0, 0, 0))])  # wrong length
    with pytest.raises(ValueError):
        FiniteAlgebra(2, [("f", 1, (0, 2))])  # entry out of range
    with pytest.raises(ValueError):
        FiniteAlgebra(2, [("f", 1, (0, 1)), ("f", 1, (1, 0))])  # duplicate name
    with pytest.raises(KeyError):
        mod3_alg().op("g")
    with pytest.raises(ValueError):
        mod3_alg().apply("f", (0,))


def test_product_encoding(lattice2):
    sq = product(lattice2, lattice2)
    assert sq.size == 4
    # pair (x,y) encoded as x*|B|+y; join acts coordinatewise
    for x1, y1, x2, y2 in itertools.product(range(2), repeat=4):
        a = x1 * 2 + y1
        b = x2 * 2 + y2
        j = sq.apply("join", (a, b))
        assert j == (x1 | x2) * 2 + (y1 | y2)
        m = sq.apply("meet", (a, b))
        assert m == (x1 & x2) * 2 + (y1 & y2)


def test_power_matches_iterated_product(z2):
    cube = power(z2, 3)
    assert cube.size == 8
    for a, b in itertools.product(range(8), repeat=2):
        expected = ((a ^ b) & 4) | ((a ^ b) & 2) | ((a ^ b) & 1)
        assert cube.apply("add", (a, b)) == a ^ b == expected


def test_product_signature_mismatch(lattice2, z2):
    with pytest.raises(ValueError):
        product(lattice2, z2)


def test_caps_respected(z2):
    small = Caps(max_universe=4)
    with pytest.raises(CapExceeded):
        power(z2, 3, caps=small)
    with pytest.raises(CapExceeded):
        product(power(z2, 2), z2, caps=small)


def test_fingerprint_shape_and_stability(lattice2):
    fp = lattice2.fingerprint()
    size, digest = fp.split(":")
    assert size == "2" and len(digest) == 16
    assert fp == lattice2.fingerprint()
    other = FiniteAlgebra(2, lattice2.ops)  # same tables, no name
    assert other.fingerprint() == fp
    assert power(lattice2, 2).fingerprint() != fp


def save_algebra(alg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(alg.to_json(), fh, indent=1)
        fh.write("\n")


def test_json_roundtrip(tmp_path, baker4):
    data = baker4.to_json()
    clone = FiniteAlgebra.from_json(json.loads(json.dumps(data)))
    assert clone == baker4
    path = tmp_path / "baker4.json"
    save_algebra(baker4, str(path))
    assert load_algebra(str(path)) == baker4


def test_term_eval_and_parse(lattice2):
    t = parse_term("join(meet(x,y),z)")
    assert t == App("join", (App("meet", (Var(0), Var(1))), Var(2)))
    assert str(t) == "join(meet(x,y),z)"
    assert parse_term(str(t)) == t
    for a, b, c in itertools.product(range(2), repeat=3):
        assert eval_term(lattice2, t, (a, b, c)) == (a & b) | c


def test_parse_term_reads_nullary_application():
    t = App("meet", (App("c", ()), Var(0)))
    assert str(t) == "meet(c(),x)"
    assert parse_term(str(t)) == t
    assert parse_term("meet(c,x)") == t


def test_parse_term_errors():
    for bad in ("join(x", "join x,y)", "", "join(x,)", "c(", "c(,x)"):
        with pytest.raises(ValueError):
            parse_term(bad)


# --- automorphisms -----------------------------------------------------------


def brute_force_automorphisms(alg):
    """Every permutation of the universe that commutes with every operation
    (for a nullary operation: fixes its constant), in lexicographic order."""
    cells = [
        {t: alg.apply(op.name, t) for t in itertools.product(range(alg.size), repeat=op.arity)}
        for op in alg.ops
    ]
    return [
        perm
        for perm in itertools.permutations(range(alg.size))
        if all(
            table[tuple(perm[a] for a in t)] == perm[v] for table in cells for t, v in table.items()
        )
    ]


def random_operation(rng, n, r, perm):
    """A random r-ary table; with probability 3/4 one that commutes with perm
    (each orbit of argument tuples gets a value that perm^k fixes, k the
    orbit length), when such a value exists."""
    table = {}
    for t in itertools.product(range(n), repeat=r):
        if t in table:
            continue
        orbit = [t]
        while (nxt := tuple(perm[a] for a in orbit[-1])) != t:
            orbit.append(nxt)
        fixed = [v for v in range(n) if _iterate(perm, v, len(orbit)) == v]
        v = rng.choice(fixed or range(n))
        for u in orbit:
            table[u] = v
            v = perm[v]
    if rng.random() < 0.75:
        return [table[t] for t in sorted(table)]
    return [rng.randrange(n) for _ in range(n**r)]


def _iterate(perm, v, k):
    for _ in range(k):
        v = perm[v]
    return v


def test_automorphisms_match_brute_force():
    rng = random.Random(3)
    seen = set()
    for _ in range(60):
        n = rng.randint(2, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        arities = [rng.choice((0, 1, 2, 2, 3) if n <= 4 else (0, 1, 2, 2)) for _ in range(rng.randint(1, 3))]
        alg = FiniteAlgebra(n, [(f"f{j}", r, random_operation(rng, n, r, perm)) for j, r in enumerate(arities)])
        got = automorphisms(alg)
        assert got == brute_force_automorphisms(alg), alg.to_json()
        seen.add(len(got))
    assert len(seen) >= 6  # the sample has groups of several sizes


def test_automorphisms_fix_constants():
    first = tuple(a for a in range(3) for _ in range(3))
    alg = FiniteAlgebra(3, [("c", 0, (0,)), ("p", 2, first)])
    assert automorphisms(alg) == [(0, 1, 2), (0, 2, 1)]
    assert len(automorphisms(FiniteAlgebra(3, [("p", 2, first)]))) == 6


def test_automorphisms_search_budget_covers_small_universes():
    # with no operation every permutation is an automorphism: the last step
    # keeps all n! maps, which the budget allows for n <= 7
    for n in range(1, 8):
        assert len(automorphisms(FiniteAlgebra(n, []))) == math.factorial(n)


def test_automorphisms_of_free_algebras():
    """The budget leaves the principal strategy the whole group of F(A,3) on
    every fixture: the generator permutations (S3), and GL(3,2) for the
    groups z2 and z2^3."""
    from relkit.freeclone import clone_as_algebra, generate_clone

    orders = {"lattice2": 6, "lattice_n5": 6, "lattice_2x2": 6, "baker4": 6, "z2": 168, "z2cube": 168}
    for name, order in orders.items():
        assert len(automorphisms(clone_as_algebra(generate_clone(resolve(name), 3)))) == order, name


@pytest.mark.parametrize(
    "n, op",
    [(30, ("f", 2, [a for a in range(30) for _ in range(30)])), (1000, ("u", 1, list(range(1000))))],
    ids=["projection30", "identity1000"],
)
def test_automorphisms_of_symmetric_algebras_stay_few(n, op):
    """With f(x,y) = x, or with the identity as the only operation, every
    permutation is an automorphism; the budget cuts the search to a few
    hundred of them, the identity first, and on 1,000 elements the search
    needs no recursion deeper than the interpreter allows."""
    got = automorphisms(FiniteAlgebra(n, [op]))
    assert 1 < len(got) < 1000
    assert got[0] == tuple(range(n)) and got == sorted(set(got))
    assert all(sorted(g) == list(range(n)) for g in got)


# --- endomorphisms -----------------------------------------------------------


def brute_force_endomorphisms(alg):
    """Every map of the universe into itself that commutes with every
    operation (for a nullary operation: fixes its constant), in
    lexicographic order."""
    cells = [
        {t: alg.apply(op.name, t) for t in itertools.product(range(alg.size), repeat=op.arity)}
        for op in alg.ops
    ]
    return [
        h
        for h in itertools.product(range(alg.size), repeat=alg.size)
        if all(table[tuple(h[a] for a in t)] == h[v] for table in cells for t, v in table.items())
    ]


def retraction_operation(rng, n, r, h):
    """A random r-ary table that commutes with the idempotent map h: values
    in h's image on tuples over it, and on any other tuple t a value that h
    sends to the value at h(t)."""
    image = sorted(set(h))
    table = {t: rng.choice(image) for t in itertools.product(image, repeat=r)}
    for t in itertools.product(range(n), repeat=r):
        if t not in table:
            target = table[tuple(h[a] for a in t)]
            table[t] = rng.choice([v for v in range(n) if h[v] == target])
    return [table[t] for t in sorted(table)]


def endomorphism_cases():
    """The fixtures with at most 5 elements and 21 random algebras with at
    most 4 elements and operations of arity 0-3: plain random ones, ones
    that commute with a permutation, and ones that commute with an
    idempotent map (so with a non-injective endomorphism)."""
    algebras = [resolve(name) for name in FIXTURES if resolve(name).size <= 5]
    rng = random.Random(11)
    for i in range(21):
        n = rng.randint(1, 4)
        arities = [rng.choice((0, 1, 2, 2, 3)) for _ in range(rng.randint(1, 3))]
        if i % 3 == 0:
            ops = [[rng.randrange(n) for _ in range(n**r)] for r in arities]
        elif i % 3 == 1:
            perm = rng.sample(range(n), n)
            ops = [random_operation(rng, n, r, perm) for r in arities]
        else:
            image = rng.sample(range(n), rng.randint(1, n))
            h = [a if a in image else rng.choice(image) for a in range(n)]
            ops = [retraction_operation(rng, n, r, h) for r in arities]
        ops = [(f"f{j}", r, table) for j, (r, table) in enumerate(zip(arities, ops))]
        algebras.append(FiniteAlgebra(n, ops, name=f"end{i}"))
    return algebras


def test_endomorphisms_match_brute_force():
    seen = set()
    for alg in endomorphism_cases():
        got = endomorphisms(alg)
        assert got == brute_force_endomorphisms(alg), alg.to_json()
        seen.add(len(got))
    assert len(seen) >= 6  # monoids of several sizes


def test_endomorphisms_fix_constants():
    # every map commutes with a projection; the constant 1 must stay put
    first = tuple(a for a in range(3) for _ in range(3))
    alg = FiniteAlgebra(3, [("c", 0, (1,)), ("p", 2, first)])
    assert endomorphisms(alg) == [h for h in itertools.product(range(3), repeat=3) if h[1] == 1]


@pytest.mark.parametrize("work", [1, 40, 400])
def test_truncated_endomorphism_search_is_sound(monkeypatch, work):
    """The homomorphism search cut by its budget returns automorphisms or
    endomorphisms only, distinct and in lexicographic order, always with
    the identity."""
    monkeypatch.setattr(algebra, "_HOM_WORK", work)
    for search, brute_force in (
        (automorphisms, brute_force_automorphisms),
        (endomorphisms, brute_force_endomorphisms),
    ):
        truncated = 0
        for alg in endomorphism_cases():
            got = search(alg)
            every = brute_force(alg)
            assert set(got) <= set(every) and tuple(range(alg.size)) in got, alg.to_json()
            assert got == sorted(set(got))
            truncated += got != every
        assert truncated, search.__name__  # the budget binds on some case
