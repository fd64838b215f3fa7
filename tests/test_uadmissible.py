import itertools
import random

import pytest

import relkit.uadmissible as uadmissible
from relkit.algebra import FiniteAlgebra, power
from relkit.caps import DEFAULT_CAPS, Caps
from relkit.fixtures import FIXTURES, resolve
from relkit.identities import RelClass, candidate_pool
from relkit.relations import (
    BinRel,
    admissible_closure,
    compose,
    congruence_gen,
    converse,
    enumerate_relations,
    intersect,
    is_congruence,
    joins,
    pair_closure,
    transitive_closure,
    union,
)
from relkit.uadmissible import (
    UAdmRel,
    bar_u,
    enumerate_u,
    from_components,
    is_u_admissible,
    pair_families,
    principal_decomposition,
    transitive_closure_u,
)


def from_congruences(alg, beta, gamma):
    """The two-component family of the congruences beta and gamma."""
    for r in (beta, gamma):
        if not is_congruence(alg, r):
            raise ValueError(f"not a congruence: {r!r}")
    return UAdmRel([beta, gamma])


def eta_union(alg):
    # kernels of the two projections of the square
    eta1 = congruence_gen(alg, [(0, 1), (2, 3)])
    eta2 = congruence_gen(alg, [(0, 2), (1, 3)])
    return from_congruences(alg, eta1, eta2)


def test_majority_vs_composition_square(lattice_2x2):
    sigma = eta_union(lattice_2x2)
    assert sigma.union_view.count() == 12
    square = compose(sigma.union_view, sigma.union_view)
    assert square.count() == 16
    assert square == BinRel.full(4)
    assert sigma.union_view != square


def test_canonical_components_drop_dominated(z2cube):
    full = BinRel.full(8)
    small = congruence_gen(z2cube, [(0, 1)])
    fam = UAdmRel([small, full, small])
    assert fam.components == (full,)
    # same union from different presentations compares equal
    assert fam == UAdmRel([full])
    assert hash(fam) == hash(UAdmRel([full]))


def test_component_order_canonical(z2cube):
    a = congruence_gen(z2cube, [(0, 1)])
    b = congruence_gen(z2cube, [(0, 2)])
    assert UAdmRel([a, b]).components == UAdmRel([b, a]).components


def test_from_components_validates(lattice2):
    not_adm = BinRel.from_pairs(2, [(0, 0), (1, 1), (1, 0)])
    # (1,0) closed under join fails: join((1,0),(1,0)) fine but join with itself...
    if not_adm.mask != admissible_closure(lattice2, not_adm).mask:
        with pytest.raises(ValueError):
            from_components(lattice2, [not_adm])
    irrefl = BinRel.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        from_components(lattice2, [irrefl])
    with pytest.raises(ValueError):
        from_components(lattice2, [])


def test_union_view_is_homomorphism(z2cube):
    congs = enumerate_relations(z2cube, "congruence").relations
    rng = random.Random(19)
    fams = []
    for _ in range(12):
        comps = rng.sample(congs, rng.randrange(1, 4))
        fams.append(UAdmRel(comps))
    from relkit.uadmissible import compose_u, converse_u, intersect_u, union_u

    for s, t in itertools.product(fams[:6], fams[6:]):
        assert compose_u(s, t).union_view == compose(s.union_view, t.union_view)
        assert union_u(s, t).union_view == union(s.union_view, t.union_view)
        assert converse_u(s).union_view == converse(s.union_view)
        # intersection of unions distributes over the component pairs
        assert intersect_u(s, t).union_view == intersect(s.union_view, t.union_view)


def test_transitive_closure_u(z2cube):
    sigma = eta_union(lattice_square())
    clo = transitive_closure_u(sigma)
    assert clo.union_view == transitive_closure(sigma.union_view)


def lattice_square():
    return resolve("lattice_2x2")


def test_bar_closure(lattice_2x2):
    sigma = eta_union(lattice_2x2)
    barred = bar_u(lattice_2x2, sigma)
    assert barred.union_view == admissible_closure(lattice_2x2, sigma.union_view)
    assert len(barred.components) == 1


def test_principal_decomposition_roundtrip(z2cube):
    beta = congruence_gen(z2cube, [(0, 1)])
    gamma = congruence_gen(z2cube, [(0, 2)])
    sigma = from_congruences(z2cube, beta, gamma)
    u = sigma.union_view
    assert is_u_admissible(z2cube, u)
    dec = principal_decomposition(z2cube, u)
    assert dec.union_view == u


def test_non_u_admissible_detected(lattice2):
    # a relation missing the diagonal cannot be a union of reflexive ones
    r = BinRel.from_pairs(2, [(0, 0), (0, 1)])
    assert not is_u_admissible(lattice2, r)
    with pytest.raises(ValueError):
        principal_decomposition(lattice2, r)


def brute_families(alg, base, max_size):
    """Oracle: all unions of subsets of the base relations, deduplicated."""
    seen = {}
    for size in range(1, max_size + 1):
        for comps in itertools.combinations(base, size):
            fam = UAdmRel(comps)
            seen.setdefault(fam.union_view.mask, fam)
    return seen


def test_enumerate_u_lattice2(lattice2):
    base = enumerate_relations(lattice2, "reflexive_admissible")
    out = enumerate_u(base.relations, base.exhaustive)
    assert out.exhaustive
    # oracle: subsets of any size (the base only has 4 members)
    oracle = brute_families(lattice2, base.relations, len(base.relations))
    assert {f.union_view.mask for f in out.relations} == set(oracle)
    assert len(out.relations) == 4


def test_enumerate_u_stability_beyond_cutoff(lattice_n5):
    base = enumerate_relations(lattice_n5, "reflexive_admissible")
    assert len(base.relations) == 25
    out = enumerate_u(base.relations, base.exhaustive)
    assert out.exhaustive
    assert len(out.relations) == 58
    # every union of four base relations is already in the pool
    oracle = brute_families(lattice_n5, base.relations, 4)
    assert {f.union_view.mask for f in out.relations} == set(oracle)


def test_enumerate_u_truncated_base(lattice2):
    base = enumerate_relations(lattice2, "reflexive_admissible")
    out = enumerate_u(base.relations, False)
    assert not out.exhaustive


def test_pair_families_are_two_block(z2cube):
    congs = enumerate_relations(z2cube, "congruence")
    fams = pair_families(congs.relations, congs.exhaustive)
    oracle = brute_families(z2cube, congs.relations, 2)
    assert {f.union_view.mask for f in fams.relations} == set(oracle)
    for f in fams.relations:
        assert len(f.components) <= 2


def test_report_form(lattice_2x2):
    sigma = eta_union(lattice_2x2)
    form = sigma.report_form()
    assert set(form) == {"components", "union"}
    assert sorted(tuple(p) for p in form["union"]) == sigma.union_view.pairs()


# ---------------------------------------------------------------------------
# the join fixpoint against the bounded combination pass it replaced


def plain_enumerate_u(base, base_exhaustive, max_components=3):
    """Oracle: unions of at most max_components base relations by
    itertools.combinations, one witness per union view, exhaustive when the
    views are stable under adding one more base relation."""
    base = list(base)
    views = {}
    size = 0
    stable = False
    while size < max_components:
        size += 1
        before = len(views)
        for combo in itertools.combinations(range(len(base)), size):
            mask = 0
            for i in combo:
                mask |= base[i].mask
            if mask not in views:
                views[mask] = UAdmRel([base[i] for i in combo])
        if size > 1 and len(views) == before:
            stable = True
            break
    if not stable:
        stable = all((v | b.mask) in views for v in list(views) for b in base)
    families = sorted(views.values(), key=lambda u: u.union_view.pairs())
    return families, base_exhaustive and stable


def plain_pair_families(base):
    """Oracle: every pair (i <= j) of base relations, first pair per view."""
    base = list(base)
    views = {}
    for i in range(len(base)):
        for j in range(i, len(base)):
            mask = base[i].mask | base[j].mask
            if mask not in views:
                views[mask] = UAdmRel([base[i], base[j]])
    return sorted(views.values(), key=lambda u: u.union_view.pairs())


def brute_u_admissible(alg):
    """Oracle: every reflexive R with adm(p) <= R for all p in R."""
    n = alg.size
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    principal = {p: admissible_closure(alg, [p]).mask for p in off}
    diag = BinRel.diagonal(n).mask
    found = set()
    for bits in range(1 << len(off)):
        chosen = [p for k, p in enumerate(off) if bits >> k & 1]
        rel = diag | BinRel.from_pairs(n, chosen).mask
        if all(principal[p] | rel == rel for p in chosen):
            found.add(rel)
    return found


def random_algebras(seed, count, squares):
    """Random algebras of size 2-3, with squares of two-element ones (size
    4) among them when squares is set; some have a unary operation."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.choice((2, 3))
        arities = rng.choice(((2,), (1, 2), (2, 2), (3,)))
        ops = [
            (f"f{i}", r, [rng.randrange(size) for _ in range(size**r)])
            for i, r in enumerate(arities)
        ]
        alg = FiniteAlgebra(size, ops, name=f"rnd{size}{arities}")
        out.append(power(alg, 2) if squares and size == 2 and rng.random() < 0.7 else alg)
    return out


def differential_algebras():
    named = [resolve(name) for name in (*FIXTURES, "z2^2", "lattice2^2")]
    return named + random_algebras(1, 30, squares=True)


def test_enumerate_u_matches_plain_combinations():
    compared = grown = 0
    for alg in differential_algebras():
        base = enumerate_relations(alg, "reflexive_admissible")
        out = enumerate_u(base.relations, base.exhaustive)
        plain, plain_exhaustive = plain_enumerate_u(base.relations, base.exhaustive)
        if not plain_exhaustive:
            continue
        assert out.exhaustive, alg.name
        assert [u.report_form() for u in out] == [u.report_form() for u in plain], alg.name
        compared += 1
        grown += len(out) > len(base)
    assert compared >= 35 and grown >= 8


def test_pair_families_match_plain_pairs():
    for alg in differential_algebras():
        for kind in ("reflexive_admissible", "congruence"):
            base = enumerate_relations(alg, kind)
            out = pair_families(base.relations, base.exhaustive)
            assert out.exhaustive == base.exhaustive
            plain = plain_pair_families(base.relations)
            assert [u.report_form() for u in out] == [u.report_form() for u in plain], (
                alg.name,
                kind,
            )


@pytest.mark.parametrize("name", ["z2cube", "lattice2^3"])
def test_enumerate_u_keeps_plain_witnesses(name):
    alg = resolve(name)
    base = enumerate_relations(alg, "reflexive_admissible")
    out = enumerate_u(base.relations, base.exhaustive)
    plain, plain_exhaustive = plain_enumerate_u(base.relations, base.exhaustive)
    assert not plain_exhaustive and len(plain) < len(out)
    witness = {u.union_view.mask: u for u in out}
    for u in plain:
        assert witness[u.union_view.mask].report_form() == u.report_form()


def test_enumerate_u_matches_brute_force():
    small = [resolve(name) for name in FIXTURES if resolve(name).size <= 4]
    for alg in small + random_algebras(2, 30, squares=False):
        base = enumerate_relations(alg, "reflexive_admissible")
        out = enumerate_u(base.relations, base.exhaustive)
        assert out.exhaustive
        assert {u.union_view.mask for u in out} == brute_u_admissible(alg), alg.name


@pytest.mark.parametrize(
    "name,count", [("lattice_n5", 58), ("z2cube", 128), ("lattice2^3", 15_935)]
)
def test_enumerate_u_counts(name, count):
    alg = resolve(name)
    base = enumerate_relations(alg, "reflexive_admissible")
    out = enumerate_u(base.relations, base.exhaustive)
    assert len(out) == count and out.exhaustive


def test_enumerate_u_truncated_beyond_max_relations(z2cube):
    base = enumerate_relations(z2cube, "reflexive_admissible")
    out = enumerate_u(base.relations, base.exhaustive, Caps(max_relations=100))
    assert not out.exhaustive
    assert 100 < len(out) < 128


@pytest.mark.parametrize("name", [*FIXTURES, "z2^2"])
def test_u_pool_closed_under_intersection(name):
    alg = resolve(name)
    base = enumerate_relations(alg, "reflexive_admissible")
    views = {u.union_view.mask for u in enumerate_u(base.relations, base.exhaustive)}
    assert all(x & y in views for x in views for y in views)


class _CountingMask(int):
    """An int mask that counts the joins it takes part in."""

    joins = 0

    def __or__(self, other):
        _CountingMask.joins += 1
        return int.__or__(int(self), int(other))

    __ror__ = __or__


def test_join_loop_forms_each_subset_once(z2cube):
    base = enumerate_relations(z2cube, "reflexive_admissible").relations
    masks = [_CountingMask(b.mask) for b in base]
    _CountingMask.joins = 0
    views, truncated = joins(masks)
    assert not truncated and len(views) == 128
    # each view is joined once with each base relation after its witness,
    # and with no other
    assert _CountingMask.joins == sum(len(masks) - 1 - w[-1] for w in views.values())


def test_uadm_pool_joins_principal_relations():
    """The uadm: pool, the unions of the principal relations adm(p) and the
    least relation, has the views, order and exhaustive flag of the unions of
    every reflexive admissible relation.  Each witness component is the
    algebra memo's closure of one of its own pairs, no component lies inside
    another, and the components are the maximal adm(p) inside the view."""
    for alg in differential_algebras():
        n = alg.size
        base = enumerate_relations(alg, "reflexive_admissible")
        want = enumerate_u(base.relations, base.exhaustive)
        pool, exhaustive = candidate_pool(alg, RelClass.UAdmissible, DEFAULT_CAPS)
        assert exhaustive == want.exhaustive, alg.name
        assert [u.union_view for u in pool] == [u.union_view for u in want], alg.name
        for u in pool:
            comps = u.components
            principal = {(a, b): pair_closure(alg, admissible_closure, a * n + b)
                         for a, b in u.union_view.pairs()}
            assert all(any(principal[p] == c for p in c.pairs()) for c in comps), alg.name
            assert not any(c <= d for c, d in itertools.permutations(comps, 2)), alg.name
            maximal = {c.mask for c in principal.values()
                       if not any(c.mask != d.mask and c <= d for d in principal.values())}
            assert {c.mask for c in comps} == maximal, alg.name


def test_uadm_pool_of_the_identity_algebra_joins_principal_relations_only(monkeypatch):
    """On four elements with only the identity operation, every reflexive
    relation is U-admissible: 4,096 views, reached from 12 principal
    relations and the diagonal rather than from all 4,096 reflexive
    admissible relations (about 8.4 million joins)."""
    alg = FiniteAlgebra(4, [("e", 1, [0, 1, 2, 3])])

    def counted(masks, close=None, depth=None, bound=None, _joins=uadmissible.joins):
        return _joins([_CountingMask(m) for m in masks], close, depth, bound)

    monkeypatch.setattr(uadmissible, "joins", counted)
    _CountingMask.joins = 0
    pool, exhaustive = candidate_pool(alg, RelClass.UAdmissible, DEFAULT_CAPS)
    assert exhaustive and len(pool) == 4096
    assert 0 < _CountingMask.joins <= 10**5
