"""Acceptance gate: one test per shipping criterion, each with a pinned
time budget and an independent oracle where the criterion calls for one.
Every test prints a single [ACCEPTANCE n] line through the capture."""

import itertools
import time

import numpy as np
import pytest

from relkit.caps import DEFAULT_CAPS
from relkit.freeclone import clone_as_algebra, generate_clone
from relkit.identities import (
    RelClass,
    builtin,
    candidate_pool,
    check_for_all,
    class_member,
    evaluate,
    free_seed_verdict,
)
from relkit.maltsev import (
    check_any_expansion,
    find_directed_jonsson,
    find_jonsson,
    find_majority,
    find_mal_f,
    find_pixley,
    find_vr,
    slmore_dichotomy,
)
from relkit.relations import (
    admissible_closure,
    compose,
    converse,
    enumerate_relations,
    intersect,
    is_reflexive_admissible,
    transitive_closure,
)
from relkit.relations import BinRel as BR
from relkit.uadmissible import UAdmRel


@pytest.fixture
def announce(capfd):
    def _p(line):
        with capfd.disabled():
            print(line, flush=True)

    return _p


# --- independent oracles ----------------------------------------------------


def monotone_01_tables(k):
    pts = list(itertools.product((0, 1), repeat=k))
    out = set()
    for bits in range(1 << len(pts)):
        f = {p: (bits >> i) & 1 for i, p in enumerate(pts)}
        if f[pts[0]] != 0 or f[pts[-1]] != 1:
            continue
        if all(
            f[p] <= f[q]
            for p, q in itertools.combinations(pts, 2)
            if all(a <= b for a, b in zip(p, q))
        ):
            out.add(tuple(f[p] for p in pts))
    return out


def gf2_span_tables(k):
    pts = list(itertools.product((0, 1), repeat=k))
    return {
        tuple(sum(c * a for c, a in zip(coeffs, p)) % 2 for p in pts)
        for coeffs in itertools.product((0, 1), repeat=k)
    }


def all_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def compatible_partition_count(alg):
    n = alg.size
    tables = [np.array(op.table).reshape((n, n)) for op in alg.ops]
    count = 0
    for part in all_partitions(list(range(n))):
        lab = np.empty(n, dtype=int)
        for b, block in enumerate(part):
            lab[block] = b
        pairs = np.argwhere(lab[:, None] == lab[None, :])
        i, j = np.meshgrid(np.arange(len(pairs)), np.arange(len(pairs)), indexing="ij")
        ok = True
        for t in tables:
            r1 = lab[t[pairs[i, 0], pairs[j, 0]]]
            r2 = lab[t[pairs[i, 1], pairs[j, 1]]]
            if not (r1 == r2).all():
                ok = False
                break
        if ok:
            count += 1
    return count


# --- criteria ----------------------------------------------------------------


def test_acceptance_1_free_counts(lattice2, z2, z2cube, announce):
    t0 = time.perf_counter()
    c = generate_clone(lattice2, 3)
    assert c.complete and len(c) == 18
    assert {tuple(e.table) for e in c.elements} == monotone_01_tables(3)
    cz = generate_clone(z2, 3)
    assert cz.complete and len(cz) == 8
    assert {tuple(e.table) for e in cz.elements} == gf2_span_tables(3)
    enum = enumerate_relations(z2cube, "congruence", DEFAULT_CAPS)
    assert enum.exhaustive and len(enum.relations) == 16
    assert compatible_partition_count(z2cube) == 16
    dt = time.perf_counter() - t0
    assert dt < 5.0
    announce(
        f"[ACCEPTANCE 1] PASS ({dt:.1f}s): free-function counts 18/8 and the 16 "
        "compatible partitions match independent filters"
    )


def test_acceptance_2_term_searches(lattice2, z2, announce):
    t0 = time.perf_counter()
    res = find_majority(lattice2)
    assert res.found and res.system.check(lattice2)
    res = find_jonsson(lattice2)
    assert res.found and res.shortest == 2 and res.system.check(lattice2)
    res = find_directed_jonsson(lattice2)
    assert res.found and res.shortest == 2 and res.system.check(lattice2)
    res = find_pixley(lattice2)
    assert not res.found and res.conclusive
    assert not find_majority(z2).found and find_majority(z2).conclusive
    res = find_jonsson(z2, max_k=6)
    assert not res.found and res.conclusive
    res = find_directed_jonsson(z2, max_n=6)
    assert not res.found and res.conclusive
    dt = time.perf_counter() - t0
    assert dt < 10.0
    announce(
        f"[ACCEPTANCE 2] PASS ({dt:.1f}s): 2-chain ladders found (k=2, n=2, "
        "majority, no Pixley); all conclusively absent on the affine algebra"
    )


def test_acceptance_3_chain_bound_wide_classes(lattice2, lattice_n5, announce):
    t0 = time.perf_counter()
    spec = builtin("cdist2", h=2)
    # wide quantification: every tolerance x every union family
    tol, exact = candidate_pool(lattice2, RelClass.Tolerance, DEFAULT_CAPS)
    fam, fexact = candidate_pool(lattice2, RelClass.UAdmissible, DEFAULT_CAPS)
    assert exact and fexact and len(tol) == 2 and len(fam) == 4
    assert all(len(f.components) <= 3 for f in fam)
    v = check_for_all(lattice2, spec, narrow=False)
    assert v.holds is True and v.coverage == "exhaustive"
    base = enumerate_relations(lattice_n5, "reflexive_admissible", DEFAULT_CAPS)
    assert base.exhaustive and len(base.relations) == 25  # joins of principal closures
    v5 = check_for_all(lattice_n5, spec, narrow=False)
    assert v5.holds is True and v5.coverage == "exhaustive"
    dt = time.perf_counter() - t0
    assert dt < 10.0
    announce(
        f"[ACCEPTANCE 3] PASS ({dt:.1f}s): two-step chain bound holds over the "
        "wide classes on both lattices (25 reflexive admissible relations on the "
        "5-element lattice)"
    )


def test_acceptance_4_refutations(z2cube, announce):
    t0 = time.perf_counter()
    for k in range(1, 7):
        spec = builtin("cdist3", k=k)
        v = check_for_all(z2cube, spec)
        assert v.holds is False and v.coverage == "exhaustive", k
        classes = spec.classes()
        asg = v.counterexample["assignment"]
        for name, value in asg.items():
            assert class_member(z2cube, classes[name], value)
        lhs, rhs, sat = evaluate(z2cube, spec, asg)
        a, b = v.counterexample["pair"]
        assert not sat and lhs.contains(a, b) and not rhs.contains(a, b)
    spec = builtin("cor1")  # narrowed: congruence with a union of two congruences
    v = check_for_all(z2cube, spec)
    assert v.holds is False and v.coverage == "exhaustive"
    lhs, rhs, sat = evaluate(z2cube, spec, v.counterexample["assignment"])
    assert not sat
    for k in range(1, 7):
        assert slmore_dichotomy(z2cube, k).verdict == "Neither", k
    dt = time.perf_counter() - t0
    assert dt < 5.0
    announce(
        f"[ACCEPTANCE 4] PASS ({dt:.1f}s): every chain length 1..6 refuted with "
        "replayable witnesses; closure variant refuted; dichotomy empty for k<=6"
    )


def test_acceptance_5_union_square(lattice_2x2, announce):
    t0 = time.perf_counter()
    from relkit.relations import congruence_gen

    eta1 = congruence_gen(lattice_2x2, [(0, 1), (2, 3)])
    eta2 = congruence_gen(lattice_2x2, [(0, 2), (1, 3)])
    sigma = UAdmRel([eta1, eta2])
    assert sigma.union_view.count() == 12
    square = compose(sigma.union_view, sigma.union_view)
    assert square.count() == 16 and square == BR.full(4)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    announce(
        f"[ACCEPTANCE 5] PASS ({dt:.1f}s): factor-kernel union has 12 pairs and "
        "its square is all 16"
    )


def test_acceptance_6_baker_chain(baker4, announce):
    t0 = time.perf_counter()
    u2 = {v: RelClass.U2Admissible for v in ("sigma", "tau", "upsilon")}
    v = check_for_all(baker4, builtin("baker4"), classes_override=u2)
    assert v.holds is True and v.coverage == "exhaustive"
    # explicit four-step witness chain for the principal closures
    for a, b, c in itertools.product(range(4), repeat=3):
        sigma = admissible_closure(baker4, [(a, c)])
        tau = admissible_closure(baker4, [(a, b)])
        ups = admissible_closure(baker4, [(b, c)])
        st, su = intersect(sigma, tau), intersect(sigma, ups)
        chain = [a, baker4.apply("f", (a, b, c)), a & c, baker4.apply("f", (c, b, a)), c]
        for i, (p, q) in enumerate(zip(chain, chain[1:])):
            step = st if i % 2 == 0 else su
            assert step.contains(p, q), (a, b, c, i)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    announce(
        f"[ACCEPTANCE 6] PASS ({dt:.1f}s): four-step inclusion exhaustive over "
        "two-component families; explicit chain validates for all 64 triples"
    )


def test_acceptance_7_higher_term_systems(lattice2, announce):
    t0 = time.perf_counter()
    res = find_vr(lattice2, 2)
    assert res.found and res.system.check(lattice2)
    res = find_mal_f(lattice2, 2)
    assert res.found and res.system.check(lattice2)
    for name in ("vrIncl", "malIncl"):
        v = check_for_all(lattice2, builtin(name, h=2))
        assert v.holds is True and v.coverage == "exhaustive", name
    dt = time.perf_counter() - t0
    assert dt < 10.0
    announce(
        f"[ACCEPTANCE 7] PASS ({dt:.1f}s): both length-2 systems found with "
        "replaying certificates and the matching inclusions hold exhaustively"
    )


def test_acceptance_8_expansion_agreement(lattice2, z2, announce):
    t0 = time.perf_counter()
    spec = builtin("malIncl", h=2)
    for alg in (lattice2, z2):
        res = check_any_expansion(alg, spec)
        assert res.u_verdict.holds is True
        assert res.any_holds is True and res.agree is True, alg.name
    # the affine case is degenerate: composition is idempotent there
    base = enumerate_relations(z2, "reflexive_admissible", DEFAULT_CAPS)
    assert base.exhaustive
    for r in base.relations:
        assert compose(r, r) == r
    dt = time.perf_counter() - t0
    assert dt < 10.0
    announce(
        f"[ACCEPTANCE 8] PASS ({dt:.1f}s): union-quantified verdict agrees with "
        "the expansion sweep on both algebras (idempotent composition checked)"
    )


def test_acceptance_9_calculus_and_free_principle(
    lattice2, z2, baker4, lattice_2x2, announce
):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    small = [lattice2, z2, baker4, lattice_2x2]
    for alg in small:
        n = alg.size
        rand = lambda: BR(n, int(rng.integers(0, 1 << (n * n))))
        for _ in range(30):
            r, s, t = rand(), rand(), rand()
            assert compose(compose(r, s), t) == compose(r, compose(s, t))
            assert converse(compose(r, s)) == compose(converse(s), converse(r))
        for _ in range(10):
            r = rand()
            star = transitive_closure(r)
            assert r.mask | star.mask == star.mask
            assert compose(star, star).mask | star.mask == star.mask
            assert transitive_closure(star) == star
        for _ in range(10):
            pairs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2)]
            s = admissible_closure(alg, pairs)
            u = admissible_closure(alg, [(int(rng.integers(n)), int(rng.integers(n)))])
            for out in (intersect(s, u), compose(s, u), converse(s), transitive_closure(s)):
                assert is_reflexive_admissible(alg, out)
    for alg in small:
        free = clone_as_algebra(generate_clone(alg, 3))
        for name in ("cdist2", "maj3"):
            spec = builtin(name) if name == "maj3" else builtin(name, h=2)
            seed = free_seed_verdict(free, spec)
            quant = check_for_all(free, spec, strategy="principal")
            assert quant.holds is seed, (alg.name, name)
    dt = time.perf_counter() - t0
    assert dt < 3.0
    announce(
        f"[ACCEPTANCE 9] PASS ({dt:.1f}s): relation calculus laws and closure "
        "preservation verified; generic-seed and quantified verdicts agree on "
        "every 3-generated free algebra"
    )
