from itertools import product

import pytest

from relkit.algebra import App, FiniteAlgebra, Var, parse_term
from relkit.caps import Caps
from relkit.fixtures import FIXTURES, resolve
from relkit.freeclone import clone_as_algebra, generate_clone, generator_ids, identity_holds
from relkit.identities import UnsupportedError, builtin, check_for_all, free_seed_verdict
from relkit.maltsev import (
    _MAL_SIDE,
    _W_SLOT,
    _WP_SLOT,
    TermSystem,
    _chain,
    _chain_prelude,
    _mal_steps,
    _satisfies,
    _vr_steps,
    check_any_expansion,
    enumerate_expansions,
    find_directed_jonsson,
    find_jonsson,
    find_majority,
    find_mal_f,
    find_pixley,
    find_vr,
    slmore_dichotomy,
    subst_vars,
)
from relkit.parser import parse_spec

from test_table_layout import random_algebras


def test_subst_vars_simultaneous():
    t = App("f", (Var(0), Var(1), Var(0)))
    assert subst_vars(t, {0: 1, 1: 0}) == App("f", (Var(1), Var(0), Var(1)))
    assert subst_vars(Var(2), {2: 0}) == Var(0)
    assert subst_vars(t, {}) == t


def test_jonsson_ladder_distributive(lattice2):
    res = find_jonsson(lattice2)
    assert res.found and res.conclusive and res.shortest == 2
    sys = res.system
    assert sys.schema == "Jonsson" and sys.params == {"k": 2}
    assert set(sys.terms) == {"j0", "j1", "j2"}
    assert sys.terms["j0"] == Var(0) and sys.terms["j2"] == Var(2)
    assert sys.check(lattice2)
    # the middle rung absorbs both near-unanimous patterns
    j1 = sys.terms["j1"]
    assert identity_holds(lattice2, j1, Var(0), "aba")
    assert identity_holds(lattice2, j1, Var(0), "aab")
    assert identity_holds(lattice2, j1, Var(2), "abb") or identity_holds(
        lattice2, subst_vars(j1, {1: 2}), Var(2), "abc"
    )


def test_jonsson_absent_affine(z2):
    res = find_jonsson(z2, max_k=6)
    assert not res.found and res.conclusive
    res = find_directed_jonsson(z2, max_n=6)
    assert not res.found and res.conclusive
    res = find_majority(z2)
    assert not res.found and res.conclusive


def test_jonsson_baker(baker4):
    res = find_jonsson(baker4)
    assert res.found and res.shortest == 4
    assert res.system.check(baker4)


def test_directed_jonsson(lattice2):
    res = find_directed_jonsson(lattice2)
    assert res.found and res.conclusive and res.shortest == 2
    assert res.system.schema == "DirectedJonsson" and res.system.params == {"n": 2}
    assert res.system.check(lattice2)


def test_max_bound_respected(baker4):
    res = find_jonsson(baker4, max_k=3)
    assert not res.found and res.conclusive and res.shortest == 4


def test_majority_and_pixley(lattice2):
    res = find_majority(lattice2)
    assert res.found and res.system.schema == "Majority"
    assert res.system.check(lattice2)
    m = res.system.terms["m"]
    for rhs, pattern in ((Var(0), "aab"), (Var(0), "aba"), (Var(1), "abb")):
        assert identity_holds(lattice2, m, rhs, pattern)
    res = find_pixley(lattice2)
    assert not res.found and res.conclusive


def test_pixley_certificate_replays():
    # the ternary discriminator on {0,1}: t(x,y,z) = z if x = y else x
    table = [z if x == y else x for x in range(2) for y in range(2) for z in range(2)]
    alg = FiniteAlgebra(2, [("t", 3, table)], name="discriminator")
    res = find_pixley(alg)
    assert res.found and res.conclusive and res.system.terms["p"] == parse_term("t(x,y,z)")
    assert (res.system.terms["p"], Var(2), "aab") in res.system.equations
    assert res.system.check(alg)


def test_certificate_tamper_detected(lattice2):
    sys = find_majority(lattice2).system
    broken = TermSystem(
        sys.schema, sys.params, sys.terms, [(sys.terms["m"], Var(2), "aab")] + sys.equations
    )
    assert not broken.check(lattice2)


def test_vr_terms(lattice2, z2):
    res = find_vr(lattice2, 2)
    assert res.found and res.system.schema == "VR"
    assert res.system.params["h"] == 2
    assert res.system.check(lattice2)
    assert not find_vr(z2, 2).found and find_vr(z2, 2).conclusive


def test_mal_f_terms(lattice2, z2):
    res = find_mal_f(lattice2, 2)
    assert res.found and res.system.schema == "MalF"
    assert tuple(res.system.params["f"]) == (1, 2)
    assert res.system.check(lattice2)
    assert not find_mal_f(z2, 2).found and find_mal_f(z2, 2).conclusive


# The oracles: the layered search the chain searches ran before _chain, on
# adjacency lists built from every 4-ary element u.


def _edges(triples) -> dict:
    """node -> [(target, label)] from (node, target, label) triples, in
    their order."""
    out: dict[int, list] = {}
    for a, b, label in triples:
        out.setdefault(a, []).append((b, label))
    return out


def _layered_reach(edges_at, start: int, goal: int, h: int):
    """The first path of h steps from start to goal, step i along the edges
    edges_at(i) (see _edges): each layer keeps, for each node, the first
    edge into it from the least node of the layer before.  Returns the
    path's h + 1 nodes and h labels, or None."""
    layers = [{start: None}]
    for i in range(h):
        edges = edges_at(i)
        cur: dict[int, tuple] = {}
        for node in sorted(layers[-1]):
            for t, label in edges.get(node, ()):
                if t not in cur:
                    cur[t] = (node, label)
        if not cur:
            return None
        layers.append(cur)
    if goal not in layers[h]:
        return None
    nodes, labels = [goal], []
    for layer in reversed(layers[1:]):
        node, label = layer[nodes[-1]]
        nodes.append(node)
        labels.append(label)
    return nodes[::-1], labels[::-1]


def vr_edges_of_every_u(slots):
    """The even (σ∩τ) and odd (σ∩υ) steps of a VR chain, each pair labelled
    with the first u giving it in σ and the first s in τ or υ."""
    sigma, tau, ups = {}, {}, {}
    for uid, (ax, ay, az) in enumerate(slots):
        sigma.setdefault((ax, az), uid)
        tau.setdefault((ax, ay), uid)
        ups.setdefault((ay, az), uid)
    return tuple(
        _edges((a, b, (u, other[a, b])) for (a, b), u in sorted(sigma.items()) if (a, b) in other)
        for other in (tau, ups)
    )


def mal_edges_of_every_u(clone4, slots) -> dict:
    """(f(i), f(i-1)) -> the edges of step i of a MalF chain, with f(-1) =
    None: (u@w_{f(i)}, u@w'_{f(i)}) labelled u, for each u that meets the
    side condition of f(i-1)."""
    side_ok = {v: _satisfies(clone4, [cond]).tolist() for v, cond in _MAL_SIDE.items()}
    side_ok[None] = [True] * len(slots)
    return {
        (v, prev): _edges(
            (ids[_W_SLOT[v]], ids[_WP_SLOT[v]], uid)
            for uid, ids in enumerate(slots)
            if side_ok[prev][uid]
        )
        for v in (1, 2)
        for prev in side_ok
    }


def mal_f_by_product(steps, x, z, h):
    """Each f in {1,2}^h in lexicographic order, until one has a path from
    x to z; (f, the path's nodes, its labels) or None."""
    for f in product((1, 2), repeat=h):
        path = _layered_reach(lambda i: steps[f[i], f[i - 1] if i else None], x, z, h)
        if path is not None:
            return (f, *path)
    return None


@pytest.fixture(scope="module")
def closed_chains():
    """(algebra, x, z, clone4, slots) for the fixtures and random 2- and
    3-element algebras whose 3- and 4-ary clones close under caps of 2000
    / 5000, and the caps."""
    caps = Caps(clone_cap_3=2000, clone_cap_4=5000)
    algs = [resolve(name) for name in FIXTURES]
    algs += random_algebras(107, 30, sizes=(2, 3), arities=(0, 1, 2, 2, 3))
    out = []
    for alg in algs:
        prelude = _chain_prelude(alg, 1, caps)
        if prelude is not None:
            x, _, z = generator_ids(alg.size, 3)
            out.append((alg, x, z, prelude[1], prelude[2]))
    return out, caps


def test_least_f_matches_product_loop(closed_chains):
    """The MalF chain (_chain on _mal_steps) is the first f of the product
    loop, along the oracle's path over every u, for h = 1..8; on the
    fixtures find_mal_f also returns the oracle's witnesses."""
    chains, caps = closed_chains
    results = []
    for alg, x, z, clone4, slots in chains:
        steps, options = mal_edges_of_every_u(clone4, slots), _mal_steps(clone4, slots)
        for h in range(1, 9):
            want = mal_f_by_product(steps, x, z, h)
            assert _chain(options, (1, 2), x, z, h) == want, (alg, h)
            results.append(want)
            if alg.name in FIXTURES and h <= 4:
                res = find_mal_f(alg, h, caps)
                assert res.found == (want is not None) and res.conclusive
                if want is not None:
                    assert res.system.params["f"] == want[0]
                    assert list(res.system.terms.values()) == [clone4.witness(u) for u in want[2]]
    assert None in results and any(r and 2 in r[0][:-1] for r in results)


def test_vr_chain_matches_layered_reach(closed_chains):
    """With one option per step, the VR chain (_chain on _vr_steps) keeps
    the nodes and labels of the oracle's unfiltered layers, for h = 1..8."""
    chains, _ = closed_chains
    results = []
    for alg, x, z, _, slots in chains:
        even, odd = vr_edges_of_every_u(slots)
        options = _vr_steps(slots)
        for h in range(1, 9):
            want = _layered_reach(lambda i: odd if i % 2 else even, x, z, h)
            got = _chain(options, (None,), x, z, h)
            assert got == (want and ((None,) * h, *want)), (alg, h)
            results.append(want)
    assert None in results and any(results)


def _seed_cases():
    """Every fixture whose 4-ary clone closes, and four random algebras: one
    with VR and MalF systems of 4 steps but none shorter, three with none."""
    cases = {name: resolve(name) for name in FIXTURES if name != "lattice_n5"}
    first = random_algebras(107, 40, sizes=(2, 3))
    second = random_algebras(5, 40, sizes=(2, 3), arities=(1, 2, 3))
    cases.update({"rnd107-30": first[30], "rnd107-36": first[36], "rnd5-26": second[26],
                  "rnd5-40": second[40]})
    return cases


SEED_CASES = _seed_cases()


@pytest.mark.parametrize("name", SEED_CASES)
def test_chain_searches_match_seed_verdicts(name):
    """A VR (MalF) system of h steps exists exactly when the seed verdict of
    vrIncl(h) (malIncl(h)) on F(A,3) holds, for h = 1..4."""
    alg = SEED_CASES[name]
    free = clone_as_algebra(generate_clone(alg, 3))
    for h in range(1, 5):
        for search, inclusion in ((find_vr, "vrIncl"), (find_mal_f, "malIncl")):
            res = search(alg, h)
            assert res.conclusive
            assert res.found == free_seed_verdict(free, builtin(inclusion, h=h)), (name, inclusion, h)


def test_term_searches_imply_inclusions(lattice2):
    """Term certificates and the corresponding free-relation inclusions are
    two routes to the same fact; a found system must be matched by the
    quantified identity holding outright."""
    assert find_vr(lattice2, 2).found
    v = check_for_all(lattice2, builtin("vrIncl", h=2))
    assert v.holds is True and v.coverage == "exhaustive"
    assert find_mal_f(lattice2, 2).found
    v = check_for_all(lattice2, builtin("malIncl", h=2))
    assert v.holds is True and v.coverage == "exhaustive"


def test_ladder_vs_free_seed_bounds(lattice2):
    # directed ladder of n rungs forces the 2n-2 chain bound on the free algebra
    n = find_directed_jonsson(lattice2).shortest
    free = clone_as_algebra(generate_clone(lattice2, 3))
    assert free_seed_verdict(free, builtin("cdist2", h=max(2 * n - 2, 1))) is True
    # and a free-seed chain bound k caps the ladder at k+1 rungs
    k = 2
    assert free_seed_verdict(free, builtin("cdist3", k=k)) is True
    assert find_jonsson(lattice2).shortest <= k + 1


def test_slmore_dichotomy(lattice2, z2):
    assert slmore_dichotomy(lattice2, 1).verdict == "Neither"
    d = slmore_dichotomy(lattice2, 2)
    assert d.left and d.verdict == "Left"
    d3 = slmore_dichotomy(lattice2, 3)
    assert d3.left and d3.right and d3.verdict == "Left"  # left takes precedence
    for k in (1, 2, 3, 6):
        assert slmore_dichotomy(z2, k).verdict == "Neither"
    with pytest.raises(ValueError):
        slmore_dichotomy(lattice2, 0)


def test_one_element_algebra_seed_verdicts_and_dichotomy():
    """On one element x = y = z: every inclusion holds at its seed on F(A,3),
    and both sides of the dichotomy contain (x, z)."""
    for ops in ([("f", 2, (0,))], []):
        alg = FiniteAlgebra(1, ops)
        free = clone_as_algebra(generate_clone(alg, 3))
        assert free.size == 1
        for h in (1, 2):
            assert free_seed_verdict(free, builtin("vrIncl", h=h)) is True
            assert free_seed_verdict(free, builtin("malIncl", h=h)) is True
            assert find_vr(alg, h).found and find_mal_f(alg, h).found
        d = slmore_dichotomy(alg, 1)
        assert d.left and d.right and d.verdict == "Left"


def test_enumerate_expansions_mal():
    exps = enumerate_expansions(builtin("malIncl", h=2))
    assert len(exps) == 4
    choices = {tuple(e.rhs_choice["sigma"]) for e in exps}
    assert choices == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for e in exps:
        classes = dict(e.spec.variables)
        assert all("sigma_" in v or v == "alpha" for v in classes)


def test_enumerate_expansions_literal():
    spec = parse_spec("cong:a & (uadm:s ; s) <= s")
    exps = enumerate_expansions(spec)
    assert len(exps) == 2  # two left occurrences, one right slot
    spec = parse_spec("cong:a & uadm:s <= s")
    assert len(enumerate_expansions(spec)) == 1


def test_enumerate_expansions_unsupported():
    with pytest.raises(UnsupportedError):
        enumerate_expansions(parse_spec("uadm:s^* <= s"))
    with pytest.raises(UnsupportedError):
        enumerate_expansions(parse_spec("uadm:s | s <= s"))
    with pytest.raises(UnsupportedError):
        enumerate_expansions(parse_spec("uadm:s == s ; s"))
    with pytest.raises(UnsupportedError):
        enumerate_expansions(parse_spec("cong:a ; a <= uadm:s"))


def test_check_any_expansion_agreement(lattice2, z2):
    spec = builtin("malIncl", h=2)
    for alg in (lattice2, z2):
        res = check_any_expansion(alg, spec)
        assert res.any_holds is True and res.witness is not None
        assert res.u_verdict.holds is True
        assert res.agree is True
        form = res.report_form()
        assert form["checked"] >= 1 and form["witness"]["source"] == spec.name


def test_report_forms_serialize(lattice2):
    import json

    res = find_jonsson(lattice2)
    json.dumps(res.report_form())
    res = find_mal_f(lattice2, 2)
    form = res.report_form()
    json.dumps(form)
    assert form["system"]["params"]["f"] == [1, 2]
    # witnesses in the report parse back to the real terms
    for role, text in form["system"]["terms"].items():
        assert parse_term(text) == res.system.terms[role]
