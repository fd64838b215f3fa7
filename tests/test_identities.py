import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relkit.cli as cli
from relkit.algebra import FiniteAlgebra, automorphisms, power
from relkit.caps import DEFAULT_CAPS, Caps
from relkit.fixtures import FIXTURES, resolve
from relkit.freeclone import clone_as_algebra, generate_clone
from relkit.identities import (
    AltL,
    AltR,
    BarOp,
    Comp,
    Conv,
    IdentitySpec,
    Inter,
    Pow,
    RConst,
    RVar,
    RelClass,
    Star,
    UnionOp,
    UnsupportedError,
    Verdict,
    builtin,
    builtin_names,
    candidate_pool,
    check_for_all,
    class_member,
    desugar,
    eval_expr,
    evaluate,
    expr_str,
    expr_vars,
    free_seed_assignment,
    free_seed_verdict,
    map_children,
    nodes,
    violation_pair,
)
import relkit.identities as identities
from relkit.cli import _random_algebra
from relkit.identities import _atom_sets, _scan
from relkit.maltsev import ExpansionSpec, enumerate_expansions
from relkit.parser import CLASS_PREFIXES, SpecParseError, parse_spec
import relkit.relations as relations
from relkit.relations import (
    KINDS,
    BinRel,
    admissible_closure,
    compose,
    congruence_gen,
    converse,
    enumerate_relations,
    intersect,
    is_congruence,
    is_reflexive_admissible,
    is_tolerance,
    tolerance_gen,
    transitive_closure,
    union,
)
from relkit.uadmissible import (
    UAdmRel,
    as_u,
    bar_u,
    compose_u,
    converse_u,
    intersect_tol,
    intersect_u,
    transitive_closure_u,
    union_u,
)


def family_eval_expr(alg, e, env):
    """Reference evaluator that keeps families as values: every operator on a
    family acts componentwise and returns a family (a UAdmRel), so a family
    stays visible up to the root.  eval_expr must equal its union view."""
    if isinstance(e, RVar):
        return env[e.name]
    if isinstance(e, RConst):
        return BinRel.diagonal(alg.size) if e.which == "id" else BinRel.full(alg.size)
    if isinstance(e, Conv):
        v = family_eval_expr(alg, e.arg, env)
        return converse_u(v) if isinstance(v, UAdmRel) else converse(v)
    if isinstance(e, Star):
        v = family_eval_expr(alg, e.arg, env)
        return transitive_closure_u(v) if isinstance(v, UAdmRel) else transitive_closure(v)
    if isinstance(e, BarOp):
        v = family_eval_expr(alg, e.arg, env)
        if isinstance(v, UAdmRel):
            return bar_u(alg, v)
        return admissible_closure(alg, v)
    if isinstance(e, Pow):
        v = family_eval_expr(alg, e.arg, env)
        out = v
        for _ in range(e.h - 1):
            out = compose_u(out, v) if isinstance(out, UAdmRel) else compose(out, v)
        return out
    if isinstance(e, (AltR, AltL)):
        return family_eval_expr(alg, desugar(e), env)
    l = family_eval_expr(alg, e.left, env)
    r = family_eval_expr(alg, e.right, env)
    lu, ru = isinstance(l, UAdmRel), isinstance(r, UAdmRel)
    if isinstance(e, Inter):
        if lu and ru:
            return intersect_u(l, r)
        if lu:
            return intersect_tol(r, l)
        if ru:
            return intersect_tol(l, r)
        return intersect(l, r)
    if isinstance(e, UnionOp):
        if lu or ru:
            return union_u(as_u(l), as_u(r))
        return union(l, r)
    if isinstance(e, Comp):
        if lu or ru:
            return compose_u(as_u(l), as_u(r))
        return compose(l, r)
    raise TypeError(f"not a relation expression: {e!r}")


def union_of(value):
    return value.union_view if isinstance(value, UAdmRel) else value


def test_builtin_library_constructs():
    names = builtin_names()
    assert "cdist2" in names and "cor1" in names and "maj3" in names
    for name in names:
        spec = builtin(name)
        assert spec.describe()
        assert ("<=" in spec.describe()) == (spec.mode == "inclusion")
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("nope")
    assert builtin("cdist2", h=5).name == "cdist2(5)"
    with pytest.raises(ValueError):
        builtin("cdist2", h=0)


def test_classes_narrow_and_override():
    spec = builtin("cdist2")
    broad = spec.classes(narrow=False)
    assert broad["theta"] is RelClass.Tolerance
    assert broad["sigma"] is RelClass.UAdmissible
    tight = spec.classes()
    assert tight["theta"] is RelClass.Congruence
    assert tight["sigma"] is RelClass.U2Admissible
    over = spec.classes(override={"theta": RelClass.Tolerance})
    assert over["theta"] is RelClass.Tolerance
    with pytest.raises(ValueError):
        spec.classes(override={"bogus": RelClass.Congruence})


def test_evaluate_and_violation_pair(lattice2):
    spec = builtin("modular2", k=1)
    le = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    full = BinRel.full(2)
    lhs, rhs, sat = evaluate(lattice2, spec, {"theta": full, "R": le})
    assert sat  # full ∩ (≤∘≤) = ≤ = full ∩ ≤
    lhs, rhs, sat = evaluate(lattice2, spec, {"theta": full, "R": BinRel.diagonal(2)})
    assert sat
    # manufactured violation: x < y but the right side is the diagonal
    pair = violation_pair(le, BinRel.diagonal(2), "inclusion")
    assert pair == (0, 1)
    pair = violation_pair(BinRel.diagonal(2), le, "equality")
    assert pair == (0, 1)


def test_family_dispatch_matches_union_arithmetic(z2cube):
    """Evaluating with component families must agree, after flattening, with
    evaluating the flattened relations directly (unions distribute through
    composition, intersection with a single relation, and converse)."""
    eta1 = congruence_gen(z2cube, [(0, 1)])
    eta2 = congruence_gen(z2cube, [(0, 2)])
    theta = congruence_gen(z2cube, [(0, 4)])
    fam = UAdmRel([eta1, eta2])
    for name in ("cor1", "cor1p", "cor1pp", "cdist2", "p12b1"):
        spec = builtin(name)
        env_fam = {"theta": theta, "sigma": fam}
        env_flat = {"theta": theta, "sigma": fam.union_view}
        for side in (spec.lhs, spec.rhs):
            got = union_of(family_eval_expr(z2cube, side, env_fam))
            want = eval_expr(z2cube, side, env_flat)
            assert got == want, name
            assert eval_expr(z2cube, side, env_fam) == want, name


@pytest.mark.parametrize("alg_name", ["z2^2", "lattice_2x2"])
def test_eval_expr_matches_family_oracle(alg_name):
    """eval_expr on union views equals the union view of the family-valued
    reference evaluator, for every builtin over random assignments drawn
    from the wide and the narrow class pools."""
    alg = resolve(alg_name)
    rng = random.Random(11)
    pools = {}
    for name in builtin_names():
        spec = builtin(name)
        for narrow in (True, False):
            classes = spec.classes(narrow)
            for cls in classes.values():
                if cls not in pools:
                    pools[cls] = candidate_pool(alg, cls, DEFAULT_CAPS)[0]
            for _ in range(25):
                env = {v: rng.choice(pools[c]) for v, c in classes.items()}
                for side in (spec.lhs, spec.rhs):
                    want = union_of(family_eval_expr(alg, side, env))
                    assert eval_expr(alg, side, env) == want, (name, narrow)


def test_candidate_pool_counts(lattice2):
    pool, exact = candidate_pool(lattice2, RelClass.Congruence, DEFAULT_CAPS)
    assert exact and len(pool) == 2
    pool, exact = candidate_pool(lattice2, RelClass.Tolerance, DEFAULT_CAPS)
    assert exact and len(pool) == 2
    pool, exact = candidate_pool(lattice2, RelClass.ReflexiveAdmissible, DEFAULT_CAPS)
    assert exact and len(pool) == 4
    pool, exact = candidate_pool(lattice2, RelClass.UAdmissible, DEFAULT_CAPS)
    assert exact and len(pool) == 4
    for value in pool:
        assert class_member(lattice2, RelClass.UAdmissible, value)
    pool2, exact = candidate_pool(lattice2, RelClass.U2Admissible, DEFAULT_CAPS)
    assert exact and all(len(f.components) <= 2 for f in pool2)


# --- one enumeration per relation kind and algebra object ------------------


def counted_enumerations(monkeypatch):
    """The list of kinds candidate_pool passes to enumerate_relations, one
    entry per call, from now until the test ends."""
    kinds = []

    def counted(alg, kind, caps, _original=identities.enumerate_relations):
        kinds.append(kind)
        return _original(alg, kind, caps)

    monkeypatch.setattr(identities, "enumerate_relations", counted)
    return kinds


def test_candidate_pool_enumerates_each_kind_once_per_algebra(monkeypatch):
    """cdist3 quantifies alpha over congruences and sigma over unions of two
    congruences: one enumeration serves both variables and every later check
    on the same object, and an algebra that resolve builds anew enumerates
    again."""
    kinds = counted_enumerations(monkeypatch)
    z2cube = resolve("z2cube")
    spec = builtin("cdist3", k=1)
    first = check_for_all(z2cube, spec)
    assert first.holds is False and kinds == ["congruence"]
    again = check_for_all(z2cube, spec)
    assert again.report_form() == first.report_form() and kinds == ["congruence"]
    check_for_all(resolve("z2cube"), spec)
    assert kinds == ["congruence", "congruence"]


def test_candidate_pool_keeps_truncated_and_full_pools_apart(monkeypatch):
    """A pool cut short by max_relations is never served for the default
    caps, nor the full pool for the smaller caps, whichever comes first."""
    kinds = counted_enumerations(monkeypatch)
    small = Caps(max_relations=3)
    for order in ((small, DEFAULT_CAPS), (DEFAULT_CAPS, small)):
        alg = resolve("z2cube")
        for caps in order + order:
            pool, exact = candidate_pool(alg, RelClass.Congruence, caps)
            if caps is small:
                assert not exact and len(pool) == 4
            else:
                assert exact and len(pool) == 16
    assert kinds == ["congruence"] * 4


def test_candidate_pool_returns_a_new_list():
    """Changing a returned pool changes no later pool on the same object."""
    alg = resolve("lattice2")
    pool, _ = candidate_pool(alg, RelClass.ReflexiveAdmissible, DEFAULT_CAPS)
    want = list(pool)
    pool.reverse()
    pool.pop()
    assert candidate_pool(alg, RelClass.ReflexiveAdmissible, DEFAULT_CAPS)[0] == want
    assert len(candidate_pool(alg, RelClass.UAdmissible, DEFAULT_CAPS)[0]) == 4


def test_single_pair_closures_are_shared_per_algebra(monkeypatch):
    """Enumeration, principal checks and seed verdicts read one memo of
    single-pair closures per algebra object: once every kind has been
    enumerated, a second enumeration, principal checks and a seed verdict
    close no single pair again.  An algebra that resolve builds anew closes
    them again.  The fixtures are session-scoped, so the algebras here are
    built in the test."""
    calls = []
    for name in ("congruence_gen", "tolerance_gen", "admissible_closure"):
        def counted(alg, seed, _original=getattr(relations, name), _name=name):
            if isinstance(seed, list) and len(seed) == 1:
                calls.append(_name)
            return _original(alg, seed)
        monkeypatch.setattr(relations, name, counted)
    alg = resolve("baker4")
    for kind in KINDS:
        enumerate_relations(alg, kind)
    assert sorted(set(calls)) == ["admissible_closure", "congruence_gen", "tolerance_gen"]
    calls.clear()
    enumerate_relations(alg, "congruence")
    for name in ("cdist2", "maj3"):
        check_for_all(alg, builtin(name), strategy="principal")
        free_seed_verdict(alg, builtin(name))
    assert calls == []
    enumerate_relations(resolve("baker4"), "congruence")
    assert calls and set(calls) == {"congruence_gen"}


def test_free_seed_with_more_pairs_than_components():
    spec = builtin("cdist2")
    spec.free_seeds = {**spec.free_seeds, "sigma": (("x", "y"), ("y", "z"), ("x", "z"))}
    with pytest.raises(UnsupportedError, match=r"cdist2\(2\): seed needs more than 2 components"):
        free_seed_assignment(resolve("baker4"), spec)


def test_search_mainp_enumerates_each_kind_once_per_algebra(monkeypatch, capsys):
    """Four fixtures and six random algebras, five variants each, over two
    relation kinds: 20 enumerations, one per algebra and kind."""
    kinds = counted_enumerations(monkeypatch)
    assert cli.main(["search-mainp", "--seed", "1", "--count", "6", "--max-size", "4"]) == 0
    assert sorted(set(kinds)) == ["congruence", "reflexive_admissible"]
    assert len(kinds) == 20


def test_cdist2_holds_on_distributive_lattice(lattice2):
    v = check_for_all(lattice2, builtin("cdist2", h=2))
    assert v.holds is True and v.coverage == "exhaustive"
    # also through the broad classes (full tolerance x family sweep)
    v = check_for_all(lattice2, builtin("cdist2", h=2), narrow=False)
    assert v.holds is True and v.coverage == "exhaustive"


def test_cdist3_refuted_and_replayable(z2cube):
    for k in (1, 2):
        spec = builtin("cdist3", k=k)
        v = check_for_all(z2cube, spec)
        assert v.holds is False and v.coverage == "exhaustive"
        cex = v.counterexample
        classes = spec.classes()
        for name, value in cex["assignment"].items():
            assert class_member(z2cube, classes[name], value)
        lhs, rhs, sat = evaluate(z2cube, spec, cex["assignment"])
        assert not sat
        a, b = cex["pair"]
        assert lhs.contains(a, b) and not rhs.contains(a, b)
        form = v.report_form()
        assert form["counterexample"]["pair"] == [a, b]


def test_maj3_holds_lattice2(lattice2):
    v = check_for_all(lattice2, builtin("maj3"))
    assert v.holds is True and v.coverage == "exhaustive"


# A binary operation on 3 elements on which gen1 and gen2 fail first at the
# tenth of 16 values of the outermost variable, past the middle of its pool.
LATE_REFUTATION = FiniteAlgebra(3, [("f", 2, (1, 1, 1, 1, 1, 1, 0, 1, 2))], name="late3")


def test_sampled_strategy_is_conservative(lattice2, z2cube):
    v = check_for_all(lattice2, builtin("cdist2"), strategy="sampled", samples=30, seed=7)
    assert v.holds is not True and v.coverage == "truncated"
    # a refutable identity: sampling may find the witness, never a proof
    runs = [
        check_for_all(z2cube, builtin("cdist3", k=1), strategy="sampled", samples=60, seed=3)
        for _ in range(2)
    ]
    assert runs[0].report_form() == runs[1].report_form()
    assert runs[0].holds is not True
    if runs[0].holds is False:
        _, _, sat = evaluate(z2cube, builtin("cdist3", k=1), runs[0].counterexample["assignment"])
        assert not sat


def test_principal_strategy_matches_exhaustive(lattice2, z2, baker4, lattice_2x2):
    probes = [
        (lattice2, builtin("cdist2", h=2)),
        (z2, builtin("cdist2", h=2)),
        (baker4, builtin("cdist2", h=2)),
        (lattice2, builtin("modular2", k=2)),
        (lattice_2x2, builtin("maj3")),
        (z2, builtin("maj3")),
    ]
    for alg, spec in probes:
        want = check_for_all(alg, spec, strategy="exhaustive")
        got = check_for_all(alg, spec, strategy="principal")
        assert got.holds == want.holds, (alg.name, spec.name)
        if want.holds is False:
            _, _, sat = evaluate(alg, spec, got.counterexample["assignment"])
            assert not sat


def test_principal_rejects_starred_left_side(lattice2):
    with pytest.raises(UnsupportedError):
        check_for_all(lattice2, builtin("cor2"), strategy="principal")


def test_free_seed_unsupported(lattice2):
    free = clone_as_algebra(generate_clone(lattice2, 3))
    for name in ("cor2", "cor4", "gen3"):
        with pytest.raises(UnsupportedError):
            free_seed_assignment(free, builtin(name))


def test_free_seed_verdicts(lattice2, z2):
    free_l = clone_as_algebra(generate_clone(lattice2, 3))
    free_z = clone_as_algebra(generate_clone(z2, 3))
    for name in ("cdist2", "maj3"):
        assert free_seed_verdict(free_l, builtin(name)) is True
        assert free_seed_verdict(free_z, builtin(name)) is False
    # seed values actually live in the narrowed classes
    spec = builtin("cdist2")
    asg = free_seed_assignment(free_l, spec)
    classes = spec.classes()
    for var, value in asg.items():
        assert class_member(free_l, classes[var], value)


def test_chain_parameter_structure():
    def comp_factors(e):
        if isinstance(e, Comp):
            return comp_factors(e.left) + comp_factors(e.right)
        return 1

    spec = builtin("p12b1", m=2, n=3)
    assert comp_factors(desugar(spec.rhs)) == 2 * 3 - 2
    spec = builtin("p12b2", m=4, n=2)
    assert comp_factors(desugar(spec.rhs)) == 4 * 2 - 4
    with pytest.raises(ValueError):
        builtin("p12b1", m=2, n=1)
    with pytest.raises(ValueError):
        builtin("p12b2", m=3, n=2)  # odd alternation length
    with pytest.raises(ValueError):
        builtin("p12b2", m=2, n=1)


def test_equality_variant_agrees_where_it_should(lattice2):
    spec = builtin("cor1")
    eq = parse_spec("(tol:theta & (uadm:sigma ; sigma))^* == (theta & sigma)^*")
    eq.narrow = spec.narrow
    v_inc = check_for_all(lattice2, spec)
    v_eq = check_for_all(lattice2, eq)
    assert v_inc.holds is True and v_eq.holds is True


def test_chain_length_monotone(lattice2):
    # a longer right-hand chain only adds pairs, so holding persists
    assert check_for_all(lattice2, builtin("cdist3", k=2)).holds is True
    assert check_for_all(lattice2, builtin("cdist3", k=3)).holds is True


def test_classes_override_quantification(lattice2):
    spec = builtin("cdist2", h=2)
    v = check_for_all(lattice2, spec, classes_override={"theta": RelClass.Tolerance})
    assert v.holds is True and v.coverage == "exhaustive"
    with pytest.raises(ValueError):
        check_for_all(lattice2, spec, classes_override={"zeta": RelClass.Tolerance})


def test_left_alternating_composition_literal():
    spec = parse_spec("tol:a 3^; tol:b <= a ;^3 b")
    a, b = RVar("a"), RVar("b")
    assert spec.lhs == AltL(a, b, 3) and spec.rhs == AltR(a, b, 3)
    assert spec.describe() == "(a 3^; b) <= (a ;^3 b)"
    assert desugar(spec.lhs) == Comp(Comp(b, a), b)
    assert desugar(parse_spec("tol:a 2^; tol:b <= a").lhs) == Comp(a, b)
    with pytest.raises(SpecParseError, match="needs m >= 1"):
        parse_spec("tol:a 0^; tol:b <= a")


# --- principal strategy against the plain ordered scan ----------------------


PLAIN_CLOSURES = {
    RelClass.Congruence: congruence_gen,
    RelClass.Tolerance: tolerance_gen,
    RelClass.ReflexiveAdmissible: admissible_closure,
}


def plain_principal(alg, spec, narrow=True):
    """The principal strategy as one ordered scan, without orbits and with
    every minimal member: each point pair in order, each atom set, each
    combination of minimal members (the one-block member of a
    two-component class first, then its splits), until the pair itself
    lies outside the whole right side."""
    if spec.mode != "inclusion":
        raise UnsupportedError("principal strategy handles inclusions only")
    classes = spec.classes(narrow)
    lhs = desugar(spec.lhs)
    n = alg.size
    names = [v for v, _ in spec.variables]
    closures = {}

    def close(gen, pairs):
        key = (gen, frozenset(pairs))
        if key not in closures:
            closures[key] = gen(alg, list(pairs))
        return closures[key]

    def members(cls, pairs):
        pairs = tuple(dict.fromkeys(pairs))
        if cls in PLAIN_CLOSURES:
            return [close(PLAIN_CLOSURES[cls], pairs)]
        if not pairs:
            return [UAdmRel([BinRel.diagonal(n)])]
        if cls is RelClass.UAdmissible:
            return [UAdmRel([close(admissible_closure, [p]) for p in pairs])]
        gen = congruence_gen if cls is RelClass.UnionOfTwoCongruences else admissible_closure
        out = [UAdmRel([close(gen, pairs)])]
        for bits in range(1, 2 ** (len(pairs) - 1)):
            left = [p for i, p in enumerate(pairs) if not (bits >> i) & 1]
            right = [p for i, p in enumerate(pairs) if (bits >> i) & 1]
            out.append(UAdmRel([close(gen, left), close(gen, right)]))
        return out

    for a in range(n):
        for c in range(n):
            for atoms in _atom_sets(lhs, a, c, n):
                options = [members(classes[v], [p for w, p in atoms if w == v]) for v in names]
                for values in itertools.product(*options):
                    env = dict(zip(names, values))
                    if not eval_expr(alg, spec.rhs, env).contains(a, c):
                        return Verdict(False, "exhaustive", {"assignment": env, "pair": (a, c)})
    return Verdict(True, "exhaustive")


def principal_specs(names=None):
    """(spec, narrow) for every builtin the principal strategy supports."""
    out = []
    for name in names or builtin_names():
        spec = builtin(name)
        if spec.mode != "inclusion":
            continue
        try:
            _atom_sets(desugar(spec.lhs), 0, 0, 1)
        except UnsupportedError:
            continue
        out += [(spec, True), (spec, False)]
    return out


def assert_principal_matches_plain(alg, cases):
    for spec, narrow in cases:
        want = plain_principal(alg, spec, narrow)
        got = check_for_all(alg, spec, strategy="principal", narrow=narrow)
        assert got.report_form() == want.report_form(), (alg.name, spec.name, narrow)


@pytest.mark.parametrize("alg_name", sorted(FIXTURES))
def test_principal_matches_plain_scan_on_fixtures(alg_name):
    assert_principal_matches_plain(resolve(alg_name), principal_specs())


@pytest.mark.parametrize("alg_name", ["lattice2", "z2", "baker4", "lattice_2x2"])
def test_principal_matches_plain_scan_on_free_algebras(alg_name):
    """F(A,3): every supported builtin where the plain scan is quick, and the
    cdist2/maj3 pair (the acceptance check) on the 18-element lattices."""
    free = clone_as_algebra(generate_clone(resolve(alg_name), 3))
    free.name = f"F({alg_name},3)"
    if free.size > 10:
        cases = [(builtin("cdist2"), True), (builtin("maj3"), True)]
    else:
        cases = principal_specs()
    assert_principal_matches_plain(free, cases)


def equivariant_algebra(rng, n, arities, perm):
    """A random conservative algebra (each value is one of the arguments) for
    which the permutation perm is an automorphism: each orbit of argument
    tuples under perm gets a value, carried along the orbit.  perm^k fixes
    every argument of a tuple whose orbit has length k, so it fixes the
    value.  Conservative algebras keep many admissible relations, so the
    identities are refuted as often as they hold."""
    ops = []
    for j, r in enumerate(arities):
        table = {}
        for t in itertools.product(range(n), repeat=r):
            if t in table:
                continue
            orbit = [t]
            while (nxt := tuple(perm[a] for a in orbit[-1])) != t:
                orbit.append(nxt)
            v = rng.choice(t)
            for u in orbit:
                table[u] = v
                v = perm[v]
        ops.append((f"f{j}", r, [table[t] for t in sorted(table)]))
    return FiniteAlgebra(n, ops, name=f"equivariant{n}")


def test_principal_matches_plain_scan_on_symmetric_random_algebras():
    """Random algebras with a nontrivial automorphism, so phase 1 visits
    fewer pairs than the plain scan."""
    rng = random.Random(6)
    cases = principal_specs(["cdist2", "cdist3", "cor1", "cor1pp", "gen2", "maj3", "modular2", "vrIncl"])
    for n, arities in [(3, (2,)), (3, (1, 2)), (4, (2,)), (4, (1, 2)), (4, (2, 2)), (4, (3,)),
                      (5, (2,)), (5, (1, 2)), (6, (2,)), (6, (1, 1))]:
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        alg = equivariant_algebra(rng, n, arities, perm)
        assert_principal_matches_plain(alg, cases)


# --- phase 1's row test against whole evaluation -----------------------------


# Right sides beyond the builtins': converses over ∘, ∩ and ^*, ^* along
# paths of three steps, ∩ and ∪ over chains, constants, and bar (which the
# row test takes whole, converse included)
ROW_SPECS = [
    "adm:r & (u2:s ; adm:t) <= ((r ; s)^~ ; t^~)^~",
    "cong:a & (adm:r ; r) <= (a ; (r^~ & a)^*)^~ ; id",
    "adm:x & (adm:r ; adm:s ; adm:t) <= (r | s | t)^* & x",
    "tol:t & (adm:r ; r) <= ((t & r)^* ; all)^~ & (r ; t^~ ; r) | (r ; r)^~",
    "adm:r & (adm:s ; adm:t) <= bar(s ; t)^~ ; r | bar(r & s) & (r ; t)^*",
]


def assert_rows_match_whole(alg, cases):
    """At every pair (a, c) and each of its minimal assignments with finest
    members (those phase 1 visits), row a of the right side from the row
    test is row a of eval_expr's right side; so the bit at (a, c) is its
    membership."""
    n = alg.size
    for spec, narrow in cases:
        classes = spec.classes(narrow)
        names = [v for v, _ in spec.variables]
        rows = identities._Rows(alg, desugar(spec.rhs))
        for a, c in itertools.product(range(n), repeat=2):
            for atoms in _atom_sets(desugar(spec.lhs), a, c, n):
                options = [
                    identities._minimal_members(
                        alg, classes[v], [p for w, p in atoms if w == v], finest=True
                    )
                    for v in names
                ]
                for values in itertools.product(*options):
                    env = dict(zip(names, values))
                    whole = eval_expr(alg, spec.rhs, env).mask >> (a * n) & ((1 << n) - 1)
                    masks = {v: identities._value_mask(x) for v, x in env.items()}
                    assert rows.row(masks, a) == whole, (alg.name, spec.name, narrow, (a, c))


def test_row_test_matches_whole_evaluation_on_fixtures():
    """The fixtures, and a 4-element algebra without operations, where every
    reflexive relation is admissible and so ^* can need three steps."""
    cases = principal_specs() + [(parse_spec(text), narrow) for text in ROW_SPECS for narrow in (True, False)]
    for alg in [resolve(name) for name in sorted(FIXTURES)] + [FiniteAlgebra(4, [], name="bare4")]:
        assert_rows_match_whole(alg, cases)


def test_row_test_matches_whole_evaluation_on_symmetric_random_algebras():
    """The equivariant algebras of the principal-against-plain test above
    (same seed, shapes and permutations)."""
    rng = random.Random(6)
    cases = principal_specs() + [(parse_spec(text), True) for text in ROW_SPECS]
    for n, arities in [(3, (2,)), (3, (1, 2)), (4, (2,)), (4, (1, 2)), (4, (2, 2)), (4, (3,)),
                      (5, (2,)), (5, (1, 2)), (6, (2,)), (6, (1, 1))]:
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        assert_rows_match_whole(equivariant_algebra(rng, n, arities, perm), cases)


# --- transported closures against direct ones --------------------------------


def order(g):
    """The order of the permutation g (image tuple)."""
    k, h = 1, tuple(g)
    while h != tuple(range(len(g))):
        h, k = tuple(g[x] for x in h), k + 1
    return k


def free_algebra(name):
    free = clone_as_algebra(generate_clone(resolve(name), 3))
    free.name = f"F({name},3)"
    return free


# F(lattice2,3) (|Aut| = 6, with 3-cycles), F(z2,3) (|Aut| = 168) and random
# equivariant algebras (permutation, arities[, rng seed, 10 if not given])
# under permutations of order 3, 4, 5 and 6.  With seed 10, every moved pair
# of the order-4 and order-5 cases closes like its least image.
TRANSPORT_CASES = ["lattice2", "z2", ((1, 2, 0, 3), (2,)), ((1, 2, 3, 0), (2,), 15),
                   ((1, 2, 3, 4, 0), (1, 2), 15), ((1, 2, 0, 4, 3), (2,)),
                   ((1, 2, 0, 4, 5, 3), (1, 1))]


@pytest.mark.parametrize("case", TRANSPORT_CASES, ids=str)
def test_transported_closures_match_direct(case):
    """Every pair's closure from the orbit memo, for each closure kind, is the
    closure computed from the pair itself; some pairs are transported along
    an automorphism of order >= 3, where g and its inverse differ, and some
    moved pair's closure is not its least image's, so the transport map
    shows."""
    if isinstance(case, str):
        alg = free_algebra(case)
    else:
        perm, arities, seed = (*case, 10)[:3]
        alg = equivariant_algebra(random.Random(seed), len(perm), arities, list(perm))
    n = alg.size
    orbits = identities._OrbitClosures(alg)
    assert max(map(order, orbits.auts)) >= 3
    moved = [p for p in range(n * n) if orbits.least[p] != p]
    assert any(order(orbits.auts[orbits.which[p]]) >= 3 for p in moved)
    assert any(
        gen(alg, [divmod(p, n)]) != gen(alg, [divmod(orbits.least[p], n)])
        for gen in (admissible_closure, tolerance_gen, congruence_gen)
        for p in moved
    )
    for gen in (admissible_closure, tolerance_gen, congruence_gen):
        for p in range(n * n):
            assert orbits.close(gen, p) == gen(alg, [divmod(p, n)]), (gen.__name__, divmod(p, n))


def test_principal_matches_plain_scan_with_partial_automorphisms(monkeypatch):
    """A non-closed set of automorphisms, one 3-cycle without its inverse, and
    then the identity alone, leave every verdict and report unchanged."""
    rng = random.Random(11)
    cases = [
        (free_algebra("lattice2"), [(builtin("cdist2"), True), (builtin("maj3"), True)]),
        (equivariant_algebra(rng, 4, (2,), [1, 2, 0, 3]), principal_specs(["cdist2", "maj3", "gen2", "cor1"])),
        (equivariant_algebra(rng, 5, (1, 2), [1, 2, 0, 4, 3]), principal_specs(["cdist2", "maj3", "modular2"])),
    ]
    refuted = 0
    for alg, specs in cases:
        cycle = next(g for g in automorphisms(alg) if order(g) == 3)
        for spec, narrow in specs:
            want = plain_principal(alg, spec, narrow).report_form()
            refuted += want["holds"] is False
            for subset in ([cycle], [tuple(range(alg.size))]):
                monkeypatch.setattr(identities, "automorphisms", lambda _alg, s=subset: list(s))
                got = check_for_all(alg, spec, strategy="principal", narrow=narrow)
                assert got.report_form() == want, (alg.name, spec.name, narrow, subset)
    assert refuted


def test_principal_refutations_report_violating_pairs():
    """On random binary algebras of 3 and 4 elements, every principal
    refutation's pair lies in the left side and outside the right side under
    its assignment, as verify requires."""
    rng = random.Random(2)
    algebras = [_random_algebra(rng.randrange(3, 5), rng, f"rnd{i}") for i in range(100)]
    refuted = 0
    for text in ["adm:r ; adm:s <= s ; r", "cong:a ; adm:r <= r ; a",
                 "adm:r & (adm:s ; adm:t) <= r & s ; r & t"]:
        spec = parse_spec(text)
        for alg in algebras:
            v = check_for_all(alg, spec, strategy="principal")
            if v.holds is False:
                refuted += 1
                lhs, rhs, _ = evaluate(alg, spec, v.counterexample["assignment"])
                pair = v.counterexample["pair"]
                assert lhs.contains(*pair) and not rhs.contains(*pair), (alg.name, text, pair)
    assert refuted


def test_principal_refutations_lie_at_orbit_representatives(monkeypatch):
    """Phase 2 re-decides phase 1's pair alone, since the plain ordered
    scan's first violating pair q has a violating least image least[q] <= q,
    so least[q] = q.  On the principal differential corpus (fixtures, free
    algebras, equivariant algebras and partial automorphism sets), every
    refutation's pair is its own least image, and some of those algebras
    move pairs."""
    corpus = [(resolve(name), principal_specs()) for name in sorted(FIXTURES)]
    for name in ["lattice2", "z2", "baker4", "lattice_2x2"]:
        free = free_algebra(name)
        big = [(builtin("cdist2"), True), (builtin("maj3"), True)]
        corpus.append((free, big if free.size > 10 else principal_specs()))
    rng = random.Random(6)
    cases = principal_specs(["cdist2", "cdist3", "cor1", "cor1pp", "gen2", "maj3", "modular2", "vrIncl"])
    for n, arities in [(3, (2,)), (3, (1, 2)), (4, (2,)), (4, (1, 2)), (4, (2, 2)), (4, (3,)),
                      (5, (2,)), (5, (1, 2)), (6, (2,)), (6, (1, 1))]:
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        corpus.append((equivariant_algebra(rng, n, arities, perm), cases))
    rng = random.Random(11)
    partial = [
        (free_algebra("lattice2"), [(builtin("cdist2"), True), (builtin("maj3"), True)]),
        (equivariant_algebra(rng, 4, (2,), [1, 2, 0, 3]), principal_specs(["cdist2", "maj3", "gen2", "cor1"])),
        (equivariant_algebra(rng, 5, (1, 2), [1, 2, 0, 4, 3]), principal_specs(["cdist2", "maj3", "modular2"])),
    ]
    runs = [(alg, specs, None) for alg, specs in corpus]
    for alg, specs in partial:
        cycle = next(g for g in automorphisms(alg) if order(g) == 3)
        runs += [(alg, specs, [cycle]), (alg, specs, [tuple(range(alg.size))])]
    moved = 0
    for alg, specs, auts in runs:
        if auts is not None:
            monkeypatch.setattr(identities, "automorphisms", lambda _alg, s=auts: list(s))
        least = identities._OrbitClosures(alg).least
        for spec, narrow in specs:
            v = check_for_all(alg, spec, strategy="principal", narrow=narrow)
            if v.holds is False:
                a, c = v.counterexample["pair"]
                p = a * alg.size + c
                assert least[p] == p, (alg.name, spec.name, narrow, auts, (a, c))
                moved += least != list(range(alg.size**2))
        monkeypatch.undo()
    assert moved


@pytest.mark.parametrize("cls", [RelClass.U2Admissible, RelClass.UnionOfTwoCongruences])
def test_minimal_members_close_each_block_directly(cls):
    """A two-component class with three distinct pairs: each block of every
    member, one-block or split, is the closure of its pairs, and some
    two-pair block's closure is more than the union of its pairs'."""
    alg = resolve("lattice_n5")
    gen = congruence_gen if cls is RelClass.UnionOfTwoCongruences else admissible_closure
    pairs = [(0, 1), (2, 3), (1, 4)]
    splits = [(pairs,)] + [
        ([p for i, p in enumerate(pairs) if not bits >> i & 1], [p for i, p in enumerate(pairs) if bits >> i & 1])
        for bits in range(1, 4)
    ]
    want = [UAdmRel([gen(alg, block) for block in split]) for split in splits]
    assert identities._minimal_members(alg, cls, pairs + [(0, 1)], finest=False) == want
    assert identities._minimal_members(alg, cls, pairs, finest=True) == want[1:]
    orbits = identities._OrbitClosures(alg)
    assert identities._minimal_members(alg, cls, pairs, False, orbits.close) == want
    assert any(
        gen(alg, [p, q]).mask != gen(alg, [p]).mask | gen(alg, [q]).mask
        for p, q in itertools.combinations(pairs, 2)
    )


# --- the block scan against the plain product loop --------------------------


BLOCK_CELLS = identities._BLOCK_CELLS


def plain_scan(alg, spec, names, pools):
    """The exhaustive scan as one loop over product(*pools) that evaluates
    each assignment on its own: the first violation (assignment, pair), or
    None, and the number of assignments evaluated."""
    count = 0
    for values in itertools.product(*pools):
        count += 1
        env = dict(zip(names, values))
        lhs, rhs, sat = evaluate(alg, spec, env)
        if not sat:
            return (env, violation_pair(lhs, rhs, spec.mode)), count
    return None, count


def assert_scan_matches_plain(monkeypatch, alg, spec, override=None):
    """_scan finds the same first violation as the plain loop, with the same
    pool objects.  Blocks of 7 and 1 assignments, which bind a longer prefix
    of the variables to masks, are compared too where the plain loop
    evaluates at most 5000 assignments; at one assignment per block the scan
    is as slow as the loop."""
    classes = spec.classes(override=override)
    names = [v for v, _ in spec.variables]
    pools = [candidate_pool(alg, classes[v], DEFAULT_CAPS)[0] for v in names]
    want, count = plain_scan(alg, spec, names, pools)
    for cells in (BLOCK_CELLS, 7, 1) if count <= 5000 else (BLOCK_CELLS,):
        monkeypatch.setattr(identities, "_BLOCK_CELLS", cells)
        got = _scan(alg, spec, names, pools)
        where = (alg.name, spec.name, override, cells)
        if want is None:
            assert got is None, where
            continue
        assert got is not None, where
        assert got[1] == want[1], where
        assert list(got[0]) == names, where
        assert all(got[0][v] is want[0][v] for v in names), where
    return want


# Exhaustive checks that take over a second with the plain loop.
SLOW_SCANS = {("baker4", "baker4"), ("lattice_2x2", "baker4"), ("lattice_n5", "baker4")}


@pytest.mark.parametrize("alg_name", sorted(FIXTURES))
def test_scan_matches_plain_loop_on_fixtures(monkeypatch, alg_name):
    alg = resolve(alg_name)
    for name in builtin_names():
        if (alg_name, name) not in SLOW_SCANS:
            assert_scan_matches_plain(monkeypatch, alg, builtin(name))


def test_scan_matches_plain_loop_on_refutations(monkeypatch, z2cube, lattice2):
    """The z2cube refutations among the benchmark's check queries; three
    builtins that first fail past the middle of the outermost pool; and an
    equality that first fails at the last of lattice2's two congruences, in
    the last block of the scan."""
    for k in range(1, 7):
        assert assert_scan_matches_plain(monkeypatch, z2cube, builtin("cdist3", k=k))
    assert assert_scan_matches_plain(monkeypatch, z2cube, builtin("cor1"))
    for name in ("gen1", "gen2", "vrIncl"):
        assert assert_scan_matches_plain(monkeypatch, LATE_REFUTATION, builtin(name))
    spec = parse_spec("cong:a & (adm:b ; adm:c) == b ; c")
    assert assert_scan_matches_plain(monkeypatch, lattice2, spec)


def test_scan_matches_plain_loop_on_object_masks(monkeypatch):
    """Past n^2 = 64 a mask does not fit one machine word and the scan binds
    object arrays of Python ints.  On the square of the chain lattice
    0 < 1 < 2 (9 elements): arith4, an equality refuted in the middle of
    the scan; cor1pp, which holds through ^~ and ^*; and maj3, which holds
    over two broadcast axes."""
    chain = FiniteAlgebra(3, [
        ("meet", 2, [min(a, b) for a in range(3) for b in range(3)]),
        ("join", 2, [max(a, b) for a in range(3) for b in range(3)]),
    ], name="chain3")
    alg = power(chain, 2)
    dtypes = set()

    def spy(alg, sides, mode, env, _original=identities._holds_at):
        dtypes.update(v.dtype for v in env.values() if isinstance(v, np.ndarray))
        return _original(alg, sides, mode, env)

    monkeypatch.setattr(identities, "_holds_at", spy)
    assert assert_scan_matches_plain(monkeypatch, alg, builtin("arith4"))
    for name in ("cor1pp", "maj3"):
        assert assert_scan_matches_plain(monkeypatch, alg, builtin(name)) is None
    assert dtypes == {np.dtype(object)}
    assert_scan_matches_plain(monkeypatch, resolve("lattice_2x2"), builtin("cor1pp"))
    assert dtypes == {np.dtype(object), np.dtype(np.uint64)}


def test_scan_matches_plain_loop_on_search_mainp_variants(monkeypatch):
    """The five search-mainp variants on random algebras of sizes 2 to 4."""
    variants = [
        (builtin("cdist2", h=2), None),
        (builtin("cdist2", h=2), {"theta": RelClass.ReflexiveAdmissible}),
        (builtin("cdist2", h=2), {"theta": RelClass.UAdmissible}),
        (builtin("modular2", k=2), None),
        (builtin("modular2", k=2), {"theta": RelClass.ReflexiveAdmissible}),
    ]
    rng = random.Random(8)
    refuted = 0
    for i in range(30):
        alg = _random_algebra(rng.randrange(2, 5), rng, f"rnd{i}")
        for spec, override in variants:
            refuted += assert_scan_matches_plain(monkeypatch, alg, spec, override) is not None
    assert 0 < refuted < 150


# --- one traversal against the per-class walkers it replaced ----------------
#
# The ref_* functions are the isinstance walkers that desugar, expr_vars,
# expr_str and enumerate_expansions were written with before nodes,
# map_children and _FORMS; they stay here as oracles.


def ref_desugar(e):
    if isinstance(e, (RVar, RConst)):
        return e
    if isinstance(e, Conv):
        return Conv(ref_desugar(e.arg))
    if isinstance(e, Star):
        return Star(ref_desugar(e.arg))
    if isinstance(e, BarOp):
        return BarOp(ref_desugar(e.arg))
    if isinstance(e, (Inter, UnionOp, Comp)):
        return type(e)(ref_desugar(e.left), ref_desugar(e.right))
    if isinstance(e, Pow):
        if e.h < 1:
            raise ValueError("relation power needs h >= 1")
        a = ref_desugar(e.arg)
        return functools.reduce(Comp, [a] * e.h)
    if isinstance(e, AltR):
        if e.m < 1:
            raise ValueError("alternating composition needs m >= 1")
        l, r = ref_desugar(e.left), ref_desugar(e.right)
        return functools.reduce(Comp, [l if i % 2 == 0 else r for i in range(e.m)])
    if isinstance(e, AltL):
        if e.m % 2 == 0:
            return ref_desugar(AltR(e.left, e.right, e.m))
        return ref_desugar(AltR(e.right, e.left, e.m))
    raise TypeError(f"not a relation expression: {e!r}")


def ref_expr_vars(e):
    out = []

    def walk(e):
        if isinstance(e, RVar):
            if e.name not in out:
                out.append(e.name)
        elif isinstance(e, RConst):
            pass
        elif isinstance(e, (Conv, Star, BarOp, Pow)):
            walk(e.arg)
        else:
            walk(e.left)
            walk(e.right)

    walk(e)
    return out


def ref_expr_str(e):
    if isinstance(e, RVar):
        return e.name
    if isinstance(e, RConst):
        return e.which
    if isinstance(e, Conv):
        return f"{ref_expr_str(e.arg)}^~"
    if isinstance(e, Star):
        return f"({ref_expr_str(e.arg)})^*"
    if isinstance(e, BarOp):
        return f"bar({ref_expr_str(e.arg)})"
    if isinstance(e, Inter):
        return f"({ref_expr_str(e.left)} & {ref_expr_str(e.right)})"
    if isinstance(e, UnionOp):
        return f"({ref_expr_str(e.left)} | {ref_expr_str(e.right)})"
    if isinstance(e, Comp):
        return f"({ref_expr_str(e.left)} ; {ref_expr_str(e.right)})"
    if isinstance(e, AltR):
        return f"({ref_expr_str(e.left)} ;^{e.m} {ref_expr_str(e.right)})"
    if isinstance(e, AltL):
        return f"({ref_expr_str(e.left)} {e.m}^; {ref_expr_str(e.right)})"
    if isinstance(e, Pow):
        return f"pow({ref_expr_str(e.arg)},{e.h})"
    raise TypeError(f"not a relation expression: {e!r}")


def ref_check_expansion_operators(e):
    if isinstance(e, (RVar, RConst)):
        return
    if isinstance(e, Conv):
        ref_check_expansion_operators(e.arg)
        return
    if isinstance(e, (Inter, Comp)):
        ref_check_expansion_operators(e.left)
        ref_check_expansion_operators(e.right)
        return
    if isinstance(e, (Star, UnionOp, BarOp)):
        raise UnsupportedError("expansions are defined for inclusions built from ∩, ∘ and ^⌣ only")
    raise TypeError(f"not a relation expression: {e!r}")


def ref_count_occurrences(e, names, counts):
    if isinstance(e, RVar):
        if e.name in names:
            counts[e.name] = counts.get(e.name, 0) + 1
    elif isinstance(e, RConst):
        pass
    elif isinstance(e, Conv):
        ref_count_occurrences(e.arg, names, counts)
    else:
        ref_count_occurrences(e.left, names, counts)
        ref_count_occurrences(e.right, names, counts)


def ref_substitute_occurrences(e, names, pick, counters):
    if isinstance(e, RVar):
        if e.name in names:
            counters[e.name] = counters.get(e.name, 0) + 1
            return RVar(pick(e.name, counters[e.name]))
        return e
    if isinstance(e, RConst):
        return e
    if isinstance(e, Conv):
        return Conv(ref_substitute_occurrences(e.arg, names, pick, counters))
    return type(e)(
        ref_substitute_occurrences(e.left, names, pick, counters),
        ref_substitute_occurrences(e.right, names, pick, counters),
    )


REF_U_CLASSES = (RelClass.UAdmissible, RelClass.U2Admissible, RelClass.UnionOfTwoCongruences)


def ref_expansions(spec):
    """The report forms of enumerate_expansions(spec), from the walkers."""
    if spec.mode != "inclusion":
        raise UnsupportedError("expansions are defined for inclusions")
    lhs, rhs = ref_desugar(spec.lhs), ref_desugar(spec.rhs)
    ref_check_expansion_operators(lhs)
    ref_check_expansion_operators(rhs)
    u_vars = [v for v, c in spec.variables if c in REF_U_CLASSES]
    lhs_counts, rhs_counts = {}, {}
    ref_count_occurrences(lhs, set(u_vars), lhs_counts)
    ref_count_occurrences(rhs, set(u_vars), rhs_counts)
    for v in u_vars:
        if lhs_counts.get(v, 0) == 0 and rhs_counts.get(v, 0) > 0:
            raise UnsupportedError(f"variable {v} occurs only on the right side; no group to map into")
    new_lhs = ref_substitute_occurrences(lhs, set(u_vars), lambda v, i: f"{v}_{i}", {})
    fresh = [(f"{v}_{i}", RelClass.ReflexiveAdmissible)
             for v in u_vars for i in range(1, lhs_counts.get(v, 0) + 1)]
    plain = [(v, c) for v, c in spec.variables if c not in REF_U_CLASSES]
    narrow = {v: c for v, c in spec.narrow.items() if v in dict(plain)}
    active = [v for v in u_vars if rhs_counts.get(v, 0) > 0]
    space = [list(itertools.product(range(1, lhs_counts[v] + 1), repeat=rhs_counts[v])) for v in active]
    out = []
    for combo in itertools.product(*space):
        choice = dict(zip(active, combo))
        new_rhs = ref_substitute_occurrences(
            rhs, set(active), lambda v, i: f"{v}_{choice[v][i - 1]}", {})
        ident = IdentitySpec(f"{spec.name}.expansion", tuple(plain) + tuple(fresh),
                             new_lhs, new_rhs, "inclusion", narrow)
        out.append(ExpansionSpec(spec.name, choice, ident).report_form())
    return out


def outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def expansion_forms(spec):
    return [x.report_form() for x in enumerate_expansions(spec)]


def assert_traversal_matches_walkers(spec):
    for e in (spec.lhs, spec.rhs):
        assert outcome(desugar, e) == outcome(ref_desugar, e), e
        assert expr_vars(e) == ref_expr_vars(e), e
        assert expr_str(e) == ref_expr_str(e), e
    assert outcome(expansion_forms, spec) == outcome(ref_expansions, spec), spec.describe()


# Literals that between them use every operator: m^; and ;^m, bar, id, all,
# pow, ^~, ^*, &, | and ;, with U-variables on both sides.
OPERATOR_LITERALS = [
    "tol:a 3^; tol:b <= a ;^3 b",
    "adm:a & id <= bar(a) | all ; pow(a^~, 2)",
    "uadm:s & (uadm:t ; s^~) <= pow(s & t, 3) ; (t 2^; s)",
    "uadm:s & (ucong2:t ;^3 s) <= s & t 3^; s & t^~",
    "cong:a & (u2:s ; s ; s) <= a & s ;^4 a & s^~",
    "uadm:s & (uadm:t ; s) <= (s ; t)^*",
    "uadm:s <= s | id",
    "uadm:s & all <= bar(s)",
    "tol:a <= uadm:s",
    "uadm:s ; s == s",
]


def test_traversal_matches_walkers_on_builtins_and_literals():
    specs = [builtin(name) for name in builtin_names()]
    specs += [builtin("p12c2", m=3, k=3), builtin("malA", f=(2, 1, 2)), builtin("cdist2", h=3)]
    specs += [parse_spec(text) for text in OPERATOR_LITERALS]
    expansions = 0
    for spec in specs:
        assert_traversal_matches_walkers(spec)
        forms = outcome(expansion_forms, spec)
        expansions += len(forms) if isinstance(forms, list) else 0
    assert expansions > 50


def test_map_children_calls_left_before_right():
    seen = []

    def upper(c):
        seen.append(c.name)
        return RVar(c.name.upper())

    assert map_children(AltR(RVar("a"), RVar("b"), 3), upper) == AltR(RVar("A"), RVar("B"), 3)
    assert map_children(Pow(RVar("c"), 2), upper) == Pow(RVar("C"), 2)
    assert seen == ["a", "b", "c"]
    leaf = RConst("id")
    assert map_children(leaf, upper) is leaf
    assert [type(x) for x in nodes(Comp(Conv(RVar("a")), RConst("all")))] == [Comp, Conv, RVar, RConst]
    for f in (desugar, expr_str, expr_vars):
        with pytest.raises(TypeError, match="not a relation expression"):
            f(Comp(RVar("a"), "b"))


AST_VARS = ("s", "t", "u")


def ast_strategy(unary, binary, chains, low):
    small = st.integers(min_value=low, max_value=3)
    leaves = st.one_of(st.sampled_from(AST_VARS).map(RVar), st.sampled_from(("id", "all")).map(RConst))

    def extend(sub):
        return st.one_of(
            *(st.builds(c, sub) for c in unary),
            *(st.builds(c, sub, sub) for c in binary),
            *(st.builds(c, sub, sub, small) for c in chains),
            st.builds(Pow, sub, small),
        )

    return st.recursive(leaves, extend, max_leaves=5)


ALL_OPS = ast_strategy((Conv, Star, BarOp), (Inter, UnionOp, Comp), (AltR, AltL), 0)
# The operators expansions accept, with valid chain lengths, so most drawn
# specs have expansions.
EXPANSION_OPS = ast_strategy((Conv,), (Inter, Comp), (AltR, AltL), 1)


def copying_expr_str(e):
    """expr_str as it was before it read a node's own fields: it printed a
    copy of the node, rebuilt by map_children with its children printed."""
    return identities._FORMS[type(identities._node(e))].format_map(
        vars(map_children(e, copying_expr_str))
    )


# one expression holding every node class
EVERY_NODE = AltL(
    AltR(Inter(Conv(RVar("s")), Star(RConst("id"))), UnionOp(BarOp(RVar("t")), Comp(Pow(RConst("all"), 2), RVar("u"))), 3),
    RVar("s"),
    2,
)


@settings(max_examples=300, deadline=None)
@given(ALL_OPS)
@example(EVERY_NODE)
def test_traversal_matches_walkers_on_random_asts(e):
    assert outcome(desugar, e) == outcome(ref_desugar, e)
    assert expr_vars(e) == ref_expr_vars(e)
    assert expr_str(e) == ref_expr_str(e) == copying_expr_str(e)


def test_every_node_example_covers_every_node_class():
    assert {type(x) for x in nodes(EVERY_NODE)} == set(identities._FORMS)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(EXPANSION_OPS, ALL_OPS),
    st.one_of(EXPANSION_OPS, ALL_OPS),
    st.lists(st.sampled_from(list(RelClass) + [RelClass.UAdmissible] * 3), min_size=3, max_size=3),
)
def test_expansions_match_walkers_on_random_specs(lhs, rhs, classes):
    spec = IdentitySpec("random", tuple(zip(AST_VARS, classes)), lhs, rhs)
    sides = [outcome(ref_desugar, side) for side in (lhs, rhs)]
    if all(outcome(ref_check_expansion_operators, side) is None for side in sides):
        counts = [{}, {}]
        for side, c in zip(sides, counts):
            ref_count_occurrences(side, set(AST_VARS), c)
        assume(math.prod(counts[0].get(v, 1) ** counts[1].get(v, 0) for v in AST_VARS) <= 256)
    assert_traversal_matches_walkers(spec)


# --- one class table against the if-chain it replaced ------------------------


def ref_class_member(alg, cls, value):
    """class_member as an if-chain over the classes, before _SHAPES."""
    if cls in (RelClass.Congruence, RelClass.Tolerance, RelClass.ReflexiveAdmissible):
        if not isinstance(value, BinRel):
            return False
        if cls is RelClass.Congruence:
            return is_congruence(alg, value)
        if cls is RelClass.Tolerance:
            return is_tolerance(alg, value)
        return is_reflexive_admissible(alg, value)
    if not isinstance(value, UAdmRel):
        return False
    comps = value.components
    if cls is RelClass.U2Admissible and len(comps) > 2:
        return False
    if cls is RelClass.UnionOfTwoCongruences:
        return len(comps) <= 2 and all(is_congruence(alg, c) for c in comps)
    return all(is_reflexive_admissible(alg, c) for c in comps)


def test_every_class_has_a_shape():
    shapes = identities._SHAPES
    assert set(shapes) == set(RelClass) and set(CLASS_PREFIXES.values()) <= set(shapes)
    for kind, most in shapes.values():
        assert kind in KINDS and most in (None, 0, 2)
    assert identities._PLAIN == (RelClass.Congruence, RelClass.Tolerance, RelClass.ReflexiveAdmissible)


@pytest.mark.parametrize("alg_name", sorted(FIXTURES))
def test_class_member_matches_if_chain(alg_name):
    """Every pool value of every class, tested against every class, and the
    wrong shapes: plain relations for the U classes, families for the plain
    ones, three-component families for u2 and ucong2, and a relation that
    is in no class."""
    alg = resolve(alg_name)
    pools = {cls: candidate_pool(alg, cls, DEFAULT_CAPS)[0] for cls in RelClass}
    triples = []
    for cls in (RelClass.Congruence, RelClass.ReflexiveAdmissible):
        families = (UAdmRel(t) for t in itertools.combinations(pools[cls], 3))
        triples += list(itertools.islice((u for u in families if len(u.components) == 3), 5))
    if alg_name in ("baker4", "lattice_2x2", "lattice_n5", "z2cube"):
        assert triples
    stray = BinRel.from_pairs(alg.size, [(0, alg.size - 1)])
    values = [v for pool in pools.values() for v in pool] + triples + [stray, UAdmRel([stray])]
    for value in values:
        for cls in RelClass:
            assert class_member(alg, cls, value) == ref_class_member(alg, cls, value), (cls, value)
    assert not any(class_member(alg, cls, t) for t in triples
                   for cls in (RelClass.U2Admissible, RelClass.UnionOfTwoCongruences))
