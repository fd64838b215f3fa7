import random

import pytest

from relkit.caps import DEFAULT_CAPS, Caps
from relkit.fixtures import resolve
from relkit.freeclone import clone_as_algebra, generate_clone
from relkit.identities import (
    AltL,
    AltR,
    BarOp,
    Comp,
    Conv,
    Inter,
    Pow,
    RConst,
    RVar,
    RelClass,
    Star,
    UnionOp,
    UnsupportedError,
    builtin,
    builtin_names,
    candidate_pool,
    check_for_all,
    class_member,
    desugar,
    eval_expr,
    evaluate,
    free_seed_assignment,
    free_seed_verdict,
    violation_pair,
)
from relkit.parser import SpecParseError, parse_spec
from relkit.relations import (
    BinRel,
    admissible_closure,
    compose,
    congruence_gen,
    converse,
    intersect,
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


def family_eval_expr(alg, e, env, caps=DEFAULT_CAPS):
    """Reference evaluator that keeps families as values: every operator on a
    family acts componentwise and returns a family (a UAdmRel), so a family
    stays visible up to the root.  eval_expr must equal its union view."""
    if isinstance(e, RVar):
        return env[e.name]
    if isinstance(e, RConst):
        return BinRel.diagonal(alg.size) if e.which == "id" else BinRel.full(alg.size)
    if isinstance(e, Conv):
        v = family_eval_expr(alg, e.arg, env, caps)
        return converse_u(v) if isinstance(v, UAdmRel) else converse(v)
    if isinstance(e, Star):
        v = family_eval_expr(alg, e.arg, env, caps)
        return transitive_closure_u(v) if isinstance(v, UAdmRel) else transitive_closure(v)
    if isinstance(e, BarOp):
        v = family_eval_expr(alg, e.arg, env, caps)
        if isinstance(v, UAdmRel):
            return bar_u(alg, v, caps)
        return admissible_closure(alg, v, caps)
    if isinstance(e, Pow):
        v = family_eval_expr(alg, e.arg, env, caps)
        out = v
        for _ in range(e.h - 1):
            out = compose_u(out, v) if isinstance(out, UAdmRel) else compose(out, v)
        return out
    if isinstance(e, (AltR, AltL)):
        return family_eval_expr(alg, desugar(e), env, caps)
    l = family_eval_expr(alg, e.left, env, caps)
    r = family_eval_expr(alg, e.right, env, caps)
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


def test_parallel_scan_matches_serial(z2cube):
    spec = builtin("cdist3", k=2)
    v1 = check_for_all(z2cube, spec, jobs=1)
    v2 = check_for_all(z2cube, spec, jobs=2)
    assert v1.report_form() == v2.report_form()


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
