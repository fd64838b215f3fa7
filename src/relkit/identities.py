"""Relational identities: expression AST, quantified checking, builtin library.

Conventions baked into the builtins: juxtaposition is intersection (so
`ΘR` reads Θ∩R), exponents bind tighter (`Θσ^∘h` is Θ∩(σ^∘h)), and ∘_m /
_m∘ are the right/left alternating compositions with m factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from concurrent.futures import ProcessPoolExecutor
from enum import Enum
from functools import reduce

from .algebra import FiniteAlgebra
from .caps import DEFAULT_CAPS, Caps
from .relations import (
    BinRel,
    admissible_closure,
    compose,
    converse,
    enumerate_relations,
    intersect,
    is_congruence,
    is_reflexive_admissible,
    is_tolerance,
    congruence_gen,
    tolerance_gen,
    transitive_closure,
    union,
)
from .uadmissible import (
    UAdmRel,
    as_u,
    bar_u,
    compose_u,
    converse_u,
    enumerate_u,
    intersect_tol,
    intersect_u,
    pair_families,
    transitive_closure_u,
    union_u,
)


class UnsupportedError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class RVar:
    name: str


@dataclass(frozen=True)
class RConst:
    which: str  # "id" (diagonal) or "all" (full relation)


@dataclass(frozen=True)
class Conv:
    arg: "RelExpr"


@dataclass(frozen=True)
class Star:
    arg: "RelExpr"


@dataclass(frozen=True)
class BarOp:
    arg: "RelExpr"


@dataclass(frozen=True)
class Inter:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class UnionOp:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class Comp:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class AltR:
    """left ∘_m right: m alternating factors starting from left."""

    left: "RelExpr"
    right: "RelExpr"
    m: int


@dataclass(frozen=True)
class AltL:
    """left _m∘ right: m alternating factors ending ...∘left∘right."""

    left: "RelExpr"
    right: "RelExpr"
    m: int


@dataclass(frozen=True)
class Pow:
    arg: "RelExpr"
    h: int


RelExpr = RVar | RConst | Conv | Star | BarOp | Inter | UnionOp | Comp | AltR | AltL | Pow


def comp_chain(*exprs: RelExpr) -> RelExpr:
    return reduce(Comp, exprs)


def desugar(e: RelExpr) -> RelExpr:
    """Expand Pow/AltR/AltL into explicit composition chains."""
    if isinstance(e, (RVar, RConst)):
        return e
    if isinstance(e, Conv):
        return Conv(desugar(e.arg))
    if isinstance(e, Star):
        return Star(desugar(e.arg))
    if isinstance(e, BarOp):
        return BarOp(desugar(e.arg))
    if isinstance(e, (Inter, UnionOp, Comp)):
        return type(e)(desugar(e.left), desugar(e.right))
    if isinstance(e, Pow):
        if e.h < 1:
            raise ValueError("relation power needs h >= 1")
        a = desugar(e.arg)
        return comp_chain(*([a] * e.h))
    if isinstance(e, AltR):
        if e.m < 1:
            raise ValueError("alternating composition needs m >= 1")
        l, r = desugar(e.left), desugar(e.right)
        return comp_chain(*(l if i % 2 == 0 else r for i in range(e.m)))
    if isinstance(e, AltL):
        if e.m % 2 == 0:
            return desugar(AltR(e.left, e.right, e.m))
        return desugar(AltR(e.right, e.left, e.m))
    raise TypeError(f"not a relation expression: {e!r}")


def expr_vars(e: RelExpr) -> list[str]:
    """Variable names in first-occurrence order."""
    out: list[str] = []

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


def expr_str(e: RelExpr) -> str:
    if isinstance(e, RVar):
        return e.name
    if isinstance(e, RConst):
        return e.which
    if isinstance(e, Conv):
        return f"{expr_str(e.arg)}^~"
    if isinstance(e, Star):
        return f"({expr_str(e.arg)})^*"
    if isinstance(e, BarOp):
        return f"bar({expr_str(e.arg)})"
    if isinstance(e, Inter):
        return f"({expr_str(e.left)} & {expr_str(e.right)})"
    if isinstance(e, UnionOp):
        return f"({expr_str(e.left)} | {expr_str(e.right)})"
    if isinstance(e, Comp):
        return f"({expr_str(e.left)} ; {expr_str(e.right)})"
    if isinstance(e, AltR):
        return f"({expr_str(e.left)} ;^{e.m} {expr_str(e.right)})"
    if isinstance(e, AltL):
        return f"({expr_str(e.left)} {e.m}^; {expr_str(e.right)})"
    if isinstance(e, Pow):
        return f"pow({expr_str(e.arg)},{e.h})"
    raise TypeError(f"not a relation expression: {e!r}")


# ---------------------------------------------------------------------------
# variable classes and identity specs


class RelClass(Enum):
    Congruence = "Congruence"
    Tolerance = "Tolerance"
    ReflexiveAdmissible = "ReflexiveAdmissible"
    UAdmissible = "UAdmissible"
    U2Admissible = "U2Admissible"
    UnionOfTwoCongruences = "UnionOfTwoCongruences"


_PLAIN = (RelClass.Congruence, RelClass.Tolerance, RelClass.ReflexiveAdmissible)


@dataclass
class IdentitySpec:
    name: str
    variables: tuple  # ((name, RelClass), ...)
    lhs: RelExpr
    rhs: RelExpr
    mode: str = "inclusion"  # or "equality"
    narrow: dict = field(default_factory=dict)  # marked equivalent narrower classes
    free_seeds: dict | None = None  # var -> tuple of generator-letter pairs
    eq_variant: "IdentitySpec | None" = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("inclusion", "equality"):
            raise ValueError(f"bad mode {self.mode!r}")
        declared = {v for v, _ in self.variables}
        used = set(expr_vars(self.lhs)) | set(expr_vars(self.rhs))
        if not used <= declared:
            raise ValueError(f"unbound variables: {sorted(used - declared)}")

    def classes(self, narrow: bool = True, override: dict | None = None) -> dict:
        out = dict(self.variables)
        if narrow:
            out.update({v: c for v, c in self.narrow.items() if v in out})
        if override:
            unknown = set(override) - set(out)
            if unknown:
                raise ValueError(f"override for unknown variables: {sorted(unknown)}")
            out.update(override)
        return out

    def describe(self) -> str:
        rel = "<=" if self.mode == "inclusion" else "=="
        return f"{expr_str(self.lhs)} {rel} {expr_str(self.rhs)}"


# ---------------------------------------------------------------------------
# evaluation


def class_member(alg: FiniteAlgebra, cls: RelClass, value, caps: Caps = DEFAULT_CAPS) -> bool:
    if cls in _PLAIN:
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


def view(value) -> BinRel:
    return value.union_view if isinstance(value, UAdmRel) else value


def eval_expr(alg: FiniteAlgebra, e: RelExpr, env: dict, caps: Caps = DEFAULT_CAPS):
    """Value is a BinRel or, when families are involved, a UAdmRel."""
    if isinstance(e, RVar):
        try:
            return env[e.name]
        except KeyError:
            raise ValueError(f"unassigned variable {e.name!r}") from None
    if isinstance(e, RConst):
        return BinRel.diagonal(alg.size) if e.which == "id" else BinRel.full(alg.size)
    if isinstance(e, Conv):
        v = eval_expr(alg, e.arg, env, caps)
        return converse_u(v) if isinstance(v, UAdmRel) else converse(v)
    if isinstance(e, Star):
        v = eval_expr(alg, e.arg, env, caps)
        return transitive_closure_u(v) if isinstance(v, UAdmRel) else transitive_closure(v)
    if isinstance(e, BarOp):
        v = eval_expr(alg, e.arg, env, caps)
        if isinstance(v, UAdmRel):
            return bar_u(alg, v, caps)
        return admissible_closure(alg, v, caps)
    if isinstance(e, Pow):
        v = eval_expr(alg, e.arg, env, caps)
        out = v
        for _ in range(e.h - 1):
            out = compose_u(out, v) if isinstance(out, UAdmRel) else compose(out, v)
        return out
    if isinstance(e, (AltR, AltL)):
        return eval_expr(alg, desugar(e), env, caps)
    l = eval_expr(alg, e.left, env, caps)
    r = eval_expr(alg, e.right, env, caps)
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


def evaluate(alg: FiniteAlgebra, spec: IdentitySpec, assignment: dict, caps: Caps = DEFAULT_CAPS):
    """Returns (lhs view, rhs view, satisfied)."""
    lhs = view(eval_expr(alg, spec.lhs, assignment, caps))
    rhs = view(eval_expr(alg, spec.rhs, assignment, caps))
    if spec.mode == "inclusion":
        sat = lhs.mask | rhs.mask == rhs.mask
    else:
        sat = lhs.mask == rhs.mask
    return lhs, rhs, sat


def violation_pair(lhs: BinRel, rhs: BinRel, mode: str):
    diff = lhs.mask & ~rhs.mask
    if diff == 0 and mode == "equality":
        diff = rhs.mask & ~lhs.mask
    low = diff & -diff
    pos = low.bit_length() - 1
    return (pos // lhs.n, pos % lhs.n)


# ---------------------------------------------------------------------------
# quantified checking


@dataclass
class Verdict:
    holds: bool | None  # None: no counterexample found but coverage incomplete
    coverage: str  # "exhaustive" | "truncated"
    counterexample: dict | None = None
    note: str = ""

    def __post_init__(self):
        if (self.holds is False) != (self.counterexample is not None):
            raise ValueError("counterexample present iff holds is False")
        if self.holds is True and self.coverage != "exhaustive":
            raise ValueError("truncated coverage cannot report holds")

    def report_form(self) -> dict:
        out = {"holds": self.holds, "coverage": self.coverage}
        if self.note:
            out["note"] = self.note
        if self.counterexample is not None:
            cex = self.counterexample
            out["counterexample"] = {
                "pair": list(cex["pair"]),
                "assignment": {
                    v: _value_report(val) for v, val in cex["assignment"].items()
                },
            }
        return out


def _value_report(value) -> dict:
    if isinstance(value, UAdmRel):
        return {"kind": "family", **value.report_form()}
    return {"kind": "relation", "pairs": value.pairs()}


def _value_key(value):
    if isinstance(value, UAdmRel):
        return (1, value.union_view.pairs(), len(value.components))
    return (0, value.pairs())


def candidate_pool(alg, cls: RelClass, caps: Caps):
    """(candidates, exhaustive) for one variable class."""
    if cls is RelClass.Congruence:
        res = enumerate_relations(alg, "congruence", caps)
        return list(res), res.exhaustive
    if cls is RelClass.Tolerance:
        res = enumerate_relations(alg, "tolerance", caps)
        return list(res), res.exhaustive
    if cls is RelClass.ReflexiveAdmissible:
        res = enumerate_relations(alg, "reflexive_admissible", caps)
        return list(res), res.exhaustive
    if cls is RelClass.UAdmissible:
        base = enumerate_relations(alg, "reflexive_admissible", caps)
        res = enumerate_u(base.relations, base.exhaustive, caps)
        return list(res), res.exhaustive
    if cls is RelClass.U2Admissible:
        base = enumerate_relations(alg, "reflexive_admissible", caps)
        res = pair_families(base.relations, base.exhaustive)
        return list(res), res.exhaustive
    if cls is RelClass.UnionOfTwoCongruences:
        base = enumerate_relations(alg, "congruence", caps)
        res = pair_families(base.relations, base.exhaustive)
        return list(res), res.exhaustive
    raise ValueError(f"unknown class {cls!r}")


def _scan(alg, spec, names, pools, caps, start, stop):
    """Scan assignments with outermost index in [start, stop); first violation."""
    outer = pools[0][start:stop]

    def rec(i, env):
        if i == len(names):
            lhs, rhs, sat = evaluate(alg, spec, env, caps)
            if not sat:
                return dict(env), violation_pair(lhs, rhs, spec.mode)
            return None
        pool = outer if i == 0 else pools[i]
        for value in pool:
            env[names[i]] = value
            hit = rec(i + 1, env)
            if hit:
                return hit
            del env[names[i]]
        return None

    return rec(0, {})


def _scan_job(args):
    alg, spec, names, pools, caps, start, stop = args
    hit = _scan(alg, spec, names, pools, caps, start, stop)
    return (start, hit)


def check_for_all(
    alg: FiniteAlgebra,
    spec: IdentitySpec,
    strategy: str = "exhaustive",
    caps: Caps = DEFAULT_CAPS,
    narrow: bool = True,
    classes_override: dict | None = None,
    jobs: int = 1,
    samples: int = 200,
    seed: int = 0,
) -> Verdict:
    """Quantify every variable over its class and test the identity.

    Strategies: "exhaustive" (complete enumeration of every class, labelled
    truncated when caps.max_relations or caps.max_components cuts it short),
    "generated" (an alias of "exhaustive", kept for compatibility),
    "sampled" (random closures, never reports holds), "principal"
    (point-principal reduction, exact for star/bar-free inclusion left-hand
    sides).
    """
    classes = spec.classes(narrow, classes_override)
    if strategy == "principal":
        return _check_principal(alg, spec, classes, caps)
    if strategy == "sampled":
        return _check_sampled(alg, spec, classes, caps, samples, seed)
    if strategy not in ("exhaustive", "generated"):
        raise ValueError(f"unknown strategy {strategy!r}")

    names = [v for v, _ in spec.variables]
    pools = []
    exhaustive = True
    for v in names:
        pool, ex = candidate_pool(alg, classes[v], caps)
        pools.append(pool)
        exhaustive &= ex

    hit = None
    if jobs > 1 and len(pools[0]) > 1:
        chunk = max(1, -(-len(pools[0]) // jobs))
        tasks = [
            (alg, spec, names, pools, caps, s, min(s + chunk, len(pools[0])))
            for s in range(0, len(pools[0]), chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as ex_:
            results = [r for r in ex_.map(_scan_job, tasks) if r[1]]
        if results:
            hit = min(results)[1]
    else:
        hit = _scan(alg, spec, names, pools, caps, 0, len(pools[0]))

    coverage = "exhaustive" if exhaustive else "truncated"
    if hit:
        env, pair = hit
        return Verdict(False, coverage, {"assignment": env, "pair": pair})
    if exhaustive:
        return Verdict(True, "exhaustive")
    return Verdict(None, "truncated", note="no counterexample found (truncated)")


def _random_value(alg, cls, caps, rng):
    n = alg.size
    def rnd_pairs(k):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    if cls is RelClass.Congruence:
        return congruence_gen(alg, rnd_pairs(rng.randint(1, 2)), caps)
    if cls is RelClass.Tolerance:
        return tolerance_gen(alg, rnd_pairs(rng.randint(1, 2)), caps)
    if cls is RelClass.ReflexiveAdmissible:
        return admissible_closure(alg, rnd_pairs(rng.randint(1, 2)), caps)
    if cls is RelClass.UnionOfTwoCongruences:
        return UAdmRel([congruence_gen(alg, [p], caps) for p in rnd_pairs(2)])
    k = 2 if cls is RelClass.U2Admissible else (caps.max_components or 3)
    return UAdmRel(
        [admissible_closure(alg, [p], caps) for p in rnd_pairs(rng.randint(1, k))]
    )


def _check_sampled(alg, spec, classes, caps, samples, seed):
    rng = random.Random(seed)
    names = [v for v, _ in spec.variables]
    for _ in range(samples):
        env = {v: _random_value(alg, classes[v], caps, rng) for v in names}
        lhs, rhs, sat = evaluate(alg, spec, env, caps)
        if not sat:
            pair = violation_pair(lhs, rhs, spec.mode)
            return Verdict(
                False, "truncated", {"assignment": env, "pair": pair},
                note=f"sampled({samples},{seed})",
            )
    return Verdict(
        None, "truncated",
        note=f"no counterexample found (truncated); sampled({samples},{seed})",
    )


# --- principal strategy ----------------------------------------------------
#
# For an inclusion whose left side uses only variables, constants, ∩, ∪, ∘
# and ^⌣ (after desugaring), membership of a point pair decomposes into
# finitely many sets of atomic constraints "(u,v) ∈ variable".  Replacing
# each variable by the minimal class members containing its constraint pairs
# and testing the point pair against the right side is then equivalent to
# quantifying the variables over the whole class: any assignment that puts
# the pair into the left side dominates one of the minimal assignments, and
# the right side is monotone in every variable.


def _atom_sets(e: RelExpr, a: int, c: int, n: int):
    if isinstance(e, RVar):
        return [((e.name, (a, c)),)]
    if isinstance(e, RConst):
        if e.which == "all" or a == c:
            return [()]
        return []
    if isinstance(e, Conv):
        return _atom_sets(e.arg, c, a, n)
    if isinstance(e, Inter):
        out = []
        for l in _atom_sets(e.left, a, c, n):
            for r in _atom_sets(e.right, a, c, n):
                out.append(l + r)
        return out
    if isinstance(e, UnionOp):
        return _atom_sets(e.left, a, c, n) + _atom_sets(e.right, a, c, n)
    if isinstance(e, Comp):
        out = []
        for b in range(n):
            for l in _atom_sets(e.left, a, b, n):
                for r in _atom_sets(e.right, b, c, n):
                    out.append(l + r)
        return out
    raise UnsupportedError(
        "principal strategy needs a star/bar-free inclusion left side"
    )


def _two_block_partitions(pairs: tuple):
    """All ways to split the pair list into at most two nonempty blocks."""
    if len(pairs) <= 1:
        return [(pairs,)]
    out = [(pairs,)]
    k = len(pairs)
    for bits in range(1, 2 ** (k - 1)):
        left = tuple(p for i, p in enumerate(pairs) if not (bits >> i) & 1)
        right = tuple(p for i, p in enumerate(pairs) if (bits >> i) & 1)
        out.append((left, right))
    return out


def _minimal_members(alg, cls, pairs: tuple, caps):
    """Minimal members of cls containing all given pairs (may be several)."""
    pairs = tuple(dict.fromkeys(pairs))
    if cls is RelClass.Congruence:
        return [congruence_gen(alg, pairs, caps)]
    if cls is RelClass.Tolerance:
        return [tolerance_gen(alg, pairs, caps)]
    if cls is RelClass.ReflexiveAdmissible:
        return [admissible_closure(alg, pairs, caps)]
    if cls is RelClass.UAdmissible:
        if not pairs:
            return [UAdmRel([BinRel.diagonal(alg.size)])]
        return [UAdmRel([admissible_closure(alg, [p], caps) for p in pairs])]
    gen = congruence_gen if cls is RelClass.UnionOfTwoCongruences else admissible_closure
    if not pairs:
        return [UAdmRel([BinRel.diagonal(alg.size)])]
    return [
        UAdmRel([gen(alg, list(block), caps) for block in blocks])
        for blocks in _two_block_partitions(pairs)
    ]


def _check_principal(alg, spec, classes, caps):
    if spec.mode != "inclusion":
        raise UnsupportedError("principal strategy handles inclusions only")
    lhs = desugar(spec.lhs)
    n = alg.size
    names = [v for v, _ in spec.variables]
    closure_cache: dict = {}

    def minimal(v, pairs):
        key = (v, pairs)
        if key not in closure_cache:
            closure_cache[key] = _minimal_members(alg, classes[v], pairs, caps)
        return closure_cache[key]

    for a in range(n):
        for c in range(n):
            for atoms in _atom_sets(lhs, a, c, n):
                per_var = {v: [] for v in names}
                for v, p in atoms:
                    per_var[v].append(p)
                options = [minimal(v, tuple(per_var[v])) for v in names]

                def sweep(i, env):
                    if i == len(names):
                        lv, rv, sat = evaluate(alg, spec, env, caps)
                        if not sat:
                            return dict(env)
                        return None
                    for val in options[i]:
                        env[names[i]] = val
                        bad = sweep(i + 1, env)
                        if bad:
                            return bad
                        del env[names[i]]
                    return None

                bad = sweep(0, {})
                if bad:
                    return Verdict(
                        False, "exhaustive", {"assignment": bad, "pair": (a, c)}
                    )
    return Verdict(True, "exhaustive")


# ---------------------------------------------------------------------------
# free-algebra seed instances


def free_seed_assignment(
    free_alg: FiniteAlgebra,
    spec: IdentitySpec,
    generators: tuple = (0, 1, 2),
    narrow: bool = True,
    caps: Caps = DEFAULT_CAPS,
) -> dict:
    """The generic principal-relation assignment on a 3-generated free algebra."""
    if spec.free_seeds is None:
        raise UnsupportedError(
            f"{spec.name}: no free-algebra seed instance (needs unbounded chains "
            "or an equality mode)"
        )
    letters = dict(zip("xyz", generators))
    classes = spec.classes(narrow)
    out = {}
    for var, pairs in spec.free_seeds.items():
        pts = tuple((letters[p[0]], letters[p[1]]) for p in pairs)
        cls = classes[var]
        if cls in _PLAIN:
            gen = {
                RelClass.Congruence: congruence_gen,
                RelClass.Tolerance: tolerance_gen,
                RelClass.ReflexiveAdmissible: admissible_closure,
            }[cls]
            out[var] = gen(free_alg, pts, caps)
        elif cls is RelClass.UnionOfTwoCongruences:
            if len(pts) > 2:
                raise UnsupportedError(f"{spec.name}: seed needs more than two congruences")
            out[var] = UAdmRel([congruence_gen(free_alg, [p], caps) for p in pts])
        else:
            if cls is RelClass.U2Admissible and len(pts) > 2:
                raise UnsupportedError(f"{spec.name}: seed needs more than two components")
            out[var] = UAdmRel([admissible_closure(free_alg, [p], caps) for p in pts])
    return out


def free_seed_verdict(
    free_alg: FiniteAlgebra,
    spec: IdentitySpec,
    generators: tuple = (0, 1, 2),
    narrow: bool = True,
    caps: Caps = DEFAULT_CAPS,
) -> bool:
    """Whether (x,z) lands in the right side under the generic seed assignment."""
    assignment = free_seed_assignment(free_alg, spec, generators, narrow, caps)
    rhs = view(eval_expr(free_alg, spec.rhs, assignment, caps))
    return rhs.contains(generators[0], generators[2])


# ---------------------------------------------------------------------------
# builtin library


def _v(name):
    return RVar(name)


def _ti(a, b):
    return Inter(a, b)


def _need(cond, msg):
    if not cond:
        raise ValueError(msg)


def _cdist2(h=2):
    _need(h >= 1, "h must be >= 1")
    th, s = _v("theta"), _v("sigma")
    return IdentitySpec(
        name=f"cdist2({h})",
        variables=(("theta", RelClass.Tolerance), ("sigma", RelClass.UAdmissible)),
        lhs=_ti(th, Comp(s, s)),
        rhs=Pow(_ti(th, s), h),
        narrow={"theta": RelClass.Congruence, "sigma": RelClass.U2Admissible},
        free_seeds={"theta": (("x", "z"),), "sigma": (("x", "y"), ("y", "z"))},
        params={"h": h},
    )


def _cdist3(k=2):
    _need(k >= 1, "k must be >= 1")
    a, s = _v("alpha"), _v("sigma")
    return IdentitySpec(
        name=f"cdist3({k})",
        variables=(
            ("alpha", RelClass.Congruence),
            ("sigma", RelClass.UnionOfTwoCongruences),
        ),
        lhs=_ti(a, Comp(s, s)),
        rhs=Pow(_ti(a, s), k),
        free_seeds={"alpha": (("x", "z"),), "sigma": (("x", "y"), ("y", "z"))},
        params={"k": k},
    )


def _modular2(k=2):
    _need(k >= 1, "k must be >= 1")
    th, r = _v("theta"), _v("R")
    return IdentitySpec(
        name=f"modular2({k})",
        variables=(("theta", RelClass.Tolerance), ("R", RelClass.ReflexiveAdmissible)),
        lhs=_ti(th, Comp(r, r)),
        rhs=Pow(_ti(th, r), k),
        narrow={"theta": RelClass.Congruence},
        free_seeds={"theta": (("x", "z"),), "R": (("x", "y"), ("y", "z"))},
        params={"k": k},
    )


_COR_CLASSES = (("theta", RelClass.Tolerance), ("sigma", RelClass.UAdmissible))
_COR_CLASSES2 = _COR_CLASSES + (("tau", RelClass.UAdmissible),)
_COR_NARROW = {
    "theta": RelClass.Congruence,
    "sigma": RelClass.UnionOfTwoCongruences,
    "tau": RelClass.UnionOfTwoCongruences,
}


def _cor_narrow(names):
    return {k: v for k, v in _COR_NARROW.items() if k in names}


def _cor1():
    th, s = _v("theta"), _v("sigma")
    rhs = Star(_ti(th, s))
    return IdentitySpec(
        name="cor1",
        variables=_COR_CLASSES,
        lhs=_ti(th, Comp(s, s)),
        rhs=rhs,
        narrow=_cor_narrow(("theta", "sigma")),
        free_seeds={"theta": (("x", "z"),), "sigma": (("x", "y"), ("y", "z"))},
        eq_variant=IdentitySpec(
            name="cor1.eq",
            variables=_COR_CLASSES,
            lhs=Star(_ti(th, Comp(s, s))),
            rhs=rhs,
            mode="equality",
            narrow=_cor_narrow(("theta", "sigma")),
        ),
    )


def _cor1p():
    th, s = _v("theta"), _v("sigma")
    return IdentitySpec(
        name="cor1p",
        variables=_COR_CLASSES,
        lhs=_ti(th, Comp(s, s)),
        rhs=Star(Comp(_ti(th, s), _ti(th, Conv(s)))),
        narrow=_cor_narrow(("theta", "sigma")),
        free_seeds={"theta": (("x", "z"),), "sigma": (("x", "y"), ("y", "z"))},
    )


def _cor1pp():
    th, s = _v("theta"), _v("sigma")
    rhs = Star(Comp(_ti(th, s), _ti(th, Conv(s))))
    return IdentitySpec(
        name="cor1pp",
        variables=_COR_CLASSES,
        lhs=_ti(th, Comp(s, Conv(s))),
        rhs=rhs,
        narrow=_cor_narrow(("theta", "sigma")),
        free_seeds={"theta": (("x", "z"),), "sigma": (("x", "y"), ("z", "y"))},
        eq_variant=IdentitySpec(
            name="cor1pp.eq",
            variables=_COR_CLASSES,
            lhs=Star(_ti(th, Comp(s, Conv(s)))),
            rhs=rhs,
            mode="equality",
            narrow=_cor_narrow(("theta", "sigma")),
        ),
    )


def _cor2():
    th, s = _v("theta"), _v("sigma")
    rhs = Star(_ti(th, s))
    return IdentitySpec(
        name="cor2",
        variables=_COR_CLASSES,
        lhs=_ti(th, Star(s)),
        rhs=rhs,
        narrow=_cor_narrow(("theta", "sigma")),
        eq_variant=IdentitySpec(
            name="cor2.eq",
            variables=_COR_CLASSES,
            lhs=Star(_ti(th, Star(s))),
            rhs=rhs,
            mode="equality",
            narrow=_cor_narrow(("theta", "sigma")),
        ),
    )


def _cor3():
    th, s, t = _v("theta"), _v("sigma"), _v("tau")
    rhs = Star(Comp(_ti(th, s), _ti(th, t)))
    return IdentitySpec(
        name="cor3",
        variables=_COR_CLASSES2,
        lhs=_ti(th, Comp(s, t)),
        rhs=rhs,
        narrow=_cor_narrow(("theta", "sigma", "tau")),
        free_seeds={"theta": (("x", "z"),), "sigma": (("x", "y"),), "tau": (("y", "z"),)},
        eq_variant=IdentitySpec(
            name="cor3.eq",
            variables=_COR_CLASSES2,
            lhs=Star(_ti(th, Comp(s, t))),
            rhs=rhs,
            mode="equality",
            narrow=_cor_narrow(("theta", "sigma", "tau")),
        ),
    )


def _cor4():
    th, s, t = _v("theta"), _v("sigma"), _v("tau")
    rhs = Star(Comp(_ti(th, s), _ti(th, t)))
    return IdentitySpec(
        name="cor4",
        variables=_COR_CLASSES2,
        lhs=_ti(th, Star(Comp(s, t))),
        rhs=rhs,
        narrow=_cor_narrow(("theta", "sigma", "tau")),
        eq_variant=IdentitySpec(
            name="cor4.eq",
            variables=_COR_CLASSES2,
            lhs=Star(_ti(th, Star(Comp(s, t)))),
            rhs=rhs,
            mode="equality",
            narrow=_cor_narrow(("theta", "sigma", "tau")),
        ),
    )


def _cor4p():
    th, s, t = _v("theta"), _v("sigma"), _v("tau")
    rhs = Star(
        comp_chain(_ti(th, s), _ti(th, t), _ti(th, Conv(s)), _ti(th, Conv(t)))
    )
    return IdentitySpec(
        name="cor4p",
        variables=_COR_CLASSES2,
        lhs=_ti(th, Star(Comp(s, t))),
        rhs=rhs,
        narrow=_cor_narrow(("theta", "sigma", "tau")),
        eq_variant=IdentitySpec(
            name="cor4p.eq",
            variables=_COR_CLASSES2,
            lhs=Star(_ti(th, Star(comp_chain(s, t, Conv(s), Conv(t))))),
            rhs=rhs,
            mode="equality",
            narrow=_cor_narrow(("theta", "sigma", "tau")),
        ),
    )


_GEN_CLASSES3 = (
    ("sigma", RelClass.UAdmissible),
    ("tau", RelClass.UAdmissible),
    ("upsilon", RelClass.UAdmissible),
)


def _gen1():
    s, t, u = _v("sigma"), _v("tau"), _v("upsilon")
    rhs = Star(Comp(_ti(s, t), _ti(s, u)))
    narrow = {
        "sigma": RelClass.ReflexiveAdmissible,
        "tau": RelClass.ReflexiveAdmissible,
        "upsilon": RelClass.ReflexiveAdmissible,
    }
    return IdentitySpec(
        name="gen1",
        variables=_GEN_CLASSES3,
        lhs=_ti(s, Comp(t, u)),
        rhs=rhs,
        narrow=narrow,
        free_seeds={"sigma": (("x", "z"),), "tau": (("x", "y"),), "upsilon": (("y", "z"),)},
        eq_variant=IdentitySpec(
            name="gen1.eq",
            variables=_GEN_CLASSES3,
            lhs=Star(_ti(s, Comp(t, u))),
            rhs=rhs,
            mode="equality",
            narrow=narrow,
        ),
    )


def _gen2():
    s, t = _v("sigma"), _v("tau")
    rhs = Star(_ti(s, t))
    variables = (("sigma", RelClass.UAdmissible), ("tau", RelClass.UAdmissible))
    narrow = {"sigma": RelClass.U2Admissible, "tau": RelClass.U2Admissible}
    return IdentitySpec(
        name="gen2",
        variables=variables,
        lhs=_ti(s, Comp(t, t)),
        rhs=rhs,
        narrow=narrow,
        free_seeds={"sigma": (("x", "z"),), "tau": (("x", "y"), ("y", "z"))},
        eq_variant=IdentitySpec(
            name="gen2.eq",
            variables=variables,
            lhs=Star(_ti(s, Comp(t, t))),
            rhs=rhs,
            mode="equality",
            narrow=narrow,
        ),
    )


def _gen3():
    s, t = _v("sigma"), _v("tau")
    rhs = Star(_ti(s, t))
    variables = (("sigma", RelClass.UAdmissible), ("tau", RelClass.UAdmissible))
    narrow = {"sigma": RelClass.U2Admissible, "tau": RelClass.U2Admissible}
    return IdentitySpec(
        name="gen3",
        variables=variables,
        lhs=_ti(Star(s), Star(t)),
        rhs=rhs,
        mode="equality",
        narrow=narrow,
        eq_variant=IdentitySpec(
            name="gen3.var",
            variables=variables,
            lhs=Star(_ti(Star(s), Star(t))),
            rhs=rhs,
            mode="equality",
            narrow=narrow,
        ),
    )


def _maj3():
    s, t, u = _v("sigma"), _v("tau"), _v("upsilon")
    narrow = {
        "sigma": RelClass.Tolerance,
        "tau": RelClass.Tolerance,
        "upsilon": RelClass.Tolerance,
    }
    return IdentitySpec(
        name="maj3",
        variables=_GEN_CLASSES3,
        lhs=_ti(s, Comp(t, u)),
        rhs=Comp(_ti(s, t), _ti(s, u)),
        narrow=narrow,
        free_seeds={"sigma": (("x", "z"),), "tau": (("x", "y"),), "upsilon": (("y", "z"),)},
    )


def _arith3():
    s, t, u = _v("sigma"), _v("tau"), _v("upsilon")
    narrow = {
        "sigma": RelClass.Tolerance,
        "tau": RelClass.Tolerance,
        "upsilon": RelClass.Tolerance,
    }
    return IdentitySpec(
        name="arith3",
        variables=_GEN_CLASSES3,
        lhs=_ti(s, Comp(t, u)),
        rhs=Comp(_ti(s, u), _ti(s, t)),
        narrow=narrow,
        free_seeds={"sigma": (("x", "z"),), "tau": (("x", "y"),), "upsilon": (("y", "z"),)},
    )


def _arith4():
    t, r, s = _v("T"), _v("R"), _v("S")
    narrow = {
        "T": RelClass.Tolerance,
        "R": RelClass.Tolerance,
        "S": RelClass.Tolerance,
    }
    return IdentitySpec(
        name="arith4",
        variables=(
            ("T", RelClass.ReflexiveAdmissible),
            ("R", RelClass.ReflexiveAdmissible),
            ("S", RelClass.ReflexiveAdmissible),
        ),
        lhs=_ti(t, Comp(r, s)),
        rhs=Comp(_ti(t, r), _ti(t, s)),
        mode="equality",
        narrow=narrow,
    )


def _baker4():
    s, t, u = _v("sigma"), _v("tau"), _v("upsilon")
    return IdentitySpec(
        name="baker4",
        variables=_GEN_CLASSES3,
        lhs=_ti(s, Comp(t, u)),
        rhs=comp_chain(_ti(s, t), _ti(s, u), _ti(s, t), _ti(s, u)),
        free_seeds={"sigma": (("x", "z"),), "tau": (("x", "y"),), "upsilon": (("y", "z"),)},
    )


def _p12b1(m=2, n=2):
    _need(m >= 1 and n >= 1, "m and n must be >= 1")
    _need(m * n - m >= 1, "need n >= 2 for a nonempty right side")
    th, s = _v("theta"), _v("sigma")
    return IdentitySpec(
        name=f"p12b1({m},{n})",
        variables=(("theta", RelClass.Tolerance), ("sigma", RelClass.UAdmissible)),
        lhs=_ti(th, Pow(s, m)),
        rhs=Pow(_ti(th, s), m * n - m),
        narrow={"theta": RelClass.Congruence},
        params={"m": m, "n": n},
    )


def _p12b2(m=2, n=2):
    _need(m >= 1 and n >= 1, "m and n must be >= 1")
    _need(m * n - m >= 1, "need n >= 2 for a nonempty right side")
    _need(m % 2 == 0, "m must be even")
    th, s, t = _v("theta"), _v("sigma"), _v("tau")
    return IdentitySpec(
        name=f"p12b2({m},{n})",
        variables=(
            ("theta", RelClass.Tolerance),
            ("sigma", RelClass.UAdmissible),
            ("tau", RelClass.UAdmissible),
        ),
        lhs=_ti(th, AltR(s, t, m)),
        rhs=AltR(_ti(th, s), _ti(th, t), m * n - m),
        narrow={"theta": RelClass.Congruence},
        params={"m": m, "n": n},
    )


def _p12c2(m=2, k=2):
    _need(m >= 1, "m must be >= 1")
    _need(k >= 2, "k must be >= 2")
    th, s, t = _v("theta"), _v("sigma"), _v("tau")
    fwd = AltR(_ti(th, s), _ti(th, t), m)
    bwd = AltL(_ti(th, Conv(t)), _ti(th, Conv(s)), m)
    return IdentitySpec(
        name=f"p12c2({m},{k})",
        variables=(
            ("theta", RelClass.Tolerance),
            ("sigma", RelClass.UAdmissible),
            ("tau", RelClass.UAdmissible),
        ),
        lhs=_ti(th, AltR(s, t, m)),
        rhs=AltR(fwd, bwd, k - 1),
        narrow={"theta": RelClass.Congruence},
        params={"m": m, "k": k},
    )


def _vr_incl(h=2):
    _need(h >= 1, "h must be >= 1")
    s, t, u = _v("sigma"), _v("tau"), _v("upsilon")
    narrow = {
        "sigma": RelClass.ReflexiveAdmissible,
        "tau": RelClass.ReflexiveAdmissible,
        "upsilon": RelClass.ReflexiveAdmissible,
    }
    return IdentitySpec(
        name=f"vrIncl({h})",
        variables=_GEN_CLASSES3,
        lhs=_ti(s, Comp(t, u)),
        rhs=AltR(_ti(s, t), _ti(s, u), h),
        narrow=narrow,
        free_seeds={"sigma": (("x", "z"),), "tau": (("x", "y"),), "upsilon": (("y", "z"),)},
        params={"h": h},
    )


def _mal_incl(h=2):
    _need(h >= 1, "h must be >= 1")
    a, s = _v("alpha"), _v("sigma")
    return IdentitySpec(
        name=f"malIncl({h})",
        variables=(("alpha", RelClass.Tolerance), ("sigma", RelClass.UAdmissible)),
        lhs=_ti(a, Comp(s, s)),
        rhs=Pow(_ti(a, s), h),
        narrow={"alpha": RelClass.Congruence, "sigma": RelClass.U2Admissible},
        free_seeds={"alpha": (("x", "z"),), "sigma": (("x", "y"), ("y", "z"))},
        params={"h": h},
    )


def _mal_a(f=(1, 2)):
    f = tuple(f)
    _need(len(f) >= 1, "f must be nonempty")
    _need(all(v in (1, 2) for v in f), "f must map into {1,2}")
    a = _v("alpha")
    rs = {1: _v("R1"), 2: _v("R2")}
    return IdentitySpec(
        name=f"malA({','.join(map(str, f))})",
        variables=(
            ("alpha", RelClass.Tolerance),
            ("R1", RelClass.ReflexiveAdmissible),
            ("R2", RelClass.ReflexiveAdmissible),
        ),
        lhs=_ti(a, Comp(rs[1], rs[2])),
        rhs=comp_chain(*(_ti(a, rs[v]) for v in f)),
        narrow={"alpha": RelClass.Congruence},
        free_seeds={"alpha": (("x", "z"),), "R1": (("x", "y"),), "R2": (("y", "z"),)},
        params={"f": f},
    )


_BUILTINS = {
    "cdist2": _cdist2,
    "cdist3": _cdist3,
    "modular2": _modular2,
    "cor1": _cor1,
    "cor1p": _cor1p,
    "cor1pp": _cor1pp,
    "cor2": _cor2,
    "cor3": _cor3,
    "cor4": _cor4,
    "cor4p": _cor4p,
    "gen1": _gen1,
    "gen2": _gen2,
    "gen3": _gen3,
    "maj3": _maj3,
    "arith3": _arith3,
    "arith4": _arith4,
    "baker4": _baker4,
    "p12b1": _p12b1,
    "p12b2": _p12b2,
    "p12c2": _p12c2,
    "vrIncl": _vr_incl,
    "malIncl": _mal_incl,
    "malA": _mal_a,
}


def builtin(name: str, **params) -> IdentitySpec:
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; known: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return ctor(**params)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)
