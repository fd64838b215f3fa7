"""Relational identities: expression AST, quantified checking, builtin library.

Expressions evaluate to plain relations; a variable bound to a U-admissible
family evaluates to its union view.  The builtins are parse_spec literals.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import product
from typing import Callable

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
    rel_power,
    congruence_gen,
    tolerance_gen,
    transitive_closure,
    union,
)
from .uadmissible import UAdmRel, enumerate_u, pair_families


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
        return reduce(Comp, [a] * e.h)
    if isinstance(e, AltR):
        if e.m < 1:
            raise ValueError("alternating composition needs m >= 1")
        l, r = desugar(e.left), desugar(e.right)
        return reduce(Comp, [l if i % 2 == 0 else r for i in range(e.m)])
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


def eval_expr(alg: FiniteAlgebra, e: RelExpr, env: dict, caps: Caps = DEFAULT_CAPS) -> BinRel:
    """The value of e as a plain relation.

    A variable bound to a family evaluates to its union view: every operator
    distributes over unions of components, so the union decides the value.
    """
    if isinstance(e, RVar):
        try:
            value = env[e.name]
        except KeyError:
            raise ValueError(f"unassigned variable {e.name!r}") from None
        return value.union_view if isinstance(value, UAdmRel) else value
    if isinstance(e, RConst):
        return BinRel.diagonal(alg.size) if e.which == "id" else BinRel.full(alg.size)
    if isinstance(e, Conv):
        return converse(eval_expr(alg, e.arg, env, caps))
    if isinstance(e, Star):
        return transitive_closure(eval_expr(alg, e.arg, env, caps))
    if isinstance(e, BarOp):
        return admissible_closure(alg, eval_expr(alg, e.arg, env, caps), caps)
    if isinstance(e, Pow):
        return rel_power(eval_expr(alg, e.arg, env, caps), e.h)
    if isinstance(e, (AltR, AltL)):
        return eval_expr(alg, desugar(e), env, caps)
    l = eval_expr(alg, e.left, env, caps)
    r = eval_expr(alg, e.right, env, caps)
    if isinstance(e, Inter):
        return intersect(l, r)
    if isinstance(e, UnionOp):
        return union(l, r)
    if isinstance(e, Comp):
        return compose(l, r)
    raise TypeError(f"not a relation expression: {e!r}")


def evaluate(alg: FiniteAlgebra, spec: IdentitySpec, assignment: dict, caps: Caps = DEFAULT_CAPS):
    """Returns (lhs, rhs, satisfied)."""
    lhs = eval_expr(alg, spec.lhs, assignment, caps)
    rhs = eval_expr(alg, spec.rhs, assignment, caps)
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


_KINDS = {
    RelClass.Congruence: "congruence",
    RelClass.Tolerance: "tolerance",
    RelClass.ReflexiveAdmissible: "reflexive_admissible",
    RelClass.UAdmissible: "reflexive_admissible",
    RelClass.U2Admissible: "reflexive_admissible",
    RelClass.UnionOfTwoCongruences: "congruence",
}


def candidate_pool(alg, cls: RelClass, caps: Caps):
    """(candidates, exhaustive) for one variable class."""
    if cls not in _KINDS:
        raise ValueError(f"unknown class {cls!r}")
    res = enumerate_relations(alg, _KINDS[cls], caps)
    if cls is RelClass.UAdmissible:
        res = enumerate_u(res.relations, res.exhaustive, caps)
    elif cls not in _PLAIN:
        res = pair_families(res.relations, res.exhaustive)
    return list(res), res.exhaustive


def _scan(alg, spec, names, pools, caps, start, stop):
    """Scan assignments with outermost index in [start, stop); first violation."""
    for values in product(pools[0][start:stop], *pools[1:]):
        env = dict(zip(names, values))
        lhs, rhs, sat = evaluate(alg, spec, env, caps)
        if not sat:
            return env, violation_pair(lhs, rhs, spec.mode)
    return None


def _scan_job(args):
    """(start, first violation) of one chunk of the outermost pool."""
    return args[5], _scan(*args)


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


def _least_member(alg, cls, pairs, caps):
    """The least relation of a plain class containing the pairs."""
    if cls is RelClass.Congruence:
        return congruence_gen(alg, pairs, caps)
    if cls is RelClass.Tolerance:
        return tolerance_gen(alg, pairs, caps)
    return admissible_closure(alg, pairs, caps)


def _random_value(alg, cls, caps, rng):
    n = alg.size
    def rnd_pairs(k):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    if cls in _PLAIN:
        return _least_member(alg, cls, rnd_pairs(rng.randint(1, 2)), caps)
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
            cex = {"assignment": env, "pair": violation_pair(lhs, rhs, spec.mode)}
            return Verdict(False, "truncated", cex, note=f"sampled({samples},{seed})")
    note = f"no counterexample found (truncated); sampled({samples},{seed})"
    return Verdict(None, "truncated", note=note)


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
    out = [(pairs,)]
    for bits in range(1, 2 ** max(len(pairs) - 1, 0)):
        left = tuple(p for i, p in enumerate(pairs) if not (bits >> i) & 1)
        right = tuple(p for i, p in enumerate(pairs) if (bits >> i) & 1)
        out.append((left, right))
    return out


def _minimal_members(alg, cls, pairs: tuple, caps):
    """Minimal members of cls containing all given pairs (may be several)."""
    pairs = tuple(dict.fromkeys(pairs))
    if cls in _PLAIN:
        return [_least_member(alg, cls, pairs, caps)]
    if not pairs:
        return [UAdmRel([BinRel.diagonal(alg.size)])]
    if cls is RelClass.UAdmissible:
        return [UAdmRel([admissible_closure(alg, [p], caps) for p in pairs])]
    gen = congruence_gen if cls is RelClass.UnionOfTwoCongruences else admissible_closure
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
                for values in product(*options):
                    env = dict(zip(names, values))
                    if not evaluate(alg, spec, env, caps)[2]:
                        return Verdict(
                            False, "exhaustive", {"assignment": env, "pair": (a, c)}
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
            out[var] = _least_member(free_alg, cls, pts, caps)
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
    rhs = eval_expr(free_alg, spec.rhs, assignment, caps)
    return rhs.contains(generators[0], generators[2])


# ---------------------------------------------------------------------------
# builtin library
#
# Each builtin is a parse_spec literal whose {slots} are filled from its
# parameters, the narrower classes it marks as equivalent ("var=prefix"),
# and its seed instance on a free algebra ("var=pairs" of generator letters).


@dataclass(frozen=True)
class _Builtin:
    literal: str
    narrow: str = ""
    seeds: str | None = None
    defaults: dict = field(default_factory=dict)  # parameter -> default value
    checks: tuple = ()  # (predicate over the parameters, message)
    slots: Callable | None = None  # parameters -> derived slot values


def _at_least(p, low):
    return (lambda **v: v[p] >= low), f"{p} must be >= {low}"


_P12B_CHECKS = (
    (lambda m, n: m >= 1 and n >= 1, "m and n must be >= 1"),
    (lambda m, n: m * n - m >= 1, "need n >= 2 for a nonempty right side"),
)
_STU_SEEDS = "sigma=xz tau=xy upsilon=yz"

_BUILTINS = {
    "cdist2": _Builtin("tol:theta & (uadm:sigma ; sigma) <= pow(theta & sigma, {h})",
        "theta=cong sigma=u2", "theta=xz sigma=xy,yz", {"h": 2}, (_at_least("h", 1),)),
    "cdist3": _Builtin("cong:alpha & (ucong2:sigma ; sigma) <= pow(alpha & sigma, {k})",
        "", "alpha=xz sigma=xy,yz", {"k": 2}, (_at_least("k", 1),)),
    "modular2": _Builtin("tol:theta & (adm:R ; R) <= pow(theta & R, {k})",
        "theta=cong", "theta=xz R=xy,yz", {"k": 2}, (_at_least("k", 1),)),
    "cor1": _Builtin("tol:theta & (uadm:sigma ; sigma) <= (theta & sigma)^*",
        "theta=cong sigma=ucong2", "theta=xz sigma=xy,yz"),
    "cor1p": _Builtin("tol:theta & (uadm:sigma ; sigma) <= (theta & sigma ; theta & sigma^~)^*",
        "theta=cong sigma=ucong2", "theta=xz sigma=xy,yz"),
    "cor1pp": _Builtin("tol:theta & (uadm:sigma ; sigma^~) <= (theta & sigma ; theta & sigma^~)^*",
        "theta=cong sigma=ucong2", "theta=xz sigma=xy,zy"),
    "cor2": _Builtin("tol:theta & uadm:sigma^* <= (theta & sigma)^*", "theta=cong sigma=ucong2"),
    "cor3": _Builtin("tol:theta & (uadm:sigma ; uadm:tau) <= (theta & sigma ; theta & tau)^*",
        "theta=cong sigma=ucong2 tau=ucong2", "theta=xz sigma=xy tau=yz"),
    "cor4": _Builtin("tol:theta & (uadm:sigma ; uadm:tau)^* <= (theta & sigma ; theta & tau)^*",
        "theta=cong sigma=ucong2 tau=ucong2"),
    "cor4p": _Builtin("tol:theta & (uadm:sigma ; uadm:tau)^*"
        " <= (theta & sigma ; theta & tau ; theta & sigma^~ ; theta & tau^~)^*",
        "theta=cong sigma=ucong2 tau=ucong2"),
    "gen1": _Builtin("uadm:sigma & (uadm:tau ; uadm:upsilon) <= (sigma & tau ; sigma & upsilon)^*",
        "sigma=adm tau=adm upsilon=adm", _STU_SEEDS),
    "gen2": _Builtin("uadm:sigma & (uadm:tau ; tau) <= (sigma & tau)^*",
        "sigma=u2 tau=u2", "sigma=xz tau=xy,yz"),
    "gen3": _Builtin("uadm:sigma^* & uadm:tau^* == (sigma & tau)^*", "sigma=u2 tau=u2"),
    "maj3": _Builtin("uadm:sigma & (uadm:tau ; uadm:upsilon) <= sigma & tau ; sigma & upsilon",
        "sigma=tol tau=tol upsilon=tol", _STU_SEEDS),
    "arith3": _Builtin("uadm:sigma & (uadm:tau ; uadm:upsilon) <= sigma & upsilon ; sigma & tau",
        "sigma=tol tau=tol upsilon=tol", _STU_SEEDS),
    "arith4": _Builtin("adm:T & (adm:R ; adm:S) == T & R ; T & S", "T=tol R=tol S=tol"),
    "baker4": _Builtin("uadm:sigma & (uadm:tau ; uadm:upsilon)"
        " <= sigma & tau ; sigma & upsilon ; sigma & tau ; sigma & upsilon", "", _STU_SEEDS),
    "p12b1": _Builtin("tol:theta & pow(uadm:sigma, {m}) <= pow(theta & sigma, {r})",
        "theta=cong", None, {"m": 2, "n": 2}, _P12B_CHECKS, lambda m, n: {"r": m * n - m}),
    "p12b2": _Builtin("tol:theta & (uadm:sigma ;^{m} uadm:tau) <= theta & sigma ;^{r} theta & tau",
        "theta=cong", None, {"m": 2, "n": 2},
        _P12B_CHECKS + ((lambda m, n: m % 2 == 0, "m must be even"),),
        lambda m, n: {"r": m * n - m}),
    "p12c2": _Builtin("tol:theta & (uadm:sigma ;^{m} uadm:tau) <= (theta & sigma ;^{m} theta & tau)"
        " ;^{k1} (theta & tau^~ {m}^; theta & sigma^~)", "theta=cong", None, {"m": 2, "k": 2},
        (_at_least("m", 1), _at_least("k", 2)), lambda m, k: {"k1": k - 1}),
    "vrIncl": _Builtin(
        "uadm:sigma & (uadm:tau ; uadm:upsilon) <= sigma & tau ;^{h} sigma & upsilon",
        "sigma=adm tau=adm upsilon=adm", _STU_SEEDS, {"h": 2}, (_at_least("h", 1),)),
    "malIncl": _Builtin("tol:alpha & (uadm:sigma ; sigma) <= pow(alpha & sigma, {h})",
        "alpha=cong sigma=u2", "alpha=xz sigma=xy,yz", {"h": 2}, (_at_least("h", 1),)),
    "malA": _Builtin("tol:alpha & (adm:R1 ; adm:R2) <= {chain}",
        "alpha=cong", "alpha=xz R1=xy R2=yz", {"f": (1, 2)},
        ((lambda f: len(f) >= 1, "f must be nonempty"),
         (lambda f: all(v in (1, 2) for v in f), "f must map into {1,2}")),
        lambda f: {"chain": " ; ".join(f"alpha & R{v}" for v in f)}),
}


def _fields(text: str) -> dict:
    return dict(part.split("=") for part in text.split())


def builtin(name: str, **params) -> IdentitySpec:
    """The named builtin identity with its parameters filled in."""
    from .parser import CLASS_PREFIXES, parse_spec  # the parser imports this module

    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(builtin_names())}")
    entry = _BUILTINS[name]
    unknown = sorted(set(params) - set(entry.defaults))
    if unknown:
        raise TypeError(f"{name}() got an unexpected keyword argument {unknown[0]!r}")
    values = {**entry.defaults, **params}
    for ok, message in entry.checks:
        if not ok(**values):
            raise ValueError(message)
    slots = entry.slots(**values) if entry.slots else {}
    spec = parse_spec(entry.literal.format(**values, **slots))
    label = ",".join(",".join(map(str, v)) if isinstance(v, (tuple, list)) else str(v)
                     for v in values.values())
    spec.name = f"{name}({label})" if entry.defaults else name
    spec.narrow = {v: CLASS_PREFIXES[c] for v, c in _fields(entry.narrow).items()}
    if entry.seeds:
        spec.free_seeds = {
            v: tuple(map(tuple, pairs.split(","))) for v, pairs in _fields(entry.seeds).items()
        }
    return spec


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)
