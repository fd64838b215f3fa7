"""Relational identities: expression AST, quantified checking, builtin library.

Expressions evaluate to plain relations; a variable bound to a U-admissible
family evaluates to its union view.  The builtins are parse_spec literals.

The AST is walked in one way.  nodes(e) yields e's nodes in preorder, and
map_children(e, f) rebuilds e with f applied to its arg, left and right
fields, left before right; a node's other fields (a name, a constant, m, h)
are kept.  desugar, expr_vars, expr_str (through the _FORMS print table) and
the expansions of maltsev are written on these two.  Only the evaluators,
_eval_masks and _atom_sets, dispatch on the node class themselves.

The variable classes are one table, _SHAPES: for each class, the kind of
relation (relations.KINDS) its values or their components are, and the most
components a value has (None for a plain relation).  Pools, membership,
minimal members, random values and seed instances read it, and get a kind's
closure and membership test from relations.kind_functions.

One evaluator, _eval_masks, works on relation masks.  Each check desugars
Pow/AltR/AltL into composition chains once.  A variable is bound to a mask,
or to a numpy array of masks (uint64 when every mask fits in one machine
word, n^2 <= 64, object otherwise), and the mask kernels of relations.py
broadcast, so one call evaluates a whole block of assignments.  eval_expr
and evaluate wrap its result in BinRel.

The exhaustive strategy takes each variable's pool from candidate_pool,
which enumerates each relation kind once per algebra object, and scans the
product of the pools in blocks (_scan): a prefix of the variables is bound
to masks and each later variable to its own array axis.  A subexpression is
then computed once per combination of the pool values its variables take,
not once per assignment.  The counterexample is the first violating
assignment in the order of product(*pools), the lexicographically first
one, with its least violating pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import reduce
from itertools import product
from typing import Callable

import numpy as np

from .algebra import FiniteAlgebra, automorphisms
from .caps import DEFAULT_CAPS, Caps
from .relations import (
    BinRel,
    _bits,
    _mask_of,
    bar_masks,
    compose,  # noqa: F401 -- perfbench's tracer patches and restores this alias
    compose_masks,
    converse_masks,
    enumerate_relations,
    kind_functions,
    star_masks,
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


_FORMS = {  # node class -> printed form over its fields; these are the node classes
    RVar: "{name}",
    RConst: "{which}",
    Conv: "{arg}^~",
    Star: "({arg})^*",
    BarOp: "bar({arg})",
    Inter: "({left} & {right})",
    UnionOp: "({left} | {right})",
    Comp: "({left} ; {right})",
    AltR: "({left} ;^{m} {right})",
    AltL: "({left} {m}^; {right})",
    Pow: "pow({arg},{h})",
}
_CHILDREN = ("arg", "left", "right")


def _node(e) -> RelExpr:
    if type(e) not in _FORMS:
        raise TypeError(f"not a relation expression: {e!r}")
    return e


def nodes(e: RelExpr):
    """The nodes of e in preorder, the left subtree before the right."""
    yield _node(e)
    for name in _CHILDREN:
        if hasattr(e, name):
            yield from nodes(getattr(e, name))


def map_children(e: RelExpr, f) -> RelExpr:
    """e with each child c replaced by f(c), called on left before right."""
    kids = {name: f(getattr(e, name)) for name in _CHILDREN if hasattr(_node(e), name)}
    return replace(e, **kids) if kids else e


def desugar(e: RelExpr) -> RelExpr:
    """Expand Pow/AltR/AltL into explicit composition chains."""
    if isinstance(e, AltL):  # the chain of AltR started from left (even m) or right (odd m)
        return desugar(AltR(e.left, e.right, e.m) if e.m % 2 == 0 else AltR(e.right, e.left, e.m))
    if isinstance(e, Pow) and e.h < 1:
        raise ValueError("relation power needs h >= 1")
    if isinstance(e, AltR) and e.m < 1:
        raise ValueError("alternating composition needs m >= 1")
    e = map_children(e, desugar)
    if isinstance(e, Pow):
        return reduce(Comp, [e.arg] * e.h)
    if isinstance(e, AltR):
        return reduce(Comp, [e.left if i % 2 == 0 else e.right for i in range(e.m)])
    return e


def expr_vars(e: RelExpr) -> list[str]:
    """Variable names in first-occurrence order."""
    return list(dict.fromkeys(x.name for x in nodes(e) if isinstance(x, RVar)))


def expr_str(e: RelExpr) -> str:
    return _FORMS[type(_node(e))].format_map(vars(map_children(e, expr_str)))


# ---------------------------------------------------------------------------
# variable classes and identity specs


class RelClass(Enum):
    Congruence = "Congruence"
    Tolerance = "Tolerance"
    ReflexiveAdmissible = "ReflexiveAdmissible"
    UAdmissible = "UAdmissible"
    U2Admissible = "U2Admissible"
    UnionOfTwoCongruences = "UnionOfTwoCongruences"


# class -> (kind of its relations or components, as relations.KINDS names
# it; most components: None for a plain relation, 2, or 0 for any number)
_SHAPES = {
    RelClass.Congruence: ("congruence", None),
    RelClass.Tolerance: ("tolerance", None),
    RelClass.ReflexiveAdmissible: ("reflexive_admissible", None),
    RelClass.UAdmissible: ("reflexive_admissible", 0),
    RelClass.U2Admissible: ("reflexive_admissible", 2),
    RelClass.UnionOfTwoCongruences: ("congruence", 2),
}
_PLAIN = tuple(cls for cls, (_, most) in _SHAPES.items() if most is None)


def _generator(cls):
    """The closure that gives the least relation of cls's kind."""
    return kind_functions(_SHAPES[cls][0])[0]


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


def class_member(alg: FiniteAlgebra, cls: RelClass, value) -> bool:
    kind, most = _SHAPES[cls]
    member = kind_functions(kind)[1]
    if most is None:
        return isinstance(value, BinRel) and member(alg, value)
    if not isinstance(value, UAdmRel) or 0 < most < len(value.components):
        return False
    return all(member(alg, c) for c in value.components)


def _value_mask(value) -> int:
    """The mask a variable's value evaluates to: a family's union view."""
    return value.union_view.mask if isinstance(value, UAdmRel) else value.mask


def _eval_masks(alg: FiniteAlgebra, e: RelExpr, env: dict):
    """The mask of the desugared expression e.

    env maps each variable to a mask, or to an array of masks (uint64 or
    object, as _scan builds them); the operators broadcast, so a
    subexpression gets one value per combination of the array axes its
    variables span.
    """
    if isinstance(e, RVar):
        try:
            return env[e.name]
        except KeyError:
            raise ValueError(f"unassigned variable {e.name!r}") from None
    n = alg.size
    if isinstance(e, RConst):
        return (BinRel.diagonal(n) if e.which == "id" else BinRel.full(n)).mask
    if isinstance(e, Conv):
        return converse_masks(_eval_masks(alg, e.arg, env), n)
    if isinstance(e, Star):
        return star_masks(_eval_masks(alg, e.arg, env), n)
    if isinstance(e, BarOp):
        return bar_masks(alg, _eval_masks(alg, e.arg, env))
    if not isinstance(e, (Inter, UnionOp, Comp)):
        raise TypeError(f"not a desugared relation expression: {e!r}")
    l = _eval_masks(alg, e.left, env)
    r = _eval_masks(alg, e.right, env)
    if isinstance(e, Inter):
        return l & r
    if isinstance(e, UnionOp):
        return l | r
    return compose_masks(l, r, n)


def _holds_at(alg: FiniteAlgebra, sides: tuple, mode: str, env: dict):
    """Whether the identity with desugared sides holds at env: a bool, or a
    bool array over the broadcast axes of env's mask arrays."""
    return _satisfied(*(_eval_masks(alg, side, env) for side in sides), mode)


def _satisfied(lhs, rhs, mode: str):
    return lhs | rhs == rhs if mode == "inclusion" else lhs == rhs


def eval_expr(alg: FiniteAlgebra, e: RelExpr, env: dict) -> BinRel:
    """The value of e as a plain relation.

    A variable bound to a family evaluates to its union view: every operator
    distributes over unions of components, so the union decides the value.
    """
    env = {v: _value_mask(value) for v, value in env.items()}
    return BinRel(alg.size, _eval_masks(alg, desugar(e), env))


def evaluate(alg: FiniteAlgebra, spec: IdentitySpec, assignment: dict):
    """Returns (lhs, rhs, satisfied)."""
    lhs = eval_expr(alg, spec.lhs, assignment)
    rhs = eval_expr(alg, spec.rhs, assignment)
    return lhs, rhs, _satisfied(lhs.mask, rhs.mask, spec.mode)


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


def candidate_pool(alg, cls: RelClass, caps: Caps):
    """(candidates, exhaustive) for one variable class.

    The enumeration of the class's relation kind is made once per algebra
    object and caps: it is kept in alg._pools under (kind, caps), so every
    variable and every check on the same object reuses it, and it goes with
    the object (resolve builds a new algebra on each call).  The caller gets
    a new list each time.
    """
    if cls not in _SHAPES:
        raise ValueError(f"unknown class {cls!r}")
    kind, most = _SHAPES[cls]
    res = alg._pools.get((kind, caps))
    if res is None:
        res = alg._pools[kind, caps] = enumerate_relations(alg, kind, caps)
    if most == 0:
        res = enumerate_u(res.relations, res.exhaustive, caps)
    elif most == 2:
        res = pair_families(res.relations, res.exhaustive)
    return list(res), res.exhaustive


# Assignments one block of the exhaustive scan evaluates at most.
_BLOCK_CELLS = 1 << 12


def _scan(alg, spec, names, pools):
    """The first violation, in the order of product(*pools); None if there
    is none.

    One block per value of a prefix of the variables: the prefix is bound to
    masks, each later variable i to an array of its pool's masks that has
    length 1 on every axis but its own, so the block evaluates all
    combinations of the later variables at once, and a subexpression once
    per combination of the axes it names.  The prefix is the shortest one
    whose later pools span at most _BLOCK_CELLS assignments.  The arrays are
    uint64 when n^2 <= 64, so that every mask and every product
    compose_masks forms fits in one word, and object arrays of Python ints
    otherwise.
    """
    sides = desugar(spec.lhs), desugar(spec.rhs)
    sizes = [len(pool) for pool in pools]
    cut = 1
    while math.prod(sizes[cut:]) > _BLOCK_CELLS:
        cut += 1
    inner = tuple(sizes[cut:])
    masks = [[_value_mask(value) for value in pool] for pool in pools]
    dtype = np.uint64 if alg.size**2 <= 64 else object
    env = {}
    for axis, i in enumerate(range(cut, len(names))):
        column = np.array(masks[i], dtype=dtype)
        env[names[i]] = column.reshape([-1 if a == axis else 1 for a in range(len(inner))])
    for prefix in product(*map(range, sizes[:cut])):
        env.update((names[i], masks[i][j]) for i, j in enumerate(prefix))
        holds = np.broadcast_to(_holds_at(alg, sides, spec.mode, env), inner)
        if not holds.all():
            at = prefix + np.unravel_index(np.argmin(holds), inner)
            hit = {v: pool[j] for v, pool, j in zip(names, pools, at)}
            lhs, rhs, _ = evaluate(alg, spec, hit)
            return hit, violation_pair(lhs, rhs, spec.mode)
    return None


def check_for_all(
    alg: FiniteAlgebra,
    spec: IdentitySpec,
    strategy: str = "exhaustive",
    caps: Caps = DEFAULT_CAPS,
    narrow: bool = True,
    classes_override: dict | None = None,
    samples: int = 200,
    seed: int = 0,
) -> Verdict:
    """Quantify every variable over its class and test the identity.

    Strategies: "exhaustive" (complete enumeration of every class, labelled
    truncated when caps.max_relations cuts it short), "sampled" (random
    closures, never reports holds), "principal" (point-principal reduction,
    exact for star/bar-free inclusion left-hand sides).

    The exhaustive scan runs one block per value of the outermost variable
    (per value of a longer prefix when the later pools span more than
    _BLOCK_CELLS assignments).  The block binds each later variable to an
    array of its pool's union-view masks (uint64 when n^2 <= 64, object
    otherwise) along its own broadcast axis, so the identity is evaluated
    on all of the block's assignments at once.  Each class's pool comes from
    candidate_pool, so each relation kind is enumerated once per algebra
    object, however many variables and checks use it.  The first False of
    the first failing block in C order is the lexicographically first
    counterexample; evaluate re-runs it for the violating pair.
    """
    classes = spec.classes(narrow, classes_override)
    if strategy == "principal":
        return _check_principal(alg, spec, classes)
    if strategy == "sampled":
        return _check_sampled(alg, spec, classes, samples, seed)
    if strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")

    names = [v for v, _ in spec.variables]
    pools = []
    exhaustive = True
    for v in names:
        pool, ex = candidate_pool(alg, classes[v], caps)
        pools.append(pool)
        exhaustive &= ex

    hit = _scan(alg, spec, names, pools)
    coverage = "exhaustive" if exhaustive else "truncated"
    if hit:
        env, pair = hit
        return Verdict(False, coverage, {"assignment": env, "pair": pair})
    if exhaustive:
        return Verdict(True, "exhaustive")
    return Verdict(None, "truncated", note="no counterexample found (truncated)")


def _random_value(alg, cls, rng):
    n = alg.size
    def rnd_pairs(k):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    gen = _generator(cls)
    if cls in _PLAIN:
        return gen(alg, rnd_pairs(rng.randint(1, 2)))
    if cls is RelClass.UnionOfTwoCongruences:
        return UAdmRel([gen(alg, [p]) for p in rnd_pairs(2)])
    k = 2 if cls is RelClass.U2Admissible else 3
    return UAdmRel(
        [gen(alg, [p]) for p in rnd_pairs(rng.randint(1, k))]
    )


def _check_sampled(alg, spec, classes, samples, seed):
    rng = random.Random(seed)
    names = [v for v, _ in spec.variables]
    sides = desugar(spec.lhs), desugar(spec.rhs)
    for _ in range(samples):
        env = {v: _random_value(alg, classes[v], rng) for v in names}
        if not _holds_at(alg, sides, spec.mode, {v: _value_mask(x) for v, x in env.items()}):
            lhs, rhs, _ = evaluate(alg, spec, env)
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
#
# The check runs in two phases.  Phase 1 decides the verdict on fewer
# assignments:
#
# - Finest members only.  For a U2 or two-congruence variable with two or
#   more distinct pairs P, the one-block member gen(P) is dropped.  It
#   contains gen(L) ∪ gen(R) for every split P = L ∪ R, so every class
#   member whose union view holds P dominates some split, and the verdict
#   depends only on union views.  This skips every join closure.
# - Orbit representatives.  An automorphism g maps the atom sets of (a, c)
#   to those of (g a, g c) and closures to closures, so (a, c) has a
#   violation iff g(a, c) has one.  Phase 1 visits only the pairs that no
#   automorphism found maps to a smaller pair; every pair lies in the orbit
#   of one of them under the group those automorphisms generate.
# - Transported closures.  The same automorphisms serve the closures of
#   both phases: only a pair that is its own least image is closed from
#   itself; any other pair's closure is the closure of its least image,
#   mapped back by a bit permutation (_OrbitClosures).
#
# So phase 1 finds a violation iff the full assignment set has one, and its
# "holds" is exhaustive.  After phase 1 refutes at a representative P,
# phase 2 runs the plain ordered scan over every member, bounded by P: the
# plain scan holds phase 1's violation at P, so it refutes at or before P,
# and the first counterexample is the one the plain scan alone reports.


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
    """All ways to split the pair list into at most two nonempty blocks; the
    one-block split comes first."""
    out = [(pairs,)]
    for bits in range(1, 2 ** max(len(pairs) - 1, 0)):
        left = tuple(p for i, p in enumerate(pairs) if not (bits >> i) & 1)
        right = tuple(p for i, p in enumerate(pairs) if (bits >> i) & 1)
        out.append((left, right))
    return out


def _minimal_members(alg, cls, pairs, close, finest: bool):
    """Minimal members of cls containing all given pairs (may be several).
    With finest, a two-component class with two or more distinct pairs
    yields its two-block splits only."""
    pairs = tuple(dict.fromkeys(pairs))
    gen, most = _generator(cls), _SHAPES[cls][1]
    if most is None:
        return [close(gen, pairs)]
    if not pairs:
        return [UAdmRel([BinRel.diagonal(alg.size)])]
    if most == 0:
        return [UAdmRel([close(gen, (p,)) for p in pairs])]
    splits = _two_block_partitions(pairs)
    if finest and len(pairs) > 1:
        splits = splits[1:]
    return [UAdmRel([close(gen, block) for block in blocks]) for blocks in splits]


class _OrbitClosures:
    """Single-pair closures on alg, each computed once, by flat index
    p = a*n + c.

    One pass over the automorphisms found gives each pair its least image
    under one of them, least[p], and the index which[p] of the automorphism
    g that reaches it.  A pair with least[p] == p (a representative) is
    closed directly.  Any other pair takes the closure of q = g(p) and maps
    it back, closure(p) = {x : g(x) ∈ closure(q)}, since g maps the least
    relation of a class containing p onto the one containing g(p).  q is
    itself closed through the memo, so the chain p > q > ... ends at a
    representative even when the automorphisms found are not a group.
    """

    def __init__(self, alg):
        n = self.n = alg.size
        self.alg = alg
        self.auts = automorphisms(alg)
        least, which = np.arange(n * n), np.full(n * n, -1)
        for i, g in enumerate(self.auts):
            image = self._pair_image(g)
            smaller = image < least
            least[smaller], which[smaller] = image[smaller], i
        self.least, self.which = least.tolist(), which.tolist()
        self.pair_images: dict = {}
        self.memo: dict = {}

    def _pair_image(self, g) -> np.ndarray:
        """Flat index of g(a, c) at flat index a*n + c."""
        g = np.asarray(g)
        return np.add.outer(g * self.n, g).ravel()

    def representatives(self) -> list[int]:
        """Flat indices, ascending, of the pairs that no automorphism found
        maps to a smaller pair; every pair lies in the orbit of one."""
        return [p for p, q in enumerate(self.least) if p == q]

    def close(self, gen, p: int) -> BinRel:
        """gen's closure of the pair with flat index p."""
        chain, q = [], p
        while (gen, q) not in self.memo and self.least[q] != q:
            chain.append(q)
            q = self.least[q]
        if (gen, q) not in self.memo:
            self.memo[gen, q] = gen(self.alg, [divmod(q, self.n)])
        for q in reversed(chain):
            i = self.which[q]
            if i not in self.pair_images:
                self.pair_images[i] = self._pair_image(self.auts[i])
            bits = _bits(self.memo[gen, self.least[q]].mask, self.n)
            self.memo[gen, q] = BinRel(self.n, _mask_of(bits[self.pair_images[i]]))
        return self.memo[gen, p]


def _check_principal(alg, spec, classes):
    if spec.mode != "inclusion":
        raise UnsupportedError("principal strategy handles inclusions only")
    sides = desugar(spec.lhs), desugar(spec.rhs)
    n = alg.size
    names = [v for v, _ in spec.variables]
    orbits = _OrbitClosures(alg)
    closures: dict = {}

    def close(gen, block):
        """gen's closure of the pair block, once per check: a single pair
        from the orbit memo, a larger block from the join of its pairs'
        closures."""
        if len(block) == 1:
            (a, c), = block
            return orbits.close(gen, a * n + c)
        key = (gen, frozenset(block))
        if key not in closures:
            mask = 0
            for a, c in block:
                mask |= orbits.close(gen, a * n + c).mask
            closures[key] = gen(alg, BinRel(n, mask))
        return closures[key]

    def first_violation(flat_pairs, finest):
        for a, c in (divmod(p, n) for p in flat_pairs):
            for atoms in _atom_sets(sides[0], a, c, n):
                per_var = {v: [] for v in names}
                for v, p in atoms:
                    per_var[v].append(p)
                options = [
                    _minimal_members(alg, classes[v], per_var[v], close, finest)
                    for v in names
                ]
                for values in product(*options):
                    env = dict(zip(names, map(_value_mask, values)))
                    if not _holds_at(alg, sides, spec.mode, env):
                        return dict(zip(names, values)), (a, c)
        return None

    hit = first_violation(orbits.representatives(), finest=True)
    if hit is None:
        return Verdict(True, "exhaustive")
    a, c = hit[1]
    first = first_violation(range(a * n + c + 1), finest=False)
    if first is None:
        raise RuntimeError(f"principal scan found no violation up to {hit[1]}")
    env, pair = first
    return Verdict(False, "exhaustive", {"assignment": env, "pair": pair})


# ---------------------------------------------------------------------------
# free-algebra seed instances


def free_seed_assignment(
    free_alg: FiniteAlgebra,
    spec: IdentitySpec,
    generators: tuple = (0, 1, 2),
    narrow: bool = True,
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
        gen, most = _generator(classes[var]), _SHAPES[classes[var]][1]
        if most is None:
            out[var] = gen(free_alg, pts)
        elif 0 < most < len(pts):
            raise UnsupportedError(f"{spec.name}: seed needs more than {most} components")
        else:
            out[var] = UAdmRel([gen(free_alg, [p]) for p in pts])
    return out


def free_seed_verdict(
    free_alg: FiniteAlgebra,
    spec: IdentitySpec,
    generators: tuple = (0, 1, 2),
    narrow: bool = True,
) -> bool:
    """Whether (x,z) lands in the right side under the generic seed assignment."""
    assignment = free_seed_assignment(free_alg, spec, generators, narrow)
    rhs = eval_expr(free_alg, spec.rhs, assignment)
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
