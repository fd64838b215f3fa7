"""U-admissible relations: unions of families of reflexive-admissible relations.

A family (`UAdmRel`) is a witness: it is what a quantifier ranges over and
what a counterexample reports, so a decomposition stays visible.  Identities
compare union views (`union_view`) only.  Every operator of the expression
language (intersection, union, composition, converse, ^* and bar)
distributes over the union of the components, so `identities.eval_expr`
evaluates on plain relations.  The componentwise operators below
(`compose_u` and friends) give the same union views; the evaluator does not
use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import FiniteAlgebra
from .caps import DEFAULT_CAPS, Caps
from .relations import (
    BinRel,
    admissible_closure,
    compose,
    converse,
    intersect,
    is_congruence,
    is_reflexive_admissible,
    transitive_closure,
    union,
)


class UAdmRel:
    __slots__ = ("n", "components", "union_view")

    def __init__(self, components):
        comps = canonical_components(components)
        if not comps:
            raise ValueError("a U-admissible relation needs at least one component")
        self.n = comps[0].n
        self.components = comps
        mask = 0
        for c in comps:
            mask |= c.mask
        self.union_view = BinRel(self.n, mask)

    def __eq__(self, other):
        return (
            isinstance(other, UAdmRel)
            and self.n == other.n
            and [c.mask for c in self.components] == [c.mask for c in other.components]
        )

    def __hash__(self):
        return hash((self.n, tuple(c.mask for c in self.components)))

    def __repr__(self):
        return f"UAdmRel({len(self.components)} components, union={self.union_view.pairs()})"

    def report_form(self) -> dict:
        return {
            "components": [c.pairs() for c in self.components],
            "union": self.union_view.pairs(),
        }


def canonical_components(components) -> tuple:
    """Drop duplicates and dominated components; sort by pair list."""
    comps = list(components)
    if not comps:
        return ()
    uniq = {c.mask: c for c in comps}
    kept = []
    for c in uniq.values():
        if any(o.mask != c.mask and c.mask | o.mask == o.mask for o in uniq.values()):
            continue
        kept.append(c)
    return tuple(sorted(kept, key=lambda r: r.pairs()))


def from_components(alg: FiniteAlgebra, components, validate: bool = True) -> UAdmRel:
    if validate:
        for c in components:
            if not is_reflexive_admissible(alg, c):
                raise ValueError(f"component is not reflexive-admissible: {c!r}")
    return UAdmRel(components)


def from_congruences(alg: FiniteAlgebra, beta: BinRel, gamma: BinRel) -> UAdmRel:
    for r in (beta, gamma):
        if not is_congruence(alg, r):
            raise ValueError(f"not a congruence: {r!r}")
    return UAdmRel([beta, gamma])


def as_u(value) -> UAdmRel:
    """Coerce a plain reflexive-admissible relation to a one-component family."""
    if isinstance(value, UAdmRel):
        return value
    return UAdmRel([value])


def compose_u(sigma: UAdmRel, tau: UAdmRel) -> UAdmRel:
    """Family of all pairwise compositions; union view composes accordingly."""
    comps = [compose(s, t) for s in sigma.components for t in tau.components]
    return UAdmRel(comps)


def intersect_tol(theta: BinRel, sigma: UAdmRel) -> UAdmRel:
    """theta & sigma componentwise (intersection distributes over the union)."""
    return UAdmRel([intersect(theta, c) for c in sigma.components])


def intersect_u(sigma: UAdmRel, tau: UAdmRel) -> UAdmRel:
    return UAdmRel(
        [intersect(s, t) for s in sigma.components for t in tau.components]
    )


def union_u(sigma: UAdmRel, tau: UAdmRel) -> UAdmRel:
    return UAdmRel(list(sigma.components) + list(tau.components))


def converse_u(sigma: UAdmRel) -> UAdmRel:
    return UAdmRel([converse(c) for c in sigma.components])


def transitive_closure_u(sigma: UAdmRel) -> UAdmRel:
    """Family of all component compositions up to union stabilization."""
    target = transitive_closure(sigma.union_view)
    level = list(sigma.components)
    every = {c.mask: c for c in level}
    mask = sigma.union_view.mask
    while mask != target.mask:
        nxt = {}
        for p in level:
            for c in sigma.components:
                q = compose(p, c)
                if q.mask not in every:
                    nxt[q.mask] = q
        level = list(nxt.values())
        for q in level:
            every[q.mask] = q
            mask |= q.mask
        if not level:
            break
    out = UAdmRel(every.values())
    assert out.union_view.mask == target.mask
    return out


def bar_u(alg: FiniteAlgebra, sigma: UAdmRel, caps: Caps = DEFAULT_CAPS) -> UAdmRel:
    """Smallest reflexive admissible relation containing the union."""
    return UAdmRel([admissible_closure(alg, sigma.union_view, caps)])


# ---------------------------------------------------------------------------
# recognizing / decomposing plain relations


def principal_components(alg: FiniteAlgebra, rel: BinRel, caps: Caps = DEFAULT_CAPS):
    """Principal closures of the pairs of rel (each one is <=(a,b)>)."""
    return [admissible_closure(alg, [p], caps) for p in rel.pairs()]


def is_u_admissible(alg: FiniteAlgebra, rel: BinRel, caps: Caps = DEFAULT_CAPS) -> bool:
    """rel is a union of reflexive-admissible relations iff every principal
    closure of one of its pairs stays inside it."""
    if not rel.is_reflexive():
        return False
    for comp in principal_components(alg, rel, caps):
        if comp.mask | rel.mask != rel.mask:
            return False
    return True


def principal_decomposition(alg: FiniteAlgebra, rel: BinRel, caps: Caps = DEFAULT_CAPS) -> UAdmRel:
    """Exact decomposition into principal components (fails if not U-admissible)."""
    comps = principal_components(alg, rel, caps)
    for comp in comps:
        if comp.mask | rel.mask != rel.mask:
            raise ValueError("relation is not U-admissible")
    return UAdmRel(comps)


def greedy_decomposition(alg: FiniteAlgebra, rel: BinRel, caps: Caps = DEFAULT_CAPS) -> UAdmRel:
    """Best-effort small component family (no optimality guarantee)."""
    sigma = principal_decomposition(alg, rel, caps)
    remaining = list(sigma.components)
    chosen = []
    covered = 0
    while covered != rel.mask:
        best = max(remaining, key=lambda c: ((c.mask & ~covered).bit_count(), -c.mask))
        chosen.append(best)
        covered |= best.mask
        remaining = [c for c in remaining if c.mask & ~covered]
    return UAdmRel(chosen)


# ---------------------------------------------------------------------------
# enumeration of candidate families for quantifiers


@dataclass
class UEnumResult:
    families: list
    exhaustive: bool
    truncated: bool = False

    def __iter__(self):
        return iter(self.families)

    def __len__(self):
        return len(self.families)


def enumerate_u(base, base_exhaustive: bool, caps: Caps = DEFAULT_CAPS) -> UEnumResult:
    """Families of <= caps.max_components relations from the base list,
    one witness family per distinct union view.

    Verdicts only depend on union views, so the enumeration is exhaustive
    over ALL U-admissible relations when the view set is stable under adding
    one more base component (then larger families add no new views).
    """
    base = list(base)
    if not base:
        raise ValueError("empty base for U-enumeration")
    limit = caps.max_components or len(base)
    views = {}
    size = 0
    stable = False
    while size < limit:
        size += 1
        before = len(views)
        for combo in combinations(range(len(base)), size):
            mask = 0
            for i in combo:
                mask |= base[i].mask
            if mask not in views:
                views[mask] = UAdmRel([base[i] for i in combo])
        if size > 1 and len(views) == before:
            stable = True
            break
    if not stable:
        stable = all(
            (v | b.mask) in views for v in list(views) for b in base
        )
    families = sorted(views.values(), key=lambda u: (u.union_view.pairs(), len(u.components)))
    exhaustive = base_exhaustive and stable
    return UEnumResult(families, exhaustive=exhaustive, truncated=not exhaustive)


def pair_families(base, base_exhaustive: bool) -> UEnumResult:
    """All families of at most two base relations (exactly the U2 class)."""
    base = list(base)
    views = {}
    for i in range(len(base)):
        for j in range(i, len(base)):
            mask = base[i].mask | base[j].mask
            if mask not in views:
                views[mask] = UAdmRel([base[i], base[j]])
    families = sorted(views.values(), key=lambda u: (u.union_view.pairs(), len(u.components)))
    return UEnumResult(families, exhaustive=base_exhaustive, truncated=not base_exhaustive)
