"""U-admissible relations: unions of families of reflexive-admissible relations.

A family (`UAdmRel`) is a witness: it is what a quantifier ranges over and
what a counterexample reports, so a decomposition stays visible.  Identities
compare union views (`union_view`) only.  Every operator of the expression
language (intersection, union, composition, converse, ^* and bar)
distributes over the union of the components, so the evaluator of
`identities` (`eval_expr` and its mask-level core) evaluates on union-view
masks.  The componentwise operators below (`compose_u` and friends) give
the same union views; the evaluator does not use them.

The quantifier pools `enumerate_u` (every union, up to caps.max_relations
views) and `pair_families` (unions of at most two) run `relations.joins`,
the join loop that also builds each relation kind with its closure; here it
takes no closure, so a view is a plain union.  A reflexive R is U-admissible
iff adm(p) <= R for each p in R, so the uadm: pool joins the principal
relations adm(p) (`relations.pair_closure`).
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .caps import DEFAULT_CAPS, Caps
from .relations import (
    BinRel,
    EnumResult,
    admissible_closure,
    compose,
    converse,
    intersect,
    is_reflexive_admissible,
    joins,
    kind_functions,
    pair_closure,
    pairs_order,
    transitive_closure,
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
    return tuple(sorted(kept, key=pairs_order))


def from_components(alg: FiniteAlgebra, components) -> UAdmRel:
    for c in components:
        if not is_reflexive_admissible(alg, c):
            raise ValueError(f"component is not reflexive-admissible: {c!r}")
    return UAdmRel(components)


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


def bar_u(alg: FiniteAlgebra, sigma: UAdmRel) -> UAdmRel:
    """Smallest reflexive admissible relation containing the union."""
    return UAdmRel([admissible_closure(alg, sigma.union_view)])


# ---------------------------------------------------------------------------
# recognizing / decomposing plain relations


def _principals(alg: FiniteAlgebra, rel: BinRel):
    """The principal relations adm(p) of the pairs p of rel, from the memo."""
    if rel.n != alg.size:
        raise ValueError("relation universe does not match the algebra")
    close = kind_functions("reflexive_admissible")[0]
    return (pair_closure(alg, close, a * rel.n + b) for a, b in rel.pairs())


def is_u_admissible(alg: FiniteAlgebra, rel: BinRel) -> bool:
    """rel is a union of reflexive-admissible relations iff it is reflexive
    and every principal closure <(a,b)> of one of its pairs stays inside it."""
    return rel.is_reflexive() and all(c <= rel for c in _principals(alg, rel))


def principal_decomposition(alg: FiniteAlgebra, rel: BinRel) -> UAdmRel:
    """Exact decomposition into principal components (fails if not U-admissible)."""
    if not is_u_admissible(alg, rel):
        raise ValueError("relation is not U-admissible")
    return UAdmRel(_principals(alg, rel))


# ---------------------------------------------------------------------------
# enumeration of candidate families for quantifiers


def _pool(base, kind: str, exhaustive: bool, depth=None, bound=None) -> EnumResult:
    """One witness family per union view of the base relations."""
    base = list(base)
    if not base:
        raise ValueError("empty base for U-enumeration")
    views, truncated = joins([b.mask for b in base], depth=depth, bound=bound)
    families = sorted(
        (UAdmRel([base[i] for i in wit]) for wit in views.values()),
        key=lambda u: pairs_order(u.union_view),
    )
    return EnumResult(kind, families, exhaustive=exhaustive and not truncated)


def enumerate_u(base, base_exhaustive: bool, caps: Caps = DEFAULT_CAPS) -> EnumResult:
    """Every union of the reflexive-admissible base (one witness family per
    view), truncated past caps.max_relations views or when the base is."""
    return _pool(base, "u_admissible", base_exhaustive, bound=caps.max_relations)


def pair_families(base, base_exhaustive: bool) -> EnumResult:
    """All unions of at most two base relations (exactly the U2 class)."""
    return _pool(base, "u2_admissible", base_exhaustive, depth=2)
