"""Term-system searches on clones, the SLM dichotomy, and expansion enumeration.

Variety-level verdicts are decided on the free algebra of the generated
variety (the 3- or 4-ary clone); absence is conclusive only when clone
generation reached its fixpoint under the cap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, product

import numpy as np

from .algebra import App, CapExceeded, FiniteAlgebra, Term, Var, pattern_cells
from .caps import DEFAULT_CAPS, Caps
from .freeclone import (
    Clone,
    free_relations,
    generate_clone,
    generator_ids,
    identity_holds,
    slot_identifications,
)
from .identities import (
    _PLAIN,
    AltR,
    BarOp,
    IdentitySpec,
    Inter,
    RVar,
    RelClass,
    Star,
    UnionOp,
    Verdict,
    check_for_all,
    desugar,
    eval_expr,
    map_children,
    nodes,
    UnsupportedError,
)


def subst_vars(t: Term, mapping: dict) -> Term:
    """Simultaneously replace variable indices (e.g. j(x,z,z) from j(x,y,z))."""
    if isinstance(t, Var):
        return Var(mapping.get(t.index, t.index))
    return App(t.op, tuple(subst_vars(a, mapping) for a in t.args))


def _identify(t: Term, pattern: str) -> Term:
    """t with its arguments identified as in pattern; the letters a, b, c, d
    name x, y, z, w ("acc" gives t(x,z,z))."""
    return subst_vars(t, {i: ord(c) - ord("a") for i, c in enumerate(pattern)})


# A condition (pattern, j) says that a term, restricted to the tuples that
# match pattern, equals projection j.
_SINGLE = {  # schema -> (role, conditions)
    "Majority": ("m", (("aab", 0), ("aba", 0), ("abb", 1))),
    "Pixley": ("p", (("abb", 0), ("aba", 0), ("aab", 2))),
}
_MIDDLE = ("aba", 0)  # every rung of a Jonsson ladder
# schema -> (length param, links): step i joins j_i and j_{i+1} by
# j_i|out = j_{i+1}|in with (out, in) = links[i % len(links)]
_LADDERS = {
    "Jonsson": ("k", (("aac", "aac"), ("acc", "acc"))),
    "DirectedJonsson": ("n", (("acc", "aac"),)),
}
_W_SLOT = {1: 0, 2: 1}  # MalF: w_1 = x, w_2 = y
_WP_SLOT = {1: 1, 2: 2}  # w'_1 = y, w'_2 = z
_MAL_SIDE = {1: ("abab", 0), 2: ("abac", 0)}  # s_{i+1}(x,y,x,w'_{f(i)}) = x


def _satisfies(clone, conditions) -> np.ndarray:
    """Which clone elements meet every (pattern, j) condition, read at the
    pattern's cells alone."""
    projections = generator_ids(clone.algebra.size, clone.arity)
    ok = np.ones(len(clone), dtype=bool)
    for pattern, j in conditions:
        values = clone.values(pattern_cells(clone.algebra.size, pattern))
        ok &= np.all(values == values[projections[j]], axis=1)
    return ok


def _roles(terms: dict, names) -> list:
    """The terms of the given names, in their order; any other set of names
    is an error.  names may be lazy: a bound read from a report is not
    trusted to be small."""
    names = list(islice(names, len(terms) + 1))
    if sorted(terms) != sorted(names):
        raise ValueError(f"expected the terms {', '.join(names)}, got {', '.join(terms)}")
    return [terms[name] for name in names]


def schema_equations(schema: str, params: dict, terms: dict) -> list:
    """The defining equations of a term system, as (lhs, rhs, pattern)
    triples, from its terms and parameters."""
    if schema in _SINGLE:
        role, conditions = _SINGLE[schema]
        (t,) = _roles(terms, [role])
        return [(t, Var(j), pattern) for pattern, j in conditions]
    if schema in _LADDERS:
        key, links = _LADDERS[schema]
        rungs = _roles(terms, (f"j{i}" for i in range(params[key] + 1)))
        eqs = [(rungs[0], Var(0), "abc"), (rungs[-1], Var(2), "abc")]
        pattern, j = _MIDDLE
        eqs += [(t, Var(j), pattern) for t in rungs]
        for i in range(len(rungs) - 1):
            out, into = links[i % len(links)]
            eqs.append((_identify(rungs[i], out), _identify(rungs[i + 1], into), "abc"))
        return eqs
    h = params["h"]
    if schema == "VR":
        names = chain((f"t{i}" for i in range(h + 1)), (f"{r}{i}" for i in range(h) for r in "us"))
        t = _roles(terms, names)[: h + 1]
        eqs = [(t[0], Var(0), "abc"), (t[h], Var(2), "abc")]
        for i in range(h):
            u, s = terms[f"u{i}"], terms[f"s{i}"]
            # u links t_i to t_{i+1} through (x, z), s through (x, y) or (y, z)
            lo, hi = (0, 1) if i % 2 == 0 else (1, 2)
            eqs.append((t[i], subst_vars(u, {3: 0}), "abc"))
            eqs.append((subst_vars(u, {3: 2}), t[i + 1], "abc"))
            eqs.append((t[i], subst_vars(s, {3: lo}), "abc"))
            eqs.append((subst_vars(s, {3: hi}), t[i + 1], "abc"))
        return eqs
    if schema == "MalF":
        f = tuple(params["f"])
        if len(f) != h or not set(f) <= {1, 2}:
            raise ValueError(f"MalF needs f in {{1,2}}^{h}, got {list(f)}")
        s = _roles(terms, (f"s{i}" for i in range(h)))
        eqs = [
            (subst_vars(s[0], {3: _W_SLOT[f[0]]}), Var(0), "abc"),
            (subst_vars(s[-1], {3: _WP_SLOT[f[-1]]}), Var(2), "abc"),
        ]
        for i in range(h - 1):
            eqs.append(
                (
                    subst_vars(s[i], {3: _WP_SLOT[f[i]]}),
                    subst_vars(s[i + 1], {3: _W_SLOT[f[i + 1]]}),
                    "abc",
                )
            )
            pattern, j = _MAL_SIDE[f[i]]
            eqs.append((_identify(s[i + 1], pattern), Var(j), "abc"))
        return eqs
    raise ValueError(f"unknown term schema {schema!r}")


@dataclass
class TermSystem:
    schema: str
    params: dict
    terms: dict  # role name -> Term
    equations: list  # (lhs Term, rhs Term, pattern) triples

    def check(self, alg: FiniteAlgebra) -> bool:
        """The equations are the schema's for these terms, and they hold."""
        return self.equations == schema_equations(self.schema, self.params, self.terms) and all(
            identity_holds(alg, l, r, p) for l, r, p in self.equations
        )

    def report_form(self) -> dict:
        return {
            "schema": self.schema,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params.items()},
            "terms": {k: str(v) for k, v in self.terms.items()},
            "equations": [
                {"lhs": str(l), "rhs": str(r), "pattern": p} for l, r, p in self.equations
            ],
        }


def _system(schema: str, params: dict, terms: dict) -> TermSystem:
    return TermSystem(schema, params, terms, schema_equations(schema, params, terms))


@dataclass
class SearchResult:
    found: bool
    system: TermSystem | None
    bound: int
    conclusive: bool  # absence is meaningful only when the clone closed
    shortest: int | None = None
    # the complete 3-ary clone on which a chain search found no system
    clone3: Clone | None = field(default=None, repr=False, compare=False)

    def report_form(self) -> dict:
        return {
            "found": self.found,
            "bound": self.bound,
            "conclusive": self.conclusive,
            "shortest": self.shortest,
            "system": self.system.report_form() if self.system else None,
        }


# ---------------------------------------------------------------------------
# single terms and Jonsson ladders


def _find_single(alg: FiniteAlgebra, schema: str, caps: Caps) -> SearchResult:
    """First clone element meeting the schema's conditions."""
    clone = generate_clone(alg, 3, caps=caps)
    role, conditions = _SINGLE[schema]
    hits = np.flatnonzero(_satisfies(clone, conditions))
    if len(hits) == 0:
        return SearchResult(False, None, 0, clone.complete)
    system = _system(schema, {}, {role: clone.witness(int(hits[0]))})
    return SearchResult(True, system, 0, clone.complete)


def find_majority(alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> SearchResult:
    """First clone element with m(x,x,y)=m(x,y,x)=m(y,x,x)=x."""
    return _find_single(alg, "Majority", caps)


def find_pixley(alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> SearchResult:
    """First clone element with p(x,y,y)=x, p(x,y,x)=x, p(x,x,y)=y."""
    return _find_single(alg, "Pixley", caps)


def _bfs_path(start, is_goal, neighbors):
    """A shortest path of at least one step from start to a goal state, or
    None: breadth first, each neighbour tested with is_goal as it is
    reached, so the first goal reached ends the search, start itself
    included when a step leads back to it."""
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in neighbors(s):
                if is_goal(t):
                    path = [t, s]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                if t not in parent:
                    parent[t] = s
                    nxt.append(t)
        frontier = nxt
    return None


def _find_ladder(alg: FiniteAlgebra, schema: str, bound: int, caps: Caps) -> SearchResult:
    """Shortest ladder j_0 = x, ..., j_k = z of rungs with j_i(x,y,x) = x,
    consecutive rungs linked as the schema's links say."""
    if bound < 1:
        raise ValueError("the ladder bound must be >= 1")
    clone = generate_clone(alg, 3, caps=caps)
    key, links = _LADDERS[schema]
    mid_ok = _satisfies(clone, [_MIDDLE])
    x_id, _, z_id = generator_ids(alg.size, 3)
    if not (mid_ok[x_id] and mid_ok[z_id]):
        return SearchResult(False, None, bound, clone.complete)
    restricted = {p: clone.values(pattern_cells(alg.size, p)) for link in links for p in link}
    by_in = {into: {} for _, into in links}
    for i in np.flatnonzero(mid_ok).tolist():
        for into, bucket in by_in.items():
            bucket.setdefault(restricted[into][i].tobytes(), []).append(i)

    def neighbors(state):
        node, step = state
        out, into = links[step]
        nxt = (step + 1) % len(links)
        return [(v, nxt) for v in by_in[into].get(restricted[out][node].tobytes(), [])]

    spath = _bfs_path((x_id, 0), lambda s: s[0] == z_id, neighbors)
    if spath is None:
        return SearchResult(False, None, bound, clone.complete)
    k = len(spath) - 1
    if k > bound:
        return SearchResult(False, None, bound, clone.complete, shortest=k)
    terms = {f"j{i}": clone.witness(s[0]) for i, s in enumerate(spath)}
    return SearchResult(True, _system(schema, {key: k}, terms), bound, clone.complete, shortest=k)


def find_jonsson(alg: FiniteAlgebra, max_k: int = 8, caps: Caps = DEFAULT_CAPS) -> SearchResult:
    """Shortest ladder j_0..j_k with j_0=x, j_k=z, j_i(x,y,x)=x and the
    even/odd middle-variable agreements; absence conclusive on a closed clone."""
    return _find_ladder(alg, "Jonsson", max_k, caps)


def find_directed_jonsson(
    alg: FiniteAlgebra, max_n: int = 8, caps: Caps = DEFAULT_CAPS
) -> SearchResult:
    """Ladder under j_i(x,z,z) = j_{i+1}(x,x,z) instead of the parity split."""
    return _find_ladder(alg, "DirectedJonsson", max_n, caps)


# ---------------------------------------------------------------------------
# chain searches in the free algebra (VR and MalF systems)
#
# Both searches read F(A,3) off the 4-ary clone.  A 4-ary element u has the
# slots (u@x, u@y, u@z), the 3-ary ids of u with its last argument
# identified with x, y and z (freeclone.slot_identifications).  The pairs
# (u@x, u@z) over all u are the principal admissible relation σ = adm(x,z)
# of F(A,3), (u@x, u@y) are τ = adm(x,y) and (u@y, u@z) are υ = adm(y,z).
# _first_pairs maps each pair of two slots to the first u that gives it,
# the term that puts it there.  A system is a chain x -> z of h steps
# (generator_ids) along such edge tables, found by one search (_chain):
# backward live sets, then one forward pass that takes at each step the
# first choice leading into live nodes.  VR has one choice per step, σ∩τ
# on even steps and σ∩υ on odd ones, each edge labelled with its first u in
# σ and its first s in τ or υ.  MalF chooses f(i) in {1, 2}, along the
# edges (u@w_{f(i)}, u@w'_{f(i)}) labelled u, keeping at step i > 0 only
# the u that meet the side condition of f(i-1); the first choice is the
# smaller value, so the f found is the lexicographically least.


def _chain_prelude(alg: FiniteAlgebra, h: int, caps: Caps):
    """(clone3, clone4, slots) of a chain search, or None when either clone
    is capped: without the 4-ary witnesses there is no verdict either way."""
    if h < 1:
        raise ValueError("h must be >= 1")
    clone3 = generate_clone(alg, 3, caps=caps)
    if not clone3.complete:
        return None
    clone4 = generate_clone(alg, 4, caps=caps)
    if not clone4.complete:
        return None
    return clone3, clone4, slot_identifications(clone4, clone3)


def _first_pairs(slots, i: int, j: int, keep=None) -> dict:
    """(u@slot i, u@slot j) -> the first 4-ary id u giving that pair, over
    the u with keep[u] (every u when keep is None)."""
    out = {}
    for u, ids in enumerate(slots):
        if keep is None or keep[u]:
            out.setdefault((ids[i], ids[j]), u)
    return out


def _chain(options, choices, start: int, goal: int, h: int):
    """The first chain of h steps from start to goal, as (picks, nodes,
    labels): the choice of each step, the h + 1 nodes and the label of
    each step's edge; or None.

    options(i, prev) lists the (choice, edges) that step i may take after
    the choice prev (None at step 0), in order of preference, and choices
    holds every choice an option names; edges maps (node, target) to a
    label.  live[i][prev] holds the nodes from which goal is reachable in
    steps i..h-1 after the choice prev.  One forward pass then takes at each
    step the first choice whose edges lead from the nodes reached so far
    into live nodes, and each new node keeps the edge into it from the
    least node of the layer before.  A node with an edge into a live node
    is live, so this is the path the unfiltered layers would keep for the
    same picks."""
    live = [None] * h + [dict.fromkeys(choices, {goal})]
    for i in range(h - 1, -1, -1):
        live[i] = {
            prev: {a for c, edges in options(i, prev) for a, b in edges if b in live[i + 1][c]}
            for prev in (choices if i else (None,))
        }
    if start not in live[0][None]:
        return None
    reach, prev, picks, layers = {start}, None, [], []
    for i in range(h):
        for c, edges in options(i, prev):
            layer: dict[int, tuple] = {}
            for (a, b), label in edges.items():
                if a in reach and b in live[i + 1][c] and (b not in layer or a < layer[b][0]):
                    layer[b] = (a, label)
            if layer:  # some choice leads on: every node reached is live
                break
        picks.append(c)
        layers.append(layer)
        reach, prev = layer, c
    nodes, labels = [goal], []
    for layer in reversed(layers):
        node, label = layer[nodes[-1]]
        nodes.append(node)
        labels.append(label)
    return tuple(picks), nodes[::-1], labels[::-1]


def _vr_steps(slots):
    """The options of a VR chain: σ∩τ on even steps and σ∩υ on odd ones,
    each pair labelled (its first u in σ, its first s in τ or υ)."""
    sigma, tau, ups = (_first_pairs(slots, i, j) for i, j in ((0, 2), (0, 1), (1, 2)))
    even, odd = ({p: (u, other[p]) for p, u in sigma.items() if p in other} for other in (tau, ups))
    return lambda i, prev: [(None, odd if i % 2 else even)]


def _mal_steps(clone4, slots):
    """The options of a MalF chain: f(i) = 1, then 2, each along the pairs
    (u@w_{f(i)}, u@w'_{f(i)}) labelled with their first u among those that
    meet the side condition of f(i-1) (every u at step 0)."""
    keeps = {None: None} | {v: _satisfies(clone4, [cond]).tolist() for v, cond in _MAL_SIDE.items()}
    steps = {
        (v, prev): _first_pairs(slots, _W_SLOT[v], _WP_SLOT[v], keep)
        for v in (1, 2)
        for prev, keep in keeps.items()
    }
    return lambda i, prev: [(v, steps[v, prev]) for v in (1, 2)]


def find_vr(alg: FiniteAlgebra, h: int, caps: Caps = DEFAULT_CAPS) -> SearchResult:
    """Chain x -> z through σ∩τ (even steps) and σ∩υ (odd steps) in the free
    algebra, with 4-ary witnesses read off the clone."""
    prelude = _chain_prelude(alg, h, caps)
    if prelude is None:
        return SearchResult(False, None, h, False)
    clone3, clone4, slots = prelude
    x, _, z = generator_ids(alg.size, 3)
    chain = _chain(_vr_steps(slots), (None,), x, z, h)
    if chain is None:
        return SearchResult(False, None, h, True, clone3=clone3)
    _, nodes, labels = chain
    terms = {f"t{i}": clone3.witness(e) for i, e in enumerate(nodes)}
    for i, (u, s) in enumerate(labels):
        terms[f"u{i}"] = clone4.witness(u)
        terms[f"s{i}"] = clone4.witness(s)
    return SearchResult(True, _system("VR", {"h": h}, terms), h, True, shortest=h)


def find_mal_f(alg: FiniteAlgebra, h: int, caps: Caps = DEFAULT_CAPS) -> SearchResult:
    """The lexicographically least f: {0..h-1} -> {1,2} with 4-ary witnesses
    s_i chaining x to z through α∩R_{f(i)} with the x = s_{i+1}(x,y,x;w'_{f(i)})
    side conditions."""
    prelude = _chain_prelude(alg, h, caps)
    if prelude is None:
        return SearchResult(False, None, h, False)
    clone3, clone4, slots = prelude
    x, _, z = generator_ids(alg.size, 3)
    chain = _chain(_mal_steps(clone4, slots), (1, 2), x, z, h)
    if chain is None:
        return SearchResult(False, None, h, True, clone3=clone3)
    f, _, labels = chain
    terms = {f"s{i}": clone4.witness(u) for i, u in enumerate(labels)}
    return SearchResult(True, _system("MalF", {"h": h, "f": f}, terms), h, True)


# ---------------------------------------------------------------------------
# dichotomy


@dataclass
class Dichotomy:
    left: bool  # (x,z) ∈ αβ ∘_k αγ
    right: bool  # (x,z) ∈ αγ ∘_k αβ
    verdict: str  # "Left" | "Right" | "Neither"


def slmore_dichotomy(alg: FiniteAlgebra, k: int, caps: Caps = DEFAULT_CAPS) -> Dichotomy:
    if k < 1:
        raise ValueError("k must be >= 1")
    fr = free_relations(generate_clone(alg, 3, caps=caps), caps)
    env = {"alpha": fr.alpha, "beta": fr.beta, "gamma": fr.gamma}
    ab, ag = Inter(RVar("alpha"), RVar("beta")), Inter(RVar("alpha"), RVar("gamma"))
    left = eval_expr(fr.free, AltR(ab, ag, k), env).contains(fr.x, fr.z)
    right = eval_expr(fr.free, AltR(ag, ab, k), env).contains(fr.x, fr.z)
    verdict = "Left" if left else ("Right" if right else "Neither")
    return Dichotomy(left, right, verdict)


# ---------------------------------------------------------------------------
# expansions (inclusions over U-variables -> families over plain variables)


@dataclass
class ExpansionSpec:
    source: str
    rhs_choice: dict  # var -> tuple of 1-based occurrence indices
    spec: IdentitySpec

    def report_form(self) -> dict:
        return {
            "source": self.source,
            "rhs_choice": {k: list(v) for k, v in self.rhs_choice.items()},
            "identity": self.spec.describe(),
        }


def _renamed(e, names, pick):
    """e with the i-th occurrence of each listed variable v, counted left to
    right from 1, renamed to pick(v, i)."""
    seen = Counter()

    def rename(x):
        if isinstance(x, RVar) and x.name in names:
            seen[x.name] += 1
            return RVar(pick(x.name, seen[x.name]))
        return map_children(x, rename)

    return rename(e)


def enumerate_expansions(spec: IdentitySpec, caps: Caps = DEFAULT_CAPS) -> list[ExpansionSpec]:
    """All expansions: the left side renames every occurrence of each
    U-variable to a distinct fresh admissible variable; the right side maps
    each occurrence to any variable of the matching group.  There are
    (left occurrences)^(right occurrences) of them for each variable, and
    more than caps.max_relations raises CapExceeded before any is built."""
    if spec.mode != "inclusion":
        raise UnsupportedError("expansions are defined for inclusions")
    lhs, rhs = desugar(spec.lhs), desugar(spec.rhs)
    if any(isinstance(x, (Star, UnionOp, BarOp)) for side in (lhs, rhs) for x in nodes(side)):
        raise UnsupportedError(
            "expansions are defined for inclusions built from ∩, ∘ and ^⌣ only"
        )
    u_vars = [v for v, c in spec.variables if c not in _PLAIN]
    lhs_counts, rhs_counts = (
        Counter(x.name for x in nodes(side) if isinstance(x, RVar) and x.name in u_vars)
        for side in (lhs, rhs)
    )
    for v in u_vars:
        if lhs_counts[v] == 0 and rhs_counts[v] > 0:
            raise UnsupportedError(
                f"variable {v} occurs only on the right side; no group to map into"
            )

    new_lhs = _renamed(
        lhs, u_vars, lambda v, i: f"{v}_{i}"
    )
    fresh = [
        (f"{v}_{i}", RelClass.ReflexiveAdmissible)
        for v in u_vars
        for i in range(1, lhs_counts[v] + 1)
    ]
    plain = [(v, c) for v, c in spec.variables if c in _PLAIN]
    narrow = {v: c for v, c in spec.narrow.items() if v in dict(plain)}

    active = [v for v in u_vars if rhs_counts[v] > 0]
    count = math.prod(lhs_counts[v] ** rhs_counts[v] for v in active)
    if count > caps.max_relations:
        raise CapExceeded(f"{count} expansions exceed max_relations = {caps.max_relations}")
    choice_space = []
    for v in active:
        choice_space.append(
            list(product(range(1, lhs_counts[v] + 1), repeat=rhs_counts[v]))
        )
    out = []
    for combo in product(*choice_space):
        choice = dict(zip(active, combo))
        pick = lambda v, i: f"{v}_{choice[v][i - 1]}"
        new_rhs = _renamed(rhs, active, pick)
        ident = IdentitySpec(
            name=f"{spec.name}.expansion",
            variables=tuple(plain) + tuple(fresh),
            lhs=new_lhs,
            rhs=new_rhs,
            mode="inclusion",
            narrow=narrow,
        )
        out.append(ExpansionSpec(spec.name, choice, ident))
    return out


@dataclass
class ExpansionCheck:
    any_holds: bool | None
    witness: ExpansionSpec | None
    u_verdict: Verdict
    expansion_verdicts: list
    agree: bool | None

    def report_form(self) -> dict:
        return {
            "any_holds": self.any_holds,
            "witness": self.witness.report_form() if self.witness else None,
            "u_verdict": self.u_verdict.report_form(),
            "checked": len(self.expansion_verdicts),
            "agree": self.agree,
        }


def check_any_expansion(
    alg: FiniteAlgebra,
    spec: IdentitySpec,
    caps: Caps = DEFAULT_CAPS,
    strategy: str = "exhaustive",
    narrow: bool = True,
) -> ExpansionCheck:
    """Whether some expansion holds over plain admissible quantification,
    cross-validated against the U-quantified verdict of the source."""
    u_verdict = check_for_all(alg, spec, strategy, caps, narrow=narrow)
    expansions = enumerate_expansions(spec, caps)
    verdicts = []
    witness = None
    any_holds: bool | None = False
    for exp in expansions:
        v = check_for_all(alg, exp.spec, strategy, caps, narrow=narrow)
        verdicts.append(v)
        if v.holds:
            witness = exp
            any_holds = True
            break
        if v.holds is None:
            any_holds = None
    if any_holds is False and any(v.holds is None for v in verdicts):
        any_holds = None
    agree = None
    if u_verdict.holds is not None and any_holds is not None:
        agree = u_verdict.holds == any_holds
    return ExpansionCheck(any_holds, witness, u_verdict, verdicts, agree)
