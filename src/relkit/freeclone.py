"""k-ary term clones of a finite algebra, realized as tables A^(A^k).

The clone doubles as the free algebra on k generators of the variety the
algebra generates (the projections are the generators), so variety-level
questions reduce to finite checks here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import (
    App,
    CapExceeded,
    FiniteAlgebra,
    Operation,
    Term,
    Var,
    apply_table,
    pattern_cells,
)
from .caps import DEFAULT_CAPS, Caps
from .relations import BinRel, admissible_closure, congruence_gen

_CHUNK = 4096


@dataclass
class TermTable:
    id: int
    table: np.ndarray  # flat, length n**k, last argument varies fastest
    witness: Term
    depth: int

    def key(self) -> bytes:
        return self.table.tobytes()


class Clone:
    """Deduplicated term tables, BFS depth order; index maps table bytes to id."""

    def __init__(self, algebra: FiniteAlgebra, arity: int, elements, complete: bool):
        self.algebra = algebra
        self.arity = arity
        self.elements: list[TermTable] = list(elements)
        self.index: dict[bytes, int] = {e.key(): e.id for e in self.elements}
        self.complete = complete

    def __len__(self):
        return len(self.elements)

    def table(self, i: int) -> np.ndarray:
        return self.elements[i].table

    def witness(self, i: int) -> Term:
        return self.elements[i].witness

    def find(self, table: np.ndarray):
        return self.index.get(np.ascontiguousarray(table).tobytes())

    def matrix(self) -> np.ndarray:
        return np.stack([e.table for e in self.elements])


def _projection_tables(n: int, k: int, dtype) -> list[np.ndarray]:
    grid = np.indices((n,) * k, dtype=dtype)
    return [grid[j].reshape(-1) for j in range(k)]


def generate_clone(
    alg: FiniteAlgebra, k: int, cap: int | None = None, caps: Caps = DEFAULT_CAPS
) -> Clone:
    """Breadth-first closure of the k projections under pointwise operations.

    Deterministic: depths increase, ops visited by name, argument tuples in
    lexicographic id order, so each table keeps its first (shortest) witness.
    """
    if k < 1:
        raise ValueError("clone arity must be >= 1")
    n = alg.size
    span = n**k
    if span > caps.max_table_cells:
        raise CapExceeded(f"clone index space {n}^{k} exceeds cell cap")
    if cap is None:
        cap = caps.clone_cap(k)
    if cap < k:
        raise ValueError("cap too small to hold the projections")
    dtype = np.min_scalar_type(n - 1)

    elements: list[TermTable] = []
    index: dict[bytes, int] = {}

    def admit(table, depth, witness) -> bool:
        """Add a new table; witness() builds its term only then."""
        key = table.tobytes()
        if key in index:
            return False
        e = TermTable(len(elements), table, witness(), depth)
        index[key] = e.id
        elements.append(e)
        return True

    for j, tab in enumerate(_projection_tables(n, k, dtype)):
        admit(tab, 0, lambda j=j: Var(j))
    ops = sorted(alg.ops, key=lambda o: o.name)
    op_tabs = {o.name: np.asarray(o.table, dtype=dtype) for o in ops}

    complete = True
    depth = 0
    prev_total = 0
    while True:
        total = len(elements)
        if total == prev_total and depth > 0:
            break
        frontier_start = prev_total
        prev_total = total
        depth += 1
        tm = np.stack([e.table for e in elements[:total]])
        grew = False
        for op in ops:
            r = op.arity
            if r == 0:
                tab = np.full(span, op.table[0], dtype=dtype)
                grew |= admit(tab, depth, lambda: App(op.name, ()))
                continue
            otab = op_tabs[op.name]
            batch: list[tuple] = []

            def flush():
                nonlocal grew
                if not batch:
                    return
                ids = np.array(batch, dtype=np.intp)
                out = apply_table(otab, n, (tm[ids[:, col]] for col in range(r)))
                for row, combo in zip(out, batch):
                    grew |= admit(
                        row, depth, lambda: App(op.name, tuple(elements[i].witness for i in combo))
                    )
                batch.clear()

            for combo in product(range(total), repeat=r):
                if max(combo) < frontier_start:
                    continue  # all-old tuples were already processed
                batch.append(combo)
                if len(batch) >= _CHUNK:
                    flush()
                    if len(elements) > cap:
                        break
            flush()
            if len(elements) > cap:
                return Clone(alg, k, elements[: cap], complete=False)
        if not grew:
            break
    return Clone(alg, k, elements, complete=complete)


def clone_as_algebra(clone: Clone, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """Materialize the clone as a finite algebra on its element ids."""
    if not clone.complete:
        raise CapExceeded("clone generation hit its cap; element set is not closed")
    m = len(clone)
    n = clone.algebra.size
    tm = clone.matrix()
    ops = []
    for op in clone.algebra.ops:
        r = op.arity
        if m**r > caps.max_table_cells:
            raise CapExceeded(f"operation table {m}^{r} exceeds cell cap")
        if r == 0:
            tab = np.full(n**clone.arity, op.table[0], dtype=tm.dtype)
            target = clone.find(tab)
            if target is None:
                raise CapExceeded("constant table missing from clone")
            ops.append(Operation(op.name, 0, (target,)))
            continue
        otab = np.asarray(op.table, dtype=tm.dtype)
        table = []
        # the id tuples in lexicographic order, _CHUNK at a time
        for start in range(0, m**r, _CHUNK):
            combos = np.unravel_index(np.arange(start, min(start + _CHUNK, m**r)), (m,) * r)
            out = apply_table(otab, n, (tm[ids] for ids in combos))
            for row in out:
                target = clone.find(row)
                if target is None:
                    raise CapExceeded("clone is not closed (generation was capped)")
                table.append(target)
        ops.append(Operation(op.name, r, tuple(table)))
    name = f"F({clone.algebra.name or 'A'},{clone.arity})"
    return FiniteAlgebra(m, ops, name=name)


@dataclass
class FreeRelations:
    free: FiniteAlgebra
    x: int
    y: int
    z: int
    alpha: BinRel  # Cg(x,z)
    beta: BinRel  # Cg(x,y)
    gamma: BinRel  # Cg(y,z)
    r_xy: BinRel
    r_yz: BinRel
    r_xz: BinRel


def free_relations(clone: Clone, caps: Caps = DEFAULT_CAPS) -> FreeRelations:
    """Generators and principal relations inside the clone-as-algebra."""
    if clone.arity != 3:
        raise ValueError("free relations are defined on the 3-generated clone")
    free = clone_as_algebra(clone, caps)
    x, y, z = 0, 1, 2
    return FreeRelations(
        free,
        x,
        y,
        z,
        alpha=congruence_gen(free, [(x, z)]),
        beta=congruence_gen(free, [(x, y)]),
        gamma=congruence_gen(free, [(y, z)]),
        r_xy=admissible_closure(free, [(x, y)]),
        r_yz=admissible_closure(free, [(y, z)]),
        r_xz=admissible_closure(free, [(x, z)]),
    )


def table_of_term(alg: FiniteAlgebra, t: Term, k: int) -> np.ndarray:
    """Vectorized k-ary table of a term (last argument varies fastest)."""
    dtype = np.min_scalar_type(alg.size - 1)
    return _term_table(alg, t, _projection_tables(alg.size, k, dtype), dtype)


def _term_table(alg: FiniteAlgebra, t: Term, projs: list, dtype) -> np.ndarray:
    # recursion at module level: a nested recursive function would hold the
    # projection tables in a reference cycle after every call
    if isinstance(t, Var):
        if t.index >= len(projs):
            raise ValueError(f"term variable index {t.index} outside arity {len(projs)}")
        return projs[t.index]
    op = alg.op(t.op)
    if len(t.args) != op.arity:
        raise ValueError(f"operation {t.op!r} has arity {op.arity}, got {len(t.args)} args")
    otab = np.asarray(op.table, dtype=dtype)
    if not t.args:
        return np.full(alg.size ** len(projs), otab[0], dtype=dtype)
    return apply_table(otab, alg.size, [_term_table(alg, a, projs, dtype) for a in t.args])


def identity_holds(alg: FiniteAlgebra, lhs: Term, rhs: Term, pattern: str) -> bool:
    """True iff lhs and rhs agree on every tuple matching the pattern.

    The pattern assigns a letter to each argument position; positions sharing
    a letter must carry equal values ("aba" checks all tuples (a,b,a)).
    """
    k = len(pattern)
    if k == 0:
        raise ValueError("empty substitution pattern")
    cells = pattern_cells(alg.size, pattern)
    return bool(np.array_equal(table_of_term(alg, lhs, k)[cells], table_of_term(alg, rhs, k)[cells]))


def restrict_table(table: np.ndarray, n: int, k: int, slot: int) -> np.ndarray:
    """Identify the last argument with argument `slot`: a (k-1)-ary table."""
    if not 0 <= slot < k - 1:
        raise ValueError("slot must name one of the first k-1 arguments")
    return np.asarray(table)[pattern_cells(n, [*range(k - 1), slot])]


def slot_identifications(clone4: Clone, clone3: Clone) -> list[tuple[int, int, int]]:
    """For each 4-ary element u, the 3-ary clone ids of u with its last
    argument identified with x, y, z respectively.

    The pair (u@x, u@z) over all u is exactly the principal admissible
    relation generated by (x,z) on the 3-generated free algebra.
    """
    if clone4.arity != 4 or clone3.arity != 3:
        raise ValueError("expected a 4-ary and a 3-ary clone")
    n = clone4.algebra.size
    tm4 = clone4.matrix()
    columns = []
    for pattern in ("abca", "abcb", "abcc"):
        ids = [clone3.find(row) for row in tm4[:, pattern_cells(n, pattern)]]
        if None in ids:
            raise CapExceeded("restricted table missing from 3-ary clone")
        columns.append(ids)
    return list(zip(*columns))


def principal_sigma_4ary(clone4: Clone, clone3: Clone) -> BinRel:
    """The relation {(u@x, u@z) : u 4-ary} on the 3-generated free algebra."""
    m = len(clone3)
    pairs = [(a, c) for (a, _b, c) in slot_identifications(clone4, clone3)]
    return BinRel.from_pairs(m, pairs)


def dump_clone(clone: Clone) -> dict:
    return {
        "algebra": clone.algebra.fingerprint(),
        "arity": clone.arity,
        "count": len(clone),
        "complete": clone.complete,
        "elements": [
            {
                "id": e.id,
                "depth": e.depth,
                "table": [int(v) for v in e.table],
                "witness": str(e.witness),
            }
            for e in clone.elements
        ],
    }
