"""k-ary term clones of a finite algebra, realized as tables A^(A^k).

The clone doubles as the free algebra on k generators of the variety the
algebra generates (the projections are the generators), so variety-level
questions reduce to finite checks here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .relations import BinRel, congruence_gen

# Cells per chunk of argument tuples (tuples times table cells), as in the
# tuple kernel of relations.
_CHUNK = 1 << 21


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

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """The id of each row of a 2-D array of tables, -1 where the clone
        lacks it: one index lookup per row."""
        index = self.index
        return np.array([index.get(key, -1) for key in _row_keys(rows)], dtype=np.intp)

    def matrix(self) -> np.ndarray:
        return np.stack([e.table for e in self.elements])


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, the keys of Clone.index, from
    one tolist of a void view rather than one tobytes call per row."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def _symmetric_pairs(table: np.ndarray, n: int, r: int) -> list[tuple[int, int]]:
    """The pairs i < j of argument positions of an r-ary table over
    {0..n-1} whose swap leaves the operation unchanged."""
    cube = np.asarray(table).reshape((n,) * r)
    return [
        (i, j)
        for i in range(r)
        for j in range(i + 1, r)
        if np.array_equal(cube, np.swapaxes(cube, i, j))
    ]


def _prefixed(a: int, blocks):
    """The blocks of tuples with the id a put in front of each tuple."""
    for block in blocks:
        yield np.vstack([np.full(block.shape[1], a), block])


def _grid_blocks(factors, limit: int):
    """The product of the 1-D id arrays in factors in lexicographic order,
    as (len(factors), m) arrays of at most limit tuples (at least one)."""
    head, rest = factors[0], factors[1:]
    tail = math.prod(len(f) for f in rest)
    if tail == 0:
        return
    if tail > limit:  # one head id at a time
        for a in head.tolist():
            yield from _prefixed(a, _grid_blocks(rest, limit))
        return
    step = max(1, limit // tail)
    for lo in range(0, len(head), step):
        part = [head[lo : lo + step], *rest]
        cells = np.indices([len(f) for f in part]).reshape(len(part), -1)
        yield np.stack([f[c] for f, c in zip(part, cells)])


def _new_tuple_blocks(start: int, total: int, r: int, limit: int):
    """The r-tuples (r >= 1) over range(total) with an entry >= start, in
    lexicographic order, as (r, m) id arrays of at most limit tuples (at
    least one).

    In that order they are a x T for each a < start, T the (r-1)-tuples with
    an entry >= start, then [start, total) x range(total)^(r-1).  Counts are
    Python ints, so total^r may exceed the int64 range."""
    if r > 1 and start:
        rest = total ** (r - 1) - start ** (r - 1)
        if rest <= limit:  # T in one array, under step heads at a time
            tail = np.hstack(list(_new_tuple_blocks(start, total, r - 1, limit)))
            step = limit // rest
            for lo in range(0, start, step):
                heads = np.arange(lo, min(lo + step, start))
                yield np.vstack([np.repeat(heads, rest), np.tile(tail, len(heads))])
        else:
            for a in range(start):
                yield from _prefixed(a, _new_tuple_blocks(start, total, r - 1, limit))
    yield from _grid_blocks([np.arange(start, total)] + [np.arange(total)] * (r - 1), limit)


def _projection_tables(n: int, k: int, dtype) -> list[np.ndarray]:
    grid = np.indices((n,) * k, dtype=dtype)
    return [grid[j].reshape(-1) for j in range(k)]


def generate_clone(
    alg: FiniteAlgebra, k: int, cap: int | None = None, caps: Caps = DEFAULT_CAPS
) -> Clone:
    """Breadth-first closure of the k projections under pointwise operations.

    Deterministic: depths increase, ops visited by name, argument tuples in
    lexicographic id order, so each table keeps its first (shortest) witness.
    Depth d applies each operation to the tuples that use an element added
    at depth d-1 (the nullary ones only at depth 1), a chunk of tuples at a
    time.  The rows of a chunk are scanned once, in tuple order, as bytes
    keys: a row is admitted when its key is neither in the index nor earlier
    in the chunk, and witnesses are built only for admitted rows.

    Where swapping arguments i < j leaves an operation unchanged, only the
    tuples with ids[i] <= ids[j] are applied.  A skipped tuple t repeats
    the table of its swap, which is lexicographically smaller, and so of
    the least tuple of its orbit under such swaps; that tuple meets every
    condition, holds the same ids and so lies in the same depth, and comes
    before t.  So t's table is already in the index when t would be
    applied, and applying it would admit nothing: no witness, depth or cap
    cut changes.

    A clone with more than cap elements keeps the first cap, incomplete.
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

    clone = Clone(alg, k, [], complete=False)  # complete once closed
    elements, index = clone.elements, clone.index

    def admit(table, key, depth, witness) -> None:
        index[key] = len(elements)
        elements.append(TermTable(len(elements), table, witness, depth))

    for j, tab in enumerate(_projection_tables(n, k, dtype)):
        key = tab.tobytes()
        if key not in index:  # on one element every projection is one table
            admit(tab, key, 0, Var(j))
    ops = sorted(alg.ops, key=lambda o: o.name)
    symmetric = [_symmetric_pairs(op.table, n, op.arity) for op in ops]
    limit = max(1, _CHUNK // span)

    start, depth = 0, 1
    while start < len(elements):
        total = len(elements)
        tm = np.stack([e.table for e in elements])
        for op, pairs in zip(ops, symmetric):
            otab = np.asarray(op.table, dtype=dtype)
            if op.arity == 0:
                tab = np.full(span, otab[0], dtype=dtype)
                key = tab.tobytes()
                if start == 0 and key not in index:
                    if len(elements) == cap:
                        return clone
                    admit(tab, key, depth, App(op.name, ()))
                continue
            for ids in _new_tuple_blocks(start, total, op.arity, limit):
                if pairs:
                    keep = np.logical_and.reduce([ids[i] <= ids[j] for i, j in pairs])
                    ids = ids[:, keep]
                out = apply_table(otab, n, (tm[c] for c in ids))
                fresh: dict[bytes, int] = {}
                for i, key in enumerate(_row_keys(out)):
                    if key not in index and key not in fresh:
                        fresh[key] = i
                rows = out[list(fresh.values())]  # a copy: no view keeps out alive
                for row, (key, i) in zip(rows, fresh.items()):
                    if len(elements) == cap:
                        return clone
                    args = tuple(elements[a].witness for a in ids[:, i].tolist())
                    admit(row, key, depth, App(op.name, args))
        start, depth = total, depth + 1
    clone.complete = True
    return clone


def clone_as_algebra(clone: Clone, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """Materialize the clone as a finite algebra on its element ids."""
    if not clone.complete:
        raise CapExceeded("clone generation hit its cap; element set is not closed")
    m = len(clone)
    n = clone.algebra.size
    tm = clone.matrix()
    limit = max(1, _CHUNK // tm.shape[1])
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
        for ids in _grid_blocks([np.arange(m)] * r, limit):  # lexicographic
            found = clone.find_rows(apply_table(otab, n, (tm[c] for c in ids)))
            if (found < 0).any():
                raise CapExceeded("clone is not closed (generation was capped)")
            table.extend(found.tolist())
        ops.append(Operation(op.name, r, table))
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


def free_relations(clone: Clone, caps: Caps = DEFAULT_CAPS) -> FreeRelations:
    """Generators and their principal congruences inside the clone-as-algebra."""
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


def slot_identifications(clone4: Clone, clone3: Clone) -> list[tuple[int, int, int]]:
    """For each 4-ary element u, the 3-ary clone ids of u with its last
    argument identified with x, y, z respectively.

    The pairs (u@x, u@z) over all u are exactly the principal admissible
    relation generated by (x,z) on the 3-generated free algebra, and
    likewise (u@x, u@y) for (x,y) and (u@y, u@z) for (y,z).
    """
    if clone4.arity != 4 or clone3.arity != 3:
        raise ValueError("expected a 4-ary and a 3-ary clone")
    n = clone4.algebra.size
    tm4 = clone4.matrix()
    columns = []
    for pattern in ("abca", "abcb", "abcc"):
        ids = clone3.find_rows(tm4[:, pattern_cells(n, pattern)])
        if (ids < 0).any():
            raise CapExceeded("restricted table missing from 3-ary clone")
        columns.append(ids.tolist())
    return list(zip(*columns))


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
