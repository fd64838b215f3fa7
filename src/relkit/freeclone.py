"""k-ary term clones of a finite algebra, realized as tables A^(A^k).

The clone doubles as the free algebra on k generators of the variety the
algebra generates (the projections are the generators), so variety-level
questions reduce to finite checks here.

A term operation t commutes with every endomorphism h of A:
t(h(s)) = h(t(s)) for each cell s in A^k, h applied to each coordinate
(Burris and Sankappanavar, A Course in Universal Algebra, II.10-11).  So
when every cell c is h(s) for some s in a set S of separating cells and
some endomorphism h, t is fixed by its values on S, and two term tables are
equal exactly when they agree on S.  generate_clone runs its closure on
those restrictions, which on the bundled lattices and baker4 keep 228 of
625 cells at k = 4 (lattice_n5) and 91 of 256 (baker4, lattice_2x2).

So a clone keeps one index, from restricted rows to ids (Clone.ids), and
reads the cells a caller needs off the restricted rows (Clone.values); full
tables are built only for a listing.

Per element a clone stores its restricted row, its recipe and its depth in
numpy arrays: an int16 operation index (-1 for a projection), int32
argument ids (the variable index for a projection) and an int32 depth, so
no Python object is made per element until a witness or a TermTable is
asked for.  The closure works in chunks of at most _CHUNK = 2^19 cells of
argument tuples times row width: each chunk's gathered arguments, flat
index and byte-table buffer (0.5 MB each at one byte per cell) stay in
cache, and building the capped 4-ary lattice_n5 clone (20,000 elements)
peaks at 13.5 MB of traced allocations, against 20.8 MB with 2^21-cell
chunks.
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
    endomorphisms,
    pattern_cells,
)
from .caps import DEFAULT_CAPS, Caps
from .relations import BinRel, congruence_gen, pair_closure

# Cells per chunk of argument tuples (tuples times restricted table cells),
# a quarter of the tuple kernel's chunk in relations, so that one chunk's
# temporaries stay in cache; also the most endomorphism images
# separating_cells ranks and the most table cells Clone.values reads at once.
_CHUNK = 1 << 19


@dataclass
class TermTable:
    id: int
    table: np.ndarray  # flat, length n**k, last argument varies fastest
    witness: Term
    depth: int

    def key(self) -> bytes:
        return self.table.tobytes()


@dataclass
class CellCover:
    """Separating cells of A^k: each cell c (a flat index) is
    emaps[hid[c]] applied to cells[rep[c]], coordinate by coordinate."""

    emaps: np.ndarray  # (|E|, n) endomorphisms, the identity among them
    cells: np.ndarray  # S, the representatives, ascending
    rep: np.ndarray  # per cell, the position in cells of its representative
    hid: np.ndarray  # per cell, the row of emaps taking the representative to it


def separating_cells(alg: FiniteAlgebra, k: int) -> CellCover:
    """A cover of A^k by the images of a few cells under the endomorphisms
    that endomorphisms(alg) finds, at most max(1, _CHUNK // n^k) of them
    (the identity first among those kept).

    A cell s reaches the distinct cells h(s).  Cells rank by reach, larger
    first, then by index, and each cell takes as its representative the
    best-ranked cell that reaches it, with the first endomorphism that
    does.  With the identity alone every cell represents itself."""
    n = alg.size
    span = n**k
    found = endomorphisms(alg)
    keep = max(1, _CHUNK // span)
    if len(found) > keep:
        identity = tuple(range(n))
        found = [identity] + [h for h in found if h != identity][: keep - 1]
    if len(found) == 1:  # the identity: skip ranking n^k cells that cover only themselves
        cells = np.arange(span)
        return CellCover(np.array(found, dtype=np.intp), cells, cells, np.zeros(span, dtype=np.intp))
    dtype = np.min_scalar_type(span - 1)
    emaps = np.array(found, dtype=dtype)
    grid = np.indices((n,) * k, dtype=np.intp).reshape(k, span)
    images = emaps[:, grid[0]]  # (|E|, span): the flat index of h(s)
    for g in grid[1:]:
        images *= n
        images += emaps[:, g]
    ordered = np.sort(images, axis=0)
    reach = 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)
    ranked = np.argsort(-reach, kind="stable")  # larger reach first, then lower index
    rank = np.empty(span, dtype=np.intp)
    rank[ranked] = np.arange(span)
    best = np.full(span, span, dtype=np.intp)
    # per cell, the best rank reaching it (ufunc.at wants a 1-D index here)
    np.minimum.at(best, images.ravel(), np.tile(rank, len(emaps)))
    source = ranked[best]
    hid = np.argmax(images[:, source] == np.arange(span), axis=0)
    chosen = np.zeros(span, dtype=bool)
    chosen[source] = True
    position = np.cumsum(chosen) - 1
    return CellCover(emaps.astype(np.intp), np.flatnonzero(chosen), position[source], hid)


class Clone:
    """The elements of a k-ary clone in BFS order, stored on separating
    cells (CellCover).  Element i is row i of four arrays that grow
    together: its table at the cells S, the index of the operation that
    made it in ops (-1 for a projection), its argument ids (for a
    projection, its variable index in column 0; one column per argument of
    the widest operation) and its depth.

    Its one index maps restricted rows to ids.  Built on first use and
    kept: matrix() (the values at every cell), the elements as TermTables,
    and each witness term, whose subterms are the witnesses of its
    arguments.  generate_clone fills a clone; it does not change after."""

    def __init__(self, algebra: FiniteAlgebra, arity: int, cover: CellCover):
        self.algebra = algebra
        self.arity = arity
        self.complete = False
        self.cover = cover
        self.ops = sorted(algebra.ops, key=lambda o: o.name)
        n = algebra.size
        dtype = np.min_scalar_type(n - 1)
        width = max([1] + [op.arity for op in self.ops])
        self._count = 0
        self._rows = np.empty((16, len(cover.cells)), dtype=dtype)
        self._op = np.empty(16, dtype=np.int16)
        self._args = np.empty((16, width), dtype=np.int32)
        self._depths = np.empty(16, dtype=np.int32)
        self._keys: dict[bytes, int] = {}  # row bytes -> id
        self._witnesses: dict[int, Term] = {}
        # full tables: emaps flattened, looked up at hid[c] * n + row[rep[c]]
        self._lut = cover.emaps.ravel().astype(dtype)
        self._shift = (cover.hid * n).astype(np.min_scalar_type(self._lut.size - 1))
        self._matrix = self._elements = None

    def __len__(self):
        return self._count

    def rows(self) -> np.ndarray:
        """The restricted tables, one row per element (a view)."""
        return self._rows[: self._count]

    def depths(self) -> np.ndarray:
        """The depth of each element (a view)."""
        return self._depths[: self._count]

    def _admit(self, rows: np.ndarray, keys: list, op: int, args: np.ndarray, depth: int) -> None:
        """Append rows made by ops[op] (-1: projections) from args, an
        (m, arity) array of argument ids."""
        start = self._count
        end = start + len(rows)
        if end > len(self._rows):
            size = max(end, 2 * len(self._rows))
            for name in ("_rows", "_op", "_args", "_depths"):
                old = getattr(self, name)
                grown = np.empty((size,) + old.shape[1:], old.dtype)
                grown[:start] = old[:start]
                setattr(self, name, grown)
        self._rows[start:end] = rows
        self._op[start:end] = op
        self._args[start:end, : args.shape[1]] = args
        self._depths[start:end] = depth
        self._keys.update(zip(keys, range(start, end)))
        self._count = end

    def values(self, cells) -> np.ndarray:
        """Each element's values at the given flat cells of A^k, one row per
        element, read off the restricted rows _CHUNK cells at a time."""
        rows, shift, rep = self.rows(), self._shift[cells], self.cover.rep[cells]
        out = np.empty((len(rows), len(rep)), dtype=rows.dtype)
        step = max(1, _CHUNK // len(rep))
        for lo in range(0, len(rows), step):
            flat = shift + rows[lo : lo + step, rep]
            out[lo : lo + step] = apply_table(self._lut, self._lut.size, [flat])
        return out

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.values(np.arange(len(self.cover.rep)))
        return self._matrix

    def table(self, i: int) -> np.ndarray:
        return self.matrix()[i]

    def witness(self, i: int) -> Term:
        term = self._witnesses.get(i)
        if term is None:
            op = int(self._op[i])
            if op < 0:
                term = Var(int(self._args[i, 0]))
            else:
                op = self.ops[op]
                args = self._args[i, : op.arity].tolist()
                term = App(op.name, tuple(self.witness(a) for a in args))
            self._witnesses[i] = term
        return term

    @property
    def elements(self) -> list[TermTable]:
        if self._elements is None:
            tm = self.matrix()
            self._elements = [
                TermTable(i, tm[i], self.witness(i), d)
                for i, d in enumerate(self.depths().tolist())
            ]
        return self._elements

    def ids(self, rows: np.ndarray) -> np.ndarray:
        """The id of each row of a 2-D array of tables restricted to the cells
        S, -1 where the clone lacks it.  Only for restrictions of term
        tables, which name one table each (module docstring): another table
        may agree with an element on S alone."""
        keys = self._keys
        return np.array([keys.get(key, -1) for key in _row_keys(rows)], dtype=np.intp)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, the keys of Clone._keys, from
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


def generator_ids(size: int, k: int) -> tuple[int, ...]:
    """The clone ids of the k projections x_0, ..., x_{k-1} of an algebra of
    size elements, which clone_as_algebra keeps as the generators of the
    free algebra: 0..k-1, the order generate_clone admits them in, and all
    0 on one element, where every projection is the same table."""
    return tuple(range(k)) if size > 1 else (0,) * k


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
    in the chunk.

    Every table here is restricted to the separating cells S of
    separating_cells(alg, k).  Operations act cell by cell, so the
    restriction of f(t_1, ..., t_r) is f applied to the restrictions, and
    two term tables are equal exactly when their restrictions are (see the
    module docstring).  So the closure on restrictions admits the same
    elements in the same order, with the same witnesses, depths and cap cut,
    as on full tables; only its rows are narrower.

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
    if n**k > caps.max_table_cells:
        raise CapExceeded(f"clone index space {n}^{k} exceeds cell cap")
    if cap is None:
        cap = caps.clone_cap(k)
    if cap < k:
        raise ValueError("cap too small to hold the projections")
    dtype = np.min_scalar_type(n - 1)
    cover = separating_cells(alg, k)
    clone = Clone(alg, k, cover)  # complete once closed
    index = clone._keys

    for j, tab in enumerate(_projection_tables(n, k, dtype)):
        row = tab[cover.cells]
        key = row.tobytes()
        if key not in index:  # on one element every projection is one table
            clone._admit(row[None], [key], -1, np.array([[j]]), 0)
    symmetric = [_symmetric_pairs(op.table, n, op.arity) for op in clone.ops]
    nullary = np.empty((1, 0), dtype=np.int32)
    width = len(cover.cells)
    limit = max(1, _CHUNK // width)

    start, depth = 0, 1
    while start < len(clone):
        total = len(clone)
        tm = clone.rows()
        for o, (op, pairs) in enumerate(zip(clone.ops, symmetric)):
            otab = np.asarray(op.table, dtype=dtype)
            if op.arity == 0:
                row = np.full(width, otab[0], dtype=dtype)
                key = row.tobytes()
                if start == 0 and key not in index:
                    if len(clone) == cap:
                        return clone
                    clone._admit(row[None], [key], o, nullary, depth)
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
                room = cap - len(clone)
                keys = list(fresh)[:room]
                picks = [fresh[key] for key in keys]
                clone._admit(out[picks], keys, o, ids[:, picks].T, depth)
                if len(fresh) > room:
                    return clone
        start, depth = total, depth + 1
    clone.complete = True
    return clone


def clone_as_algebra(clone: Clone, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """Materialize the clone as a finite algebra on its element ids, each
    operation applied to the restricted rows; the generators keep the ids
    of generator_ids."""
    if not clone.complete:
        raise CapExceeded("clone generation hit its cap; element set is not closed")
    m = len(clone)
    n = clone.algebra.size
    rows = clone.rows()
    limit = max(1, _CHUNK // rows.shape[1])
    ops = []
    for op in clone.algebra.ops:
        r = op.arity
        if m**r > caps.max_table_cells:
            raise CapExceeded(f"operation table {m}^{r} exceeds cell cap")
        otab = np.asarray(op.table, dtype=rows.dtype)
        if r == 0:
            (target,) = clone.ids(np.full((1, rows.shape[1]), otab[0], dtype=rows.dtype)).tolist()
            if target < 0:
                raise CapExceeded("constant table missing from clone")
            ops.append(Operation(op.name, 0, (target,)))
            continue
        table = []
        for ids in _grid_blocks([np.arange(m)] * r, limit):  # lexicographic
            found = clone.ids(apply_table(otab, n, (rows[c] for c in ids)))
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
    x, y, z = generator_ids(free.size, 3)
    cg = [pair_closure(free, congruence_gen, a * free.size + b) for a, b in ((x, z), (x, y), (y, z))]
    return FreeRelations(free, x, y, z, *cg)


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
    likewise (u@x, u@y) for (x,y) and (u@y, u@z) for (y,z).  Only the
    3-ary separating cells of each identified term table are read.
    """
    if clone4.arity != 4 or clone3.arity != 3:
        raise ValueError("expected a 4-ary and a 3-ary clone")
    n = clone4.algebra.size
    cells = clone3.cover.cells
    columns = []
    for pattern in ("abca", "abcb", "abcc"):
        ids = clone3.ids(clone4.values(pattern_cells(n, pattern)[cells]))
        if (ids < 0).any():
            raise CapExceeded("restricted table missing from 3-ary clone")
        columns.append(ids.tolist())
    return list(zip(*columns))


def dump_clone(clone: Clone) -> dict:
    depths, tables = clone.depths().tolist(), clone.matrix().tolist()
    return {
        "algebra": clone.algebra.fingerprint(),
        "arity": clone.arity,
        "count": len(clone),
        "complete": clone.complete,
        "elements": [
            {"id": i, "depth": d, "table": t, "witness": str(clone.witness(i))}
            for i, (d, t) in enumerate(zip(depths, tables))
        ],
    }
