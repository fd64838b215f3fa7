"""Binary relations on {0..n-1} and the relation calculus.

A relation is an n*n bit mask packed into a Python int: bit a*n + b is the
pair (a, b), the row index a being the first coordinate.  BinRel wraps one
mask with its universe size.

The calculus is written once, on masks: compose_masks, converse_masks,
star_masks (transitive closure) and bar_masks (admissible closure) take
either an int or a numpy array of masks, and on an array they act
elementwise, with numpy broadcasting between the two operands of
compose_masks.  Intersection and union are & and |.  An array is uint64 when
n^2 <= 64, so every mask fits in one machine word, and object (exact Python
ints) otherwise.  Composition uses the shift/multiply boolean-matrix trick,
which has no data-dependent branch and so runs on arrays as it does on ints
(each selected row lands in its own n-bit field, so the products never carry
across fields and stay below 2^(n^2), within uint64).  The other three have
no branch-free form; on an array they run their int kernel once per distinct
mask, as a Python int, and return an array of the input's dtype.  compose
and converse are their BinRel forms, and transitive_closure, a loop of
compose on BinRel, is the int kernel of star_masks.

Closures.  admissible_closure and tolerance_gen run one semi-naive loop
(_close); a tolerance is one such closure of the symmetric seed (the image
of a symmetric relation is symmetric).  The operations take turns: a turn
images one operation on the current relation, and only the tuples that use
at least one pair newer than that operation's old, the relation it was last
imaged on: for arity r, old^i x new x all^(r-1-i) over i < r.  So an
operation sees the pairs the turns before it added.  The loop ends once
every operation in a row has had a turn on the current relation that added
no pair.  is_admissible images the whole relation (old = 0) per operation.

congruence_gen images no operation.  By Mal'cev's lemma an equivalence is a
congruence iff every basic translation x -> f(c_1, ..., x, ..., c_r) maps
each of its pairs into it (unary polynomials are composites of basic
translations).  It keeps a partition, as the least element of each
element's block, and each round merges the blocks of the images under every
translation of the pairs the round before merged by: one (old least
element, new least element) pair per block absorbed, starting from the seed
pairs.  Those pairs span the partition, every pair of it being joined by a
chain of them, so once each of their images lies in the partition every
translation maps the partition into itself, and a round that merges nothing
ends the loop.  The translations are built once per algebra.

An image is computed by one of two kernels.  The tuple kernel builds the
flat table indices of the tuples in numpy, in chunks of at most _CHUNK
tuples.  Above _SMALL tuples its index arrays take the narrowest unsigned
dtype that holds the indices below n^r (_index_dtype), and its table copy
the one below n^2, in which f(a) * n + f(b) is formed in place; numpy
gathers with intp indices, so each gather casts its index first.  The dense
kernel images a binary operation on the whole relation with two float32
matrix products, about 2 n^4 multiply-adds, and a sort of the table.
_image_mask takes the dense kernel for a binary operation when the tuples
outnumber _SMALL, _DENSE_RATIO times their count exceeds n^3, and its n^3
arrays fit in the memory of one tuple chunk; every other case, and every
other arity, takes the tuple kernel.  Masks convert to and from bit
arrays through int.to_bytes/np.unpackbits and np.packbits/int.from_bytes.

Kinds.  KINDS names the three relation kinds; kind_functions gives the
closure and membership test of one, by name from the module at each call.
A relation of each kind is the join of its principal relations, the
closures of its single pairs.  pair_closure closes a pair once per algebra
object (every diagonal pair reads the closure of (0, 0), the least
relation), and principal_relations lists a kind's distinct ones.

Pools.  One join loop, joins, builds every relation pool, with or without a
closure: enumerate_relations runs it over the principal relations with the
kind's closure, and the U-admissible pools of uadmissible (plain unions) run
it without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

import numpy as np

from .algebra import FiniteAlgebra, _index_dtype
from .caps import DEFAULT_CAPS, Caps


@lru_cache(maxsize=None)
def _row_mask(n: int) -> int:
    return (1 << n) - 1


@lru_cache(maxsize=None)
def _col0_mask(n: int) -> int:
    return sum(1 << (a * n) for a in range(n))


@lru_cache(maxsize=None)
def _diag_mask(n: int) -> int:
    return sum(1 << (a * n + a) for a in range(n))


@lru_cache(maxsize=None)
def _full_mask(n: int) -> int:
    return (1 << (n * n)) - 1


class BinRel:
    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if n <= 0:
            raise ValueError("universe must be nonempty")
        if mask < 0 or mask > _full_mask(n):
            raise ValueError("mask out of range for universe size")
        self.n = n
        self.mask = mask

    @staticmethod
    def from_pairs(n: int, pairs) -> "BinRel":
        mask = 0
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a},{b}) out of range for size {n}")
            mask |= 1 << (a * n + b)
        return BinRel(n, mask)

    @staticmethod
    def diagonal(n: int) -> "BinRel":
        return BinRel(n, _diag_mask(n))

    @staticmethod
    def full(n: int) -> "BinRel":
        return BinRel(n, _full_mask(n))

    def contains(self, a: int, b: int) -> bool:
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"pair ({a},{b}) out of range")
        return bool((self.mask >> (a * self.n + b)) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        n = self.n
        out = []
        m = self.mask
        while m:
            low = m & -m
            pos = low.bit_length() - 1
            out.append((pos // n, pos % n))
            m ^= low
        return out

    def count(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other):
        return isinstance(other, BinRel) and self.n == other.n and self.mask == other.mask

    def __hash__(self):
        return hash((self.n, self.mask))

    def __le__(self, other):
        self._check(other)
        return self.mask | other.mask == other.mask

    def __repr__(self):
        return f"BinRel({self.n}, {self.pairs()})"

    def _check(self, other: "BinRel"):
        if self.n != other.n:
            raise ValueError("universe size mismatch")

    def is_reflexive(self) -> bool:
        d = _diag_mask(self.n)
        return self.mask & d == d

    def is_symmetric(self) -> bool:
        return self.mask == converse(self).mask

    def is_transitive(self) -> bool:
        return compose(self, self).mask | self.mask == self.mask


def _pairs_cmp(r: BinRel, s: BinRel) -> int:
    """Compare two relations as their ascending pair lists compare.

    The lists agree up to the lowest differing bit p.  The mask holding p
    sorts first, unless the other mask has no bit above p: then its list is
    a prefix of the first and sorts before it.
    """
    x, y = r.mask, s.mask
    if x == y:
        return 0
    low = (x ^ y) & -(x ^ y)
    if x & low:
        return 1 if y < low else -1
    return -1 if x < low else 1


pairs_order = cmp_to_key(_pairs_cmp)  # sort key: same order as r.pairs()


# ---------------------------------------------------------------------------
# relation calculus


def compose_masks(m1, m2, n: int):
    """Mask of the composition: (a,c) iff a m1 b and b m2 c for some b.

    Branch-free, so it acts on ints and elementwise on arrays alike:
    the b-th column of m1 moved to bit column 0, times row b of m2, lays
    row b of m2 into every row a with (a,b) in m1.
    """
    col0 = _col0_mask(n)
    row = _row_mask(n)
    out = (m1 & col0) * (m2 & row)
    for b in range(1, n):
        out |= ((m1 >> b) & col0) * ((m2 >> (b * n)) & row)
    return out


def compose(r: BinRel, s: BinRel) -> BinRel:
    """(a,c) in result iff a r b and b s c for some b (left-to-right)."""
    r._check(s)
    return BinRel(r.n, compose_masks(r.mask, s.mask, r.n))


def intersect(r: BinRel, s: BinRel) -> BinRel:
    r._check(s)
    return BinRel(r.n, r.mask & s.mask)


def union(r: BinRel, s: BinRel) -> BinRel:
    r._check(s)
    return BinRel(r.n, r.mask | s.mask)


def _per_distinct(kernel, masks):
    """kernel on an int, or on each distinct mask of an array (uint64 or
    object) as a Python int; the result array has the input's dtype."""
    if not isinstance(masks, np.ndarray):
        return kernel(masks)
    flat = masks.ravel().tolist()
    values = {m: kernel(m) for m in set(flat)}
    return np.array([values[m] for m in flat], dtype=masks.dtype).reshape(masks.shape)


def _converse_mask(m: int, n: int) -> int:
    out = 0
    while m:
        low = m & -m
        pos = low.bit_length() - 1
        out |= 1 << ((pos % n) * n + pos // n)
        m ^= low
    return out


def converse_masks(masks, n: int):
    return _per_distinct(lambda m: _converse_mask(m, n), masks)


def converse(r: BinRel) -> BinRel:
    return BinRel(r.n, converse_masks(r.mask, r.n))


def star_masks(masks, n: int):
    """Masks of the transitive closures."""
    return _per_distinct(lambda m: transitive_closure(BinRel(n, m)).mask, masks)


def transitive_closure(r: BinRel) -> BinRel:
    cur = r
    while True:
        nxt = union(cur, compose(cur, cur))
        if nxt.mask == cur.mask:
            return cur
        cur = nxt


def symmetric_closure(r: BinRel) -> BinRel:
    return union(r, converse(r))


# ---------------------------------------------------------------------------
# admissibility


# Tuples per index chunk of the tuple kernel; the consumer drops each chunk
# before it asks for the next, so at most one is alive.
_CHUNK = 1 << 21
# Up to this many tuples, one product over the whole relation is cheapest:
# the semi-naive split and the dense kernel only pay off above it.
_SMALL = 1 << 12
# The dense kernel takes a binary image of more than n^3 / _DENSE_RATIO
# tuples.  Measured with the narrow index arrays on random binary tables over
# the whole relation (a 2-vCPU Xeon virtual machine, OpenBLAS, best of 15, two
# runs), the kernels break even in time at 0.7 to 0.8 n^3 tuples for n = 45,
# 0.65 to 0.8 n^3 for n = 99 and about n^3 for n = 18; with intp index
# arrays it was n^3 / 2 for n = 45 and 0.43 to 0.55 n^3 for n = 99.  The
# ratio stays at 2 for memory: at its peak the tuple kernel holds about 16
# bytes a tuple (the narrow index arrays, one intp cast and the gathered
# values), 8 n^3 bytes at n^3 / 2 tuples, against the dense kernel's 10 n^3.
# At n^3 / 1.5 the free workload's n = 99 queries ran about 4 % faster, and
# its peak RSS rose from 46.2 to 49.4 MB (one process, lattice_n5.cdist2.seed).
# At n = 18, n^3 / 2 is below _SMALL, so the _SMALL gate decides there, and
# images of 4,097 to about 5,800 tuples take the dense kernel though the
# tuple kernel is a few microseconds faster for them.
# The dense kernel holds 10 n^3 bytes (two n^3 float32 arrays, two n^3 bool
# ones), so it runs only while n^3 <= 2 * _CHUNK, within the memory of one
# tuple chunk.
_DENSE_RATIO = 2


def _bits(mask: int, n: int) -> np.ndarray:
    """The n*n bits of mask as a bool array; index a*n + b is (a, b)."""
    raw = np.frombuffer(mask.to_bytes((n * n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n * n, bitorder="little").view(bool)


def _mask_of(hit: np.ndarray) -> int:
    """Inverse of _bits."""
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def _pair_arrays(mask: int, n: int, dtype=np.intp, memo=None):
    """(left, right) coordinate arrays of the pairs of mask, ascending, in
    dtype; kept in memo under (mask, dtype) when a memo dict is given."""
    if memo is not None and (mask, dtype) in memo:
        return memo[mask, dtype]
    left, right = np.divmod(_bits(mask, n).nonzero()[0], n)
    pairs = left.astype(dtype, copy=False), right.astype(dtype, copy=False)
    if memo is not None:
        memo[mask, dtype] = pairs
    return pairs


def _tuple_chunks(factors, n):
    """Flat table indices (left, right) of the tuples in the product of the
    factors, each a (left, right) pair of coordinate arrays in a dtype that
    holds every flat index; at most _CHUNK tuples per chunk."""
    (head_l, head_r), rest = factors[0], factors[1:]
    tail = math.prod(len(fl) for fl, _ in rest)
    if tail == 0:
        return
    if tail > _CHUNK:  # one head pair at a time, folded into the next factor
        (fl, fr), more = rest[0], rest[1:]
        for a, b in zip(head_l.tolist(), head_r.tolist()):
            yield from _tuple_chunks([(a * n + fl, b * n + fr), *more], n)
        return
    step = max(1, _CHUNK // tail)
    for s in range(0, len(head_l), step):
        li, ri = head_l[s : s + step], head_r[s : s + step]
        for fl, fr in rest:
            li = (li[:, None] * n + fl).ravel()
            ri = (ri[:, None] * n + fr).ravel()
        yield li, ri


def _dense_image(tab: np.ndarray, mask: int, n: int) -> np.ndarray:
    """The image of a binary operation on the whole relation.

    Two float32 matrix products, each of an n x n matrix by an n x n^2 one,
    give X[a1, a2, d] = sum R[a1, b1] R[a2, b2] W[b1, b2, d] with W the
    one-hot table, W[b1, b2, d] = [f(b1, b2) = d]: first Z, the sum over
    b1, then, after a transposing copy of Z, the sum over b2.  Row c of the
    image is the OR of the rows X[a1, a2] > 0 with f(a1, a2) = c: sorted
    stably by table value, the rows form one run per value the table takes,
    and a value it never takes keeps an empty row.  Every term is >= 0, so
    float rounding never turns a nonzero sum into 0.

    W, Z, the copy and X share one block of two n^3 float32 arrays.  Once
    the first such block is freed, glibc's malloc raises its mmap threshold
    above it and serves the later ones from its heap without mapping fresh
    pages.  A fresh process that builds F(lattice_n5,3) from its clone takes
    about 4,700 minor page faults (getrusage's ru_minflt) in the first seed
    verdict on it, 1,500 of them in its first two images, and none in any
    later image or closure.
    """
    rel = _bits(mask, n).reshape(n, n).astype(np.float32)
    w, z = np.empty((2, n, n * n), dtype=np.float32)
    w.fill(0.0)
    w.reshape(n * n, n)[np.arange(n * n), tab] = 1.0
    np.matmul(rel, w, out=z)  # [a1, b2 d]: sum over b1
    np.copyto(w.reshape(n, n, n), z.reshape(n, n, n).transpose(1, 0, 2))  # [b2, a1 d]
    x = np.matmul(rel, w, out=z)  # [a2, a1 d]: sum over b2
    # f(a1, a2) at a2*n + a1, the row of X[a1, a2]
    key = tab.reshape(n, n).T.astype(_index_dtype(n), order="C").ravel()
    counts = np.bincount(key, minlength=n)
    values = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[values]
    runs = (x.reshape(n * n, n) > 0)[np.argsort(key, kind="stable")]
    img = np.zeros((n, n), dtype=bool)
    img[values] = np.logical_or.reduceat(runs, starts, axis=0)
    return img.ravel()


def _image_mask(op, n: int, mask: int, old: int, arrays: dict) -> int:
    """Union of (f(a-row), f(b-row)) over the tuples of pairs of mask that
    use at least one pair outside old (old must lie in mask; 0 images the
    whole relation), for the one operation f = op on {0..n-1}.

    For arity r those tuples are the union over i of old^i x new x all^(r-1-i).
    Up to _SMALL tuples, one product over all^r is cheaper than the split.
    A binary operation with more than n^3 / _DENSE_RATIO tuples takes the
    dense kernel, which images the whole relation.  arrays holds the pair
    arrays of masks by (mask, dtype), shared by all of a caller's calls.
    """
    r = op.arity
    if r == 0:  # the pair (c, c) of the constant c
        return 1 << (op.table[0] * (n + 1))
    cells = mask.bit_count() ** r
    split = old != 0 and cells > _SMALL
    if split:
        cells -= old.bit_count() ** r
    if cells == 0:
        return 0
    if r == 2 and cells > _SMALL and _DENSE_RATIO * cells > n**3 and n**3 <= 2 * _CHUNK:
        return _mask_of(_dense_image(op.array(), mask, n))
    # index arrays in the narrowest dtype once they are large: flat tuple
    # indices lie below n^r, and f(a) * n + f(b) below n^2
    large = cells > _SMALL
    dtype = _index_dtype(n**r) if large else np.intp
    every = _pair_arrays(mask, n, dtype, arrays)
    if split:
        new = _pair_arrays(mask & ~old, n, dtype, arrays)
        prev = _pair_arrays(old, n, dtype, arrays)
        parts = [[prev] * i + [new] + [every] * (r - 1 - i) for i in range(r)]
    else:
        parts = [[every] * r]
    tab = op.array().astype(_index_dtype(n * n) if large else np.intp, copy=False)
    hit = np.zeros(n * n, dtype=bool)
    for part in parts:
        for li, ri in _tuple_chunks(part, n):
            # numpy indexes with intp: one explicit cast beats its own
            li = tab[li.astype(np.intp, copy=False)]
            li *= n
            li += tab[ri.astype(np.intp, copy=False)]
            hit[li.astype(np.intp, copy=False)] = True
            del li, ri
    return _mask_of(hit)


def _seed_mask(n: int, seed) -> int:
    return seed.mask if isinstance(seed, BinRel) else BinRel.from_pairs(n, seed).mask


def _close(alg: FiniteAlgebra, mask: int) -> BinRel:
    """Least admissible relation containing mask, by turns of one
    operation each (module docstring): old[i] is the mask operation i was
    last imaged on, so its images under it lie in mask."""
    ops = alg.ops
    old = [0] * len(ops)
    arrays = {}  # pair arrays, shared by the turns
    clean = i = 0  # operations in a row that added nothing; the next to image
    while clean < len(ops):
        img = _image_mask(ops[i], alg.size, mask, old[i], arrays)
        old[i] = mask
        if img & ~mask:
            mask |= img
            clean = 0
        else:
            clean += 1
        i = (i + 1) % len(ops)
    return BinRel(alg.size, mask)


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """Compatibility with every operation; reflexivity is NOT required here."""
    if r.n != alg.size:
        raise ValueError("relation universe does not match the algebra")
    arrays = {}  # pair arrays of r, shared by the operations
    return all(_image_mask(op, r.n, r.mask, 0, arrays) & ~r.mask == 0 for op in alg.ops)


def admissible_closure(alg: FiniteAlgebra, seed) -> BinRel:
    """Least reflexive admissible relation containing the seed pairs."""
    return BinRel(alg.size, bar_masks(alg, _seed_mask(alg.size, seed)))


def bar_masks(alg: FiniteAlgebra, masks):
    """Masks of the least reflexive admissible relations containing masks."""
    diag = _diag_mask(alg.size)
    return _per_distinct(lambda m: _close(alg, m | diag).mask, masks)


def tolerance_gen(alg: FiniteAlgebra, seed) -> BinRel:
    """Least reflexive symmetric admissible relation containing the seed.

    The image of a symmetric relation is symmetric, so one closure of the
    symmetric seed suffices.
    """
    n = alg.size
    base = BinRel(n, _seed_mask(n, seed) | _diag_mask(n))
    return _close(alg, symmetric_closure(base).mask)


def _translations(alg: FiniteAlgebra) -> np.ndarray:
    """The images of each element, row x, under the basic translations
    x -> f(c_1, ..., x, ..., c_r) of alg, one per column: r copies of each
    r-ary table, each with another argument axis moved first.  Built once
    and kept in alg._translations."""
    if alg._translations is None:
        n = alg.size
        images = [np.empty((n, 0), dtype=np.intp)]
        for op in alg.ops:
            tab = op.array().reshape((n,) * op.arity)
            images += [np.moveaxis(tab, i, 0).reshape(n, -1) for i in range(op.arity)]
        alg._translations = np.concatenate(images, axis=1)
    return alg._translations


def _merge(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """root, which maps each element to the least element of its block,
    after merging the blocks of u[k] and v[k] for every k.

    Each pass points the larger block label of every pair at the smaller
    one, then jumps pointers: a chain of pointers is shorter than n, and
    each jump halves it."""
    jumps = len(root).bit_length()
    while True:
        a, b = root[u], root[v]
        if (a == b).all():
            return root
        root = root.copy()
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        for _ in range(jumps):
            root = root[root]


def congruence_gen(alg: FiniteAlgebra, seed) -> BinRel:
    """Least congruence containing the seed pairs: the translation rounds
    of the module docstring, root holding the partition and (u, v) the
    pairs a round merges the images of."""
    n = alg.size
    images = _translations(alg)
    ids = np.arange(n)
    root = ids
    u, v = _pair_arrays(_seed_mask(n, seed), n)
    while True:
        merged = _merge(root, u, v)
        moved = np.flatnonzero((root == ids) & (merged != ids))
        if len(moved) == 0:
            return BinRel(n, _mask_of((merged[:, None] == merged[None, :]).ravel()))
        root = merged
        u, v = images[moved].ravel(), images[root[moved]].ravel()


def is_tolerance(alg: FiniteAlgebra, r: BinRel) -> bool:
    return r.is_reflexive() and r.is_symmetric() and is_admissible(alg, r)


def is_congruence(alg: FiniteAlgebra, r: BinRel) -> bool:
    return is_tolerance(alg, r) and r.is_transitive()


def is_reflexive_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    return r.is_reflexive() and is_admissible(alg, r)


# ---------------------------------------------------------------------------
# enumeration

_KIND_FUNCTIONS = {  # kind -> names of its closure and membership test
    "congruence": ("congruence_gen", "is_congruence"),
    "tolerance": ("tolerance_gen", "is_tolerance"),
    "reflexive_admissible": ("admissible_closure", "is_reflexive_admissible"),
}
KINDS = tuple(_KIND_FUNCTIONS)


@dataclass
class EnumResult:
    kind: str
    relations: list
    exhaustive: bool

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)


def kind_functions(kind: str):
    """(closure, membership test) of a relation kind.

    Read from the module's bindings at each call, so a closure rebound on
    the module (a tracer's wrapper, a test's counter) is the one callers get.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}; expected one of {KINDS}")
    close, member = _KIND_FUNCTIONS[kind]
    return globals()[close], globals()[member]


def pair_closure(alg: FiniteAlgebra, close, p: int) -> BinRel:
    """close's closure of the pair with flat index p = a*n + b, kept in
    alg._pair_closures under (close, p).  A diagonal pair (a, a) closes to
    the least relation of its kind, so every one reads the entry of (0, 0)."""
    if p % (alg.size + 1) == 0:
        p = 0
    memo = alg._pair_closures
    if (close, p) not in memo:
        memo[close, p] = close(alg, [divmod(p, alg.size)])
    return memo[close, p]


def principal_relations(alg: FiniteAlgebra, kind: str) -> list:
    """The distinct closures of single pairs, in pair order; the first, of
    (0, 0), is the least relation of kind."""
    close = kind_functions(kind)[0]
    closures = (pair_closure(alg, close, p) for p in range(alg.size**2))
    return list({g.mask: g for g in closures}.values())


def joins(masks, close=None, depth=None, bound=None):
    """({view: witness}, truncated) for the joins of the masks: a view is the
    union of the masks at the indices of its witness, or its closure under
    close, a mask -> mask closure operator under which every mask is closed.

    Level 1 is the distinct masks; level k+1 extends each view new at level
    k by the masks after the last index of its witness.  So no subset is
    joined twice, a witness is the lexicographically first shortest index
    tuple of its view, and a level that adds nothing ends the fixpoint.
    With close that stays complete, since close(close(A) | B) = close(A | B)
    makes every prefix of a first witness the first witness of its own
    view; a union that is already a view, or was closed before, is not
    closed again.  The loop stops after depth levels, or (truncated) when
    it inserts view bound + 1.
    """
    views = {}
    tried = set()

    def insert(m, wit):
        views[m] = wit
        return bound is not None and len(views) > bound

    for i, m in enumerate(masks):
        if m not in views and insert(m, (i,)):
            return views, True
    frontier = list(views.items())
    level = 1
    while frontier and level != depth:
        level += 1
        new = []
        for view, wit in frontier:
            for j in range(wit[-1] + 1, len(masks)):
                m = view | masks[j]
                if m in views or m in tried:
                    continue
                if close is not None:
                    tried.add(m)
                    m = close(m)
                    if m in views:
                        continue
                new.append((m, wit + (j,)))
                if insert(*new[-1]):
                    return views, True
        frontier = new
    return views, False


def enumerate_relations(
    alg: FiniteAlgebra, kind: str, caps: Caps = DEFAULT_CAPS, method: str = "auto"
) -> EnumResult:
    """All congruences / tolerances / reflexive-admissible relations.

    Every relation R of each kind is the join P1 v ... v Pk of the principal
    relations Pi = close({(a, b)}) over the pairs (a, b) in R.  So the
    enumeration is joins over the distinct principal relations
    (principal_relations) with the kind's closure.  Only caps.max_relations
    can cut it short: the result then holds the first max_relations + 1
    relations the join loop found, and says truncated.

    method ("auto" or "generated") is kept for compatibility; both run the
    one algorithm.
    """
    close = kind_functions(kind)[0]
    if method not in ("auto", "generated"):
        raise ValueError(f"unknown enumeration method {method!r}")
    n = alg.size
    views, truncated = joins(
        [g.mask for g in principal_relations(alg, kind)],
        lambda m: close(alg, BinRel(n, m)).mask,
        bound=caps.max_relations,
    )
    rels = sorted((BinRel(n, m) for m in views), key=pairs_order)
    return EnumResult(kind, rels, exhaustive=not truncated)
