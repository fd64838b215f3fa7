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

Closures.  admissible_closure, tolerance_gen and congruence_gen run one
semi-naive loop (_close).  It keeps old, the pairs whose images are already
in the relation, and each round images only the operation tuples that use at
least one newer pair: for arity r, old^i x new x all^(r-1-i) over i < r.
A tolerance is one such closure of the symmetric seed (the image of a
symmetric relation is symmetric); a congruence also takes the transitive
closure after every round, which only adds pairs and so keeps the invariant.
is_admissible images the whole relation (old = 0).

An image is computed by one of two kernels.  The tuple kernel builds the flat
table indices of the tuples in numpy, in chunks of at most _CHUNK tuples.
The dense kernel images a binary operation on the whole relation with three
float32 matrix products, about n^4 multiply-adds.  _image_mask takes the
dense kernel for a binary operation when the tuples outnumber _SMALL,
_DENSE_RATIO times their count exceeds n^4, and its n^3 arrays fit in the
memory of one tuple chunk; every other case, and every other arity, takes
the tuple kernel.  Masks convert to and from bit arrays through
int.to_bytes/np.unpackbits and np.packbits/int.from_bytes.

Kinds.  KINDS names the three relation kinds.  kind_functions gives the
closure and the membership test of a kind, read from the module at each
call rather than from a table built at import, and enumerate_relations
lists every relation of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

import numpy as np

from .algebra import FiniteAlgebra
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
    __slots__ = ("n", "mask", "_flags")

    def __init__(self, n: int, mask: int):
        if n <= 0:
            raise ValueError("universe must be nonempty")
        if mask < 0 or mask > _full_mask(n):
            raise ValueError("mask out of range for universe size")
        self.n = n
        self.mask = mask
        self._flags = {}

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

    def __getstate__(self):
        return (self.n, self.mask)

    def __setstate__(self, state):
        n, mask = state
        self.n = n
        self.mask = mask
        self._flags = {}

    # cached shape flags; recomputation must agree (property-tested)

    def is_reflexive(self) -> bool:
        if "refl" not in self._flags:
            d = _diag_mask(self.n)
            self._flags["refl"] = self.mask & d == d
        return self._flags["refl"]

    def is_symmetric(self) -> bool:
        if "sym" not in self._flags:
            self._flags["sym"] = self.mask == converse(self).mask
        return self._flags["sym"]

    def is_transitive(self) -> bool:
        if "trans" not in self._flags:
            self._flags["trans"] = compose(self, self).mask | self.mask == self.mask
        return self._flags["trans"]


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


def rel_power(r: BinRel, h: int) -> BinRel:
    """h-fold relational composition of r with itself (h >= 1)."""
    if h < 1:
        raise ValueError("relation power needs h >= 1")
    out = r
    for _ in range(h - 1):
        out = compose(out, r)
    return out


def compose_alt(s: BinRel, t: BinRel, m: int, side: str = "right") -> BinRel:
    """Alternating composition with m factors.

    side="right": s o t o s ... starting from s.
    side="left":  ... t o s o t ending at t; equals the right form on (s, t)
    for even m and on (t, s) for odd m.
    """
    if m < 1:
        raise ValueError("alternating composition needs m >= 1")
    if side == "left":
        return compose_alt(s, t, m, "right") if m % 2 == 0 else compose_alt(t, s, m, "right")
    if side != "right":
        raise ValueError(f"side must be left or right, not {side!r}")
    out = s
    cur = (s, t)
    for i in range(1, m):
        out = compose(out, cur[i % 2])
    return out


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
# The dense kernel costs about n^4 multiply-adds; the tuple kernel breaks
# even with it at about n^4 / 128 tuples (measured for n from 18 to 99).
# The dense kernel holds three n^3 float32 arrays, so it runs only while
# n^3 <= 2 * _CHUNK, within the memory of one tuple chunk.
_DENSE_RATIO = 128


def _bits(mask: int, n: int) -> np.ndarray:
    """The n*n bits of mask as a bool array; index a*n + b is (a, b)."""
    raw = np.frombuffer(mask.to_bytes((n * n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n * n, bitorder="little").view(bool)


def _mask_of(hit: np.ndarray) -> int:
    """Inverse of _bits."""
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def _pair_arrays(mask: int, n: int):
    """(left, right) coordinate arrays of the pairs of mask, ascending."""
    return np.divmod(_bits(mask, n).nonzero()[0], n)


def _tuple_chunks(factors, n):
    """Flat table indices (left, right) of the tuples in the product of the
    factors, each a (left, right) pair of coordinate arrays; at most _CHUNK
    tuples per chunk."""
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
    """The image of a binary operation on the whole relation, as matrix
    products: Img[c, d] = sum W[a1 a2, c] R[a1, b1] R[a2, b2] W[b1 b2, d]
    with W the one-hot matrix of the table.  Every term is >= 0, so float
    rounding never turns a nonzero sum into 0."""
    rel = _bits(mask, n).reshape(n, n).astype(np.float32)
    onehot = np.zeros((n * n, n), dtype=np.float32)
    onehot[np.arange(n * n), tab] = 1.0
    t1 = rel @ onehot.reshape(n, n, n)  # [b1, a2, d]: sum over b2
    t2 = rel @ t1.reshape(n, n * n)  # [a1, a2 d]: sum over b1
    return (onehot.T @ t2.reshape(n * n, n) > 0).ravel()


def _image_mask(alg: FiniteAlgebra, mask: int, old: int = 0) -> int:
    """Union of (f(a-row), f(b-row)) over the operation tuples of pairs of
    mask that use at least one pair outside old (old must lie in mask).

    For arity r those tuples are the union over i of old^i x new x all^(r-1-i).
    Up to _SMALL tuples in all, one product over all^r is cheaper than the
    split.  A binary operation with more than n^4 / _DENSE_RATIO tuples
    takes the dense kernel, which images the whole relation.
    """
    n = alg.size
    arrays = {}  # mask -> its pair arrays, built when a tuple product needs them

    def pairs_of(m):
        if m not in arrays:
            arrays[m] = _pair_arrays(m, n)
        return arrays[m]

    hit = np.zeros(n * n, dtype=bool)
    for op in alg.ops:
        r = op.arity
        if r == 0:
            c = op.table[0]
            hit[c * n + c] = True
            continue
        cells = mask.bit_count() ** r
        split = old != 0 and cells > _SMALL
        if split:
            cells -= old.bit_count() ** r
        if cells == 0:
            continue
        tab = op.array()
        dense = cells > _SMALL and _DENSE_RATIO * cells > n**4 and n**3 <= 2 * _CHUNK
        if r == 2 and dense:
            hit |= _dense_image(tab, mask, n)
            continue
        every = pairs_of(mask)
        if split:
            new, prev = pairs_of(mask & ~old), pairs_of(old)
            parts = [[prev] * i + [new] + [every] * (r - 1 - i) for i in range(r)]
        else:
            parts = [[every] * r]
        for part in parts:
            for li, ri in _tuple_chunks(part, n):
                li = tab[li]
                li *= n
                li += tab[ri]
                hit[li] = True
                del li, ri
    return _mask_of(hit)


def _seed_mask(n: int, seed) -> int:
    return seed.mask if isinstance(seed, BinRel) else BinRel.from_pairs(n, seed).mask


def _close(alg: FiniteAlgebra, mask: int, post=None) -> BinRel:
    """Least admissible relation containing mask and closed under post.

    Semi-naive: old holds the pairs whose images are known to lie in mask,
    so each round images only the tuples that use a newer pair.  post (a
    BinRel -> BinRel closure, applied first and after every round) only adds
    pairs, so it keeps that invariant.
    """
    n = alg.size
    old = 0
    while True:
        if post is not None:
            mask = post(BinRel(n, mask)).mask
        img = _image_mask(alg, mask, old)
        if img & ~mask == 0:
            return BinRel(n, mask)
        old, mask = mask, mask | img


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """Compatibility with every operation; reflexivity is NOT required here."""
    if r.n != alg.size:
        raise ValueError("relation universe does not match the algebra")
    return _image_mask(alg, r.mask) & ~r.mask == 0


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


def congruence_gen(alg: FiniteAlgebra, seed) -> BinRel:
    """Least congruence containing the seed pairs."""
    n = alg.size
    base = BinRel(n, _seed_mask(n, seed) | _diag_mask(n))
    return _close(alg, symmetric_closure(base).mask, transitive_closure)


def is_tolerance(alg: FiniteAlgebra, r: BinRel) -> bool:
    return r.is_reflexive() and r.is_symmetric() and is_admissible(alg, r)


def is_congruence(alg: FiniteAlgebra, r: BinRel) -> bool:
    return is_tolerance(alg, r) and r.is_transitive()


def is_reflexive_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    return r.is_reflexive() and is_admissible(alg, r)


# ---------------------------------------------------------------------------
# enumeration

KINDS = ("congruence", "tolerance", "reflexive_admissible")


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
    return {
        "congruence": (congruence_gen, is_congruence),
        "tolerance": (tolerance_gen, is_tolerance),
        "reflexive_admissible": (admissible_closure, is_reflexive_admissible),
    }[kind]


def enumerate_relations(
    alg: FiniteAlgebra, kind: str, caps: Caps = DEFAULT_CAPS, method: str = "auto"
) -> EnumResult:
    """All congruences / tolerances / reflexive-admissible relations.

    Every relation R of each kind is the join P1 v ... v Pk of the principal
    relations Pi = close({(a, b)}) over the pairs (a, b) in R.  So the
    enumeration closes the empty seed, closes every off-diagonal pair outside
    it (the generators), and then joins each relation it finds with each
    generator, close(R | G): that reaches every relation one generator at a
    time.  Only caps.max_relations can cut it short, and the result then says
    truncated.

    method ("auto" or "generated") is kept for compatibility; both run the
    one algorithm.
    """
    close = kind_functions(kind)[0]
    if method not in ("auto", "generated"):
        raise ValueError(f"unknown enumeration method {method!r}")
    n = alg.size
    base = close(alg, [])
    found = {base.mask: base}
    gens = []
    truncated = False
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and not base.contains(a, b)]
    for pair in pairs:
        g = close(alg, [pair])
        if g.mask in found:
            continue
        found[g.mask] = g
        gens.append(g.mask)
        if len(found) > caps.max_relations:
            truncated = True
            break
    worklist = list(found.values())
    tried = set()
    while worklist and not truncated:
        cur = worklist.pop()
        for gm in gens:
            um = cur.mask | gm
            if um in found or um in tried:
                continue
            tried.add(um)
            joined = close(alg, BinRel(n, um))
            if joined.mask not in found:
                found[joined.mask] = joined
                worklist.append(joined)
                if len(found) > caps.max_relations:
                    truncated = True
                    break
    rels = sorted(found.values(), key=pairs_order)
    return EnumResult(kind, rels, exhaustive=not truncated)
