"""Binary relations on {0..n-1} and the relation calculus.

A relation is an n*n bit mask packed into a Python int: bit a*n + b is the
pair (a, b), the row index a being the first coordinate.  Composition uses
the shift/multiply boolean-matrix trick, which is exact for arbitrary n with
Python ints (each selected row lands in its own n-bit field, so the products
never carry across fields).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


# ---------------------------------------------------------------------------
# relation calculus


def compose(r: BinRel, s: BinRel) -> BinRel:
    """(a,c) in result iff a r b and b s c for some b (left-to-right)."""
    r._check(s)
    n = r.n
    col0 = _col0_mask(n)
    row = _row_mask(n)
    out = 0
    m1, m2 = r.mask, s.mask
    for b in range(n):
        sel = (m1 >> b) & col0
        if sel:
            rb = (m2 >> (b * n)) & row
            if rb:
                out |= sel * rb
    return BinRel(n, out)


def intersect(r: BinRel, s: BinRel) -> BinRel:
    r._check(s)
    return BinRel(r.n, r.mask & s.mask)


def union(r: BinRel, s: BinRel) -> BinRel:
    r._check(s)
    return BinRel(r.n, r.mask | s.mask)


def converse(r: BinRel) -> BinRel:
    n = r.n
    out = 0
    m = r.mask
    while m:
        low = m & -m
        pos = low.bit_length() - 1
        out |= 1 << ((pos % n) * n + pos // n)
        m ^= low
    return BinRel(n, out)


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


def _pair_tuple_chunks(left, right, n, r, chunk=1 << 22):
    """Flat table indices for all r-tuples over a pair list, chunked."""
    m = len(left)
    if r == 1 or m**r <= chunk:
        li, ri = left, right
        for _ in range(r - 1):
            li = (li[:, None] * n + left[None, :]).ravel()
            ri = (ri[:, None] * n + right[None, :]).ravel()
        yield li, ri
        return
    scale = n ** (r - 1)
    for j in range(m):
        for sli, sri in _pair_tuple_chunks(left, right, n, r - 1, chunk):
            yield left[j] * scale + sli, right[j] * scale + sri


def _image_mask(alg: FiniteAlgebra, rel: BinRel) -> int:
    """Union of (g(a-row), g(b-row)) over all op tuples of related pairs."""
    n = alg.size
    prs = rel.pairs()
    left = np.array([p[0] for p in prs], dtype=np.intp)
    right = np.array([p[1] for p in prs], dtype=np.intp)
    hit = np.zeros(n * n, dtype=bool)
    for op in alg.ops:
        if op.arity == 0:
            c = op.table[0]
            hit[c * n + c] = True
            continue
        if len(prs) == 0:
            continue
        tab = np.asarray(op.table, dtype=np.intp)
        for li, ri in _pair_tuple_chunks(left, right, n, op.arity):
            hit[tab[li] * n + tab[ri]] = True
    mask = 0
    for pos in np.nonzero(hit)[0]:
        mask |= 1 << int(pos)
    return mask


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """Compatibility with every operation; reflexivity is NOT required here."""
    if r.n != alg.size:
        raise ValueError("relation universe does not match the algebra")
    return _image_mask(alg, r) | r.mask == r.mask


def admissible_closure(alg: FiniteAlgebra, seed, caps: Caps = DEFAULT_CAPS) -> BinRel:
    """Least reflexive admissible relation containing the seed pairs."""
    n = alg.size
    mask = seed.mask if isinstance(seed, BinRel) else BinRel.from_pairs(n, seed).mask
    mask |= _diag_mask(n)
    while True:
        img = _image_mask(alg, BinRel(n, mask))
        if img | mask == mask:
            return BinRel(n, mask)
        mask |= img


def tolerance_gen(alg: FiniteAlgebra, seed, caps: Caps = DEFAULT_CAPS) -> BinRel:
    """Least reflexive symmetric admissible relation containing the seed."""
    cur = seed if isinstance(seed, BinRel) else BinRel.from_pairs(alg.size, seed)
    cur = union(cur, BinRel.diagonal(alg.size))
    while True:
        nxt = admissible_closure(alg, symmetric_closure(cur), caps)
        if nxt.mask == cur.mask:
            return cur
        cur = nxt


def congruence_gen(alg: FiniteAlgebra, seed, caps: Caps = DEFAULT_CAPS) -> BinRel:
    """Least congruence containing the seed pairs."""
    cur = seed if isinstance(seed, BinRel) else BinRel.from_pairs(alg.size, seed)
    cur = union(cur, BinRel.diagonal(alg.size))
    while True:
        nxt = admissible_closure(alg, transitive_closure(symmetric_closure(cur)), caps)
        if nxt.mask == cur.mask:
            return cur
        cur = nxt


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
    truncated: bool = False

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)


def _kind_closure(alg, kind, caps):
    if kind == "congruence":
        return lambda seed: congruence_gen(alg, seed, caps)
    if kind == "tolerance":
        return lambda seed: tolerance_gen(alg, seed, caps)
    return lambda seed: admissible_closure(alg, seed, caps)


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
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}; expected one of {KINDS}")
    if method not in ("auto", "generated"):
        raise ValueError(f"unknown enumeration method {method!r}")
    n = alg.size
    close = _kind_closure(alg, kind, caps)
    base = close([])
    found = {base.mask: base}
    gens = []
    truncated = False
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and not base.contains(a, b)]
    for pair in pairs:
        g = close([pair])
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
            joined = close(BinRel(n, um))
            if joined.mask not in found:
                found[joined.mask] = joined
                worklist.append(joined)
                if len(found) > caps.max_relations:
                    truncated = True
                    break
    rels = sorted(found.values(), key=lambda r: r.pairs())
    return EnumResult(kind, rels, exhaustive=not truncated, truncated=truncated)
