"""Independent oracles for the counts the workloads check.

None of these call relkit: they recompute each count from its definition by
brute force, so a relkit bug cannot hide behind its own answer.  Algebras
are passed as (size, ((arity, table), ...)) with relkit's table layout (last
argument varies fastest); the two scans are memoised on those tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def monotone_01_tables(k: int) -> set:
    """Non-constant monotone Boolean functions of k arguments: the k-ary
    term functions of the two-element lattice.  A table is monotone iff its
    halves for x1 = 0 and x1 = 1 are monotone and the first lies below the
    second (tables list the points with the first argument slowest)."""

    def monotone(k):
        if k == 0:
            return [(0,), (1,)]
        smaller = monotone(k - 1)
        return [lo + hi for lo in smaller for hi in smaller if all(a <= b for a, b in zip(lo, hi))]

    n = 1 << k
    return {t for t in monotone(k) if t != (0,) * n and t != (1,) * n}


def gf2_span_tables(k: int) -> set:
    """Linear forms over GF(2) in k arguments: the term functions of z2."""
    pts = list(itertools.product((0, 1), repeat=k))
    return {
        tuple(sum(c * a for c, a in zip(coeffs, p)) % 2 for p in pts)
        for coeffs in itertools.product((0, 1), repeat=k)
    }


def _apply(size, arity, table, args):
    idx = 0
    for a in args:
        idx = idx * size + a
    return table[idx]


def is_compatible(size, ops, pairs) -> bool:
    """Whether a set of pairs is closed under every operation, coordinatewise."""
    pairs = set(pairs)
    for arity, table in ops:
        for combo in itertools.product(pairs, repeat=arity):
            left = _apply(size, arity, table, [p[0] for p in combo])
            right = _apply(size, arity, table, [p[1] for p in combo])
            if (left, right) not in pairs:
                return False
    return True


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@lru_cache(maxsize=None)
def compatible_partitions(size, ops) -> set:
    """Congruences found by scanning every partition of the universe; each
    is returned as a frozenset of pairs."""
    out = set()
    for part in _partitions(list(range(size))):
        pairs = frozenset((a, b) for block in part for a in block for b in block)
        if is_compatible(size, ops, pairs):
            out.add(pairs)
    return out


def _subuniverse(size, ops, pairs) -> frozenset:
    """Closure of a pair set under the operations acting coordinatewise."""
    cur = set(pairs)
    while True:
        new = set()
        for arity, table in ops:
            for combo in itertools.product(cur, repeat=arity):
                p = (
                    _apply(size, arity, table, [q[0] for q in combo]),
                    _apply(size, arity, table, [q[1] for q in combo]),
                )
                if p not in cur:
                    new.add(p)
        if not new:
            return frozenset(cur)
        cur |= new


@lru_cache(maxsize=None)
def reflexive_subuniverses(size, ops) -> set:
    """Reflexive admissible relations, as subuniverses of A^2 containing the
    diagonal: the principal ones, then every join of those."""
    diag = [(a, a) for a in range(size)]
    found = {_subuniverse(size, ops, diag)}
    principal = {
        _subuniverse(size, ops, diag + [(a, b)])
        for a in range(size)
        for b in range(size)
        if a != b
    }
    found |= principal
    frontier = set(principal)
    while frontier:
        nxt = set()
        for r in frontier:
            for p in principal:
                if p <= r:
                    continue
                joined = _subuniverse(size, ops, r | p)
                if joined not in found:
                    found.add(joined)
                    nxt.add(joined)
        frontier = nxt
    return found
