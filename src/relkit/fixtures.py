"""Bundled example algebras, addressable by bare name from the CLI."""

from __future__ import annotations

import os

from .algebra import FiniteAlgebra, Operation, load_algebra, power
from .caps import DEFAULT_CAPS, Caps


def _lattice_ops(order_pairs, size):
    """meet/join tables from an explicit partial order (a set of (small, big))."""
    leq = set(order_pairs) | {(a, a) for a in range(size)}

    def below(a):
        return {b for b in range(size) if (b, a) in leq}

    def above(a):
        return {b for b in range(size) if (a, b) in leq}

    meet = []
    join = []
    for a in range(size):
        for b in range(size):
            lows = below(a) & below(b)
            meet.append(max(lows, key=lambda c: len(below(c))))
            highs = above(a) & above(b)
            join.append(max(highs, key=lambda c: len(above(c))))
    return [Operation("meet", 2, meet), Operation("join", 2, join)]


def lattice2() -> FiniteAlgebra:
    """Two-element lattice 0 < 1."""
    return FiniteAlgebra(2, _lattice_ops([(0, 1)], 2), name="lattice2")


def lattice_n5() -> FiniteAlgebra:
    """Pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable to 1, 2."""
    order = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]
    return FiniteAlgebra(5, _lattice_ops(order, 5), name="lattice_n5")


def lattice_2x2() -> FiniteAlgebra:
    alg = power(lattice2(), 2)
    return FiniteAlgebra(alg.size, alg.ops, name="lattice_2x2")


def baker4() -> FiniteAlgebra:
    """Reduct of the 2x2 lattice to the single ternary f(x,y,z) = x meet (y join z)."""
    lat = lattice_2x2()
    n = lat.size
    table = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                table.append(lat.apply("meet", (x, lat.apply("join", (y, z)))))
    return FiniteAlgebra(n, [Operation("f", 3, table)], name="baker4")


def z2() -> FiniteAlgebra:
    """Two-element group (exponent 2), addition only."""
    return FiniteAlgebra(2, [Operation("add", 2, [0, 1, 1, 0])], name="z2")


def z2cube() -> FiniteAlgebra:
    alg = power(z2(), 3)
    return FiniteAlgebra(alg.size, alg.ops, name="z2cube")


FIXTURES = {
    "lattice2": lattice2,
    "lattice_n5": lattice_n5,
    "lattice_2x2": lattice_2x2,
    "baker4": baker4,
    "z2": z2,
    "z2cube": z2cube,
}

ALIASES = {"lattice_2x2sq": "lattice_2x2"}


def resolve(name: str, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """A bundled name, NAME^k for a power (built within caps), or a path to
    an algebra file."""
    key = ALIASES.get(name, name)
    if key in FIXTURES:
        return FIXTURES[key]()
    if "^" in key:
        base, _, exp = key.rpartition("^")
        if exp.isdigit() and int(exp) >= 1:
            alg = power(resolve(base, caps), int(exp), caps)
            return FiniteAlgebra(alg.size, alg.ops, name=key)
    if os.path.exists(name):
        alg = load_algebra(name)
        return FiniteAlgebra(alg.size, alg.ops, name=os.path.basename(name))
    raise KeyError(
        f"unknown algebra {name!r}: not a bundled fixture "
        f"({', '.join(sorted(FIXTURES))}), not NAME^k, and not a file"
    )

