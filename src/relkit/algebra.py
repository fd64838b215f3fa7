"""Finite algebras as flat operation tables, plus terms over them.

Tables are row-major with the LAST argument varying fastest, so the index of
(a_1, ..., a_r) is a_1*n^(r-1) + ... + a_r.  Elements are dense ints 0..n-1.
Two helpers own this layout: ``apply_table`` looks a table up at argument
arrays, with ``bytes.translate`` for a uint8 table of at most 256 cells and
with ``take`` otherwise, and ``pattern_cells`` lists the cells whose
arguments repeat as an identification pattern such as ``"aba"`` prescribes.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .caps import DEFAULT_CAPS, Caps


class CapExceeded(Exception):
    """A construction would exceed a configured size cap."""


class Operation:
    __slots__ = ("name", "arity", "table", "_array")

    def __init__(self, name: str, arity: int, table):
        table = tuple(int(v) for v in table)
        if arity < 0:
            raise ValueError(f"operation {name!r}: negative arity")
        self.name = name
        self.arity = arity
        self.table = table

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.name, self.arity, self.table))

    def __repr__(self):
        return f"Operation({self.name!r}, arity={self.arity})"

    def array(self) -> np.ndarray:
        """The table as an intp array, built on first use."""
        try:
            return self._array
        except AttributeError:
            self._array = np.asarray(self.table, dtype=np.intp)
            return self._array


class FiniteAlgebra:
    """Universe {0..size-1} with named finitary operations.

    Two memos live and die with the algebra: _pools, the relation
    enumerations of identities.candidate_pool by (kind, caps), and
    _pair_closures, the single-pair closures of relations.pair_closure.
    """

    __slots__ = ("size", "ops", "name", "_by_name", "_pools", "_pair_closures")

    def __init__(self, size: int, ops, name: str | None = None):
        if size <= 0:
            raise ValueError("universe must be nonempty")
        ops = tuple(o if isinstance(o, Operation) else Operation(*o) for o in ops)
        seen = set()
        for op in ops:
            if op.name in seen:
                raise ValueError(f"duplicate operation name {op.name!r}")
            seen.add(op.name)
            if len(op.table) != size**op.arity:
                raise ValueError(
                    f"operation {op.name!r}: table length {len(op.table)} "
                    f"!= {size}^{op.arity}"
                )
            for v in op.table:
                if not 0 <= v < size:
                    raise ValueError(f"operation {op.name!r}: entry {v} out of range")
        self.size = size
        self.ops = ops
        self.name = name
        self._by_name = {op.name: op for op in ops}
        self._pools = {}
        self._pair_closures = {}

    def op(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown operation {name!r}") from None

    def apply(self, op_name: str, args) -> int:
        op = self.op(op_name)
        if len(args) != op.arity:
            raise ValueError(
                f"operation {op_name!r} has arity {op.arity}, got {len(args)} args"
            )
        for a in args:
            if not 0 <= a < self.size:
                raise ValueError(f"element {a} out of range for size {self.size}")
        return int(apply_table(op.array(), self.size, args))

    def signature(self):
        return tuple((op.name, op.arity) for op in self.ops)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.size == other.size
            and self.ops == other.ops
        )

    def __hash__(self):
        return hash((self.size, self.ops))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"FiniteAlgebra{label}(size={self.size}, ops={len(self.ops)})"

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.size).encode())
        for op in self.ops:
            h.update(b"\0")
            h.update(op.name.encode())
            h.update(bytes([op.arity]))
            h.update(json.dumps(op.table).encode())
        return f"{self.size}:{h.hexdigest()[:16]}"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "ops": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.ops
            ],
        }

    @classmethod
    def from_json(cls, data: dict, name: str | None = None) -> "FiniteAlgebra":
        """Build from {"size": int, "ops": [{"name", "arity", "table"}, ...]};
        a malformed shape raises ValueError naming the bad field."""
        if not isinstance(data, dict):
            raise ValueError("algebra data must be a JSON object")
        _check_field(data, "size", int, "an integer", "algebra")
        _check_field(data, "ops", list, "a list", "algebra")
        for i, o in enumerate(data["ops"]):
            where = f"ops[{i}]"
            if not isinstance(o, dict):
                raise ValueError(f"algebra field {where!r} must be an object")
            _check_field(o, "name", str, "a string", where)
            _check_field(o, "arity", int, "an integer", where)
            _check_field(o, "table", list, "a list", where)
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in o["table"]):
                raise ValueError(f"algebra field '{where}.table' must hold integers")
        ops = [(o["name"], o["arity"], o["table"]) for o in data["ops"]]
        return cls(data["size"], ops, name=name)


def _check_field(obj: dict, key: str, typ: type, what: str, where: str) -> None:
    if key not in obj:
        raise ValueError(f"{where} field {key!r} is missing")
    value = obj[key]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise ValueError(f"{where} field {key!r} must be {what}, got {value!r}")


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return FiniteAlgebra.from_json(data)


def _flat_index(n: int, args, dtype=np.intp):
    flat = None
    for a in args:
        if flat is None:
            flat = np.array(a, dtype=dtype)
        else:
            flat *= n
            np.add(flat, a, out=flat, casting="unsafe")
    return flat


def _index_dtype(cells: int):
    """The narrowest unsigned dtype that holds every index below cells."""
    if cells <= 1 << 8:
        return np.uint8
    if cells <= 1 << 16:
        return np.uint16
    return np.uint32 if cells <= 1 << 32 else np.uint64


def apply_table(table: np.ndarray, n: int, args) -> np.ndarray:
    """The r-ary table over {0..n-1} applied to r index arrays of one shape:
    table[sum args[i] * n^(r-1-i)] elementwise (table[0] when r = 0).  args
    may be a generator, so that one argument array is alive at a time.

    Every argument must lie in {0..n-1}: the flat index is built in the
    narrowest unsigned dtype that holds len(table) - 1 = n^r - 1, and an
    argument of n or more would wrap it.  Tables of a FiniteAlgebra hold
    only such values, so composing them keeps to this condition.

    A uint8 table of at most 256 cells, as freeclone passes every operation
    of the fixtures, gets a uint8 index, and bytes.translate looks it up
    through the table padded to 256 bytes; take would first copy the index
    to intp, eight bytes a cell.  Either way an array result is fresh and writable."""
    flat = _flat_index(n, args, _index_dtype(table.size))
    if flat is None:
        return table[0]
    if flat.dtype == np.uint8 and table.dtype == np.uint8:
        # flat.data, not flat: bytearray reads a 0-d array as a length
        lut = table.tobytes().ljust(256, b"\0")
        out = bytearray(flat.data).translate(lut)
        return np.frombuffer(out, dtype=np.uint8).reshape(flat.shape)
    return table.take(flat)


def pattern_cells(n: int, pattern) -> np.ndarray:
    """Flat indices of the tuples over {0..n-1} that match `pattern`: equal
    letters carry equal values.  They are ordered lexicographically by the
    values of the distinct letters, taken in order of first appearance."""
    letters = list(dict.fromkeys(pattern))
    grid = np.indices((n,) * len(letters), dtype=np.intp).reshape(len(letters), -1)
    return _flat_index(n, [grid[letters.index(c)] for c in pattern])


# ---------------------------------------------------------------------------
# Automorphisms
#
# An automorphism is fixed by its images of a generating set: every other
# element e has a derivation e = f(args) from elements reached before it, so
# its image is f(images of args).  The search assigns the generators' images
# one at a time, extends the map along the derivations, and keeps a branch
# only while the map is injective, keeps every element's invariant class,
# fixes every constant and commutes with every operation on the subalgebra
# mapped so far.  Pruning a backtrack search by invariants follows McKay and
# Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60 (2014).

# Candidate extensions (an image given to one element) allowed per n^2.
# Without operations of arity >= 1 every element is a generator and the
# search tries every injective map: 1,956 extensions on 6 elements, below
# 64 * 6^2 = 2,304, so even then an algebra with n <= 6 gets its whole group.
_AUT_WORK = 64


def _new_tuples(old: np.ndarray, new: np.ndarray, r: int):
    """The r-tuples over old ∪ new that use an element of new, as r blocks
    old^i x new x (old ∪ new)^(r-1-i) for i < r, each given by its r
    factors."""
    every = np.concatenate([old, new])
    for i in range(r):
        yield [old] * i + [new] + [every] * (r - 1 - i)


def _grid(factors) -> list[np.ndarray]:
    """The argument arrays of the tuples in the product of the factors
    (contiguous 1-D arrays), as views of one shape: factor i varies along
    axis i and has stride 0 along the others.  The ndarray constructor
    builds each view in one call, where np.broadcast_arrays(*np.ix_(...))
    costs about ten times as much on the small grids of the search."""
    shape = tuple(len(f) for f in factors)
    views = []
    for i, f in enumerate(factors):
        strides = [0] * len(shape)
        strides[i] = f.itemsize
        views.append(np.ndarray(shape, f.dtype, f, strides=strides))
    return views


def _derivations(alg: FiniteAlgebra) -> list:
    """Semi-naive generation with derivations: a list of (generator, steps),
    one per generator, each generator the least element not yet reached.
    steps lists (element, op, args) in the order the closure after that
    generator reaches the elements, args being reached before them.
    Constants are not derived: they get generators like other elements."""
    n = alg.size
    ops = [op for op in alg.ops if op.arity > 0]
    reached = np.zeros(n, dtype=bool)
    levels = []
    while not reached.all():
        gen = int(np.argmin(reached))
        old, new = np.flatnonzero(reached), np.array([gen])
        reached[gen] = True
        steps = []
        while len(new):
            fresh = []
            for op in ops:
                for factors in _new_tuples(old, new, op.arity):
                    vals = apply_table(op.array(), n, _grid(factors)).ravel()
                    vals, first = np.unique(vals, return_index=True)
                    for v, cell in zip(vals.tolist(), first.tolist()):
                        if not reached[v]:
                            reached[v] = True
                            fresh.append(v)
                            at = np.unravel_index(cell, [len(f) for f in factors])
                            steps.append((v, op, tuple(int(f[i]) for f, i in zip(factors, at))))
            old, new = np.concatenate([old, new]), np.array(fresh, dtype=np.intp)
        levels.append((gen, steps))
    return levels


def _invariant_classes(alg: FiniteAlgebra) -> list[int]:
    """A class label per element that every automorphism preserves: for each
    operation of arity >= 1, how many cells take the element as value and
    whether the element is idempotent, refined by the label of f(e,...,e)
    until the classes stop splitting."""
    n = alg.size
    ops = [op for op in alg.ops if op.arity > 0]
    diag = [op.array()[pattern_cells(n, "a" * op.arity)] for op in ops]
    cols = [np.zeros(n, dtype=np.intp)]
    cols += [np.bincount(op.array(), minlength=n) for op in ops]
    cols += [d == np.arange(n) for d in diag]
    labels = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)[1].ravel()
    while True:
        rows = np.stack([labels] + [labels[d] for d in diag], axis=1)
        refined = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
        if refined.max() == labels.max():
            return labels.tolist()
        labels = refined


def _commutes(alg: FiniteAlgebra, image: np.ndarray, old: np.ndarray, new: np.ndarray) -> bool:
    """Whether the partial map image, defined on old ∪ new (closed under
    every operation of arity >= 1), fixes the constants in new and commutes
    with every operation on the tuples that use an element of new."""
    n = alg.size
    for op in alg.ops:
        tab = op.array()
        if op.arity == 0:
            c = tab[0]
            if c in new and image[c] != c:
                return False
            continue
        for factors in _new_tuples(old, new, op.arity):
            args = _grid(factors)
            mapped = apply_table(tab, n, (image[a] for a in args))
            if not np.array_equal(image[apply_table(tab, n, args)], mapped):
                return False
    return True


def automorphisms(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Automorphisms of alg as image tuples (element e goes to g[e]), in
    lexicographic order.

    The search makes at most _AUT_WORK * n^2 candidate extensions.  When
    that stops it, the result holds the automorphisms found so far: a
    subset of the group, so orbits under the group it generates are still
    orbits of automorphisms.
    """
    n = alg.size
    levels = _derivations(alg)
    label = _invariant_classes(alg)
    budget = _AUT_WORK * n * n
    image = np.full(n, -1, dtype=np.intp)
    used = [False] * n
    found = []

    def search(level: int, domain: np.ndarray) -> None:
        nonlocal budget
        if level == len(levels):
            found.append(tuple(image.tolist()))
            return
        gen, steps = levels[level]
        for y in range(n):
            if used[y] or label[y] != label[gen]:
                continue
            if budget <= 0:
                return
            budget -= 1
            image[gen], used[y] = y, True
            mapped = [gen]
            for e, op, args in steps:
                budget -= 1
                v = int(apply_table(op.array(), n, image[list(args)]))
                if used[v] or label[v] != label[e]:
                    break
                image[e], used[v] = v, True
                mapped.append(e)
            else:
                new = np.array(mapped, dtype=np.intp)
                if _commutes(alg, image, domain, new):
                    search(level + 1, np.concatenate([domain, new]))
            for e in mapped:
                used[image[e]] = False
                image[e] = -1

    search(0, np.zeros(0, dtype=np.intp))
    return found


# ---------------------------------------------------------------------------
# Endomorphisms
#
# The search maps the elements in order 0, 1, ..., n-1 and extends all
# partial maps of one length at once: step e gives each map on {0..e-1}
# every image of e, then keeps the extensions that commute with every
# operation on the tuples whose arguments and value lie in {0..e} and
# include e.  So each tuple is checked as soon as its arguments and value
# are mapped, and a constant c, a tuple with no arguments and value c, must
# be mapped to c.

# Candidate cells per step: extensions times (their length plus the
# argument and value cells they are checked on).  A step that would need
# more extends only the first of its partial maps in lexicographic order.
_END_WORK = 1 << 16


def _end_checks(alg: FiniteAlgebra) -> list[list]:
    """For each element e, the (table, args, values) blocks of the tuples
    whose largest argument or value is e: args is (arity, m), values (m,),
    and the table has the narrowest dtype that holds the elements."""
    n = alg.size
    checks = [[] for _ in range(n)]
    for op in alg.ops:
        tab = op.array().astype(np.min_scalar_type(n - 1))
        args = np.indices((n,) * op.arity, dtype=np.intp).reshape(op.arity, len(tab))
        top = np.vstack([args, tab[None, :]]).max(axis=0)
        order = np.argsort(top, kind="stable")
        bounds = np.searchsorted(top[order], np.arange(n + 1)).tolist()
        for e in range(n):
            sel = order[bounds[e] : bounds[e + 1]]
            if len(sel):
                checks[e].append((tab, args[:, sel], tab[sel]))
    return checks


def endomorphisms(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Endomorphisms of alg as image tuples (element e goes to h[e]), in
    lexicographic order; always with the identity.

    A step over _END_WORK candidate cells keeps its first partial maps
    only, so the result may be a subset of End(alg); every map in it is an
    endomorphism."""
    n = alg.size
    dtype = np.min_scalar_type(n - 1)
    maps = np.zeros((1, 0), dtype=dtype)
    for e, checks in enumerate(_end_checks(alg)):
        cost = n * (e + 1 + sum(a.size + v.size for _, a, v in checks))
        maps = maps[: max(1, _END_WORK // cost)]
        ext = np.empty((len(maps) * n, e + 1), dtype=dtype)
        ext[:, :e] = np.repeat(maps, n, axis=0)
        ext[:, e] = np.tile(np.arange(n, dtype=dtype), len(maps))
        for tab, args, values in checks:
            image = apply_table(tab, n, [ext[:, a] for a in args])
            ext = ext[(image == ext[:, values]).all(axis=1)]
        maps = ext
    found = list(map(tuple, maps.tolist()))  # distinct, in lexicographic order
    identity = tuple(range(n))
    if identity not in found:
        bisect.insort(found, identity)
    return found


def product(a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """Direct product; the pair (x, y) is encoded as x*|B| + y."""
    if a.signature() != b.signature():
        raise ValueError("signature mismatch in product")
    n = a.size * b.size
    if n > caps.max_universe:
        raise CapExceeded(f"product universe {n} exceeds cap {caps.max_universe}")
    ops = []
    for opa in a.ops:
        r = opa.arity
        cells = n**r
        if cells > caps.max_table_cells:
            raise CapExceeded(f"product table for {opa.name!r} needs {cells} cells")
        # each argument tuple in table order, split into A- and B-coordinates
        xs, ys = np.divmod(np.indices((n,) * r).reshape(r, cells), b.size)
        table = apply_table(opa.array(), a.size, xs) * b.size + apply_table(
            b.op(opa.name).array(), b.size, ys
        )
        ops.append(Operation(opa.name, r, np.reshape(table, cells)))
    return FiniteAlgebra(n, ops)


def power(a: FiniteAlgebra, k: int, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """k-fold direct power with the mixed-radix encoding of product."""
    if k <= 0:
        raise ValueError("power exponent must be positive")
    if a.size**k > caps.max_universe:
        raise CapExceeded(f"power universe {a.size}^{k} exceeds cap {caps.max_universe}")
    result = a
    for _ in range(k - 1):
        result = product(result, a, caps)
    return result


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    index: int

    def __str__(self):
        return var_name(self.index)


@dataclass(frozen=True)
class App:
    op: str
    args: tuple

    def __str__(self):
        return f"{self.op}({','.join(str(a) for a in self.args)})"


Term = Var | App

_VAR_NAMES = ("x", "y", "z", "w")


def var_name(i: int) -> str:
    return _VAR_NAMES[i] if i < len(_VAR_NAMES) else f"v{i}"


def var_index(name: str) -> int | None:
    if name in _VAR_NAMES:
        return _VAR_NAMES.index(name)
    if name.startswith("v") and name[1:].isdigit():
        return int(name[1:])
    return None


def parse_term(text: str) -> Term:
    """Parse prefix notation: `f(x,g(y,z))`; variables x,y,z,w or v<i>; a
    nullary operation c as `c()` (the form str prints) or `c`."""
    pos = 0
    text = text.strip()

    def error(msg):
        raise ValueError(f"term parse error at {pos}: {msg} in {text!r}")

    def ident():
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_+*'^"):
            pos += 1
        if start == pos:
            error("expected identifier")
        return text[start:pos]

    def expr():
        nonlocal pos
        name = ident()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            args = []
            if pos < len(text) and text[pos] == ")":  # c(), a nullary operation
                pos += 1
                return App(name, ())
            while True:
                args.append(expr())
                if pos >= len(text):
                    error("unterminated argument list")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                error(f"unexpected {text[pos]!r}")
            return App(name, tuple(args))
        idx = var_index(name)
        if idx is None:
            # nullary operation written without parentheses
            return App(name, ())
        return Var(idx)

    t = expr()
    if pos != len(text):
        error("trailing input")
    return t
