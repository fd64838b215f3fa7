"""Finite algebras as flat operation tables, plus terms over them.

Tables are row-major with the LAST argument varying fastest, so the index of
(a_1, ..., a_r) is a_1*n^(r-1) + ... + a_r.  Elements are dense ints 0..n-1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps


class CapExceeded(Exception):
    """A construction would exceed a configured size cap."""


class Operation:
    __slots__ = ("name", "arity", "table")

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


class FiniteAlgebra:
    """Universe {0..size-1} with named finitary operations."""

    __slots__ = ("size", "ops", "name", "_by_name")

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
        idx = 0
        for a in args:
            if not 0 <= a < self.size:
                raise ValueError(f"element {a} out of range for size {self.size}")
            idx = idx * self.size + a
        return op.table[idx]

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


def save_algebra(alg: FiniteAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(alg.to_json(), fh, indent=1)
        fh.write("\n")


def product(a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> FiniteAlgebra:
    """Direct product; the pair (x, y) is encoded as x*|B| + y."""
    if a.signature() != b.signature():
        raise ValueError("signature mismatch in product")
    n = a.size * b.size
    if n > caps.max_universe:
        raise CapExceeded(f"product universe {n} exceeds cap {caps.max_universe}")
    ops = []
    for opa in a.ops:
        opb = b.op(opa.name)
        r = opa.arity
        cells = n**r
        if cells > caps.max_table_cells:
            raise CapExceeded(f"product table for {opa.name!r} needs {cells} cells")
        table = [0] * cells
        # decode each argument tuple into A- and B-coordinates
        for idx in range(cells):
            rest = idx
            ia = 0
            ib = 0
            for shift in range(r - 1, -1, -1):
                arg = (rest // (n**shift)) % n
                ia = ia * a.size + arg // b.size
                ib = ib * b.size + arg % b.size
            table[idx] = opa.table[ia] * b.size + opb.table[ib]
        ops.append(Operation(opa.name, r, table))
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


def term_arity(t: Term) -> int:
    """1 + the largest variable index used."""
    if isinstance(t, Var):
        return t.index + 1
    return max((term_arity(a) for a in t.args), default=0)


def eval_term(alg: FiniteAlgebra, t: Term, args) -> int:
    if isinstance(t, Var):
        if t.index >= len(args):
            raise ValueError(f"term uses variable {var_name(t.index)} beyond args")
        return args[t.index]
    vals = tuple(eval_term(alg, a, args) for a in t.args)
    return alg.apply(t.op, vals)


def parse_term(text: str) -> Term:
    """Parse prefix notation: `f(x,g(y,z))`; variables x,y,z,w or v<i>."""
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
