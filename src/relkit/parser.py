"""Small expression grammar for relation identities given on the command line.

    uadm:s ; uadm:s == uadm:s
    cong:a & (adm:r ; adm:s) <= (cong:a & adm:r) ;^3 (cong:a & adm:s)

Variables carry a class prefix (``cong:`` ``tol:`` ``adm:`` ``uadm:`` ``u2:``
``ucong2:``) on at least one occurrence; operators are ``&`` (intersection),
``|`` (union), ``;`` (composition), ``;^m`` and ``m^;`` (the right and left
alternating compositions with m factors: ``a ;^3 b`` is ``a;b;a``,
``a 3^; b`` is ``b;a;b``), postfix ``^~`` (converse) and ``^*`` (transitive
closure), ``bar(...)`` (admissible closure), ``pow(e,h)``, constants
``id``/``all``; the relator is ``<=`` or ``==``.  Binding: postfix, then
``&``, then ``;``/``;^m``/``m^;``, then ``|``.
"""

from __future__ import annotations

from .identities import (
    AltL,
    AltR,
    BarOp,
    Comp,
    Conv,
    IdentitySpec,
    Inter,
    Pow,
    RConst,
    RVar,
    RelClass,
    Star,
    UnionOp,
)

CLASS_PREFIXES = {
    "cong": RelClass.Congruence,
    "tol": RelClass.Tolerance,
    "adm": RelClass.ReflexiveAdmissible,
    "uadm": RelClass.UAdmissible,
    "u2": RelClass.U2Admissible,
    "ucong2": RelClass.UnionOfTwoCongruences,
}

_RESERVED = {"id", "all", "bar", "pow"}


class SpecParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"col {pos + 1}: {message}")
        self.pos = pos


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<=", i) or text.startswith("==", i):
            out.append(_Token("relator", text[i : i + 2], i))
            i += 2
        elif text.startswith("^~", i):
            out.append(_Token("conv", "^~", i))
            i += 2
        elif text.startswith("^*", i):
            out.append(_Token("star", "^*", i))
            i += 2
        elif text.startswith(";^", i):
            j = i + 2
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 2:
                raise SpecParseError("';^' needs an integer", i)
            out.append(_Token("altcomp", int(text[i + 2 : j]), i))
            i = j
        elif c in "&|;(),:":
            out.append(_Token(c, c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if text.startswith("^;", j):
                out.append(_Token("laltcomp", int(text[i:j]), i))
                j += 2
            else:
                out.append(_Token("int", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
        else:
            raise SpecParseError(f"unexpected character {c!r}", i)
    out.append(_Token("eof", None, n))
    return out


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.classes: dict[str, RelClass] = {}
        self.order: list[str] = []

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, what=None) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise SpecParseError(f"expected {what or kind}, got {t.value!r}", t.pos)
        return t

    # precedence: | < ; ;^m m^; < & < postfix
    def expr(self):
        node = self.comp()
        while self.peek().kind == "|":
            self.next()
            node = UnionOp(node, self.comp())
        return node

    def comp(self):
        node = self.inter()
        while True:
            t = self.peek()
            if t.kind == ";":
                self.next()
                node = Comp(node, self.inter())
            elif t.kind in ("altcomp", "laltcomp"):
                self.next()
                if t.value < 1:
                    op = "';^m'" if t.kind == "altcomp" else "'m^;'"
                    raise SpecParseError(f"{op} needs m >= 1", t.pos)
                alt = AltR if t.kind == "altcomp" else AltL
                node = alt(node, self.inter(), t.value)
            else:
                return node

    def inter(self):
        node = self.postfix()
        while self.peek().kind == "&":
            self.next()
            node = Inter(node, self.postfix())
        return node

    def postfix(self):
        node = self.atom()
        while True:
            t = self.peek()
            if t.kind == "conv":
                self.next()
                node = Conv(node)
            elif t.kind == "star":
                self.next()
                node = Star(node)
            else:
                return node

    def atom(self):
        t = self.next()
        if t.kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if t.kind != "ident":
            raise SpecParseError(f"expected a relation, got {t.value!r}", t.pos)
        word = t.value
        if word == "id":
            return RConst("id")
        if word == "all":
            return RConst("all")
        if word == "bar":
            self.expect("(", "'('")
            node = self.expr()
            self.expect(")", "')'")
            return BarOp(node)
        if word == "pow":
            self.expect("(", "'('")
            node = self.expr()
            self.expect(",", "','")
            h = self.expect("int", "an integer").value
            self.expect(")", "')'")
            if h < 1:
                raise SpecParseError("pow needs h >= 1", t.pos)
            return Pow(node, h)
        if self.peek().kind == ":":
            if word not in CLASS_PREFIXES:
                raise SpecParseError(
                    f"unknown class prefix {word!r}; one of "
                    + ", ".join(sorted(CLASS_PREFIXES)),
                    t.pos,
                )
            self.next()
            nt = self.expect("ident", "a variable name")
            return self.variable(nt.value, CLASS_PREFIXES[word], nt.pos)
        return self.variable(word, None, t.pos)

    def variable(self, name: str, cls, pos: int):
        if name in _RESERVED:
            raise SpecParseError(f"{name!r} is reserved", pos)
        have = self.classes.get(name)
        if cls is None:
            if have is None:
                self.classes[name] = None
                self.order.append(name)
        else:
            if have is not None and have is not cls:
                raise SpecParseError(
                    f"variable {name!r} was {have.name}, now {cls.name}", pos
                )
            if name not in self.classes:
                self.order.append(name)
            self.classes[name] = cls
        return RVar(name)

    def parse(self) -> IdentitySpec:
        lhs = self.expr()
        t = self.next()
        if t.kind != "relator":
            raise SpecParseError("expected '<=' or '=='", t.pos)
        mode = "inclusion" if t.value == "<=" else "equality"
        rhs = self.expr()
        end = self.next()
        if end.kind != "eof":
            raise SpecParseError(f"unexpected {end.value!r}", end.pos)
        missing = [v for v in self.order if self.classes[v] is None]
        if missing:
            raise SpecParseError(
                f"variable {missing[0]!r} never got a class prefix", len(self.text) - 1
            )
        variables = tuple((v, self.classes[v]) for v in self.order)
        return IdentitySpec(name="literal", variables=variables, lhs=lhs, rhs=rhs, mode=mode)


def parse_spec(text: str) -> IdentitySpec:
    """Parse ``lhs <= rhs`` or ``lhs == rhs`` with class-prefixed variables."""
    return _SpecParser(text).parse()


def parse_expr(text: str):
    """Parse a bare relation expression (no relator); returns (expr, classes)."""
    p = _SpecParser(text)
    node = p.expr()
    end = p.next()
    if end.kind != "eof":
        raise SpecParseError(f"unexpected {end.value!r}", end.pos)
    return node, dict(p.classes)
