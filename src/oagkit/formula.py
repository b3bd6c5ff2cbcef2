"""First-order formulas over a presented group.

Terms are integer combinations of variables plus a constant element.
Atoms cover order against zero, plain divisibility, the two leading
coefficient predicates, and comparisons of induced values against a
fixed spine value.  The printer and the parser are exact inverses on
the abstract syntax.

Grammar, with ``and`` binding tighter than ``or`` and ``not`` tightest::

    formula  := disj
    disj     := conj ('or' conj)*
    conj     := neg ('and' neg)*
    neg      := 'not' neg | '(' formula ')' | 'true' | 'false' | atom
    atom     := 'val' '{' INT '}' '(' term ')' cmp svalue
              | term '>' '0'
              | term '===' '{' INT '}' INT
              | term '=**' INT
              | term '%' '{' INT '}' '0'
    svalue   := position | 'limit' '(' INT ')' | 'inf'
    cmp      := '<' | '<=' | '=' | '>=' | '>'
    term     := part (('+' | '-') part)*
    part     := [INT '*'] VAR | element
    element  := 'el' '(' [entry (',' entry)*] ')'
    entry    := position ':' value | 'tail' ':' value
    position := 'pos' '(' INT ',' ['-'] RAT ')'
    value    := [ '-' ] vpart [('+' | '-') vpart]
    vpart    := RAT ['W'] | 'W'
    RAT      := INT ['/' INT]

A position's coordinate reads as an int when it is whole and as a
Fraction otherwise, so dense segments take their rational coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .chain import Coord, Position, once_property
from .errors import FormulaSyntaxError, UnboundVariable
from .group import Element, GroupSpec
from .rib import RibElement
from .valuation import (SpineValue, SpineValueKind, SV_INF,
                        compare_spine_values, pred_cong_bullet,
                        pred_eq_bullet, sv_limit, sv_pos, val_m)

# -- abstract syntax ----------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Integer combination of variables plus a constant element."""

    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: Element = Element((), RibElement(0))

    def __post_init__(self):
        names = [n for n, _ in self.coeffs]
        if len(set(names)) != len(names) or sorted(names) != names:
            raise FormulaSyntaxError("variables must be sorted and distinct")

    @once_property
    def _checked(self) -> dict:
        """``const`` as the last group it was evaluated in checked it, as
        ``id`` of that group to (group, element): a term evaluated again
        in the same group is not checked again.  The stored group keeps
        its id from being reused; the dict sits outside the fields, so ==
        and hash ignore it."""
        return {}


@dataclass(frozen=True)
class Gt0:
    term: Term


@dataclass(frozen=True)
class CongM:
    term: Term
    m: int


@dataclass(frozen=True)
class CongBullet:
    term: Term
    m: int
    k: int


@dataclass(frozen=True)
class EqBullet:
    term: Term
    k: int


CMP_OPS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class ValCmp:
    term: Term
    m: int
    op: str
    target: SpineValue

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise FormulaSyntaxError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Not:
    part: object


@dataclass(frozen=True)
class And:
    parts: Tuple[object, ...]


@dataclass(frozen=True)
class Or:
    parts: Tuple[object, ...]


TRUE = Bool(True)
FALSE = Bool(False)


def make_term(coeffs=(), const: Optional[Element] = None) -> Term:
    items = sorted(dict(coeffs).items())
    items = [(n, int(c)) for n, c in items if c]
    if const is None:
        const = Element((), RibElement(0))
    return Term(tuple(items), const)


# -- printing -----------------------------------------------------------------


def _rib_value_text(v: RibElement) -> str:
    if not v.w:
        return str(v.q)
    if v.w == 1:
        head = "W"
    elif v.w == -1:
        head = "-W"
    else:
        head = f"{v.w}W"
    if not v.q:
        return head
    return f"{head}{'+' if v.q > 0 else '-'}{abs(v.q)}"


def element_text(e: Element) -> str:
    entries = [f"pos({p.seg}, {p.coord}): {_rib_value_text(v)}" for p, v in e.fp]
    if e.tail:
        entries.append(f"tail: {_rib_value_text(e.tail)}")
    return f"el({', '.join(entries)})"


def term_text(t: Term) -> str:
    parts = []
    for name, c in t.coeffs:
        if not parts:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f" {sign} {name if mag == 1 else f'{mag}*{name}'}")
    if not t.const.is_zero or not parts:
        lit = element_text(t.const)
        parts.append(f" + {lit}" if parts else lit)
    return "".join(parts)


def spine_value_text(v: SpineValue) -> str:
    if v.kind is SpineValueKind.INF:
        return "inf"
    if v.kind is SpineValueKind.LIMIT:
        return f"limit({v.seg})"
    return f"pos({v.position.seg}, {v.position.coord})"


def formula_text(f) -> str:
    if isinstance(f, Bool):
        return "true" if f.value else "false"
    if isinstance(f, Gt0):
        return f"{term_text(f.term)} > 0"
    if isinstance(f, CongM):
        return f"{term_text(f.term)} %{{{f.m}}} 0"
    if isinstance(f, CongBullet):
        return f"{term_text(f.term)} ==={{{f.m}}} {f.k}"
    if isinstance(f, EqBullet):
        return f"{term_text(f.term)} =** {f.k}"
    if isinstance(f, ValCmp):
        return (f"val{{{f.m}}}({term_text(f.term)}) {f.op} "
                f"{spine_value_text(f.target)}")
    if isinstance(f, Not):
        inner = formula_text(f.part)
        if isinstance(f.part, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(f, And):
        return " and ".join(
            f"({formula_text(p)})" if isinstance(p, Or) else formula_text(p)
            for p in f.parts)
    if isinstance(f, Or):
        return " or ".join(formula_text(p) for p in f.parts)
    raise FormulaSyntaxError(f"not a formula: {f!r}")


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=\*\*|===|<=|>=|[-+*/%<>=(),:{}])
""", re.VERBOSE)

_KEYWORDS = {"val", "pos", "limit", "inf", "el", "tail", "W",
             "and", "or", "not", "true", "false"}


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise FormulaSyntaxError("unexpected character", i)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        out.append((m.lastgroup, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    # token plumbing
    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def expect(self, text: str):
        kind, val, pos = self.next()
        if val != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {val!r}", pos)

    def expect_int(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise FormulaSyntaxError(f"expected a number, found {val!r}", pos)
        return int(val)

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    # values inside element literals
    def rational(self) -> Coord:
        """An int, or a Fraction when a denominator follows."""
        n = self.expect_int()
        if self.at("/"):
            self.next()
            pos = self.peek()[2]
            d = self.expect_int()
            if d == 0:
                raise FormulaSyntaxError("zero denominator", pos)
            return Fraction(n, d)
        return n

    def value_part(self) -> RibElement:
        if self.at("W"):
            self.next()
            return RibElement(0, 1)
        q = self.rational()
        if self.at("W"):
            self.next()
            return RibElement(0, q)
        return RibElement(q)

    def rib_value(self) -> RibElement:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        v = self.value_part()
        if neg:
            v = -v
        while self.peek()[1] in ("+", "-") and \
                (self.peek(1)[0] == "int" or self.peek(1)[1] == "W"):
            op = self.next()[1]
            w = self.value_part()
            v = v + w if op == "+" else v - w
        return v

    def position(self) -> Position:
        self.expect("pos")
        self.expect("(")
        s = self.expect_int()
        self.expect(",")
        neg = self.at("-")  # whole-line segments have negative slots
        if neg:
            self.next()
        c = -self.rational() if neg else self.rational()
        self.expect(")")
        return Position(s, c.numerator if c.denominator == 1 else c)

    def element(self) -> Element:
        self.expect("el")
        self.expect("(")
        pairs = []
        tail = RibElement(0)
        if not self.at(")"):
            while True:
                if self.at("tail"):
                    self.next()
                    self.expect(":")
                    tail = self.rib_value()
                else:
                    p = self.position()
                    self.expect(":")
                    pairs.append((p, self.rib_value()))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        # entries are the stored offsets against the tail, exactly what the
        # printer emits; ordering is normalized on first use against a group
        return Element(tuple(pairs), tail)

    # terms
    def term_part(self):
        kind, val, pos = self.peek()
        if val == "el":
            return (None, 1, self.element())
        if kind == "int":
            c = self.expect_int()
            self.expect("*")
            kind, val, pos = self.next()
            if kind != "name" or val in _KEYWORDS:
                raise FormulaSyntaxError("expected a variable", pos)
            return (val, c, None)
        if kind == "name" and val not in _KEYWORDS:
            self.next()
            return (val, 1, None)
        raise FormulaSyntaxError(f"expected a term, found {val!r}", pos)

    def term(self) -> Term:
        coeffs: Dict[str, int] = {}
        const = Element((), RibElement(0))
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        while True:
            name, c, elem = self.term_part()
            if name is None:
                if sign < 0:
                    elem = Element(tuple((p, -v) for p, v in elem.fp),
                                   -elem.tail)
                if not const.is_zero:
                    raise FormulaSyntaxError("one constant per term")
                const = elem
            else:
                coeffs[name] = coeffs.get(name, 0) + sign * c
            if self.peek()[1] in ("+", "-"):
                sign = 1 if self.next()[1] == "+" else -1
                continue
            break
        return make_term(coeffs, const)

    # spine values
    def spine_value(self) -> SpineValue:
        kind, val, pos = self.peek()
        if val == "inf":
            self.next()
            return SV_INF
        if val == "limit":
            self.next()
            self.expect("(")
            s = self.expect_int()
            self.expect(")")
            return sv_limit(s)
        if val == "pos":
            return sv_pos(self.position())
        raise FormulaSyntaxError(f"expected a spine value, found {val!r}", pos)

    # formulas
    def braced_int(self) -> int:
        self.expect("{")
        n = self.expect_int()
        self.expect("}")
        return n

    def atom(self):
        if self.at("val"):
            self.next()
            m = self.braced_int()
            self.expect("(")
            t = self.term()
            self.expect(")")
            kind, op, pos = self.next()
            if op not in CMP_OPS:
                raise FormulaSyntaxError(f"expected a comparison, found {op!r}",
                                         pos)
            return ValCmp(t, m, op, self.spine_value())
        t = self.term()
        kind, op, pos = self.next()
        if op == ">":
            z = self.expect_int()
            if z != 0:
                raise FormulaSyntaxError("order atoms compare against 0", pos)
            return Gt0(t)
        if op == "%":
            m = self.braced_int()
            z = self.expect_int()
            if z != 0:
                raise FormulaSyntaxError("divisibility atoms end in 0", pos)
            return CongM(t, m)
        if op == "===":
            m = self.braced_int()
            return CongBullet(t, m, self.signed_int())
        if op == "=**":
            return EqBullet(t, self.signed_int())
        raise FormulaSyntaxError(f"expected an atom, found {op!r}", pos)

    def signed_int(self) -> int:
        if self.at("-"):
            self.next()
            return -self.expect_int()
        return self.expect_int()

    def neg(self):
        if self.at("not"):
            self.next()
            return Not(self.neg())
        if self.at("true"):
            self.next()
            return TRUE
        if self.at("false"):
            self.next()
            return FALSE
        if self.at("("):
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def conj(self):
        parts = [self.neg()]
        while self.at("and"):
            self.next()
            parts.append(self.neg())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def formula(self):
        parts = [self.conj()]
        while self.at("or"):
            self.next()
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))


def parse_formula(text: str):
    p = _Parser(text)
    f = p.formula()
    kind, val, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {val!r}", pos)
    return f


def parse_element(text: str, g: Optional[GroupSpec] = None) -> Element:
    p = _Parser(text)
    e = p.element()
    kind, val, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {val!r}", pos)
    return g._raw(e.fp, e.tail) if g is not None else e


# -- evaluation ---------------------------------------------------------------


def eval_term(g: GroupSpec, t: Term, env: Dict[str, Element]) -> Element:
    hit = t._checked.get(id(g))
    if hit is None:
        hit = (g, g._raw(t.const.fp, t.const.tail))
        t._checked.clear()  # one group at a time: a term holds no others
        t._checked[id(g)] = hit
    acc = hit[1]
    for name, c in t.coeffs:
        if name not in env:
            raise UnboundVariable(name)
        acc = g.add(acc, g.scale(env[name], c))
    return acc


def eval_formula(g: GroupSpec, f, env: Optional[Dict[str, Element]] = None) -> bool:
    env = env or {}
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(g, f.part, env)
    if isinstance(f, And):
        return all(eval_formula(g, p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(g, p, env) for p in f.parts)
    if isinstance(f, (Gt0, CongM, CongBullet, EqBullet, ValCmp)):
        return atom_holds(g, f, eval_term(g, f.term, env))
    raise FormulaSyntaxError(f"not a formula: {f!r}")


def atom_holds(g: GroupSpec, f, value: Element) -> bool:
    """Whether the atom f holds when its term takes the given value; the
    order and coefficient atoms read the value's lead."""
    if isinstance(f, CongM):
        ok, _ = g.in_m_multiples(value, f.m)
        return ok
    if isinstance(f, ValCmp):
        c = compare_spine_values(g.spine, val_m(g, value, f.m), f.target)
        return {"<": c < 0, "<=": c <= 0, "=": c == 0,
                ">=": c >= 0, ">": c > 0}[f.op]
    if isinstance(f, Gt0):
        return g.sign_of(value) > 0
    if isinstance(f, CongBullet):
        return pred_cong_bullet(g, value, f.m, f.k)
    return pred_eq_bullet(g, value, f.k)
