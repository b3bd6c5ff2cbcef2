"""Best approximations across a pair and the schemes built from them.

For an element ``a`` of the big group, ``n*a`` is approximated from the
small group coordinate by coordinate, in spine order.  The first
coordinate the small group cannot match caps the approximation quality;
when every coordinate is matchable but only finitely many at a time, the
quality climbs cofinally and no best approximation exists.  A fixed
approximation then drives small-group formulas for the order,
congruence, and leading-coefficient relations against ``n*a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Tuple

from .chain import Position, once_property
from .errors import GuardGap, PresentationError
from .formula import (And, Bool, CongBullet, EqBullet, Gt0, Or, ValCmp,
                      make_term)
from .group import Element, PairSpec
from .pseudo import ApproxSample, Ladder, NoMaximum
from .rib import (RIB_ZERO, RibElement, RibSpec, rib_contains, rib_divides,
                  rib_residue)
from .valuation import (SV_INF, SpineValue, _lead, coefficient_bullet,
                        compare_spine_values, lead_m, sv_pos)


@dataclass(frozen=True)
class BestApproximation:
    n: int
    m: int
    approx: Element
    beta: SpineValue
    rho: Optional[RibElement]
    exact: bool = False


def _match_coordinate(rib_s: RibSpec, rib_b: RibSpec, c: RibElement, m: int):
    """A small-rib value whose removal pushes the coordinate past the
    matching bar: remainder exactly zero when m == 0, m-divisible in the
    big rib otherwise.  Returns (ok, value)."""
    if rib_contains(rib_s, c):
        return True, c
    if m == 0:
        return False, None
    if rib_divides(rib_b, c, m):
        return True, RIB_ZERO
    if rib_s.discrete and rib_b.discrete:
        # c is congruent to the integer q + w, which every discrete rib holds
        return True, RibElement(rib_residue(rib_b, c, m))
    return False, None


def best_approx(pair: PairSpec, a: Element, n: int = 1, m: int = 0):
    """Best approximation of n*a from the small group, at modulus m, for
    an element a of the big group: a BestApproximation, or a NoMaximum
    whose ladder climbs cofinally.  The walk reads x = n*a up to ``top``,
    past its deviations, both horizons and every coordinate where x.tail
    over m leaves the big rib.  Each later coordinate holds x.tail under
    the ribs at ``top`` (or one schematic rib both share), so every rung
    matches as ``top`` did, by ``step``.  When neither the rungs' limit
    (tail ``step``) nor the first rung approximates x to INF or a limit
    value, no rung is best.
    """
    if n < 1:
        raise PresentationError("the multiplier must be at least 1")
    if m < 0 or m == 1:
        raise PresentationError("the modulus must be 0 or at least 2")
    small, big = pair.small, pair.big
    if not big.contains(a):
        raise PresentationError("the target lies outside the big group")
    if small.generators:
        raise GuardGap("tail lattices with generators are not searched")
    x = big.scale(a, n)
    if small.contains(x):
        return BestApproximation(n, m, x, SV_INF, None, True)

    t = big.terminal_omega
    past = 0 if t is None else max(small.layouts[t].horizon,
                                   big.layouts[t].horizon)
    if m and x.tail:
        exits = big._tail_exits(x.tail.scale(Fraction(1, m)))[1]
        past = max((past, *(c + 1 for c in exits)))
    walked = []  # the match at every coordinate walked, zeros included
    top, ok = -1, True
    for p, c in big.support_walk(x, past):
        if p.seg == t:
            top = p.coord
        ok, gp = _match_coordinate(small._rib_at(p), big._rib_at(p), c, m) \
            if c else (True, c)
        if not ok:
            break
        walked.append((p, gp))
    base = Element(tuple(pv for pv in walked if pv[1]))
    if not ok:
        return BestApproximation(n, m, base, sv_pos(p), c)

    if not x.tail:  # x - base is finite with m-th multiples everywhere
        return BestApproximation(n, m, base, SV_INF, None, True)

    step = walked[-1][1]  # the match at ``top``
    for g in (small.el(walked, tail=step), base):
        if not small.contains(g):
            continue
        hit = _lead(big, x, m, g)
        if type(hit) is not tuple:  # INF or a limit value
            return BestApproximation(n, m, g, hit, None, hit is SV_INF)
    return NoMaximum(Ladder(base, t, top + 1, step, x.tail),
                     "every rung is matchable but only finitely many at a "
                     "time; the approximation quality climbs cofinally")


def decompose_val(pair: PairSpec, ap: BestApproximation,
                  g: Element) -> SpineValue:
    """val of (n*a - g), read off the fixed approximation alone."""
    inner = lead_m(pair.big, ap.approx, ap.m, g)[0]
    if compare_spine_values(pair.big.spine, inner, ap.beta) <= 0:
        return inner
    return ap.beta


# -- schemes ------------------------------------------------------------------

_ZERO_TERM = make_term()


@dataclass(frozen=True)
class Scheme:
    """Case formula deciding a relation of n*a - x inside the small
    group.  A fixed approximation (approx, beta, rho) is the one-rung
    ladder; a cofinal ladder is held in ``ladder``, and its first rungs
    are its ``samples``.  On each rung the guard compares val of (x - g)
    against the rung's value."""

    kind: str  # "sign" | "cong" | "eqk"
    n: int
    m: int  # the modulus of a congruence scheme, 0 for the other kinds
    k: int
    approx: Optional[Element] = None
    beta: Optional[SpineValue] = None
    rho: Optional[RibElement] = None
    exact: bool = False
    ladder: Optional[Ladder] = field(default=None,
                                     metadata={"json": "samples"})
    note: str = ""

    @property
    def samples(self) -> Tuple[ApproxSample, ...]:
        """The first eight rungs of the ladder, or the one fixed rung."""
        if self.ladder is None:
            return (ApproxSample(self.approx, self.beta, self.rho),)
        return self.ladder.samples(8)

    @once_property
    def _relation(self):
        """The relation on one element, as a formula atom on the zero
        term: t > 0, t ===_m k or t =** k once a term t is put in."""
        if self.kind == "sign":
            return Gt0(_ZERO_TERM)
        if self.kind == "cong":
            return CongBullet(_ZERO_TERM, self.m, self.k)
        return EqBullet(_ZERO_TERM, self.k)


def _coefficient_relation(s: Scheme, rib: Optional[RibSpec],
                          c: Optional[RibElement]) -> bool:
    """The scheme's relation on a leading coefficient c, read in rib; c
    is None where there is no coefficient, at INF or a limit value."""
    if s.kind == "sign":
        return c is not None and c.sign > 0
    return coefficient_bullet(rib, c, s.m, s.k)


def _scheme(pair: PairSpec, a: Element, kind: str, n: int, m: int,
            k: int) -> Scheme:
    elem, detail = pair.elementary
    if elem is False:
        raise PresentationError("the pair is not elementary, so no scheme "
                                "is posed: " + detail)
    ap = best_approx(pair, a, n, m)
    if isinstance(ap, NoMaximum):
        return Scheme(kind, n, m, k, ladder=ap.ladder, note=ap.note)
    return Scheme(kind, n, m, k, ap.approx, ap.beta, ap.rho, ap.exact)


def scheme_sign(pair: PairSpec, a: Element, n: int = 1) -> Scheme:
    """Decides n*a - x > 0 over small x."""
    return _scheme(pair, a, "sign", n, 0, 0)


def scheme_cong(pair: PairSpec, a: Element, n: int, m: int,
                k: int) -> Scheme:
    """Decides (n*a - x) bullet-congruent to k modulo m, over small x."""
    if m < 2:
        raise PresentationError("congruence schemes need a modulus of at "
                                "least 2")
    return _scheme(pair, a, "cong", n, m, k)


def scheme_eqk(pair: PairSpec, a: Element, n: int, k: int) -> Scheme:
    """Decides (n*a - x) with leading coefficient exactly k steps, over
    small x."""
    return _scheme(pair, a, "eqk", n, 0, k)


def scheme_eval(pair: PairSpec, s: Scheme, x: Element) -> bool:
    """The scheme's relation of n*a - x.  Below a rung's value it is the
    relation of g - x; past it, that of the rung's coefficient; at it,
    that of what the coefficient of x leaves over, unless that vanishes
    modulo m (x tracks the rung) and the next rung decides.

    Every rung of a cofinal ladder agrees with its base below ``first``
    and then adds ``step``, congruent to ``rho``, one coordinate at a
    time, so the first coordinate x does not track decides.  Off its
    deviations x holds its tail, so ``first`` and the coordinate past
    each deviation stand for the rest; when x tracks them all, n*a - x
    is an m-th multiple everywhere, with no coefficient to read.

    Each shape reads one lead kernel pass of g - x at the scheme's
    modulus and compares its position with the rung's by chain key;
    ``_coefficient_relation`` reads the coefficient that decides.

    At beta itself n*a - x has coefficient rho + c, c the coefficient
    of g - x there, and rho alone decides, as past beta.  A rho is a
    coordinate the small rib fails to match, so it lies in the big rib
    outside the small one.  Among the pairs a scheme is posed on (ribs
    that extend and are elementarily equivalent), only Z under the
    nonstandard window has such a coordinate.  There a coordinate
    matches modulo every m >= 2 by its residue, so rho arises only at
    m = 0, and it has a nonzero OMEGA part.  c is a value of Z,
    because g holds nothing at beta and x lies in the small group.  So
    rho + c is nonzero, has the sign of rho, and is never k units, the
    same as rho."""
    big = pair.big
    ladder = s.ladder
    hit = _lead(big, s.approx if ladder is None else ladder.base, s.m, x)
    p, c = hit if type(hit) is tuple else (None, None)  # None: INF or a limit
    if ladder is not None:
        t = ladder.seg
        if p is not None and (p.seg < t or p.coord < ladder.first):
            return _coefficient_relation(s, big._rib_at(p), c)
        devs = {q.coord: d for q, d in x.fp
                if q.seg == t and q.coord >= ladder.first}
        for n in sorted({ladder.first, *devs, *(d + 1 for d in devs)}):
            rib = big._rib_at(Position(t, n))
            e = ladder.rho - x.tail - devs.get(n, RIB_ZERO)
            if not (rib_divides(rib, e, s.m) if s.m else not e):
                return _coefficient_relation(s, rib, e)
        return _coefficient_relation(s, None, None)
    if s.rho is not None:
        # at beta, or past it (a later position, INF or a limit), rho decides
        key = big.spine.unchecked_key
        beta = s.beta.position
        if p is None or key(p) >= key(beta):
            return _coefficient_relation(s, big._rib_at(beta), s.rho)
    # below beta, or with no beta (an exact or limit-valued approximation:
    # n*a - x and g - x differ by an m-th multiple, or agree below the
    # limit and have no coordinate at their val_m past it), the lead of
    # g - x decides
    return _coefficient_relation(s, None if p is None else big._rib_at(p), c)


# -- rendering schemes as formulas --------------------------------------------


def _term_x_minus(e: Element, var: str):
    return make_term({var: 1}, Element(tuple((p, -v) for p, v in e.fp),
                                       -e.tail))


def _term_minus_x(e: Element, var: str):
    return make_term({var: -1}, e)


def scheme_formula(pair: PairSpec, s: Scheme, var: str = "x"):
    """Renders a scheme as a single small-group formula, dropping
    false-payload cases.  Returns (formula, complete); a cofinal ladder
    renders only its sampled prefix and is flagged incomplete."""
    rows, complete = scheme_cases(pair, s, var)
    clauses = []
    for _, guard, payload in rows:
        if guard is None:
            return payload, complete
        if payload == Bool(False):
            continue
        clauses.append(And((guard, payload)))
    if not clauses:
        return Bool(False), complete
    return (Or(tuple(clauses)) if len(clauses) > 1 else clauses[0]), complete


def scheme_cases(pair: PairSpec, s: Scheme, var: str = "x"):
    """Guard/payload rows of a scheme, as ("lt" | "eq" | "gt", guard,
    payload) triples; the guard is None for an exact scheme, which holds
    everywhere.  Returns (rows, complete); a cofinal ladder yields one
    "lt" row per sampled rung and is flagged incomplete."""
    rows = []
    for smp in s.samples:
        payload = replace(s._relation, term=_term_minus_x(smp.g, var))
        if s.exact:
            return (("eq", None, payload),), True
        rows.append(("lt", ValCmp(_term_x_minus(smp.g, var), s.m, "<",
                                  smp.delta), payload))
    if s.ladder is not None:
        return tuple(rows), False
    t = _term_x_minus(s.approx, var)
    if s.rho is None:
        # a limit value: no coordinate carries it, so past it no
        # coefficient is congruent to anything
        rows.append(("gt", ValCmp(t, s.m, ">", s.beta), Bool(False)))
        return tuple(rows), True
    rows.append(("eq", ValCmp(t, s.m, "=", s.beta),
                 _boundary_formula(pair, s, t, var)))
    rib_b = pair.big.rib_at(s.beta.position)
    rows.append(("gt", ValCmp(t, s.m, ">", s.beta),
                 Bool(_coefficient_relation(s, rib_b, s.rho))))
    return tuple(rows), True


def _boundary_formula(pair: PairSpec, s: Scheme, t, var: str):
    """The relation on rho - c, where c is the coefficient of x - approx
    at beta, as a formula on x."""
    if s.kind == "sign":
        # rho has an OMEGA part, which outweighs c (see scheme_eval)
        return Bool(s.rho.w > 0)
    rib_b = pair.big.rib_at(s.beta.position)
    # c must be j units (j modulo m for a congruence); the check fails
    # where rho leaves no such j, as in a dense rib
    j = int(s.rho.q + s.rho.w) - s.k
    if s.m:
        j %= s.m
    if not _coefficient_relation(s, rib_b, s.rho - RibElement(j)):
        return Bool(False)
    return replace(s._relation, term=t, k=j)
