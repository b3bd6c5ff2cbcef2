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

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple

from .chain import Position
from .errors import GuardGap, PresentationError, RibCutNotDefinable
from .formula import (And, Bool, CongBullet, EqBullet, Gt0, Or, ValCmp,
                      lead_holds, make_term)
from .group import Element, PairSpec
from .pseudo import ApproxSample, NoMaximum
from .rib import (RIB_ZERO, RibElement, RibSpec, rib_contains,
                  rib_divides, rib_min_positive, rib_pair_stably_embedded)
from .valuation import (SV_INF, SpineValue, SpineValueKind,
                        coefficient_bullet, compare_spine_values, lead_m,
                        sv_pos)


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
        u = rib_min_positive(rib_s)
        for j in range(1, m):
            cand = u.scale(j)
            if rib_contains(rib_s, cand) and \
                    rib_divides(rib_b, c - cand, m):
                return True, cand
    return False, None


def best_approx(pair: PairSpec, a: Element, n: int = 1, m: int = 0,
                depth: int = 6):
    """Best approximation of n*a from the small group, at modulus m, for
    an element a of the big group.

    Returns a BestApproximation, or a NoMaximum certificate whose
    samples climb cofinally.
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

    # past every coordinate either layout names, a terminal coordinate
    # past the run reads like the run's last one
    t = big.terminal_omega
    past = 0 if t is None else max(small.layouts[t].horizon, big.layouts[t].horizon)
    absorbed = []
    top = -1
    for p, c in big.support_walk(x, past):
        if p.seg == t:
            top = p.coord
        if not c:
            continue
        ok, gp = _match_coordinate(small._rib_at(p), big._rib_at(p), c, m)
        if not ok:
            return BestApproximation(n, m, Element(tuple(absorbed)),
                                     sv_pos(p), c)
        if gp:
            absorbed.append((p, gp))

    # absorbed holds nonzero values at distinct positions in chain order:
    # with no tail, it is an element as it stands
    if not x.tail:
        g = Element(tuple(absorbed))
        if m == 0 or lead_m(big, x, m, g)[0].kind is SpineValueKind.INF:
            return BestApproximation(n, m, g, SV_INF, None, True)
        raise GuardGap("finite remainder escaped the divisibility scan")

    # the tail runs cofinally; first try matching it whole
    for tau in (x.tail, RIB_ZERO):
        g = small.el(absorbed, tail=tau) if small.terminal_omega is not None \
            else None
        if g is None or not small.contains(g):
            continue
        v = lead_m(big, x, m, g)[0]
        if v.kind is SpineValueKind.INF:
            return BestApproximation(n, m, g, SV_INF, None, True)
        if v.kind is SpineValueKind.LIMIT:
            return BestApproximation(n, m, g, v, None, False)

    # then rung by rung, past every deviation: each rung holds the tail
    samples = []
    rungs = list(absorbed)
    c = x.tail
    for i in range(depth):
        p = Position(t, top + 1 + i)
        g_i = Element(tuple(rungs))
        samples.append(ApproxSample(g_i, sv_pos(p), c))
        ok, gp = _match_coordinate(small._rib_at(p), big._rib_at(p), c, m)
        if not ok:
            return BestApproximation(n, m, g_i, sv_pos(p), c)
        if gp:
            rungs.append((p, gp))
    return NoMaximum(tuple(samples),
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
    ladder; a cofinal ladder lists its sampled rungs in ``samples``.  On
    each rung the guard compares val of (x - g) against the rung's
    value."""

    kind: str  # "sign" | "cong" | "eqk"
    n: int
    m: int  # the modulus of a congruence scheme, 0 for the other kinds
    k: int
    approx: Optional[Element] = None
    beta: Optional[SpineValue] = None
    rho: Optional[RibElement] = None
    exact: bool = False
    samples: Tuple[ApproxSample, ...] = ()
    note: str = ""

    @cached_property
    def _rungs(self) -> Tuple[ApproxSample, ...]:
        """The ladder the scheme walks: its samples, or the fixed
        approximation as the one rung."""
        return self.samples or (ApproxSample(self.approx, self.beta, self.rho),)

    @cached_property
    def _relation(self):
        """The relation on one element, as a formula atom on the zero
        term: t > 0, t ===_m k or t =** k once a term t is put in."""
        if self.kind == "sign":
            return Gt0(_ZERO_TERM)
        if self.kind == "cong":
            return CongBullet(_ZERO_TERM, self.m, self.k)
        return EqBullet(_ZERO_TERM, self.k)


def _coefficient_relation(s: Scheme, rib: RibSpec, c: RibElement) -> bool:
    """The scheme's relation on a leading coefficient c, read in rib."""
    if s.kind == "sign":
        return c.sign > 0
    return coefficient_bullet(rib, c, s.m, s.k)


def _rib_cut_definable(pair: PairSpec, beta: SpineValue,
                       rho: RibElement) -> None:
    """The boundary case of a sign scheme asks which small coefficients
    exceed rho.  That cut must land on the small rib definably."""
    if rho.w:
        return  # infinite type: constant on the small rib
    rib_s, rib_b = pair.rib_pair_at(beta.position)
    if rib_s.discrete:
        return  # threshold cut between consecutive multiples
    verdict, reason = rib_pair_stably_embedded(rib_s, rib_b)
    if verdict is True:
        return
    raise RibCutNotDefinable(
        f"the coefficient cut at {beta.position} is not definable on the "
        f"small rib: {reason}")


def _scheme(pair: PairSpec, a: Element, kind: str, n: int, m: int, k: int,
            depth: int) -> Scheme:
    elem, detail = pair.elementary
    if elem is False:
        raise PresentationError("the pair is not elementary, so no scheme "
                                "is posed: " + detail)
    ap = best_approx(pair, a, n, m, depth)
    if isinstance(ap, NoMaximum):
        return Scheme(kind, n, m, k, samples=ap.samples, note=ap.note)
    return Scheme(kind, n, m, k, ap.approx, ap.beta, ap.rho, ap.exact)


def scheme_sign(pair: PairSpec, a: Element, n: int = 1,
                depth: int = 8) -> Scheme:
    """Decides n*a - x > 0 over small x."""
    s = _scheme(pair, a, "sign", n, 0, 0, depth)
    if s.rho is not None:
        _rib_cut_definable(pair, s.beta, s.rho)
    return s


def scheme_cong(pair: PairSpec, a: Element, n: int, m: int, k: int,
                depth: int = 8) -> Scheme:
    """Decides (n*a - x) bullet-congruent to k modulo m, over small x."""
    if m < 2:
        raise PresentationError("congruence schemes need a modulus of at "
                                "least 2")
    return _scheme(pair, a, "cong", n, m, k, depth)


def scheme_eqk(pair: PairSpec, a: Element, n: int, k: int,
               depth: int = 8) -> Scheme:
    """Decides (n*a - x) with leading coefficient exactly k steps, over
    small x."""
    return _scheme(pair, a, "eqk", n, 0, k, depth)


def scheme_eval(pair: PairSpec, s: Scheme, x: Element) -> bool:
    """The scheme's relation of n*a - x, read rung by rung.  Below a
    rung's value it is the relation of g - x; past it, the relation of
    the rung's coefficient; at it, the relation of what the coefficient
    of x leaves over, unless that vanishes modulo m and the next rung
    decides."""
    big = pair.big
    for smp in s._rungs:
        # the lead of g - x at the scheme's modulus decides its relation
        lead = lead_m(big, smp.g, s.m, x)
        if smp.rho is None:
            # an exact or limit-valued rung has no coefficient to read:
            # n*a - x and g - x differ by an m-th multiple, or agree below
            # the limit and have no coordinate at their val_m past it
            return lead_holds(big, s._relation, lead)
        cmp = compare_spine_values(big.spine, lead[0], smp.delta)
        if cmp < 0:
            return lead_holds(big, s._relation, lead)
        rib = big._rib_at(smp.delta.position)
        c = smp.rho
        if cmp == 0:
            c = c + lead[1]
            if rib_divides(rib, c, s.m) if s.m else not c:
                continue
        return _coefficient_relation(s, rib, c)
    if s.samples:
        raise GuardGap("x tracks the ladder past its sampled depth")
    raise GuardGap(f"{'residue' if s.m else 'coefficient'} collision at the "
                   f"best approximation")


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
    for smp in s._rungs:
        payload = replace(s._relation, term=_term_minus_x(smp.g, var))
        if s.exact:
            return (("eq", None, payload),), True
        rows.append(("lt", ValCmp(_term_x_minus(smp.g, var), s.m, "<",
                                  smp.delta), payload))
    if s.samples:
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
    position = s.beta.position
    rib_s, rib_b = pair.rib_pair_at(position)
    if s.kind == "sign":
        if s.rho.w:
            return Bool(s.rho.w > 0)
        if not rib_s.discrete:
            return Bool(False)
        u = rib_min_positive(rib_s)  # integer threshold between steps
        steps = -(-s.rho.q // u.q)  # first step above rho
        shift = pair.small.el([(position, u.scale(int(steps)))])
        t2 = _term_minus_x(pair.small.add(s.approx, shift), var)
        return And((ValCmp(t2, 0, "=", s.beta), replace(s._relation, term=t2)))
    # c must be j units (j modulo m for a congruence); the check fails
    # where rho leaves no such j, as in a dense rib
    j = int(s.rho.q + s.rho.w) - s.k
    if s.m:
        j %= s.m
    if not _coefficient_relation(s, rib_b, s.rho - RibElement(j)):
        return Bool(False)
    return replace(s._relation, term=t, k=j)
