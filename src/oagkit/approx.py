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

from dataclasses import dataclass
from typing import Optional, Tuple

from .chain import Position
from .errors import GuardGap, PresentationError, RibCutNotDefinable
from .formula import (And, Bool, CongBullet, EqBullet, Gt0, Or, ValCmp,
                      make_term)
from .group import Element, PairSpec
from .pseudo import ApproxSample, NoMaximum
from .rib import (RIB_ZERO, RibElement, RibSpec, rib_contains,
                  rib_divides, rib_min_positive, rib_pair_stably_embedded,
                  rib_residue)
from .valuation import (SV_INF, SpineValue, SpineValueKind,
                        compare_spine_values, pred_cong_bullet,
                        pred_eq_bullet, sv_pos, val_m)


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
    """Best approximation of n*a from the small group, at modulus m.

    Returns a BestApproximation, or a NoMaximum certificate whose
    samples climb cofinally.
    """
    if n < 1:
        raise PresentationError("the multiplier must be at least 1")
    if m < 0 or m == 1:
        raise PresentationError("the modulus must be 0 or at least 2")
    small, big = pair.small, pair.big
    if small.generators:
        raise GuardGap("tail lattices with generators are not searched")
    x = big.scale(a, n)
    if small.contains(x):
        return BestApproximation(n, m, x, SV_INF, None, True)

    t = big.terminal_omega
    absorbed = []
    top = -1
    for p in big.support_candidates(x):
        if p.seg == t:
            top = max(top, p.coord)
        c = big.coordinate(x, p)
        if not c:
            continue
        rib_s, rib_b = pair.rib_pair_at(p)
        ok, gp = _match_coordinate(rib_s, rib_b, c, m)
        if not ok:
            return BestApproximation(n, m, small.el(absorbed), sv_pos(p), c)
        if gp:
            absorbed.append((p, gp))

    if not x.tail:
        g = small.el(absorbed)
        if m == 0:
            return BestApproximation(n, m, g, SV_INF, None, True)
        ok, _ = big.in_m_multiples(big.sub(x, g), m)
        if ok:
            return BestApproximation(n, m, g, SV_INF, None, True)
        raise GuardGap("finite remainder escaped the divisibility scan")

    # the tail runs cofinally; first try matching it whole
    for tau in (x.tail, RIB_ZERO):
        g = small.el(absorbed, tail=tau) if small.terminal_omega is not None \
            else None
        if g is None or not small.contains(g):
            continue
        v = val_m(big, big.sub(x, g), m)
        if v.kind is SpineValueKind.INF:
            return BestApproximation(n, m, g, SV_INF, None, True)
        if v.kind is SpineValueKind.LIMIT:
            return BestApproximation(n, m, g, v, None, False)

    # then rung by rung
    samples = []
    rungs = list(absorbed)
    for i in range(depth):
        p = Position(t, top + 1 + i)
        c = big.coordinate(x, p)
        g_i = small.el(list(rungs))
        if not c:
            continue
        samples.append(ApproxSample(g_i, sv_pos(p), c))
        rib_s, rib_b = pair.rib_pair_at(p)
        ok, gp = _match_coordinate(rib_s, rib_b, c, m)
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
    inner = val_m(pair.big, pair.big.sub(ap.approx, g), ap.m)
    if compare_spine_values(pair.big.spine, inner, ap.beta) <= 0:
        return inner
    return ap.beta


# -- schemes ------------------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """Case formula deciding a relation of n*a - x inside the small
    group.  Guards compare val of (x - approx) against beta; plus a
    cofinal variant that walks the sample ladder instead."""

    kind: str  # "sign" | "cong" | "eqk"
    n: int
    m: int
    k: int
    approx: Optional[Element] = None
    beta: Optional[SpineValue] = None
    rho: Optional[RibElement] = None
    exact: bool = False
    samples: Tuple[ApproxSample, ...] = ()
    note: str = ""


def _bullet_eq_value(rib: RibSpec, value: RibElement, k: int) -> bool:
    if not rib.discrete:
        return False
    return value == rib_min_positive(rib).scale(k)


def _bullet_cong_value(rib: RibSpec, value: RibElement, m: int,
                       k: int) -> bool:
    if not rib.discrete:
        return False
    return rib_divides(rib, value - rib_min_positive(rib).scale(k), m)


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


def scheme_sign(pair: PairSpec, a: Element, n: int = 1,
                depth: int = 8) -> Scheme:
    """Decides n*a - x > 0 over small x."""
    ap = best_approx(pair, a, n, 0, depth)
    if isinstance(ap, NoMaximum):
        return Scheme("sign", n, 0, 0, samples=ap.samples, note=ap.note)
    if not ap.exact and ap.beta.kind is SpineValueKind.POS:
        _rib_cut_definable(pair, ap.beta, ap.rho)
    return Scheme("sign", n, 0, 0, ap.approx, ap.beta, ap.rho, ap.exact)


def scheme_cong(pair: PairSpec, a: Element, n: int, m: int, k: int,
                depth: int = 8) -> Scheme:
    """Decides (n*a - x) bullet-congruent to k modulo m, over small x."""
    if m < 2:
        raise PresentationError("congruence schemes need a modulus of at "
                                "least 2")
    ap = best_approx(pair, a, n, m, depth)
    if isinstance(ap, NoMaximum):
        return Scheme("cong", n, m, k, samples=ap.samples, note=ap.note)
    return Scheme("cong", n, m, k, ap.approx, ap.beta, ap.rho, ap.exact)


def scheme_eqk(pair: PairSpec, a: Element, n: int, k: int,
               depth: int = 8) -> Scheme:
    """Decides (n*a - x) with leading coefficient exactly k steps, over
    small x."""
    ap = best_approx(pair, a, n, 0, depth)
    if isinstance(ap, NoMaximum):
        return Scheme("eqk", n, 0, k, samples=ap.samples, note=ap.note)
    return Scheme("eqk", n, 0, k, ap.approx, ap.beta, ap.rho, ap.exact)


def _payload_lt(pair: PairSpec, s: Scheme, d: Element) -> bool:
    """x deviates before beta: d = x - approx carries the verdict."""
    small = pair.small
    if s.kind == "sign":
        return small.sign_of(d) < 0
    flipped = small.neg(d)
    if s.kind == "cong":
        return pred_cong_bullet(small, flipped, s.m, s.k)
    return pred_eq_bullet(small, flipped, s.k)


def _payload_const(pair: PairSpec, s: Scheme, value: RibElement,
                   position) -> bool:
    rib_b = pair.big.rib_at(position)
    if s.kind == "sign":
        return value.sign > 0
    if s.kind == "cong":
        return _bullet_cong_value(rib_b, value, s.m, s.k)
    return _bullet_eq_value(rib_b, value, s.k)


def scheme_eval(pair: PairSpec, s: Scheme, x: Element) -> bool:
    small, big = pair.small, pair.big
    chain = big.spine
    mm = s.m if s.kind == "cong" else 0

    if s.samples:
        for smp in s.samples:
            d = big.sub(x, smp.g)
            v = val_m(big, d, mm)
            cmp = compare_spine_values(chain, v, smp.delta)
            if cmp < 0:
                return _payload_lt(pair, s, d)
            if cmp > 0:
                return _payload_const(pair, s, smp.rho, smp.delta.position)
            w = smp.rho - big.coordinate(d, smp.delta.position)
            if s.kind == "sign":
                if w:
                    return w.sign > 0
                continue
            rib_b = big.rib_at(smp.delta.position)
            if s.kind == "cong" and rib_divides(rib_b, w, s.m):
                continue
            if s.kind == "eqk" and not w:
                continue
            return _payload_const(pair, s, w, smp.delta.position)
        raise GuardGap("x tracks the ladder past its sampled depth")

    if s.exact:
        d = big.sub(s.approx, x)
        if s.kind == "sign":
            return big.sign_of(d) > 0
        if s.kind == "cong":
            return pred_cong_bullet(big, d, s.m, s.k)
        if big.sign_of(d) == 0:
            # zero difference: no leading coefficient to compare
            return s.k == 0
        return pred_eq_bullet(big, d, s.k)

    d = big.sub(x, s.approx)
    v = val_m(big, d, mm)
    cmp = compare_spine_values(chain, v, s.beta)
    if cmp < 0:
        return _payload_lt(pair, s, d)
    if cmp > 0:
        if s.beta.kind is SpineValueKind.LIMIT:
            # the leading value is a limit: no coordinate carries it
            return False if s.kind != "sign" else _limit_sign_gap()
        return _payload_const(pair, s, s.rho, s.beta.position)
    if s.beta.kind is SpineValueKind.LIMIT:
        raise GuardGap("x meets the limit value head on")
    w = s.rho - big.coordinate(d, s.beta.position)
    if s.kind == "sign":
        if not w:
            raise GuardGap("coefficient collision at the best approximation")
        return w.sign > 0
    rib_b = big.rib_at(s.beta.position)
    if s.kind == "cong" and rib_divides(rib_b, w, s.m):
        raise GuardGap("residue collision at the best approximation")
    if s.kind == "eqk" and not w:
        raise GuardGap("coefficient collision at the best approximation")
    return _payload_const(pair, s, w, s.beta.position)


def _limit_sign_gap():
    raise GuardGap("sign undetermined past a limit-valued approximation")


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
    if s.samples:
        rows = []
        for smp in s.samples:
            guard = ValCmp(_term_x_minus(smp.g, var),
                           s.m if s.kind == "cong" else 0, "<", smp.delta)
            rows.append(("lt", guard, _payload_lt_formula(s, smp.g, var)))
        return tuple(rows), False
    if s.exact:
        return (("eq", None, _payload_exact_formula(s, var)),), True
    mm = s.m if s.kind == "cong" else 0
    t = _term_x_minus(s.approx, var)
    rows = [("lt", ValCmp(t, mm, "<", s.beta),
             _payload_lt_formula(s, s.approx, var))]
    if s.beta.kind is SpineValueKind.POS:
        eq = _payload_eq_formula(pair, s, var)
        rows.append(("eq", ValCmp(t, mm, "=", s.beta),
                     eq if eq is not None else Bool(False)))
        rows.append(("gt", ValCmp(t, mm, ">", s.beta),
                     Bool(_payload_const(pair, s, s.rho, s.beta.position))))
    elif s.kind != "sign":
        # a limit-valued approximation: no coordinate meets it head on
        rows.append(("gt", ValCmp(t, mm, ">", s.beta), Bool(False)))
    return tuple(rows), True


def _payload_lt_formula(s: Scheme, approx: Element, var: str):
    t = _term_minus_x(approx, var)
    if s.kind == "sign":
        return Gt0(t)
    if s.kind == "cong":
        return CongBullet(t, s.m, s.k)
    return EqBullet(t, s.k)


def _payload_exact_formula(s: Scheme, var: str):
    t = _term_minus_x(s.approx, var)
    if s.kind == "sign":
        return Gt0(t)
    if s.kind == "cong":
        return CongBullet(t, s.m, s.k)
    return EqBullet(t, s.k)


def _payload_eq_formula(pair: PairSpec, s: Scheme, var: str):
    """Boundary clause at beta; None drops the clause (payload false)."""
    position = s.beta.position
    rib_s, rib_b = pair.rib_pair_at(position)
    t = _term_x_minus(s.approx, var)
    if s.kind == "sign":
        if s.rho.w:
            return Bool(s.rho.w > 0)
        if not rib_s.discrete:
            return None
        u = rib_min_positive(rib_s)  # integer threshold between steps
        steps = -(-s.rho.q // u.q)  # first step above rho
        shift = pair.small.el([(position, u.scale(int(steps)))])
        t2 = _term_minus_x(pair.small.add(s.approx, shift), var)
        return And((ValCmp(t2, 0, "=", s.beta), Gt0(t2)))
    if s.kind == "cong":
        if not rib_b.discrete:
            return None
        r = rib_residue(rib_b, s.rho, s.m)
        return CongBullet(t, s.m, (r - s.k) % s.m)
    if not rib_b.discrete:
        return None
    target = s.rho - rib_min_positive(rib_b).scale(s.k)
    u = rib_min_positive(rib_s)
    if target.w or (target.q % u.q):
        return None
    return EqBullet(t, int(target.q / u.q))
