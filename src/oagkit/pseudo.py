"""Pseudo-Cauchy sequences, pseudo-limits, congruence lifts, and the
cofinal approximation ladders of a pair.

A sequence (a_i) is pseudo-Cauchy for a valuation v when the values
v(a_{i+1} - a_i) strictly increase from some threshold on; then
v(a_j - a_i) = v(a_{i+1} - a_i) for all j > i past the threshold, and an
element h is a pseudo-limit when v(h - a_i) follows the same values.

Sequences are finitely many explicit terms, optionally extended forever
by a truncation rule: term i is the constant ``value`` written on the
first ``offset + i`` coordinates of the terminal segment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .chain import Position
from .errors import (ElementInG, LiftObstruction, NotPseudoCauchy,
                     NotRepresentable, PresentationError, TooShort)
from .group import Element, GroupSpec, PairSpec
from .rib import RibElement
from .valuation import (SV_INF, SpineValue, SpineValueKind, _lead,
                        compare_spine_values, lead_m, sv_pos, val_m)


@dataclass(frozen=True)
class TruncationRule:
    """Writes ``value`` on ever longer initial runs of the terminal segment."""

    value: RibElement
    offset: int = 1

    def __post_init__(self):
        if not self.value:
            raise PresentationError("a truncation rule needs a nonzero value")
        if self.offset < 1:
            raise PresentationError("offset must be at least 1")

    def term(self, g: GroupSpec, i: int) -> Element:
        t = g.terminal_omega
        if t is None:
            raise PresentationError("truncation rules need a terminal omega segment")
        pairs = [(Position(t, n), self.value) for n in range(self.offset + i)]
        return g.el(pairs)


@dataclass(frozen=True)
class PseudoSequence:
    terms: Tuple[Element, ...] = ()
    rule: Optional[TruncationRule] = None
    modulus: int = 0

    def __post_init__(self):
        if self.rule is None and len(self.terms) < 3:
            raise TooShort("a sequence needs at least three terms or a rule")

    def term(self, g: GroupSpec, i: int) -> Element:
        if i < len(self.terms):
            return self.terms[i]
        if self.rule is not None:
            return self.rule.term(g, i - len(self.terms))
        raise TooShort(f"term {i} requested from a {len(self.terms)}-term sequence")

    def window(self, g: GroupSpec) -> Tuple[Element, ...]:
        """The explicit terms, and three more (six at least) from a rule."""
        n = len(self.terms)
        return tuple(self.term(g, i) for i in range(
            n if self.rule is None else max(n + 3, 6)))


def _steps(g: GroupSpec, seq: PseudoSequence, m: int):
    """(the window, its consecutive difference values at modulus m, the
    answer of ``is_pseudo_cauchy``): one kernel pass per difference,
    which the pseudo-limit check and the lift read again."""
    terms = seq.window(g)
    if len(terms) < 3:
        raise TooShort("need at least three terms")
    diffs = [lead_m(g, terms[i + 1], m, terms[i])[0]
             for i in range(len(terms) - 1)]
    threshold = 0
    for i in range(len(diffs) - 1):
        if compare_spine_values(g.spine, diffs[i], diffs[i + 1]) >= 0:
            threshold = i + 1
    if threshold >= len(diffs) - 1:
        return terms, diffs, (False, (threshold - 1, threshold, threshold + 1))
    return terms, diffs, (True, threshold)


def is_pseudo_cauchy(g: GroupSpec, seq: PseudoSequence,
                     m: Optional[int] = None):
    """Check the pseudo-Cauchy law on the materialized window.

    Returns (True, threshold) with the first index from which consecutive
    difference values strictly increase through the window, or
    (False, (i, i+1, i+2)) naming the last violating triple.
    """
    return _steps(g, seq, seq.modulus if m is None else m)[2]


def is_pseudo_limit(g: GroupSpec, seq: PseudoSequence, h: Element,
                    m: Optional[int] = None) -> bool:
    """Whether v(h - a_i) tracks the consecutive difference values."""
    m = seq.modulus if m is None else m
    terms, diffs, (ok, threshold) = _steps(g, seq, m)
    if not ok:
        raise NotPseudoCauchy("pseudo-limits only make sense past a "
                              "pseudo-Cauchy threshold")
    for i in range(threshold, len(terms) - 1):
        got = lead_m(g, h, m, terms[i])[0]
        if compare_spine_values(g.spine, diffs[i], got) != 0:
            return False
    return True


def hahn_pseudo_limit(g: GroupSpec, seq: PseudoSequence) -> Element:
    """The coordinate-wise limit element, when the sequence determines one.

    A rule-backed sequence converges to the pure tail of its rule value
    (plus any deviations all explicit terms agree on).  Finitely many
    explicit terms never pin the eventual behaviour down.
    """
    if seq.rule is None:
        raise NotRepresentable(
            "finitely many terms do not determine the eventual coordinates")
    limit = Element((), seq.rule.value)
    if not is_pseudo_limit(g, seq, limit, seq.modulus):
        raise NotRepresentable("the explicit terms drift away from the "
                               "rule's eventual coordinates")
    return limit


# ---------------------------------------------------------------------------
# Congruence lifts.


def _strip_below(g: GroupSpec, e: Element, v: SpineValue) -> Element:
    if e.tail:
        raise LiftObstruction("lifting works on finitely supported terms")
    if v.kind is not SpineValueKind.POS:
        return Element()
    cutoff = g.spine.sort_key(v.position)
    key = g.spine.unchecked_key
    kept = tuple((p, val) for p, val in e.fp if key(p) >= cutoff)
    return Element(kept, e.tail)


def lift_mod_m(g: GroupSpec, seq: PseudoSequence, m: int) -> PseudoSequence:
    """Replace a val-mod-m pseudo-Cauchy sequence by a natural-valuation one
    congruent to it term by term.

    Each step keeps only the coordinates at or above the step's value, so
    the discarded part is an m-th multiple: a'_i is congruent to a_i
    modulo m-multiples and the natural valuation of a'_j - a'_i equals
    the coarse valuation of a_j - a_i.
    """
    if m <= 1:
        raise PresentationError("lifting needs a modulus of at least 2")
    if g.generators:
        raise LiftObstruction("lifting past generators is not supported")
    terms, diffs, (ok, witness) = _steps(g, seq, m)
    if not ok:
        raise NotPseudoCauchy(f"difference values stall at indices {witness}")
    out = [_strip_below(g, terms[0], val_m(g, terms[0], m))]
    for i in range(1, len(terms)):
        # the value of this step is the pseudo-Cauchy check's difference
        bump = _strip_below(g, g.sub(terms[i], terms[i - 1]), diffs[i - 1])
        out.append(g.add(out[-1], bump))
    return PseudoSequence(tuple(out), rule=None, modulus=0)


# ---------------------------------------------------------------------------
# Cofinal approximation ladders.


@dataclass(frozen=True)
class ApproxSample:
    """One rung of a cofinal approximation ladder."""

    g: Element
    delta: SpineValue
    rho: RibElement


@dataclass(frozen=True)
class Ladder:
    """A cofinal approximation ladder, any rung of which is computed on
    demand.  Rung i is ``base`` plus ``step`` at the i terminal
    coordinates from ``first`` on; its value is the next coordinate,
    where the target holds the coefficient ``rho``.  Every position of
    ``base`` lies below ``first``."""

    base: Element
    seg: int
    first: int
    step: RibElement
    rho: RibElement

    def rung(self, i: int) -> ApproxSample:
        run = tuple((Position(self.seg, self.first + j), self.step)
                    for j in range(i)) if self.step else ()
        return ApproxSample(Element(self.base.fp + run),
                            sv_pos(Position(self.seg, self.first + i)),
                            self.rho)

    def samples(self, count: int) -> Tuple[ApproxSample, ...]:
        return tuple(self.rung(i) for i in range(count))


@dataclass(frozen=True)
class NoMaximum:
    """The distance values approach the limit point cofinally, with no best
    approximation; the ladder climbs through ever better rungs, and
    renders as ``samples``, its first six."""

    ladder: Ladder = field(metadata={"json": "samples"})
    note: str = ""

    @property
    def samples(self) -> Tuple[ApproxSample, ...]:
        return self.ladder.samples(6)


def _below(g: GroupSpec, a: Element, stop: Position) -> list:
    """(position, coordinate) at each nonzero coordinate of a below
    ``stop``, in chain order."""
    key = g.spine.unchecked_key
    run = range(stop.coord) if stop.seg == g.terminal_omega else ()
    return [(p, c) for p, c in itertools.takewhile(
        lambda pc: key(pc[0]) < key(stop), g._walk(a.fp, a.tail, run)) if c]


# ---------------------------------------------------------------------------
# Immediate extension detection for a concrete pair.


@dataclass(frozen=True)
class ImmediateReport:
    """How h approaches the small group; a "no_maximum" report holds the
    ladder of approximations, which renders as ``samples``, the first
    five (approximation, value) pairs."""

    kind: str                       # "not_immediate" | "no_maximum"
    position: Optional[Position] = None
    partial: Optional[Element] = None
    ladder: Optional[Ladder] = field(default=None,
                                     metadata={"json": "samples"})
    note: str = ""

    @property
    def samples(self) -> Tuple[Tuple[Element, SpineValue], ...]:
        return tuple((s.g, s.delta) for s in self.ladder.samples(5)) \
            if self.ladder else ()


def immediate_ext_check(pair: PairSpec, h: Element) -> ImmediateReport:
    """How the element h of the big group approaches the small one.

    Raises ElementInG when h already belongs.  Otherwise either some
    coordinate of h cannot be matched by the small rib there (the
    extension adds width at that position: not immediate), or every
    coordinate matches and the approximations improve cofinally (the
    small group misses a pseudo-limit: not maximal).  Then h has a tail,
    and rung i holds h up to i coordinates past its last terminal
    deviation, or past coordinate 0.
    """
    small, big = pair.small, pair.big
    hit = _lead(small, h, 1)  # membership: the first coordinate outside
    if hit is SV_INF:
        raise ElementInG("the candidate already lies in the small group")
    if type(hit) is tuple:
        p, c = hit
        return ImmediateReport(
            "not_immediate", position=p, partial=small.el(_below(big, h, p)),
            note=f"coordinate {c!r} at {p} lies outside the small rib")
    t = big.terminal_omega
    last = h.fp[-1][0].coord if h.fp and h.fp[-1][0].seg == t else 0
    first = Position(t, last + 1)
    base = small.el(_below(big, h, first))
    return ImmediateReport(
        "no_maximum", ladder=Ladder(base, t, first.coord, h.tail, h.tail),
        note="every coordinate matches the small rib but the tail never "
             "lands in the small group: approximations improve cofinally")
