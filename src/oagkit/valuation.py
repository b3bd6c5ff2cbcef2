"""Natural and congruence valuations, value sets, and the regular spine.

``val_m(g, e, m)`` is the coarsened valuation modulo m: the supremum of
positions delta such that e splits as (something supported at delta and
beyond) + (an m-th multiple).  Splitting below a position is a
coordinate-wise question, because finitely supported corrections are free
in every mode; so the valuation is the first position whose coordinate is
not m-divisible in its rib.  When every coordinate is m-divisible the
value is INF if e is an m-th multiple of a group element, and otherwise a
genuinely new point: the limit value sitting above the terminal segment.

m = 0 gives the natural valuation, m = 1 is identically INF.

``_lead(g, e, m, minus)`` is the one lead kernel: one pass over the
deviations of e - minus, and the terminal coordinates their tail
decides at, that stops at the first coordinate that decides and returns
it with its position, so e - minus is never built just to value it,
and at m >= 1 neither is a terminal coordinate tail + c it passes.
Without minus, at m >= 1, a run of deviations on one segment with one
rib is tested in one call of ``rib.rib_first_indivisible``.
``lead_m`` wraps it as (val_m(e - minus), the coordinate there).  The
order and membership of ``GroupSpec``, ``val_m``, the coefficient
predicates, the formula atoms, best approximations, the schemes and the
pseudo-Cauchy checks all read it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .chain import (ALL, NONE, ChainSpec, ColourRule, INF, Position,
                    complement, contains, dense_colour, patch)
from .errors import PresentationError
from .group import Element, GroupSpec, SchematicRib
from .rib import (RibElement, RibSpec, _primes_of, nth_prime, rib_divides,
                  rib_first_indivisible, rib_min_positive, rib_residue)


def _once_per_group(fn):
    """Store fn(g, *args) in ``g.value_sets``: the presentation is frozen
    and every answer stored is immutable, so each is computed once."""
    @functools.wraps(fn)
    def stored(g: GroupSpec, *args):
        key, sets = (fn.__name__, *args), g.value_sets
        try:
            return sets[key]
        except KeyError:
            pass
        value = sets[key] = fn(g, *args)
        return value
    return stored


# ---------------------------------------------------------------------------
# Spine values: positions, limit points above a segment, and INF.


class SpineValueKind(enum.Enum):
    POS = "pos"
    LIMIT = "limit"
    INF = "inf"


@dataclass(frozen=True)
class SpineValue:
    kind: SpineValueKind
    position: Optional[Position] = None
    seg: Optional[int] = None

    def __repr__(self) -> str:
        if self.kind is SpineValueKind.POS:
            return f"sv({self.position})"
        if self.kind is SpineValueKind.LIMIT:
            return f"sv(limit over segment {self.seg})"
        return "sv(INF)"


SV_INF = SpineValue(SpineValueKind.INF)


def sv_pos(p: Position) -> SpineValue:
    return SpineValue(SpineValueKind.POS, position=p)


def sv_limit(seg: int) -> SpineValue:
    return SpineValue(SpineValueKind.LIMIT, seg=seg)


def spine_value_key(chain: ChainSpec, v: SpineValue):
    """Sort key: positions in chain order, limit above its segment, INF last."""
    if v.kind is SpineValueKind.INF:
        return (1, 0, 0, 0)
    if v.kind is SpineValueKind.POS:
        _, seg, local = chain.sort_key(v.position)
        return (0, seg, 0, local)
    return (0, v.seg, 1, 0)


def compare_spine_values(chain: ChainSpec, a: SpineValue, b: SpineValue) -> int:
    ka, kb = spine_value_key(chain, a), spine_value_key(chain, b)
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# The valuation itself.


def _merged(fa, fb, rev):
    """(position, deviation of a - b) for the deviation lists fa of a and
    fb of b, in chain order, zeros included, lazily: positions compare by
    segment, then by coordinate, reversed on the omega* segments ``rev``."""
    i = j = 0
    na, nb = len(fa), len(fb)
    while i < na and j < nb:
        p, c = fa[i]
        q, d = fb[j]
        if p.seg != q.seg:
            first = p.seg < q.seg
        elif p.coord != q.coord:
            first = (p.coord < q.coord) != (p.seg in rev)
        else:
            yield p, c - d
            i += 1
            j += 1
            continue
        if first:
            yield p, c
            i += 1
        else:
            yield q, -d
            j += 1
    yield from fa[i:]
    for q, d in fb[j:]:
        yield q, -d


def _lead(g: GroupSpec, e: Element, m: int, minus: Optional[Element] = None):
    """The lead kernel: (position, coordinate) at the first position where
    the coordinate of e - minus (minus defaults to 0) decides at modulus
    m.  At m = 0 a coordinate decides when it is nonzero; at m >= 1 when
    it is not m times a value of its rib, so m = 1 reads membership.
    When none decides: SV_INF if e - minus is an m-th multiple of a group
    element (zero, for m = 0), else the limit value above the terminal
    segment.

    The deviations of e - minus are read in chain order (e's own when
    minus has none, else ``_merged``), up to the first coordinate that
    decides.  Off the deviations a terminal coordinate holds the tail:
    at m = 0 every such coordinate decides, at m >= 1 those where
    tail / m leaves its rib (``_tail_exits``).  ``free`` lists them in
    order, and each is read before the deviations above it.  At a
    terminal deviation the coordinate is tail + c: at m >= 1 the rib
    tests read it off the two parts, so the sum is built only at the
    coordinate returned.  A segment's ``uniform`` rib, from the group's
    table, stands for ``_rib_at`` at each of its coordinates.

    At m >= 1 with minus holding no deviation, each maximal run of
    deviations on one segment with a uniform rib goes to
    ``rib_first_indivisible`` whole, with the tail as ``plus`` on the
    terminal segment, where the run stops short of the free coordinate
    f.  The coordinate loop takes over from the first segment with no
    uniform rib, or from f: it tests one coordinate at a time, as do the
    merged walks and m = 0, which stop at the first coordinate that
    decides.
    """
    fa, fb, tail = e.fp, (), e.tail
    if minus is not None:
        fb = minus.fp
        if minus.tail:
            tail = tail - minus.tail
    t, f = -1, None  # -1: no segment, as there is no tail to read
    if tail:
        t = g.terminal_omega
        if t is None:  # e is not an element of g
            raise PresentationError("a tail needs a terminal omega segment")
        if m == 0:
            free = itertools.count()
        else:
            scaled = tail if m == 1 else tail.scale(Fraction(1, m))
            cofinal, listed = g._tail_exits(scaled)
            free = (n for n in itertools.count() if n not in listed) \
                if cofinal else iter(listed)
        f = next(free, None)  # the next free terminal coordinate that decides
    uniform, rib_at = g._uniform, g._rib_at
    i = 0
    if m and not fb:
        n = len(fa)
        while i < n and (rib := uniform[s := fa[i][0].seg]) is not None:
            if s == t:  # the run stops short of the free coordinate f
                hi, plus = (n if f is None else i), tail
                while hi < n and fa[hi][0].coord < f:
                    hi += 1
            else:
                hi, plus = (n if fa[-1][0].seg == s else i + 1), None
                while hi < n and fa[hi][0].seg == s:
                    hi += 1
            k = rib_first_indivisible(rib, fa, i, hi, m, plus)
            if k < hi:
                p, c = fa[k]
                return p, c if plus is None else tail + c
            i = hi
            if s == t:
                break  # the coordinate loop reads f next
    for p, c in _merged(fa, fb, g.spine._reversed_segments) if fb else \
            fa[i:] if i else fa:
        plus = None
        if p.seg == t:
            if f is not None and f < p.coord:
                return Position(t, f), tail
            if f == p.coord:  # the deviation stands at f
                f = next(free, None)
            if m:
                plus = tail
            else:
                c = tail + c
        if not rib_divides(uniform[p.seg] or rib_at(p), c, m, plus) if m else c:
            return p, c if plus is None else tail + c
    if f is not None:
        return Position(t, f), tail
    if t < 0 or g.mode == "hahn" or (  # t < 0: no tail
            g.generators and g.tail_coefficients(scaled) is not None):
        return SV_INF
    return sv_limit(t)


def lead_m(g: GroupSpec, e: Element, m: int, minus: Optional[Element] = None
           ) -> Tuple[SpineValue, Optional[RibElement]]:
    """(val_m(e - minus), the coordinate of e - minus at that value), with
    the coordinate None at INF and at a limit value; minus defaults to 0.
    The kernel ``_lead`` reads both in one pass, so e - minus is never
    built."""
    if m < 0:
        raise PresentationError("modulus must be nonnegative")
    if m == 1:
        return SV_INF, None
    hit = _lead(g, e, m, minus)
    if type(hit) is tuple:
        return sv_pos(hit[0]), hit[1]
    return hit, None


def val_m(g: GroupSpec, e: Element, m: int) -> SpineValue:
    """The valuation of e modulo m (m = 0: natural valuation)."""
    return lead_m(g, e, m)[0]


# ---------------------------------------------------------------------------
# Leading-coefficient predicates.


def coefficient_bullet(rib: Optional[RibSpec], c: Optional[RibElement],
                       m: int, k: int) -> bool:
    """Whether the coefficient c is k times the least positive element of
    the rib (m = 0), or congruent to it modulo m (m >= 2).

    With no coefficient (c None: at INF or a limit value) only zero has
    k == 0 units (m = 0), and a congruence has nothing to read.  False
    in a rib without a least positive element.
    """
    if c is None:
        return m == 0 and k == 0
    one = rib_min_positive(rib)
    if one is None:
        return False
    target = one.scale(k)
    return c == target if m == 0 else rib_divides(rib, c - target, m)


def lead_bullet(g: GroupSpec, lead: Tuple[SpineValue, Optional[RibElement]],
                m: int, k: int) -> bool:
    """``coefficient_bullet`` on the coefficient of a ``lead_m(.., m)``
    lead, read in the rib at its value."""
    v, c = lead
    rib = None if c is None else g._rib_at(v.position)
    return coefficient_bullet(rib, c, m, k)


def pred_eq_bullet(g: GroupSpec, a: Element, k: int) -> bool:
    """Leading coefficient equals k times the least positive rib element.

    The zero element has no nonzero coefficient: the predicate holds of it
    exactly when k == 0.  Where the rib at the leading position is not
    discrete the predicate is false.
    """
    return lead_bullet(g, lead_m(g, a, 0), 0, k)


def pred_cong_bullet(g: GroupSpec, a: Element, m: int, k: int) -> bool:
    """Coefficient at the modulus-m valuation is congruent to k there.

    False when val_m(a) is INF or a limit value (no coordinate to read),
    and false at positions with a dense rib.
    """
    if m <= 1:
        raise PresentationError("congruence needs a modulus of at least 2")
    return lead_bullet(g, lead_m(g, a, m), m, k)


# ---------------------------------------------------------------------------
# Pieces of a segment read off its layout.


def _layout_piece(g: GroupSpec, i: int, holds, schematic_piece):
    """The piece of segment i on whose ribs the predicate ``holds`` is
    true; ``schematic_piece(s)`` answers for a schematic rule at each of
    its coordinates.  Each distinct rule is asked once.  The layout's
    colour splits the rules, and each named coordinate is patched to
    what its own rule says there, so no piece is refused."""
    lay = g.layouts[i]

    def read(rule):
        if isinstance(rule, SchematicRib):
            return schematic_piece(rule)
        return ALL if holds(rule) else NONE

    if len(lay.rules) == 1:  # one rule reads alike at every coordinate
        return read(lay.on)
    where = {rule: read(rule) for rule in lay.rules}
    on, off = where[lay.on], where[lay.off]
    if on == off:
        base = on
    elif {on, off} == {ALL, NONE}:
        base = lay.piece if on == ALL else complement(lay.piece)
    else:  # a schematic rule on one side
        base = where[lay.eventual]
    return patch(base, frozenset(c for c in lay.named
                                 if contains(where[lay.rule_at(c)], c)
                                 != contains(base, c)))


def _m_hits(rib: RibSpec, m: int) -> bool:
    """Whether the rib contributes values modulo m (some index above 1)."""
    nd = rib.nondivisible_primes
    return m > 1 if nd is None else any(m % p == 0 for p in nd)


@_once_per_group
def _limit_in_value_set(g: GroupSpec, p: int) -> Optional[Element]:
    """A group element whose value modulo the prime p is the limit, or
    None: the one for the first coefficient vector c, in the order of
    ``itertools.product(range(p), repeat=k)``, that has one.

    Let t = sum(c_i t_i).  If p divides c, t/p is in the generator
    lattice and no element with tail t has the limit value; otherwise
    (the tails are independent) one does iff its coordinates are all
    p-divisible.  Off finitely many deviations its terminal coordinates
    hold t, so t/p must leave the terminal ribs at a finite set E of
    coordinates only (``_tail_exits`` not cofinal).  Then t with 0 at E
    is a witness: it differs from c times the generators by their
    prefixes and by -t at E, group elements as t lies in every rib.

    The condition depends on c modulo p (t/p moves by a lattice tail),
    and its solutions form an F_p-subspace: 0 or all for one generator,
    so c = (1) decides.  Two independent tails are not both standard,
    and the nonstandard one lies in every terminal rib, so each is the
    window: t/p stays in it iff p divides c_1 r_1 + c_2 r_2 (r_i the
    ``rib_residue`` of t_i).  That form has a nonzero kernel, whose first
    nonzero vector is (0, 1) if p divides r_2, else (1, -r_1/r_2 mod p).
    """
    tail = g.generators[0].tail
    if len(g.generators) == 2:
        rib = g.layouts[g.terminal_omega].eventual
        t1, t2 = tail, g.generators[1].tail
        r1, r2 = rib_residue(rib, t1, p), rib_residue(rib, t2, p)
        tail = t2 if r2 == 0 else t1 + t2.scale(-r1 * pow(r2, -1, p) % p)
    cofinal, exits = g._tail_exits(tail.scale(Fraction(1, p)))
    if cofinal:
        return None
    return g.el([(Position(g.terminal_omega, n), 0) for n in exits], tail)


@dataclass(frozen=True)
class ValueSet:
    """The set of values of val_m on nonzero arguments, plus INF."""

    m: int
    pieces: tuple
    limit_seg: Optional[int]
    inf: bool = True


@_once_per_group
def spine_m(g: GroupSpec, m: int) -> ValueSet:
    """The value set of val_m.  It holds the limit value exactly when it
    does modulo some prime p dividing m: scaling a mod-p witness by m/p
    gives one mod m, and a mod-m witness c, with g = gcd(c, m) and p
    dividing m/g, gives (m/(g p)) * sum(c_i t_i)/m = sum((c_i/g) t_i)/p
    with c/g not all divisible by p."""
    if m < 0:
        raise PresentationError("modulus must be nonnegative")
    n = len(g.spine.segments)
    if m == 0:
        return ValueSet(0, (ALL,) * n, None)
    if m == 1:
        return ValueSet(1, (NONE,) * n, None)
    pieces = tuple(_layout_piece(g, i, lambda rib: _m_hits(rib, m),
                                 lambda s: ("only", s.coords_dividing(m)))
                   for i in range(n))
    limit = g.generators and any(
        _limit_in_value_set(g, p) is not None for p in _limit_primes(g, m))
    return ValueSet(m, pieces, g.terminal_omega if limit else None)


def _limit_primes(g: GroupSpec, m: int) -> list:
    """The primes whose value sets decide the limit modulo m, without
    factoring m: the relevant primes dividing m, and when a factor is
    left over, the first prime outside the relevant ones, which answers
    like every other prime outside them (see ``check_m``)."""
    relevant = relevant_primes(g)[0]
    primes = [p for p in sorted(relevant) if m % p == 0]
    rest = m
    for p in primes:
        while rest % p == 0:
            rest //= p
    if rest > 1:
        primes.append(_first_prime_outside(relevant))
    return primes


def _first_prime_outside(primes) -> int:
    """The least prime not in ``primes``."""
    return next(p for p in map(nth_prime, itertools.count()) if p not in primes)


def value_set_contains(g: GroupSpec, vs: ValueSet, v: SpineValue) -> bool:
    if v.kind is SpineValueKind.INF:
        return vs.inf
    if v.kind is SpineValueKind.LIMIT:
        return vs.limit_seg == v.seg
    return contains(vs.pieces[v.position.seg], v.position.coord)


# ---------------------------------------------------------------------------
# Relevant primes and the union of all prime value sets.


@_once_per_group
def relevant_primes(g: GroupSpec):
    """(finite set of primes that matter, True if int ribs add a wildcard,
    True if a schematic tail enumeration makes the set unbounded)."""
    primes = set()
    wildcard = False
    unbounded = False
    for lay in g.layouts:
        for rule in lay.rules:
            if isinstance(rule, SchematicRib):
                primes.update(rule.primes)
                unbounded = True  # the tail enumeration runs through all primes
                continue
            nd = rule.nondivisible_primes
            if nd is None:
                wildcard = True
            else:
                primes.update(nd)
    for gen in g.generators:
        for v in (gen.tail.q, gen.tail.w, gen.tail.q + gen.tail.w):
            primes.update(_primes_of(v.numerator))
            primes.update(_primes_of(v.denominator))
    return frozenset(primes), wildcard, unbounded


@_once_per_group
def _union_piece(g: GroupSpec, i: int):
    """Piece of the union of all prime value sets on segment i."""
    # a schematic coordinate n is pinned by its own prime
    return _layout_piece(g, i, lambda rib: rib.nondivisible_primes != (),
                         lambda s: ALL)


# ---------------------------------------------------------------------------
# The regular spine.


def _informative(pieces: Sequence) -> bool:
    return not (set(pieces) <= {ALL} or set(pieces) <= {NONE})


def regular_spine(g: GroupSpec) -> Optional[ChainSpec]:
    """The spine, coloured for a classifier: the original colours, the
    images of the prime value sets for the finitely many relevant primes,
    and the locus of discrete ribs.

    The classifier reads cuts on the quotient of the spine under the
    union of the prime value sets (``_union_piece``).  Where each union
    piece is ``all`` or dense that quotient is the spine itself, also
    when a dense piece is patched: union points accumulate on each
    flipped point from both sides, so that point is a convex class of
    its own.  On a finite spine every cut is principal, whatever the
    quotient and whatever the colours, so the spine is returned as it
    stands, with no value set computed.  None is left: an infinite spine
    whose union is sparse, whose quotient is not finitely presented.
    """
    if g.spine.finite:
        return g.spine
    n = len(g.spine.segments)
    union = [_union_piece(g, i) for i in range(n)]
    if not all(p == ALL or dense_colour(p) is not None for p in union):
        return None
    colours = list(g.spine.colours)
    primes, wildcard, unbounded = relevant_primes(g)
    probe = primes | ({2} if wildcard else set()) | (
        {2, 3} if unbounded else set())
    existing = {tuple(c.rules) for c in colours}
    for p in sorted(probe):
        vs = spine_m(g, p)
        if not _informative(vs.pieces) or vs.pieces in existing:
            continue
        existing.add(vs.pieces)
        colours.append(ColourRule(f"mod-{p} values", vs.pieces))
    # both schematic templates are dense
    disc = tuple(_layout_piece(g, i, lambda rib: rib.discrete, lambda s: NONE)
                 for i in range(n))
    if _informative(disc) and disc not in existing:
        colours.append(ColourRule("discrete ribs", disc))
    return ChainSpec(g.spine.segments, tuple(colours))


# ---------------------------------------------------------------------------
# Structural hypotheses: no new limit values (M), uniform value sets (UR).


@dataclass(frozen=True)
class HypothesisResult:
    """Outcome of a structural hypothesis check: ``holds`` is decided for
    the whole presentation, with the modulus and witness of a failure."""

    hypothesis: str
    holds: bool
    modulus: Optional[int] = None
    witness: Optional[object] = None
    note: str = ""


@_once_per_group
def check_m(g: GroupSpec) -> HypothesisResult:
    """No modulus puts a limit value into the value set.

    Full products and plain sums satisfy this outright: all-coordinate
    divisibility there already yields an m-th multiple.  With generators
    the first failing modulus is a prime (see ``spine_m``), decided by
    ``_limit_in_value_set``.  The primes outside the relevant ones all
    answer alike (a tail over p leaves a rib cofinally or not by the same
    rule for each), so the first of them stands for the rest.
    """
    if g.mode == "hahn":
        return HypothesisResult("M", True,
                                note="full product: coordinate-wise divisibility "
                                     "produces a witness element")
    if not g.generators:
        return HypothesisResult("M", True,
                                note="finitely supported elements: divisibility "
                                     "is settled coordinate by coordinate")
    primes = relevant_primes(g)[0]
    for p in sorted(primes | {_first_prime_outside(primes)}):
        e = _limit_in_value_set(g, p)
        if e is not None:
            return HypothesisResult("M", False, modulus=p, witness=e,
                                    note=f"generator combination with a limit "
                                         f"value modulo {p}")
    return HypothesisResult("M", True,
                            note="no generator combination has a limit value "
                                 "modulo any prime")


@_once_per_group
def check_ur(g: GroupSpec) -> HypothesisResult:
    """One modulus N whose value set already separates like all of them.

    A schematic assignment running through infinitely many primes
    defeats every finite N: each later prime pins a coordinate no earlier
    value set sees.  Otherwise N works, in closed form: N is the product
    of the finitely many relevant primes, with 2 put in when an integer
    rib adds a wildcard or no prime is relevant.  ``spine_m(g, N)`` and
    the union of the prime value sets are read off the same layouts,
    each with one predicate per rib, and the two predicates agree on
    every rib.  A discrete rib hits N since N >= 2; a rib with nondivisible
    primes P, not empty, hits N since P lies inside the relevant primes;
    a divisible rib (P empty) hits neither.  So the two value sets are
    equal piece for piece, and ``spine_m(g, N)`` holds the limit iff
    some prime of N does.
    """
    primes, wildcard, unbounded = relevant_primes(g)
    if unbounded:
        beyond = nth_prime(max(len(g.ribs), 2))
        return HypothesisResult(
            "UR", False, witness=f"prime {beyond} pins a coordinate outside "
                                 f"any fixed value set",
            note="rib assignment runs through infinitely many primes")
    n_val = math.prod(primes | ({2} if wildcard or not primes else set()))
    return HypothesisResult("UR", True, modulus=n_val,
                            note=f"value set modulo {n_val} separates like the "
                                 f"union over all primes")
