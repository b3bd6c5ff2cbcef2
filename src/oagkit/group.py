"""Ordered abelian groups presented inside a Hahn product over a chain.

A group is described by a spine (a coloured chain), a rib assignment
(which rank-1 group sits at each position), a mode, and optionally
finitely many generators:

* mode ``"hahn"``: the full Hahn product over the spine.  Elements we can
  write down have finite support away from a terminal omega segment and
  an eventually constant value (the *tail*) along that segment.
* mode ``"sum"``: the subgroup of finitely supported elements, plus the
  subgroup generated by the listed generators when there are any.

An :class:`Element` stores finitely many per-position deviations plus the
tail; the coordinate at a terminal-segment position is deviation + tail,
and equals the stored value elsewhere.  This keeps addition coordinate
free and makes eventual behaviour a property of the tail alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple, Union

from .chain import (ALL, ChainSpec, Position, SegKind, complement, contains,
                    finite_on, flips, is_schematic, nonempty, once_property)
from .errors import PositionOutOfDomain, PresentationError
from .rib import (RIB_ZERO, RibElement, RibSpec, _exact, _primes_of,
                  nth_prime, prime_index, rib_contains,
                  rib_elem_equiv, script_z_rib, z_local_rib)


def _as_rib_value(v) -> RibElement:
    if isinstance(v, RibElement):
        return v
    return RibElement(v)


def _as_position(p) -> Position:
    if isinstance(p, tuple):
        return Position(*p)
    raise PositionOutOfDomain(f"{p!r} is not a position")


@dataclass(frozen=True)
class SchematicRib:
    """A rib per coordinate, given uniformly in the coordinate.

    ``template`` is "z_local" or "script_z"; the prime for coordinate n is
    ``primes[n]`` when provided, else the n-th prime.
    """

    template: str
    primes: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.template not in ("z_local", "script_z"):
            raise PresentationError(f"unknown schematic template {self.template!r}")
        for p in self.primes:
            prime_index(p)  # refuses a composite entry, as RibSpec does

    def prime_for(self, n: int) -> int:
        if n < len(self.primes):
            return self.primes[n]
        return nth_prime(n)

    def rib_for(self, n: int) -> RibSpec:
        p = self.prime_for(n)
        return script_z_rib(p) if self.template == "script_z" else z_local_rib(p)

    def coords_dividing(self, k: int) -> frozenset:
        """The coordinates whose prime divides k: listed ones, and past
        the list the index of each prime of k.  There rib_for(n) has index
        above 1 at a prime of k, and a standard value with denominator k
        leaves it."""
        coords = itertools.chain(range(len(self.primes)),
                                 map(prime_index, _primes_of(k)))
        return frozenset(n for n in coords if k % self.prime_for(n) == 0)


# the rib at a coordinate: one rib, or a schematic rib read there
Rule = Union[RibSpec, SchematicRib]


@dataclass(frozen=True)
class RibEntry:
    """One clause of a rib assignment; the first matching clause wins.

    Selectors: an explicit position, a colour name (optionally within a
    segment), a segment index, or nothing (default clause).
    """

    rib: Optional[RibSpec] = None
    schematic: Optional[SchematicRib] = None
    segment: Optional[int] = None
    colour: Optional[str] = None
    position: Optional[Position] = None

    def __post_init__(self):
        if (self.rib is None) == (self.schematic is None):
            raise PresentationError("exactly one of rib or schematic per clause")


@dataclass(frozen=True)
class SegmentLayout:
    """The rib clauses as they read on one segment, compiled once.

    ``ribs`` maps each coordinate an explicit position clause reaches to
    its rule.  Off those coordinates the rule is ``on`` where ``piece``
    holds and ``off`` elsewhere; ``piece`` is the piece on this segment
    of the one splitting ``colour``, or ALL when no colour splits it.  A
    side no clause reaches holds no point off ``ribs`` (``GroupSpec``
    refuses the segment otherwise) and takes another side's rule, so
    every coordinate has a rule.
    """

    ribs: dict
    colour: Optional[str]
    piece: tuple
    on: Rule
    off: Rule

    @once_property
    def named(self) -> frozenset:
        """The coordinates an exception or the colour piece names."""
        return frozenset(self.ribs).union(flips(self.piece))

    @once_property
    def horizon(self):
        """One past the largest named coordinate."""
        return max(self.named, default=-1) + 1

    def rule_at(self, coord) -> Rule:
        return self.ribs.get(coord) or (
            self.on if contains(self.piece, coord) else self.off)

    @once_property
    def eventual(self) -> Rule:
        """The rule off the named coordinates of a segment without a
        dense colour; on an omega segment, the rule past ``horizon``."""
        return self.rule_at(self.horizon)

    @once_property
    def uniform(self) -> Optional[RibSpec]:
        """The one rib at every coordinate of the segment, when there is
        one: no position clause, and no colour split or the same rule on
        both sides of it; else None (read ``rule_at`` per coordinate)."""
        if not self.ribs and self.on == self.off and isinstance(self.on, RibSpec):
            return self.on
        return None

    @once_property
    def rules(self) -> Tuple[Rule, ...]:
        """Every rule the clauses put on the segment, once each."""
        return tuple(dict.fromkeys((self.on, self.off, *self.ribs.values())))


@dataclass(frozen=True)
class Generator:
    """An extra generator: finitely many prefix values plus a nonzero tail
    along the terminal omega segment.

    The tail must lie in the rib at every coordinate of that segment, so
    the generator is in its own group; a tail that leaves its rib at any
    coordinate, finitely many included, is refused.  Then only the tail
    matters for the subgroup generated (the prefix is a finitely
    supported element, already present), so membership and
    decomposition read tails alone.
    """

    name: str
    tail: RibElement
    prefix: Tuple[Tuple[Position, RibElement], ...] = ()

    def __post_init__(self):
        if not self.tail:
            raise PresentationError(f"generator {self.name!r} needs a nonzero tail")


@dataclass(frozen=True)
class Element:
    """Deviations (position -> rib value) plus a tail.

    ``fp`` pairs are sorted in chain order, one per position; zero
    deviations are dropped.  Build elements through :meth:`GroupSpec.el`,
    which canonicalizes and checks every position against the chain.
    """

    fp: Tuple[Tuple[Position, RibElement], ...] = ()
    tail: RibElement = RIB_ZERO

    @once_property
    def _index(self) -> dict:
        # built on first lookup, outside the fields, so == and hash stay on
        # (fp, tail)
        return dict(self.fp)

    @property
    def is_zero(self) -> bool:
        return not self.fp and not self.tail

    def __repr__(self) -> str:
        parts = [f"{pos}:{v!r}" for pos, v in self.fp]
        if self.tail or not parts:
            parts.append(f"tail={self.tail!r}")
        return "el(" + ", ".join(parts) + ")"


ZERO_ELEMENT = Element()


@dataclass(frozen=True)
class GroupSpec:
    name: str
    spine: ChainSpec
    ribs: Tuple[RibEntry, ...]
    mode: str = "hahn"
    generators: Tuple[Generator, ...] = ()

    def __post_init__(self):
        if self.mode not in ("hahn", "sum"):
            raise PresentationError(f"unknown mode {self.mode!r}")
        self.layouts  # compile the clauses now, so a bad one is refused here
        if self.generators:
            if self.mode != "sum":
                raise PresentationError("generators only extend a sum presentation")
            if self.terminal_omega is None:
                raise PresentationError("generators need a terminal omega segment")
            if len(self.generators) > 2:
                raise PresentationError("at most two independent generator tails")
            if len(self.generators) == 2:
                t1, t2 = (g.tail for g in self.generators)
                if t1.q * t2.w - t2.q * t1.w == 0:
                    raise PresentationError(
                        "generator tails must be independent over the integers")
            for g in self.generators:
                for pos, v in g.prefix:
                    if not rib_contains(self.rib_at(pos), v):
                        raise PresentationError(
                            f"generator {g.name!r} prefix value {v!r} outside its rib")
                cofinal, coords = self._tail_exits(g.tail)
                if cofinal or coords:
                    where = "cofinally" if cofinal else "at " + ", ".join(
                        str(Position(self.terminal_omega, c)) for c in coords)
                    raise PresentationError(
                        f"generator {g.name!r} tail {g.tail!r} leaves the ribs {where}")

    # -- geometry ------------------------------------------------------

    @once_property
    def terminal_omega(self) -> Optional[int]:
        """Index of the last segment if it is an omega segment."""
        segs = self.spine.segments
        if segs and segs[-1].kind is SegKind.OMEGA:
            return len(segs) - 1
        return None

    @once_property
    def value_sets(self) -> dict:
        """Answers ``valuation`` stores for this presentation: value sets,
        relevant primes, union pieces, limit searches and the M and UR
        checks, each immutable and computed once (outside the fields, so
        == and hash ignore it)."""
        return {}

    @once_property
    def layouts(self) -> Tuple[SegmentLayout, ...]:
        """One layout per segment: the only reader of ``ribs``."""
        for entry in self.ribs:
            if entry.position is not None:
                self.spine.check_position(entry.position)
            elif entry.segment is not None and not (
                    type(entry.segment) is int
                    and 0 <= entry.segment < len(self.spine.segments)):
                raise PresentationError(
                    f"rib clause segment {entry.segment!r} is no segment index")
        return tuple(self._compile(i) for i in range(len(self.spine.segments)))

    @once_property
    def _uniform(self) -> Tuple[Optional[RibSpec], ...]:
        """Each segment's ``SegmentLayout.uniform`` rib, or None: the
        table the lead kernel and ``_rib_at`` read before a layout."""
        return tuple(lay.uniform for lay in self.layouts)

    def _compile(self, i: int) -> SegmentLayout:
        """Segment i's layout: the first clause that matches a coordinate
        sets its rule.  A side of the colour that holds a point no clause
        reaches is refused."""
        exceptions, piece, colour, on, off = {}, ALL, None, None, None
        for entry in self.ribs:
            rule = entry.rib if entry.rib is not None else entry.schematic
            p = entry.position
            if p is not None:
                if p.seg == i and p.coord not in exceptions and not (
                        colour is not None and contains(piece, p.coord)):
                    exceptions[p.coord] = rule
            elif entry.segment is None or entry.segment == i:
                if entry.colour is None:
                    on, off = (rule if colour is None else on), rule
                    break
                here = self.spine.colour_named(entry.colour).rule_at(i)
                if not nonempty(self.spine.segments[i], here):
                    continue  # the colour holds nowhere on this segment
                if colour is None:
                    colour, on, piece = entry.colour, rule, here
                    if is_schematic(piece):
                        raise PresentationError(
                            "schematic colours cannot split a rib assignment")
                elif entry.colour != colour:
                    raise PresentationError(
                        f"segment {i}: colours {colour!r} and "
                        f"{entry.colour!r} both split its rib clauses")
        if on is None or off is None:
            seg = self.spine.segments[i]
            for side, rule in ((piece, on), (complement(piece), off)):
                if rule is None and _free_point(seg, side, exceptions):
                    raise PresentationError(
                        f"no rib clause covers part of segment {i}")
            # the side without a rule holds only excepted points
            fill = next(r for r in (on, off, *exceptions.values()) if r is not None)
            on, off = (fill if on is None else on), (fill if off is None else off)
        return SegmentLayout(exceptions, colour, piece, on, off)

    def rib_at(self, p: Position) -> RibSpec:
        self.spine.check_position(p)
        return self._rib_at(p)

    def _rib_at(self, p: Position) -> RibSpec:
        """``rib_at`` a position already checked against the chain."""
        rib = self._uniform[p.seg]
        if rib is not None:
            return rib
        rule = self.layouts[p.seg].rule_at(p.coord)
        if isinstance(rule, RibSpec):
            return rule
        if not isinstance(p.coord, int):
            raise PresentationError("schematic ribs need integer coordinates")
        return rule.rib_for(p.coord)

    def _tail_exits(self, v: RibElement) -> Tuple[bool, Tuple[int, ...]]:
        """Where a free terminal coordinate holding v leaves its rib:
        (False, coords) when exactly at these coordinates, (True, coords)
        when at every coordinate but these named ones."""
        t = self.terminal_omega
        lay = self.layouts[t]
        rule = lay.eventual
        listed = set()
        if isinstance(rule, SchematicRib):
            cofinal = bool(v.w)  # no template rib holds a nonstandard value
            if not cofinal:
                listed = set(rule.coords_dividing(v.q.denominator)) - lay.named
        else:
            cofinal = not rib_contains(rule, v)
        listed.update(c for c in lay.named
                      if rib_contains(self._rib_at(Position(t, c)), v) == cofinal)
        return cofinal, tuple(sorted(listed))

    # -- element construction and arithmetic ----------------------------

    def el(self, pairs: Iterable[Tuple[Position, object]] = (),
           tail=0) -> Element:
        """Build an element from absolute coordinates plus a tail value.

        Positions may be given as ``(seg, coord)`` tuples and values as
        plain numbers; only those are converted.  Cost: one checked pass
        over ``pairs`` when they come typed and in chain order (see
        ``_raw``)."""
        return self._raw(pairs, _as_rib_value(tail), True)

    def _raw(self, devs: Iterable[Tuple[Position, RibElement]],
             tail: RibElement, absolute: bool = False) -> Element:
        """Canonicalize pairs read from outside: deviations (parsed
        literals, term constants), or ``el``'s absolute coordinates, whose
        terminal ones lose the tail.  Check the tail and every position,
        zero entries included, refuse repeats, drop zeros and sort.

        One pass reads input that comes typed (``Position``,
        ``RibElement``) and in chain order.  It checks each position
        against the chain's ``_coord_bounds`` inline, compares it with
        the last one by segment, then by coordinate (reversed on omega*
        segments), takes the tail off as it reads a terminal pair, and
        keeps every other nonzero pair as it stands.  Any other input
        breaks off that pass and is read again from the start: converted,
        checked, keyed and sorted, and there the first repeat in input
        order is refused, so every input gets the answer or the error of
        that plain path."""
        devs = devs if type(devs) in (list, tuple) else list(devs)
        t = self.terminal_omega if absolute and tail else None
        if not tail or self.terminal_omega is not None:
            bounds, rev = self.spine._coord_bounds, self.spine._reversed_segments
            fp = []
            append = fp.append
            # the segment of the last position, and its bounds; before the
            # first, segment -1 holds no coordinate
            last, lo, hi, dense = -1, 0, 0, False
            for pv in devs:
                p, v = pv
                if type(p) is not Position or type(v) is not RibElement \
                        or type(pv) is not tuple:
                    break
                s, c = p.seg, p.coord
                if s != last or type(s) is not int:  # True == 1
                    if type(s) is not int or not last < s < len(bounds):
                        break
                    last, top = s, -math.inf  # ``top``: the last coordinate's key
                    lo, hi, dense = bounds[s]
                    back = s in rev
                if not (lo <= c < hi if type(c) is int
                        else dense and type(c) is Fraction):
                    break
                k = -c if back else c
                if k <= top:
                    break
                top = k
                if s == t:
                    # a zero difference is the shared RIB_ZERO
                    if (v := v - tail) is not RIB_ZERO:
                        append((p, v))
                elif v:
                    append(pv)
            else:
                return Element(tuple(fp), tail)
        if absolute:
            devs = [(pos, v - tail if pos.seg == t else v) for pos, v in (
                (p if type(p) is Position else _as_position(p),
                 _as_rib_value(v)) for p, v in devs)]
        if tail and self.terminal_omega is None:
            raise PresentationError("a tail needs a terminal omega segment")
        seen = set()
        keyed = []
        for p, v in devs:
            k = self.spine.sort_key(p)
            if k in seen:
                raise PresentationError(f"duplicate coordinate at {p}")
            seen.add(k)
            if v:
                keyed.append((k, p, v))
        keyed.sort()  # the keys are distinct, so positions are never compared
        return Element(tuple((p, v) for _, p, v in keyed), tail)

    def coordinate(self, e: Element, p: Position) -> RibElement:
        self.spine.check_position(p)
        dev = e._index.get(p)
        if p.seg != self.terminal_omega or not e.tail:
            return RIB_ZERO if dev is None else dev
        return e.tail if dev is None else e.tail + dev

    def add(self, a: Element, b: Element) -> Element:
        return self._merge(a, b, False)

    def sub(self, a: Element, b: Element) -> Element:
        return self._merge(a, b, True)

    def _merge(self, a: Element, b: Element, minus: bool) -> Element:
        """a + b, or a - b when ``minus``: one eager merge of the two
        deviation lists, comparing positions inline by segment, then by
        coordinate, reversed on omega* segments (as ``valuation._merged``
        does).  A position held by one operand alone keeps that operand's
        own pair (b's is negated when subtracting); where both hold one,
        b's position stands with the sum or difference, dropped when
        zero: the sum or difference was just built by ``rib``, so a zero
        one is ``RIB_ZERO`` itself."""
        fa, fb = a.fp, b.fp
        rev = self.spine._reversed_segments
        na, nb = len(fa), len(fb)
        out = []
        append = out.append
        i = j = 0
        while i < na and j < nb:
            pa, pb = fa[i], fb[j]
            p, q = pa[0], pb[0]
            if p.seg != q.seg:
                first = p.seg < q.seg
            elif p.coord != q.coord:
                first = (p.coord < q.coord) != (p.seg in rev)
            else:
                s = pa[1] - pb[1] if minus else pa[1] + pb[1]
                if s is not RIB_ZERO:
                    append((q, s))
                i += 1
                j += 1
                continue
            if first:
                append(pa)
                i += 1
            else:
                append((q, -pb[1]) if minus else pb)
                j += 1
        out += fa[i:]
        out += [(p, -v) for p, v in fb[j:]] if minus else fb[j:]
        return Element(tuple(out),
                       a.tail - b.tail if minus else a.tail + b.tail)

    def neg(self, a: Element) -> Element:
        return Element(tuple((p, -v) for p, v in a.fp), -a.tail)

    def scale(self, a: Element, k) -> Element:
        k = _exact(k)
        if not k:
            return ZERO_ELEMENT
        if k == 1:
            return a
        return Element(tuple((p, v.scale(k)) for p, v in a.fp), a.tail.scale(k))

    def generator_element(self, g) -> Element:
        if isinstance(g, str):
            by_name = {gen.name: gen for gen in self.generators}
            if g not in by_name:
                raise PresentationError(f"no generator named {g!r}")
            g = by_name[g]
        return self.el(g.prefix, tail=g.tail) if g.prefix else Element((), g.tail)

    # -- support and order ----------------------------------------------

    def _walk(self, devs: Iterable[Tuple[Position, RibElement]],
              tail: RibElement, coords: Iterable[int]
              ) -> Iterator[Tuple[Position, RibElement]]:
        """(position, coordinate) of the element with these deviations (in
        chain order, zeros allowed) and this tail, lazily in chain order:
        at each deviation and, when there is a tail, at the terminal
        coordinates in ``coords`` (ascending, possibly endless); off its
        deviations a terminal coordinate holds the tail."""
        t = self.terminal_omega
        if t is None or not tail:
            yield from devs
            return
        it = iter(devs)
        for p, d in it:
            if p.seg == t:
                break
            yield p, d
        else:
            p = None
        for n in coords:
            while p is not None and p.coord < n:
                yield p, tail + d
                p, d = next(it, (None, None))
            if p is None or p.coord != n:  # else the deviation comes next
                yield Position(t, n), tail
        while p is not None:
            yield p, tail + d
            p, d = next(it, (None, None))

    def sign_of(self, e: Element) -> int:
        hit = valuation._lead(self, e, 0)
        return hit[1].sign if type(hit) is tuple else 0

    def compare(self, a: Element, b: Element) -> int:
        """The sign of a - b, read at the first position where a and b
        differ without building a - b."""
        hit = valuation._lead(self, a, 0, b)
        return hit[1].sign if type(hit) is tuple else 0

    # -- membership ------------------------------------------------------

    def tail_coefficients(self, tail: RibElement) -> Optional[Tuple[int, ...]]:
        """Integer generator coefficients producing this tail, or None."""
        gens = self.generators
        if not gens:
            return () if not tail else None
        if len(gens) == 1:
            t = gens[0].tail
            c = tail.q / t.q if t.q else tail.w / t.w
            if c.denominator == 1 and t.scale(c) == tail:
                return (int(c),)
            return None
        t1, t2 = gens[0].tail, gens[1].tail
        det = t1.q * t2.w - t2.q * t1.w
        c1 = (tail.q * t2.w - tail.w * t2.q) / det
        c2 = (t1.q * tail.w - t1.w * tail.q) / det
        if c1.denominator == 1 and c2.denominator == 1:
            return (int(c1), int(c2))
        return None

    def _is_multiple(self, e: Element, m: int) -> bool:
        """Whether e / m lies in the group, without building e / m: no
        coordinate of e fails m-divisibility in its rib, and in sum mode
        the tail over m lands in the generator lattice."""
        return valuation._lead(self, e, m) is valuation.SV_INF

    def contains(self, e: Element) -> bool:
        return self._is_multiple(e, 1)

    def in_m_multiples(self, e: Element, m: int):
        """Whether e is an m-th multiple of a group element.

        Returns (True, witness) with m * witness == e, else (False, None).
        An exact witness must have coordinate e_p / m everywhere, so the
        test is coordinate-wise rib divisibility plus, in sum mode, the
        tail landing back in the generator lattice; the witness is built
        only once the test passes.
        """
        if m <= 0:
            raise PresentationError("modulus must be positive")
        if not self._is_multiple(e, m):
            return False, None
        return True, e if m == 1 else self.scale(e, Fraction(1, m))

    # -- presentation summary ---------------------------------------------

    def skeleton(self) -> dict:
        segs = [{"kind": s.kind.value, **({"size": s.size} if s.kind is SegKind.FIN else {})}
                for s in self.spine.segments]
        rib_samples = []
        for p in self.spine.sample_positions(per_segment=3):
            rib_samples.append({
                "segment": p.seg,
                "coord": str(p.coord),
                "rib": self.rib_at(p).name,
            })
        return {
            "group": self.name,
            "mode": self.mode,
            "segments": segs,
            "colours": [c.name for c in self.spine.colours],
            "rib_samples": rib_samples,
            "generators": [{"name": g.name, "tail": _rib_str(g.tail)}
                           for g in self.generators],
            "top": "INF",
        }


def _rib_str(v: RibElement) -> str:
    if not v.w:
        return str(v.q)
    return f"{v.q}+{v.w}*W"


# ---------------------------------------------------------------------------
# Pairs of groups.

PAIR_FLAGS = frozenset({"sum_inside_hahn", "generator_extension", "rib_extension"})


def _rib_extends(small: RibSpec, big: RibSpec) -> bool:
    if small == big:
        return True
    if small.domain == "int":
        return True  # integers sit in every shape here
    if small.domain == "rat":
        return big.domain == "rat"
    if isinstance(small.domain, tuple):
        if big.domain == "rat":
            return True
        if isinstance(big.domain, tuple):
            return set(big.domain[1]) <= set(small.domain[1])
    return False


@dataclass(frozen=True)
class PairSpec:
    """A group together with an extension of it, position by position."""

    small: GroupSpec
    big: GroupSpec
    flags: frozenset = frozenset()

    def __post_init__(self):
        if not self.flags <= PAIR_FLAGS:
            raise PresentationError(f"unknown pair flags {set(self.flags) - PAIR_FLAGS}")
        if self.small.spine.segments != self.big.spine.segments:
            raise PresentationError("the two spines must share their segments")
        located = []
        for where, p, rib_s, rib_b in self._walk_rib_pairs():
            if not _rib_extends(rib_s, rib_b):
                raise PresentationError(f"rib at {where} does not extend")
            located.append((where, p, rib_s, rib_b))
        # the one walk, kept outside the fields so == and hash ignore it
        object.__setattr__(self, "located_rib_pairs", tuple(located))

    def rib_pairs(self) -> Iterator[Tuple[object, RibSpec, RibSpec]]:
        """(where, small rib, big rib) for every pair of ribs the two
        layouts put on one position.  A finite segment is read at its
        named coordinates and, for each pair of sides of the two colours,
        at the first coordinate off them (at every one under a schematic
        rule).  An infinite one is read at its named coordinates, then
        rule against rule off them, where ``where`` names the segment and
        the side of its colour."""
        return ((where, rib_s, rib_b)
                for where, _, rib_s, rib_b in self.located_rib_pairs)

    def _walk_rib_pairs(self) -> Iterator[
            Tuple[object, Optional[Position], RibSpec, RibSpec]]:
        """``rib_pairs`` with a position holding each pair: ``where``
        itself, or for a pair of sides the first coordinate off the named
        ones that lies on both (None when they hold only phantom points).
        ``__post_init__`` walks it once into ``located_rib_pairs``."""
        for i, seg in enumerate(self.small.spine.segments):
            s, b = self.small.layouts[i], self.big.layouts[i]
            named = s.named | b.named
            finite = seg.kind is SegKind.FIN
            reads = {c for c in named if not finite or c < seg.size}
            for (_, ps, rs), (_, pb, rb) in itertools.product(_sides(s), _sides(b)):
                if finite:
                    free = _free_coords(seg, (ps, pb), named)
                    schematic = SchematicRib in (type(rs), type(rb))
                    reads.update(free if schematic else itertools.islice(free, 1))
            for c in sorted(reads):
                p = Position(i, c)
                yield p, p, self.small._rib_at(p), self.big._rib_at(p)
            if finite:
                continue
            split = s.colour is not None and b.colour is not None
            if split and (s.colour, s.piece) != (b.colour, b.piece):
                raise PresentationError(
                    f"segment {i}: the two groups split it on different colours")
            sides = ([(side, piece, rule) for side, piece, rule in _sides(lay)
                      if _free_point(seg, piece, named)] for lay in (s, b))
            for (side, ps, rule_s), (_, pb, rule_b) in (
                    zip(*sides) if split else itertools.product(*sides)):
                where = f"segment {i}{side}"
                if isinstance(rule_s, RibSpec) and isinstance(rule_b, RibSpec):
                    c = next(_free_coords(seg, (ps, pb), named), None)
                    yield where, None if c is None else Position(i, c), rule_s, rule_b
                elif rule_s != rule_b:
                    raise PresentationError(
                        f"{where}: a schematic rule meets another rule")

    @once_property
    def elementary(self) -> Tuple[Optional[bool], str]:
        """(True | False | None, detail) for the small group sitting
        elementarily in the big one, decided once per pair."""
        if self.small == self.big:
            return True, "the two groups are the same presentation"
        for where, rib_s, rib_b in self.rib_pairs():
            if not rib_elem_equiv(rib_s, rib_b):
                return False, (f"at {where} the ribs are not elementarily "
                               "equivalent")
        for where, rib_s, rib_b in self.rib_pairs():
            # integers under a nonstandard window are a known change
            if rib_s != rib_b and not (rib_s.domain == "int" and rib_b.nonstandard):
                return None, f"rib change at {where} is outside the known rules"
        return True, ("identical spines, with rib changes limited to "
                      "elementary window extensions")


def _sides(lay: SegmentLayout) -> list:
    """(label, piece, rule) for each side of the layout's colour; the one
    side when no colour splits it."""
    if lay.colour is None:
        return [("", ALL, lay.on)]
    return [(f" on colour {lay.colour}", lay.piece, lay.on),
            (f" off colour {lay.colour}", complement(lay.piece), lay.off)]


def _free_point(seg, piece, named) -> bool:
    """Whether the side of a segment that the piece describes holds a
    point off the coordinates ``named``; an infinite piece holds
    points no coordinate names on a dense segment."""
    if seg.kind.is_dense and not finite_on(seg, piece):
        return True
    return next(_free_coords(seg, (piece,), named), None) is not None


def _free_coords(seg, pieces, named) -> Iterator[int]:
    """The integer coordinates of the segment that lie in every piece and
    off ``named``, ascending, lazily; on an infinite segment finding the
    first reads at most the listed coordinates and one more."""
    if seg.kind is SegKind.FIN:
        coords = range(seg.size)
    else:
        finite = [flips(p) for p in pieces if finite_on(seg, p)]
        # else more integers than can be excluded
        coords = sorted(min(finite, key=len)) if finite else range(
            len(named) + sum(len(flips(p)) for p in pieces) + 1)
    return (c for c in coords
            if c not in named and all(contains(p, c) for p in pieces))


# the lead kernel lives in valuation, which imports this module
from . import valuation  # noqa: E402
