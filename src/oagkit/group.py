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
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .chain import INF, ChainSpec, Position, SegKind
from .errors import PositionOutOfDomain, PresentationError
from .rib import (RIB_ZERO, RibElement, RibSpec, rib_contains, script_z_rib,
                  z_local_rib)


def _as_rib_value(v) -> RibElement:
    if isinstance(v, RibElement):
        return v
    return RibElement(v)


# ---------------------------------------------------------------------------
# Primes: one ascending table, sieved afresh at twice the size whenever a
# caller needs more of it.  Nothing is sieved at import.

SIEVE_LIMIT = 1 << 24
_PRIMES = array("l")    # every prime up to _sieved_to
_sieved_to = 1


def _sieve_past(n: int) -> None:
    """Grow the prime table until it holds every prime up to n."""
    global _sieved_to
    if n <= _sieved_to:
        return
    if n > SIEVE_LIMIT:
        raise PresentationError(f"primes past {SIEVE_LIMIT} are out of range")
    limit = max(_sieved_to, 512)
    while limit < n:
        limit *= 2
    limit = min(limit, SIEVE_LIMIT)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    _PRIMES[:] = array("l", itertools.compress(range(limit + 1), sieve))
    _sieved_to = limit


def _trial_divisors() -> Iterator[int]:
    """The primes in order, then every integer past the prime table."""
    i = 0
    while True:
        if i < len(_PRIMES):
            yield _PRIMES[i]
            i += 1
        elif _sieved_to < SIEVE_LIMIT:
            _sieve_past(2 * _sieved_to)
        else:
            yield from itertools.count(SIEVE_LIMIT + 1)


def _primes_of(n: int) -> Tuple[int, ...]:
    n = abs(n)
    out = []
    for d in _trial_divisors():
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    if n > 1:
        out.append(n)
    return tuple(out)


def nth_prime(n: int) -> int:
    """The n-th prime, counting from n = 0 (2, 3, 5, ...)."""
    if n < 0:
        raise PresentationError("prime index must be nonnegative")
    while len(_PRIMES) <= n:
        _sieve_past(2 * _sieved_to)
    return _PRIMES[n]


def prime_index(p: int) -> int:
    """Position of the prime p in the enumeration used by nth_prime."""
    _sieve_past(p)
    i = bisect_left(_PRIMES, p)
    if i < len(_PRIMES) and _PRIMES[i] == p:
        return i
    raise PresentationError(f"{p} is not prime")


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

    def prime_for(self, n: int) -> int:
        if n < len(self.primes):
            return self.primes[n]
        return nth_prime(n)

    def rib_for(self, n: int) -> RibSpec:
        p = self.prime_for(n)
        return script_z_rib(p) if self.template == "script_z" else z_local_rib(p)

    def bad_coords(self, value: RibElement, horizon: int = 4) -> Tuple[int, ...]:
        """Coordinates n where value fails to lie in rib_for(n).

        Membership in these templates only constrains the denominator, so
        the failing set is finite and computable from the denominator's
        prime factors (each prime occurs at most once per explicit list
        plus once in the tail enumeration).
        """
        if value.w:
            return tuple(range(horizon))  # no template rib is nonstandard
        bad = set()
        denom = value.q.denominator
        for n, p in enumerate(self.primes):
            if denom % p == 0:
                bad.add(n)
        for p in _primes_of(denom):
            idx = prime_index(p)
            if idx >= len(self.primes):
                bad.add(idx)
        return tuple(sorted(bad))


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

    def matches(self, chain: ChainSpec, p: Position) -> bool:
        if self.position is not None:
            return self.position == p
        if self.segment is not None and p.seg != self.segment:
            return False
        if self.colour is not None:
            return chain.has_colour(self.colour, p)
        return True

    def rib_at(self, p: Position) -> RibSpec:
        if self.rib is not None:
            return self.rib
        coord = p.coord
        if not isinstance(coord, int):
            raise PresentationError("schematic ribs need integer coordinates")
        return self.schematic.rib_for(coord)


@dataclass(frozen=True)
class Generator:
    """An extra generator: finitely many prefix values plus a nonzero tail
    along the terminal omega segment.

    Only the tail matters for the subgroup generated (the prefix is a
    finitely supported element, already present), so membership and
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

    ``fp`` pairs are sorted in chain order; zero deviations are dropped.
    Build elements through :meth:`GroupSpec.el`, which canonicalizes and
    checks every position against the chain.
    """

    fp: Tuple[Tuple[Position, RibElement], ...] = ()
    tail: RibElement = RIB_ZERO

    @cached_property
    def _index(self) -> dict:
        # built on first lookup, outside the fields, so == and hash stay on
        # (fp, tail); reversed so that a repeated position keeps its first value
        return dict(reversed(self.fp))

    def deviation(self, p: Position) -> RibElement:
        return self._index.get(p, RIB_ZERO)

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
                    self.spine.check_position(pos)
                    if not rib_contains(self.rib_at(pos), v):
                        raise PresentationError(
                            f"generator {g.name!r} prefix value {v!r} outside its rib")
                if not self._tail_cofinally_ok(g.tail):
                    raise PresentationError(
                        f"generator {g.name!r} tail {g.tail!r} leaves the ribs cofinally")

    # -- geometry ------------------------------------------------------

    @cached_property
    def terminal_omega(self) -> Optional[int]:
        """Index of the last segment if it is an omega segment."""
        segs = self.spine.segments
        if segs and segs[-1].kind is SegKind.OMEGA:
            return len(segs) - 1
        return None

    def rib_at(self, p: Position) -> RibSpec:
        self.spine.check_position(p)
        return self._rib_at(p)

    def _rib_at(self, p: Position) -> RibSpec:
        """``rib_at`` a position already checked against the chain."""
        for entry in self.ribs:
            if entry.matches(self.spine, p):
                return entry.rib_at(p)
        raise PresentationError(f"no rib assigned at {p}")

    def _terminal_entry(self) -> Optional[RibEntry]:
        t = self.terminal_omega
        if t is None:
            return None
        return next((e for e in self.ribs if e.matches(self.spine, Position(t, 0))), None)

    def _tail_bad_coords(self, tail: RibElement) -> Tuple[int, ...]:
        """Terminal coordinates where the tail value leaves its rib."""
        t = self.terminal_omega
        if t is None or not tail:
            return ()
        entry = self._terminal_entry()
        if entry is not None and entry.schematic is not None:
            return entry.schematic.bad_coords(tail)
        return tuple(n for n in range(8)
                     if not rib_contains(self.rib_at(Position(t, n)), tail))

    def _tail_cofinally_ok(self, tail: RibElement) -> bool:
        t = self.terminal_omega
        if t is None:
            return not tail
        if not tail:
            return True
        entry = self._terminal_entry()
        if entry is None:
            return False
        if entry.schematic is not None:
            # template membership constrains only the denominator, and
            # each denominator prime excludes at most finitely many
            # coordinates
            return not tail.w
        return rib_contains(entry.rib_at(Position(t, 0)), tail)

    # -- element construction and arithmetic ----------------------------

    def el(self, pairs: Iterable[Tuple[Position, object]] = (),
           tail=0) -> Element:
        """Build an element from absolute coordinates plus a tail value."""
        tail = _as_rib_value(tail)
        t = self.terminal_omega
        if tail and t is None:
            raise PresentationError("a tail needs a terminal omega segment")
        seen = set()
        devs = []
        for pos, v in pairs:
            if isinstance(pos, tuple):
                pos = Position(*pos)
            self.spine.check_position(pos)
            if pos in seen:
                raise PresentationError(f"duplicate coordinate at {pos}")
            seen.add(pos)
            v = _as_rib_value(v)
            dev = v - tail if pos.seg == t else v
            if dev:
                devs.append((pos, dev))
        return self._sorted(devs, tail)

    def _raw(self, devs: Sequence[Tuple[Position, RibElement]],
             tail: RibElement) -> Element:
        """Canonicalize entries read from outside (parsed literals, term
        constants): check each nonzero entry's position, then sort."""
        devs = [(p, v) for p, v in devs if v]
        for p, _ in devs:
            self.spine.check_position(p)
        return self._sorted(devs, tail)

    def _sorted(self, devs: list, tail: RibElement) -> Element:
        key = self.spine.unchecked_key
        devs.sort(key=lambda pv: key(pv[0]))
        return Element(tuple(devs), tail)

    def coordinate(self, e: Element, p: Position) -> RibElement:
        self.spine.check_position(p)
        return self._coord(e, p)

    def _coord(self, e: Element, p: Position) -> RibElement:
        """``coordinate`` at a position already checked against the chain."""
        dev = e._index.get(p)
        if p.seg != self.terminal_omega or not e.tail:
            return RIB_ZERO if dev is None else dev
        return e.tail if dev is None else e.tail + dev

    def add(self, a: Element, b: Element) -> Element:
        # both deviation lists are sorted, so the sort is one linear merge
        # that leaves equal positions side by side
        key = self.spine.unchecked_key
        merged = sorted(a.fp + b.fp, key=lambda pv: key(pv[0]))
        out = []
        for p, v in merged:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + v)
            else:
                out.append((p, v))
        return Element(tuple(pv for pv in out if pv[1]), a.tail + b.tail)

    def neg(self, a: Element) -> Element:
        return Element(tuple((p, -v) for p, v in a.fp), -a.tail)

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scale(self, a: Element, k) -> Element:
        k = Fraction(k)
        if not k:
            return ZERO_ELEMENT
        return Element(tuple((p, v.scale(k)) for p, v in a.fp), a.tail.scale(k))

    def generator_element(self, g) -> Element:
        if isinstance(g, str):
            by_name = {gen.name: gen for gen in self.generators}
            if g not in by_name:
                raise PresentationError(f"no generator named {g!r}")
            g = by_name[g]
        return self.el(g.prefix, tail=g.tail) if g.prefix else Element((), g.tail)

    # -- support and order ----------------------------------------------

    def _candidates(self, e: Element, bad: Iterable[int] = (),
                   extra: int = 0) -> List[Position]:
        """The positions of e's deviations, in order, with the terminal
        ones replaced by the run 0..top of the terminal segment when e has
        a tail.  ``top`` passes every terminal deviation and every
        coordinate in ``bad``, then ``extra`` more.

        The run covers every terminal deviation and the terminal segment
        comes last, so appending it to the other deviations keeps the
        chain order without a sort.
        """
        t = self.terminal_omega
        out: List[Position] = []
        if t is None or not e.tail:
            for p, _ in e.fp:
                if not out or out[-1] != p:
                    out.append(p)
            return out
        top = max(bad, default=-1) + 1
        for p, _ in e.fp:
            if p.seg == t:
                top = max(top, p.coord + 1)
            elif not out or out[-1] != p:
                out.append(p)
        out.extend(Position(t, n) for n in range(top + extra + 1))
        return out

    def support_candidates(self, e: Element) -> List[Position]:
        """Positions where the coordinate might be nonzero, in order.

        Finitely many: the deviation positions, and an initial run of the
        terminal segment long enough to pass every deviation there and
        every coordinate the tail leaves its rib at.
        """
        return self._candidates(e, self._tail_bad_coords(e.tail))

    def nat_val(self, e: Element):
        """Least position with a nonzero coordinate; INF for zero."""
        for p in self.support_candidates(e):
            if self._coord(e, p):
                return p
        return INF if not e.tail else self._first_free_terminal(e)

    def _first_free_terminal(self, e: Element) -> Position:
        t = self.terminal_omega
        taken = {p.coord for p, _ in e.fp if p.seg == t}
        n = 0
        while n in taken:
            n += 1
        return Position(t, n)

    def sign_of(self, e: Element) -> int:
        v = self.nat_val(e)
        if v is INF:
            return 0
        return self.coordinate(e, v).sign

    def compare(self, a: Element, b: Element) -> int:
        return self.sign_of(self.sub(a, b))

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

    def contains(self, e: Element) -> bool:
        for p in self.support_candidates(e):
            if not rib_contains(self._rib_at(p), self._coord(e, p)):
                return False
        if e.tail and not self._tail_cofinally_ok(e.tail):
            return False
        if self.mode == "sum":
            return self.tail_coefficients(e.tail) is not None
        return True

    def in_m_multiples(self, e: Element, m: int):
        """Whether e is an m-th multiple of a group element.

        Returns (True, witness) with m * witness == e, else (False, None).
        An exact witness must have coordinate e_p / m everywhere, so the
        test is coordinate-wise rib divisibility plus, in sum mode, the
        tail landing back in the generator lattice.
        """
        if m <= 0:
            raise PresentationError("modulus must be positive")
        if m == 1:
            return (True, e) if self.contains(e) else (False, None)
        candidate = self.scale(e, Fraction(1, m))
        if self.contains(candidate):
            return True, candidate
        return False, None

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
        for p in self.small.spine.sample_positions(per_segment=3):
            if not _rib_extends(self.small.rib_at(p), self.big.rib_at(p)):
                raise PresentationError(f"rib at {p} does not extend")

    def rib_pair_at(self, p: Position) -> Tuple[RibSpec, RibSpec]:
        return self.small.rib_at(p), self.big.rib_at(p)
