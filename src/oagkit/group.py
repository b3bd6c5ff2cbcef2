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
from .rib import (RIB_ZERO, RibElement, RibSpec, rib_contains, rib_divides,
                  script_z_rib, z_local_rib)


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

    ``fp`` pairs are sorted in chain order, one per position; zero
    deviations are dropped.  Build elements through :meth:`GroupSpec.el`,
    which canonicalizes and checks every position against the chain.
    """

    fp: Tuple[Tuple[Position, RibElement], ...] = ()
    tail: RibElement = RIB_ZERO

    @cached_property
    def _index(self) -> dict:
        # built on first lookup, outside the fields, so == and hash stay on
        # (fp, tail)
        return dict(self.fp)

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
        devs = []
        for pos, v in pairs:
            if isinstance(pos, tuple):
                pos = Position(*pos)
            v = _as_rib_value(v)
            devs.append((pos, v - tail if pos.seg == t else v))
        return self._raw(devs, tail)

    def _raw(self, devs: Sequence[Tuple[Position, RibElement]],
             tail: RibElement) -> Element:
        """Canonicalize deviations read from outside (``el``, parsed
        literals, term constants): check the tail and every position, zero
        entries included, refuse repeats, drop zeros and sort."""
        if tail and self.terminal_omega is None:
            raise PresentationError("a tail needs a terminal omega segment")
        sort_key = self.spine.sort_key
        seen = set()
        keyed = []
        for p, v in devs:
            k = sort_key(p)
            if k in seen:
                raise PresentationError(f"duplicate coordinate at {p}")
            seen.add(k)
            if v:
                keyed.append((k, p, v))
        keyed.sort()  # the keys are distinct, so positions are never compared
        return Element(tuple((p, v) for _, p, v in keyed), tail)

    def coordinate(self, e: Element, p: Position) -> RibElement:
        self.spine.check_position(p)
        return self._coord(e, p)

    def _coord(self, e: Element, p: Position) -> RibElement:
        """``coordinate`` at a position already checked against the chain."""
        dev = e._index.get(p)
        if p.seg != self.terminal_omega or not e.tail:
            return RIB_ZERO if dev is None else dev
        return e.tail if dev is None else e.tail + dev

    def _aligned(self, a: Element, b: Element) -> Iterator[
            Tuple[Position, Optional[RibElement], Optional[RibElement]]]:
        """(position, deviation of a, deviation of b) over both supports in
        chain order, None on a side without one: a lazy merge of the two
        sorted deviation lists."""
        key = self.spine.unchecked_key
        done = self.spine.sort_key(INF)  # after every position
        fa, fb = a.fp, b.fp
        na, nb = len(fa), len(fb)
        i = j = 0
        ka = key(fa[0][0]) if na else done
        kb = key(fb[0][0]) if nb else done
        while i < na or j < nb:
            x = y = None
            if ka <= kb:
                p, x = fa[i]
                i += 1
            if kb <= ka:
                p, y = fb[j]
                j += 1
            yield p, x, y
            if x is not None:
                ka = key(fa[i][0]) if i < na else done
            if y is not None:
                kb = key(fb[j][0]) if j < nb else done

    def add(self, a: Element, b: Element) -> Element:
        out = []
        for p, x, y in self._aligned(a, b):
            if y is None:
                out.append((p, x))
            elif x is None:
                out.append((p, y))
            elif s := x + y:
                out.append((p, s))
        return Element(tuple(out), a.tail + b.tail)

    def neg(self, a: Element) -> Element:
        return Element(tuple((p, -v) for p, v in a.fp), -a.tail)

    def sub(self, a: Element, b: Element) -> Element:
        return Element(tuple(pd for pd in self._differences(a, b) if pd[1]),
                       a.tail - b.tail)

    def _differences(self, a: Element, b: Element
                     ) -> Iterator[Tuple[Position, RibElement]]:
        """The deviations of a - b, zeros included, lazily in chain order."""
        for p, x, y in self._aligned(a, b):
            if y is None:
                yield p, x
            elif x is None:
                yield p, -y
            else:
                yield p, x - y

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

    @cached_property
    def _terminal_schematic(self) -> Optional[SchematicRib]:
        """The schematic rib of the terminal segment when a single clause
        assigns it there, at every coordinate; else None."""
        t = self.terminal_omega
        if t is None:
            return None
        for entry in self.ribs:
            if entry.position is not None:
                if entry.position.seg == t:
                    return None
            elif entry.segment is None or entry.segment == t:
                return entry.schematic if entry.colour is None else None
        return None

    def _walk(self, e: Element, bad: Iterable[int] = (), extra: int = 0,
              sparse: bool = False) -> Iterator[Tuple[Position, RibElement]]:
        """(position, coordinate) at e's deviations in chain order and, when
        e has a tail, at terminal coordinates; lazily.

        Off its deviations a terminal coordinate holds the tail.  The
        default walk reads the run 0..top of the terminal segment, where
        ``top`` passes every terminal deviation and every coordinate in
        ``bad``, then ``extra`` more.  A ``sparse`` walk reads only the
        terminal deviations and the coordinates in ``bad``.  The terminal
        segment comes last, so either follows the other deviations in
        chain order.
        """
        t = self.terminal_omega
        tail = e.tail
        fp = e.fp
        if t is None or not tail:
            yield from fp
            return
        i, n_fp = 0, len(fp)
        while i < n_fp and fp[i][0].seg != t:
            yield fp[i]
            i += 1
        if sparse:
            coords = sorted(set(bad))
        else:
            top = max(max(bad, default=-1), fp[-1][0].coord if i < n_fp else -1) + 1
            coords = range(top + extra + 1)
        for n in coords:
            while i < n_fp and fp[i][0].coord < n:
                p, v = fp[i]
                yield p, tail + v
                i += 1
            if i < n_fp and fp[i][0].coord == n:
                p, v = fp[i]
                yield p, tail + v
                i += 1
            else:
                yield Position(t, n), tail
        for p, v in fp[i:]:
            yield p, tail + v

    def support_candidates(self, e: Element) -> List[Position]:
        """Positions where the coordinate might be nonzero, in order.

        Finitely many: the deviation positions, and an initial run of the
        terminal segment long enough to pass every deviation there and
        every coordinate the tail leaves its rib at.
        """
        return [p for p, _ in self._walk(e, self._tail_bad_coords(e.tail))]

    def _first_indivisible(self, e: Element, m: int, scaled_tail: RibElement,
                           extra: int = 0) -> Optional[Position]:
        """The first position whose coordinate of e is not m times a value
        of its rib, or None.  ``scaled_tail`` is e.tail / m: off the
        deviations a terminal coordinate fails exactly where that leaves
        its rib.  On a schematic terminal segment a standard tail leaves
        it at exactly ``bad_coords``, so the walk reads only those and the
        deviations; a nonstandard one leaves it everywhere."""
        sparse = self._terminal_schematic is not None and not scaled_tail.w
        walk = self._walk(e, self._tail_bad_coords(scaled_tail), extra, sparse)
        for p, c in walk:
            if not rib_divides(self._rib_at(p), c, m):
                return p
        return None

    def _leading(self, devs: Iterable[Tuple[Position, RibElement]],
                 tail: RibElement) -> Tuple[object, RibElement]:
        """The least position with a nonzero coordinate, and that
        coordinate, of the element with these deviations (in chain order,
        zeros allowed) and this tail; (INF, RIB_ZERO) for zero."""
        t = self.terminal_omega
        n = 0  # the least terminal coordinate not yet passed
        for p, d in devs:
            if tail and p.seg == t:
                if p.coord > n:
                    break  # coordinate n holds the tail alone
                d = tail + d
                n = p.coord + 1
            if d:
                return p, d
        if tail:
            return Position(t, n), tail
        return INF, RIB_ZERO

    def nat_val(self, e: Element):
        """Least position with a nonzero coordinate; INF for zero."""
        return self._leading(e.fp, e.tail)[0]

    def sign_of(self, e: Element) -> int:
        return self._leading(e.fp, e.tail)[1].sign

    def compare(self, a: Element, b: Element) -> int:
        """The sign of a - b, read at the first position where a and b
        differ without building a - b."""
        return self._leading(self._differences(a, b), a.tail - b.tail)[1].sign

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
        """Whether e / m lies in the group, without building e / m."""
        tail = e.tail if m == 1 else e.tail.scale(Fraction(1, m))
        if self._first_indivisible(e, m, tail) is not None:
            return False
        if tail and not self._tail_cofinally_ok(tail):
            return False
        if self.mode == "sum":
            return self.tail_coefficients(tail) is not None
        return True

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
        for p in self.small.spine.sample_positions(per_segment=3):
            if not _rib_extends(self.small.rib_at(p), self.big.rib_at(p)):
                raise PresentationError(f"rib at {p} does not extend")

    def rib_pair_at(self, p: Position) -> Tuple[RibSpec, RibSpec]:
        return self.small.rib_at(p), self.big.rib_at(p)
