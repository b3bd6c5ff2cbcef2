"""Coloured chains, their cuts, and parameter-definability of cuts.

A chain here is a finite concatenation of *segments*, each of a stock order
type (finite, omega, reversed omega, integers, rationals-like dense, or
complete dense).  Chains may carry unary colours.  The chain is always
considered together with a top element ``INF`` adjoined, because these
chains serve as value sets of valuations.

The central question answered by this module: given a cut of the chain, is
it definable (with parameters from the chain) in the language of the order
plus the colours?  The classifier is a sound rule engine; cuts outside its
rule table come back ``UNKNOWN`` rather than guessed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Union

from .errors import PositionOutOfDomain, PresentationError


class SegKind(enum.Enum):
    FIN = "fin"
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"
    INT = "int"
    DENSE_Q = "dense_q"
    DENSE_COMPLETE = "dense_complete"

    @property
    def has_min(self) -> bool:
        return self in (SegKind.FIN, SegKind.OMEGA)

    @property
    def has_max(self) -> bool:
        return self in (SegKind.FIN, SegKind.OMEGA_STAR)

    @property
    def is_dense(self) -> bool:
        return self in (SegKind.DENSE_Q, SegKind.DENSE_COMPLETE)


@dataclass(frozen=True)
class Segment:
    kind: SegKind
    size: int = 0  # used only for FIN

    def __post_init__(self):
        if self.kind is SegKind.FIN and self.size <= 0:
            raise PresentationError("finite segment needs a positive size")
        if self.kind is not SegKind.FIN and self.size != 0:
            raise PresentationError("size only applies to finite segments")


@dataclass(frozen=True)
class _InfType:
    """Top element adjoined to every chain."""

    def __repr__(self) -> str:
        return "INF"


INF = _InfType()

Coord = Union[int, Fraction]


@dataclass(frozen=True, order=False)
class Position:
    """A point of the chain: segment index plus a local coordinate.

    Coordinates are counted from the small end, except on OMEGA_STAR
    segments where ``coord`` is the distance from the top (coord 0 is the
    segment maximum).  Dense segments take Fraction coordinates.
    """

    seg: int
    coord: Coord

    def __repr__(self) -> str:
        return f"pos({self.seg}, {self.coord})"


# ---------------------------------------------------------------------------
# Pieces: finitely presented subsets of one segment.
#
# Colour rules, the piece sets of the cut classifier and the value sets of
# val_m all describe a subset of a segment the same way, as one tagged
# tuple per segment:
#   ("all",)               whole segment
#   ("none",)              empty on the segment
#   ("only", S)            exactly the finite coordinate set S
#   ("minus", S)           all but the finite coordinate set S
#   ("dense", name, pol)   a dense, codense, cofinal and coinitial subset
#                          (the class of colour ``name``); ``pol`` says
#                          whether it holds the points we can name by
#                          Fraction coordinates (True) or only phantom
#                          ones (False), so the complement flips ``pol``
#   ("schematic", params)  one singleton colour per coordinate n, given
#                          uniformly in n; infinitely many predicates, so
#                          not one definable set

ALL = ("all",)
NONE = ("none",)


def piece_contains(piece, coord: Coord) -> bool:
    """Whether the point at local coordinate ``coord`` lies in the piece."""
    tag = piece[0]
    if tag == "all":
        return True
    if tag == "none":
        return False
    if tag == "only":
        return coord in piece[1]
    if tag == "minus":
        return coord not in piece[1]
    if tag == "dense":
        return piece[2]
    if tag == "schematic":
        # family of singletons: "some member colours p" is true at
        # every coordinate the family enumerates
        return isinstance(coord, int) and coord >= 0
    raise PresentationError(f"unhandled piece {piece!r}")


@dataclass(frozen=True)
class ColourRule:
    name: str
    rules: tuple  # one piece per segment; short tuples pad with NONE

    def rule_at(self, seg: int):
        if seg < len(self.rules):
            return self.rules[seg]
        return NONE


@dataclass(frozen=True)
class ChainSpec:
    segments: tuple
    colours: tuple = ()

    def __post_init__(self):
        for s in self.segments:
            if not isinstance(s, Segment):
                raise PresentationError("segments must be Segment instances")
        for c in self.colours:
            if not isinstance(c, ColourRule):
                raise PresentationError("colours must be ColourRule instances")

    # -- basic geometry ------------------------------------------------

    @cached_property
    def _coord_bounds(self) -> tuple:
        """Per segment, (lo, hi, dense): an int coordinate c lies on it
        when lo <= c < hi, and a dense one also takes any Fraction."""
        counted = (SegKind.FIN, SegKind.OMEGA, SegKind.OMEGA_STAR)
        return tuple((0 if seg.kind in counted else -math.inf,
                      seg.size if seg.kind is SegKind.FIN else math.inf,
                      seg.kind.is_dense) for seg in self.segments)

    def check_position(self, p: Position) -> None:
        s, c = p.seg, p.coord
        bounds = self._coord_bounds
        if type(s) is int and 0 <= s < len(bounds):
            lo, hi, dense = bounds[s]
            if type(c) is int:
                if lo <= c < hi:
                    return
            elif dense and type(c) is Fraction:
                return
        self._refuse(p)

    def _refuse(self, p: Position) -> None:
        """``check_position`` off its fast path: raise why p is refused,
        or accept what that path leaves out (subclasses of int or
        Fraction other than bool)."""
        if not (0 <= p.seg < len(self.segments)):
            raise PositionOutOfDomain(f"segment {p.seg} out of range")
        seg = self.segments[p.seg]
        c = p.coord
        if seg.kind.is_dense:
            if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
                raise PositionOutOfDomain("dense coordinate must be rational")
            return
        if not isinstance(c, int) or isinstance(c, bool):
            raise PositionOutOfDomain("discrete coordinate must be an int")
        if seg.kind is SegKind.FIN and not (0 <= c < seg.size):
            raise PositionOutOfDomain(f"coordinate {c} outside finite segment")
        if seg.kind in (SegKind.OMEGA, SegKind.OMEGA_STAR) and c < 0:
            raise PositionOutOfDomain("coordinate must be nonnegative")

    def sort_key(self, p):
        """Total order on positions and INF.  Smaller key = smaller point."""
        if p is INF:
            return (1, 0, 0)
        self.check_position(p)
        return self.unchecked_key(p)

    @cached_property
    def _reversed_segments(self) -> frozenset:
        return frozenset(i for i, s in enumerate(self.segments)
                         if s.kind is SegKind.OMEGA_STAR)

    def unchecked_key(self, p: Position):
        """``sort_key`` of a position already checked against this chain."""
        if p.seg in self._reversed_segments:
            return (0, p.seg, -p.coord)
        return (0, p.seg, p.coord)

    def lt(self, a, b) -> bool:
        return self.sort_key(a) < self.sort_key(b)

    def sample_positions(self, per_segment: int = 4) -> Iterator[Position]:
        for i, seg in enumerate(self.segments):
            k = seg.kind
            if k is SegKind.FIN:
                for c in range(min(seg.size, per_segment)):
                    yield Position(i, c)
                if seg.size > per_segment:
                    yield Position(i, seg.size - 1)
            elif k in (SegKind.OMEGA, SegKind.OMEGA_STAR):
                for c in range(per_segment):
                    yield Position(i, c)
            elif k is SegKind.INT:
                for c in range(-(per_segment // 2), per_segment // 2 + 1):
                    yield Position(i, c)
            else:
                for c in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)):
                    yield Position(i, c)

    def colour_named(self, name: str) -> ColourRule:
        for c in self.colours:
            if c.name == name:
                return c
        raise PresentationError(f"no colour named {name!r}")


# ---------------------------------------------------------------------------
# Cuts


class CutKind(enum.Enum):
    MINUS_INF = "minus_inf"
    PLUS_INF = "plus_inf"
    PRINCIPAL_PLUS = "principal_plus"    # L = {x <= p}
    PRINCIPAL_MINUS = "principal_minus"  # L = {x < p}
    SEGMENT_BOUNDARY = "segment_boundary"  # L = segments 0..index
    LIMIT = "limit"                      # open end or dense interior


class LimitSide(enum.Enum):
    LOW = "low"
    HIGH = "high"
    INTERIOR = "interior"


@dataclass(frozen=True)
class Cut:
    kind: CutKind
    position: Optional[Position] = None   # for principal cuts
    index: Optional[int] = None           # boundary index / limit segment
    side: Optional[LimitSide] = None      # for LIMIT

    def describe(self) -> str:
        k = self.kind
        if k is CutKind.MINUS_INF:
            return "below everything"
        if k is CutKind.PLUS_INF:
            return "above the whole chain, below INF"
        if k is CutKind.PRINCIPAL_PLUS:
            return f"just above {self.position}"
        if k is CutKind.PRINCIPAL_MINUS:
            return f"just below {self.position}"
        if k is CutKind.SEGMENT_BOUNDARY:
            return f"after segment {self.index}"
        return f"limit cut in segment {self.index} ({self.side.value})"


class CutStatus(enum.Enum):
    DEFINABLE = "definable"
    NOT_DEFINABLE = "not_definable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CutClass:
    status: CutStatus
    rule: str
    detail: str = ""


# ---------------------------------------------------------------------------
# Piece sets: finitely presented subsets of the chain.  One piece per
# segment, and a poison flag for sets with a schematic piece.


@dataclass(frozen=True)
class PieceSet:
    pieces: tuple
    poisoned: bool = False

    def piece(self, i: int):
        return self.pieces[i]


def _piece_nonempty(piece) -> bool:
    tag = piece[0]
    if tag == "none":
        return False
    if tag == "only":
        return bool(piece[1])
    return True


def _complement_piece(piece):
    tag = piece[0]
    if tag == "all":
        return NONE
    if tag == "none":
        return ALL
    if tag == "only":
        return ("minus", piece[1])
    if tag == "minus":
        return ("only", piece[1])
    if tag == "dense":
        return ("dense", piece[1], not piece[2])
    return piece  # schematic stays poisoned


def complement(ps: PieceSet) -> PieceSet:
    return PieceSet(tuple(_complement_piece(p) for p in ps.pieces),
                    poisoned=ps.poisoned)


# ---------------------------------------------------------------------------
# The stock definable sets of a coloured chain.


def successor_set(chain: ChainSpec) -> PieceSet:
    """Points with an immediate successor in the chain plus INF."""
    n = len(chain.segments)
    pieces = []
    for i, seg in enumerate(chain.segments):
        k = seg.kind
        if k.is_dense:
            pieces.append(NONE)
            continue
        if k in (SegKind.OMEGA, SegKind.INT):
            pieces.append(ALL)
            continue
        # FIN and OMEGA_STAR have a maximum whose successor is the next
        # segment's minimum, or INF at the end of the chain.
        nxt_has_min = (i + 1 >= n) or chain.segments[i + 1].kind.has_min
        if k is SegKind.FIN:
            pieces.append(ALL if nxt_has_min else ("only", frozenset(range(seg.size - 1))))
        else:
            pieces.append(ALL if nxt_has_min else ("minus", frozenset({0})))
    return PieceSet(tuple(pieces))


def predecessor_set(chain: ChainSpec) -> PieceSet:
    pieces = []
    for i, seg in enumerate(chain.segments):
        k = seg.kind
        if k.is_dense:
            pieces.append(NONE)
            continue
        if k in (SegKind.OMEGA_STAR, SegKind.INT):
            pieces.append(ALL)
            continue
        # FIN and OMEGA: the minimum's predecessor is the previous
        # segment's maximum
        prv_has_max = i > 0 and chain.segments[i - 1].kind.has_max
        pieces.append(ALL if prv_has_max else ("minus", frozenset({0})))
    return PieceSet(tuple(pieces))


def colour_piece_set(chain: ChainSpec, colour: ColourRule) -> PieceSet:
    pieces = tuple(colour.rule_at(i) for i in range(len(chain.segments)))
    return PieceSet(pieces, poisoned=any(p[0] == "schematic" for p in pieces))


def _base_sets(chain: ChainSpec):
    """The stock definable sets and their complements, by name.  A colour
    with a schematic piece is a family of predicates, not one set."""
    base = [("succ", successor_set(chain)), ("pred", predecessor_set(chain))]
    for colour in chain.colours:
        base.append((f"colour:{colour.name}", colour_piece_set(chain, colour)))
    for name, x in base:
        if not x.poisoned:
            yield name, x
            yield f"not {name}", complement(x)


# ---------------------------------------------------------------------------
# Cut classification.

# colour pieces that name only finitely many points of a segment
_PLAIN_TAGS = ("none", "only", "schematic")


def _finite_on(seg: Segment, piece) -> bool:
    """Whether a piece holds only finitely many points of its segment.  Any
    other piece is cofinal and coinitial in a segment with no endpoints."""
    return piece[0] in ("none", "only") or seg.kind is SegKind.FIN


def _classify_boundary(chain: ChainSpec, j: int) -> CutClass:
    n = len(chain.segments)
    if j < 0:
        return CutClass(CutStatus.DEFINABLE, "empty-side",
                        "lower set is empty")
    if j >= n - 1:
        return CutClass(CutStatus.DEFINABLE, "principal",
                        "upper set has least element INF")
    left = chain.segments[j]
    right = chain.segments[j + 1]
    if left.kind.has_max:
        return CutClass(CutStatus.DEFINABLE, "principal",
                        f"segment {j} has a greatest point")
    if right.kind.has_min:
        return CutClass(CutStatus.DEFINABLE, "principal",
                        f"segment {j + 1} has a least point")
    # A base set cofinal in segment j with finitely many points above it
    # defines the lower set as the points below one of its members, those
    # finitely many points (parameters) left out; dually from segment j + 1.
    for name, x in _base_sets(chain):
        finite = [_finite_on(seg, p) for seg, p in zip(chain.segments, x.pieces)]
        if not finite[j] and all(finite[j + 1:]):
            return CutClass(CutStatus.DEFINABLE, name,
                            f"{name} is cofinal in segment {j} and finite above it")
        if not finite[j + 1] and all(finite[:j + 1]):
            return CutClass(CutStatus.DEFINABLE, name,
                            f"{name} is coinitial in segment {j + 1} and finite below it")
    if left.kind.is_dense != right.kind.is_dense:
        dense = j if left.kind.is_dense else j + 1
        return CutClass(
            CutStatus.DEFINABLE, "density-change",
            f"the points with neither an immediate successor nor an immediate "
            f"predecessor form a convex run through any point of segment "
            f"{dense}, and that run ends at the cut")
    left_ok = left.kind in (SegKind.OMEGA, SegKind.INT, SegKind.DENSE_Q)
    right_ok = right.kind in (SegKind.OMEGA_STAR, SegKind.INT, SegKind.DENSE_Q)
    colours_plain = all(
        c.rule_at(j)[0] in _PLAIN_TAGS and c.rule_at(j + 1)[0] in _PLAIN_TAGS
        for c in chain.colours)
    if left_ok and right_ok and colours_plain:
        return CutClass(
            CutStatus.NOT_DEFINABLE, "homogeneous-gap",
            f"two-sided limit after segment {j}; order relations and colours "
            "are constant up to finitely many named points on both sides, so "
            "any formula with parameters fails beyond the points it names")
    return CutClass(CutStatus.UNKNOWN, "outside-rule-table",
                    f"no rule settles the boundary after segment {j}")


def classify_cut(chain: ChainSpec, cut: Cut) -> CutClass:
    k = cut.kind
    if k is CutKind.MINUS_INF:
        return CutClass(CutStatus.DEFINABLE, "empty-side", "lower set is empty")
    if k is CutKind.PLUS_INF:
        return CutClass(CutStatus.DEFINABLE, "principal",
                        "upper set is {INF}, a least element")
    if k in (CutKind.PRINCIPAL_PLUS, CutKind.PRINCIPAL_MINUS):
        if cut.position is None:
            raise PresentationError("principal cut needs a position")
        chain.check_position(cut.position)
        return CutClass(CutStatus.DEFINABLE, "principal",
                        "defined by comparison with the cut point itself")
    if k is CutKind.SEGMENT_BOUNDARY:
        if cut.index is None:
            raise PresentationError("boundary cut needs an index")
        return _classify_boundary(chain, cut.index)
    if k is not CutKind.LIMIT:
        raise PresentationError(f"unhandled cut kind {k}")
    if cut.index is None or cut.side is None:
        raise PresentationError("limit cut needs a segment index and side")
    if not (0 <= cut.index < len(chain.segments)):
        raise PositionOutOfDomain(f"segment {cut.index} out of range")
    seg = chain.segments[cut.index]
    if cut.side is LimitSide.INTERIOR:
        if seg.kind is SegKind.DENSE_COMPLETE:
            return CutClass(CutStatus.DEFINABLE, "complete-segment",
                            "every interior cut of a complete segment sits at "
                            "a point, hence is principal")
        if seg.kind is SegKind.DENSE_Q:
            return CutClass(
                CutStatus.NOT_DEFINABLE, "incomplete-dense-interior",
                "an interior gap of an incomplete dense segment is moved by "
                "back-and-forth maps fixing any finite parameter set")
        raise PositionOutOfDomain("discrete segments have no interior limit cuts")
    if cut.side is LimitSide.HIGH:
        return _classify_boundary(chain, cut.index)
    return _classify_boundary(chain, cut.index - 1)


def cut_classes(chain: ChainSpec) -> Iterator[Cut]:
    """Representatives of every cut class the classifier distinguishes,
    except the principal cuts, which their own point defines."""
    yield Cut(CutKind.MINUS_INF)
    yield Cut(CutKind.PLUS_INF)
    for j in range(len(chain.segments)):
        yield Cut(CutKind.SEGMENT_BOUNDARY, index=j)
    for i, seg in enumerate(chain.segments):
        if seg.kind.is_dense:
            yield Cut(CutKind.LIMIT, index=i, side=LimitSide.INTERIOR)


@dataclass(frozen=True)
class ChainSEReport:
    status: CutStatus          # DEFINABLE = stably embedded
    witness: Optional[Cut]
    detail: str


def chain_stably_embedded(chain: ChainSpec) -> ChainSEReport:
    """Stable embeddedness of the chain: every cut class definable.

    DEFINABLE means all enumerated cut classes are definable with
    parameters; NOT_DEFINABLE carries a witness cut; UNKNOWN means some
    cut fell outside the rule table and none was provably bad.
    """
    unknown: Optional[Cut] = None
    for cut in cut_classes(chain):
        cc = classify_cut(chain, cut)
        if cc.status is CutStatus.NOT_DEFINABLE:
            return ChainSEReport(CutStatus.NOT_DEFINABLE, cut,
                                 f"{cut.describe()}: {cc.detail}")
        if cc.status is CutStatus.UNKNOWN and unknown is None:
            unknown = cut
    if unknown is not None:
        return ChainSEReport(CutStatus.UNKNOWN, unknown,
                             f"{unknown.describe()}: outside the rule table")
    return ChainSEReport(CutStatus.DEFINABLE, None, "all cut classes definable")


# ---------------------------------------------------------------------------
# Ordered concatenation.


def _fin_coords(piece, size: int, offset: int = 0) -> frozenset:
    """The coordinates of a finite segment inside a piece, shifted."""
    if piece[0] in ("dense", "schematic"):
        raise PresentationError("colour rule not usable on a finite segment")
    return frozenset(c + offset for c in range(size) if piece_contains(piece, c))


def ordered_sum(a: ChainSpec, b: ChainSpec) -> ChainSpec:
    """Concatenate two chains, b on top of a.

    Adjacent finite segments merge, empty finite segments never occur
    (construction forbids them), and colours are joined by name.
    """
    names = []
    for c in itertools.chain(a.colours, b.colours):
        if c.name not in names:
            names.append(c.name)

    def rules_of(spec: ChainSpec, name: str):
        try:
            col = spec.colour_named(name)
        except PresentationError:
            return (NONE,) * len(spec.segments)
        return tuple(col.rule_at(i) for i in range(len(spec.segments)))

    segs = list(a.segments)
    per_name = {n: list(rules_of(a, n)) for n in names}
    b_rules = {n: list(rules_of(b, n)) for n in names}

    b_segs = list(b.segments)
    start = 0
    if segs and b_segs and segs[-1].kind is SegKind.FIN and b_segs[0].kind is SegKind.FIN:
        left, right = segs[-1], b_segs[0]
        segs[-1] = Segment(SegKind.FIN, left.size + right.size)
        for n in names:
            per_name[n][-1] = ("only", _fin_coords(per_name[n][-1], left.size)
                               | _fin_coords(b_rules[n][0], right.size, left.size))
        start = 1
    for i in range(start, len(b_segs)):
        segs.append(b_segs[i])
        for n in names:
            per_name[n].append(b_rules[n][i])

    colours = tuple(ColourRule(n, tuple(per_name[n])) for n in names)
    return ChainSpec(tuple(segs), colours)


# ---------------------------------------------------------------------------
# Stock chains.


def fin(n: int) -> ChainSpec:
    if n == 0:
        return ChainSpec(())
    return ChainSpec((Segment(SegKind.FIN, n),))


def omega() -> ChainSpec:
    return ChainSpec((Segment(SegKind.OMEGA),))


def omega_star() -> ChainSpec:
    return ChainSpec((Segment(SegKind.OMEGA_STAR),))


def integers() -> ChainSpec:
    return ChainSpec((Segment(SegKind.INT),))


def dense_q() -> ChainSpec:
    return ChainSpec((Segment(SegKind.DENSE_Q),))


def dense_complete() -> ChainSpec:
    return ChainSpec((Segment(SegKind.DENSE_COMPLETE),))
