"""Order, colour, and cut behaviour of coloured chains."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oagkit.chain import (ALL, NONE, ChainSpec, ColourRule, Cut, CutKind,
                          CutStatus, Position, SegKind, Segment,
                          chain_stably_embedded, classify_cut, cut_classes,
                          dense_complete, dense_q, fin, integers, omega,
                          omega_star, ordered_sum, piece_contains,
                          predecessor_set, successor_set)
from oagkit.errors import PositionOutOfDomain


MIXED = ChainSpec((Segment(SegKind.FIN, 3), Segment(SegKind.OMEGA),
                   Segment(SegKind.INT), Segment(SegKind.DENSE_Q)))


def mixed_positions():
    out = [Position(0, c) for c in range(3)]
    out += [Position(1, c) for c in range(5)]
    out += [Position(2, c) for c in range(-3, 4)]
    out += [Position(3, Fraction(n, d)) for n in range(-4, 5)
            for d in (1, 2, 3)]
    return out


@given(st.sampled_from(mixed_positions()), st.sampled_from(mixed_positions()),
       st.sampled_from(mixed_positions()))
def test_order_is_total_and_transitive(a, b, c):
    assert MIXED.lt(a, b) or MIXED.lt(b, a) or a == b
    if MIXED.lt(a, b) and MIXED.lt(b, c):
        assert MIXED.lt(a, c)


# every chain point from a little below to a little above mixed_positions(),
# the dense segment sampled: a discrete point has an immediate neighbour
# exactly where the next window point on that side is discrete
WINDOW = sorted([Position(0, c) for c in range(3)]
                + [Position(1, c) for c in range(7)]
                + [Position(2, c) for c in range(-5, 6)]
                + [Position(3, Fraction(n, d)) for n in range(-9, 10)
                   for d in (1, 2, 3, 4)], key=MIXED.sort_key)


def _neighbour(p, step):
    i = WINDOW.index(p) + step
    if not 0 <= i < len(WINDOW):
        return None
    q = WINDOW[i]
    return None if 3 in (p.seg, q.seg) else q  # segment 3 is dense


@given(st.sampled_from(mixed_positions()))
def test_successor_bracket(p):
    succ, pred = successor_set(MIXED), predecessor_set(MIXED)
    s = _neighbour(p, 1)
    assert piece_contains(succ.piece(p.seg), p.coord) is (s is not None)
    assert piece_contains(pred.piece(p.seg), p.coord) is \
        (_neighbour(p, -1) is not None)
    if s is not None:
        assert MIXED.lt(p, s)
        assert piece_contains(pred.piece(s.seg), s.coord)


def test_segments_are_ordered_blocks():
    assert MIXED.lt(Position(0, 2), Position(1, 0))
    assert MIXED.lt(Position(1, 999), Position(2, -5))
    assert MIXED.lt(Position(2, 100), Position(3, Fraction(-7, 2)))


def test_position_validation():
    with pytest.raises(PositionOutOfDomain):
        MIXED.check_position(Position(0, 3))
    with pytest.raises(PositionOutOfDomain):
        MIXED.check_position(Position(1, -1))
    with pytest.raises(PositionOutOfDomain):
        MIXED.check_position(Position(4, 0))
    MIXED.check_position(Position(2, -10))


# MIXED with an omega* segment (index 4): every refusal names its cause
WITH_STAR = ordered_sum(MIXED, omega_star())
REFUSED = [
    (Position(5, 0), "segment 5 out of range"),
    (Position(-1, 0), "segment -1 out of range"),
    (Position(1, True), "discrete coordinate must be an int"),
    (Position(2, False), "discrete coordinate must be an int"),
    (Position(2, Fraction(1, 2)), "discrete coordinate must be an int"),
    (Position(1, Fraction(2)), "discrete coordinate must be an int"),
    (Position(3, 0.5), "dense coordinate must be rational"),
    (Position(3, "1"), "dense coordinate must be rational"),
    (Position(1, -1), "coordinate must be nonnegative"),
    (Position(4, -2), "coordinate must be nonnegative"),
    (Position(0, 3), "coordinate 3 outside finite segment"),
    (Position(0, -1), "coordinate -1 outside finite segment"),
    (Position(3, True), "dense coordinate must be rational"),
]


@pytest.mark.parametrize("p, message", REFUSED)
def test_a_refused_position_names_its_cause(p, message):
    for check in (WITH_STAR.check_position, WITH_STAR.sort_key):
        with pytest.raises(PositionOutOfDomain) as info:
            check(p)
        assert str(info.value) == message


def test_positions_at_the_edges_are_accepted():
    for p in (Position(0, 2), Position(1, 10**30), Position(2, -10**30),
              Position(3, 7), Position(3, Fraction(-7, 2)), Position(4, 0)):
        WITH_STAR.check_position(p)


def test_dense_coordinates_are_fractions():
    MIXED.check_position(Position(3, Fraction(1, 2)))
    with pytest.raises(PositionOutOfDomain):
        MIXED.check_position(Position(3, 0.5))


def test_colour_membership():
    ch = ChainSpec((Segment(SegKind.OMEGA),),
                   (ColourRule("start", (("only", frozenset({0, 2})),)),))
    start = ch.colour_named("start").rule_at(0)
    assert piece_contains(start, 0)
    assert not piece_contains(start, 1)
    assert piece_contains(start, 2)


def test_ordered_sum_reindexes_segments():
    ch = ordered_sum(omega(), integers())
    assert [s.kind for s in ch.segments] == [SegKind.OMEGA, SegKind.INT]
    assert ch.lt(Position(0, 50), Position(1, -50))


# -- cuts ---------------------------------------------------------------------


def test_principal_cuts_definable_everywhere():
    for ch in (omega(), omega_star(), integers(), fin(4), dense_q()):
        p = next(iter(ch.sample_positions(1)))
        for kind in (CutKind.PRINCIPAL_PLUS, CutKind.PRINCIPAL_MINUS):
            cc = classify_cut(ch, Cut(kind, position=p))
            assert cc.status is CutStatus.DEFINABLE, (ch, kind, cc)


def test_end_cuts_definable():
    for ch in (omega(), omega_star(), integers(), dense_complete()):
        for kind in (CutKind.MINUS_INF, CutKind.PLUS_INF):
            cc = classify_cut(ch, Cut(kind))
            assert cc.status is CutStatus.DEFINABLE


def test_double_ladder_boundary_not_definable():
    ch = ordered_sum(omega(), omega_star())
    cc = classify_cut(ch, Cut(CutKind.SEGMENT_BOUNDARY, index=0))
    assert cc.status is CutStatus.NOT_DEFINABLE


def test_a_schematic_family_is_no_base_set():
    # one singleton colour per point of omega names no infinite set
    ch = _chain(SegKind.OMEGA, SegKind.OMEGA_STAR,
                colours=(ColourRule("marks", (("schematic", (2,)), NONE)),))
    assert _boundary(ch, 0) is CutStatus.NOT_DEFINABLE


def test_marked_boundary_becomes_definable():
    ch = ChainSpec((Segment(SegKind.OMEGA), Segment(SegKind.OMEGA_STAR)),
                   (ColourRule("head", (ALL, NONE)),))
    cc = classify_cut(ch, Cut(CutKind.SEGMENT_BOUNDARY, index=0))
    assert cc.status is CutStatus.DEFINABLE


def test_cut_classes_cover_the_report():
    ch = ordered_sum(omega(), omega_star())
    cuts = list(cut_classes(ch))
    kinds = {c.kind for c in cuts}
    assert CutKind.SEGMENT_BOUNDARY in kinds
    assert CutKind.MINUS_INF in kinds and CutKind.PLUS_INF in kinds
    # a principal cut is defined by its own point, so none is sampled
    assert not kinds & {CutKind.PRINCIPAL_PLUS, CutKind.PRINCIPAL_MINUS}


def test_chain_suite():
    coloured = ChainSpec(
        (Segment(SegKind.DENSE_COMPLETE),),
        (ColourRule("rational", (("dense", "rational", True),)),))
    marked = ChainSpec(
        (Segment(SegKind.OMEGA), Segment(SegKind.OMEGA_STAR)),
        (ColourRule("head", (ALL, NONE)),))
    expectations = [
        (omega(), CutStatus.DEFINABLE),
        (omega_star(), CutStatus.DEFINABLE),
        (integers(), CutStatus.DEFINABLE),
        (coloured, CutStatus.DEFINABLE),
        (ordered_sum(omega(), omega_star()), CutStatus.NOT_DEFINABLE),
        (marked, CutStatus.DEFINABLE),
    ]
    for ch, want in expectations:
        rep = chain_stably_embedded(ch)
        assert rep.status is want, (ch, rep)


def test_not_definable_report_names_the_boundary():
    rep = chain_stably_embedded(ordered_sum(omega(), omega_star()))
    assert rep.status is CutStatus.NOT_DEFINABLE
    assert rep.witness is not None
    assert rep.witness.kind is CutKind.SEGMENT_BOUNDARY


# -- the boundary rule over small coloured chains ------------------------------


def _boundary(ch, j):
    return classify_cut(ch, Cut(CutKind.SEGMENT_BOUNDARY, index=j)).status


def _chain(*kinds, colours=()):
    return ChainSpec(tuple(Segment(k) for k in kinds), colours)


# boundary 1 of each: no greatest point below it, no least point above it
SETTLED_BOUNDARIES = [
    # the points with no successor are exactly the dense segment
    _chain(SegKind.OMEGA, SegKind.DENSE_Q, SegKind.INT),
    # outside colour c: finitely many points, then all of the omega* segment
    _chain(SegKind.INT, SegKind.OMEGA, SegKind.OMEGA_STAR, colours=(
        ColourRule("c", (("minus", frozenset({-1})), ("only", frozenset({2, 3})),
                         ("minus", frozenset({2, 3})))),)),
    # discrete below, dense above: the run of points with no neighbour
    # through a point of segment 2 ends at the cut
    _chain(SegKind.DENSE_Q, SegKind.INT, SegKind.DENSE_Q, SegKind.OMEGA_STAR),
    # colour c is all of segment 1, and above it only on a finite segment
    ChainSpec((Segment(SegKind.INT), Segment(SegKind.OMEGA),
               Segment(SegKind.OMEGA_STAR), Segment(SegKind.FIN, 2)),
              (ColourRule("c", (NONE, ALL, NONE, ALL)),)),
]


@pytest.mark.parametrize("ch", SETTLED_BOUNDARIES)
def test_a_boundary_that_a_base_set_or_a_density_change_settles(ch):
    assert _boundary(ch, 1) is CutStatus.DEFINABLE


def _coords(seg):
    if seg.kind is SegKind.FIN:
        return list(range(seg.size))
    if seg.kind.is_dense:
        return [Fraction(n, 2) for n in range(-3, 4)]
    if seg.kind is SegKind.INT:
        return list(range(-3, 4))
    return list(range(5))


@st.composite
def _segments(draw):
    kind = draw(st.sampled_from(list(SegKind)))
    return Segment(kind, draw(st.integers(1, 3)) if kind is SegKind.FIN else 0)


@st.composite
def _pieces(draw, seg):
    """Every piece kind a colour rule can take on the segment."""
    tags = ["all", "none", "only", "minus"]
    if seg.kind.is_dense:
        tags.append("dense")
    elif seg.kind is not SegKind.FIN:
        tags.append("schematic")
    tag = draw(st.sampled_from(tags))
    if tag in ("only", "minus"):
        return (tag, frozenset(draw(st.sets(st.sampled_from(_coords(seg)),
                                            max_size=3))))
    if tag == "dense":
        return ("dense", "d", draw(st.booleans()))
    if tag == "schematic":
        return ("schematic", (2,))
    return (tag,)


@st.composite
def small_chains(draw, colours=st.integers(0, 2)):
    segs = tuple(draw(st.lists(_segments(), min_size=2, max_size=4)))
    return ChainSpec(segs, tuple(
        ColourRule(f"c{k}", tuple(draw(_pieces(s)) for s in segs))
        for k in range(draw(colours))))


def _mirror(seg, piece):
    """The piece read on the segment turned upside down: omega and omega*
    count from the end that becomes the other one's, so keep their
    coordinates."""
    if piece[0] not in ("only", "minus"):
        return piece
    if seg.kind is SegKind.FIN:
        coords = (seg.size - 1 - c for c in piece[1])
    elif seg.kind in (SegKind.OMEGA, SegKind.OMEGA_STAR):
        coords = piece[1]
    else:
        coords = (-c for c in piece[1])
    return (piece[0], frozenset(coords))


_TURNED = {SegKind.OMEGA: SegKind.OMEGA_STAR, SegKind.OMEGA_STAR: SegKind.OMEGA}


def top_down(ch):
    """The same coloured chain read from the top."""
    segs = ch.segments[::-1]
    return ChainSpec(
        tuple(Segment(_TURNED.get(s.kind, s.kind), s.size) for s in segs),
        tuple(ColourRule(c.name, tuple(
            _mirror(s, c.rule_at(i)) for i, s in enumerate(ch.segments))[::-1])
            for c in ch.colours))


@settings(max_examples=300)
@given(small_chains())
@example(SETTLED_BOUNDARIES[0])
@example(SETTLED_BOUNDARIES[1])
def test_reading_a_chain_top_down_keeps_every_boundary_status(ch):
    rev = top_down(ch)
    n = len(ch.segments)
    for j in range(n - 1):
        assert _boundary(ch, j) is _boundary(rev, n - 2 - j), j


@settings(max_examples=300)
@given(small_chains(colours=st.integers(0, 1)), st.data())
def test_a_colour_never_unsettles_a_definable_boundary(ch, data):
    extra = ColourRule("extra", tuple(data.draw(_pieces(s)) for s in ch.segments))
    richer = ChainSpec(ch.segments, ch.colours + (extra,))
    for j in range(len(ch.segments) - 1):
        if _boundary(ch, j) is CutStatus.DEFINABLE:
            assert _boundary(richer, j) is CutStatus.DEFINABLE, j
