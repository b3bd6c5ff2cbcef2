"""Order, colour, and cut behaviour of coloured chains."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
