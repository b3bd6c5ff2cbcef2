"""Rib clauses compiled into one layout per segment.

Each group below is written with explicit position clauses or colours
that a fixed sample of coordinates would miss; the answers must hold at
every coordinate.  Two invariances restate the transfer principle:
rewriting a presentation without changing the valued group changes no
valuation, membership or value set.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (_clause_rib, factoring_hits, oracle_contains,
                     oracle_limit_witness, oracle_val_m)

from oagkit.chain import (ALL, NONE, ChainSpec, ColourRule, Cut, CutKind,
                          LimitSide, Position, Segment, SegKind)
from oagkit.classify import Status, classify_main
from oagkit.errors import PositionOutOfDomain, PresentationError
from oagkit.group import (Generator, GroupSpec, PairSpec, RibEntry,
                          SchematicRib)
from oagkit.rib import (RibElement, RibSpec, q_rib, r_proxy_rib, window_rib,
                        z_local_rib, z_rib)
from oagkit.valuation import (SpineValueKind, check_m, spine_m, sv_limit,
                              sv_pos, val_m, value_set_contains)

OMEGA = ChainSpec((Segment(SegKind.OMEGA),))
HALF = Fraction(1, 2)


def _at(rib, c, default, mode="hahn", spine=OMEGA, generators=()):
    """rib at coordinate c of segment 0, default everywhere else."""
    return GroupSpec("at", spine, (RibEntry(rib=rib, position=Position(0, c)),
                                   RibEntry(rib=default)), mode, generators)


def test_a_position_clause_past_a_sample_still_holds_its_rib():
    g = _at(z_rib(), 10, q_rib())
    assert not g.contains(g.el(tail=HALF))
    assert g.contains(g.el([((0, 10), 3)], tail=HALF))
    assert val_m(g, g.el(tail=1), 2) == sv_pos(Position(0, 10))
    assert spine_m(g, 2).pieces == (("only", {10}),)


def test_a_position_clause_on_a_finite_spine_reaches_the_rib_verdict():
    g = GroupSpec("q_at_one", ChainSpec((Segment(SegKind.FIN, 3),)),
                  (RibEntry(rib=q_rib(), position=Position(0, 1)),
                   RibEntry(rib=z_rib())), "sum")
    last = classify_main(g).reasons[-1]
    assert last.rule == "rib-cut" and last.witness == q_rib()


def test_a_generator_tail_is_read_against_the_eventual_rib():
    gen = (Generator("a", RibElement(HALF)),)
    # Q from coordinate 1 on, but the tail must lie in every rib
    with pytest.raises(PresentationError, match=r"leaves the ribs at pos\(0, 0\)$"):
        _at(z_rib(), 0, q_rib(), "sum", generators=gen)
    with pytest.raises(PresentationError, match="cofinally"):
        _at(q_rib(), 0, z_rib(), "sum", generators=gen)
    # 10/7 lies in z_(5) but not in the integer rib at coordinate 2
    with pytest.raises(PresentationError, match=r"pos\(0, 2\)$"):
        _at(z_rib(), 2, z_local_rib(5), "sum",
            generators=(Generator("a", RibElement(Fraction(10, 7))),))


def test_a_pair_compares_every_position_clause():
    small = _at(q_rib(), 10, z_rib(), "sum")
    big = GroupSpec("zz", OMEGA, (RibEntry(rib=z_rib()),), "hahn")
    with pytest.raises(PresentationError, match=r"pos\(0, 10\)"):
        PairSpec(small, big)


def test_two_colours_splitting_one_segment_are_refused():
    spine = ChainSpec((Segment(SegKind.OMEGA),),
                      (ColourRule("a", (("only", frozenset({0})),)),
                       ColourRule("b", (("only", frozenset({1})),))))
    with pytest.raises(PresentationError, match="both split"):
        GroupSpec("ab", spine, (RibEntry(rib=z_rib(), colour="a"),
                                RibEntry(rib=q_rib(), colour="b"),
                                RibEntry(rib=window_rib())))


def test_a_colour_empty_on_a_segment_leaves_it_to_the_next_clause():
    spine = ChainSpec((Segment(SegKind.FIN, 1),), (ColourRule("c", (("none",),)),))
    g = GroupSpec("z", spine, (RibEntry(rib=q_rib(), colour="c"),
                               RibEntry(rib=z_rib())), "sum")
    assert g.layouts[0].rules == (z_rib(),)
    assert classify_main(g).status is Status.USE


def test_a_segment_part_no_clause_covers_is_refused():
    two = ChainSpec((Segment(SegKind.OMEGA), Segment(SegKind.OMEGA)))
    with pytest.raises(PresentationError,
                       match="no rib clause covers part of segment 1"):
        GroupSpec("u", two, (RibEntry(rib=z_rib(), segment=0),), "hahn")
    three = ChainSpec((Segment(SegKind.FIN, 3),),
                      (ColourRule("c", (("only", frozenset({0, 1})),)),))
    with pytest.raises(PresentationError, match="segment 0"):
        GroupSpec("c", three, (RibEntry(rib=z_rib(), colour="c"),), "sum")


def test_a_side_without_a_clause_but_without_a_free_point_builds():
    # off the colour, segment 0 is the one point a position clause names
    three = ChainSpec((Segment(SegKind.FIN, 3),),
                      (ColourRule("c", (("only", frozenset({0, 1})),)),))
    g = GroupSpec("c", three, (RibEntry(rib=z_rib(), colour="c"),
                               RibEntry(rib=q_rib(), position=Position(0, 2))),
                  "sum")
    assert [g.rib_at(Position(0, c)) for c in range(3)] == [z_rib(), z_rib(), q_rib()]
    assert classify_main(g).reasons[-1].rule == "rib-cut"
    # a colour holding all of an omega segment leaves nothing off it
    every = ChainSpec((Segment(SegKind.OMEGA),), (ColourRule("c", (ALL,)),))
    g = GroupSpec("c", every, (RibEntry(rib=z_rib(), colour="c"),), "hahn")
    assert g.layouts[0].uniform == z_rib()
    assert classify_main(g).status is Status.SE


def test_colours_on_different_segments_each_split_their_own():
    spine = ChainSpec((Segment(SegKind.OMEGA), Segment(SegKind.OMEGA)),
                      (ColourRule("a", (("only", frozenset({0})),)),
                       ColourRule("b", (("none",), ("only", frozenset({0}))))))
    g = GroupSpec("ab", spine, (RibEntry(rib=z_rib(), colour="a"),
                                RibEntry(rib=q_rib(), colour="b"),
                                RibEntry(rib=r_proxy_rib())))
    assert [g.rib_at(Position(i, c)) for i in (0, 1) for c in (0, 1)] == \
        [z_rib(), r_proxy_rib(), q_rib(), r_proxy_rib()]


def test_a_position_clause_off_the_spine_is_refused():
    with pytest.raises(PositionOutOfDomain):
        _at(z_rib(), 3, q_rib(), spine=ChainSpec((Segment(SegKind.FIN, 3),)))


def test_a_position_clause_after_the_default_is_still_checked():
    spine = ChainSpec((Segment(SegKind.FIN, 3),))
    with pytest.raises(PositionOutOfDomain):
        GroupSpec("late", spine, (RibEntry(rib=q_rib()),
                                  RibEntry(rib=z_rib(), position=Position(0, 3))))


def test_a_finite_segment_pair_reads_one_coordinate_per_rule():
    size, c = 10 ** 6, 5 * 10 ** 5
    spine = ChainSpec((Segment(SegKind.FIN, size),))
    z_all = GroupSpec("z", spine, (RibEntry(rib=z_rib()),), "sum")
    q_at = _at(q_rib(), c, z_rib(), "sum", spine=spine)
    start = time.perf_counter()
    assert [where for where, _, _ in PairSpec(z_all, q_at).rib_pairs()] == \
        [Position(0, 0), Position(0, c)]
    with pytest.raises(PresentationError, match=rf"pos\(0, {c}\)"):
        PairSpec(q_at, z_all)
    assert time.perf_counter() - start < 1.0


def test_a_finite_segment_pair_reads_a_schematic_rule_everywhere():
    spine = ChainSpec((Segment(SegKind.FIN, 5),))
    local = RibEntry(schematic=SchematicRib("z_local"))
    small = GroupSpec("s", spine, (local,), "sum")
    big = GroupSpec("b", spine, (RibEntry(rib=q_rib(), position=Position(0, 2)),
                                 local), "sum")
    pairs = list(PairSpec(small, big).rib_pairs())
    assert [where for where, _, _ in pairs] == [Position(0, c) for c in range(5)]
    assert pairs[3][1:] == (z_local_rib(7), z_local_rib(7))


def test_a_pair_split_on_different_colours_is_refused():
    def split(name):
        spine = ChainSpec((Segment(SegKind.OMEGA),),
                          (ColourRule(name, (("only", frozenset({0})),)),))
        return GroupSpec(name, spine, (RibEntry(rib=z_rib(), colour=name),
                                       RibEntry(rib=q_rib())), "sum")
    with pytest.raises(PresentationError, match="different colours"):
        PairSpec(split("a"), split("b"))


def test_a_schematic_rule_only_pairs_with_itself():
    small = GroupSpec("s", OMEGA, (RibEntry(schematic=SchematicRib("z_local")),),
                      "sum")
    big = GroupSpec("b", OMEGA, (RibEntry(rib=q_rib()),), "hahn")
    with pytest.raises(PresentationError, match="schematic"):
        PairSpec(small, big)
    PairSpec(small, GroupSpec("s^", OMEGA, small.ribs, "hahn"))


@pytest.mark.parametrize("mode", ["hahn", "sum"])
def test_a_far_position_clause_answers_at_once(mode):
    far = 10 ** 9
    start = time.perf_counter()
    g = _at(z_rib(), far, q_rib(), mode)
    assert not g.contains(g.el(tail=HALF))
    assert g.contains(g.el([((0, far), 1)], tail=HALF)) is (mode == "hahn")
    assert val_m(g, g.el(tail=1), 2) == sv_pos(Position(0, far))
    assert spine_m(g, 2).pieces == (("only", {far}),)
    assert classify_main(g).status is Status.NOT_SE
    assert time.perf_counter() - start < 1.0


def test_limit_values_over_many_primes_answer_at_once():
    coprime = RibSpec("x", ("coprime", (2, 3, 5, 7, 11, 13, 17)), False)
    start = time.perf_counter()
    g = _at(coprime, 0, z_rib(), "sum",
            generators=(Generator("a", RibElement(1)),))
    assert classify_main(g).status is Status.UNKNOWN
    assert spine_m(g, 104729).limit_seg is None
    # a modulus too large to factor at once: the relevant primes divide
    # it out, and one prime outside them stands in for the rest
    assert spine_m(g, 998244359987710471).limit_seg is None
    assert time.perf_counter() - start < 1.0


def test_a_limit_value_off_the_pure_tail_is_in_the_value_set():
    # the tail 1 is odd at coordinate 0, where the rib is Z, and even in Q
    # everywhere else; adding 1 there makes every coordinate even
    g = _at(z_rib(), 0, q_rib(), "sum",
            generators=(Generator("a", RibElement(1)),))
    e = g.add(g.generator_element("a"), g.el([((0, 0), 1)]))
    assert val_m(g, e, 2) == sv_limit(0)
    assert value_set_contains(g, spine_m(g, 2), sv_limit(0))
    res = check_m(g)
    assert not res.holds and res.modulus == 2
    assert val_m(g, res.witness, 2) == sv_limit(0)


def _patched_dense(rib):
    """One dense_q segment with a dense colour c: Z on c, and ``rib`` at
    pos(0, 1/2), a point of c, and off c."""
    spine = ChainSpec((Segment(SegKind.DENSE_Q),),
                      (ColourRule("c", (("dense", "c", True),)),))
    return GroupSpec("patched_dense", spine, (
        RibEntry(rib=rib, position=Position(0, HALF)),
        RibEntry(rib=z_rib(), colour="c"), RibEntry(rib=rib)), "hahn")


@pytest.mark.parametrize("rib, rule, witness", [
    (q_rib(), "rib-cut", q_rib()),
    (r_proxy_rib(), "spine-cut",
     Cut(CutKind.LIMIT, index=0, side=LimitSide.INTERIOR))])
def test_a_position_clause_patches_a_dense_colour(rib, rule, witness):
    g = _patched_dense(rib)
    assert spine_m(g, 2).pieces == (("dense", "c", True, {HALF}),)
    verdict = classify_main(g)
    assert verdict.status is Status.NOT_SE
    last = verdict.reasons[-1]
    assert (last.rule, last.witness) == (rule, witness)


# -- invariance under re-presentation -------------------------------------------

RIBS = (z_rib(), q_rib(), z_local_rib(3), window_rib())
TAILS = tuple(RibElement(q, w) for q, w in
              ((0, 0), (1, 0), (HALF, 0), (Fraction(1, 3), 0), (0, 1), (1, 2)))


def _draw(rng):
    c = rng.randrange(0, 14)
    return (c, rng.choice(RIBS), rng.choice(RIBS), rng.choice(("hahn", "sum")),
            [(n, rng.choice((1, 2, 3, HALF, Fraction(2, 3))))
             for n in rng.sample(range(16), rng.randrange(0, 4))],
            rng.choice(TAILS))


def _same_answers(g, h, e, f, to_h):
    for m in (0, 2, 3):
        v, w = val_m(g, e, m), val_m(h, f, m)
        if v.kind is SpineValueKind.POS:
            assert w == sv_pos(to_h(v.position)), (m, v, w)
        elif v.kind is SpineValueKind.LIMIT:
            assert w == sv_limit(h.terminal_omega), (m, v, w)
        else:
            assert w == v, (m, v, w)
    assert g.contains(e) == h.contains(f)


def test_a_position_clause_reads_as_a_one_point_colour():
    rng = random.Random(611)
    for _ in range(150):
        c, r1, r2, mode, coords, tail = _draw(rng)
        g = _at(r1, c, r2, mode)
        spine = ChainSpec(OMEGA.segments,
                          (ColourRule("c", (("only", frozenset({c})),)),))
        h = GroupSpec("colour", spine, (RibEntry(rib=r1, colour="c"),
                                        RibEntry(rib=r2)), mode)
        e = g.el([((0, n), v) for n, v in coords], tail)
        f = h.el([((0, n), v) for n, v in coords], tail)
        _same_answers(g, h, e, f, lambda p: p)
        for m in (2, 3):
            assert spine_m(g, m) == spine_m(h, m)
        assert val_m(g, e, 2) == oracle_val_m(g, e, 2)


@pytest.mark.parametrize("k", [9, 12])
def test_an_initial_run_of_omega_reads_as_a_finite_segment(k):
    rng = random.Random(k)
    split = ChainSpec((Segment(SegKind.FIN, k), Segment(SegKind.OMEGA)))

    def to_h(p):
        return Position(0, p.coord) if p.coord < k else Position(1, p.coord - k)

    for _ in range(100):
        c, r1, r2, mode, coords, tail = _draw(rng)
        g = _at(r1, c, r2, mode)
        h = GroupSpec("split", split,
                      (RibEntry(rib=r1, position=to_h(Position(0, c))),
                       RibEntry(rib=r2)), mode)
        absolute = dict(coords)
        e = g.el([((0, n), v) for n, v in coords], tail)
        # the tail becomes k explicit coordinates of the finite segment
        f = h.el([(to_h(Position(0, n)), absolute.get(n, tail))
                  for n in set(absolute) | set(range(k))], tail)
        _same_answers(g, h, e, f, to_h)
        for m in (2, 3):
            vg, vh = spine_m(g, m), spine_m(h, m)
            for n in range(c + k + 4):
                p = Position(0, n)
                assert value_set_contains(g, vg, sv_pos(p)) == \
                    value_set_contains(h, vh, sv_pos(to_h(p))), (m, n)


# the composites check that a limit modulo m is one modulo some prime p | m
MODULI = (*range(2, 13),
          *(n for n in range(13, 54) if all(n % d for d in range(2, n))))


def test_the_prime_limit_search_matches_the_search_over_every_combination():
    rng, seen = random.Random(1409), set()
    while len(seen) < 40:
        c, r1, r2, _, _, _ = _draw(rng)
        tails = rng.sample(TAILS[1:], rng.randint(1, 2))
        try:
            g = _at(r1, c, r2, "sum", generators=tuple(
                Generator(name, t) for name, t in zip("ab", tails)))
        except PresentationError:
            continue
        witnesses = [(m, oracle_limit_witness(g, m)) for m in MODULI]
        for m, w in witnesses:
            assert (spine_m(g, m).limit_seg is not None) == (w is not None)
            assert w is None or val_m(g, w, m) == sv_limit(0), (m, w)
        res = check_m(g)
        assert (res.modulus, res.witness) == next(
            ((m, w) for m, w in witnesses if w is not None), (None, None))
        seen.add((g, res.holds))
    assert {(len(g.generators), holds) for g, holds in seen} == {
        (1, True), (1, False), (2, False)}


# -- segments with one rib at every coordinate ------------------------------------

LEADS = ((), (Segment(SegKind.FIN, 5),), (Segment(SegKind.OMEGA_STAR),),
         (Segment(SegKind.INT),), (Segment(SegKind.DENSE_Q),))
SCHEMATIC = (SchematicRib("z_local"), SchematicRib("script_z", (3, 2)))
SHORTCUT_VALUES = [RibElement(v) for v in (1, 2, -4, 6, HALF, Fraction(1, 3),
                                           Fraction(3, 2))] + [
    RibElement(1, 1), RibElement(HALF, HALF)]


def _window(seg, named=(), past=10):
    """Coordinates of seg from below its named ones to ``past`` beyond
    them: every one of a finite segment, halves too on a dense one."""
    if seg.kind is SegKind.FIN:
        return list(range(seg.size))
    hi = math.floor(max(named, default=-1)) + 1 + past
    if seg.kind in (SegKind.OMEGA, SegKind.OMEGA_STAR):
        return list(range(hi))
    lo = math.floor(min(named, default=0)) - past
    if seg.kind is SegKind.INT:
        return list(range(lo, hi))
    return sorted({Fraction(n, 2) for n in range(2 * lo, 2 * hi)} | set(named))


@st.composite
def _shortcut_group(draw):
    """A group whose clauses mix position clauses, a colour that splits a
    segment or keeps one rule on both sides, schematic ribs on the
    terminal omega segment and dense segments, in any clause order."""
    segments = draw(st.sampled_from(LEADS)) + (Segment(SegKind.OMEGA),)
    t = len(segments) - 1
    windows = [_window(seg, past=4) for seg in segments]
    ribs = st.sampled_from(RIBS)
    pieces = []
    for seg, coords in zip(segments, windows):
        if seg.kind.is_dense:
            pieces.append(draw(st.sampled_from(
                (ALL, NONE, ("dense", "c", True), ("dense", "c", False)))))
        else:
            picked = frozenset(draw(st.lists(st.sampled_from(coords),
                                             min_size=1, max_size=3)))
            pieces.append(draw(st.sampled_from(
                (ALL, NONE, ("only", picked), ("minus", picked)))))
    coloured = draw(st.booleans())
    clauses = [RibEntry(rib=draw(ribs), position=Position(i, c))
               for i, c in draw(st.lists(st.sampled_from(
                   [(i, c) for i, coords in enumerate(windows) for c in coords]),
                   max_size=2, unique=True))]
    if draw(st.booleans()):
        clauses.append(RibEntry(schematic=draw(st.sampled_from(SCHEMATIC)),
                                segment=t))
    on = draw(ribs)
    if coloured:
        clauses.append(RibEntry(rib=on, colour="c"))
    clauses = list(draw(st.permutations(clauses)))
    default = on if coloured and draw(st.booleans()) else draw(ribs)
    spine = ChainSpec(segments, (ColourRule("c", tuple(pieces)),) if coloured
                      else ())
    return GroupSpec("shortcut", spine, tuple(clauses) + (RibEntry(rib=default),),
                     draw(st.sampled_from(("hahn", "sum"))))


@settings(max_examples=300, deadline=None)
@given(_shortcut_group(), st.data())
def test_a_uniform_segment_reads_the_rib_of_every_coordinate(g, data):
    for i, (seg, lay) in enumerate(zip(g.spine.segments, g.layouts)):
        if lay.uniform is not None:
            for c in _window(seg, lay.named):
                assert g._rib_at(Position(i, c)) == lay.uniform, (i, c)
    slots = [Position(i, c) for i, seg in enumerate(g.spine.segments)
             for c in _window(seg, g.layouts[i].named, past=3)]
    picks = data.draw(st.lists(st.sampled_from(slots), max_size=6, unique=True))
    e = g.el([(p, data.draw(st.sampled_from(SHORTCUT_VALUES))) for p in picks],
             data.draw(st.sampled_from([RibElement(0)] + SHORTCUT_VALUES)))
    assert g.contains(e) == oracle_contains(g, e)
    assert val_m(g, e, 2) == oracle_val_m(g, e, 2)


@settings(max_examples=200, deadline=None)
@given(_shortcut_group())
@example(_patched_dense(q_rib()))
def test_a_value_set_holds_a_position_exactly_when_its_clause_rib_hits(g):
    for m in (2, 3, 6):
        vs = spine_m(g, m)
        for i, seg in enumerate(g.spine.segments):
            for c in _window(seg, g.layouts[i].named):
                p = Position(i, c)
                assert value_set_contains(g, vs, sv_pos(p)) == factoring_hits(
                    _clause_rib(g, p), m), (m, p)


def test_the_uniform_shortcut_covers_both_kinds_of_segment():
    """A colour with one rule on both sides leaves a segment uniform; a
    split, a position clause or a schematic rule does not."""
    spine = ChainSpec((Segment(SegKind.INT), Segment(SegKind.OMEGA)),
                      (ColourRule("c", (("only", frozenset({-2})),
                                        ("minus", frozenset({1})))),))
    same = GroupSpec("same", spine, (RibEntry(rib=q_rib(), colour="c"),
                                     RibEntry(rib=q_rib())))
    assert [lay.uniform for lay in same.layouts] == [q_rib(), q_rib()]
    split = GroupSpec("split", spine, (RibEntry(rib=z_rib(), colour="c"),
                                       RibEntry(rib=q_rib())))
    assert [lay.uniform for lay in split.layouts] == [None, None]
    assert _at(z_rib(), 3, z_rib()).layouts[0].uniform is None
    schematic = GroupSpec("h", OMEGA, (RibEntry(schematic=SCHEMATIC[0]),))
    assert schematic.layouts[0].uniform is None
