"""Verdict tables for groups, pairs, finite-rank towers, and hypotheses."""

import importlib.util
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest

from oagkit.approx import best_approx
from oagkit.catalogue import (GROUPS, PAIRS, builtin_group, builtin_pair,
                              q_group, sigma_group, z_group)
from oagkit.chain import ChainSpec, ColourRule, Position, Segment, SegKind, fin
from oagkit.classify import (Status, _fresh_elements, classify_frr,
                             classify_main, classify_pair, frr_classes)
from oagkit.codec import group_from_data, load_group, pair_from_data
from oagkit.errors import NotFRRError, OagError, PresentationError
from oagkit.group import Generator, GroupSpec, PairSpec, RibEntry, SchematicRib
from oagkit.pseudo import NoMaximum, immediate_ext_check
from oagkit.rib import (OMEGA_UNIT, RibElement, RibSpec, q_rib, r_proxy_rib,
                        rib_pair_stably_embedded, window_rib, z_local_rib,
                        z_rib)
from oagkit.valuation import _union_piece, check_m, check_ur, regular_spine

PRESENTATIONS = Path(__file__).parent / "presentations"


def test_schematic_prime_ladder_is_open():
    v = classify_main(builtin_group("h_primes"))
    assert v.status is Status.UNKNOWN


def test_local_ring_product_has_rib_cuts():
    v = classify_main(builtin_group("h235"))
    assert v.status is Status.NOT_SE
    assert any(r.rule == "rib-cut" for r in v.reasons)


@pytest.mark.parametrize("mode", ["hahn", "sum"])
def test_a_colour_holding_no_point_of_a_finite_segment_splits_nothing(mode):
    """On fin(2) the colour ``minus {0, 1}`` holds no point, so its Q
    clause reaches no coordinate: the group reads as the plain Z one,
    USE, with no rib cut citing Q."""
    spine = ChainSpec((Segment(SegKind.FIN, 2),),
                      (ColourRule("c", (("minus", frozenset({0, 1})),)),))
    dead = GroupSpec("dead", spine, (RibEntry(rib=q_rib(), colour="c"),
                                     RibEntry(rib=z_rib())), mode)
    plain = GroupSpec("plain", spine, (RibEntry(rib=z_rib()),), mode)
    assert dead.layouts[0].rules == (z_rib(),)
    v = classify_main(dead)
    assert v.status is Status.USE
    assert v == classify_main(plain)


# -- regular and finite-rank groups -------------------------------------------


def test_regular_verdicts():
    assert classify_frr(builtin_group("z")).status is Status.USE
    assert classify_frr(builtin_group("q")).status is Status.NOT_SE
    assert classify_frr(builtin_group("r")).status is Status.USE


def test_rank_counts_convex_blocks():
    assert len(frr_classes(builtin_group("z"))) == 1
    assert len(frr_classes(builtin_group("z2"))) == 2
    assert len(frr_classes(builtin_group("z2r"))) == 3
    assert len(frr_classes(builtin_group("qqz"))) == 1


def test_frr_needs_a_finite_spine():
    with pytest.raises(NotFRRError):
        classify_frr(builtin_group("sigma"))


def test_frr_block_structure():
    assert len(frr_classes(builtin_group("z2r"))) == 3
    assert len(frr_classes(builtin_group("zq"))) == 2
    assert len(frr_classes(builtin_group("qz"))) == 1


# a schematic rule under two position clauses: Q at 2 and R at 3 are
# divisible, and each other coordinate n resists by its own prime
FIN6 = GroupSpec("fin6", fin(6), (
    RibEntry(rib=q_rib(), position=Position(0, 2)),
    RibEntry(rib=r_proxy_rib(), position=Position(0, 3)),
    RibEntry(schematic=SchematicRib("z_local"))), "sum")


def _blocks_per_position(g):
    """Convex blocks of a finite spine read position by position, each
    closed on top where the rib there resists division by some prime."""
    blocks, block = [], []
    for i, seg in enumerate(g.spine.segments):
        for c in range(seg.size):
            p = Position(i, c)
            block.append(p)
            if g.rib_at(p).nondivisible_primes != ():
                blocks.append(tuple(block))
                block = []
    return tuple(blocks + [tuple(block)] if block else blocks)


def _groups_for_blocks():
    """The catalogue, the presentations that build, the group draws of
    ``verdict_stream`` seeds 0-5 that build, and FIN6."""
    groups = [builtin_group(name) for name in sorted(GROUPS)]
    for path in sorted(PRESENTATIONS.glob("*.json")):
        try:
            groups.append(load_group(str(path)))
        except OagError:
            pass
    gen = _bench_gen()
    for seed in range(6):
        for kind, d in itertools.islice(gen.verdict_stream(seed), 1500):
            if kind == "group":
                try:
                    groups.append(group_from_data(d))
                except PresentationError:
                    pass
    return groups + [FIN6]


def test_convex_blocks_close_at_the_union_of_the_prime_value_sets():
    assert frr_classes(FIN6) == ((Position(0, 0),), (Position(0, 1),),
                                 tuple(Position(0, c) for c in (2, 3, 4)),
                                 (Position(0, 5),))
    assert frr_classes(load_group(str(PRESENTATIONS / "q_at_one.json"))) \
        == ((Position(0, 0),), (Position(0, 1), Position(0, 2)))
    finite = sparse = 0
    for g in _groups_for_blocks():
        if g.spine.finite:
            finite += 1
            assert frr_classes(g) == _blocks_per_position(g), g.name
            assert regular_spine(g) is not None, g.name
            continue
        n = len(g.spine.segments)
        identity = all(_union_piece(g, i)[0] in ("all", "dense")
                       for i in range(n))
        sparse += not identity
        assert (regular_spine(g) is None) is not identity, g.name
    assert finite > 500 and sparse > 100


# -- pairs ---------------------------------------------------------------------


def test_identity_pairs_are_stably_embedded():
    for name in ("z", "q", "r", "z2r", "g1", "h235"):
        v = classify_pair(builtin_pair(name))
        assert v.status is Status.SE, name
        assert any(r.rule == "identity" for r in v.reasons)


def test_sum_inside_its_product_misses_a_limit():
    v = classify_pair(builtin_pair("sum_in_hahn"))
    assert v.status is Status.NOT_SE
    assert any(r.rule == "missing-pseudo-limit" for r in v.reasons)


def test_window_extensions_are_tame():
    assert classify_pair(builtin_pair("z_window")).status is Status.SE
    assert classify_pair(builtin_pair("z2_window")).status is Status.SE


def test_a_pair_walks_its_rib_pairs_once(monkeypatch):
    walks = []
    walk = PairSpec._walk_rib_pairs
    monkeypatch.setattr(PairSpec, "_walk_rib_pairs",
                        lambda pair: walks.append(pair) or walk(pair))
    for name in sorted(PAIRS):
        walks.clear()
        pair = builtin_pair(name)
        classify_pair(pair)
        _fresh_elements(pair)
        assert len(walks) == 1 and walks[0] is pair, name


def test_elementary_screen():
    same, _ = builtin_pair("z_window").elementary
    assert same is True
    verdict, _ = builtin_pair("sum_in_hahn").elementary
    assert verdict is not False
    # Z inside Q fails the screen, and no verdict is posed
    z_in_q = PairSpec(z_group(), q_group())
    assert z_in_q.elementary[0] is False
    v = classify_pair(z_in_q)
    assert v.status is Status.UNKNOWN
    assert [r.rule for r in v.reasons] == ["not-elementary"]


@pytest.mark.parametrize("coord", [0, 10, 1000])
def test_a_window_widened_at_one_coordinate_adds_width_there(coord):
    small = sigma_group()
    big = GroupSpec("wide_at", small.spine, (
        RibEntry(rib=window_rib(), position=Position(0, coord)),
        RibEntry(rib=z_rib())), mode="sum")
    v = classify_pair(PairSpec(small, big, frozenset({"rib_extension"})))
    assert v.status is Status.SE
    assert [r.witness for r in v.reasons if r.rule == "adds-width"] == [
        Position(0, coord)]


def test_a_window_widened_on_a_colour_side_adds_width_at_its_first_point():
    # the colour misses coordinates 0 to 2, so a fixed sample of the first
    # coordinates never meets the window
    spine = ChainSpec((Segment(SegKind.OMEGA),),
                      (ColourRule("late", (("minus", frozenset({0, 1, 2})),)),))
    small = GroupSpec("z_late", spine, (RibEntry(rib=z_rib()),), mode="sum")
    big = GroupSpec("window_late", spine, (
        RibEntry(rib=window_rib(), colour="late"),
        RibEntry(rib=z_rib())), mode="sum")
    v = classify_pair(PairSpec(small, big, frozenset({"rib_extension"})))
    assert [r.witness for r in v.reasons if r.rule == "adds-width"] == [
        Position(0, 3)]


def _widened_at(rib, coords):
    """sigma's spine and z ribs, with ``rib`` at each listed coordinate."""
    small = sigma_group()
    big = GroupSpec("widened", small.spine, tuple(
        RibEntry(rib=rib, position=Position(0, c)) for c in coords) + (
        RibEntry(rib=z_rib()),), mode="sum")
    return PairSpec(small, big, frozenset({"rib_extension"}))


def test_one_rib_pair_at_many_clauses_adds_width_once():
    v = classify_pair(_widened_at(window_rib(), range(200)))
    assert v.status is Status.SE
    assert [r.witness for r in v.reasons if r.rule == "adds-width"] == [
        Position(0, 0)]


def test_one_open_rib_pair_at_many_clauses_is_reported_once():
    v = classify_pair(_widened_at(RibSpec("z_other"), range(3, 23)))
    assert v.status is Status.UNKNOWN
    assert [r.witness for r in v.reasons if r.rule == "rib-pair-open"] == [
        Position(0, 3)]


# -- congruence ladders -------------------------------------------------------


def test_a_small_group_with_generators_leaves_the_ladders_open():
    # a generator pair of the generated stream: z widened to the window
    # under one generator tail; the tail lattice is not searched, so the
    # ladders stay open rather than reading stably embedded
    omega = ChainSpec((Segment(SegKind.OMEGA),))
    gens = (Generator("a", RibElement(2)),)
    small = GroupSpec("z_a", omega, (RibEntry(rib=z_rib()),), "sum", gens)
    big = GroupSpec("window_a", omega, (RibEntry(rib=window_rib()),), "sum",
                    gens)
    v = classify_pair(PairSpec(small, big, frozenset({"rib_extension"})))
    assert v.status is Status.UNKNOWN
    assert v.reasons[-1].rule == "congruence-ladder-open"
    assert "generators" in v.reasons[-1].detail


def _generator_pair(rib_s, rib_b, tail):
    """fin(1) + omega, z under the window at the first position and
    ``rib_s`` under ``rib_b`` past it; the big group adds a generator
    holding W at the first position and ``tail`` past it."""
    spine = ChainSpec((Segment(SegKind.FIN, 1), Segment(SegKind.OMEGA)))
    small = GroupSpec("small", spine, (RibEntry(rib=z_rib(), segment=0),
                                       RibEntry(rib=rib_s)), "sum")
    w = Generator("w", RibElement(*tail), ((Position(0, 0), OMEGA_UNIT),))
    big = GroupSpec("big", spine, (RibEntry(rib=window_rib(), segment=0),
                                   RibEntry(rib=rib_b)), "sum", (w,))
    return PairSpec(small, big, frozenset({"generator_extension",
                                           "rib_extension"}))


# (small rib, big rib, generator tail as (q, w), least ladder modulus)
GENERATOR_TAILS = [
    (z_rib(), window_rib(), (0, 1), 2),
    (z_rib(), window_rib(), (4, 2), 4),
    (z_rib(), window_rib(), (59, 1), 7),
    (z_rib(), window_rib(), (-1, 1), None),
    (z_rib(), z_rib(), (12, 0), 5),
    (z_rib(), z_rib(), (840, 0), 9),
    (z_local_rib(2), z_local_rib(2), (Fraction(8, 3), 0), 16),
    (z_local_rib(3), z_local_rib(3), (9, 0), 27),
    (q_rib(), q_rib(), (Fraction(1, 2), 0), None),
]


@pytest.mark.parametrize("rib_s, rib_b, tail, modulus", GENERATOR_TAILS)
def test_a_generator_ladder_is_found_at_its_least_modulus(rib_s, rib_b, tail,
                                                          modulus):
    v = classify_pair(_generator_pair(rib_s, rib_b, tail))
    ladders = [r.detail for r in v.reasons if r.rule == "congruence-ladder"]
    if modulus is None:
        assert v.status is Status.SE and not ladders
    else:
        assert v.status is Status.NOT_SE
        assert ladders == [f"no best approximation of generator w modulo "
                           f"{modulus}: the residue ladder is pseudo-convergent "
                           "with no pseudo-limit in the small group, and its "
                           "trace is not definable"]


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs_to_compare():
    """The generated pairs of ``verdict_stream`` seeds 0-5 that build, the
    catalogue pairs and the generator pairs above."""
    gen = _bench_gen()
    pairs = [builtin_pair(name) for name in PAIRS]
    pairs += [_generator_pair(*row[:3]) for row in GENERATOR_TAILS]
    for seed in range(6):
        for kind, d in itertools.islice(gen.verdict_stream(seed), 1500):
            if kind == "pair":
                try:
                    pairs.append(pair_from_data(d))
                except PresentationError:
                    pass
    return pairs


def _searched(pair, top=30):
    """``classify_pair``'s rules with each fresh element's congruence
    ladder looked for by asking best_approx at every modulus from 2 to
    ``top``: (status, [(rule, modulus or None)])."""
    if pair.small == pair.big:
        return Status.SE, [("identity", None)]
    if pair.elementary[0] is False:
        return Status.UNKNOWN, [("not-elementary", None)]
    rules, open_rules = [("elementary", None)], []
    fresh = [h for _, h in _fresh_elements(pair) if not pair.small.contains(h)]
    for h in fresh:
        if immediate_ext_check(pair, h).kind == "no_maximum":
            return Status.NOT_SE, rules + [("missing-pseudo-limit", None)]
        rules.append(("adds-width", None))
    ready = check_ur(pair.small).holds and check_m(pair.small).holds
    if fresh and pair.small.generators:
        open_rules.append(("congruence-ladder-open", None))
        fresh = []
    for h in fresh:
        m = next((m for m in range(2, top + 1) if isinstance(
            best_approx(pair, h, 1, m), NoMaximum)), None)
        if m is not None and ready:
            return Status.NOT_SE, rules + [("congruence-ladder", m)]
        if m is not None:
            open_rules.append(("congruence-ladder-open", m))
    seen = set()
    for _, rib_s, rib_b in pair.rib_pairs():
        if (rib_s, rib_b) not in seen:
            seen.add((rib_s, rib_b))
            ok, _ = rib_pair_stably_embedded(rib_s, rib_b)
            if ok is False:
                return Status.NOT_SE, rules + [("rib-pair-cut", None)]
            if ok is None:
                open_rules.append(("rib-pair-open", None))
    rules.append(("spine", None))
    return Status.UNKNOWN if open_rules else Status.SE, rules + open_rules


def test_classify_pair_asks_the_modulus_a_search_to_30_finds():
    compared = 0
    for pair in _pairs_to_compare():
        v = classify_pair(pair)
        got = [(r.rule, int(m.group(1)) if (m := re.search(
            r"modulo (\d+)", r.detail)) and "ladder" in r.rule else None)
            for r in v.reasons]
        assert (v.status, got) == _searched(pair), pair
        compared += 1
    assert compared > 1000
