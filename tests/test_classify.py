"""Verdict tables for groups, pairs, finite-rank towers, and hypotheses."""

import pytest

from oagkit.catalogue import builtin_group, builtin_pair, sigma_group
from oagkit.chain import ChainSpec, ColourRule, Position, Segment, SegKind
from oagkit.classify import (Status, all_cuts_definable, check_elementary_pair,
                             classify_frr, classify_main, classify_pair,
                             classify_regular, frr_classes, regular_rank)
from oagkit.errors import (HypothesisViolated, NotFRRError, NotRegularError)
from oagkit.group import GroupSpec, PairSpec, RibEntry
from oagkit.rib import RibSpec, window_rib, z_rib


def test_schematic_prime_ladder_is_open():
    v = classify_main(builtin_group("h_primes"))
    assert v.status is Status.UNKNOWN


def test_local_ring_product_has_rib_cuts():
    v = classify_main(builtin_group("h235"))
    assert v.status is Status.NOT_SE
    assert any(r.rule == "rib-cut" for r in v.reasons)


# -- regular and finite-rank groups -------------------------------------------


def test_regular_verdicts():
    assert classify_regular(builtin_group("z")).status is Status.USE
    assert classify_regular(builtin_group("q")).status is Status.NOT_SE
    assert classify_regular(builtin_group("r")).status is Status.USE


def test_regular_rejects_wide_groups():
    with pytest.raises(NotRegularError):
        classify_regular(builtin_group("z2"))


def test_rank_counts_convex_blocks():
    assert len(regular_rank(builtin_group("z")).classes) == 1
    assert len(regular_rank(builtin_group("z2")).classes) == 2
    assert len(regular_rank(builtin_group("z2r")).classes) == 3
    assert len(regular_rank(builtin_group("qqz")).classes) == 1


def test_frr_needs_a_finite_spine():
    with pytest.raises(NotFRRError):
        classify_frr(builtin_group("sigma"))


def test_frr_block_structure():
    assert len(frr_classes(builtin_group("z2r"))) == 3
    assert len(frr_classes(builtin_group("zq"))) == 2
    assert len(frr_classes(builtin_group("qz"))) == 1


# -- cut definability and hypotheses ------------------------------------------


def test_cut_definability_summary():
    assert all_cuts_definable(builtin_group("g1")).definable
    rep = all_cuts_definable(builtin_group("sigma"))
    assert not rep.definable
    assert rep.witness is not None


def test_limit_values_block_the_cut_analysis():
    with pytest.raises(HypothesisViolated) as exc:
        all_cuts_definable(builtin_group("g4"))
    assert exc.value.check == "no limit values"
    assert exc.value.witness is not None


def test_unstable_value_sets_block_the_cut_analysis():
    with pytest.raises(HypothesisViolated) as exc:
        all_cuts_definable(builtin_group("g3"))
    assert exc.value.check == "uniform value sets"


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


def test_elementary_screen():
    same, _ = check_elementary_pair(builtin_pair("z_window"))
    assert same is True
    verdict, _ = check_elementary_pair(builtin_pair("sum_in_hahn"))
    assert verdict is not False


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
