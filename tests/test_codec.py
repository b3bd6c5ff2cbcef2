"""JSON presentation round trips for groups and pairs."""

import json
from pathlib import Path

import pytest

from oagkit.catalogue import GROUPS, PAIRS, builtin_group, builtin_pair
from oagkit.chain import INF, ChainSpec, ColourRule, Position, contains
from oagkit.classify import Reason, Status
from oagkit.codec import (dumps, group_from_data, group_to_data, load_group,
                          load_pair, pair_from_data, pair_to_data, to_jsonable)
from oagkit.errors import PresentationError
from oagkit.group import GroupSpec
from oagkit.rib import RibElement
from oagkit.valuation import spine_m, sv_pos, value_set_contains
from fractions import Fraction


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_round_trip(name):
    g = builtin_group(name)
    data = json.loads(dumps(group_to_data(g)))
    assert group_from_data(data) == g


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_round_trip(name):
    pair = builtin_pair(name)
    data = json.loads(dumps(pair_to_data(pair)))
    assert pair_from_data(data) == pair


def test_dumps_is_deterministic():
    g = builtin_group("g2")
    assert dumps(group_to_data(g)) == dumps(group_to_data(g))


def test_scalar_encodings():
    assert to_jsonable(Fraction(-5, 2)) == "-5/2"
    assert to_jsonable(RibElement(Fraction(1, 2), 3)) == {"q": "1/2", "w": "3"}
    g = builtin_group("z")
    e = g.el([((0, 0), 7)])
    assert to_jsonable(e) == "el(pos(0, 0): 7)"


def test_to_jsonable_precedence():
    # each type's encoder is resolved once, so the first type seen must
    # not decide for a related one
    assert to_jsonable(1) == 1 and type(to_jsonable(True)) is bool
    assert to_jsonable(INF) == "inf"
    assert to_jsonable(Status.SE) == "stably embedded"
    assert to_jsonable(Reason("r", Position(0, 2))) == {
        "type": "Reason", "rule": "r", "witness": "pos(0, 2)", "detail": ""}
    assert to_jsonable(Position(1, Fraction(1, 2))) == "pos(1, 1/2)"
    assert to_jsonable(frozenset({3, Fraction(1, 2)})) == ["1/2", 3]  # by repr
    assert to_jsonable(frozenset({"b", "a"})) == ["a", "b"]

    class Opaque:
        def __repr__(self):
            return "opaque"

    assert to_jsonable({1: [Opaque()]}) == {"1": ["opaque"]}


def test_load_by_name_prefix_and_path(tmp_path):
    assert load_group("z2") == builtin_group("z2")
    assert load_group("builtin:z2") == builtin_group("z2")
    path = tmp_path / "z2.json"
    path.write_text(dumps(group_to_data(builtin_group("z2"))))
    assert load_group(str(path)) == builtin_group("z2")
    with pytest.raises(PresentationError):
        load_group("not_home")
    assert load_pair("mod2") == builtin_pair("mod2")


COLOURED = {
    "name": "coloured", "mode": "hahn",
    "spine": {
        "segments": [{"kind": "fin", "size": 3}, {"kind": "omega"},
                     {"kind": "dense_q"}, {"kind": "dense_complete"},
                     {"kind": "int"}, {"kind": "omega_star"}],
        "colours": [
            {"name": "c", "rules": [
                {"rule": "finite", "coords": [0, 2]},
                {"rule": "cofinite", "excluded": [1]},
                {"rule": "dense_codense", "representable": False},
                {"rule": "dense_codense", "representable": True},
                {"rule": "all"},
                {"rule": "none"}]},
            {"name": "marks", "rules": [
                {"rule": "none"},
                {"rule": "schematic_singletons", "params": [2, 3]},
                {"rule": "none"}, {"rule": "none"}, {"rule": "none"},
                {"rule": "none"}]}]},
    "ribs": [
        {"rib": {"name": "z", "domain": "int", "cut_complete": True,
                 "nonstandard": False}, "colour": "c"},
        {"rib": {"name": "q", "domain": "rat", "cut_complete": False,
                 "nonstandard": False}}],
}


def test_a_json_boolean_is_no_coordinate():
    data = json.loads(json.dumps(COLOURED))
    data["spine"]["colours"][0]["rules"][1] = {"rule": "finite", "coords": [True]}
    with pytest.raises(PresentationError, match="coordinate True"):
        group_from_data(data)


def test_every_colour_rule_kind_survives_the_codec_and_reads_pointwise():
    g = group_from_data(json.loads(json.dumps(COLOURED)))
    assert json.loads(dumps(group_to_data(g))) == COLOURED
    assert group_from_data(group_to_data(g)) == g
    vs = spine_m(g, 2)
    # position -> (in colour c, in the schematic family "marks")
    table = {
        Position(0, 0): (True, False), Position(0, 1): (False, False),
        Position(0, 2): (True, False), Position(1, 0): (True, True),
        Position(1, 1): (False, True), Position(1, 7): (True, True),
        Position(2, Fraction(1, 2)): (False, False),
        Position(3, 0): (True, False), Position(4, -3): (True, False),
        Position(5, 2): (False, False),
    }
    for p, (in_c, in_marks) in table.items():
        for name, member in (("c", in_c), ("marks", in_marks)):
            piece = g.spine.colour_named(name).rule_at(p.seg)
            assert contains(piece, p.coord) is member, p
        assert g.rib_at(p).name == ("z" if in_c else "q"), p
        assert value_set_contains(g, vs, sv_pos(p)) is in_c, p


def test_a_patched_dense_piece_is_written_to_results_but_not_to_colour_rules():
    g = load_group(str(Path(__file__).parent / "presentations"
                       / "patched_dense.json"))
    assert to_jsonable(spine_m(g, 2))["pieces"] == [["dense", "c", True, ["1/2"]]]
    patched = ChainSpec(g.spine.segments, (ColourRule("c", spine_m(g, 2).pieces),))
    with pytest.raises(PresentationError, match="no colour rule writes"):
        group_to_data(GroupSpec("patched", patched, g.ribs, g.mode))


def test_decoding_shares_one_rib_and_one_segment_per_distinct_value():
    """Two decodes of one presentation, and two clauses of one rib, hold
    the same RibSpec and Segment objects, each checked once; a rib's
    stored hash is that of its fields."""
    for name in ("qqz", "h235", "z2r"):
        data = group_to_data(builtin_group(name))
        one = group_from_data(data)
        two = group_from_data(json.loads(dumps(data)))
        assert all(s is t for s, t in zip(one.spine.segments,
                                          two.spine.segments))
        ribs = [e.rib for e in one.ribs]
        assert all(r is e.rib for r, e in zip(ribs, two.ribs))
        for r in ribs:
            assert hash(r) == hash((r.name, r.domain, r.cut_complete,
                                    r.nonstandard))
    q_clauses = [e.rib for e in group_from_data(
        group_to_data(builtin_group("qqz"))).ribs if e.rib.name == "q"]
    assert len(q_clauses) == 2 and q_clauses[0] is q_clauses[1]


@pytest.mark.parametrize("entries,cut_complete,message", [
    ([[2]], True, "bad rib domain ('coprime', ([2],))"),
    ([2.0], True, "bad rib domain ('coprime', (2.0,))"),
    ([True], True, "bad rib domain ('coprime', (True,))"),
    ([4], True, "4 is not prime"),
    ([2], 1, "cut_complete must be a bool, got 1"),
], ids=["list-entry", "float-entry", "bool-entry", "composite-entry",
        "int-flag"])
def test_a_malformed_domain_is_refused_after_its_twin_was_decoded(
        entries, cut_complete, message):
    """A refused rib finds no stored rib it merely equals: 2.0 == 2 and
    True == 1, but neither is a prime entry."""
    def group(entries, cut_complete):
        return {"name": "x", "spine": {"segments": [{"kind": "omega"}]},
                "ribs": [{"rib": {"name": "a", "domain": {"coprime": entries},
                                  "cut_complete": cut_complete}}]}
    group_from_data(group([2], True))
    with pytest.raises(PresentationError) as err:
        group_from_data(group(entries, cut_complete))
    assert str(err.value) == message
