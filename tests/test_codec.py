"""JSON presentation round trips for groups and pairs."""

import json

import pytest

from oagkit.catalogue import GROUPS, PAIRS, builtin_group, builtin_pair
from oagkit.chain import Position, piece_contains
from oagkit.codec import (dumps, group_from_data, group_to_data, load_group,
                          load_pair, pair_from_data, pair_to_data, to_jsonable)
from oagkit.errors import PresentationError
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
            assert piece_contains(piece, p.coord) is member, p
        assert g.rib_at(p).name == ("z" if in_c else "q"), p
        assert value_set_contains(g, vs, sv_pos(p)) is in_c, p
