"""Printing, parsing, and evaluating the one-sorted formula language."""

from fractions import Fraction

import pytest

from oagkit.catalogue import GROUPS, builtin_group
from oagkit.chain import Position
from oagkit.errors import (FormulaSyntaxError, PositionOutOfDomain,
                           UnboundVariable)
from oagkit.formula import (FALSE, TRUE, And, Bool, CongBullet, EqBullet, Gt0,
                            Not, Or, ValCmp, element_text, eval_formula,
                            eval_term, formula_text, make_term, parse_element,
                            parse_formula, term_text)
from oagkit.group import Element
from oagkit.valuation import sv_pos

# exact print/parse fixed points
CORPUS = [
    "true",
    "false",
    "x > 0",
    "-x > 0",
    "2*x > 0",
    "2*x - 3*y + el(pos(0, 0): 1) > 0",
    "-x + el(pos(0, 1): 2) > 0",
    "x + y + z > 0",
    "5*x - y > 0",
    "-x + el(tail: 1) > 0",
    "x %{2} 0",
    "x - y %{6} 0",
    "3*x + el(pos(1, 0): -2) %{4} 0",
    "x ==={3} 2",
    "2*x ==={4} 1",
    "x - y ==={2} 0",
    "x =** 1",
    "x =** -2",
    "x + el(pos(0, 0): -3) =** 0",
    "val{2}(x) = pos(0, 1)",
    "val{0}(x - y) >= limit(0)",
    "val{3}(x) < inf",
    "val{2}(x + y) <= pos(1, 0)",
    "val{4}(x) > pos(0, 2)",
    "val{6}(2*x - y) = inf",
    "x > 0 and y > 0",
    "x > 0 or x %{2} 0",
    "not x ==={2} 1",
    "x > 0 and x %{2} 0 and val{2}(x) = inf",
    "(x > 0 or y > 0) and not x =** 0",
]


def test_corpus_has_thirty_formulas():
    assert len(CORPUS) == 30


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_round_trip(text):
    f = parse_formula(text)
    rendered = formula_text(f)
    assert rendered == text
    assert parse_formula(rendered) == f


def test_normalized_forms_stay_stable():
    # subtraction of a constant folds into a negative literal
    f = parse_formula("x - el(pos(0, 0): 3) =** 0")
    rendered = formula_text(f)
    assert rendered == "x + el(pos(0, 0): -3) =** 0"
    assert parse_formula(rendered) == f


def test_element_literals_round_trip():
    texts = [
        "el()",
        "el(tail: 1)",
        "el(pos(0, 0): 1)",
        "el(pos(0, 0): 1, pos(0, 2): -5/2, tail: 1)",
        "el(pos(2, 0): 7, tail: -1)",
    ]
    for t in texts:
        e = parse_element(t)
        assert element_text(e) == t
        assert parse_element(element_text(e)) == e


DENSE_GROUPS = [name for name in sorted(GROUPS)
                if any(s.kind.is_dense for s in builtin_group(name).spine.segments)]


@pytest.mark.parametrize("name", DENSE_GROUPS)
def test_element_literals_name_dense_coordinates(name):
    g = builtin_group(name)
    values = {Fraction(1, 2): 3, Fraction(-7, 3): Fraction(-1, 2), 0: 1, 2: 5}
    e = g.el([((i, c), v) for i, s in enumerate(g.spine.segments)
              if s.kind.is_dense for c, v in values.items()])
    text = element_text(e)
    assert "pos(0, -7/3): -1/2" in text
    assert parse_element(text, g) == e
    assert parse_element(text) == e


def test_a_spine_value_names_a_dense_coordinate():
    f = parse_formula("val{2}(x) < pos(0, -1/2)")
    assert f.target == sv_pos(Position(0, Fraction(-1, 2)))
    assert formula_text(f) == "val{2}(x) < pos(0, -1/2)"


def test_element_parse_against_group_checks_positions():
    g = builtin_group("z")
    parse_element("el(pos(0, 0): 4)", g)
    with pytest.raises(PositionOutOfDomain):
        parse_element("el(pos(3, 0): 4)", g)


def test_term_construction_matches_parser():
    t = make_term({"x": 2, "y": -3}, Element())
    assert term_text(t) == "2*x - 3*y"
    f = parse_formula(term_text(t) + " > 0")
    assert isinstance(f, Gt0)
    assert f.term == t


def test_syntax_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x >")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("val{2}(x) ? inf")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x ==={} 1")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("2 > 0")


def test_zero_denominator_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_element("el(pos(0, 0): 1/0)")
    assert info.value.pos == len("el(pos(0, 0): 1/")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x + el(tail: 3/0) > 0")


# -- evaluation ---------------------------------------------------------------


Z = builtin_group("z")
FIVE = Z.el([((0, 0), 5)])
FOUR = Z.el([((0, 0), 4)])


def ev(text, **env):
    return eval_formula(Z, parse_formula(text), env)


def test_eval_sign_atoms():
    assert ev("x > 0", x=FIVE)
    assert not ev("-x > 0", x=FIVE)
    assert ev("x - y > 0", x=FIVE, y=FOUR)
    assert ev("2*y - x > 0", x=FIVE, y=FOUR)


def test_eval_congruence_atoms():
    assert ev("x %{2} 0", x=FOUR)
    assert not ev("x %{2} 0", x=FIVE)
    assert ev("x ==={2} 1", x=FIVE)
    assert not ev("x ==={2} 0", x=FIVE)
    assert ev("x =** 5", x=FIVE)
    assert not ev("x =** 4", x=FIVE)


def test_eval_valuation_atoms():
    assert ev("val{2}(x) = pos(0, 0)", x=FIVE)
    assert ev("val{2}(x) = inf", x=FOUR)
    assert ev("val{0}(x - y) = pos(0, 0)", x=FIVE, y=FOUR)


def test_eval_connectives():
    assert ev("x > 0 and not x %{2} 0", x=FIVE)
    assert ev("x %{2} 0 or x ==={2} 1", x=FIVE)
    assert ev("true", x=FIVE)
    assert not ev("false", x=FIVE)
    assert eval_formula(Z, TRUE) is True
    assert eval_formula(Z, FALSE) is False


def test_eval_constant_offsets():
    g1 = builtin_group("g1")
    a = g1.el([((0, 1), 3)])
    f2 = parse_formula("val{0}(x - el(pos(0, 1): 3)) = inf")
    assert eval_formula(g1, f2, {"x": a})
    b = g1.el([((0, 1), 4)])
    f3 = parse_formula("x + el(pos(0, 1): -3) =** 1")
    assert eval_formula(g1, f3, {"x": b})


def test_a_term_constant_is_checked_in_each_group_it_meets():
    g1, g3 = builtin_group("g1"), builtin_group("g3")
    # out of chain order; pos(1, 0) lies on g3's omega_star segment only
    f = parse_formula("x - el(pos(1, 0): 2, pos(0, 3): 1) > 0")
    x = g3.el([((0, 3), 2)])
    want = g3.sub(x, g3.el([((0, 3), 1), ((1, 0), 2)]))
    for _ in range(2):
        assert eval_term(g3, f.term, {"x": x}) == want
        assert eval_formula(g3, f, {"x": x})
        with pytest.raises(PositionOutOfDomain):
            eval_formula(g1, f, {"x": g1.el([((0, 3), 2)])})


def test_unbound_variables_are_reported():
    with pytest.raises(UnboundVariable):
        ev("x - y > 0", x=FIVE)
    t = make_term({"q": 1}, Element())
    with pytest.raises(UnboundVariable):
        eval_term(Z, t, {})
