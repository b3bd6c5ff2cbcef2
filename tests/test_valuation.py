"""Coarsened valuations checked against a brute-force oracle.

The oracle (tests/oracles.py) restates divisibility from scratch: a
coordinate is an m-th multiple in its rib exactly when dividing it by m
stays inside the rib's domain.  Ribs are torsion-free, so the only
candidate quotient is q/m, and membership is a plain denominator check
per domain tag.
"""

import random
from pathlib import Path

import pytest

from oracles import oracle_val_m, random_element

from oagkit.catalogue import GROUPS as CATALOGUE
from oagkit.catalogue import builtin_group
from oagkit.chain import Position
from oagkit.classify import classify_main
from oagkit.codec import dumps, group_from_data, group_to_data, load_group
from oagkit.errors import OagError
from oagkit.group import ZERO_ELEMENT, SchematicRib, _primes_of
from oagkit.rib import (q_rib, r_proxy_rib, script_z_rib, window_rib,
                        z_local_rib, z_rib)
from oagkit.valuation import (SV_INF, SpineValueKind, _m_hits, check_m,
                              check_ur, compare_spine_values,
                              pred_cong_bullet, pred_eq_bullet,
                              regular_spine, relevant_primes, spine_m,
                              sv_pos, t_spine, val_m, value_set_contains)

PRESENTATIONS = Path(__file__).parent / "presentations"

GROUPS = [builtin_group(n) for n in ("g1", "z2", "h235", "sigma", "z2r")]


def test_val_m_matches_oracle_on_200_samples():
    rng = random.Random(20260819)
    checked = 0
    while checked < 200:
        g = rng.choice(GROUPS)
        x = random_element(g, rng)
        m = rng.choice((0, 2, 3, 4))
        got = val_m(g, x, m)
        want = oracle_val_m(g, x, m)
        assert got == want, (g.name, x, m, got, want)
        checked += 1


def test_val_m_ultrametric_and_translation():
    rng = random.Random(77)
    for _ in range(120):
        g = rng.choice(GROUPS)
        x, y = random_element(g, rng), random_element(g, rng)
        m = rng.choice((0, 2, 3, 4))
        vx, vy = val_m(g, x, m), val_m(g, y, m)
        vs = val_m(g, g.add(x, y), m)
        lo = vx if compare_spine_values(g.spine, vx, vy) <= 0 else vy
        assert compare_spine_values(g.spine, vs, lo) >= 0
        shift = g.scale(y, m)
        assert val_m(g, g.add(x, shift), m) == val_m(g, x, m)


def test_val_zero_is_natural_valuation():
    g = builtin_group("g1")
    x = g.el([((0, 3), 4)])
    assert val_m(g, x, 0) == sv_pos(g.nat_val(x))
    assert val_m(g, ZERO_ELEMENT, 0) == SV_INF


def test_val_one_is_trivial():
    g = builtin_group("g1")
    assert val_m(g, g.el([((0, 0), 1)]), 1) == SV_INF


# -- spine tables -------------------------------------------------------------


def test_prime_spines_of_h235():
    g = builtin_group("h235")
    for m, seg in ((2, 0), (3, 1), (5, 2)):
        vs = spine_m(g, m)
        assert vs.inf
        for other in range(3):
            want = other == seg
            got = value_set_contains(g, vs, sv_pos(Position(other, 0)))
            assert got == want, (m, other)
    # 7 divides every local ring here, so nothing is pinned
    vs7 = spine_m(g, 7)
    assert vs7.inf
    for seg in range(3):
        assert not value_set_contains(g, vs7, sv_pos(Position(seg, 0)))


def test_composite_spine_is_union_over_prime_parts():
    g = builtin_group("h235")
    vs = spine_m(g, 30)
    for seg in range(3):
        assert value_set_contains(g, vs, sv_pos(Position(seg, 0)))
    assert vs.inf


def test_spine_of_limit_value_group():
    g = builtin_group("g4")
    vs = spine_m(g, 2)
    for c in range(5):
        assert value_set_contains(g, vs, sv_pos(Position(0, c)))
    assert vs.contains_limit()
    assert vs.inf
    x = g.el([], tail=2)
    assert val_m(g, x, 2).kind is SpineValueKind.LIMIT


def test_divisible_spine_is_endpoints_only():
    g = builtin_group("q")
    vs = spine_m(g, 5)
    assert vs.inf
    assert not value_set_contains(g, vs, sv_pos(Position(0, 0)))


def test_spine_m_degenerate_moduli():
    g = builtin_group("g1")
    assert value_set_contains(g, spine_m(g, 0), sv_pos(Position(0, 3)))
    assert not value_set_contains(g, spine_m(g, 1), sv_pos(Position(0, 3)))


# -- hypotheses ---------------------------------------------------------------


def test_limit_values_break_hypothesis_m():
    res = check_m(builtin_group("g4"))
    assert not res.holds
    assert res.modulus == 2
    assert res.witness is not None


def test_hypothesis_m_holds_on_products():
    for name in ("g1", "g2", "h235", "z2", "sigma"):
        assert check_m(builtin_group(name)).holds, name


def test_uniform_value_sets():
    for name in ("g1", "g2", "z", "z2r", "sigma"):
        res = check_ur(builtin_group(name))
        assert res.holds, name
    res = check_ur(builtin_group("h235"))
    assert res.holds
    assert res.modulus == 30


def test_glued_ladders_fail_uniformity():
    res = check_ur(builtin_group("g3"))
    assert not res.holds
    assert res.witness is not None


# -- the index rule and the stored value sets ----------------------------------


def _factoring_hits(rib, m):
    """The rule _m_hits replaced: factor m and ask each prime's index."""
    return any(rib.index_at(p) > 1 for p in _primes_of(m))


def test_m_hits_matches_the_factoring_rule():
    ribs = [z_rib(), q_rib(), r_proxy_rib(), window_rib()]
    for p in (2, 3, 5, 7):
        ribs += [z_local_rib(p), script_z_rib(p)]
    for template in ("z_local", "script_z"):
        ribs += [SchematicRib(template).rib_for(n) for n in range(6)]
    for rib in ribs:
        for m in range(1, 257):
            assert _m_hits(rib, m) == _factoring_hits(rib, m), (rib, m)


def _presentations():
    yield from ((name, lambda name=name: group_from_data(
        group_to_data(builtin_group(name)))) for name in sorted(CATALOGUE))
    for path in sorted(PRESENTATIONS.glob("*.json")):
        yield path.name, lambda path=path: load_group(str(path))


def _answers(g, calls):
    out = {}
    for label, call in calls:
        try:
            out[label] = call(g)
        except OagError as e:
            out[label] = (type(e).__name__, str(e))
    return out


CALLS = [*((f"spine_m {m}", lambda g, m=m: spine_m(g, m)) for m in range(2, 13)),
         ("check_m", check_m), ("check_ur", check_ur),
         ("regular_spine", regular_spine), ("relevant_primes", relevant_primes),
         ("classify_main", lambda g: dumps(classify_main(g)))]


@pytest.mark.parametrize("name,decode", list(_presentations()))
def test_stored_value_sets_change_no_answer(name, decode):
    try:
        g = decode()
    except OagError as e:  # a file the presentation checks refuse
        with pytest.raises(type(e)) as again:
            decode()
        assert str(again.value) == str(e)
        return
    forward = _answers(g, CALLS)
    assert _answers(decode(), CALLS[::-1]) == forward
    primes = relevant_primes(g)[0]
    assert isinstance(primes, frozenset)
    with pytest.raises(AttributeError):
        primes.add(97)
    assert _answers(g, CALLS) == forward


# -- quotients ----------------------------------------------------------------


def test_t_spine_identifies_divisible_positions():
    assert not t_spine(builtin_group("h235"), 2).identity
    assert t_spine(builtin_group("z2"), 2).identity
    assert regular_spine(builtin_group("z")) is not None


# -- predicates ---------------------------------------------------------------


def test_sign_and_congruence_predicates():
    g = builtin_group("z")
    five = g.el([((0, 0), 5)])
    assert pred_eq_bullet(g, five, 5)
    assert not pred_eq_bullet(g, five, 4)
    assert pred_cong_bullet(g, five, 2, 1)
    assert not pred_cong_bullet(g, five, 2, 0)
    assert pred_eq_bullet(g, ZERO_ELEMENT, 0)
    assert not pred_eq_bullet(g, ZERO_ELEMENT, 1)
