"""Pseudo-Cauchy sequences, limits, and the congruence lift."""

import random

import pytest

from oracles import mod2_staircase as _mod2_staircase

from oagkit.catalogue import builtin_group, builtin_pair
from oagkit.chain import Position
from oagkit.errors import ElementInG, NotPseudoCauchy, NotRepresentable, TooShort
from oagkit.group import ZERO_ELEMENT, Element
from oagkit.pseudo import (PseudoSequence, TruncationRule, hahn_pseudo_limit,
                           immediate_ext_check, is_pseudo_cauchy,
                           is_pseudo_limit, lift_mod_m)
from oagkit.rib import RIB_ONE
from oagkit.valuation import val_m

G1 = builtin_group("g1")


def staircase(g, n, step=1):
    """a_i carries 1s on the first i positions, scaled deviations after."""
    terms = []
    acc = []
    for i in range(n):
        acc.append(((0, i), step))
        terms.append(g.el(list(acc)))
    return PseudoSequence(tuple(terms))


def test_staircase_is_pseudo_cauchy():
    seq = staircase(G1, 5)
    ok, threshold = is_pseudo_cauchy(G1, seq, 0)
    assert ok
    assert threshold == 0


def test_short_prefix_is_rejected():
    with pytest.raises(TooShort):
        PseudoSequence((ZERO_ELEMENT, G1.el([((0, 0), 1)])))


def test_shuffled_staircase_fails_with_witness():
    a, b, c, d = staircase(G1, 4).terms
    seq = PseudoSequence((a, c, b, d))
    ok, witness = is_pseudo_cauchy(G1, seq, 0)
    assert not ok
    assert len(witness) == 3


def test_pseudo_limit_detection():
    seq = staircase(G1, 5)
    limit = G1.el([((0, i), 1) for i in range(7)])
    assert is_pseudo_limit(G1, seq, limit, 0)
    stranger = G1.el([((0, 0), 2)])
    assert not is_pseudo_limit(G1, seq, stranger, 0)


def test_rule_backed_sequence_has_hahn_limit():
    seq = PseudoSequence((), rule=TruncationRule(RIB_ONE))
    limit = hahn_pseudo_limit(G1, seq)
    assert limit.tail == RIB_ONE
    assert is_pseudo_limit(G1, seq, limit, 0)


def test_bare_prefix_fixes_no_limit():
    with pytest.raises(NotRepresentable):
        hahn_pseudo_limit(G1, staircase(G1, 4))


def test_constant_one_thread_leaves_the_sum_group():
    sigma = builtin_group("sigma")
    seq = PseudoSequence((), rule=TruncationRule(RIB_ONE))
    limit = hahn_pseudo_limit(G1, seq)
    assert not sigma.contains(limit)
    assert G1.contains(limit)


# -- the lift -----------------------------------------------------------------


def test_lift_keeps_congruence_and_values():
    rng = random.Random(4242)
    for trial in range(20):
        seq = _mod2_staircase(G1, rng)
        ok, _ = is_pseudo_cauchy(G1, seq, 2)
        assert ok
        lifted = lift_mod_m(G1, seq, 2)
        n = len(seq.terms)
        assert len(lifted.terms) == n
        for i in range(n):
            diff = G1.sub(lifted.terms[i], seq.terms[i])
            assert G1.in_m_multiples(diff, 2)[0], (trial, i)
        for i in range(n):
            for j in range(i + 1, n):
                d_new = G1.sub(lifted.terms[j], lifted.terms[i])
                d_old = G1.sub(seq.terms[j], seq.terms[i])
                assert val_m(G1, d_new, 0) == val_m(G1, d_old, 2), (trial, i, j)
        ok, _ = is_pseudo_cauchy(G1, lifted, 0)
        assert ok


def test_lift_rejects_non_pseudo_cauchy_input():
    x = G1.el([((0, 0), 1)])
    y = G1.el([((0, 0), 3)])
    seq = PseudoSequence((x, y, x, y))
    with pytest.raises(NotPseudoCauchy):
        lift_mod_m(G1, seq, 2)


# -- immediate extensions -----------------------------------------------------


def test_member_of_small_group_is_rejected():
    pair = builtin_pair("mod2")
    inside = pair.small.el([((0, 0), 2)])
    with pytest.raises(ElementInG):
        immediate_ext_check(pair, inside)


def test_congruence_pair_adds_width():
    pair = builtin_pair("mod2")
    outside = pair.big.generator_element("w")
    rep = immediate_ext_check(pair, outside)
    assert rep.kind == "not_immediate"
    assert rep.position == Position(0, 0)


def test_sum_inside_product_is_immediate_without_maximum():
    pair = builtin_pair("sum_in_hahn")
    thread = Element((), RIB_ONE)
    rep = immediate_ext_check(pair, thread)
    assert rep.kind == "no_maximum"
    assert rep.samples
