"""Acceptance suite: one test per advertised behaviour.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per behaviour.  The headline checks live once, in
``oagkit.corpus.CASES``, which ``oagkit corpus`` prints too; each case
is one test here.  Criteria 8 to 10 stay here because they compare the
library with the independent brute-force oracles in tests/oracles.py.
"""

import random

import pytest
from oracles import (big_targets, direct_relation, mod2_staircase,
                     oracle_val_m, random_element, small_samples)

from oagkit.approx import best_approx, decompose_val, scheme_cong, scheme_eqk, scheme_eval, scheme_sign
from oagkit.catalogue import PAIRS, builtin_group, builtin_pair
from oagkit.corpus import CASES
from oagkit.pseudo import (NoMaximum, immediate_ext_check, is_pseudo_cauchy,
                           lift_mod_m)
from oagkit.valuation import compare_spine_values, val_m


@pytest.mark.parametrize("check", [check for _, check in CASES],
                         ids=[name for name, _ in CASES])
def test_corpus_case(check):
    ok, detail = check()
    assert ok, detail


def test_criterion_08_valuations_match_brute_force_enumeration():
    rng = random.Random(20260819)
    groups = [builtin_group(n) for n in ("g1", "z2", "h235", "sigma", "z2r")]
    failures = 0
    for _ in range(200):
        g = rng.choice(groups)
        x = random_element(g, rng, positions=6, coeff=8)
        m = rng.choice((0, 2, 3, 4))
        if val_m(g, x, m) != oracle_val_m(g, x, m):
            failures += 1
    assert failures == 0
    # ultrametric and invariance under adding m-th multiples
    for _ in range(120):
        g = rng.choice(groups)
        x, y = random_element(g, rng), random_element(g, rng)
        m = rng.choice((0, 2, 3, 4))
        vx, vy = val_m(g, x, m), val_m(g, y, m)
        vs = val_m(g, g.add(x, y), m)
        lo = vx if compare_spine_values(g.spine, vx, vy) <= 0 else vy
        if compare_spine_values(g.spine, vs, lo) < 0:
            failures += 1
        if val_m(g, g.add(x, g.scale(y, m)), m) != vx:
            failures += 1
    assert failures == 0


def test_criterion_09_twenty_lifts_preserve_congruence_and_distances():
    g = builtin_group("g1")
    rng = random.Random(4242)
    failures = 0
    for _ in range(20):
        seq = mod2_staircase(g, rng)
        assert is_pseudo_cauchy(g, seq, 2)[0]
        lifted = lift_mod_m(g, seq, 2)
        n = len(seq.terms)
        for i in range(n):
            diff = g.sub(lifted.terms[i], seq.terms[i])
            if not g.in_m_multiples(diff, 2)[0]:
                failures += 1
        for i in range(n):
            for j in range(i + 1, n):
                d_new = g.sub(lifted.terms[j], lifted.terms[i])
                d_old = g.sub(seq.terms[j], seq.terms[i])
                if val_m(g, d_new, 0) != val_m(g, d_old, 2):
                    failures += 1
    assert failures == 0


def test_criterion_10_schemes_decide_their_relations_on_every_pair():
    rng = random.Random(90125)
    mismatches = 0
    checked = 0
    for name in sorted(PAIRS):
        pair = builtin_pair(name)
        xs = small_samples(pair, rng, count=20, positions=5, coeff=4)
        for a in big_targets(pair, rng, 5):
            for n in (1, 2):
                for s in (scheme_sign(pair, a, n),
                          scheme_cong(pair, a, n, 2, 1),
                          scheme_eqk(pair, a, n, 1)):
                    for x in xs:
                        checked += 1
                        if scheme_eval(pair, s, x) != direct_relation(
                                pair, s, a, x):
                            mismatches += 1
        # the fixed approximation reads the valuation pointwise
        for a in big_targets(pair, rng, 3):
            ap = best_approx(pair, a, 1, 0)
            if isinstance(ap, NoMaximum):
                # no best approximation exactly when the small group
                # misses a pseudo-limit along this element
                z = pair.big.scale(a, 1)
                if not pair.small.contains(z):
                    rep = immediate_ext_check(pair, z)
                    assert rep.kind == "no_maximum", name
                continue
            for x in xs[:8]:
                want = val_m(pair.big, pair.big.sub(a, x), 0)
                if decompose_val(pair, ap, x) != want:
                    mismatches += 1
    assert mismatches == 0
    assert checked >= 2000
