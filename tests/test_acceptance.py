"""Acceptance suite: one test per advertised behaviour.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Each test is self-contained and leans on the
independent oracles in tests/oracles.py rather than on the library's
own arithmetic wherever a reference value is computable by brute force.
"""

import random

from oracles import (big_targets, direct_relation, mod2_staircase,
                     oracle_val_m, random_element, small_samples)

from oagkit.approx import best_approx, decompose_val, scheme_cong, scheme_eqk, scheme_eval, scheme_sign
from oagkit.catalogue import PAIRS, builtin_group, builtin_pair
from oagkit.chain import (ALL, NONE, ChainSpec, ColourRule, CutKind,
                          CutStatus, Position, SegKind, Segment,
                          chain_stably_embedded, integers, omega, omega_star,
                          ordered_sum)
from oagkit.classify import Status, classify_frr, classify_main, classify_pair
from oagkit.pseudo import (NoMaximum, PseudoSequence, immediate_ext_check,
                           is_pseudo_cauchy, is_pseudo_limit, lift_mod_m)
from oagkit.valuation import (SpineValueKind, check_m, compare_spine_values,
                              spine_m, sv_pos, val_m, value_set_contains)


def test_criterion_01_prime_value_sets_of_the_local_ring_product():
    g = builtin_group("h235")
    for m, seg in ((2, 0), (3, 1), (5, 2)):
        vs = spine_m(g, m)
        assert vs.inf
        assert not vs.contains_limit()
        for other in range(3):
            got = value_set_contains(g, vs, sv_pos(Position(other, 0)))
            assert got == (other == seg), (m, other)


def test_criterion_02_product_embeds_sum_does_not():
    assert classify_main(builtin_group("g1")).status is Status.SE
    v = classify_main(builtin_group("sigma"))
    assert v.status is Status.NOT_SE
    witnesses = [r.witness for r in v.reasons if r.rule == "not-maximal"]
    assert witnesses and witnesses[0].kind == "no_maximum"
    assert witnesses[0].samples


def test_criterion_03_dense_codense_marking_keeps_embeddedness():
    v = classify_main(builtin_group("g2"))
    assert v.status is Status.SE
    rules = {r.rule for r in v.reasons}
    assert "ribs" in rules
    trace = v.why()
    assert "dense-codense" in trace


def test_criterion_04_glued_ladders_fail_on_the_middle_cut():
    v = classify_main(builtin_group("g3"))
    assert v.status is Status.NOT_SE
    cuts = [r for r in v.reasons if r.rule == "spine-cut"]
    assert cuts
    assert cuts[0].witness.kind is CutKind.SEGMENT_BOUNDARY
    assert cuts[0].witness.index == 0


def test_criterion_05_limit_value_group():
    g = builtin_group("g4")
    vs = spine_m(g, 2)
    for c in range(6):
        assert value_set_contains(g, vs, sv_pos(Position(0, c)))
    assert vs.contains_limit()
    assert vs.inf
    a = g.generator_element("a")
    assert val_m(g, a, 2).kind is SpineValueKind.LIMIT
    assert not check_m(g).holds
    assert classify_main(g).status is Status.UNKNOWN


def test_criterion_06_finite_rank_table():
    expected = {
        "z": Status.USE,
        "z2": Status.USE,
        "z3": Status.USE,
        "z2r": Status.USE,
        "zq": Status.NOT_SE,
    }
    for name, want in expected.items():
        assert classify_frr(builtin_group(name)).status is want, name


def test_criterion_07_chain_suite():
    coloured = ChainSpec(
        (Segment(SegKind.DENSE_COMPLETE),),
        (ColourRule("rational", (("dense", "rational", True),)),))
    marked = ChainSpec(
        (Segment(SegKind.OMEGA), Segment(SegKind.OMEGA_STAR)),
        (ColourRule("head", (ALL, NONE)),))
    suite = [
        (omega(), CutStatus.DEFINABLE),
        (omega_star(), CutStatus.DEFINABLE),
        (integers(), CutStatus.DEFINABLE),
        (coloured, CutStatus.DEFINABLE),
        (ordered_sum(omega(), omega_star()), CutStatus.NOT_DEFINABLE),
        (marked, CutStatus.DEFINABLE),
    ]
    for chain, want in suite:
        assert chain_stably_embedded(chain).status is want, chain


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


def test_criterion_11_congruence_extension_fails_the_ladder_clause():
    pair = builtin_pair("mod2")
    w = pair.big.generator_element("w")
    rep = immediate_ext_check(pair, w)
    assert rep.kind == "not_immediate"
    ladder = best_approx(pair, w, 1, 2)
    assert isinstance(ladder, NoMaximum)
    terms = tuple(s.g for s in ladder.samples)
    assert all(pair.small.contains(t) for t in terms)
    seq = PseudoSequence(terms, modulus=2)
    assert is_pseudo_cauchy(pair.small, seq, 2)[0]
    assert is_pseudo_limit(pair.big, seq, w, 2)
    lifted = lift_mod_m(pair.small, seq, 2)
    assert is_pseudo_cauchy(pair.small, lifted, 0)[0]
    v = classify_pair(pair)
    assert v.status is Status.NOT_SE
    assert any(r.rule == "congruence-ladder" for r in v.reasons)
