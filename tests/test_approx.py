"""Best approximations and the case schemes they induce.

The oracle re-reads each relation on the big side: the sign scheme must
agree with sign(n*a - x), the congruence scheme with the coefficient
congruence at the coarse valuation of n*a - x, and the equality scheme
with the leading-coefficient predicate there.
"""

import random
from fractions import Fraction

import pytest

from oracles import big_targets as _big_targets
from oracles import direct_relation as _direct
from oracles import small_samples as _small_samples

from oagkit.approx import (BestApproximation, Scheme, best_approx,
                           decompose_val, scheme_cases, scheme_cong,
                           scheme_eqk, scheme_eval, scheme_formula,
                           scheme_sign)
from oagkit.catalogue import PAIRS, builtin_group, builtin_pair
from oagkit.chain import ChainSpec, Position, Segment, SegKind
from oagkit.errors import PresentationError
from oagkit.formula import eval_formula, formula_text, parse_element
from oagkit.group import GroupSpec, PairSpec, RibEntry
from oagkit.pseudo import NoMaximum, immediate_ext_check
from oagkit.rib import RibElement, q_rib, window_rib, z_rib
from oagkit.valuation import (SpineValueKind, pred_cong_bullet,
                              pred_eq_bullet, val_m)


def test_schemes_match_the_direct_relation_everywhere():
    rng = random.Random(90125)
    checked = 0
    for name in PAIRS:
        pair = builtin_pair(name)
        xs = _small_samples(pair, rng)
        for a in _big_targets(pair, rng):
            for n in (1, 2, 3):
                schemes = [scheme_sign(pair, a, n),
                           scheme_cong(pair, a, n, 2, 1),
                           scheme_eqk(pair, a, n, 1)]
                for s in schemes:
                    for x in xs:
                        want = _direct(pair, s, a, x)
                        got = scheme_eval(pair, s, x)
                        assert got == want, (name, s.kind, n, a, x)
                        checked += 1
    assert checked > 2000


def test_scheme_formulas_agree_with_scheme_eval():
    rng = random.Random(555)
    for name in ("z", "z2r", "z_window", "mod2"):
        pair = builtin_pair(name)
        xs = _small_samples(pair, rng, 12)
        for a in _big_targets(pair, rng, 4):
            schemes = [scheme_sign(pair, a, 2), scheme_cong(pair, a, 1, 2, 0)]
            schemes += [scheme_eqk(pair, a, n, k)
                        for n in (1, 2) for k in (-1, 0, 1, 2)]
            for s in schemes:
                formula, complete = scheme_formula(pair, s)
                if not complete:
                    continue
                for x in xs + [s.approx]:
                    want = scheme_eval(pair, s, x)
                    got = eval_formula(pair.small, formula, {"x": x})
                    assert got == want, (name, s.kind, formula_text(formula))


def test_decompose_val_reads_the_valuation_pointwise():
    rng = random.Random(31337)
    for name in ("z", "mod2", "z_window", "h235"):
        pair = builtin_pair(name)
        for a in _big_targets(pair, rng, 4):
            ap = best_approx(pair, a, 2, 0)
            if isinstance(ap, NoMaximum):
                continue
            for x in _small_samples(pair, rng, 12):
                want = val_m(pair.big, pair.big.sub(
                    pair.big.scale(a, 2), x), 0)
                assert decompose_val(pair, ap, x) == want, (name, a, x)


def test_no_maximum_matches_the_immediate_probe():
    pair = builtin_pair("sum_in_hahn")
    thread = pair.big.el([], tail=1)
    ap = best_approx(pair, thread, 1, 0)
    assert isinstance(ap, NoMaximum)
    assert len(ap.samples) >= 3
    rep = immediate_ext_check(pair, thread)
    assert rep.kind == "no_maximum"
    values = [smp.delta for smp in ap.samples]
    for lo, hi in zip(values, values[1:]):
        assert pair.big.spine.lt(lo.position, hi.position)


def test_exact_approximation_when_target_is_inside():
    pair = builtin_pair("z")
    a = pair.big.el([((0, 0), 3)])
    ap = best_approx(pair, a, 2, 0)
    assert isinstance(ap, BestApproximation)
    assert ap.exact
    assert pair.small.contains(ap.approx)
    assert pair.big.sub(pair.big.scale(a, 2), ap.approx) == pair.big.el([])


def test_scheme_cases_guard_shape():
    pair = builtin_pair("z_window")
    a = pair.big.el([((0, 0), 1)])
    s = scheme_cong(pair, a, 1, 2, 1)
    rows, complete = scheme_cases(pair, s)
    assert complete
    assert s.exact
    assert [tag for tag, _, _ in rows] == ["eq"]
    assert rows[0][1] is None
    formula, complete2 = scheme_formula(pair, s)
    assert complete2
    assert formula_text(formula) == "-x + el(pos(0, 0): 1) ==={2} 1"


def test_cofinal_scheme_reports_incomplete():
    pair = builtin_pair("sum_in_hahn")
    thread = pair.big.el([], tail=1)
    s = scheme_sign(pair, thread, 1)
    assert s.approx is None
    rows, complete = scheme_cases(pair, s)
    assert not complete
    assert rows


# -- a discrete rib threshold -------------------------------------------------


def _half_pair():
    small = builtin_group("z2")
    big = GroupSpec("z2q", small.spine, (RibEntry(rib=q_rib()),), "hahn")
    return PairSpec(small, big)


def test_scheme_builders_refuse_a_non_elementary_pair():
    # Z and Q are not elementarily equivalent, so no scheme is posed: a
    # small-group formula for the eqk scheme at a = el(pos(0, 1): 1/3)
    # used to hold at x = el(pos(0, 0): -1), where the big group says no
    pair = _half_pair()
    assert pair.elementary[0] is False
    a = pair.big.el([((0, 1), Fraction(1, 3))])
    for build in (lambda: scheme_sign(pair, a, 1),
                  lambda: scheme_cong(pair, a, 1, 2, 1),
                  lambda: scheme_eqk(pair, a, 1, 1)):
        with pytest.raises(PresentationError, match="not elementary"):
            build()
    assert isinstance(best_approx(pair, a, 1, 0), BestApproximation)


def test_every_builtin_pair_is_elementary():
    for name in PAIRS:
        assert builtin_pair(name).elementary[0] is not False, name


def test_fractional_target_with_finite_support():
    # a has an irrational-free, non-integer coordinate; approximations
    # from the integer side stop at the best floor
    pair = _half_pair()
    a = pair.big.el([((0, 1), Fraction(1, 2))])
    ap = best_approx(pair, a, 1, 0)
    assert isinstance(ap, BestApproximation)
    assert not ap.exact
    assert ap.beta.kind is SpineValueKind.POS
    assert ap.beta.position == Position(0, 1)


# -- targets and limit values ---------------------------------------------------


def test_a_target_outside_the_big_group_is_refused():
    pair = builtin_pair("mod2")
    a = pair.big.el([], tail=1)  # sigma_ext tails are multiples of W
    assert not pair.big.contains(a)
    with pytest.raises(PresentationError):
        best_approx(pair, a, 2, 2)
    with pytest.raises(PresentationError):
        scheme_cong(pair, a, 2, 2, 0)


def test_a_limit_valued_rung_decides_the_congruence():
    # g4's generator a has tail 2: 2-divisible at every coordinate, but
    # a / 2 leaves the generator lattice, so the rung sits at the limit
    pair = PairSpec(builtin_group("sigma"), builtin_group("g4"))
    a = pair.big.generator_element("a")
    rng = random.Random(4)
    for k in (0, 1):
        s = scheme_cong(pair, a, 1, 2, k)
        assert s.rho is None and s.beta.kind is SpineValueKind.LIMIT
        rows, complete = scheme_cases(pair, s)
        assert complete and [tag for tag, _, _ in rows] == ["lt", "gt"]
        for x in _small_samples(pair, rng):
            assert scheme_eval(pair, s, x) == _direct(pair, s, a, x), x


def test_a_best_approximation_reaches_a_position_clause_past_the_run():
    omega = ChainSpec((Segment(SegKind.OMEGA),))

    def at_ten(rib, mode="hahn"):
        return GroupSpec("at_ten", omega, (RibEntry(rib=rib, position=Position(0, 10)),
                                           RibEntry(rib=q_rib())), mode)
    small, big = at_ten(z_rib()), at_ten(q_rib())
    x = big.el(tail=Fraction(1, 2))
    ap = best_approx(PairSpec(small, big), x)
    assert isinstance(ap, BestApproximation)
    assert val_m(big, big.sub(x, ap.approx), 0) == ap.beta
    assert ap.beta.position == Position(0, 10)
    rep = immediate_ext_check(PairSpec(small, big), x)
    assert rep.position == Position(0, 10)
    assert val_m(big, big.sub(x, rep.partial), 0).position == Position(0, 10)

    # the sum inside its own product: every rung's value is read off x - g
    pair = PairSpec(at_ten(z_rib(), "sum"), at_ten(z_rib()))
    x = pair.big.el(tail=1)
    ladder = best_approx(pair, x)
    assert isinstance(ladder, NoMaximum)
    for s in ladder.samples:
        assert val_m(pair.big, pair.big.sub(x, s.g), 0) == s.delta


# -- cofinal ladders past their listed rungs ------------------------------------


def _big_relation(pair, s, a, x):
    """The scheme's relation, read by the big group's own predicates."""
    big = pair.big
    d = big.sub(big.scale(a, s.n), x)
    if s.kind == "sign":
        return big.sign_of(d) > 0
    if s.kind == "cong":
        return pred_cong_bullet(big, d, s.m, s.k)
    return pred_eq_bullet(big, d, s.k)


@pytest.mark.parametrize("name, literal, build", [
    ("mod2", "el(pos(0, 0): 3, tail: W)",
     lambda pair, a: scheme_cong(pair, a, 1, 2, 0)),
    ("sum_in_hahn", "el(pos(0, 0): 3, tail: 2)",
     lambda pair, a: scheme_sign(pair, a, 1)),
    ("sum_in_hahn", "el(pos(0, 0): 3, tail: 2)",
     lambda pair, a: scheme_eqk(pair, a, 1, 1)),
], ids=["mod2-cong", "sum_in_hahn-sign", "sum_in_hahn-eqk"])
def test_a_cofinal_scheme_answers_at_every_rung(name, literal, build):
    pair = builtin_pair(name)
    small = pair.small
    a = parse_element(literal, pair.big)
    s = build(pair, a)
    ladder = s.ladder
    assert ladder is not None and len(s.samples) == 8
    checked = 0
    for i in range(1, 65):
        g = ladder.rung(i).g
        xs = [g]
        for d in (-2, -1, 0, 1):
            p = Position(ladder.seg, ladder.first + i + d)
            xs += [small.add(g, small.el([(p, c)])) for c in (-1, 1, 2)]
        # outside the small group: the target itself, which tracks every
        # rung, and the target moved at one coordinate
        target = pair.big.scale(a, s.n)
        p = Position(ladder.seg, i)
        xs += [target] + [pair.big.add(target, pair.big.el([(p, c)]))
                          for c in (-1, 1)]
        for x in xs:
            assert scheme_eval(pair, s, x) == _big_relation(pair, s, a, x), \
                (i, x)
            checked += 1
    assert checked == 64 * 16


def test_a_schematic_rib_is_walked_past_where_the_tail_over_m_leaves_it():
    # 1/3 leaves z_(3), the rib at coordinate 1, and no other: the best
    # approximation modulo 3 absorbs coordinates 0 to 2 and is exact
    big = builtin_group("h_primes")
    pair = PairSpec(GroupSpec("h_primes_sum", big.spine, big.ribs, "sum"), big)
    x = big.el(tail=1)
    ap = best_approx(pair, x, 1, 3)
    assert isinstance(ap, BestApproximation) and ap.exact
    assert ap.approx == big.el([((0, c), 1) for c in range(3)])
    assert val_m(big, big.sub(x, ap.approx), 3).kind is SpineValueKind.INF
    assert isinstance(best_approx(pair, x, 1, 0), NoMaximum)


def test_a_full_product_holds_the_limit_of_every_ladder():
    # the product of z ribs holds the limit of the rungs, with tail the
    # rung step: 1 for W modulo 2, and 2 for the tail 2 modulo 3, where
    # the limit keeps 0 at the coordinate where x is 0
    small = builtin_group("g1")
    wide = GroupSpec("g1_window", small.spine, (RibEntry(rib=window_rib()),))
    at_0 = GroupSpec("g1_window_at_0", small.spine, (
        RibEntry(rib=window_rib(), position=Position(0, 0)),
        RibEntry(rib=z_rib())))
    w = RibElement(0, 1)
    zero_at_1 = at_0.el([((0, 0), w + RibElement(2)), ((0, 1), 0)], tail=2)
    for big, x, m in ((wide, wide.el(tail=w), 2), (at_0, zero_at_1, 3)):
        ap = best_approx(PairSpec(small, big), x, 1, m)
        assert isinstance(ap, BestApproximation) and ap.exact
        assert small.contains(ap.approx)
        assert val_m(big, big.sub(x, ap.approx), m).kind is SpineValueKind.INF
