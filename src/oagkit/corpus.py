"""The acceptance corpus: the only copy of each headline check.

``CASES`` lists (name, check) in a fixed order.  A check takes no
arguments and returns (ok, detail): ok says whether the behaviour holds
in full, detail is one line for a reader.  ``oagkit corpus`` prints
every case, and the test suite runs each one as a test of its own.
"""

from __future__ import annotations

from .approx import best_approx, scheme_cong, scheme_eval
from .catalogue import builtin_group, builtin_pair
from .chain import (ALL, NONE, ChainSpec, ColourRule, CutKind, CutStatus,
                    Position, Segment, SegKind, chain_stably_embedded,
                    integers, omega, omega_star, ordered_sum)
from .classify import (STATUS_NAMES, Status, classify_frr, classify_main,
                       classify_pair)
from .pseudo import (NoMaximum, PseudoSequence, immediate_ext_check,
                     is_pseudo_cauchy, is_pseudo_limit, lift_mod_m)
from .rib import RibElement
from .valuation import (SpineValueKind, check_m, pred_cong_bullet, spine_m,
                        sv_pos, val_m, value_set_contains)


def prime_spines():
    g = builtin_group("h235")
    # 7 divides in every local ring here, so it pins no position
    for i, p in enumerate((2, 3, 5, 7)):
        vs = spine_m(g, p)
        for j in range(3):
            want = i == j
            got = value_set_contains(g, vs, sv_pos(Position(j, 0)))
            if got != want:
                return False, f"modulus {p} wrong at position {j}"
        if not vs.inf or vs.limit_seg is not None:
            return False, f"modulus {p} misses infinity"
    return True, "each prime pins exactly its own position"


def product_vs_sum():
    a = classify_main(builtin_group("g1")).status
    v = classify_main(builtin_group("sigma"))
    witnesses = [r.witness for r in v.reasons if r.rule == "not-maximal"]
    ok = a is Status.SE and v.status is Status.NOT_SE and bool(witnesses) \
        and witnesses[0].kind == "no_maximum" and bool(witnesses[0].samples)
    return ok, (f"full product {STATUS_NAMES[a]}, "
                f"finite sums {STATUS_NAMES[v.status]}")


def dense_coloured_product():
    v = classify_main(builtin_group("g2"))
    rules = [r.rule for r in v.reasons]
    ok = v.status is Status.SE and "ribs" in rules and \
        "spine-cuts" in rules and "dense-codense" in v.why()
    return ok, f"{STATUS_NAMES[v.status]} via {', '.join(rules)}"


def glued_ladders():
    v = classify_main(builtin_group("g3"))
    cuts = [r for r in v.reasons if r.rule == "spine-cut"]
    ok = v.status is Status.NOT_SE and bool(cuts) and \
        cuts[0].witness.kind is CutKind.SEGMENT_BOUNDARY and \
        cuts[0].witness.index == 0 and "after segment 0" in cuts[0].detail
    return ok, v.why()[:80]


def limit_value_group():
    g = builtin_group("g4")
    vs = spine_m(g, 2)
    a = g.generator_element("a")
    verdict = classify_main(g)
    ok = vs.limit_seg == 0 and vs.inf and all(
        value_set_contains(g, vs, sv_pos(Position(0, c))) for c in range(6)) \
        and val_m(g, a, 2).kind is SpineValueKind.LIMIT \
        and not check_m(g).holds and verdict.status is Status.UNKNOWN \
        and any(r.rule == "limit-value" for r in verdict.reasons)
    return ok, "limit value at the generator; hypothesis fails; open"


def finite_rank_table():
    want = {"z": Status.USE, "z2": Status.USE, "z3": Status.USE,
            "z2r": Status.USE, "zq": Status.NOT_SE, "qz": Status.NOT_SE,
            "qqz": Status.NOT_SE}
    for name, status in want.items():
        got = classify_frr(builtin_group(name)).status
        if got is not status:
            return False, f"{name}: {STATUS_NAMES[got]}"
    return True, "lexicographic powers behave as the table says"


def chain_suite():
    coloured = ChainSpec(
        (Segment(SegKind.DENSE_COMPLETE),),
        (ColourRule("rational", (("dense", "rational", True),)),))
    marked = ChainSpec(
        (Segment(SegKind.OMEGA), Segment(SegKind.OMEGA_STAR)),
        (ColourRule("head", (ALL, NONE)),))
    want = [
        (omega(), CutStatus.DEFINABLE),
        (omega_star(), CutStatus.DEFINABLE),
        (integers(), CutStatus.DEFINABLE),
        (coloured, CutStatus.DEFINABLE),
        (ordered_sum(omega(), omega_star()), CutStatus.NOT_DEFINABLE),
        (marked, CutStatus.DEFINABLE),
    ]
    for i, (ch, status) in enumerate(want):
        got = chain_stably_embedded(ch).status
        if got is not status:
            return False, f"chain case {i}: {got.name}"
    return True, "boundary cut defeats the bare double ladder only"


def scheme_oracle():
    pair = builtin_pair("z_window")
    big = pair.big
    p = next(iter(big.spine.sample_positions(1)))
    a = big.el([(p, RibElement(0, 1))])
    for m, k in ((2, 0), (2, 1), (3, 2)):
        s = scheme_cong(pair, a, 1, m, k)
        for c in range(-4, 5):
            g = pair.small.el([(p, RibElement(c))] if c else [])
            want = pred_cong_bullet(big, big.sub(a, g), m, k)
            if scheme_eval(pair, s, g) != want:
                return False, f"m={m} k={k} at coefficient {c}"
    return True, "congruence schemes match the big group pointwise"


def mod2_counterexample():
    pair = builtin_pair("mod2")
    small, w = pair.small, pair.big.generator_element("w")
    rep = immediate_ext_check(pair, w)
    if rep.kind != "not_immediate":
        return False, f"generator gave {rep.kind}"
    ladder = best_approx(pair, w, 1, 2)
    if not isinstance(ladder, NoMaximum):
        return False, "the mod-2 approximations have a best one"
    seq = PseudoSequence(tuple(s.g for s in ladder.samples), modulus=2)
    if not (all(small.contains(t) for t in seq.terms)
            and is_pseudo_cauchy(small, seq, 2)[0]
            and is_pseudo_limit(pair.big, seq, w, 2)):
        return False, "the ladder is no mod-2 ladder of the small group to w"
    # even noise below every step's value, which a lift must strip
    noisy = PseudoSequence(tuple(small.add(t, small.el([((0, 0), 2 * i)]))
                                 for i, t in enumerate(seq.terms)), modulus=2)
    if not all(is_pseudo_cauchy(small, lift_mod_m(small, s, 2), 0)[0]
               for s in (seq, noisy)):
        return False, "a lifted ladder is not pseudo-Cauchy"
    v = classify_pair(pair)
    if v.status is not Status.NOT_SE:
        return False, STATUS_NAMES[v.status]
    if not any(r.rule == "congruence-ladder" for r in v.reasons):
        return False, "wrong clause"
    return True, "order-immediate fails, yet the mod-2 ladder has no limit"


CASES = tuple((check.__name__.replace("_", "-"), check) for check in (
    prime_spines, product_vs_sum, dense_coloured_product, glued_ladders,
    limit_value_group, finite_rank_table, chain_suite, scheme_oracle,
    mod2_counterexample))
