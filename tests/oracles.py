"""Brute-force re-implementations used as independent test oracles.

Everything here restates the underlying mathematics from scratch on
purpose: divisibility is a per-domain denominator check, valuations are
first-failure scans over the support, and scheme relations are read off
the big group directly.  Keep these free of shortcuts through the code
under test.
"""

from fractions import Fraction

from oagkit.chain import SegKind
from oagkit.rib import RibElement
from oagkit.valuation import (SV_INF, pred_cong_bullet, pred_eq_bullet,
                              sv_limit, sv_pos)


def _domain_tag(rib):
    if rib.nonstandard:
        return ("window",)
    if rib.domain == "int":
        return ("int",)
    if rib.domain == "rat":
        return ("rat",)
    return ("coprime", tuple(rib.domain[1]))


def _in_domain(tag, value):
    q, w = Fraction(value.q), Fraction(value.w)
    if tag[0] == "window":
        # D = {q + w*OMEGA : q + w an integer}
        return (q + w).denominator == 1
    if w != 0:
        return False  # standard ribs live in the w = 0 slice
    if tag[0] == "int":
        return q.denominator == 1
    if tag[0] == "rat":
        return True
    den = q.denominator
    for p in tag[1]:
        if den % p == 0:
            return False
    return True


def coordinate_divisible(rib, value, m):
    # torsion-free: x = m*h has the single candidate h = x/m
    return _in_domain(_domain_tag(rib),
                      RibElement(Fraction(value.q) / m, Fraction(value.w) / m))


def oracle_val_m(g, x, m):
    """First spine position whose coordinate fails m-divisibility."""
    if m == 1:
        return SV_INF
    positions = sorted(g.support_candidates(x), key=g.spine.sort_key)
    if m == 0:
        for p in positions:
            if g.coordinate(x, p):
                return sv_pos(p)
        return SV_INF
    for p in positions:
        if not coordinate_divisible(g.rib_at(p), g.coordinate(x, p), m):
            return sv_pos(p)
    if g.in_m_multiples(x, m)[0]:
        return SV_INF
    return sv_limit(len(g.spine.segments) - 1)


def first_positions(g, n=6):
    out = []
    for i, seg in enumerate(g.spine.segments):
        size = seg.size if seg.kind is SegKind.FIN else n
        for c in range(size):
            out.append((i, c))
            if len(out) == n:
                return out
    return out


def random_element(g, rng, positions=6, coeff=8):
    slots = first_positions(g, positions)
    pairs = []
    for seg, coord in rng.sample(slots, rng.randrange(0, min(5, len(slots)))):
        pairs.append(((seg, coord), rng.randrange(-coeff, coeff + 1) or 1))
    return g.el(pairs)


def small_samples(pair, rng, count=24, positions=5, coeff=4):
    g = pair.small
    slots = first_positions(g, positions)
    out = [g.el([])]
    for _ in range(count):
        picks = rng.sample(slots, rng.randrange(1, min(4, len(slots) + 1)))
        out.append(g.el([(p, rng.randrange(-coeff, coeff + 1) or 1)
                         for p in picks]))
    return out


def big_targets(pair, rng, count=6):
    g = pair.big
    base = small_samples(pair, rng, count)
    extra = []
    if g.generators:
        extra.append(g.generator_element(g.generators[0].name))
    return base[:count] + extra


def direct_relation(pair, s, a, x):
    """The relation a scheme claims to decide, computed on the big side."""
    big = pair.big
    d = big.sub(big.scale(a, s.n), x)
    if s.kind == "sign":
        return big.sign_of(d) > 0
    if s.kind == "cong":
        return pred_cong_bullet(big, d, s.m, s.k)
    return pred_eq_bullet(big, d, s.k)


def mod2_staircase(g, rng, n=6):
    """val^2-increasing terms: odd step at i, even noise below."""
    from oagkit.pseudo import PseudoSequence

    acc = g.el([])
    terms = []
    for i in range(n):
        step = [((0, i), 2 * rng.randrange(-3, 4) + 1)]
        step += [((0, j), 2 * rng.randrange(-2, 3)) for j in range(i)]
        acc = g.add(acc, g.el(step))
        terms.append(acc)
    return PseudoSequence(tuple(terms), modulus=2)
