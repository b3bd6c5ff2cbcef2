"""Brute-force re-implementations used as independent test oracles.

Everything here restates the underlying mathematics from scratch on
purpose: divisibility is a per-domain denominator check, valuations are
first-failure scans over the support, and scheme relations are read off
the big group directly.  Keep these free of shortcuts through the code
under test.
"""

import itertools
from fractions import Fraction

from oagkit.chain import Position, SegKind, contains
from oagkit.group import Element
from oagkit.rib import RibElement
from oagkit.valuation import SV_INF, sv_limit, sv_pos


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


def _clause_rib(g, p):
    """The rib of the first clause that matches p, read off the clauses."""
    for e in g.ribs:
        if e.position is not None:
            hit = e.position == p
        else:
            hit = e.segment in (None, p.seg) and (
                e.colour is None or contains(
                    g.spine.colour_named(e.colour).rule_at(p.seg), p.coord))
        if hit:
            return e.rib if e.rib is not None else e.schematic.rib_for(p.coord)
    raise AssertionError(f"no clause covers {p}")


def factoring_hits(rib, m):
    """Whether the rib contributes values modulo m: factor m by trial
    division and ask at each prime p whether 1 fails to be p-divisible,
    which is the prime's index being above 1."""
    primes = (p for p in range(2, m + 1)
              if m % p == 0 and all(p % d for d in range(2, p)))
    return any(not coordinate_divisible(rib, RibElement(1), p) for p in primes)


def _prime_rank(p):
    """How many primes lie below the prime p, by trial division."""
    return sum(all(n % d for d in range(2, n)) for n in range(2, p))


def _window(g, x, m):
    """A run of terminal coordinates past which every coordinate of x has
    the same rib behaviour: it passes every coordinate a clause names,
    every deviation and, on a schematic clause, the index of each prime
    of the denominator of x.tail / m."""
    t = g.terminal_omega
    top = [p.coord for p, _ in x.fp if p.seg == t]
    den = x.tail.q.denominator * max(m, 1)
    for e in g.ribs:
        if e.position is not None and e.position.seg == t:
            top.append(e.position.coord)
        if e.colour is not None:
            piece = g.spine.colour_named(e.colour).rule_at(t)
            if piece[0] in ("only", "minus"):
                top.extend(piece[1])
        if e.schematic is not None:
            top.append(len(e.schematic.primes))
            top.extend(_prime_rank(p) for p in range(2, den + 1)
                       if den % p == 0 and all(p % d for d in range(2, p)))
    return range(max(top, default=0) + 2)


def _read_positions(g, x, m):
    """Every deviation of x and, with a tail, the oracle's terminal
    window for the modulus m, in chain order."""
    positions = {p for p, _ in x.fp}
    if x.tail:
        positions |= {Position(g.terminal_omega, n) for n in _window(g, x, m)}
    return sorted(positions, key=g.spine.sort_key)


def oracle_contains(g, x):
    """Membership of x: every coordinate lies in the rib its clauses give
    it, and in sum mode the tail is a combination of generator tails."""
    if not all(coordinate_divisible(_clause_rib(g, p), g.coordinate(x, p), 1)
               for p in _read_positions(g, x, 1)):
        return False
    return not x.tail or g.mode == "hahn" or \
        g.tail_coefficients(x.tail) is not None


def oracle_val_m(g, x, m):
    """First spine position whose coordinate fails m-divisibility, read
    over every deviation and a terminal window of the oracle's own."""
    if m == 1:
        return SV_INF
    positions = _read_positions(g, x, m)
    t = g.terminal_omega
    if m == 0:
        for p in positions:
            if g.coordinate(x, p):
                return sv_pos(p)
        return SV_INF
    for p in positions:
        if not coordinate_divisible(_clause_rib(g, p), g.coordinate(x, p), m):
            return sv_pos(p)
    if not x.tail or g.mode == "hahn" or \
            g.tail_coefficients(x.tail.scale(Fraction(1, m))) is not None:
        return SV_INF
    return sv_limit(t)


def oracle_limit_witness(g, m):
    """The first element with the limit value modulo m by
    ``oracle_val_m`` among one per generator combination, taken over
    every coefficient vector modulo m in ``itertools.product`` order;
    None when there is none.  A combination's element has its tail t and
    coordinate 0 at each terminal coordinate of the oracle's window
    where t / m leaves the clause rib: a limit value needs every
    coordinate m-divisible, and 0 is."""
    t = g.terminal_omega
    for coeffs in itertools.product(range(m), repeat=len(g.generators)):
        tail = sum((gen.tail.scale(c) for c, gen in zip(coeffs, g.generators)),
                   RibElement(0))
        if not tail:
            continue
        exits = [Position(t, n) for n in _window(g, Element((), tail), m)
                 if not coordinate_divisible(_clause_rib(g, Position(t, n)),
                                             tail, m)]
        x = Element(tuple((p, RibElement(0) - tail) for p in exits), tail)
        if oracle_val_m(g, x, m) == sv_limit(t):
            return x
    return None


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
    """The relation a scheme claims to decide, computed on the big side:
    the sign of n*a - x, or its coordinate at the oracle's val_m (m = 0
    for equality) checked against k units of a discrete rib."""
    big = pair.big
    d = big.sub(big.scale(a, s.n), x)
    v = oracle_val_m(big, d, s.m if s.kind == "cong" else 0)
    if v.position is None:
        # INF: d is zero, or (modulo m) an m-th multiple; or a limit value
        return s.kind == "eqk" and s.k == 0 and v == SV_INF
    c = big.coordinate(d, v.position)
    w, q = Fraction(c.w), Fraction(c.q)
    if s.kind == "sign":
        return (w, q) > (0, 0)
    rib = _clause_rib(big, v.position)
    if _domain_tag(rib)[0] not in ("int", "window"):
        return False  # a dense rib has no least positive element
    if s.kind == "cong":
        return coordinate_divisible(rib, RibElement(q - s.k, w), s.m)
    return (w, q) == (0, s.k)


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
