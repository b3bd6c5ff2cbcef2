"""The lead kernel against the brute-force oracle on generated groups.

``lead_m``, ``GroupSpec.compare`` and ``scheme_eval`` all read one pass
of ``valuation._lead``.  Each is checked here against a restatement
from scratch on the difference itself: ``oracle_val_m`` reads every
position of ``g.sub(a, b)`` and ``g.coordinate`` gives the coefficient
there.  The groups are drawn over every segment kind (an omega* segment
reverses the chain order of its coordinates, a dense one takes Fraction
coordinates), in hahn and sum mode, with and without tails.
"""

import random
from fractions import Fraction

import pytest

from oracles import direct_relation, oracle_contains, oracle_val_m

from oagkit.approx import scheme_cong, scheme_eqk, scheme_eval, scheme_sign
from oagkit import valuation
from oagkit.chain import ChainSpec, ColourRule, Position, Segment, SegKind
from oagkit.errors import PresentationError
from oagkit.group import Generator, GroupSpec, PairSpec, RibEntry
from oagkit.rib import (RibElement, q_rib, rib_contains, window_rib,
                        z_local_rib, z_rib)
from oagkit.valuation import SV_INF, lead_m

MODULI = (0, 2, 3, 4, 6)
RIBS = (z_rib, q_rib, lambda: z_local_rib(2), lambda: z_local_rib(3),
        window_rib)
VALUES = [RibElement(v) for v in (1, -1, 2, 3, -4, 6, 12, Fraction(1, 2),
                                   Fraction(-3, 2), Fraction(1, 3),
                                   Fraction(5, 6))] + [
    RibElement(1, 1), RibElement(Fraction(1, 2), Fraction(1, 2))]
TAILS = [RibElement(v) for v in (1, -2, 3, 6, Fraction(1, 2),
                                 Fraction(2, 3))]
COORDS = {
    SegKind.OMEGA: range(6),
    SegKind.OMEGA_STAR: range(6),  # the distance from the top
    SegKind.INT: range(-3, 4),
    SegKind.DENSE_Q: (-1, 0, Fraction(1, 3), Fraction(1, 2), 1,
                      Fraction(7, 4)),
    SegKind.DENSE_COMPLETE: (Fraction(-5, 2), 0, Fraction(2, 3), 3),
}


def _coords(seg):
    return range(seg.size) if seg.kind is SegKind.FIN else COORDS[seg.kind]


def _random_group(rng, i):
    """Two or three segments of any kind, ribs by position, segment and
    default clause, either mode; a terminal omega segment, which tails
    need, two times in three, and then in sum mode a generator half the
    time."""
    kinds = [k for k in SegKind]
    segs = [Segment(k, rng.randrange(1, 4) if k is SegKind.FIN else 0)
            for k in rng.sample(kinds, rng.randrange(1, 3))]
    if rng.randrange(3):
        segs.append(Segment(SegKind.OMEGA))
    elif segs[-1].kind is SegKind.OMEGA:
        segs.append(Segment(SegKind.FIN, 2))
    spine = ChainSpec(tuple(segs))
    clauses = []
    for _ in range(rng.randrange(3)):
        s = rng.randrange(len(segs))
        c = rng.choice(list(_coords(segs[s])))
        clauses.append(RibEntry(rib=rng.choice(RIBS)(), position=Position(s, c)))
    if rng.randrange(2):
        clauses.append(RibEntry(rib=rng.choice(RIBS)(),
                                segment=rng.randrange(len(segs))))
    clauses.append(RibEntry(rib=rng.choice(RIBS)()))
    mode = rng.choice(("hahn", "sum"))
    gens = ()
    if mode == "sum" and segs[-1].kind is SegKind.OMEGA and rng.randrange(2):
        gens = (Generator("t", RibElement(rng.choice((1, 2, 3)))),)
    try:
        return GroupSpec(f"gen{i}", spine, tuple(clauses), mode, gens)
    except PresentationError:  # a generator tail that leaves a rib
        return GroupSpec(f"gen{i}", spine, tuple(clauses), mode)


def _random_element(rng, g, shared=(), tail=None):
    """Up to five random coordinates besides the deviations ``shared``,
    and a random tail (none half the time) unless one is given."""
    t = g.terminal_omega
    if tail is None:
        tail = rng.choice(TAILS) if t is not None and rng.randrange(2) \
            else RibElement(0)
    slots = [Position(i, c) for i, seg in enumerate(g.spine.segments)
             for c in _coords(seg)]
    pairs = {p: v + tail if p.seg == t else v for p, v in shared}
    for p in rng.sample(slots, rng.randrange(min(5, len(slots)) + 1)):
        pairs[p] = rng.choice(VALUES)
    return g.el(pairs.items(), tail)


def _cases(seed, groups=60, pairs=12):
    """(g, a, b) where b keeps some of a's deviations, and half the time
    its tail, so that a - b cancels there."""
    rng = random.Random(seed)
    for i in range(groups):
        g = _random_group(rng, i)
        for _ in range(pairs):
            a = _random_element(rng, g)
            kept = rng.sample(a.fp, rng.randrange(len(a.fp) + 1))
            yield g, a, _random_element(rng, g, kept,
                                        a.tail if rng.randrange(2) else None)


def _oracle_lead(g, d, m):
    v = oracle_val_m(g, d, m)
    return v, None if v.position is None else g.coordinate(d, v.position)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lead_and_compare_match_the_oracle_on_generated_groups(seed):
    kinds, modes, tails = set(), set(), set()
    for g, a, b in _cases(seed):
        d = g.sub(a, b)
        for m in MODULI:
            assert lead_m(g, a, m, b) == _oracle_lead(g, d, m), (g, a, b, m)
        v, c = _oracle_lead(g, d, 0)
        assert g.compare(a, b) == (0 if c is None else c.sign), (g, a, b)
        assert g.compare(b, a) == -g.compare(a, b)
        kinds.update(seg.kind for seg in g.spine.segments)
        modes.add(g.mode)
        tails.add(bool(d.tail))
    assert kinds == set(SegKind) and modes == {"hahn", "sum"}
    assert tails == {True, False}


def _handoff_groups():
    """Groups whose long supports the kernel reads as runs on uniform
    segments, each cut a different way: by the change to the next
    segment, or by a segment with a position clause or a colour split
    on it, where the coordinate loop takes over.  On "free" a colour
    with the same rule on both sides names 0-2 and leaves the terminal
    rib uniform, so a tail that leaves z leaves it at every coordinate
    and the coordinate loop reads the segment from coordinate 0."""
    omega, omega_star, ints = (Segment(k) for k in (
        SegKind.OMEGA, SegKind.OMEGA_STAR, SegKind.INT))
    yield "segment", GroupSpec("segment", ChainSpec((omega_star, ints, omega)), (
        RibEntry(rib=window_rib(), segment=0), RibEntry(rib=z_rib())), "hahn")
    yield "position", GroupSpec("position", ChainSpec((ints, omega, omega)), (
        RibEntry(rib=q_rib(), position=Position(1, 4)),
        RibEntry(rib=z_local_rib(3), segment=2), RibEntry(rib=z_rib())), "hahn")
    yield "colour", GroupSpec("colour", ChainSpec(
        (omega_star, omega), (ColourRule("c", ((("none",), ("minus", frozenset(
            {2})))),),)), (RibEntry(rib=z_local_rib(3), colour="c"),
                           RibEntry(rib=z_rib())), "sum",
        (Generator("t", RibElement(6)),))
    yield "free", GroupSpec("free", ChainSpec(
        (omega,), (ColourRule("c", (("minus", frozenset({0, 1, 2})),)),)),
        (RibEntry(rib=z_rib(), colour="c"), RibEntry(rib=z_rib())), "hahn")


def _long_element(rng, g, m):
    """Eight coordinates on each segment, absolute values m-divisible
    nine times in ten, and a tail that leaves z half the time."""
    t = g.terminal_omega
    tail = rng.choice((0, 12, 1, 3, Fraction(1, 2))) if t is not None else 0
    pairs = [(Position(i, c), 12 * rng.randrange(-3, 4) if rng.randrange(10)
              else rng.choice(VALUES))
             for i in range(len(g.spine.segments)) for c in range(8)]
    return g.el(pairs, tail)


def test_runs_hand_off_to_the_coordinate_loop_as_the_oracle_reads(monkeypatch):
    """Reads with no ``minus`` at m >= 1 test each run of deviations on a
    segment with one rib in one call, and hand the rest to the
    coordinate loop: ``lead_m``, ``contains`` and ``in_m_multiples``
    agree with the oracle, and every way a run ends is met.  A uniform
    terminal segment goes to the reader whole when tail / m stays in
    its rib, and to the coordinate loop alone when it leaves."""
    runs = []
    real = valuation.rib_first_indivisible

    def recorded(rib, pairs, lo, hi, m, plus=None):
        out = real(rib, pairs, lo, hi, m, plus)
        runs.append((name, lo, hi, len(pairs), out))
        if name == "free":
            assert lo == 0 and hi == len(pairs), (pairs, m, plus)
            assert plus is None or rib_contains(
                rib, plus.scale(Fraction(1, m))), (pairs, m, plus)
        return out

    monkeypatch.setattr(valuation, "rib_first_indivisible", recorded)
    rng = random.Random(5)
    leaves = 0  # "free" reads whose tail leaves z at the modulus
    for name, g in _handoff_groups():
        for _ in range(40):
            for m in (1, 2, 3, 4, 6):
                a = _long_element(rng, g, m)
                leaves += name == "free" and not rib_contains(
                    z_rib(), a.tail.scale(Fraction(1, m)))
                assert lead_m(g, a, m) == _oracle_lead(g, a, m), (g, a, m)
                # at m = 1, val_m is INF on every element: read membership
                want = oracle_contains(g, a) if m == 1 else \
                    oracle_val_m(g, a, m) == SV_INF
                assert g.in_m_multiples(a, m)[0] == want, (g, a, m)
                assert g.contains(a) == oracle_contains(g, a), (g, a)
    # every run the reader passed whole stops short of the support
    cut = {name for name, lo, hi, n, out in runs if out == hi < n}
    assert cut == {"segment", "position", "colour"}
    assert any(lo > 0 for name, lo, hi, n, out in runs if name == "segment")
    # both ways of reading the uniform terminal segment are met
    assert leaves and any(name == "free" for name, *_ in runs)


def _sum_in_hahn(first, window):
    """The sum inside the full product over ``first`` + omega with z ribs;
    with ``window`` the big group has the nonstandard window on the
    first segment, so best approximations stop there."""
    spine = ChainSpec((Segment(first), Segment(SegKind.OMEGA)))
    small = GroupSpec("small", spine, (RibEntry(rib=z_rib()),), "sum")
    big_ribs = (RibEntry(rib=window_rib(), segment=0),) if window else ()
    big = GroupSpec("big", spine, big_ribs + (RibEntry(rib=z_rib()),),
                    "hahn")
    flags = {"sum_inside_hahn"} | ({"rib_extension"} if window else set())
    return PairSpec(small, big, frozenset(flags))


def _probes(pair, s, xs):
    """The samples, then the scheme's first rungs themselves and nudged
    by a unit at their values, so that x - g also vanishes or has its
    lead at the rung's value."""
    small = pair.small
    out = list(xs)
    for smp in s.samples[:3]:
        out.append(smp.g)
        if smp.delta.position is not None:
            out += [small.add(smp.g, small.el([(smp.delta.position, k)]))
                    for k in (-2, -1, 1)]
    return [x for x in out if small.contains(x)]


@pytest.mark.parametrize("window", [False, True])
@pytest.mark.parametrize("first", [SegKind.OMEGA_STAR, SegKind.INT,
                                   SegKind.DENSE_Q])
def test_scheme_eval_matches_the_direct_relation_off_the_catalogue(first,
                                                                  window):
    pair = _sum_in_hahn(first, window)
    rng = random.Random(f"{first.value}{window}")
    slots = [Position(0, c) for c in COORDS[first]] + [
        Position(1, c) for c in range(4)]
    ints = [-3, -2, -1, 1, 2, 3]
    values = ints + ([RibElement(0, 1), RibElement(
        Fraction(1, 2), Fraction(-1, 2))] if window else [])  # segment 0
    xs = [pair.small.el([])] + [
        pair.small.el([(p, rng.choice((-3, -1, 1, 2, 4)))
                       for p in rng.sample(slots, rng.randrange(1, 4))])
        for _ in range(8)]
    shapes = set()
    for _ in range(8):
        a = pair.big.el([(p, rng.choice(values if p.seg == 0 else ints))
                         for p in rng.sample(slots, rng.randrange(1, 4))],
                        rng.choice((0, 1, 2, 3)))
        for n in (1, 2, 3):
            for s in (scheme_sign(pair, a, n), scheme_cong(pair, a, n, 2, 1),
                      scheme_cong(pair, a, n, 3, 2), scheme_eqk(pair, a, n, 1),
                      scheme_eqk(pair, a, n, 0)):
                shapes.add("ladder" if s.ladder is not None else
                           "exact" if s.exact else
                           "rho" if s.rho is not None else "limit")
                for x in _probes(pair, s, xs):
                    assert scheme_eval(pair, s, x) == direct_relation(
                        pair, s, a, x), (s, a, x)
    assert "ladder" in shapes and ("rho" in shapes) == window
