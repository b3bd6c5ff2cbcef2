"""Every path through the element layer against a plain restatement.

``GroupSpec.el`` reads typed input in chain order in one checked pass
and sends everything else down a second path that converts, checks and
sorts.  The reference here always takes the long way: convert each
pair, check its position, key it by ``sort_key``, refuse a repeat, drop
zeros and sort.  Both must give the same element or the same error.
The elements built are then added, subtracted, compared and valued
against the oracles.  Each spine puts an omega*, an int and a dense
segment before a terminal omega whose tail is an integer, a window
value or a schematic one.
"""

import random
from fractions import Fraction

import pytest

from oracles import oracle_contains, oracle_val_m

from oagkit.chain import ChainSpec, Position, Segment, SegKind
from oagkit.errors import PositionOutOfDomain, PresentationError
from oagkit.group import Element, Generator, GroupSpec, RibEntry, SchematicRib
from oagkit.rib import OMEGA_UNIT, RibElement, q_rib, window_rib, z_rib
from oagkit.valuation import SV_INF, lead_m, val_m

SPINE = ChainSpec(tuple(Segment(k) for k in (
    SegKind.OMEGA_STAR, SegKind.INT, SegKind.DENSE_Q, SegKind.OMEGA)))
BELOW = (RibEntry(rib=q_rib(), segment=2), RibEntry(rib=z_rib(), segment=0),
         RibEntry(rib=z_rib(), segment=1))
GROUPS = {
    "int_tail": GroupSpec("int_tail", SPINE, BELOW + (
        RibEntry(rib=z_rib()),)),
    "window_tail": GroupSpec("window_tail", SPINE, BELOW + (
        RibEntry(rib=window_rib()),), "sum", (Generator("w", OMEGA_UNIT),)),
    "schematic_tail": GroupSpec("schematic_tail", SPINE, BELOW + (
        RibEntry(schematic=SchematicRib("z_local")),)),
}
TAILS = {
    "int_tail": [0, 2, -3, Fraction(1, 2)],
    "window_tail": [0, RibElement(0, 1), RibElement(0, -2), RibElement(2, 1)],
    "schematic_tail": [0, Fraction(1, 3), Fraction(2, 15), 1],
}
SLOTS = ([Position(0, c) for c in range(4)] + [Position(1, c) for c in (-2, 0, 3)]
         + [Position(2, c) for c in (-1, Fraction(1, 3), 0, Fraction(5, 2))]
         + [Position(3, c) for c in range(5)])
VALUES = [1, -1, 2, 3, 6, -6, 12, Fraction(1, 2), Fraction(2, 3),
          RibElement(0, 1), RibElement(1, -1), RibElement(Fraction(1, 2), 2)]
# positions every check refuses: below an omega segment, before the first
# or past the last segment, a bool segment or coordinate, a Fraction on a
# discrete segment
REFUSED = [Position(0, -1), Position(3, -2), Position(-1, 0), Position(4, 0),
           Position(True, 0), Position(1, True), Position(3, Fraction(1, 2)),
           Position(0, Fraction(1))]


def _reference_el(g, pairs, tail, absolute=True):
    """What ``el`` builds from absolute coordinates, or from deviations
    when not ``absolute``, the long way."""
    tail = tail if isinstance(tail, RibElement) else RibElement(tail)
    t = g.terminal_omega
    converted = []
    for p, v in pairs:
        if type(p) is not Position:
            if not isinstance(p, tuple):
                raise PositionOutOfDomain(f"{p!r} is not a position")
            p = Position(*p)
        v = v if isinstance(v, RibElement) else RibElement(v)
        converted.append((p, v - tail if absolute and tail and p.seg == t else v))
    if tail and t is None:
        raise PresentationError("a tail needs a terminal omega segment")
    keyed = {}
    for p, v in converted:
        g.spine.check_position(p)
        k = g.spine.sort_key(p)
        if k in keyed:
            raise PresentationError(f"duplicate coordinate at {p}")
        keyed[k] = (p, v)
    return Element(tuple(pv for _, pv in sorted(keyed.items()) if pv[1]), tail)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message must agree
        return "error", type(exc), str(exc)


def _typed(rng, n):
    """n distinct positions with typed values, in chain order."""
    picked = sorted(rng.sample(SLOTS, n), key=SPINE.sort_key)
    return [(p, RibElement(v) if not isinstance(v, RibElement) else v)
            for p, v in zip(picked, (rng.choice(VALUES + [0]) for _ in picked))]


def _variant(rng, pairs, kind):
    """The typed, ordered ``pairs`` rewritten as one input shape."""
    pairs = list(pairs)
    i = rng.randrange(len(pairs)) if pairs else 0
    if kind == "reversed":
        return pairs[::-1]
    if kind == "shuffled":
        rng.shuffle(pairs)
        return pairs
    if kind == "repeated" and pairs:
        pairs.insert(rng.randrange(i, len(pairs) + 1), (pairs[i][0], RibElement(1)))
        return pairs
    if kind == "tuple_position" and pairs:
        p, v = pairs[i]
        pairs[i] = ((p.seg, p.coord), v)
        return pairs
    if kind == "plain_number":
        return [(p, rng.choice((v, 5, Fraction(-1, 3)))) for p, v in pairs]
    if kind == "bool_value" and pairs:
        pairs[i] = (pairs[i][0], rng.choice((True, False)))
        return pairs
    if kind == "refused":
        pairs.insert(i, (rng.choice(REFUSED), RibElement(1)))
        return pairs
    if kind == "list_pair" and pairs:
        pairs[i] = list(pairs[i])
        return pairs
    return pairs


KINDS = ("ordered", "reversed", "shuffled", "repeated", "tuple_position",
         "plain_number", "bool_value", "refused", "list_pair")


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_el_agrees_with_the_plain_reference_on_every_input_shape(name):
    g = GROUPS[name]
    rng = random.Random(name)
    seen = set()
    for _ in range(150):
        base = _typed(rng, rng.randrange(0, 8))
        tail = rng.choice(TAILS[name])
        for kind in KINDS:
            pairs = _variant(rng, base, kind)
            want = _outcome(_reference_el, g, pairs, tail)
            got = _outcome(g.el, pairs, tail)
            assert got == want, (kind, pairs, tail)
            got = _outcome(g.el, iter(pairs), tail)  # a one-shot iterable
            assert got == want, (kind, pairs, tail)
            seen.add((kind, want[0] if want[0] == "ok" else want[1].__name__))
    assert {("ordered", "ok"), ("shuffled", "ok"),
            ("repeated", "PresentationError"),
            ("refused", "PositionOutOfDomain")} <= seen


def test_el_keeps_typed_pairs_that_nothing_converts():
    g = GROUPS["int_tail"]
    pairs = [(Position(0, 2), RibElement(1)), (Position(1, 0), RibElement(3)),
             (Position(3, 1), RibElement(5))]
    e = g.el(pairs, 2)
    assert e.fp[0] is pairs[0] and e.fp[1] is pairs[1]
    assert e.fp[2] == (Position(3, 1), RibElement(3))  # the tail came off


def _combined(g, a, b, sign):
    """a + sign * b from the two deviation dicts, through the reference."""
    devs = dict(a.fp)
    for p, v in b.fp:
        devs[p] = devs.get(p, RibElement(0)) + v.scale(sign)
    return _reference_el(g, devs.items(), a.tail + b.tail.scale(sign), False)


def _elements(g, rng, name):
    while True:
        pairs = _variant(rng, _typed(rng, rng.randrange(0, 8)),
                         rng.choice(("ordered", "shuffled", "plain_number")))
        yield g.el(pairs, rng.choice(TAILS[name]))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_the_element_ops_agree_with_the_oracles(name):
    g = GROUPS[name]
    rng = random.Random(f"ops-{name}")
    elements = _elements(g, rng, name)
    moduli = set()
    for _ in range(120):
        a, b = next(elements), next(elements)
        if rng.randrange(3) == 0 and a.fp:  # share a deviation, so it cancels
            b = g.add(b, Element(a.fp[:1]))
        for sign, op in ((1, g.add), (-1, g.sub)):
            assert op(a, b) == _combined(g, a, b, sign), (a, b, sign)
        d = _combined(g, a, b, -1)
        v = oracle_val_m(g, d, 0)
        want = 0 if v.position is None else g.coordinate(d, v.position).sign
        assert g.compare(a, b) == want and g.compare(b, a) == -want, (a, b)
        assert g.contains(a) == oracle_contains(g, a), a
        for m in (0, 2, 3, 6):
            v = oracle_val_m(g, a, m)
            assert val_m(g, a, m) == v, (a, m)
            c = None if v.position is None else g.coordinate(a, v.position)
            assert lead_m(g, a, m) == (v, c), (a, m)
            if m:
                ok, witness = g.in_m_multiples(a, m)
                assert ok == (v == SV_INF), (a, m)
                assert not ok or g.scale(witness, m) == a
                moduli.add((m, ok))
    assert {(m, ok) for m in (2, 3, 6) for ok in (True, False)} <= moduli
