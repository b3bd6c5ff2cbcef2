"""Element arithmetic and per-position structure of presented groups."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import oracle_val_m

from oagkit.catalogue import GROUPS, PAIRS, builtin_group, builtin_pair
from oagkit.chain import INF, ChainSpec, ColourRule, Position, Segment, SegKind
from oagkit.errors import PositionOutOfDomain, PresentationError
from oagkit.group import (ZERO_ELEMENT, GroupSpec, PairSpec, RibEntry,
                          SchematicRib)
from oagkit.rib import (RIB_ONE, RIB_ZERO, RibElement, q_rib, rib_contains,
                        z_rib)
from oagkit.valuation import SV_INF, sv_limit, sv_pos, val_m

H = builtin_group("g1")
SIGMA = builtin_group("sigma")


def h_elements():
    coords = [-3, -1, 0, 1, 2, 5]
    out = [ZERO_ELEMENT]
    for a in coords:
        for b in coords:
            out.append(H.el([((0, 0), a), ((0, 2), b)]))
    out.append(H.el([((0, 1), 4), ((0, 5), -2)]))
    return out


@given(st.sampled_from(h_elements()), st.sampled_from(h_elements()),
       st.sampled_from(h_elements()))
def test_addition_laws(x, y, z):
    assert H.add(H.add(x, y), z) == H.add(x, H.add(y, z))
    assert H.add(x, y) == H.add(y, x)
    assert H.add(x, ZERO_ELEMENT) == x
    assert H.add(x, H.neg(x)) == ZERO_ELEMENT
    assert H.sub(x, y) == H.add(x, H.neg(y))


@given(st.sampled_from(h_elements()), st.integers(min_value=-4, max_value=4))
def test_scaling_matches_iterated_sum(x, k):
    total = ZERO_ELEMENT
    for _ in range(abs(k)):
        total = H.add(total, x)
    if k < 0:
        total = H.neg(total)
    assert H.scale(x, k) == total


def test_coordinate_round_trip():
    x = H.el([((0, 0), 3), ((0, 4), -7)])
    assert H.coordinate(x, Position(0, 0)) == RibElement(Fraction(3))
    assert H.coordinate(x, Position(0, 4)) == RibElement(Fraction(-7))
    assert H.coordinate(x, Position(0, 2)) == RibElement(Fraction(0))


def test_membership_checks_the_rib():
    g = builtin_group("h235")
    assert g.contains(g.el([((0, 0), Fraction(1, 3))]))
    assert not g.contains(g.el([((0, 0), Fraction(1, 2))]))


def test_natural_valuation_is_min_support():
    x = H.el([((0, 2), 5), ((0, 4), -1)])
    assert val_m(H, x, 0) == oracle_val_m(H, x, 0) == sv_pos(Position(0, 2))
    assert val_m(H, ZERO_ELEMENT, 0) == oracle_val_m(H, ZERO_ELEMENT, 0) == SV_INF


def test_sign_is_leading_coordinate_sign():
    assert H.sign_of(H.el([((0, 1), -2), ((0, 2), 100)])) < 0
    assert H.sign_of(H.el([((0, 3), 1)])) > 0
    assert H.sign_of(ZERO_ELEMENT) == 0
    a = H.el([((0, 0), 1)])
    b = H.el([((0, 1), 99)])
    assert H.compare(a, b) > 0


def test_sum_mode_requires_finite_support_presentation():
    x = SIGMA.el([((0, 3), 2)])
    assert SIGMA.contains(x)
    assert SIGMA.sign_of(x) > 0


def test_tail_encodes_eventually_constant_value():
    x = SIGMA.el([], tail=1)
    assert H.contains(x)
    assert not SIGMA.contains(x)


def test_generator_elements():
    g = builtin_group("g4")
    gen = g.generator_element(g.generators[0].name)
    assert g.contains(gen)
    with pytest.raises(PresentationError):
        g.generator_element("nonexistent")


def test_m_multiple_membership():
    z2 = builtin_group("z2")
    x = z2.el([((0, 0), 4), ((0, 1), 6)])
    ok, w = z2.in_m_multiples(x, 2)
    assert ok and z2.scale(w, 2) == x
    assert not z2.in_m_multiples(z2.el([((0, 0), 4), ((0, 1), 3)]), 2)[0]
    q = builtin_group("q")
    assert q.in_m_multiples(q.el([((0, 0), Fraction(5))]), 3)[0]


def test_rib_lookup_by_position():
    h = builtin_group("h235")
    assert h.rib_at(Position(0, 0)).nondivisible_primes == (2,)
    assert h.rib_at(Position(1, 0)).nondivisible_primes == (3,)
    assert h.rib_at(Position(2, 0)).nondivisible_primes == (5,)


def test_skeleton_summarises_layout():
    sk = builtin_group("g2").skeleton()
    assert isinstance(sk, dict)
    assert sk["mode"] == "hahn"
    assert sk["segments"]


def test_pair_membership_direction():
    pair = builtin_pair("mod2")
    x = pair.small.el([((0, 0), 2)])
    assert pair.big.contains(x)
    assert pair.small.contains(x)


def test_pairs_catalogue_loads():
    for name in PAIRS:
        pair = builtin_pair(name)
        assert isinstance(pair, PairSpec)
    with pytest.raises(PresentationError):
        builtin_pair("no_such_pair")


def test_groups_catalogue_rejects_unknown():
    with pytest.raises(PresentationError):
        builtin_group("no_such_group")


def test_generator_requires_nonzero_tail():
    from oagkit.group import Generator
    with pytest.raises(Exception):
        Generator("t", tail=0)


# -- the canonical form el builds --------------------------------------------

# g1, an omega_star segment read top-down, and a dense segment, each before
# (or as) a terminal omega segment, so every deviation there sits under a tail
CANON_GROUPS = {
    "g1": H,
    "omega_star": GroupSpec("star", ChainSpec((Segment(SegKind.OMEGA_STAR),
                                               Segment(SegKind.OMEGA))),
                            (RibEntry(rib=z_rib()),)),
    "dense": GroupSpec("dense", ChainSpec((Segment(SegKind.DENSE_Q),
                                           Segment(SegKind.OMEGA))),
                       (RibEntry(rib=q_rib()),)),
}
canon_values = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), RibElement(3, 1)])


@st.composite
def canon_input(draw, g):
    """(pairs in chain order, the same pairs shuffled, tail), positions
    distinct, some values zero; a dense position may carry an int or a
    Fraction coordinate."""
    slots = list(g.spine.sample_positions(per_segment=5))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=8))
    pairs = [(p, draw(canon_values)) for p in sorted(chosen, key=g.spine.sort_key)]
    return pairs, draw(st.permutations(pairs)), draw(canon_values)


def _dense_twin(g, p):
    """The same point, named by the other coordinate type where one is
    dense: 1 against Fraction(1)."""
    if not g.spine.segments[p.seg].kind.is_dense:
        return p
    c = p.coord
    return Position(p.seg, Fraction(c) if type(c) is int else
                    (int(c) if c.denominator == 1 else c))


@given(st.sampled_from(sorted(CANON_GROUPS)), st.data())
def test_el_builds_one_canonical_form_from_any_order(name, data):
    g = CANON_GROUPS[name]
    ordered, shuffled, tail = data.draw(canon_input(g))
    tail = RibElement(tail) if not isinstance(tail, RibElement) else tail
    t = g.terminal_omega

    def dev(p, v):
        v = v if isinstance(v, RibElement) else RibElement(v)
        return v - tail if p.seg == t else v

    want = tuple((p, dev(p, v)) for p, v in ordered if dev(p, v))
    e = g.el(ordered, tail)
    assert e.fp == want and e.tail == tail  # zero deviations are dropped
    assert g.el(shuffled, tail) == e
    assert g.el(list(reversed(ordered)), tail) == e


@given(st.sampled_from(sorted(CANON_GROUPS)), st.data())
def test_el_refuses_every_repeat_in_any_order(name, data):
    g = CANON_GROUPS[name]
    ordered, shuffled, tail = data.draw(canon_input(g))
    slots = list(g.spine.sample_positions(per_segment=5))
    p = data.draw(st.sampled_from(slots))
    pairs = data.draw(st.sampled_from([ordered, shuffled]))
    pairs = [pv for pv in pairs if pv[0] != p]
    first = data.draw(st.integers(0, len(pairs)))
    # the repeat right after the first copy, or anywhere later
    second = data.draw(st.sampled_from([first, data.draw(
        st.integers(first, len(pairs)))]))
    repeat = _dense_twin(g, p) if data.draw(st.booleans()) else p
    pairs.insert(second, (repeat, data.draw(canon_values)))
    pairs.insert(first, (p, data.draw(canon_values)))
    with pytest.raises(PresentationError, match="duplicate coordinate at"):
        g.el(pairs, tail)


@pytest.mark.parametrize("pairs", [
    [(Position(0, 1), 2), (Position(0, Fraction(1)), 3)],
    [(Position(0, Fraction(1)), 2), (Position(0, 1), 0)],
    [(Position(0, 0), 1), (Position(0, 1), 2), (Position(0, Fraction(1)), 3)],
    [(Position(0, Fraction(1)), 0), (Position(0, 0), 1), (Position(0, 1), 2)],
])
def test_el_refuses_an_int_and_a_fraction_naming_one_dense_point(pairs):
    with pytest.raises(PresentationError,
                       match=r"duplicate coordinate at pos\(0, 1\)"):
        CANON_GROUPS["dense"].el(pairs)


@pytest.mark.parametrize("name,pairs", [
    # each list is in chain order by key, so only the position check refuses
    ("g1", [(Position(0, -1), 1), (Position(0, 0), 1)]),
    ("g1", [(Position(0, 0), 1), (Position(0, Fraction(1, 2)), 0),
            (Position(0, 1), 1)]),
    ("g1", [(Position(0, 0), 1), (Position(1, 0), 1)]),
    ("omega_star", [(Position(0, 1), 1), (Position(0, -1), 1)]),
    ("dense", [(Position(0, 0), 1), (Position(1, Fraction(1, 2)), 1)]),
])
def test_el_checks_every_position_of_ordered_input(name, pairs):
    with pytest.raises(PositionOutOfDomain):
        CANON_GROUPS[name].el(pairs)


def test_el_refuses_a_segment_index_that_is_not_an_int():
    # z2r has two segments, so True would otherwise pass as segment 1
    g = builtin_group("z2r")
    with pytest.raises(PositionOutOfDomain, match="segment True is not an int"):
        g.el([((True, 0), 1)])
    with pytest.raises(PositionOutOfDomain, match="is not a position"):
        g.el([(INF, 1)])


# -- add and sub against a coordinate dict ---------------------------------

MERGE_GROUPS = {**CANON_GROUPS,
                "int": GroupSpec("int", ChainSpec((Segment(SegKind.INT),)),
                                 (RibEntry(rib=z_rib()),))}


def _rib(v) -> RibElement:
    return v if isinstance(v, RibElement) else RibElement(v)


def _coords(g, e) -> dict:
    """Position -> coordinate at every deviation of e, read from fp and
    tail alone; off them a terminal coordinate holds the tail."""
    t = g.terminal_omega
    return {p: v + e.tail if p.seg == t else v for p, v in e.fp}


def _coord(g, coords, e, p):
    return coords.get(p, e.tail if p.seg == g.terminal_omega else RibElement(0))


@st.composite
def merge_operands(draw, g):
    """(a, b, minus): b cancels some of a's deviations under a + b
    (a - b when minus) and names a dense point of a by the other
    coordinate type."""
    minus = draw(st.booleans())
    pairs, _, tail_a = draw(canon_input(g))
    t = g.terminal_omega
    tail_a = tail_a if t is not None else 0
    a = g.el(pairs, tail_a)
    tail_b = draw(canon_values) if t is not None else 0
    b_pairs = {}
    for p, v in a.fp:
        kind = draw(st.sampled_from(["skip", "cancel", "twin", "other"]))
        if kind == "skip":
            continue
        q = _dense_twin(g, p) if kind == "twin" else p
        if kind == "other":
            d = _rib(draw(canon_values))
        else:  # b's deviation cancels a's: v under a - b, -v under a + b
            d = v if minus else -v
        b_pairs[q] = d + _rib(tail_b) if p.seg == t else d
    for p, v in draw(canon_input(g))[0]:
        if p not in b_pairs:
            b_pairs[p] = v
    b = g.el(list(b_pairs.items()), tail_b)
    return a, b, minus


@given(st.sampled_from(sorted(MERGE_GROUPS)), st.data())
def test_add_and_sub_agree_with_a_coordinate_dict(name, data):
    g = MERGE_GROUPS[name]
    a, b, minus = data.draw(merge_operands(g))
    c = g.sub(a, b) if minus else g.add(a, b)
    assert c.tail == (a.tail - b.tail if minus else a.tail + b.tail)
    ca, cb, cc = _coords(g, a), _coords(g, b), _coords(g, c)
    for p in {*ca, *cb, *cc}:
        x, y = _coord(g, ca, a, p), _coord(g, cb, b, p)
        assert _coord(g, cc, c, p) == (x - y if minus else x + y), p
    positions = [p for p, _ in c.fp]
    assert all(v for _, v in c.fp)  # zero deviations are dropped
    assert positions == sorted(positions, key=g.spine.sort_key)
    assert len({g.spine.sort_key(p) for p in positions}) == len(positions)


def test_add_and_sub_keep_the_operands_untouched_pairs():
    a = H.el([((0, 0), 1), ((0, 2), 5), ((0, 4), 2)])
    b = H.el([((0, 1), 3), ((0, 2), -5), ((0, 3), 7)])
    s = H.add(a, b)  # 5 - 5 cancels at pos(0, 2)
    assert [v for _, v in s.fp] == [RibElement(v) for v in (1, 3, 7, 2)]
    assert all(x is y for x, y in zip(s.fp, (a.fp[0], b.fp[0], b.fp[2], a.fp[2])))
    d = H.sub(a, b)  # b's own pairs are negated; a's untouched ones stay
    assert [v for _, v in d.fp] == [RibElement(v) for v in (1, -3, 10, -7, 2)]
    assert d.fp[0] is a.fp[0] and d.fp[4] is a.fp[2]


def test_elements_survive_pickle_and_copy():
    e = H.el([((0, 0), Fraction(1, 2)), ((0, 3), RibElement(2, -1))], tail=3)
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert twin == e and hash(twin) == hash(e)
        assert H.add(twin, e) == H.scale(e, 2)


@pytest.mark.parametrize("fresh", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
    lambda v: RibElement(v.q, v.w)],
    ids=["pickle", "copy", "deepcopy", "init"])
def test_the_kernels_drop_zero_results_of_values_they_did_not_share(fresh):
    """Small values that ``rib`` builds are shared, and the kernels test
    what they just built against RIB_ZERO by identity; operands equal to
    a shared value but not it still cancel to nothing."""
    three, zero = fresh(RIB_ONE.scale(3)), fresh(RIB_ZERO)
    assert three == 3 * RIB_ONE and zero == RIB_ZERO and zero is not RIB_ZERO
    a = H.el([((0, 1), three), ((0, 2), zero)])
    b = H.el([((0, 1), fresh(RIB_ONE.scale(3)))])
    assert a.fp == ((Position(0, 1), three),)
    assert H.sub(a, b) == H.add(a, H.neg(b)) == ZERO_ELEMENT
    assert H.sub(a, b).fp == H.add(b, H.neg(a)).fp == ()
    # el takes the tail off each terminal coordinate: 3 - 3 is dropped
    assert H.el([((0, 1), three), ((0, 4), 5)], tail=three).fp == (
        (Position(0, 4), RibElement(2)),)


# -- the element layer against its definitions, on every catalogue group --

GROUP_NAMES = sorted(GROUPS)
rib_values = st.builds(
    RibElement,
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]))


@st.composite
def group_elements(draw, g):
    """Deviations at sampled positions of every segment (dense, omega_star
    and terminal ones included) and, over a terminal omega segment, a
    tail."""
    slots = list(g.spine.sample_positions(per_segment=5))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=6))
    pairs = [(p, draw(rib_values)) for p in chosen]
    tail = draw(rib_values) if g.terminal_omega is not None else 0
    return g.el(pairs, tail)


def _brute_sign(g, a, b):
    """Sign of a - b from the first differing coordinate, read position by
    position over both supports and a terminal run past them."""
    positions = {p for p, _ in a.fp + b.fp}
    t = g.terminal_omega
    if t is not None:
        top = max([p.coord for p in positions if p.seg == t], default=0)
        positions |= {Position(t, n) for n in range(top + 2)}
    for p in sorted(positions, key=g.spine.sort_key):
        x, y = g.coordinate(a, p), g.coordinate(b, p)
        if x != y:
            return 1 if x > y else -1
    return 0


@given(st.sampled_from(GROUP_NAMES), st.data())
def test_compare_is_the_sign_of_the_difference(name, data):
    g = builtin_group(name)
    a, b = data.draw(group_elements(g)), data.draw(group_elements(g))
    want = g.sign_of(g.add(a, g.neg(b)))
    assert g.compare(a, b) == want == _brute_sign(g, a, b)
    assert g.compare(b, a) == -want
    assert g.compare(a, a) == 0


@given(st.sampled_from(GROUP_NAMES), st.data())
def test_sub_is_addition_of_the_negation(name, data):
    g = builtin_group(name)
    a, b = data.draw(group_elements(g)), data.draw(group_elements(g))
    assert g.sub(a, b) == g.add(a, g.neg(b))
    assert g.sub(a, a) == ZERO_ELEMENT


# the catalogue, and two terminal segments with named coordinates: a
# colour with one rule on both sides keeps the rib uniform, a position
# clause in a schematic segment does not
PREMISE_NAMES = GROUP_NAMES + ["z_colour", "z_at_two"]


def _premise_group(name):
    if name == "z_colour":
        spine = ChainSpec((Segment(SegKind.OMEGA),), (ColourRule(
            "c", (("minus", frozenset({0, 1, 2})),)),))
        return GroupSpec(name, spine, (RibEntry(rib=z_rib(), colour="c"),
                                       RibEntry(rib=z_rib())))
    return _z_at_two("position") if name == "z_at_two" else \
        builtin_group(name)


def _check_tail_exits(g, e, m):
    """What ``_tail_exits`` must give the lead kernel and ``best_approx``:
    on a uniform terminal rib, tail / m leaves it at every free
    coordinate or at none; the tail of a member of g leaves its rib at
    no free coordinate, only at some of the member's deviations."""
    t = g.terminal_omega
    if t is None or not e.tail:
        return
    if g._uniform[t] is not None:
        assert g._tail_exits(e.tail.scale(Fraction(1, max(m, 1))))[1] == ()
    # e, and e's tail over zeros below the horizon and three past it
    zeros = g.el([(Position(t, c), 0)
                  for c in range(g.layouts[t].horizon + 3)], e.tail)
    for x in (e, zeros):
        if g.contains(x):
            cofinal, listed = g._tail_exits(x.tail)
            assert not cofinal
            assert set(listed) <= {p.coord for p, _ in x.fp if p.seg == t}


@given(st.sampled_from(PREMISE_NAMES), st.data(), st.integers(1, 6),
       st.booleans())
def test_in_m_multiples_is_membership_of_the_quotient(name, data, m, lift):
    g = _premise_group(name)
    e = data.draw(group_elements(g))
    if lift:  # so that the quotient lands inside when e does
        e = g.scale(e, m)
    ok, witness = g.in_m_multiples(e, m)
    assert ok == g.contains(g.scale(e, Fraction(1, m)))
    _check_tail_exits(g, e, m)
    if ok:
        assert g.contains(witness) and g.scale(witness, m) == e
        _check_tail_exits(g, witness, m)
    else:
        assert witness is None


def _brute_val_m(g, e, m):
    """val_m by a scan of every deviation and the first 40 terminal
    coordinates, which passes every coordinate where a tail drawn above
    leaves its rib."""
    positions = {p for p, _ in e.fp}
    t = g.terminal_omega
    if e.tail:
        positions |= {Position(t, n) for n in range(40)}
    for p in sorted(positions, key=g.spine.sort_key):
        c = g.coordinate(e, p)
        if m == 0 and c or m and not rib_contains(g.rib_at(p),
                                                 c.scale(Fraction(1, m))):
            return sv_pos(p)
    if m == 0 or not e.tail or g.mode == "hahn" or g.in_m_multiples(e, m)[0]:
        return SV_INF
    return sv_limit(t)


@given(st.sampled_from(PREMISE_NAMES), st.data(), st.sampled_from([0, 2, 3, 6]))
def test_val_m_is_the_first_coordinate_that_fails(name, data, m):
    g = _premise_group(name)
    e = data.draw(group_elements(g))
    assert val_m(g, e, m) == _brute_val_m(g, e, m)
    _check_tail_exits(g, e, m)


def test_a_nonstandard_tail_leaves_a_schematic_rib_at_every_free_coordinate():
    h = builtin_group("h_primes")
    e = h.el([(Position(0, n), 6 * (n + 1)) for n in range(6)],
             RibElement(0, Fraction(3, 2)))
    assert not h.contains(e)
    assert val_m(h, e, 2) == val_m(h, e, 3) == sv_pos(Position(0, 6))
    assert not h.in_m_multiples(e, 2)[0]


def test_a_schematic_walk_reads_the_deviations_past_the_failing_coordinates():
    h = builtin_group("h_primes")
    # coordinate 3 carries the prime 7; the tail 1 leaves no rib, and
    # halving it fails only at coordinate 0, which the deviation repairs
    e = h.el([(Position(0, 0), 2), (Position(0, 3), Fraction(1, 7))], 1)
    assert not h.contains(e)
    assert val_m(h, e, 2) == sv_pos(Position(0, 3))
    assert not h.in_m_multiples(e, 2)[0]
    assert h.contains(h.el([(Position(0, 0), 2), (Position(0, 3), 5)], 1))


def _z_at_two(kind):
    """h_primes with an integer rib at coordinate 2, set by a colour or by
    a position clause."""
    template = SchematicRib("z_local")
    if kind == "colour":
        spine = ChainSpec((Segment(SegKind.OMEGA),),
                          (ColourRule("most", (("minus", frozenset({2})),)),))
        ribs = (RibEntry(schematic=template, colour="most"),
                RibEntry(rib=z_rib()))
    else:
        spine = ChainSpec((Segment(SegKind.OMEGA),))
        ribs = (RibEntry(rib=z_rib(), position=Position(0, 2)),
                RibEntry(schematic=template))
    return GroupSpec(f"z_at_two_{kind}", spine, ribs)


@pytest.mark.parametrize("kind", ["colour", "position"])
def test_a_schematic_segment_with_other_clauses_keeps_the_full_walk(kind):
    g = _z_at_two(kind)
    # the template names only coordinate 1 (the prime 3) for the tail
    # 1/3, and the deviation clears it; 1/3 also leaves the integer rib
    # at coordinate 2
    e = g.el([(Position(0, 1), 0)], Fraction(1, 3))
    assert not g.contains(e)
    assert not g.in_m_multiples(g.scale(e, 7), 7)[0]
