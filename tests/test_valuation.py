"""Coarsened valuations checked against a brute-force oracle.

The oracle (tests/oracles.py) restates divisibility from scratch: a
coordinate is an m-th multiple in its rib exactly when dividing it by m
stays inside the rib's domain.  Ribs are torsion-free, so the only
candidate quotient is q/m, and membership is a plain denominator check
per domain tag.
"""

import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import factoring_hits, oracle_val_m, random_element

from oagkit.catalogue import GROUPS as CATALOGUE
from oagkit.catalogue import builtin_group
from oagkit.chain import NONE, ChainSpec, Position, Segment, SegKind, omega
from oagkit.classify import Status, classify_main
from oagkit.codec import (dumps, group_from_data, group_to_data, load_group,
                          pair_from_data)
from oagkit.errors import OagError, PresentationError
from oagkit.group import ZERO_ELEMENT, Element, GroupSpec, RibEntry, SchematicRib
from oagkit.rib import (RibElement, RibSpec, q_rib, r_proxy_rib, rib_contains,
                        script_z_rib, window_rib, z_local_rib, z_rib)
from oagkit.valuation import (SV_INF, SpineValueKind, _m_hits, _union_piece,
                              check_m, check_ur, compare_spine_values, lead_m,
                              pred_cong_bullet, pred_eq_bullet, regular_spine,
                              relevant_primes, spine_m, sv_pos, val_m,
                              value_set_contains)

PRESENTATIONS = Path(__file__).parent / "presentations"

GROUPS = [builtin_group(n) for n in ("g1", "z2", "h235", "sigma", "z2r")]


def test_val_m_matches_oracle_on_200_samples():
    rng = random.Random(20260819)
    checked = 0
    while checked < 200:
        g = rng.choice(GROUPS)
        x = random_element(g, rng)
        m = rng.choice((0, 2, 3, 4))
        got = val_m(g, x, m)
        want = oracle_val_m(g, x, m)
        assert got == want, (g.name, x, m, got, want)
        checked += 1


def test_val_m_ultrametric_and_translation():
    rng = random.Random(77)
    for _ in range(120):
        g = rng.choice(GROUPS)
        x, y = random_element(g, rng), random_element(g, rng)
        m = rng.choice((0, 2, 3, 4))
        vx, vy = val_m(g, x, m), val_m(g, y, m)
        vs = val_m(g, g.add(x, y), m)
        lo = vx if compare_spine_values(g.spine, vx, vy) <= 0 else vy
        assert compare_spine_values(g.spine, vs, lo) >= 0
        shift = g.scale(y, m)
        assert val_m(g, g.add(x, shift), m) == val_m(g, x, m)


def test_val_zero_is_natural_valuation():
    g = builtin_group("g1")
    x = g.el([((0, 3), 4)])
    assert val_m(g, x, 0) == oracle_val_m(g, x, 0) == sv_pos(Position(0, 3))
    assert val_m(g, ZERO_ELEMENT, 0) == SV_INF


def test_val_one_is_trivial():
    g = builtin_group("g1")
    assert val_m(g, g.el([((0, 0), 1)]), 1) == SV_INF


@pytest.mark.parametrize("call", [
    lambda g, e: g.contains(e), lambda g, e: val_m(g, e, 2),
    lambda g, e: val_m(g, e, 0)], ids=["contains", "val_m2", "val_m0"])
def test_a_tail_on_a_group_without_a_terminal_omega_is_refused(call):
    """An element of another group, with a tail, on a group whose spine
    ends without an omega segment: refused as ``el`` refuses it."""
    g = builtin_group("z")
    with pytest.raises(PresentationError,
                       match="a tail needs a terminal omega segment"):
        g.el((), 1)
    with pytest.raises(PresentationError,
                       match="a tail needs a terminal omega segment"):
        call(g, Element((), RibElement(1)))


# -- spine tables -------------------------------------------------------------


def test_composite_spine_is_union_over_prime_parts():
    g = builtin_group("h235")
    vs = spine_m(g, 30)
    for seg in range(3):
        assert value_set_contains(g, vs, sv_pos(Position(seg, 0)))
    assert vs.inf


def test_divisible_spine_is_endpoints_only():
    g = builtin_group("q")
    vs = spine_m(g, 5)
    assert vs.inf
    assert not value_set_contains(g, vs, sv_pos(Position(0, 0)))


def test_spine_m_degenerate_moduli():
    g = builtin_group("g1")
    assert value_set_contains(g, spine_m(g, 0), sv_pos(Position(0, 3)))
    assert not value_set_contains(g, spine_m(g, 1), sv_pos(Position(0, 3)))


# -- hypotheses ---------------------------------------------------------------


def test_limit_values_break_hypothesis_m():
    res = check_m(builtin_group("g4"))
    assert not res.holds
    assert res.modulus == 2
    assert res.witness is not None


def test_hypothesis_m_holds_on_products():
    for name in ("g1", "g2", "h235", "z2", "sigma"):
        assert check_m(builtin_group(name)).holds, name


def test_uniform_value_sets():
    for name in ("g1", "g2", "z", "z2r", "sigma"):
        res = check_ur(builtin_group(name))
        assert res.holds, name
    res = check_ur(builtin_group("h235"))
    assert res.holds
    assert res.modulus == 30


def test_glued_ladders_fail_uniformity():
    res = check_ur(builtin_group("g3"))
    assert not res.holds
    assert res.witness is not None


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _groups_to_compare():
    """The catalogue, the presentations that build, and every group and
    pair side of ``verdict_stream`` seeds 0-5 that builds."""
    groups = [builtin_group(name) for name in sorted(CATALOGUE)]
    for path in sorted(PRESENTATIONS.glob("*.json")):
        try:
            groups.append(load_group(str(path)))
        except OagError:
            pass
    gen = _bench_gen()
    for seed in range(6):
        for kind, d in itertools.islice(gen.verdict_stream(seed), 1500):
            try:
                if kind == "group":
                    groups.append(group_from_data(d))
                else:
                    pair = pair_from_data(d)
                    groups += [pair.small, pair.big]
            except PresentationError:
                pass
    return groups


def _compared_ur(g):
    """(holds, modulus) of UR as ``check_ur`` read it before its closed
    form: spine_m(g, N) against the union of the prime value sets,
    segment by segment, an empty ``only`` piece reading as none."""
    primes, wildcard, unbounded = relevant_primes(g)
    if unbounded:
        return False, None
    n = math.prod(primes | ({2} if wildcard or not primes else set()))

    def normal(piece):
        return NONE if piece[0] == "only" and not piece[1] else piece

    pieces = spine_m(g, n).pieces
    return all(normal(pieces[i]) == normal(_union_piece(g, i))
               for i in range(len(pieces))), n


def test_uniform_value_sets_in_closed_form_match_the_comparison():
    groups = _groups_to_compare()
    assert len(groups) > 9000
    schematic = 0
    for g in groups:
        ur = check_ur(g)
        holds, n = _compared_ur(g)
        assert (ur.holds, ur.modulus) == (holds, n), g.name
        if holds:
            assert spine_m(g, n).pieces == tuple(
                _union_piece(g, i) for i in range(len(g.spine.segments))), g.name
        schematic += not holds
    assert schematic >= 2


def test_check_ur_reads_no_value_set_and_each_check_is_stored():
    for name in ("g1", "h235", "z2r", "g4"):
        g = group_from_data(group_to_data(builtin_group(name)))
        ur = check_ur(g)
        assert ur.holds and ur.modulus is not None, name
        assert not any(key[0] == "spine_m" for key in g.value_sets), name
        assert check_ur(g) is ur
        assert check_m(g) is check_m(g)


# -- the index rule and the stored value sets ----------------------------------


def test_m_hits_matches_the_factoring_rule():
    ribs = [z_rib(), q_rib(), r_proxy_rib(), window_rib()]
    for p in (2, 3, 5, 7):
        ribs += [z_local_rib(p), script_z_rib(p)]
    for template in ("z_local", "script_z"):
        ribs += [SchematicRib(template).rib_for(n) for n in range(6)]
    for rib in ribs:
        for m in range(1, 257):
            assert _m_hits(rib, m) == factoring_hits(rib, m), (rib, m)


def _presentations():
    yield from ((name, lambda name=name: group_from_data(
        group_to_data(builtin_group(name)))) for name in sorted(CATALOGUE))
    for path in sorted(PRESENTATIONS.glob("*.json")):
        yield path.name, lambda path=path: load_group(str(path))


def _answers(g, calls):
    out = {}
    for label, call in calls:
        try:
            out[label] = call(g)
        except OagError as e:
            out[label] = (type(e).__name__, str(e))
    return out


CALLS = [*((f"spine_m {m}", lambda g, m=m: spine_m(g, m)) for m in range(2, 13)),
         ("check_m", check_m), ("check_ur", check_ur),
         ("regular_spine", regular_spine), ("relevant_primes", relevant_primes),
         ("classify_main", lambda g: dumps(classify_main(g)))]


@pytest.mark.parametrize("name,decode", list(_presentations()))
def test_stored_value_sets_change_no_answer(name, decode):
    try:
        g = decode()
    except OagError as e:  # a file the presentation checks refuse
        with pytest.raises(type(e)) as again:
            decode()
        assert str(again.value) == str(e)
        return
    forward = _answers(g, CALLS)
    assert _answers(decode(), CALLS[::-1]) == forward
    primes = relevant_primes(g)[0]
    assert isinstance(primes, frozenset)
    with pytest.raises(AttributeError):
        primes.add(97)
    assert _answers(g, CALLS) == forward


# -- quotients ----------------------------------------------------------------


def test_every_relevant_prime_colours_the_regular_spine():
    # the seventh relevant prime, 17, divides segment 0 but not segment 1:
    # its value set is cofinal in segment 0 and empty above it
    def cut_complete(*primes):
        return RibSpec("c", ("coprime", primes), True)

    spine = ChainSpec((Segment(SegKind.OMEGA), Segment(SegKind.OMEGA_STAR)))
    g = GroupSpec("seven", spine,
                  (RibEntry(rib=cut_complete(2, 3, 5, 7, 11, 13, 17), segment=0),
                   RibEntry(rib=cut_complete(2, 3, 5, 7, 11, 13), segment=1)),
                  "hahn")
    names = [c.name for c in regular_spine(g).colours]
    assert names == ["mod-17 values"]
    assert classify_main(g).status is Status.SE


# -- predicates ---------------------------------------------------------------


def test_sign_and_congruence_predicates():
    g = builtin_group("z")
    five = g.el([((0, 0), 5)])
    assert pred_eq_bullet(g, five, 5)
    assert not pred_eq_bullet(g, five, 4)
    assert pred_cong_bullet(g, five, 2, 1)
    assert not pred_cong_bullet(g, five, 2, 0)
    assert pred_eq_bullet(g, ZERO_ELEMENT, 0)
    assert not pred_eq_bullet(g, ZERO_ELEMENT, 1)


# -- the lead of a difference -------------------------------------------------


def _lead_groups():
    """Builtins with limit values (sigma_ext), schematic ribs (h_primes)
    and no tail (z3); a reversed omega_star segment before the terminal
    one; and position clauses a tail leaves its rib at only (``listed``)
    or everywhere but (``cofinal``)."""
    two = ChainSpec((Segment(SegKind.OMEGA_STAR), Segment(SegKind.OMEGA)))
    clauses = (RibEntry(rib=z_rib(), position=Position(0, 1)),
               RibEntry(rib=z_rib(), position=Position(0, 4)))
    return [builtin_group(n) for n in ("g1", "sigma", "sigma_ext",
                                        "h_primes", "z3")] + [
        GroupSpec("reversed", two, (RibEntry(rib=z_rib()),)),
        GroupSpec("listed", omega(), clauses + (RibEntry(rib=q_rib()),)),
        GroupSpec("cofinal", omega(), (
            RibEntry(rib=q_rib(), position=Position(0, 2)),
            RibEntry(rib=z_local_rib(3), position=Position(0, 3)),
            RibEntry(rib=z_rib())), mode="sum"),
    ]


LEAD_GROUPS = _lead_groups()
LEAD_MODULI = (0, 2, 3, 4, 6, 12)
LEAD_VALUES = [RibElement(v) for v in (1, -1, 2, 3, -4, 6, 12, Fraction(1, 2),
                                       Fraction(-3, 2), Fraction(1, 3),
                                       Fraction(5, 6), Fraction(1, 5))] + [
    RibElement(1, 1), RibElement(-1, 2), RibElement(Fraction(1, 2),
                                                    Fraction(1, 2))]
LEAD_TAILS = [RibElement(0), RibElement(0)] + LEAD_VALUES


def _lead_positions(g):
    return [Position(i, c) for i, seg in enumerate(g.spine.segments)
            for c in range(min(seg.size, 6) if seg.kind is SegKind.FIN else 6)]


@st.composite
def _lead_pair(draw):
    """A group, a modulus, and two elements of its ambient product that
    share some deviations, so that a - b cancels there."""
    g = draw(st.sampled_from(LEAD_GROUPS))
    m = draw(st.sampled_from(LEAD_MODULI))
    slots = _lead_positions(g)
    tails = LEAD_TAILS if g.terminal_omega is not None else [RibElement(0)]

    def element(shared=()):
        picks = draw(st.lists(st.sampled_from(slots), max_size=5, unique=True))
        pairs = dict(shared)
        pairs.update((p, draw(st.sampled_from(LEAD_VALUES))) for p in picks)
        return g.el(pairs.items(), draw(st.sampled_from(tails)))

    a = element()
    kept = draw(st.lists(st.sampled_from(a.fp), unique=True)) if a.fp else []
    return g, m, a, element(kept)


def _oracle_lead(g, d, m):
    v = oracle_val_m(g, d, m)
    return v, None if v.position is None else g.coordinate(d, v.position)


@settings(max_examples=400, deadline=None)
@given(_lead_pair())
def test_lead_of_a_difference_matches_the_oracle(case):
    g, m, a, b = case
    d = g.sub(a, b)
    want = _oracle_lead(g, d, m)
    assert lead_m(g, a, m, b) == want
    assert lead_m(g, d, m) == want


def _tail_case(g, dev4):
    """a - b has coordinates 12 and 24 at 0 and 1, the tail 1/2 past
    them, and at 4 the tail (no deviation, or the same one in a and b,
    which cancels) or 12 (dev4 = 23/2)."""
    t = g.terminal_omega

    def el(devs, tail):
        return Element(tuple((Position(t, c), RibElement(v)) for c, v in devs),
                       RibElement(tail))

    a = el(((0, Fraction(23, 2)), (1, Fraction(47, 2)))
           + (((4, dev4),) if dev4 else ()), Fraction(3, 2))
    b = el(((4, 5),) if dev4 == 5 else (), 1)
    return a, b


@pytest.mark.parametrize("m", LEAD_MODULI)
@pytest.mark.parametrize("name,dev4,at", [
    # 1/2 leaves the rib only at the z clauses at 1 and 4
    ("listed", None, {2: 4, 3: 4}),
    ("listed", 5, {2: 4, 3: 4}),
    ("listed", Fraction(23, 2), {2: None, 3: None}),
    # 1/2 leaves the rib everywhere but the q and z_(3) clauses at 2 and
    # 3, where 1/(2m) leaves z_(3) when 3 divides m; past 4, 5 is free
    ("cofinal", None, {2: 4, 3: 3}),
    ("cofinal", 5, {2: 4, 3: 3}),
    ("cofinal", Fraction(23, 2), {2: 5, 3: 3}),
])
def test_lead_of_a_tail_difference_reads_where_the_tail_leaves(name, dev4,
                                                               at, m):
    g = next(g for g in LEAD_GROUPS if g.name == name)
    a, b = _tail_case(g, dev4)
    want = _oracle_lead(g, g.sub(a, b), m)
    assert lead_m(g, a, m, b) == want
    where = 0 if m == 0 else at[3 if m % 3 == 0 else 2]
    assert want == ((SV_INF, None) if where is None else
                    (sv_pos(Position(0, where)),
                     RibElement(12 if where == 0 else Fraction(1, 2))))



# -- cross-layer laws on elements with a tail ---------------------------------

# per group: the tails its elements carry, and coordinate values every rib
# holds; an h_primes tail leaves z_(p) only at one of the first eight
# primes, where the drawn element holds an integer
LAW_DRAWS = {
    "g1": ([1, -2, 6, 3], [1, -1, 2, 3, 4, -6, 12]),
    "sigma_ext": ([RibElement(0, 1), RibElement(0, -2), RibElement(0, 3),
                   RibElement(0, 6)],
                  [1, -1, 2, 6, RibElement(1, 1), RibElement(-1, 3),
                   RibElement(0, 6)]),
    "h_primes": ([Fraction(1, 3), Fraction(2, 15), Fraction(5, 7),
                  Fraction(1, 2), 1], [1, -1, 2, 6, 3, 4]),
    "two_tails": ([1, RibElement(0, 1), RibElement(1, 1), RibElement(2, -3),
                   RibElement(3, 3)], [1, -1, 2, 6, RibElement(1, 1),
                                      RibElement(-1, 3)]),
}


def _tailed_member(g, rng, tails, values):
    """An element of g with a tail from ``tails`` and, on the first eight
    terminal coordinates, a value from ``values`` wherever the tail
    leaves the rib and at random elsewhere."""
    tail = rng.choice(tails)
    tail = tail if isinstance(tail, RibElement) else RibElement(tail)
    pairs = [(Position(0, n), rng.choice(values)) for n in range(8)
             if not rib_contains(g.rib_at(Position(0, n)), tail)
             or rng.randrange(3) == 0]
    e = g.el(pairs, tail)
    assert g.contains(e), e
    return e


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("name", sorted(LAW_DRAWS))
def test_val_m_laws_hold_on_elements_with_a_tail(name, m):
    """val_m(e + m*y, m) == val_m(e, m), and val_m(e, m) lies in
    spine_m(g, m), for members e and y with tails: the kernel reads
    every terminal coordinate as tail + deviation."""
    g = load_group(str(PRESENTATIONS / "two_tails.json")) \
        if name == "two_tails" else builtin_group(name)
    rng = random.Random(f"{name}-{m}")
    values = spine_m(g, m)
    kinds = set()
    for _ in range(60):
        e, y = (_tailed_member(g, rng, *LAW_DRAWS[name]) for _ in range(2))
        v = val_m(g, e, m)
        assert val_m(g, g.add(e, g.scale(y, m)), m) == v, (e, y)
        assert value_set_contains(g, values, v), (e, v)
        kinds.add(v.kind)
    assert SpineValueKind.POS in kinds and len(kinds) > 1, kinds
