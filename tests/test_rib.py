"""Arithmetic and divisibility in rib coefficient groups."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import coordinate_divisible

import oagkit
from oagkit.chain import Position
from oagkit.errors import PresentationError
from oagkit.group import SchematicRib
from oagkit.rib import (OMEGA_UNIT, RIB_ONE, RIB_ZERO, RibElement, RibSpec,
                        q_rib, r_proxy_rib, rib_contains, rib_divides,
                        rib_elem_equiv, rib_first_indivisible,
                        rib_min_positive,
                        rib_pair_stably_embedded, rib_residue,
                        rib_stably_embedded, script_z_rib, window_rib,
                        z_local_rib, z_rib)

rib_elems = st.builds(
    RibElement,
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
    st.integers(min_value=-4, max_value=4))


@given(rib_elems, rib_elems, rib_elems)
def test_group_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + RIB_ZERO == a
    assert a + (-a) == RIB_ZERO


@given(rib_elems, rib_elems)
def test_order_respects_addition(a, b):
    if a.sign > 0 and b.sign > 0:
        assert (a + b).sign > 0
    assert (a - b).sign == -((b - a).sign)


def test_window_order_is_lexicographic_in_w():
    small = RibElement(Fraction(10**6), 0)
    assert (OMEGA_UNIT - small).sign > 0
    assert (-OMEGA_UNIT + small).sign < 0


@given(rib_elems, st.integers(min_value=-5, max_value=5))
def test_scaling(a, k):
    assert a.scale(k) == a * k
    total = RIB_ZERO
    for _ in range(abs(k)):
        total = total + a
    if k < 0:
        total = -total
    assert a.scale(k) == total


def test_membership_per_domain():
    assert rib_contains(z_rib(), RIB_ONE)
    assert not rib_contains(z_rib(), RibElement(Fraction(1, 2)))
    assert rib_contains(q_rib(), RibElement(Fraction(22, 7)))
    assert rib_contains(z_local_rib(2), RibElement(Fraction(5, 3)))
    assert not rib_contains(z_local_rib(2), RibElement(Fraction(3, 2)))
    assert rib_contains(window_rib(), OMEGA_UNIT + RIB_ONE)
    assert not rib_contains(window_rib(), RibElement(Fraction(1, 2)))


def test_divisibility_per_domain():
    assert rib_divides(z_rib(), RibElement(Fraction(6)), 3)
    assert not rib_divides(z_rib(), RibElement(Fraction(5)), 3)
    assert rib_divides(q_rib(), RibElement(Fraction(5)), 3)
    assert rib_divides(z_local_rib(3), RibElement(Fraction(5)), 2)
    assert not rib_divides(z_local_rib(3), RibElement(Fraction(5)), 3)


SHAPES = [z_rib(), q_rib(), r_proxy_rib(), z_local_rib(2), z_local_rib(3),
          script_z_rib(5), RibSpec("z_(6)", domain=("coprime", (2, 3)),
                                   cut_complete=False), window_rib()]
wide_rib_elems = st.builds(
    RibElement,
    st.fractions(min_value=-60, max_value=60, max_denominator=36),
    st.fractions(min_value=-6, max_value=6, max_denominator=4)
    | st.sampled_from([0, 1, -2]))


@given(st.sampled_from(SHAPES), wide_rib_elems, st.integers(1, 12))
def test_divides_is_membership_of_the_quotient(rib, x, m):
    want = rib_contains(rib, x.scale(Fraction(1, m)))
    assert rib_divides(rib, x, m) == want


@given(st.sampled_from([z_rib(), q_rib(), z_local_rib(3), script_z_rib(5),
                        window_rib()]),
       st.fractions(min_value=-60, max_value=60, max_denominator=36),
       st.fractions(min_value=-6, max_value=6, max_denominator=4)
       .filter(bool), st.integers(1, 12))
def test_divisibility_oracle_reads_the_omega_part(rib, q, w, m):
    x = RibElement(q, w)
    assert coordinate_divisible(rib, x, m) == rib_divides(rib, x, m)


@given(wide_rib_elems, wide_rib_elems, st.integers(-4, 4))
def test_zero_skipping_arithmetic_keeps_fractions(a, b, k):
    for v in (a + b, a - b, -a, a.scale(k), a + RIB_ZERO, RIB_ZERO - b):
        assert type(v.q) is Fraction and type(v.w) is Fraction
    assert (a + b).q == a.q + b.q and (a + b).w == a.w + b.w
    assert (a - b).q == a.q - b.q and (a - b).w == a.w - b.w
    assert a.scale(k) == RibElement(a.q * k, a.w * k)
    assert -a == RibElement(-a.q, -a.w)


# halves and thirds with an OMEGA part of 0, 1 or a half, so that value +
# tail is often integral: then a part of the sum is a Fraction with
# denominator 1
run_values = st.builds(
    RibElement,
    st.integers(-12, 12) | st.fractions(-12, 12, max_denominator=3),
    st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]))


@settings(max_examples=300)
@given(st.sampled_from(SHAPES), st.lists(run_values, max_size=12),
       st.none() | run_values, st.integers(1, 6), st.data())
@example(q_rib(), [RibElement(1), RibElement(2, -1)], OMEGA_UNIT, 2, None)
@example(z_rib(), [RibElement(Fraction(3, 2)), RibElement(Fraction(1, 2))],
         RibElement(Fraction(1, 2)), 2, None)
@example(window_rib(), [RibElement(Fraction(1, 2), Fraction(3, 2)), OMEGA_UNIT],
         RibElement(Fraction(1, 2), Fraction(-1, 2)), 2, None)
def test_the_run_reader_stops_where_rib_divides_first_fails(rib, values, plus,
                                                            m, data):
    pairs = tuple((Position(0, c), v) for c, v in enumerate(values))
    lo, hi = 0, len(pairs)
    if data is not None:
        lo = data.draw(st.integers(0, len(pairs)))
        hi = data.draw(st.integers(lo, len(pairs)))
    want = next((i for i in range(lo, hi)
                 if not rib_divides(rib, pairs[i][1], m, plus)), hi)
    assert rib_first_indivisible(rib, pairs, lo, hi, m, plus) == want
    assert rib_first_indivisible(rib, list(pairs), lo, hi, m, plus) == want
    with pytest.raises(PresentationError):
        rib_first_indivisible(rib, pairs, lo, hi, 1 - m, plus)


def test_divisibility_rejects_nonpositive_moduli():
    for m in (0, -3):
        with pytest.raises(PresentationError):
            rib_divides(z_rib(), RIB_ONE, m)


def test_residue_ranges_over_modulus():
    seen = {rib_residue(z_rib(), RibElement(Fraction(n)), 4)
            for n in range(-8, 9)}
    assert seen == {0, 1, 2, 3}
    with pytest.raises(Exception):
        rib_residue(q_rib(), RibElement(Fraction(7, 2)), 5)


def test_min_positive():
    assert rib_min_positive(z_rib()) == RIB_ONE
    assert rib_min_positive(q_rib()) is None
    assert rib_min_positive(window_rib()) == RIB_ONE


def test_nondivisible_primes():
    assert z_rib().nondivisible_primes is None
    assert q_rib().nondivisible_primes == ()
    assert z_local_rib(5).nondivisible_primes == (5,)
    assert script_z_rib(7).nondivisible_primes == (7,)


def test_discreteness():
    assert z_rib().discrete
    assert not q_rib().discrete
    assert window_rib().discrete


def test_single_rib_verdicts():
    assert rib_stably_embedded(z_rib())[0]
    assert rib_stably_embedded(r_proxy_rib())[0]
    assert rib_stably_embedded(script_z_rib(2))[0]
    verdict, reason = rib_stably_embedded(q_rib())
    assert not verdict
    assert reason
    assert not rib_stably_embedded(z_local_rib(2))[0]


def test_rib_pair_verdicts():
    assert rib_pair_stably_embedded(z_rib(), z_rib())[0] is True
    assert rib_pair_stably_embedded(z_rib(), window_rib())[0] is True
    verdict, _ = rib_pair_stably_embedded(z_local_rib(2), q_rib())
    assert verdict is not True


def test_elementary_equivalence_of_ribs():
    assert rib_elem_equiv(z_rib(), window_rib())
    assert not rib_elem_equiv(z_rib(), q_rib())
    assert rib_elem_equiv(q_rib(), r_proxy_rib())
    assert not rib_elem_equiv(z_local_rib(2), z_local_rib(3))


def test_domain_validation():
    with pytest.raises(Exception):
        RibSpec("bad", domain="reals")


@pytest.mark.parametrize("primes", [(4,), (6,), (2, 9)])
def test_coprime_domains_refuse_composite_entries(primes):
    with pytest.raises(PresentationError, match="not prime"):
        RibSpec("x", ("coprime", primes), False)
    with pytest.raises(PresentationError, match="not prime"):
        SchematicRib("z_local", primes)


# integral, non-integral and zero parts, so both sides of the integer fast
# path and the zero-skipping branches are drawn
mixed_parts = (st.just(Fraction(0))
               | st.integers(-10**20, 10**20).map(Fraction)
               | st.fractions(max_denominator=12).filter(lambda f: f.denominator != 1))
mixed_rib_elems = st.builds(RibElement, mixed_parts, mixed_parts)
factors = (st.integers(-10**6, 10**6) | st.integers(-5, 5).map(Fraction)
           | st.fractions(max_denominator=8))


@given(mixed_rib_elems, mixed_rib_elems, factors)
def test_arithmetic_agrees_with_plain_fractions(a, b, k):
    f = Fraction(k)
    for got, want in ((a + b, (a.q + b.q, a.w + b.w)),
                      (a - b, (a.q - b.q, a.w - b.w)),
                      (-a, (-a.q, -a.w)),
                      (a.scale(k), (a.q * f, a.w * f))):
        assert (got.q, got.w) == want
        assert type(got.q) is Fraction and type(got.w) is Fraction


# stored parts: zero, integral (up to +-10**20, given as int or as
# Fraction), non-integral and float; st.builds draws window values (w != 0)
# alongside standard ones
stored_parts = (st.just(0) | st.sampled_from([10**20, -10**20, 0.5, -2.0])
                | st.integers(-10**20, 10**20)
                | st.integers(-10**20, 10**20).map(Fraction)
                | st.fractions(max_denominator=12))
stored_elems = st.builds(RibElement, stored_parts, stored_parts) | st.sampled_from(
    [RibElement(Fraction(1, 2), Fraction(1, 2)), OMEGA_UNIT, RIB_ZERO])


def _canonical(part) -> bool:
    return type(part) is int or (type(part) is Fraction and part.denominator > 1)


@given(stored_elems, stored_elems, factors | st.sampled_from([0.25, 3.0]))
def test_stored_parts_are_canonical_behind_fraction_views(a, b, k):
    for v in (a, b, a + b, a - b, -a, a.scale(k), RibElement(a.q, a.w),
              RibElement(a.q + a.w)):
        assert _canonical(v._q) and _canonical(v._w)
        assert type(v.q) is Fraction and type(v.w) is Fraction
        assert (v.q, v.w) == (v._q, v._w)
    fa, fb = (a.w, a.q), (b.w, b.q)
    assert (a == b) == (fa == fb)
    assert (a < b) == (fa < fb)
    assert hash(a) == hash(fa)
    assert hash(RibElement(a.q, a.w)) == hash(a)


def test_only_the_rib_module_reads_the_stored_parts():
    root = Path(__file__).resolve().parents[1]
    readers, divisions = set(), 0
    for path in sorted([*(root / "src" / "oagkit").glob("*.py"),
                        *(root / "bench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        if any(isinstance(n, ast.Attribute) and n.attr in ("_q", "_w")
               for n in nodes):
            readers.add(path.relative_to(root).as_posix())
        if path.name == "rib.py":
            divisions = sum(isinstance(n, ast.Div) for n in nodes)
    assert readers == {"src/oagkit/rib.py"}
    # a / b on two ints is a float: rib.py divides through Fraction(a, b)
    assert divisions == 0


def test_a_rib_element_is_two_slots_and_survives_pickle_and_copy():
    for v in (RIB_ZERO, OMEGA_UNIT, RibElement(Fraction(-7, 3), 2),
              RibElement(10**30, Fraction(1, 2))):
        assert not hasattr(v, "__dict__")
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                     copy.deepcopy(v)):
            assert twin == v and hash(twin) == hash(v)
            assert (type(twin._q), type(twin._w)) == (type(v._q), type(v._w))
    with pytest.raises(AttributeError):
        RIB_ONE._q = 2
    assert RibElement(2) == RibElement(Fraction(4, 2))
    assert hash(RibElement(2)) == hash(RibElement(Fraction(4, 2)))


def test_a_rib_pickled_in_another_process_hashes_its_fields_here():
    """A rib stores its hash, and a str hashes differently in each
    process, so unpickling rebuilds the rib rather than restore it."""
    code = ("import pickle, sys; from oagkit.rib import z_local_rib; "
            "sys.stdout.buffer.write(pickle.dumps(z_local_rib(3)))")
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": str(Path(oagkit.__file__).parents[1])}
    data = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    rib = pickle.loads(data)
    assert rib == z_local_rib(3) and hash(rib) == hash(z_local_rib(3))
    assert hash(rib) == hash((rib.name, rib.domain, rib.cut_complete,
                              rib.nonstandard))
    for twin in (copy.copy(rib), copy.deepcopy(rib)):
        assert twin == rib and hash(twin) == hash(rib)
