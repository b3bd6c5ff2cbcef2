"""The element layer scales linearly with support size, and the prime
helpers stay fast and exact.

Timings compare one operation at two sizes on the same machine, so they
hold on slow and fast hardware alike: quadrupling the support of a
linear operation multiplies its time by about 4, a quadratic one by
about 16.  The bound of 8 sits between the two.  The two sizes are timed
in alternation with the garbage collector off, and each keeps its best
run, so a burst of load from elsewhere on the host slows both or
neither.
"""

import gc
import random
import time
from fractions import Fraction

import pytest

from oracles import mod2_staircase

from oagkit import group as group_module
from oagkit import rib as rib_module
from oagkit import valuation
from oagkit.catalogue import builtin_group
from oagkit.chain import Position
from oagkit.errors import PresentationError
from oagkit.group import Element
from oagkit.pseudo import lift_mod_m
from oagkit.rib import (SIEVE_LIMIT, RibElement, _primes_of, nth_prime,
                        prime_index)
from oagkit.valuation import lead_m, sv_pos, val_m

SMALL, LARGE = 800, 3200
MAX_RATIO = 8.0


def _best_seconds(fns, runs=5):
    """Best time of each function over ``runs`` rounds that call them in
    turn, with the garbage collector off."""
    best = [float("inf")] * len(fns)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            for i, fn in enumerate(fns):
                start = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _element(g, n, offset):
    """n deviations, all divisible by 6 except the last, which is 1: every
    scan below has to walk the whole support."""
    pairs = [(Position(0, c), 6 * ((c + offset) % 5 + 1)) for c in range(n - 1)]
    pairs.append((Position(0, n - 1), 1))
    return g.el(pairs)


OPS = {
    # a tail, so every deviation is read relative to it
    "el": lambda g, a, b: g.el(a.fp, 1),
    # out of chain order: the sorting path
    "el_reversed": lambda g, a, b: g.el(a.fp[::-1], 1),
    "val_m0": lambda g, a, b: val_m(g, a, 0),
    "val_m2": lambda g, a, b: val_m(g, a, 2),
    "val_m3": lambda g, a, b: val_m(g, a, 3),
    "contains": lambda g, a, b: g.contains(a),
    "in_m_multiples": lambda g, a, b: g.in_m_multiples(a, 2),
    "add": lambda g, a, b: g.add(a, b),
    "sub": lambda g, a, b: g.sub(a, b),
    "compare": lambda g, a, b: g.compare(a, b),
    # equal arguments: the early exit never fires, the walk reads everything
    "compare_equal": lambda g, a, b: g.compare(a, a),
}


@pytest.mark.parametrize("group", ["g1", "sigma_ext"])
@pytest.mark.parametrize("op", sorted(OPS))
def test_element_ops_scale_linearly(group, op):
    g = builtin_group(group)
    fn = OPS[op]
    calls = []
    for n in (SMALL, LARGE):
        a, b = _element(g, n, 0), _element(g, n, 2)
        fn(g, a, b)  # builds the deviation indexes outside the timing
        calls.append(lambda g=g, a=a, b=b: fn(g, a, b))
    times = dict(zip((SMALL, LARGE), _best_seconds(calls)))
    ratio = times[LARGE] / times[SMALL]
    assert ratio < MAX_RATIO, (
        f"{op} on {group}: {times[SMALL] * 1e3:.2f} ms at N = {SMALL}, "
        f"{times[LARGE] * 1e3:.2f} ms at N = {LARGE} (x{ratio:.1f})")


def _differing_first(g, n, tails):
    """Two elements with tails ``tails`` that differ by 1 at their first
    coordinate and hold the same n deviations after it."""
    shared = tuple((Position(0, c), RibElement(6 * (c % 5 + 1)))
                   for c in range(1, n + 1))
    return [Element(((Position(0, 0), RibElement(first)),) + shared,
                    RibElement(tail)) for first, tail in zip((1, 2), tails)]


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("group,tails", [
    ("g1", (0, 0)), ("g1", (1, 3)), ("sigma_ext", (0, 0))])
def test_the_lead_of_a_difference_stops_where_it_is_decided(group, tails, m):
    """a - b is never built to be valued: the walk ends at the first
    coordinate, however long the shared support behind it, for
    ``lead_m`` and for ``compare``, which reads the same kernel."""
    g = builtin_group(group)
    calls = {}
    for n in (SMALL, LARGE):
        a, b = _differing_first(g, n, tails)
        assert lead_m(g, a, m, b)[0] == sv_pos(Position(0, 0))
        assert g.compare(a, b) < 0
        calls[f"lead_m({m})", n] = lambda g=g, a=a, b=b: lead_m(g, a, m, b)
        calls["compare", n] = lambda g=g, a=a, b=b: g.compare(a, b)
    best = dict(zip(calls, _best_seconds(list(calls.values()), runs=20)))
    for op in (f"lead_m({m})", "compare"):
        small, large = best[op, SMALL], best[op, LARGE]
        assert large / small < 2.0, (
            f"{op} on {group}: {small * 1e6:.1f} us at N = {SMALL}, "
            f"{large * 1e6:.1f} us at N = {LARGE}")


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    real, calls = getattr(owner, name), []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_tailed_scan_adds_only_at_the_coordinate_it_returns(monkeypatch):
    """Work counts, exact where timings are not: at m >= 1 the kernel
    reads tail + deviation off the parts, so membership of a
    1600-deviation element with a tail adds nothing, and val_m at 2
    builds one sum, the coordinate it returns."""
    g = builtin_group("g1")
    n = 1600
    member = g.el([(Position(0, c), 3 * c + 1) for c in range(n)], 5)
    halves = g.el([(Position(0, c), 2 * c) for c in range(n - 1)]
                  + [(Position(0, n - 1), 3)], 4)
    adds = _counting(monkeypatch, RibElement, "__add__")
    assert g.contains(member)
    assert len(adds) == 0
    assert val_m(g, halves, 2) == sv_pos(Position(0, n - 1))
    assert len(adds) == 1


def test_a_uniform_run_is_read_in_one_call(monkeypatch):
    """Work counts: on g1 (one z rib on its one segment) ``val_m`` at 2
    over 1600 deviations with a tail is one call of the run reader and
    no per-coordinate ``rib_divides``; the one left is the tail's own
    test, where ``_tail_exits`` asks whether tail / 2 stays in z.  On
    h_primes, whose schematic rib gives each coordinate its own, the
    coordinate loop asks ``rib_divides`` once at each deviation it
    walks."""
    n = 1600
    runs = _counting(monkeypatch, valuation, "rib_first_indivisible")
    tests = _counting(monkeypatch, valuation, "rib_divides")
    inner = _counting(monkeypatch, rib_module, "rib_divides")
    g = builtin_group("g1")
    e = g.el([(Position(0, c), 2 * c) for c in range(n - 1)]
             + [(Position(0, n - 1), 3)], 4)
    assert val_m(g, e, 2) == sv_pos(Position(0, n - 1))
    assert (len(runs), len(tests), len(inner)) == (1, 0, 1)
    h = builtin_group("h_primes")
    for calls in (runs, tests, inner):
        calls.clear()
    e = h.el([(Position(0, c), 2 * c + 2) for c in range(n)])
    assert val_m(h, e, 2) == valuation.SV_INF
    assert (len(runs), len(tests), len(inner)) == (0, n, 0)


def test_the_element_kernels_build_no_small_value(monkeypatch):
    """Work counts: every standard value with an integer part in
    [-256, 256) is one shared instance, so ``el`` with a tail, ``add``
    and ``sub`` on 1600 small deviations allocate no RibElement."""
    g = builtin_group("g1")
    n = 1600
    pairs = [(Position(0, c), RibElement(c % 50 + 10)) for c in range(n)]
    others = [(Position(0, c), RibElement(c % 30 - 60)) for c in range(n)]
    tail, other_tail = RibElement(5), RibElement(-2)
    built = _counting(monkeypatch, rib_module, "_new")
    a = g.el(pairs, tail)
    assert len(built) == 0
    b = g.el(others, other_tail)
    built.clear()
    total, diff = g.add(a, b), g.sub(a, b)
    assert len(built) == 0
    assert len(total.fp) == len(diff.fp) == n
    assert g.coordinate(total, Position(0, 7)) == RibElement(17 - 53)
    assert g.coordinate(diff, Position(0, 7)) == RibElement(17 + 53)


def test_lift_mod_m_reads_each_step_value_once(monkeypatch):
    """lift_mod_m takes its step values from its pseudo-Cauchy check: one
    kernel pass per consecutive difference and one for the first term,
    50 on a 50-term staircase."""
    g = builtin_group("g1")
    seq = mod2_staircase(g, random.Random(50), n=50)
    passes = _counting(monkeypatch, valuation, "_lead")
    lifted = lift_mod_m(g, seq, 2)
    assert len(passes) == 50 and len(lifted.terms) == 50


def _tail_checks_seconds(p):
    h = builtin_group("h_primes")
    e = h.el((), RibElement(Fraction(1, p)))
    start = time.perf_counter()
    assert not h.contains(e)
    assert val_m(h, e, 3).position == Position(0, 1)
    return time.perf_counter() - start


def test_schematic_tail_reads_only_the_failing_coordinates(monkeypatch):
    calls = []
    real = group_module.z_local_rib

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(group_module, "z_local_rib", counted)
    h = builtin_group("h_primes")
    e = h.el((), RibElement(Fraction(1, 1000003)))
    assert not h.contains(e)
    assert val_m(h, e, 3).position == Position(0, 1)
    deviated = h.el([(Position(0, 5), RibElement(Fraction(1, 2)))],
                    RibElement(Fraction(1, 1000003)))
    assert not h.contains(deviated)
    assert val_m(h, deviated, 3).position == Position(0, 1)
    assert len(calls) < 100


def test_schematic_tail_with_a_large_prime_is_fast():
    assert _tail_checks_seconds(7919) < 0.5


def test_schematic_tail_with_a_seven_digit_prime_finishes():
    assert _tail_checks_seconds(1000003) < 2.0


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_prime_helpers_round_trip_against_trial_division():
    reference = [n for n in range(2, 17500) if _is_prime(n)][:2000]
    assert len(reference) == 2000
    for i, p in enumerate(reference):
        assert nth_prime(i) == p
        assert prime_index(p) == i


@pytest.mark.parametrize("n", [0, 1, 4, 9, 7917, 7921])
def test_prime_index_rejects_non_primes(n):
    with pytest.raises(PresentationError):
        prime_index(n)


def test_primes_past_the_table_are_refused_without_sieving():
    start = time.perf_counter()
    with pytest.raises(PresentationError):
        prime_index(SIEVE_LIMIT + 43)
    assert time.perf_counter() - start < 0.1


def test_nth_prime_rejects_negative_indexes():
    with pytest.raises(PresentationError):
        nth_prime(-1)


def _factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return tuple(out + [n] if n > 1 else out)


@pytest.mark.parametrize("n", [0, 1, 2, 30, 2 ** 60, 7919 * 7907,
                               1000003 * 2, 1000003 ** 2, 3 * 5 * 1000003])
def test_prime_factors_match_trial_division(n):
    assert _primes_of(n) == _factors(n)
    assert _primes_of(-n) == _factors(n)
