"""Seeded input generators for the three benchmark workloads.

Everything here is plain data (dicts, tuples, ints, Fractions) drawn from
a ``random.Random`` seeded on the command line; the workloads turn it
into library objects.  Nothing in this module imports oagkit, so the
same seed always gives the same inputs whatever the library does.
"""

from __future__ import annotations

import random
from fractions import Fraction

SEG_KINDS = ("fin", "omega", "omega_star", "int", "dense_q", "dense_complete")
DENSE_KINDS = ("dense_q", "dense_complete")
SMALL_PRIMES = (2, 3, 5)
# Tails offered to an optional generator; some leave the terminal rib
# and are rejected by the presentation checks, which is part of the draw.
GENERATOR_TAILS = ({"q": "2", "w": "0"}, {"q": "3", "w": "0"},
                   {"q": "1/2", "w": "0"}, {"q": "0", "w": "1"},
                   {"q": "1", "w": "1"})


def rib_data(tag: str) -> dict:
    """A rib clause body in the codec's JSON form: z, q, r, window,
    z_(p) (local, with gaps) or Z_(p) (local, cut complete)."""
    if tag == "z":
        return {"name": "z", "domain": "int", "cut_complete": True,
                "nonstandard": False}
    if tag == "q":
        return {"name": "q", "domain": "rat", "cut_complete": False,
                "nonstandard": False}
    if tag == "r":
        return {"name": "r", "domain": "rat", "cut_complete": True,
                "nonstandard": False}
    if tag == "window":
        return {"name": "window", "domain": "int", "cut_complete": True,
                "nonstandard": True}
    local, p = tag.split(":")
    return {"name": f"{local}_({p})", "domain": {"coprime": [int(p)]},
            "cut_complete": local == "Z", "nonstandard": False}


RIB_TAGS = (("z", "q", "r", "window")
            + tuple(f"z:{p}" for p in SMALL_PRIMES)
            + tuple(f"Z:{p}" for p in SMALL_PRIMES))


def _colour_rule(rng: random.Random, seg: dict) -> dict:
    kind = seg["kind"]
    if kind in DENSE_KINDS:
        return rng.choice(({"rule": "dense_codense", "representable": True},
                           {"rule": "all"}, {"rule": "none"}))
    if kind == "fin":
        coords = list(range(seg["size"]))
    elif kind == "int":
        coords = list(range(-2, 3))
    else:
        coords = list(range(4))
    picked = sorted(rng.sample(coords, rng.randint(1, min(2, len(coords)))))
    return rng.choice(({"rule": "finite", "coords": picked},
                       {"rule": "cofinite", "excluded": picked},
                       {"rule": "all"}, {"rule": "none"}))


def presentation(rng: random.Random, name: str) -> dict:
    """One group presentation in the codec's JSON form.

    A spine of 1-3 segments over every segment kind, an optional colour,
    rib clauses scoped by segment or colour and closed by a default
    clause, hahn or sum mode, and in sum mode over a terminal omega an
    optional generator tail.
    """
    segments = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(SEG_KINDS)
        seg = {"kind": kind}
        if kind == "fin":
            seg["size"] = rng.randint(1, 3)
        segments.append(seg)
    colours = []
    if rng.random() < 0.4:
        colours.append({"name": "c",
                        "rules": [_colour_rule(rng, s) for s in segments]})
    ribs = []
    for _ in range(rng.randint(0, 2)):
        clause = {"rib": rib_data(rng.choice(RIB_TAGS))}
        if colours and rng.random() < 0.5:
            clause["colour"] = "c"
            if rng.random() < 0.5:
                clause["segment"] = rng.randrange(len(segments))
        else:
            clause["segment"] = rng.randrange(len(segments))
        ribs.append(clause)
    ribs.append({"rib": rib_data(rng.choice(RIB_TAGS))})
    mode = rng.choice(("hahn", "sum"))
    d = {"name": name, "mode": mode,
         "spine": {"segments": segments, "colours": colours}, "ribs": ribs}
    if mode == "sum" and segments[-1]["kind"] == "omega" and rng.random() < 0.5:
        d["generators"] = [{"name": "a", "tail": dict(rng.choice(GENERATOR_TAILS)),
                            "prefix": []}]
    return d


def widened_pair(rng: random.Random, small: dict):
    """A pair over a generated sum presentation, or None when neither
    construction applies: close the sum to its full product, or widen
    its integer ribs to the window."""
    if small["mode"] != "sum":
        return None
    ways = []
    if not small.get("generators"):
        ways.append("close")
    if any(c["rib"]["name"] == "z" for c in small["ribs"]):
        ways.append("widen")
    if not ways:
        return None
    big = {**small, "name": small["name"] + "^"}
    if rng.choice(ways) == "close":
        big["mode"] = "hahn"
        flags = ["sum_inside_hahn"]
    else:
        big["ribs"] = [{**c, "rib": rib_data("window")}
                       if c["rib"]["name"] == "z" else c
                       for c in small["ribs"]]
        flags = ["rib_extension"]
    return {"small": small, "big": big, "flags": flags}


def verdict_stream(seed: int):
    """Endless ("group" | "pair", data) draws for the verdicts workload;
    about one draw in four becomes a pair when a pair can be built."""
    rng = random.Random(seed)
    i = 0
    while True:
        d = presentation(rng, f"gen{i}")
        i += 1
        if rng.random() < 0.25:
            pair = widened_pair(rng, d)
            if pair is not None:
                yield "pair", pair
                continue
        yield "group", d


def known_failure(kind: str, d: dict):
    """The known library failure a verdicts draw would hit, or None.

    Two classes of presentations make the classifiers raise instead of
    answering.  A group with an R rib anywhere over a spine with an
    infinite segment can reach the regular-spine step of
    ``classify_main``, whose quotient then has no chain, and the chain
    check raises AttributeError (``r_omega``, the omega spine with the R
    rib, is the smallest case).  A pair whose small group has a
    generator makes ``classify_pair`` raise GuardGap, because tail
    lattices with generators are not searched.  The first test is wider
    than the failure: some of the groups it names are answered before the
    regular-spine step.
    """
    if kind == "pair":
        return "generator pair" if d["small"].get("generators") else None
    infinite = any(seg["kind"] != "fin" for seg in d["spine"]["segments"])
    if infinite and any(c["rib"]["name"] == "r" for c in d["ribs"]):
        return "R rib over an infinite spine"
    return None


# -- schemes -------------------------------------------------------------------


def rib_value(rng: random.Random, kind: str, coeff: int):
    """A nonzero value of a rib of the given kind, as (q, w)."""
    q = rng.randint(-coeff, coeff) or 1
    if kind == "window" and rng.random() < 0.5:
        return (Fraction(q), Fraction(rng.choice((-1, 1))))
    if kind == "rat" and rng.random() < 0.5:
        return (Fraction(q, rng.choice((2, 3))), Fraction(0))
    return (Fraction(q), Fraction(0))


def slot_element(rng: random.Random, slots, coeff: int, most: int):
    """Up to ``most`` coordinates on the given (position, rib kind) slots."""
    picks = rng.sample(slots, rng.randint(1, min(most, len(slots))))
    return [(pos, rib_value(rng, kind, coeff)) for pos, kind in picks]


def scheme_target(rng: random.Random, slots, tail_kind, generator):
    """A big-group target: a few slot coordinates, plus a tail or a
    generator multiple when the big group has one."""
    pairs = slot_element(rng, slots, 4, 3)
    tail = None
    if generator is not None and rng.random() < 0.5:
        c = rng.choice((-1, 1, 2))
        tail = (generator[0] * c, generator[1] * c)
    elif tail_kind is not None and rng.random() < 0.4:
        tail = rib_value(rng, tail_kind, 3)
    return pairs, tail


# -- wide ------------------------------------------------------------------------


def _value(rng: random.Random, window: bool, avoid, m: int = 1, residue: int = 0):
    """A coordinate value (q, w) with q + w = m*k + residue and value !=
    avoid; window values may carry an infinite part."""
    while True:
        total = m * (rng.randint(-6, 6) or 1) + residue
        w = rng.choice((-1, 0, 1)) if window else 0
        v = (Fraction(total - w), Fraction(w))
        if v != avoid:
            return v


def wide_element(rng: random.Random, group: str, n: int, m: int = 1):
    """Absolute coordinates on n distinct positions of the omega segment
    and a tail.  With m >= 2 every coordinate and the tail are
    m-divisible except the coordinate at the highest position, so a
    mod-m scan has to walk the whole support."""
    window = group == "sigma_ext"
    if group == "g1":
        tail = (Fraction(m * (rng.randint(1, 4))), Fraction(0))
    elif window:
        tail = (Fraction(0), Fraction(m * rng.choice((-2, -1, 1, 2))))
    else:
        tail = (Fraction(0), Fraction(0))
    coords = sorted(rng.sample(range(2 * n), n))
    pairs = [(c, _value(rng, window, tail, m)) for c in coords[:-1]]
    last = _value(rng, window, tail, m, residue=rng.randint(1, m - 1) if m > 1 else 0)
    pairs.append((coords[-1], last))
    return pairs, tail


def staircase(rng: random.Random, length: int):
    """Steps of a mod-2 pseudo-Cauchy staircase: step i is odd at
    coordinate i and even below it."""
    steps = []
    for i in range(length):
        step = [(i, 2 * rng.randrange(-3, 4) + 1)]
        step += [(j, 2 * rng.randrange(-2, 3)) for j in range(i)]
        steps.append(step)
    return steps


def primes_below(n: int):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n) if sieve[i]]


# Primes in [100, 1100] split into three bands, one draw from each per
# cycle, so every cycle costs about the same while the primes still vary.
PRIME_BANDS = ((100, 300), (300, 700), (700, 1100))


def band_primes(rng: random.Random):
    primes = primes_below(1100)
    return [rng.choice([p for p in primes if lo <= p < hi])
            for lo, hi in PRIME_BANDS]
