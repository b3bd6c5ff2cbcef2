"""Independent references the benchmark checks results against.

Nothing here calls a function of the library under test.  A
presentation is read as plain data (segment kinds, rib clauses,
generator tails) and elements as their stored deviations and tail; the
mathematics is restated from scratch, in the style of the test oracles:
membership is a per-domain denominator check, valuations are
first-failure scans over the support, and scheme relations are read off
the big group directly.

One deliberate difference from ``tests/oracles.py``: the window rib is
read as the rib module defines it, D = {q + w*OMEGA : q + w integral},
so 1 + OMEGA is 2-divisible there.  The test oracle asks for an integral
q and an m-divisible w instead, which disagrees on coordinates with an
odd infinite part; the benchmark generates such coordinates.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))

# -- primes ------------------------------------------------------------------------


class Primes:
    """The primes in increasing order, grown on demand by sieving."""

    def __init__(self):
        self.table = [2, 3, 5, 7, 11, 13]

    def _grow(self, limit: int) -> None:
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = b"\x00\x00"
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
        self.table = [i for i in range(limit + 1) if sieve[i]]

    def nth(self, n: int) -> int:
        while n >= len(self.table):
            self._grow(2 * self.table[-1] + 16)
        return self.table[n]

    def index(self, p: int) -> int:
        while self.table[-1] < p:
            self._grow(2 * p + 16)
        return self.table.index(p)


PRIMES = Primes()


def prime_factors(n: int):
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- ribs --------------------------------------------------------------------------


def rib_tag(rib):
    """("window",), ("int",), ("rat",) or ("coprime", primes)."""
    if rib.nonstandard:
        return ("window",)
    if rib.domain in ("int", "rat"):
        return (rib.domain,)
    return ("coprime", tuple(rib.domain[1]))


def discrete(tag) -> bool:
    return tag[0] in ("int", "window")


def in_rib(tag, v) -> bool:
    q, w = v
    if tag[0] == "window":
        return (q + w).denominator == 1
    if w:
        return False
    if tag[0] == "int":
        return q.denominator == 1
    if tag[0] == "rat":
        return True
    return all(q.denominator % p for p in tag[1])


def divisible(tag, v, m: int) -> bool:
    # torsion free: v = m*h has the single candidate h = v/m
    return in_rib(tag, (v[0] / m, v[1] / m))


def sign_of_value(v) -> int:
    q, w = v
    if w:
        return 1 if w > 0 else -1
    return (q > 0) - (q < 0)


def add_v(a, b):
    return (a[0] + b[0], a[1] + b[1])


def scale_v(a, k):
    return (a[0] * k, a[1] * k)


# -- presentations -------------------------------------------------------------------


class Model:
    """A group presentation read as data, with brute-force arithmetic.

    Vectors are (deviations, tail): a dict from (segment, coord) to a
    (q, w) value, and the (q, w) tail along a terminal omega segment.
    """

    def __init__(self, g):
        self.kinds = [s.kind.value for s in g.spine.segments]
        self.terminal = len(self.kinds) - 1 if self.kinds[-1] == "omega" else None
        self.mode = g.mode
        self.gens = [(gen.tail.q, gen.tail.w) for gen in g.generators]
        self.clauses = []
        for e in g.ribs:
            if e.colour is not None:
                raise NotImplementedError("colour clauses are not modelled")
            where = (e.position.seg, e.position.coord) if e.position else None
            if e.rib is not None:
                body = rib_tag(e.rib)
            else:
                body = ("schematic", tuple(e.schematic.primes))
            self.clauses.append((where, e.segment, body))

    # data access
    @staticmethod
    def vec(e):
        devs = {(p.seg, p.coord): (v.q, v.w) for p, v in e.fp}
        return devs, (e.tail.q, e.tail.w)

    def key(self, pos):
        seg, c = pos
        return (seg, -c if self.kinds[seg] == "omega_star" else c)

    def rib(self, pos):
        for where, seg, body in self.clauses:
            if where is not None and where != pos:
                continue
            if seg is not None and seg != pos[0]:
                continue
            if body[0] != "schematic":
                return body
            n = pos[1]
            p = body[1][n] if n < len(body[1]) else PRIMES.nth(n)
            return ("coprime", (p,))
        raise LookupError(f"no rib clause covers {pos}")

    def coord(self, vec, pos):
        devs, tail = vec
        base = tail if pos[0] == self.terminal else ZERO
        return add_v(base, devs.get(pos, ZERO))

    def _schematic_horizon(self, tail, m: int) -> int:
        """One past the last terminal coordinate whose schematic rib can
        reject the tail (or tail/m): the indices of the denominator's
        primes in the enumeration."""
        body = next((b for where, seg, b in self.clauses
                     if where is None and seg in (None, self.terminal)), None)
        if body is None or body[0] != "schematic":
            return 0
        dens = {tail[0].denominator}
        if m >= 2:
            dens.add((tail[0] / m).denominator)
        top = 0
        for den in dens:
            for p in prime_factors(den):
                explicit = [n + 1 for n, q in enumerate(body[1]) if q == p]
                top = max(top, PRIMES.index(p) + 1, *explicit)
        return top

    def candidates(self, vec, m: int = 0):
        """Every position whose coordinate can differ from what lies
        beyond it: the deviations, and on a terminal omega segment with
        a tail, every coordinate up to one past the last deviation and
        the schematic horizon."""
        devs, tail = vec
        positions = set(devs)
        if self.terminal is not None and tail != ZERO:
            top = 1 + max([c for s, c in devs if s == self.terminal], default=-1)
            top = max(top + 1, self._schematic_horizon(tail, m))
            positions.update((self.terminal, n) for n in range(top))
        return sorted(positions, key=self.key)

    # valuations and order
    def in_lattice(self, tail) -> bool:
        if tail == ZERO:
            return True
        if not self.gens:
            return False
        if len(self.gens) == 1:
            g = self.gens[0]
            c = tail[0] / g[0] if g[0] else tail[1] / g[1]
            return c.denominator == 1 and scale_v(g, c) == tail
        (a, b), (c, d) = self.gens
        det = a * d - c * b
        c1 = (tail[0] * d - tail[1] * c) / det
        c2 = (a * tail[1] - b * tail[0]) / det
        return c1.denominator == 1 and c2.denominator == 1

    def val(self, vec, m: int):
        """("pos", seg, coord), ("limit", seg) or ("inf",)."""
        if m == 1:
            return ("inf",)
        for pos in self.candidates(vec, m):
            c = self.coord(vec, pos)
            bad = c != ZERO if m == 0 else not divisible(self.rib(pos), c, m)
            if bad:
                return ("pos",) + pos
        tail = vec[1]
        if m == 0 or tail == ZERO or self.mode == "hahn":
            return ("inf",)
        if self.in_lattice(scale_v(tail, Fraction(1, m))):
            return ("inf",)
        return ("limit", self.terminal)

    def contains(self, vec) -> bool:
        for pos in self.candidates(vec):
            if not in_rib(self.rib(pos), self.coord(vec, pos)):
                return False
        return self.mode == "hahn" or self.in_lattice(vec[1])

    def sign(self, vec) -> int:
        v = self.val(vec, 0)
        if v[0] == "inf":
            return 0
        return sign_of_value(self.coord(vec, v[1:]))

    @staticmethod
    def combine(a, b, k=1):
        """a + k*b on vectors."""
        devs = dict(a[0])
        for pos, v in b[0].items():
            s = add_v(devs.get(pos, ZERO), scale_v(v, k))
            if s == ZERO:
                devs.pop(pos, None)
            else:
                devs[pos] = s
        return devs, add_v(a[1], scale_v(b[1], k))

    @staticmethod
    def scale(a, k):
        return ({p: scale_v(v, k) for p, v in a[0].items()}, scale_v(a[1], k))


def spine_value(sv):
    """A library spine value in the reference's tuple form."""
    kind = sv.kind.value
    if kind == "pos":
        return ("pos", sv.position.seg, sv.position.coord)
    if kind == "limit":
        return ("limit", sv.seg)
    return ("inf",)


# -- scheme relations -------------------------------------------------------------


def direct_relation(big: Model, kind: str, n: int, m: int, k: int, a, x) -> bool:
    """The relation a scheme claims to decide, read on the big side:
    sign(n*a - x) > 0, the leading coefficient at val_m of n*a - x
    congruent to k modulo m, or the leading coefficient equal to k."""
    d = Model.combine(Model.scale(a, n), x, -1)
    if kind == "sign":
        return big.sign(d) > 0
    v = big.val(d, m if kind == "cong" else 0)
    if v[0] == "inf" and kind == "eqk":
        return k == 0
    if v[0] != "pos":
        return False
    tag = big.rib(v[1:])
    if not discrete(tag):
        return False
    c = big.coord(d, v[1:])
    if kind == "cong":
        return divisible(tag, add_v(c, (Fraction(-k), Fraction(0))), m)
    return c == (Fraction(k), Fraction(0))


# -- generated presentations ---------------------------------------------------------

def expected_value_pieces(d: dict, m: int):
    """Segment -> "all" | "none" for the segments of a presentation (in
    JSON form) whose first covering clause is a plain rib clause: the
    value set modulo m meets such a segment everywhere exactly when the
    rib has index p at some prime p dividing m."""
    primes = prime_factors(m)
    out = {}
    for i in range(len(d["spine"]["segments"])):
        head = next(c for c in d["ribs"] if c.get("segment", i) == i
                    and "position" not in c)
        if "colour" in head or "rib" not in head:
            continue
        rib = head["rib"]
        if rib.get("nonstandard") or rib["domain"] == "int":
            hits = True
        elif rib["domain"] == "rat":
            hits = False
        else:
            hits = any(p in rib["domain"]["coprime"] for p in primes)
        out[i] = "all" if hits else "none"
    return out
