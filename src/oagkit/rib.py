"""Rank-1 coefficient groups ("ribs") sitting at chain positions.

A rib is an ordered abelian subgroup of a rank-1 or rank-2 test bed:
elements are ``q + w*OMEGA`` with rational q, w, where OMEGA is a fixed
positive infinite unit.  Standard ribs live in the w = 0 slice; the one
nonstandard rib shape is the window ``D = {q + w*OMEGA : q + w integral}``,
a discrete group with least positive element 1 in which OMEGA is congruent
to 1 modulo every modulus.

A value is a :class:`RibElement`: two slots holding its parts in
canonical form, normalised inline by ``+`` and ``-`` and built without
conversion by ``_trusted``.  ``_trusted`` hands out one shared instance
for each standard value with an integer part in [-256, 256), ``RIB_ZERO``
and ``RIB_ONE`` among them, so the element kernels allocate nothing for
small values.  A zero that ``_trusted`` has just returned is therefore
``RIB_ZERO`` itself and may be tested by identity; a value from a caller
(built by ``RibElement(0)``, unpickled or copied) may not.

A rib is a :class:`RibSpec`, whose hash is computed once.

Ribs carry exactly the structure the rest of the package consumes:
membership, divisibility with witnesses, least positive element, residues,
elementary equivalence, and the stable-embeddedness facts for rank-1
groups and rank-1 pairs.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import length_hint
from typing import Iterator, Optional, Tuple, Union

from .errors import PresentationError


Rational = Union[int, Fraction]


def _exact(x) -> Rational:
    """x as an exact rational in canonical form: an int when integral,
    else a Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True, order=True, slots=True)
class RibElement:
    """The value q + w*OMEGA, ordered lexicographically by (w, q).

    Only this module reads the parts ``_w`` and ``_q``, two slots holding
    each part in canonical form: an int when integral, else a Fraction
    with denominator > 1.  ``q`` and ``w`` are read-only Fraction views.
    An int and its Fraction compare and hash alike, so ==, hash and order
    are those of the Fraction pair.  There is no per-instance
    ``__dict__``.
    """

    _w: Rational
    _q: Rational

    def __init__(self, q, w=0):
        object.__setattr__(self, "_q", _exact(q))
        object.__setattr__(self, "_w", _exact(w))

    @property
    def q(self) -> Fraction:
        return Fraction(self._q)

    @property
    def w(self) -> Fraction:
        return Fraction(self._w)

    def __add__(self, other: "RibElement") -> "RibElement":
        # a sum of canonical parts is an int or a Fraction, integral
        # only when two Fractions meet
        q = self._q + other._q
        if type(q) is not int and q.denominator == 1:
            q = q.numerator
        w = self._w + other._w
        if type(w) is not int and w.denominator == 1:
            w = w.numerator
        # what ``_trusted`` does, without a second call
        if type(q) is int and not w and -SMALL <= q < SMALL:
            return _SMALL[q]
        out = _new(RibElement)
        _set_q(out, q)
        _set_w(out, w)
        return out

    def __sub__(self, other: "RibElement") -> "RibElement":
        q = self._q - other._q
        if type(q) is not int and q.denominator == 1:
            q = q.numerator
        w = self._w - other._w
        if type(w) is not int and w.denominator == 1:
            w = w.numerator
        # what ``_trusted`` does, without a second call
        if type(q) is int and not w and -SMALL <= q < SMALL:
            return _SMALL[q]
        out = _new(RibElement)
        _set_q(out, q)
        _set_w(out, w)
        return out

    def __neg__(self) -> "RibElement":
        return _trusted(-self._q, -self._w)

    def scale(self, k) -> "RibElement":
        # a zero part stays 0: w is 0 on every standard rib, and 0 * k
        # would build a Fraction whenever k is one
        k = _exact(k)
        q, w = self._q, self._w
        return _trusted(q and _exact(q * k), w and _exact(w * k))

    def __mul__(self, k):
        return self.scale(k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._q or self._w)

    @property
    def sign(self) -> int:
        if self._w:
            return 1 if self._w > 0 else -1
        if self._q:
            return 1 if self._q > 0 else -1
        return 0

    def __repr__(self) -> str:
        if not self._w:
            return f"rib({self._q})"
        return f"rib({self._q}+{self._w}*OMEGA)"


_new = object.__new__
_set_q = RibElement._q.__set__
_set_w = RibElement._w.__set__


# the shared standard values with q in [-SMALL, SMALL): q itself indexes
# the table, a negative q from its end
SMALL = 256
_SMALL = tuple(RibElement(q) for q in (*range(SMALL), *range(-SMALL, 0)))


def _trusted(q: Rational, w: Rational) -> RibElement:
    """A RibElement from two parts already in canonical form: it fills
    the two slots directly, skipping the conversion in ``__init__``, or
    returns the shared instance of a small standard value."""
    if type(q) is int and not w and -SMALL <= q < SMALL:
        return _SMALL[q]
    out = _new(RibElement)
    _set_q(out, q)
    _set_w(out, w)
    return out


RIB_ZERO = _SMALL[0]
RIB_ONE = _SMALL[1]
OMEGA_UNIT = RibElement(0, 1)

# ---------------------------------------------------------------------------
# Primes: one ascending table, sieved afresh at twice the size whenever a
# caller needs more of it.  Nothing is sieved at import.

SIEVE_LIMIT = 1 << 24
_PRIMES = array("l")    # every prime up to _sieved_to
_sieved_to = 1


def _sieve_past(n: int) -> None:
    """Grow the prime table until it holds every prime up to n."""
    global _sieved_to
    if n <= _sieved_to:
        return
    if n > SIEVE_LIMIT:
        raise PresentationError(f"primes past {SIEVE_LIMIT} are out of range")
    limit = max(_sieved_to, 512)
    while limit < n:
        limit *= 2
    limit = min(limit, SIEVE_LIMIT)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    _PRIMES[:] = array("l", itertools.compress(range(limit + 1), sieve))
    _sieved_to = limit


def _trial_divisors() -> Iterator[int]:
    """The primes in order, then every integer past the prime table."""
    i = 0
    while True:
        if i < len(_PRIMES):
            yield _PRIMES[i]
            i += 1
        elif _sieved_to < SIEVE_LIMIT:
            _sieve_past(2 * _sieved_to)
        else:
            yield from itertools.count(SIEVE_LIMIT + 1)


def _primes_of(n: int) -> Tuple[int, ...]:
    n = abs(n)
    out = []
    for d in _trial_divisors():
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    if n > 1:
        out.append(n)
    return tuple(out)


def nth_prime(n: int) -> int:
    """The n-th prime, counting from n = 0 (2, 3, 5, ...)."""
    if n < 0:
        raise PresentationError("prime index must be nonnegative")
    while len(_PRIMES) <= n:
        _sieve_past(2 * _sieved_to)
    return _PRIMES[n]


def prime_index(p: int) -> int:
    """Position of the prime p in the enumeration used by nth_prime."""
    _sieve_past(p)
    i = bisect_left(_PRIMES, p)
    if i < len(_PRIMES) and _PRIMES[i] == p:
        return i
    raise PresentationError(f"{p} is not prime")


# domain tags: "int", "rat", or ("coprime", primes) for rationals whose
# reduced denominator avoids the listed primes
Domain = Union[str, Tuple[str, Tuple[int, ...]]]


def _check_domain(domain: Domain) -> None:
    if domain in ("int", "rat"):
        return
    if (isinstance(domain, tuple) and len(domain) == 2 and domain[0] == "coprime"
            and all(isinstance(p, int) and p >= 2 for p in domain[1])):
        for p in domain[1]:
            prime_index(p)  # refuses a composite entry
        return
    raise PresentationError(f"bad rib domain {domain!r}")


@dataclass(frozen=True)
class RibSpec:
    """Shape of one rib.

    ``cut_complete`` states that every interior cut of the underlying
    order sits at a point (true for the integer and real-like shapes,
    false for rational-like ones).  ``nonstandard`` selects the window D
    described in the module docstring; it forces an integer-like domain
    read on q + w.

    ``nondivisible_primes``, the primes with index p (None means all of
    them), is computed once here, outside the fields, so ==, hash and the
    JSON form ignore it.  So is the hash, which is that of the field
    tuple: ribs key the layout tables and are looked up often.
    """

    name: str
    domain: Domain = "int"
    cut_complete: bool = True
    nonstandard: bool = False

    def __post_init__(self):
        _check_domain(self.domain)
        if self.nonstandard and self.domain != "int":
            raise PresentationError("the nonstandard window extends the integers")
        if self.domain == "int" and not self.cut_complete:
            raise PresentationError("a discrete rank-1 group is cut complete")
        object.__setattr__(self, "nondivisible_primes", None if self.discrete
                           else () if self.domain == "rat"
                           else tuple(sorted(self.domain[1])))
        object.__setattr__(self, "_hash", hash(
            (self.name, self.domain, self.cut_complete, self.nonstandard)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled rib hashes its fields
        # afresh: a str hash differs between processes
        return RibSpec, (self.name, self.domain, self.cut_complete,
                         self.nonstandard)

    @property
    def discrete(self) -> bool:
        return self.domain == "int"


def rib_divides(rib: RibSpec, x: RibElement, m: int,
                plus: Optional[RibElement] = None) -> bool:
    """Whether (x + plus) / m lies in the rib, plus defaulting to 0: read
    off the parts, without building x + plus or the quotient.  The parts
    of a sum may be a Fraction with denominator 1."""
    if m <= 0:
        raise PresentationError("modulus must be positive")
    q, w = x._q, x._w
    if plus is not None:
        q, w = q + plus._q, w + plus._w
    if w:
        if not rib.nonstandard:
            return False
        s = q + w
        return s.denominator == 1 and s.numerator % m == 0
    if rib.nonstandard or rib.domain == "int":
        return (type(q) is int or q.denominator == 1) and q % m == 0
    if rib.domain == "rat":
        return True
    # the reduced denominator of q / m is den(q) * (m / gcd(num(q), m))
    denom = q.denominator * (m // math.gcd(q.numerator, m))
    return all(denom % p for p in rib.domain[1])


def rib_first_indivisible(rib: RibSpec, pairs, lo: int, hi: int, m: int,
                          plus: Optional[RibElement] = None) -> int:
    """The first index i in [lo, hi) such that (value + plus) / m leaves
    the rib, for the value ``pairs[i][1]`` and plus defaulting to 0; hi
    when there is none.  This is ``rib_divides`` over a run of
    (position, value) pairs, with the rib's shape read once.

    A rational s is m times an integer exactly when s % m == 0.  So on
    the window (q + w integral and divisible by m) and on a standard
    discrete rib (w = 0, q integral and divisible by m) one remainder
    decides each value, and on the rationals w = 0 alone does; a coprime
    domain asks ``rib_divides`` value by value.  The loop reads the
    pairs themselves, not their indexes: the pairs left after the one
    that fails, which the iterator's length hint counts exactly, give
    its index."""
    if m <= 0:
        raise PresentationError("modulus must be positive")
    run = iter(pairs if not lo and hi == len(pairs) else pairs[lo:hi])
    pq, pw = (0, 0) if plus is None else (plus._q, plus._w)
    if rib.nonstandard:
        ps = pq + pw
        for pv in run:
            x = pv[1]
            if (x._q + x._w + ps) % m:
                return hi - 1 - length_hint(run)
    elif rib.domain == "int":
        for pv in run:
            x = pv[1]
            if x._w + pw or (x._q + pq) % m:
                return hi - 1 - length_hint(run)
    elif rib.domain == "rat":
        for pv in run:
            if pv[1]._w + pw:
                return hi - 1 - length_hint(run)
    else:
        for pv in run:
            if not rib_divides(rib, pv[1], m, plus):
                return hi - 1 - length_hint(run)
    return hi


def rib_contains(rib: RibSpec, x: RibElement) -> bool:
    return rib_divides(rib, x, 1)


def rib_min_positive(rib: RibSpec) -> Optional[RibElement]:
    return RIB_ONE if rib.discrete else None


def rib_residue(rib: RibSpec, x: RibElement, m: int) -> int:
    """Canonical residue of x modulo m-multiples, for discrete ribs.

    In the nonstandard window, x is congruent to the integer q + w
    because x - (q + w) is divisible by every modulus.
    """
    if m <= 0:
        raise PresentationError("modulus must be positive")
    if not rib.discrete:
        raise PresentationError("residues are canonical only in discrete ribs")
    if not rib_contains(rib, x):
        raise PresentationError(f"{x!r} is not in rib {rib.name!r}")
    return int(x._q + x._w) % m


def rib_elem_equiv(a: RibSpec, b: RibSpec) -> bool:
    """Elementary equivalence of two ribs as ordered groups.

    Discrete rank-1 shapes here all satisfy the integer first-order
    theory (least positive element 1, every prime index p).  Dense ones
    are equivalent exactly when their prime index profiles agree.
    """
    if a.discrete != b.discrete:
        return False
    if a.discrete:
        return True
    return a.nondivisible_primes == b.nondivisible_primes


def rib_stably_embedded(rib: RibSpec):
    """Is this rank-1 group stably embedded in its elementary pairs?

    Returns (verdict, reason).  A dense shape with a gap (not cut
    complete) loses: an extension realizes the gap and the trace of a
    half-line below the new point is not definable inside.  The
    nonstandard window loses: an extension with a new archimedean class
    under OMEGA traces out the standard part, which is not definable.
    """
    if rib.nonstandard:
        return False, ("not archimedean: an elementary extension realizes the "
                       "cut above the finite part, whose trace is undefinable")
    if rib.discrete:
        return True, "archimedean discrete: traces are eventual congruence sets"
    if rib.cut_complete:
        return True, "cut complete: every traced cut sits at a point"
    return False, ("dense with gaps: an extension realizes a gap cut whose "
                   "trace is not definable with internal parameters")


def rib_pair_stably_embedded(small: RibSpec, big: RibSpec):
    """Stable embeddedness of the concrete rank-1 pair small <= big.

    Returns (verdict, reason) with verdict True, False, or None when the
    pair falls outside the rule table.
    """
    if small == big:
        return True, "identity pair"
    if small.domain == "int" and not small.nonstandard and big.nonstandard:
        return True, ("integer part of the nonstandard window: interval and "
                      "congruence traces stay eventually periodic, hence definable")
    if not small.discrete and small.cut_complete:
        return True, "cut complete below: traced cuts sit at points of the small rib"
    if not small.discrete and not small.cut_complete and not big.discrete:
        return False, ("dense with gaps below a proper dense extension: a gap "
                       "of the small rib is realized above and its trace is "
                       "not definable inside")
    return None, "rank-1 pair outside the rule table"


# stock shapes ---------------------------------------------------------------

def z_rib() -> RibSpec:
    return RibSpec("z")


def q_rib() -> RibSpec:
    return RibSpec("q", domain="rat", cut_complete=False)


def r_proxy_rib() -> RibSpec:
    return RibSpec("r", domain="rat", cut_complete=True)


def z_local_rib(p: int) -> RibSpec:
    """Rationals with denominator prime to p: dense, index p at p only."""
    return RibSpec(f"z_({p})", domain=("coprime", (p,)), cut_complete=False)


def script_z_rib(p: int) -> RibSpec:
    """Cut-complete dense shape with index p at p only."""
    return RibSpec(f"Z_({p})", domain=("coprime", (p,)), cut_complete=True)


def window_rib() -> RibSpec:
    """The nonstandard discrete window D."""
    return RibSpec("window", domain="int", nonstandard=True)
