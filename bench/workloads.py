"""The three workloads and the runner that times their ops.

An op is one timed call into a public function of the library.  Input
generation, conversion and every reference check happen between ops,
outside the timed region.  A workload runs in *cycles*: a cycle is a
fixed menu of ops over fresh seeded inputs, and a measurement always
ends on a cycle boundary so the op mix does not depend on where the
clock ran out.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
import traceback
from array import array
from collections import Counter, defaultdict, deque
from fractions import Fraction

from oagkit import (approx as A, catalogue, classify as C, codec, formula as F,
                    pseudo as P, valuation as V)
from oagkit.chain import Position
from oagkit.errors import PresentationError
from oagkit.rib import RibElement

import gen
from speed import PROBE_EVERY_S, REF_PROBE_S, probe
from reference import Model, direct_relation, expected_value_pieces, spine_value

FAILED = object()


class Runner:
    """Times ops and counts the ones that raise or disagree with a
    reference.  Latency percentiles are taken over ops that returned.

    Each op time is scaled to the reference speed of ``speed.py`` by the
    median of the last PROBE_WINDOW probes, so the scale follows the
    host's speed through the pass; the raw busy time and ops per second
    are reported too.

    Latencies go to a preallocated reservoir (a uniform sample once more
    than RESERVOIR ops have returned), so the runner's own memory does
    not grow with the number of ops and ``peak_rss_mb`` measures the
    library.  Per-label latencies are kept only when ``by_label`` is set,
    for the fixed-size prefix passes.
    """

    RESERVOIR = 100_000
    PROBE_WINDOW = 9

    def __init__(self, tracer=None, by_label=False):
        self.tracer = tracer
        self.attempted = 0
        self.busy = 0.0              # seconds inside ops, failed ones too
        self.scaled_busy = 0.0       # the same, scaled to the reference speed
        self.returned = 0
        self.times = array("d", bytes(8 * self.RESERVOIR))
        self._sampler = random.Random(0)
        self.by_label = defaultdict(list) if by_label else None
        self.probes = [probe() for _ in range(3)]
        self._recent = deque(self.probes, maxlen=self.PROBE_WINDOW)
        self.scale = REF_PROBE_S / statistics.median(self._recent)
        self._since_probe = 0.0
        self.errors = Counter()      # exception type -> ops that raised it
        self.mismatches = Counter()  # label -> ops that disagreed
        self.unchecked = Counter()   # label -> reference items whose op raised
        self.examples = {}           # first sighting of each failure kind
        self.last_error = None

    def call(self, label, fn, *args):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed op is counted, not fatal
            out = FAILED
            kind = type(exc).__name__
            self.errors[kind] += 1
            self.last_error = kind
            if kind not in self.examples:
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                self.examples[kind] = (f"{label}: {exc} at "
                                       f"{frame.filename.split('/')[-1]}:"
                                       f"{frame.lineno} in {frame.name}")
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        self.busy += dt
        self._since_probe += dt
        dt *= self.scale
        self.scaled_busy += dt
        if out is not FAILED:
            self._keep(dt)
            if self.by_label is not None:
                self.by_label[label].append(dt)
        if self._since_probe >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._recent.append(self.probes[-1])
            self.scale = REF_PROBE_S / statistics.median(self._recent)
            self._since_probe = 0.0
        return out

    def _keep(self, dt: float) -> None:
        i = self.returned
        self.returned += 1
        if i >= self.RESERVOIR:
            i = self._sampler.randrange(self.returned)
            if i >= self.RESERVOIR:
                return
        self.times[i] = dt

    def expect(self, label, ok, detail=""):
        if not ok:
            self.mismatches[label] += 1
            self.examples.setdefault("mismatch:" + label, detail)

    def unanswered(self, label, detail):
        """A reference item whose op raised: already failed, but the
        reference could not be checked, so the pass is not correct."""
        self.unchecked[label] += 1
        self.examples.setdefault("unchecked:" + label, detail)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.mismatches.values())

    def summary(self) -> dict:
        times = sorted(self.times[:min(self.returned, self.RESERVOIR)])
        ok = self.attempted - self.failed
        return {
            "attempted": self.attempted, "failed": self.failed,
            "busy_s": self.scaled_busy, "raw_busy_s": self.busy,
            "speed_scale": self.scaled_busy / self.busy if self.busy else 1.0,
            "probes": len(self.probes), "returned": self.returned,
            "ops_per_s": ok / self.scaled_busy if self.busy else 0.0,
            "raw_ops_per_s": ok / self.busy if self.busy else 0.0,
            "p50_ms": _pct(times, 50), "p90_ms": _pct(times, 90),
            "label_ms": {k: _pct(sorted(v), 50)
                         for k, v in (self.by_label or {}).items()},
            "errors": dict(self.errors), "mismatches": dict(self.mismatches),
            "unchecked": dict(self.unchecked), "examples": self.examples,
        }


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if min(a, b) > 200:  # a normal approximation is exact to ~1e-4 here
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _pct(ordered, q) -> float:
    """Harrell-Davis estimate of percentile q of sorted seconds, in ms.

    A Beta-weighted mean of the order statistics rather than one of
    them, so the estimate moves smoothly when a cluster of ops (say the
    1600-deviation scans of ``wide``) sits next to the percentile,
    instead of jumping by the gap to the next cluster.
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    reach = 12 * math.sqrt(p * (1 - p) / n) + 1 / n
    lo = max(0, int((p - reach) * n))
    hi = min(n, int((p + reach) * n) + 1)
    total, prev = 0.0, _beta_cdf(a, b, lo / n)
    for i in range(lo, hi):
        cur = _beta_cdf(a, b, (i + 1) / n)
        total += (cur - prev) * ordered[i]
        prev = cur
    return total * 1e3


def _wellformed(v) -> bool:
    return (isinstance(v, C.Verdict) and isinstance(v.status, C.Status)
            and len(v.reasons) > 0
            and all(isinstance(r, C.Reason) and isinstance(r.rule, str) and r.rule
                    for r in v.reasons))


def _decode_group(text):
    return codec.group_from_data(json.loads(text))


def _decode_pair(text):
    return codec.pair_from_data(json.loads(text))


# -- verdicts ----------------------------------------------------------------------

# Known verdicts from acceptance criteria 2-6 and 11.
CATALOGUE_MAIN = {"g1": "SE", "sigma": "NOT_SE", "g2": "SE", "g3": "NOT_SE",
                  "g4": "UNKNOWN"}
CATALOGUE_FRR = {"z": "USE", "z2": "USE", "z3": "USE", "z2r": "USE",
                 "zq": "NOT_SE"}
CATALOGUE_PAIR = {"mod2": ("NOT_SE", "congruence-ladder")}
PIECE_TAGS = {"all", "none", "only", "minus", "dense"}


class Verdicts:
    """Catalogue groups and pairs once each, then generated
    presentations, each decoded from JSON and classified once.

    Generated draws in a class the classifiers are known to raise on
    (``gen.known_failure``) are set aside during generation and counted
    by class, so that every measured op can succeed.  After the pass the
    first KNOWN_CHECK of them are classified once, untimed and outside
    the op counts, and the report says how many still raise and with
    what.  When that count reaches 0 the library has been fixed and the
    set-aside can go.
    """

    name = "verdicts"
    POOL = 2000          # generated items made ready during set-up
    PREFIX_ITEMS = 2000  # fixed work of a prefix pass
    DIGEST_ITEMS = 150   # items whose outputs form the digest
    KNOWN_CHECK = 50     # set-aside draws classified after the pass
    min_cycles = DIGEST_ITEMS

    def __init__(self, seed: int):
        self.items = deque()
        for name in sorted(catalogue.GROUPS):
            d = codec.group_to_data(catalogue.builtin_group(name))
            self.items.append(("group", name, json.dumps(d), d))
        for name in sorted(catalogue.PAIRS):
            d = codec.pair_to_data(catalogue.builtin_pair(name))
            self.items.append(("pair", name, json.dumps(d), d))
        self.stream = gen.verdict_stream(seed)
        self.skipped = 0
        self.set_aside = Counter()
        self.aside = []
        self._fill(self.POOL)
        self.next = 0
        self.digest = hashlib.sha256()
        self.decided = 0
        self.verdicts = 0

    def _fill(self, count: int) -> None:
        """Draw until ``count`` presentations construct; the ones the
        presentation checks reject are skipped and counted."""
        made = 0
        while made < count:
            kind, d = next(self.stream)
            text = json.dumps(d)
            try:
                (_decode_group if kind == "group" else _decode_pair)(text)
            except PresentationError:
                self.skipped += 1
                continue
            known = gen.known_failure(kind, d)
            if known is not None:
                self.set_aside[known] += 1
                if len(self.aside) < self.KNOWN_CHECK:
                    self.aside.append((kind, text))
                continue
            name = d["name"] if kind == "group" else d["small"]["name"]
            self.items.append((kind, name, text, d))
            made += 1

    def cycle(self, run: Runner) -> None:
        if not self.items:
            self._fill(self.POOL)
        index = self.next
        self.next += 1
        kind, name, text, d = self.items.popleft()
        if kind == "group":
            out = self._group(run, name, text, d)
        else:
            out = self._pair(run, name, text)
        if index < self.DIGEST_ITEMS:
            self.digest.update(f"{kind}:{name}:{out}\n".encode())

    def prefix(self, run: Runner) -> None:
        for _ in range(self.PREFIX_ITEMS):
            self.cycle(run)

    def _verdict(self, run, label, fn, *args):
        v = run.call(label, fn, *args)
        if v is FAILED:
            return None, "!" + run.last_error
        run.expect(label, _wellformed(v), f"malformed verdict {v!r}")
        self.verdicts += 1
        self.decided += v.status is not C.Status.UNKNOWN
        return v, None

    def _group(self, run, name, text, d) -> str:
        g = run.call("codec.group_from_data", _decode_group, text)
        if g is FAILED:
            return "!decode"
        v, out = self._verdict(run, "classify.classify_main", C.classify_main, g)
        if v is not None:
            out = run.call("codec.dumps", codec.dumps, v)
            if out is FAILED:
                out = "!" + run.last_error
            else:
                run.expect("codec.dumps",
                           json.loads(out).get("status") == v.status.value,
                           f"{name}: dumps lost the status")
        want = CATALOGUE_MAIN.get(name)
        if want is not None and v is None:
            run.unanswered("classify.classify_main", f"{name}: raised {out}")
        elif want is not None:
            run.expect("classify.classify_main", v.status.name == want,
                       f"{name}: classify_main gave {v.status.name}, reference {want}")
        no_limits = g.mode == "hahn" or not g.generators
        nsegs = len(g.spine.segments)
        for m in (2, 3):
            vs = run.call("valuation.spine_m", V.spine_m, g, m)
            if vs is FAILED:
                continue
            tags = [p[0] for p in vs.pieces]
            ok = (vs.m == m and len(tags) == nsegs and set(tags) <= PIECE_TAGS
                  and vs.limit_seg in (None, g.terminal_omega)
                  and not (no_limits and vs.limit_seg is not None))
            want_pieces = expected_value_pieces(d, m)
            ok = ok and all(tags[i] == t for i, t in want_pieces.items())
            run.expect("valuation.spine_m", ok,
                       f"{name}: spine_m({m}) gave {vs!r}, uniform segments "
                       f"should read {want_pieces}")
        hm = run.call("valuation.check_m", V.check_m, g)
        if hm is not FAILED:
            run.expect("valuation.check_m",
                       hm.hypothesis == "M" and isinstance(hm.holds, bool)
                       and (hm.holds or not no_limits),
                       f"{name}: check_m gave {hm!r}")
        hu = run.call("valuation.check_ur", V.check_ur, g)
        if hu is not FAILED:
            run.expect("valuation.check_ur",
                       hu.hypothesis == "UR" and isinstance(hu.holds, bool),
                       f"{name}: check_ur gave {hu!r}")
        if all(s.kind.value == "fin" for s in g.spine.segments):
            fr = run.call("classify.classify_frr", C.classify_frr, g)
            got = "!" + run.last_error if fr is FAILED else fr.status.name
            if fr is not FAILED:
                run.expect("classify.classify_frr",
                           _wellformed(fr) and fr.status is not C.Status.UNKNOWN,
                           f"{name}: classify_frr gave {fr!r}")
            want = CATALOGUE_FRR.get(name)
            if want is not None and fr is FAILED:
                run.unanswered("classify.classify_frr", f"{name}: raised {got}")
            elif want is not None:
                run.expect("classify.classify_frr", got == want,
                           f"{name}: classify_frr gave {got}, reference {want}")
            out = f"{out}|frr={got}"
        return out

    def _pair(self, run, name, text) -> str:
        pair = run.call("codec.pair_from_data", _decode_pair, text)
        if pair is FAILED:
            return "!decode"
        v, out = self._verdict(run, "classify.classify_pair", C.classify_pair, pair)
        if v is not None:
            out = run.call("codec.dumps", codec.dumps, v)
            if out is FAILED:
                out = "!" + run.last_error
        want = CATALOGUE_PAIR.get(name)
        if want is not None and v is None:
            run.unanswered("classify.classify_pair", f"{name}: raised {out}")
        elif want is not None:
            ok = (v.status.name == want[0]
                  and any(r.rule == want[1] for r in v.reasons))
            run.expect("classify.classify_pair", ok,
                       f"{name}: classify_pair gave {out}, reference {want}")
        return out

    def _known_check(self) -> dict:
        """Exception type -> set-aside draws whose classifier raised it."""
        raised = Counter()
        for kind, text in self.aside:
            try:
                if kind == "group":
                    C.classify_main(_decode_group(text))
                else:
                    C.classify_pair(_decode_pair(text))
            except Exception as exc:  # the known failures are counted
                raised[type(exc).__name__] += 1
        return dict(raised)

    def summary(self) -> dict:
        return {"skipped_draws": self.skipped, "digest": self.digest.hexdigest(),
                "items": self.next, "decided": self.decided,
                "verdicts": self.verdicts, "set_aside": dict(self.set_aside),
                "known_checked": len(self.aside),
                "known_raised": self._known_check()}


# -- schemes -----------------------------------------------------------------------


def _slots(g, count=5):
    """The first positions of the spine, each with the kind of its rib."""
    out = []
    for i, seg in enumerate(g.spine.segments):
        size = seg.size if seg.kind.value == "fin" else count
        for c in range(size):
            p = Position(i, c)
            rib = g.rib_at(p)
            kind = "window" if rib.nonstandard else (
                "rat" if rib.domain == "rat" else "int")
            out.append((p, kind))
            if len(out) == count:
                return out
    return out


def _rib(v):
    return RibElement(*v)


class Schemes:
    """Every builtin pair, fresh seeded targets in the big group and
    samples in the small one each cycle, and the sign, congruence
    (m = 2, 3) and equality schemes for n = 1, 2, 3."""

    name = "schemes"
    TARGETS = 2
    SAMPLES = 6
    FORMULA_SAMPLES = 3
    PREFIX_CYCLES = 6
    MENU = (("sign", 0), ("cong", 2), ("cong", 3), ("eqk", 0))
    min_cycles = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pairs = []
        for name in sorted(catalogue.PAIRS):
            pair = catalogue.builtin_pair(name)
            big = pair.big
            t = big.terminal_omega
            tail_kind = None
            if t is not None and big.mode == "hahn":
                rib = big.rib_at(Position(t, 0))
                tail_kind = "rat" if rib.domain == "rat" else "int"
            generator = ((big.generators[0].tail.q, big.generators[0].tail.w)
                         if big.generators else None)
            self.pairs.append((name, pair, _slots(big), _slots(pair.small),
                               tail_kind, generator, Model(big)))

    def cycle(self, run: Runner) -> None:
        for entry in self.pairs:
            self._pair(run, *entry)

    def prefix(self, run: Runner) -> None:
        for _ in range(self.PREFIX_CYCLES):
            self.cycle(run)

    def _pair(self, run, name, pair, big_slots, small_slots, tail_kind,
              generator, model) -> None:
        rng = self.rng
        small, big = pair.small, pair.big
        xs = [small.el([])]
        for _ in range(self.SAMPLES - 1):
            coords = gen.slot_element(rng, [(p, "int") for p, _ in small_slots], 4, 3)
            xs.append(small.el([(p, _rib(v)) for p, v in coords]))
        x_vecs = [Model.vec(x) for x in xs]
        for _ in range(self.TARGETS):
            coords, tail = gen.scheme_target(rng, big_slots, tail_kind, generator)
            a = big.el([(p, _rib(v)) for p, v in coords],
                       tail=_rib(tail) if tail else 0)
            a_vec = Model.vec(a)
            if not model.contains(a_vec):
                continue
            for n in (1, 2, 3):
                for kind, m in self.MENU:
                    k = rng.randrange(m) if kind == "cong" else rng.choice((-1, 1, 2))
                    self._scheme(run, pair, model, kind, n, m, k, a, a_vec,
                                 xs, x_vecs)

    def _scheme(self, run, pair, model, kind, n, m, k, a, a_vec, xs, x_vecs):
        if kind == "sign":
            s = run.call("approx.scheme_build", A.scheme_sign, pair, a, n)
        elif kind == "cong":
            s = run.call("approx.scheme_build", A.scheme_cong, pair, a, n, m, k)
        else:
            s = run.call("approx.scheme_build", A.scheme_eqk, pair, a, n, k)
        if s is FAILED:
            return
        results = []
        for x, x_vec in zip(xs, x_vecs):
            got = run.call("approx.scheme_eval", A.scheme_eval, pair, s, x)
            results.append(got)
            if got is not FAILED:
                want = direct_relation(model, s.kind, n, s.m, s.k, a_vec, x_vec)
                run.expect("approx.scheme_eval", got == want,
                           f"{kind} n={n} m={m} k={k} a={a!r} x={x!r}: "
                           f"scheme says {got}, big side says {want}")
        if n != 1 or kind == "eqk":
            return
        rendered = run.call("approx.scheme_formula", A.scheme_formula, pair, s)
        if rendered is FAILED or not rendered[1]:
            return
        text = run.call("formula.formula_text", F.formula_text, rendered[0])
        if text is FAILED:
            return
        f = run.call("formula.parse_formula", F.parse_formula, text)
        if f is FAILED:
            return
        for x, want in list(zip(xs, results))[:self.FORMULA_SAMPLES]:
            got = run.call("formula.eval_formula", F.eval_formula, pair.small,
                           f, {"x": x})
            if got is not FAILED and want is not FAILED:
                run.expect("formula.eval_formula", got == want,
                           f"{text!r} at x={x!r} gave {got}, scheme_eval {want}")

    def summary(self) -> dict:
        return {}


# -- wide --------------------------------------------------------------------------


class Wide:
    """Group arithmetic, valuations, pseudo-Cauchy ladders and prime
    helpers on large supports."""

    name = "wide"
    # Element sets per size and group in one cycle.  The extra small sets
    # put the 90th percentile inside the cluster of mid-sized ops rather
    # than on the edge of the twelve 1600-deviation scans.
    SIZES = {100: 4, 400: 1, 1600: 1}
    GROUPS = ("g1", "sigma", "sigma_ext")
    LENGTHS = (25, 50)
    TAIL_PRIMES = (211, 503, 1009)
    min_cycles = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.groups = {}
        for name in self.GROUPS:
            g = catalogue.builtin_group(name)
            self.groups[name] = (g, Model(g))
        self.h = catalogue.builtin_group("h_primes")
        self.h_model = Model(self.h)

    def cycle(self, run: Runner) -> None:
        for name in self.GROUPS:
            for n, sets in self.SIZES.items():
                for _ in range(sets):
                    self._elements(run, name, n)
        for length in self.LENGTHS:
            self._staircase(run, length)
        for p in gen.band_primes(self.rng):
            self._tail(run, p, "tail")

    def prefix(self, run: Runner) -> None:
        self.cycle(run)
        for p in self.TAIL_PRIMES:
            self._tail(run, p, f"p{p}")

    def _el(self, run, g, n, raw):
        pairs, tail = raw
        args = ([(Position(0, c), _rib(v)) for c, v in pairs], _rib(tail))
        e = run.call(f"group.el.n{n}", g.el, *args)
        if e is FAILED:
            return None
        devs = {(0, c): (v[0] - tail[0], v[1] - tail[1])
                for c, v in pairs if v != tail}
        run.expect(f"group.el.n{n}", Model.vec(e) == (devs, tail),
                   f"el stored {e!r}")
        return e

    def _elements(self, run, name, n) -> None:
        g, model = self.groups[name]
        rng = self.rng
        raw = [gen.wide_element(rng, name, n), gen.wide_element(rng, name, n),
               gen.wide_element(rng, name, n, 2), gen.wide_element(rng, name, n, 3)]
        els = [self._el(run, g, n, r) for r in raw]
        if None in els:
            return
        a, b, c2, c3 = els
        va, vb, vc2, vc3 = (Model.vec(e) for e in els)
        s = run.call(f"group.add.n{n}", g.add, a, b)
        if s is not FAILED:
            run.expect(f"group.add.n{n}", Model.vec(s) == Model.combine(va, vb),
                       "a + b differs from the coordinate-wise sum")
            d = run.call(f"group.sub.n{n}", g.sub, s, b)
            if d is not FAILED:
                run.expect(f"group.sub.n{n}", d == a, "a + b - b != a")
        want = model.sign(Model.combine(va, vb, -1))
        x = run.call(f"group.compare.n{n}", g.compare, a, b)
        y = run.call(f"group.compare.n{n}", g.compare, b, a)
        if x is not FAILED:
            run.expect(f"group.compare.n{n}", x == want, f"compare gave {x}, want {want}")
        if y is not FAILED:
            run.expect(f"group.compare.n{n}", y == -want, "compare is not antisymmetric")
        got = run.call(f"group.contains.n{n}", g.contains, a)
        if got is not FAILED:
            run.expect(f"group.contains.n{n}", got == model.contains(va),
                       f"contains gave {got}")
        got = run.call(f"group.in_m_multiples.n{n}", g.in_m_multiples, c2, 2)
        if got is not FAILED:
            want = model.contains(Model.scale(vc2, Fraction(1, 2)))
            run.expect(f"group.in_m_multiples.n{n}", got[0] == want,
                       f"in_m_multiples gave {got[0]}, want {want}")
        for label, e, vec, m in (("val_m0", a, va, 0), ("val_m0", b, vb, 0),
                                 ("val_m0", c2, vc2, 0), ("val_m0", c3, vc3, 0),
                                 ("val_m2", c2, vc2, 2), ("val_m3", c3, vc3, 3)):
            got = run.call(f"valuation.{label}.n{n}", V.val_m, g, e, m)
            if got is not FAILED:
                want = model.val(vec, m)
                run.expect(f"valuation.{label}.n{n}", spine_value(got) == want,
                           f"val_m({m}) gave {got!r}, brute force {want}")

    def _staircase(self, run, length) -> None:
        g, model = self.groups["g1"]
        acc = g.el([])
        terms = []
        for step in gen.staircase(self.rng, length):
            acc = g.add(acc, g.el([(Position(0, c), v) for c, v in step]))
            terms.append(acc)
        seq = P.PseudoSequence(tuple(terms), modulus=2)
        vecs = [Model.vec(t) for t in terms]
        got = run.call(f"pseudo.is_pseudo_cauchy.l{length}", P.is_pseudo_cauchy,
                       g, seq, 2)
        if got is not FAILED:
            vals = [model.val(Model.combine(vecs[i + 1], vecs[i], -1), 2)
                    for i in range(length - 1)]
            increasing = all(v[0] == "pos" for v in vals) and all(
                vals[i][2] < vals[i + 1][2] for i in range(len(vals) - 1))
            run.expect(f"pseudo.is_pseudo_cauchy.l{length}",
                       got == (True, 0) and increasing,
                       f"is_pseudo_cauchy gave {got}")
        lifted = run.call(f"pseudo.lift_mod_m.l{length}", P.lift_mod_m, g, seq, 2)
        if lifted is FAILED:
            return
        new = [Model.vec(t) for t in lifted.terms]
        ok = len(new) == length and all(
            model.contains(Model.scale(Model.combine(new[i], vecs[i], -1),
                                       Fraction(1, 2)))
            for i in range(length))
        ok = ok and all(
            model.val(Model.combine(new[i + 1], new[i], -1), 0)
            == model.val(Model.combine(vecs[i + 1], vecs[i], -1), 2)
            for i in range(length - 1))
        run.expect(f"pseudo.lift_mod_m.l{length}", ok,
                   "lift broke a congruence or a distance")

    def _tail(self, run, p, tag) -> None:
        h, model = self.h, self.h_model
        e = run.call("group.el.tail", h.el, (), RibElement(Fraction(1, p)))
        if e is FAILED:
            return
        vec = Model.vec(e)
        got = run.call(f"group.contains.{tag}", h.contains, e)
        if got is not FAILED:
            run.expect(f"group.contains.{tag}", got == model.contains(vec),
                       f"contains(el(tail: 1/{p})) gave {got}")
        got = run.call(f"valuation.val_m3.{tag}", V.val_m, h, e, 3)
        if got is not FAILED:
            want = model.val(vec, 3)
            run.expect(f"valuation.val_m3.{tag}", spine_value(got) == want,
                       f"val_m(el(tail: 1/{p}), 3) gave {got!r}, brute force {want}")

    def summary(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Verdicts, Schemes, Wide)}
