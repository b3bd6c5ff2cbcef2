"""Spans and counters around the library's public entry points.

The tracer lives in the benchmark, not in the library: it rebinds a
fixed list of entry points to wrappers, on the defining module and on
every ``oagkit`` module that imported the name (``GroupSpec`` methods
are rebound on the class).  Spans (name, start, end, parent, op id) are
kept in memory; self time is a span's duration minus the time its
children cover.  Wrappers record only while an op runs, so input
generation and reference checks cost nothing here.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (span name, module, attribute); "GroupSpec.x" names a method.
ENTRY_POINTS = (
    ("group.el", "oagkit.group", "GroupSpec.el"),
    ("group.add", "oagkit.group", "GroupSpec.add"),
    ("group.sub", "oagkit.group", "GroupSpec.sub"),
    ("group.compare", "oagkit.group", "GroupSpec.compare"),
    ("group.contains", "oagkit.group", "GroupSpec.contains"),
    ("group.in_m_multiples", "oagkit.group", "GroupSpec.in_m_multiples"),
    ("valuation.val_m", "oagkit.valuation", "val_m"),
    ("valuation.spine_m", "oagkit.valuation", "spine_m"),
    ("valuation.check_m", "oagkit.valuation", "check_m"),
    ("valuation.check_ur", "oagkit.valuation", "check_ur"),
    ("valuation.regular_spine", "oagkit.valuation", "regular_spine"),
    ("pseudo.is_pseudo_cauchy", "oagkit.pseudo", "is_pseudo_cauchy"),
    ("pseudo.lift_mod_m", "oagkit.pseudo", "lift_mod_m"),
    ("pseudo.immediate_ext_check", "oagkit.pseudo", "immediate_ext_check"),
    ("approx.best_approx", "oagkit.approx", "best_approx"),
    ("approx.scheme_sign", "oagkit.approx", "scheme_sign"),
    ("approx.scheme_cong", "oagkit.approx", "scheme_cong"),
    ("approx.scheme_eqk", "oagkit.approx", "scheme_eqk"),
    ("approx.scheme_eval", "oagkit.approx", "scheme_eval"),
    ("approx.scheme_formula", "oagkit.approx", "scheme_formula"),
    ("formula.parse_formula", "oagkit.formula", "parse_formula"),
    ("formula.eval_formula", "oagkit.formula", "eval_formula"),
    ("formula.formula_text", "oagkit.formula", "formula_text"),
    ("chain.chain_stably_embedded", "oagkit.chain", "chain_stably_embedded"),
    ("chain.classify_cut", "oagkit.chain", "classify_cut"),
    ("classify.classify_main", "oagkit.classify", "classify_main"),
    ("classify.classify_pair", "oagkit.classify", "classify_pair"),
    ("classify.classify_frr", "oagkit.classify", "classify_frr"),
    ("codec.group_from_data", "oagkit.codec", "group_from_data"),
    ("codec.pair_from_data", "oagkit.codec", "pair_from_data"),
    ("codec.dumps", "oagkit.codec", "dumps"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans = []              # (name, start, end, parent, op id)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()      # constructor counters
        self._stack = []             # [span id, start, child seconds]
        self._next_id = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                self.spans.append((name, frame[1], end, parent, self.op_id))
        return traced

    def count(self, name, fn):
        def counting(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    def install(self):
        """Rebind every entry point and the two constructor counters."""
        modules = [m for n, m in sys.modules.items()
                   if n == "oagkit" or n.startswith("oagkit.")]
        for name, modname, attr in ENTRY_POINTS:
            mod = sys.modules[modname]
            if attr.startswith("GroupSpec."):
                cls, meth = mod.GroupSpec, attr.split(".")[1]
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        rib = sys.modules["oagkit.rib"]
        rib.RibElement.__init__ = self.count("rib.RibElement",
                                             rib.RibElement.__init__)
        Fraction.__new__ = self.count("Fraction", Fraction.__new__)

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
