"""Every metric the benchmark reports, and how each is computed.

End-to-end metrics come from the untraced ``plain`` pass of one
workload.  Per-layer metrics come from the fixed prefix of every
workload, run once untraced (``prefix``) and once traced (``traced``);
each names the workload it is measured on and the end-to-end metric it
should move.  ``X.self_ms`` is X's self time per workload op in the
traced pass; ``*_per_op`` divides a count by the ops of that pass.
"""

from __future__ import annotations

import statistics

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_rate", "share", "higher"),
)


def _layer(name, unit, better, workload, moves, source):
    return {"name": name, "unit": unit, "better": better,
            "workload": workload, "moves": moves, "source": source}


def _per_layer():
    out = []
    for op in ("el", "add", "compare", "contains"):
        for n in (100, 400, 1600):
            out.append(_layer(f"group.{op}_ms.n{n}", "ms", "lower", "wide",
                              "ops_per_s, op_p90_ms", ("label_ms", f"group.{op}.n{n}")))
    for p in (211, 503, 1009):
        out.append(_layer(f"group.schematic_tail_ms.p{p}", "ms", "lower", "wide",
                          "ops_per_s, op_p90_ms", ("label_ms", f"group.contains.p{p}")))
    for m in (0, 2):
        for n in (100, 400, 1600):
            out.append(_layer(f"valuation.val_m{m}_ms.n{n}", "ms", "lower", "wide",
                              "ops_per_s, op_p90_ms",
                              ("label_ms", f"valuation.val_m{m}.n{n}")))
    for fn in ("is_pseudo_cauchy", "lift_mod_m"):
        for length in (25, 50):
            out.append(_layer(f"pseudo.{fn}_ms.l{length}", "ms", "lower", "wide",
                              "ops_per_s, op_p90_ms",
                              ("label_ms", f"pseudo.{fn}.l{length}")))
    s = "schemes"
    out += [
        _layer("rib.ribelement_new_per_op", "count/op", "lower", s, "ops_per_s",
               ("count_per_op", "rib.RibElement")),
        _layer("rib.fraction_new_per_op", "count/op", "lower", s, "ops_per_s",
               ("count_per_op", "Fraction")),
        _layer("valuation.val_m.calls_per_op", "count/op", "lower", s, "ops_per_s",
               ("calls_per_op", "valuation.val_m")),
        _layer("valuation.val_m.self_ms_per_op", "ms/op", "lower", s, "ops_per_s",
               ("self_ms", "valuation.val_m")),
        _layer("approx.scheme_build_us_p50", "us", "lower", s, "ops_per_s",
               ("label_us", "approx.scheme_build")),
        _layer("approx.scheme_eval_us_p50", "us", "lower", s, "ops_per_s",
               ("label_us", "approx.scheme_eval")),
        _layer("approx.best_approx.self_ms", "ms/op", "lower", s, "ops_per_s",
               ("self_ms", "approx.best_approx")),
        _layer("formula.parse_formula.self_ms", "ms/op", "lower", s, "ops_per_s",
               ("self_ms", "formula.parse_formula")),
        _layer("formula.eval_formula.self_ms", "ms/op", "lower", s, "ops_per_s",
               ("self_ms", "formula.eval_formula")),
        _layer("approx.guard_gaps", "count", "lower", s, "ok_rate",
               ("errors", "GuardGap")),
    ]
    v = "verdicts"
    both = "ops_per_s, op_p90_ms"
    for fn in ("check_ur", "check_m", "spine_m", "regular_spine"):
        out.append(_layer(f"valuation.{fn}.self_ms", "ms/op", "lower", v, both,
                          ("self_ms", f"valuation.{fn}")))
    out += [
        _layer("pseudo.immediate_ext_check.self_ms", "ms/op", "lower", v, both,
               ("self_ms", "pseudo.immediate_ext_check")),
        _layer("chain.chain_stably_embedded.self_ms", "ms/op", "lower", v, both,
               ("self_ms", "chain.chain_stably_embedded")),
        _layer("chain.classify_cut.calls_per_op", "count/op", "lower", v, both,
               ("calls_per_op", "chain.classify_cut")),
        _layer("classify.classify_main.self_ms", "ms/op", "lower", v, both,
               ("self_ms", "classify.classify_main")),
        _layer("classify.classify_pair.self_ms", "ms/op", "lower", v, both,
               ("self_ms", "classify.classify_pair")),
        _layer("codec.group_from_data.self_ms", "ms/op", "lower", v, both,
               ("self_ms", "codec.group_from_data")),
        _layer("codec.dumps.self_ms", "ms/op", "lower", v, both,
               ("self_ms", "codec.dumps")),
        _layer("classify.decided_share", "share", "higher", v, "none",
               ("decided_share",)),
        _layer("classify.decided_base", "count", "higher", v, "none",
               ("decided_base",)),
        _layer("import.oagkit_ms", "ms", "lower", "all", "setup_s", ("import_ms",)),
    ]
    for w in ("verdicts", "schemes", "wide"):
        out.append(_layer(f"trace.overhead_ratio.{w}", "ratio", "lower", w, "none",
                          ("overhead",)))
    return tuple(out)


PER_LAYER = _per_layer()


def end_to_end(plain: dict, setup_times) -> dict:
    values = {
        "ops_per_s": plain["ops_per_s"],
        "op_p50_ms": plain["p50_ms"],
        "op_p90_ms": plain["p90_ms"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": plain["peak_rss_mb"],
        "ok_rate": 1 - plain["failed"] / plain["attempted"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def per_layer(passes: dict) -> dict:
    """``passes`` maps workload -> {"prefix": result, "traced": result}."""
    imports = [p["import_ms"] for w in passes.values() for p in w.values()]
    out = {}
    for spec in PER_LAYER:
        kind, *arg = spec["source"]
        if kind == "import_ms":
            value = statistics.median(imports)
        else:
            plain = passes[spec["workload"]]["prefix"]
            traced = passes[spec["workload"]]["traced"]
            ops = traced["attempted"]
            if kind == "label_ms":
                value = plain["label_ms"][arg[0]]
            elif kind == "label_us":
                value = plain["label_ms"][arg[0]] * 1e3
            elif kind == "self_ms":
                value = traced["self_ms"].get(arg[0], 0.0) / ops
            elif kind == "calls_per_op":
                value = traced["calls"].get(arg[0], 0) / ops
            elif kind == "count_per_op":
                value = traced["counts"].get(arg[0], 0) / ops
            elif kind == "errors":
                value = traced["errors"].get(arg[0], 0)
            elif kind == "decided_share":
                value = traced["decided"] / traced["verdicts"]
            elif kind == "decided_base":
                value = traced["verdicts"]
            else:  # overhead
                value = plain["ops_per_s"] / traced["ops_per_s"]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out
