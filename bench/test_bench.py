"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The last two tests run the benchmark end to end (about a minute).
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from reference import Model, spine_value  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _draws(seed, n=40):
    stream = gen.verdict_stream(seed)
    return [next(stream) for _ in range(n)]


def test_generators_are_deterministic_per_seed():
    assert _draws(3) == _draws(3)
    assert _draws(3) != _draws(4)
    for seed in (1, 2):
        a, b = random.Random(seed), random.Random(seed)
        assert gen.wide_element(a, "sigma_ext", 50, 3) == gen.wide_element(b, "sigma_ext", 50, 3)
        assert gen.staircase(a, 10) == gen.staircase(b, 10)
        assert gen.band_primes(a) == gen.band_primes(b)


def test_wide_elements_are_divisible_up_to_their_last_deviation():
    rng = random.Random(9)
    for group in ("g1", "sigma", "sigma_ext"):
        pairs, tail = gen.wide_element(rng, group, 30, 3)
        totals = [q + w for _, (q, w) in pairs]
        assert all(t % 3 == 0 for t in totals[:-1]) and totals[-1] % 3
        assert (tail[0] + tail[1]) % 3 == 0


def test_known_failures_are_set_aside_and_still_checked():
    r_omega = {"name": "r_omega", "mode": "hahn",
               "spine": {"segments": [{"kind": "omega"}], "colours": []},
               "ribs": [{"rib": gen.rib_data("r")}]}
    assert gen.known_failure("group", r_omega) == "R rib over an infinite spine"
    z_omega = {**r_omega, "ribs": [{"rib": gen.rib_data("z")}]}
    assert gen.known_failure("group", z_omega) is None
    work = workloads.Verdicts(1)
    assert sum(work.set_aside.values()) >= len(work.aside) > 0
    assert all(gen.known_failure(kind, d) is None
               for kind, name, _, d in work.items if name.startswith("gen"))
    assert work.summary()["known_raised"].get("AttributeError", 0) > 0


def test_planted_exception_and_wrong_answer_count_in_fail_rate():
    run = workloads.Runner()

    def boom():
        raise KeyError("planted")

    assert run.call("ok", lambda: 1) == 1
    assert run.call("boom", boom) is workloads.FAILED
    out = run.call("wrong", lambda: 2)
    run.expect("wrong", out == 3, "planted wrong answer")
    summary = run.summary()
    assert summary["attempted"] == 3 and summary["failed"] == 2
    assert summary["errors"] == {"KeyError": 1}
    assert summary["mismatches"] == {"wrong": 1}


def test_planted_faults_in_the_library_are_caught_by_the_workload(monkeypatch):
    work = workloads.Verdicts(1)
    monkeypatch.setitem(workloads.CATALOGUE_MAIN, "g1", "NOT_SE")
    real = workloads.C.classify_main

    def flaky(g, *args):
        if g.name == "sigma":
            raise RuntimeError("planted")
        return real(g, *args)

    monkeypatch.setattr(workloads.C, "classify_main", flaky)
    run = workloads.Runner()
    for _ in range(len(workloads.catalogue.GROUPS)):
        work.cycle(run)
    assert run.errors["RuntimeError"] == 1
    assert run.mismatches["classify.classify_main"] == 1
    assert run.unchecked["classify.classify_main"] == 1
    assert run.failed == sum(run.errors.values()) + 1


def test_reference_reads_the_window_as_documented():
    from oagkit.catalogue import builtin_group
    from oagkit.chain import Position
    from oagkit.rib import RibElement
    from oagkit.valuation import val_m

    g = builtin_group("sigma_ext")
    model = Model(g)
    e = g.el([(Position(0, 0), RibElement(1, 1)), (Position(0, 2), RibElement(1))],
             tail=RibElement(0, 2))
    for m in (0, 2, 3):
        assert spine_value(val_m(g, e, m)) == model.val(Model.vec(e), m)
    assert model.val(Model.vec(e), 2) == ("pos", 0, 2)   # 1 + W is even
    h = builtin_group("h_primes")
    t = h.el((), Fraction(1, 211))
    assert model.contains(Model.vec(t)) is h.contains(t) is False


def test_the_metric_map_matches_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == [s["name"] for s in metrics.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert SPEC["end_to_end"][[m["name"] for m in SPEC["end_to_end"]].index("setup_s")]["bound"] \
        == max(m["bound"] for m in SPEC["end_to_end"])


def _run(cwd, trace, workload="verdicts", seconds="1"):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "7", "--seconds", seconds,
        "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, key):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "the classifier still raises on" in out.stdout
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert name in out.stdout.rsplit("\n", 2)[0]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
