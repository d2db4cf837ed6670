"""The benchmark's own tests: inputs, output checks, negative controls, tracing
and the contract of BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import gen
import run
import worker
from conftest import BENCH, ROOT
from layertrace import LAYER_METRICS, Tracer

OTHER_SEED = 7
GATED = list(run.GATED)
SMALL = {w: worker.DIGEST_OPS[w] for w in run.WORKLOADS}


def stored():
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def small_run(workload, seed, tracer=None, data=None):
    """Run the digest ops of one workload in this process.

    Inputs are generated before any fault is injected, as the benchmark
    generates them in a process of their own."""
    data = data or clean_inputs(workload, seed)
    runner = worker.WORKLOADS[workload]()
    return worker.measure(workload, runner, data, seconds=0, max_ops=SMALL[workload], tracer=tracer)


def clean_inputs(workload, seed=run.DEFAULT_SEED, count=None):
    """Inputs as the timed process reads them from the generated file."""
    count = count or SMALL[workload]
    return worker.read_inputs(gen.encode(workload, seed, gen.GENERATORS[workload](seed, count)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_seeded_and_prefix_stable(workload):
    short = gen.GENERATORS[workload](3, 20)
    long = gen.GENERATORS[workload](3, 40)
    assert short["ops"] == long["ops"][:20]
    assert gen.GENERATORS[workload](4, 20)["ops"] != short["ops"]


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, OTHER_SEED])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_passes_its_checks(workload, seed):
    res = small_run(workload, seed)
    assert res["ops"] == SMALL[workload]
    assert res["failed"] == []
    assert run.check(workload, seed, res, stored()) == []
    if seed == run.DEFAULT_SEED:
        assert res["digest"] == stored()[workload]


def test_knot_inputs_keep_their_shares():
    shares = gen.gen_knot_queries(run.DEFAULT_SEED, 400)["shares"]
    assert 0.45 <= shares["keychain_heavy"] <= 0.55
    assert 0.25 <= shares["satellite_depth_ge3"] <= 0.35
    malformed = [op for op in gen.gen_knot_queries(run.DEFAULT_SEED, 400)["ops"] if op["cls"] == "malformed"]
    assert len(malformed) == 20


def test_feasibility_oracle_matches_brute_force():
    for n in range(1, 13):
        for p, q in ((1, 5), (2, 3), (3, 2), (-3, 4), (5, 6)):
            for k in range(0, 40):
                for fixed in (False, True):
                    for swap in (False, True):
                        rp, rq = (q, p) if swap else (p, q)
                        gp, gq = math.gcd(abs(rp), n), math.gcd(abs(rq), n)
                        if fixed:
                            vals, target = {n, n // gp}, k - 1
                            ok = gq > 1 and k >= 1
                        else:
                            vals, target = {n, n // gq, n // gp}, k
                            ok = True
                        reach = {0}
                        for t in range(1, max(target, 0) + 1):
                            if any(t - v in reach for v in vals):
                                reach.add(t)
                        brute = ok and target in reach
                        assert gen.feasible(n, p, q, swap, k, fixed) == brute, (n, p, q, k, fixed, swap)


def test_wide_splice_fault_is_caught(monkeypatch):
    from spliceops import splice

    data = clean_inputs("wide_splice")
    clean = splice.splice_compose

    def corrupted(outer, args, corrupt=False):
        return clean(outer, args, corrupt=True)

    monkeypatch.setattr(splice, "splice_compose", corrupted)
    res = small_run("wide_splice", run.DEFAULT_SEED, data=data)
    assert res["failed"]
    assert res["digest"] != stored()["wide_splice"]
    assert run.check("wide_splice", run.DEFAULT_SEED, res, stored())


def test_knot_queries_fault_is_caught(monkeypatch):
    from spliceops import cli, tree

    data = clean_inputs("knot_queries")
    clean = tree.canonicalize

    def drops_mirror(t, cat=None):
        out = clean(t, cat)
        if isinstance(out, tree.HypLeaf) and out.mirror:
            return tree.HypLeaf(out.name, False, out.reverse)
        if isinstance(out, tree.TorusLeaf) and out.chirality == -1:
            return tree.TorusLeaf(out.p, out.q, 1)
        return out

    monkeypatch.setattr(tree, "canonicalize", drops_mirror)
    monkeypatch.setattr(cli, "canonicalize", drops_mirror)
    res = small_run("knot_queries", run.DEFAULT_SEED, data=data)
    assert res["failed"]
    assert res["digest"] != stored()["knot_queries"]


def test_axioms_fault_is_caught(monkeypatch):
    from spliceops import harness

    data = clean_inputs("axioms")
    clean = harness.verify_associativity

    def corrupted(outer, mids, inners, corrupt=False):
        return clean(outer, mids, inners, corrupt=True)

    monkeypatch.setattr(harness, "verify_associativity", corrupted)
    res = small_run("axioms", run.DEFAULT_SEED, data=data)
    assert res["failed"]
    assert res["digest"] != stored()["axioms"]


def test_controls_that_never_fail_are_reported():
    res = {
        "ops": 500,
        "failed": [],
        "digest": "x",
        "digest_ops": 410,
        "blind_control_suites": ["cubes"],
    }
    assert any("cubes" in p for p in run.check("axioms", OTHER_SEED, res, stored()))


def test_zero_ops_is_a_failure():
    data = clean_inputs("axioms", count=50)
    res = worker.measure("axioms", worker.WORKLOADS["axioms"](), data, seconds=0, max_ops=0)
    assert res["ops"] == 0
    problems = run.check("axioms", run.DEFAULT_SEED, res, stored())
    assert any("zero ops" in p for p in problems)


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert value == 90.0 and pct == 90.0
    assert sum(t > value for t in times) == 10


def test_times_are_scaled_to_the_reference_speed():
    assert worker.calibrate() > 0
    ref = run.REFERENCE_SPEED
    res = {"times": [0.001] * 20, "classes": ["cubes"] * 20, "failed": [], "peak_rss_mb": 1.0, "speed": 2 * ref}
    metrics, counts = run.end_to_end("axioms", res, [(0.1, ref / 2), (0.3, ref / 2), (0.2, ref / 2)])
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    assert metrics["ops_per_s"][0] == pytest.approx(500.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(2.0)
    assert metrics["peak_rss_mb"][0] == 1.0
    assert counts["setup_s"] == 3 and counts["ops_per_s"] == 20


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_matches_untraced_digest(workload):
    from spliceops import cli, tree

    original = tree.canonicalize
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.canonicalize is tree.canonicalize is not original
        res = small_run(workload, run.DEFAULT_SEED, tracer)
    finally:
        tracer.uninstall()
    assert cli.canonicalize is original and tree.canonicalize is original
    assert res["failed"] == [] and res["digest"] == stored()[workload]
    table = tracer.layer_table()
    assert table["bench.op"]["calls"] == SMALL[workload]
    metrics, _ = run.layer_metrics(table, sum(res["times"]), 1.0, res["exit_codes"])
    assert [m for m in metrics] == [n for n, _ in LAYER_METRICS]
    busy = {
        "axioms": "harness.suite.self_pct",
        "wide_splice": "splice.splice_compose.calls",
        "knot_queries": "cli.build_parser.calls",
    }
    assert metrics[busy[workload]][0] > 0
    spans = tracer.spans
    assert spans and all(end is not None and end >= start for _, start, end, _, _ in spans)


def test_self_time_excludes_wrapped_callees():
    tracer = Tracer()
    tracer.install()
    try:
        from spliceops import tree

        leaf = tree.HypLeaf("fig8", True, True)
        nested = tree.Keychain((tree.Keychain((leaf, tree.UNKNOT)), leaf))
        tracer.op(0, lambda: tree.canonicalize(nested))
    finally:
        tracer.uninstall()
    canon = tracer.aggs["tree.canonicalize"]
    assert canon.calls == 5 and canon.top_calls == 1
    assert canon.counters["input_nodes"] == 5
    assert canon.self_s > 0


def test_benchmark_json_follows_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert [m["name"] for m in doc["end_to_end"]] == GATED
    setup = doc["end_to_end"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == LAYER_METRICS
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert 1 <= doc["run_seconds"] <= 60


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_run_prints_every_gated_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knot_queries", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == GATED
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("error_ratio", "tree_verb_p50_ms", "realize_p50_ms", "env python", "op_tail_ms is p"):
        assert name in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axioms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
