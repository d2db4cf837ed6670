"""spliceops benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the program from ``src/``.
Inputs are generated from the seed in a separate process, set-up is timed in
fresh processes, and the ops run in one more fresh process, one at a time
(a closed loop with one caller).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed number of ops with
per-layer wrappers installed, the same ops again untraced for the tracing
overhead, and reports the per-layer metrics.  Every output is checked, and
the default seed's output digest must match ``perfbench/digests.json``.
Times are scaled to a reference machine speed (see ``scale``); the raw times
are printed beside them.  The last line of standard output is one JSON
object.  Scratch files go to ``.perfbench/`` under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layertrace import layer_metrics  # noqa: E402

WORKLOADS = ("axioms", "wide_splice", "knot_queries")
# The end-to-end metrics of BENCHMARK.json, reported by every workload.
GATED = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
DEFAULT_SEED = 1
SETUP_REPEATS = 9  # fresh set-up processes besides the measured one
# Inputs generated per second of run: several times today's op rate, so a
# faster program does not run out.  The traced run executes a fixed number of
# ops per second of run, so its counts repeat exactly for one seed.
INPUT_RATE = {"axioms": 2500, "wide_splice": 80, "knot_queries": 700}
TRACE_RATE = {"axioms": 350, "wide_splice": 20, "knot_queries": 250}
# A run must end within 180 s; its processes share this budget.
DEADLINE_S = 170
# Iterations per second of worker.calibrate() on the 2-core machine that
# defined this benchmark.  A time t measured while the loop ran at speed v is
# reported as t * v / REFERENCE_SPEED: the time at the reference speed.
REFERENCE_SPEED = 11.0e6
TREE_VERBS = ("canon", "complexity", "eq", "emit")
REALIZE = ("realize_k", "realize_cycles", "realize_enumerate")
NO_WAITS = "waits/retries: none (the program is single-threaded and does no I/O)"


class BenchError(RuntimeError):
    pass


def _run(cmd, env, cwd, deadline):
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(
        cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} ... exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else None


def tail(times):
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_digest(root) -> str:
    sha = hashlib.sha256()
    pkg = os.path.join(root, "src", "spliceops")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                sha.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    sha.update(fh.read())
    return sha.hexdigest()


def environment(root, seed) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": source_digest(root),
        "seed": seed,
    }


def scale(speed) -> float:
    """Factor that turns a time measured at calibration speed ``speed`` into
    the time at the reference speed.  The machine is shared and its speed
    drifts; the calibration loop, timed in the same process between ops,
    drifts with it, so scaled times vary far less from run to run."""
    return speed / REFERENCE_SPEED


def end_to_end(workload, res, setup_samples) -> tuple[dict, dict]:
    """(metrics, sample counts) of one untraced run, at the reference speed.

    ``setup_samples`` holds (seconds, calibration speed) pairs."""
    factor = scale(res["speed"])
    times, classes = [t * factor for t in res["times"]], res["classes"]
    setup_samples = [s * scale(speed) for s, speed in setup_samples]
    n = len(times)
    tail_s, pct = tail(times)
    m = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_ms": (_median_ms(times), "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "error_ratio": (len(res["failed"]) / n, "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    counts = {k: n for k in m}
    counts["setup_s"] = len(setup_samples)
    counts["op_tail_percentile"] = pct
    by_class = {}
    for t, c in zip(times, classes):
        by_class.setdefault(c, []).append(t)
    if workload == "axioms":
        for suite in ("cubes", "overlap", "splice", "assoc", "equiv"):
            ts = by_class.get(suite, [])
            m[f"{suite}_trials_per_s"] = (len(ts) / sum(ts) if ts else None, "1/s")
            counts[f"{suite}_trials_per_s"] = len(ts)
    elif workload == "wide_splice":
        for cls, name in (("k16", "assoc_k16_ms"), ("k32", "assoc_k32_ms"), ("cubes_k16", "assoc_cubes_k16_ms")):
            ts = by_class.get(cls, [])
            m[name] = (_median_ms(ts), "ms")
            counts[name] = len(ts)
    else:
        groups = {"tree_verb_p50_ms": TREE_VERBS, "realize_p50_ms": REALIZE}
        for name, members in groups.items():
            ts = [t for c in members for t in by_class.get(c, [])]
            m[name] = (_median_ms(ts), "ms")
            counts[name] = len(ts)
    return m, counts


def check(workload, seed, res, stored) -> list[str]:
    """Reasons the run's outputs are not correct; empty when they are."""
    problems = []
    if res["ops"] == 0:
        problems.append("zero ops ran")
    if res["failed"]:
        problems.append(f"{len(res['failed'])} ops failed their output check, first at op {res['failed'][0]}")
    if res["digest"] is None:
        problems.append(f"fewer than {res['digest_ops']} ops ran, so there is no output digest")
    elif seed == stored.get("seed") and res["digest"] != stored.get(workload):
        problems.append(f"output digest {res['digest']} differs from the stored {stored.get(workload)}")
    for suite in res["blind_control_suites"]:
        problems.append(f"no negative control of suite {suite} failed")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spliceops", "__init__.py")):
        print(f"error: no program source at {src}/spliceops; run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    py = sys.executable or "python3"
    w, seed = args.workload, args.seed
    tag = f"{w}_seed{seed}_trace{args.trace}"
    inputs = os.path.join(work, f"inputs_{w}_seed{seed}.jsonl")
    worker = os.path.join(HERE, "worker.py")
    deadline = time.monotonic() + DEADLINE_S

    try:
        count = max(int(math.ceil(args.seconds * INPUT_RATE[w])), 500)
        _run([py, os.path.join(HERE, "gen.py"), w, str(seed), str(count), inputs], env, root, deadline)
        setup_samples = []
        for i in range(SETUP_REPEATS):
            out = os.path.join(work, f"setup_{tag}_{i}.json")
            _run([py, worker, "setup", w, inputs, out], env, root, deadline)
            sample = _read(out)
            setup_samples.append((sample["setup_s"], sample["setup_speed"]))
        out = os.path.join(work, f"measure_{tag}.json")
        cmd = [py, worker, "measure", w, inputs, out, str(args.seconds)]
        if args.trace:
            n_trace = int(math.ceil(args.seconds * TRACE_RATE[w]))
            spans = os.path.join(work, f"spans_{tag}.jsonl")
            _run(cmd + [str(n_trace), spans], env, root, deadline)
            res = _read(out)
            ref_out = os.path.join(work, f"reference_{tag}.json")
            _run([py, worker, "measure", w, inputs, ref_out, str(args.seconds), str(res["ops"])], env, root, deadline)
            ref = _read(ref_out)
        else:
            _run(cmd, env, root, deadline)
            res = _read(out)
        setup_samples.append((res["setup_s"], res["setup_speed"]))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if res["ops"] == 0:
        print("error: zero ops ran; a run with no samples is not a pass", file=sys.stderr)
        return 1
    stored = _read(os.path.join(HERE, "digests.json"))
    problems = check(w, seed, res, stored)
    if args.trace and ref["digest"] != res["digest"]:
        problems.append("the traced and untraced runs give different output digests")
    with open(inputs, encoding="utf-8") as fh:
        shares = json.loads(fh.readline())["shares"]
    record = {
        "workload": w,
        "trace": args.trace,
        "environment": environment(root, seed),
        "run": {
            "seconds": args.seconds,
            "ops": res["ops"],
            "wall_s": res["wall_s"],
            "inputs_exhausted": res["exhausted"],
            "digest": res["digest"],
            "digest_ops": res["digest_ops"],
            "stored_digest_seed": stored.get("seed"),
            "controls_seen_detected": res["controls"],
            "speed": res["speed"],
            "speed_samples": res["speed_samples"],
            "reference_speed": REFERENCE_SPEED,
            "raw_op_s": sum(res["times"]),
            "raw_setup_s": statistics.median(s for s, _ in setup_samples),
            "input_shares": shares,
            "loop": "closed, one caller, one process",
        },
        "problems": problems,
    }

    print(f"workload {w}  seed {seed}  trace {args.trace}  ops {res['ops']}  wall {res['wall_s']:.2f} s")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    print(f"  inputs: {json.dumps(shares)}")
    print(f"  digest of first {res['digest_ops']} outputs: {res['digest']}")
    print(
        f"  machine speed {res['speed']:.4g} loops/s over {res['speed_samples']} samples, "
        f"{scale(res['speed']):.4f} of the reference {REFERENCE_SPEED:.4g}; times below are scaled by it"
    )
    if w == "axioms":
        print(f"  negative controls (seen, failed with a located mismatch): {json.dumps(res['controls'])}")

    if args.trace:
        # Both runs' times at the reference speed, as they ran in two processes.
        traced = sum(res["times"]) * scale(res["speed"])
        untraced = sum(ref["times"]) * scale(ref["speed"])
        metrics, table = layer_metrics(res["layers"], sum(res["times"]), traced / untraced, res.get("exit_codes"))
        table["trace.overhead"] = {"traced_op_s": traced, "untraced_op_s": untraced, "ratio": traced / untraced}
        record["layers"] = table
        record["per_layer"] = metrics
        print(f"  per-layer, {res['ops']} traced ops; spans in {os.path.relpath(spans, root)}")
        print(f"  {'name':34} {'calls':>10} {'top':>8} {'self_s':>10} {'self_%':>7}  counters")
        for name, row in table.items():
            extra = {k: v for k, v in row.items() if k not in ("calls", "top_calls", "self_s", "self_pct")}
            if "calls" in row:
                print(
                    f"  {name:34} {row['calls']:>10} {row['top_calls']:>8} {row['self_s']:>10.4f} "
                    f"{row['self_pct']:>7.2f}  {json.dumps(extra) if extra else ''}"
                )
            else:
                print(f"  {name:34} {json.dumps(row)}")
        print(f"  {NO_WAITS}")
        out_metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
    else:
        metrics, counts = end_to_end(w, res, setup_samples)
        record["end_to_end"] = {k: {"value": v, "unit": u, "samples": counts[k]} for k, (v, u) in metrics.items()}
        record["op_tail_percentile"] = counts["op_tail_percentile"]
        for name, (value, unit) in metrics.items():
            shown = "n/a" if value is None else f"{value:.6f}"
            print(f"  {name:22} {shown:>14} {unit:6} samples={counts[name]}")
        print(f"  op_tail_ms is p{counts['op_tail_percentile']:.3f} (10 of {res['ops']} ops are slower)")
        raw_times = res["times"]
        print(
            f"  raw, unscaled: ops_per_s {len(raw_times) / sum(raw_times):.6f}  "
            f"op_p50_ms {_median_ms(raw_times):.6f}  op_tail_ms {tail(raw_times)[0] * 1e3:.6f}  "
            f"setup_s {record['run']['raw_setup_s']:.6f}"
        )
        print(f"  {NO_WAITS}")
        out_metrics = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in GATED}

    for p in problems:
        print(f"  FAIL: {p}")
    with open(os.path.join(work, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": not problems,
        "attempted": res["ops"],
        "failed": len(res["failed"]),
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
