"""One measured process: set up, then run ops in a closed loop with one caller.

    python3 perfbench/worker.py setup   WORKLOAD INPUTS.jsonl OUT.json
    python3 perfbench/worker.py measure WORKLOAD INPUTS.jsonl OUT.json SECONDS [OPS] [SPANS]

``setup`` times a fresh process from before ``import spliceops`` until the
first op is ready: the import, the default catalogue load and reading the
inputs.  ``measure`` also runs the ops: for SECONDS of wall time, or exactly
OPS ops when OPS is given (the traced run and its untraced reference).
Giving SPANS turns tracing on and writes the spans there.  Every op's output
is checked by the benchmark outside the timed call; the first DIGEST_OPS
outputs are hashed.

The machine is shared, and its speed drifts by tens of percent over minutes.
So both modes also time a fixed pure-Python loop (``calibrate``): after
set-up, and every CAL_EVERY_S seconds between ops.  The loop's speed lets the
caller scale every time to one reference machine speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time

DIGEST_OPS = {"axioms": 410, "wide_splice": 8, "knot_queries": 200}
# Criterion 2 requires a located mismatch; "differ" marks one.
LOCATED = {"assoc": "differ"}
CONTROL_MIN = 10
CAL_ITERS = 40_000  # one calibration loop: a few ms
CAL_EVERY_S = 0.2
SETUP_CAL_LOOPS = 20
_CYCLE_TYPE = re.compile(r"^\((\d+)\)[+-]$")


# ---------------------------------------------------------------------------
# workloads: import the program, then run one op and check it


def _axioms():
    from spliceops import harness

    suites = {
        "cubes": lambda s, c: harness.run_axioms("cubes", 1, s, corrupt=c),
        "overlap": lambda s, c: harness.run_axioms("overlap", 1, s, corrupt=c),
        "splice": lambda s, c: harness.run_axioms("splice", 1, s, corrupt=c),
        "assoc": lambda s, c: harness.run_splice_associativity(1, s, corrupt=c),
        "equiv": lambda s, c: harness.run_equivariance(1, s),
    }

    def run(op, timed, digest):
        cls, seed, corrupt = op
        dt, report = timed(lambda: suites[cls](seed, corrupt))
        text = report.text() if digest else None
        if not corrupt:
            ok = report.ok and report.trials == 1
            return dt, ok, text, None
        # A corrupted trial whose fault changes nothing passes; one that
        # fails must name its counterexample at trial 0.
        if report.ok:
            return dt, True, text, (cls, False)
        located = (
            report.first_failure_trial == 0
            and bool(report.first_failure)
            and LOCATED.get(cls, "") in report.first_failure
        )
        return dt, located, text, (cls, located)

    return run


def _wide_splice():
    from spliceops import splice

    def run(op, timed, digest):
        outer = splice.splice_from_json(op["outer"])
        mids = [splice.splice_from_json(m) for m in op["mids"]]
        inners = [splice.splice_from_json(m) for m in op["inners"]]
        dt, report = timed(lambda: splice.verify_associativity(outer, mids, inners))
        ok = report.ok and report.detail == ""
        if not digest:
            return dt, ok, None, None
        # Both composition orders again, compared as text, untimed.
        lhs = splice.splice_compose(splice.splice_compose(outer, mids), inners)
        groups, pos = [], 0
        for m in mids:
            groups.append(inners[pos : pos + m.arity])
            pos += m.arity
        rhs = splice.splice_compose(outer, [splice.splice_compose(m, g) for m, g in zip(mids, groups)])
        lhs_text = splice.splice_to_json(lhs)
        ok = ok and lhs_text == splice.splice_to_json(rhs)
        return dt, ok, f"{report.ok}|{report.detail}|{lhs_text}", None

    return run


def _json_nodes(data) -> int:
    if isinstance(data, dict):
        own = 1 if data.get("kind") not in (None, "unknot") else 0
        return own + sum(_json_nodes(v) for v in data.values())
    if isinstance(data, list):
        return sum(_json_nodes(v) for v in data)
    return 0


def _check_knot(op, rc, out, err) -> bool:
    cls, expect = op["cls"], op["expect"]
    if cls == "malformed":
        return rc == 2 and out == "" and err != "" and "Traceback" not in err
    if rc != 0:
        return False
    if cls == "canon":
        return out == expect + "\n"
    if cls == "complexity":
        return out == f"{expect}\n"
    if cls == "eq":
        return out == ("true\n" if expect else "false\n")
    if cls == "emit":
        if op["argv"][1] == "--json":
            return _json_nodes(json.loads(out)) == expect
        return sum("[label=" in line for line in out.splitlines()) == expect
    if cls == "realize_k":
        return out == ("feasible\n" if expect else "infeasible\n")
    lines = out.splitlines()
    if cls == "realize_enumerate":
        if lines == ["(none)"]:
            return True
        totals = []
        for line in lines:
            parts = [_CYCLE_TYPE.match(tok) for tok in line.split()]
            if not parts or not all(parts):
                return False
            totals.append(sum(int(m.group(1)) for m in parts))
        return bool(totals) and all(t == expect for t in totals)
    if cls == "realize_cycles":
        if lines[:1] == ["ACCEPT"]:
            return sum(line.startswith("  cycle (") for line in lines) == expect
        return lines[:1] == ["REJECT"] and len(lines) >= 2
    return False


def _knot_queries():
    from spliceops import cli

    def call(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code
        except Exception as exc:  # a traceback in the CLI: the op fails
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return "exception"

    def run(op, timed, digest):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            dt, rc = timed(lambda: call(op["argv"]))
        out, err = out.getvalue(), err.getvalue()
        ok = _check_knot(op, rc, out, err)
        piece = json.dumps([op["argv"], rc, out, err]) if digest else None
        return dt, ok, piece, rc

    return run


WORKLOADS = {"axioms": _axioms, "wide_splice": _wide_splice, "knot_queries": _knot_queries}
IMPORTS = {"axioms": "spliceops", "wide_splice": "spliceops", "knot_queries": "spliceops.cli"}


def read_inputs(text: str) -> dict:
    """The header of an inputs file, with ``ops`` as undecoded lines."""
    header, _, body = text.partition("\n")
    data = json.loads(header)
    data["ops"] = body.splitlines()
    return data


def setup(workload: str, inputs_path: str):
    """Import the program, load the default catalogue, read the inputs.

    Returns (op runner, inputs, seconds taken)."""
    t0 = time.perf_counter()
    __import__(IMPORTS[workload])
    from spliceops.tree import load_catalogue

    load_catalogue()
    runner = WORKLOADS[workload]()
    with open(inputs_path, encoding="utf-8") as fh:
        data = read_inputs(fh.read())
    return runner, data, time.perf_counter() - t0


def calibrate() -> float:
    """Seconds one fixed loop of integer arithmetic takes now.

    Garbage collection is off, so the program's heap cannot slow the loop;
    what remains is the speed the machine gives this process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(CAL_ITERS):
            s += i * i % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _timed_call(call):
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


def measure(workload, runner, data, seconds, max_ops=None, tracer=None) -> dict:
    """Run the ops in order, one at a time, and check each.

    ``data["ops"]`` holds one JSON line per op, decoded just before the op.

    Stops after ``seconds`` of wall time (never before the digest ops are
    done) or after exactly ``max_ops`` ops, or when the inputs run out.
    """
    ops = data["ops"]
    digest_n = DIGEST_OPS[workload]
    limit = len(ops) if max_ops is None else min(max_ops, len(ops))
    times, classes, failed, extras = [], [], [], []
    sha = hashlib.sha256()
    cal_s, cal_loops = 0.0, 0
    start = next_cal = time.perf_counter()
    i = 0
    while i < limit:
        now = time.perf_counter()
        if max_ops is None and i >= digest_n and now - start >= seconds:
            break
        if now >= next_cal:
            cal_s += calibrate()
            cal_loops += 1
            next_cal = time.perf_counter() + CAL_EVERY_S
        op = json.loads(ops[i])
        if tracer is None:
            timed = _timed_call
        else:
            timed = lambda call, i=i: tracer.op(i, call)  # noqa: E731
        dt, ok, piece, extra = runner(op, timed, i < digest_n)
        if piece is not None:
            sha.update(piece.encode())
            sha.update(b"\n")
        times.append(dt)
        classes.append(op[0] if workload == "axioms" else op["cls"])
        extras.append(extra)
        if not ok:
            failed.append(i)
        i += 1
    wall = time.perf_counter() - start
    controls = {}
    for extra in extras:
        if workload == "axioms" and extra is not None:
            seen, detected = controls.get(extra[0], (0, 0))
            controls[extra[0]] = (seen + 1, detected + extra[1])
    blind = sorted(s for s, (n, d) in controls.items() if n >= CONTROL_MIN and d == 0)
    return {
        "workload": workload,
        "ops": i,
        "wall_s": wall,
        "exhausted": i == len(ops) and max_ops is None,
        "times": times,
        "classes": classes,
        "failed": failed,
        "exit_codes": extras if workload == "knot_queries" else None,
        "controls": controls,
        "blind_control_suites": blind,
        "digest": sha.hexdigest() if i >= digest_n else None,
        "digest_ops": digest_n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": cal_loops * CAL_ITERS / cal_s if cal_s else None,
        "speed_samples": cal_loops,
    }


def main(argv) -> int:
    mode, workload, inputs_path, out_path = argv[1:5]
    runner, data, setup_s = setup(workload, inputs_path)
    cal_s = sum(calibrate() for _ in range(SETUP_CAL_LOOPS))
    result = {"setup_s": setup_s, "setup_speed": SETUP_CAL_LOOPS * CAL_ITERS / cal_s}
    if mode == "measure":
        seconds = float(argv[5])
        max_ops = int(argv[6]) if len(argv) > 6 else None
        spans_path = argv[7] if len(argv) > 7 else None
        tracer = None
        if spans_path:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            result.update(measure(workload, runner, data, seconds, max_ops, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["layers"] = tracer.layer_table()
            tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
