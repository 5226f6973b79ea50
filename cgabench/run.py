"""Benchmark of the cga library and the ga command.

    python3 cgabench/run.py --workload {nf-bs,verify-ball,cli-cold}
                            --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client running one op at a time.
With ``--trace 0`` the inputs are drawn from the seed, the op set (a
"pass") is set up from them several times (set-up is timed, drawing is
not), then whole passes, each in a new seeded order, run for S seconds (at
least one pass), and the end-to-end metrics are printed.  op_p50_ms and
op_p90_ms are nearest-rank percentiles, over the ops of a pass, of each op's
mean latency across the run's passes; pass_s is the median pass, and
ops_per_s counts correct ops over the whole timed phase.  Every time is
scaled to a nominal machine speed by a reference loop timed between the ops
(see ``Reference``); the unscaled figures are printed on the line before the
result.  The garbage collector runs as the program has it, so its full
collections over the set-up structures count in the timed ops.  With
``--trace 1`` the set-up is traced once, then one untraced and one traced
pass run over the same ops, and the per-layer metrics are printed, with the
full collections of the untraced pass.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Traces are
written to cgabench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# latency charged to a failed op, so it misses every latency limit
FAILED_LATENCY_S = 60.0
# the machine-speed reference: its loop count, its time on the nominal
# machine, and the least time between two samples of it
REFERENCE_LOOPS = 300_000
REFERENCE_NOMINAL_S = 0.020
REFERENCE_GAP_S = 1.0


class Reference:
    """Machine-speed probe, sampled between the ops of a timed run.

    A shared host slows every process on it: on a 2-vCPU Xeon VM the same
    code took up to 1.7 times as long for minutes at a time, so runs made a
    few minutes apart differ by more than any within-run statistic can
    hide.  A sample times a fixed interpreter loop of the benchmark's own,
    which slows with the program: there, over 10-25 s windows of nf-bs, its
    time and the program's correlated at about 0.9, with a log-log slope
    near 1.  ``factor`` is REFERENCE_NOMINAL_S over
    the run's median sample; times multiplied by it are what the run would
    take on a machine where the loop takes REFERENCE_NOMINAL_S.  The loop
    does not depend on the program, so a change to the program's speed
    moves the scaled times by the same share."""

    def __init__(self):
        self.times = []
        self._last = None

    def sample(self):
        began = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        self._last = perf_counter()
        self.times.append(self._last - began)

    def tick(self):
        """Sample unless the last sample is under REFERENCE_GAP_S old."""
        if self._last is None or perf_counter() - self._last >= REFERENCE_GAP_S:
            self.sample()

    def factor(self):
        return REFERENCE_NOMINAL_S / statistics.median(self.times)


class FullCollections:
    """gc callback that counts and times the full (generation 2)
    collections, the ones that scan every set-up structure."""

    def __init__(self):
        self.count, self.seconds, self._began = 0, 0.0, 0.0

    def __call__(self, phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            self._began = perf_counter()
        else:
            self.count += 1
            self.seconds += perf_counter() - self._began


def _fail(message):
    print(f"cgabench: {message}", file=sys.stderr)
    sys.exit(2)


def run_pass(ops, tracer=None, between=None, collections=None):
    """Run every op once; returns (wall seconds, per-op records).
    ``between`` is called before each op; its time is not the pass's.  With
    ``collections`` (a FullCollections) a record's "gc" is the time of the
    full collections that fell inside its op."""
    records = []
    wall = 0.0
    for op in ops:
        if between is not None:
            between()
        gc_before = collections.seconds if collections is not None else 0.0
        began = perf_counter()
        try:
            if tracer is None:
                out = op.run(None)
            else:
                out = tracer.op(op.label, op.run, tracer)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        took = perf_counter() - began
        gc_s = collections.seconds - gc_before if collections is not None else 0.0
        ok = False
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:  # a check that cannot read the output
                error = f"{type(exc).__name__}: {exc}"
        if op.cleanup is not None:
            op.cleanup()
        wall += perf_counter() - began
        records.append({"op": op, "out": out, "ok": ok, "took": took,
                        "gc": gc_s, "error": error})
    return wall, records


def comparable(record):
    """What must agree between an untraced and a traced pass."""
    out = record["out"]
    if record["op"].child:
        return [out[0], out[1]]  # exit code and stdout
    return repr(out)


def unexpected(record):
    """A failure that is not a recorded defect failing as recorded."""
    if record["ok"]:
        return False
    op, out = record["op"], record["out"]
    return not (op.known_exit is not None and out is not None
                and out[0] == op.known_exit)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, inputs, setup, seed, seconds, work_dir):
    # set-up and the timed phase each have their own reference samples
    setup_reference, reference = Reference(), Reference()
    setup_times = []
    session = None
    for i in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None
            gc.collect()  # each set-up starts from the same heap
        setup_reference.sample()
        began = perf_counter()
        session = setup(inputs, work_dir / f"setup{i}")
        setup_times.append(perf_counter() - began)
    setup_reference.sample()
    collections = FullCollections()
    gc.callbacks.append(collections)
    try:
        # a new order each pass, so a collection or a slow second does not
        # land on the same op every time
        order = random.Random(f"order:{seed}")
        ops = list(session.ops)
        passes = []
        began = perf_counter()
        # a pass starts only if one more like the last ends within S seconds
        while not passes or (perf_counter() - began + passes[-1][0]
                             <= seconds):
            order.shuffle(ops)
            passes.append(run_pass(ops, between=reference.tick,
                                   collections=collections))
        reference.sample()
    finally:
        gc.callbacks.remove(collections)
        session.close()
    unscaled = end_to_end_metrics(passes, setup_times)
    k = reference.factor()
    for _, records in passes:
        for r in records:
            r["took"] *= k
            r["gc"] *= k
    metrics = end_to_end_metrics(
        [(wall * k, recs) for wall, recs in passes],
        [t * setup_reference.factor() for t in setup_times])
    metrics["peak_rss_mb"] = metric(peak_rss_mb(workload), "MB")
    return [r for _, recs in passes for r in recs], metrics, [
        f"passes {len(passes)}; reference median "
        f"{statistics.median(setup_reference.times) * 1000:.3f} ms in "
        f"set-up, {statistics.median(reference.times) * 1000:.3f} ms of "
        f"{len(reference.times)} samples in the timed phase (nominal "
        f"{REFERENCE_NOMINAL_S * 1000:g} ms); unscaled "
        + json.dumps({name: m["value"] for name, m in unscaled.items()})]


def op_latencies(records):
    """Each op's mean latency over the passes of a run, less the full
    collections that fell inside it; an op that failed in any pass counts
    as missing every latency limit.  Which op a full collection lands on
    changes from pass to pass (it pays for every op's allocations), so
    pass_s and ops_per_s keep the collections and the percentiles do not;
    the traced run reports them per pass as gc.full_s."""
    by_op = {}
    for r in records:
        by_op.setdefault(id(r["op"]), []).append(
            r["took"] - r.get("gc", 0.0) if r["ok"] else None)
    return [FAILED_LATENCY_S if None in took else statistics.fmean(took)
            for took in by_op.values()]


def end_to_end_metrics(passes, setup_times):
    """``passes`` are (wall seconds, records) pairs.  A failed op counts as
    missing every latency limit and not as done."""
    records = [r for _, recs in passes for r in recs]
    latencies = op_latencies(records)
    walls = [wall for wall, _ in passes]
    good = sum(r["ok"] for r in records)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_p50_ms": metric(percentile(latencies, 0.5) * 1000, "ms"),
        "op_p90_ms": metric(percentile(latencies, 0.9) * 1000, "ms"),
        "ops_per_s": metric(good / sum(walls), "1/s"),
        "pass_s": metric(statistics.median(walls), "s"),
        "ok_frac": metric(good / len(records), "ratio"),
    }


def traced_run(workload, inputs, setup, seed, work_dir):
    from tracing import (PER_LAYER, Tracer, closure_shares, layer_metrics,
                         merge, unit_of)

    tracer = Tracer().install()
    try:
        session = setup(inputs, work_dir / "setup")
    finally:
        tracer.restore()
    try:
        collections = FullCollections()
        gc.callbacks.append(collections)
        try:
            plain_wall, plain = run_pass(session.ops)
        finally:
            gc.callbacks.remove(collections)
        tracer.install()
        try:
            traced_wall, records = run_pass(session.ops, tracer)
        finally:
            tracer.restore()
    finally:
        session.close()

    dumps = [tracer.dump()]
    parts = [layer_metrics(dumps[0])]
    process_s = 0.0
    # an op is closure-bound when most of its time is closure building; a
    # child op's time is that of its cli.main, not of the waiting parent
    shares = closure_shares(dumps[0])
    for i, record in enumerate(records):
        out = record["out"]
        if not record["op"].child:
            continue
        shares[i] = 0.0
        if out is not None and out[3] is not None:
            dumps.append(out[3])
            part = layer_metrics(out[3])
            parts.append(part)
            main_s = sum(end - start for name, parent, start, end, _
                         in out[3]["spans"] if name == "cli.main")
            process_s += out[2] - main_s
            shares[i] = max(closure_shares(out[3]), default=0.0)
    m = merge(parts)
    m["cli.process_s"] = process_s
    m["workload.cold_share"] = sum(s > 0.5 for s in shares) / len(shares)
    m["workload.failed_frac"] = sum(not r["ok"] for r in records) / len(records)
    m["gc.full_collections"] = collections.count
    m["gc.full_s"] = collections.seconds
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1

    same = [comparable(r) for r in plain] == [comparable(r) for r in records]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "ops": [r["op"].label for r in records],
        "traces": dumps}), encoding="utf-8")

    metrics = {name: metric(m[name], unit_of(name)) for name in PER_LAYER}
    notes = [f"trace {trace_file.relative_to(ROOT)}",
             f"traced outputs equal untraced: {same}",
             f"levels breaking a paper bound: {m['gastructure.bound_breaks']}"]
    ok = same and m["gastructure.bound_breaks"] == 0
    return plain + records, metrics, notes, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cga" / "__init__.py").is_file():
        _fail(f"the cga sources are missing under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    draw, setup = workloads.WORKLOADS[args.workload]
    inputs = draw(args.seed)
    import cga.cli  # noqa: F401  (imports stay out of the timed set-up)

    work_dir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            records, metrics, notes, traced_ok = traced_run(
                args.workload, inputs, setup, args.seed, work_dir)
        else:
            records, metrics, notes = timed_run(
                args.workload, inputs, setup, args.seed, args.seconds, work_dir)
            traced_ok = True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"failed: {r['op'].label} :: "
              f"{r['error'] or repr(r['out'])[:200]}")
    for note in notes:
        print(note)
    correct = traced_ok and not any(unexpected(r) for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
