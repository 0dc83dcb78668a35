"""toricpick benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each workload runs as a closed loop with one client
and no threads.  An op is one in-process ``toricpick.cli.main([...,
"--format", "json"])`` call on its own freshly translated input, so no op
reuses another op's cached geometry; every output is checked against the
closed-form reference the generator knows.

--trace 0 measures end to end: set-up time, ops per second, per-op latency
percentiles and peak RSS.  The shared machine's speed drifts by up to 1.9x
from one minute to the next, so every timed span is paired with a gauge: a
fixed stdlib routine (no toricpick code) timed just before it.  A span's
reported time is its wall time scaled by GAUGE_REF_S over the median gauge
around it, i.e. its wall time at the machine's reference speed; the raw
wall-clock metrics are printed and recorded beside them.

--trace 1 runs one pass of the op list twice, once through the command
line untraced and once replayed layer by layer under spans (see
replay.py), and reports per-layer times and counts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record of the run (commit,
Python version, core count, seed, op count, every metric) is written to
``.perfbench/``, and the spans of a traced run beside it.  The exit code is
1 when any op fails and 2 when the checkout has no program to measure.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
# typical gauge time (ten runs of the workloads) on the 2-core machine the
# benchmark was written on; it only sets the scale of the reported times,
# which read as wall times there at that speed
GAUGE_REF_S = 0.00125
GAUGE_WINDOW = 4  # a span's gauge is the median of the gauges within 4 spans

sys.path.insert(0, HERE)
import replay  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length at the seed commit; fixes the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def commit_id():
    """HEAD of the checkout's git metadata without running git; 'unknown' if none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program():
    """Import toricpick from scratch; the caches start empty."""
    for name in [m for m in sys.modules if m == "toricpick" or m.startswith("toricpick.")]:
        del sys.modules[name]
    package = importlib.import_module("toricpick")
    importlib.import_module("toricpick.cli")
    return package


GAUGE_KEYS = [(i % 23, i % 19, i // 437) for i in range(2000)]


def gauge_s():
    """Wall time of a fixed stdlib mix like the program's own work: tuple
    keys in a dict, integer inequality tests and Fraction sums."""
    start = time.perf_counter()
    seen, hits = {}, 0
    for p in GAUGE_KEYS:
        if 3 * p[0] - p[1] + p[2] <= 20:
            hits += 1
        seen[p] = seen.get(p, 0) + 1
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i % 9 + 1) * Fraction(3, i % 5 + 2)
    return time.perf_counter() - start


def at_reference_speed(walls, gauges):
    """Scale each wall time by GAUGE_REF_S over the median of the gauges
    taken within GAUGE_WINDOW spans of it.  gauges[i] was taken just
    before span i, and gauges has one more entry, taken after the last."""
    scaled = []
    for i, wall in enumerate(walls):
        near = gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 2]
        scaled.append(wall * GAUGE_REF_S / statistics.median(near))
    return scaled


def set_up(workload, seed, passes, workdir):
    """Import the program and generate the inputs, several times over.

    Returns the median set-up time (at reference speed, and wall), the op
    list, the input mover and the cli module of the last repetition (the
    one every op then uses).  The input files are written once afterwards,
    outside the timed set-up: writing some thousand small files takes 0.1
    to 0.7 s here from one minute to the next, which would drown the
    program's import time.
    """
    walls, gauges = [], [gauge_s()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_program()
        mover = workload.mover(seed)
        ops = workload.ops(seed, passes, mover)
        walls.append(time.perf_counter() - start)
        gauges.append(gauge_s())
    location = os.path.dirname(os.path.abspath(package.__file__))
    if os.path.commonpath([location, SRC]) != SRC:
        raise SystemExit("toricpick was imported from %s, not from %s" % (location, SRC))
    workloads.write_inputs(ops, workdir)
    setup = (statistics.median(at_reference_speed(walls, gauges)), statistics.median(walls))
    return setup, ops, mover, sys.modules["toricpick.cli"]


def run_cli(cli, op):
    """One op as a user runs it; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv())
    except SystemExit as e:
        code = e.code
    except Exception:  # an op that crashes counts as failed; the run goes on
        code = None
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = "exit code %s: %s" % (code, err.getvalue().strip()[:200])
    return elapsed, code, out.getvalue(), error


def judge(op, code, text, error):
    """None when the op's output is correct, else why not."""
    if error is not None:
        return error
    try:
        data = json.loads(text)
    except ValueError:
        return "output is not JSON"
    try:
        return workloads.check_output(op, code, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return "output lacks an expected field: %r" % (e,)


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(cli, ops):
    """Run every op; a template's latency is the median of its passes' times.

    Each pass runs every template once on a fresh translate of the same
    polytope, so the median over the passes is that command's cold-cache
    cost with the machine's momentary slowdowns and bursts both damped.
    Returns the metrics at reference speed, the same metrics from wall
    times, the failures, each template's latency in ms by label, each
    pass's total op time and the median gauge.
    """
    walls, gauges, failures = [], [], []
    gc.collect()
    for op in ops:
        gauges.append(gauge_s())
        elapsed, code, text, error = run_cli(cli, op)
        walls.append(elapsed)
        reason = judge(op, code, text, error)
        if reason is not None:
            failures.append((op.label, reason))
    gauges.append(gauge_s())
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = at_reference_speed(walls, gauges)
    metrics, typical = latency_metrics(ops, scaled)
    wall_metrics, _ = latency_metrics(ops, walls)
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    labels = {op.template: op.label for op in ops}
    by_label = {labels[t]: round(sec * 1e3, 3) for t, sec in typical.items()}
    size = len(typical)
    per_pass = [sum(scaled[i:i + size]) for i in range(0, len(scaled), size)]
    return metrics, wall_metrics, failures, by_label, per_pass, statistics.median(gauges)


def latency_metrics(ops, times):
    """Throughput and latency percentiles over the templates' median times."""
    samples = {}
    for op, elapsed in zip(ops, times):
        samples.setdefault(op.template, []).append(elapsed)
    typical = {t: statistics.median(v) for t, v in samples.items()}
    latencies = sorted(typical.values())
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
    }
    return metrics, typical


def traced(cli, ops, mover):
    """CLI untraced on one translate, then the layer replay on a fresh one."""
    api = replay.Api("toricpick")
    tracer = replay.Tracer()
    rerun = replay.Replay(api, tracer)
    failures = []
    untraced = traced_total = 0.0
    gc.collect()
    for op in ops:
        elapsed, code, text, error = run_cli(cli, op)
        untraced += elapsed
        reason = judge(op, code, text, error)
        if reason is not None:
            failures.append((op.label, reason))
            continue
        other = ([mover.fresh(p) for p in op.batch] if op.batch is not None
                 else mover.fresh(op.poly) if op.poly is not None else None)
        start = time.perf_counter()
        try:
            with tracer.op_span(op.oid, op.label):
                data, value = rerun.run(op, other)
        except Exception:  # a replay that crashes counts as failed
            failures.append((op.label, "replay: " + traceback.format_exc(limit=3)
                             .strip().splitlines()[-1]))
            continue
        traced_total += time.perf_counter() - start
        if op.batch is None:
            replayed = workloads.Op(op.oid, op.command, op.kind, other, op.flags)
        else:
            replayed = workloads.Op(op.oid, "corpus", "dir", batch=other)
        reason = workloads.check_output(replayed, 0, data) or \
            workloads.check_class_value(replayed, value)
        if reason is not None:
            failures.append((op.label, "replay: " + reason))
    metrics = {name + "_s": (sec, "s") for name, sec in tracer.layer_seconds().items()}
    counts = tracer.counts
    for name in replay.LAYER_COUNTS:
        metrics[name] = (counts[name], "bytes" if name == "cli.output_bytes" else "count")
    box = counts["lattice.box_points"]
    metrics["lattice.hit_ratio"] = (counts["lattice.lattice_points"] / box if box else 0.0,
                                    "ratio")
    metrics["trace.overhead_s"] = (traced_total - untraced, "s")
    return metrics, failures, tracer, api.missing


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toricpick", "__init__.py")):
        print("error: no toricpick sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    passes = 1 if args.trace else workload.passes(args.seconds)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    wall_metrics, gauge = {}, None
    try:
        (setup_s, setup_wall_s), ops, mover, cli = set_up(workload, args.seed, passes, workdir)
        if args.trace:
            metrics, failures, tracer, missing = traced(cli, ops, mover)
            samples, per_pass, template_ms = len(ops), [], {}
        else:
            metrics, wall_metrics, failures, template_ms, per_pass, gauge = end_to_end(cli, ops)
            samples = len(template_ms)
            metrics["setup_s"] = (setup_s, "s")
            wall_metrics["setup_s"] = (setup_wall_s, "s")
            tracer, missing = None, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": passes, "ops": len(ops), "latency_samples": samples,
        "setup_repeats": SETUP_REPEATS, "pass_seconds": [round(x, 3) for x in per_pass],
        "gauge_ms": gauge and round(gauge * 1e3, 4), "gauge_ref_ms": GAUGE_REF_S * 1e3,
    }
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    print("# " + " ".join("%s=%s" % kv for kv in meta.items()))
    for name in missing:
        print("# layer function %s not found; its span reads 0" % name)
    for label, reason in failures[:20]:
        print("# FAILED %s: %s" % (label, reason))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-28s %14.6f %s" % (name, value, unit))
    for name, (value, unit) in sorted(wall_metrics.items()):
        print("# wall-clock %-16s %14.6f %s" % (name, value, unit))
    print("%-28s %14.6f %s  (%d of %d ops failed; %d latency samples)" % (
        "error_rate", len(failures) / len(ops), "ratio", len(failures), len(ops), samples))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(meta, failures=failures, error_rate=len(failures) / len(ops),
                       median_ms_by_template=template_ms, wall_clock=wall_metrics,
                       **result), handle, indent=1,
                  sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
