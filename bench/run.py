"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run repeats the workload (a closed loop: one caller, no threads) for
about ``--seconds`` host seconds, checks every repetition's outputs and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions) and no tracing is installed.  With ``--trace 1`` untraced
and traced repetitions alternate; the metrics are the per-layer ones from
the traced repetitions, and the spans of the last one are written under
``bench/out/``.  ``--workload all`` runs every workload, each in a fresh
process of its own.  ``--record`` stores the outputs and work counts the
run observed in ``bench/expected.json`` as the values later runs must
reproduce.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("routing_multi200", "dispatch_single250", "ledger_churn")

# Span names whose self time is reported, as `<span>_self_s`.
SELF_SPANS = (
    "bgp.process_update", "bgp.select_best", "bgp.loop", "bgp.snapshot_table",
    "dispatcher.tick", "dispatcher.scan", "profiler.handle_request",
    "ledger.submit", "ledger.endorse", "ledger.seal", "ledger.query_verify",
    "ledger.verify_chain", "ledger.dump", "ledger.load", "topology.gen",
    "harness.run_scenario", "harness.emit",
)
COUNTS = (
    "bgp.events", "bgp.updates", "bgp.updates_changed", "bgp.updates_dropped_loop",
    "bgp.updates_dropped_filter", "bgp.selections", "bgp.candidates_ranked",
    "bgp.snapshot_rows", "dispatcher.ticks", "dispatcher.gateway_calls",
    "profiler.requests.add", "profiler.requests.update", "profiler.requests.verify",
    "profiler.rejected", "ledger.commits", "ledger.denials", "ledger.endorse_calls",
    "ledger.blocks",
)
RATIOS = {  # name: (numerator count, denominator count)
    "bgp.update_useful_ratio": ("bgp.updates_changed", "bgp.updates"),
    "dispatcher.useful_tick_ratio": ("dispatcher.useful_ticks", "dispatcher.ticks"),
}


def measure(workload, seconds: float, trace: bool, tracing):
    """Untraced repetitions and (Rep, Tracer) pairs."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        use_trace = trace and len(plain) > len(traced)
        gc.collect()
        started = time.perf_counter()
        if use_trace:
            tracer = tracing.Tracer()
            with tracer:
                rep = workload.rep(tracer)
            if traced:
                traced[-1][1].spans.clear()   # only the last repetition's are kept
            traced.append((rep, tracer))
        else:
            plain.append(workload.rep())
        took = time.perf_counter() - started
        if trace and not (plain and traced):
            continue
        if time.perf_counter() + took > deadline:
            return plain, traced


def self_seconds(tracer) -> dict:
    return {span: tracer.self_s.get(span, 0.0) for span in SELF_SPANS}


def merged_counts(rep, tracer) -> dict:
    counts = {name: 0 for name in COUNTS}
    counts["dispatcher.useful_ticks"] = 0
    counts.update(tracer.counts)
    counts.update(rep.counts)
    return counts


def check_repeats(reps, counts_list, expected_counts, problems):
    """Every repetition must repeat the first one's outputs and counts."""
    for rep in reps[1:]:
        if rep.observed != reps[0].observed:
            problems.append("outputs differ between repetitions")
            break
    for counts in counts_list[1:]:
        if counts != counts_list[0]:
            problems.append("work counts differ between repetitions")
            break
    if expected_counts is not None and counts_list:
        for name, want in expected_counts.items():
            got = counts_list[0].get(name)
            if got != want:
                problems.append(f"{name}: got {got}, expected {want}")


def report(args, plain, traced, problems) -> dict:
    reps = plain + [rep for rep, _ in traced]
    for rep in reps:
        problems.extend(rep.problems)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if problems and not failed:
        failed = attempted
    lines = []
    run_s = [rep.run_s for rep in plain]
    if not args.trace:
        setup_s = [rep.setup_s for rep in plain]
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "run_s": (median(run_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        lines.append(f"setup_s      median of {len(setup_s)}; "
                     f"min {min(setup_s):.4f} max {max(setup_s):.4f}")
        lines.append(f"run_s        median of {len(run_s)}; "
                     f"min {min(run_s):.4f} max {max(run_s):.4f}")
    else:
        selfs = [self_seconds(tracer) for _, tracer in traced]
        metrics = {f"{span}_self_s": (median(s[span] for s in selfs), "s")
                   for span in SELF_SPANS}
        counts = merged_counts(*traced[-1])
        for name in COUNTS:
            metrics[name] = (counts[name], "count")
        for name, (num, den) in RATIOS.items():
            metrics[name] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")
        traced_s = median(rep.run_s for rep, _ in traced)
        metrics["trace_overhead_frac"] = (traced_s / median(run_s) - 1, "frac")
        lines.append(f"run_s        untraced median {median(run_s):.4f} of {len(run_s)}, "
                     f"traced median {traced_s:.4f} of {len(traced)}")
        # Shares of the traced repetition, as information only: one layer's
        # share also moves when another layer's time does.
        shares = [{span: s[span] / rep.run_s for span in SELF_SPANS}
                  for s, (rep, _) in zip(selfs, traced)]
        for span in SELF_SPANS:
            share = median(f[span] for f in shares)
            if share:
                lines.append(f"{span + ' share':<32} {share:.4f} of a traced repetition")
        other = median(1 - sum(f.values()) for f in shares)
        lines.append(f"self time outside the traced layers: {other:.4f} of a repetition")
    info = {}
    for rep in reps:
        for key, value in rep.info.items():
            info.setdefault(key, []).append(value)
    for key, values in sorted(info.items()):
        lines.append(f"{key:<12} median {median(values):.6g} over {len(values)} "
                     f"repetitions")
    lines.append(f"fail_frac    {failed / attempted if attempted else 0.0:.6g} "
                 f"({failed} of {attempted} operations)")
    for line in lines:
        print(line)
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def write_trace(args, traced):
    rep, tracer = traced[-1]
    OUT.mkdir(exist_ok=True)
    origin = min(span[1] for span in tracer.spans) if tracer.spans else 0.0
    doc = {"workload": args.workload, "seed": args.seed, "run_s": rep.run_s,
           "self_s": dict(sorted(tracer.self_s.items())),
           "counts": dict(sorted(tracer.counts.items())),
           **tracer.span_document(origin)}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"spans of the last traced repetition: {path.relative_to(BENCH.parent)}")


def run_all(args) -> int:
    """Each workload in a fresh process, so no heap carries into peak_rss_mb."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--record"] if args.record else [])
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store observed outputs and counts in expected.json "
                             "(needs --trace 1)")
    args = parser.parse_args(argv)
    if args.record and not args.trace:
        parser.error("--record needs --trace 1, which counts the work")
    if not (SRC / "blockjack" / "__init__.py").is_file():
        print(f"error: no blockjack sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    expected_doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = None if args.record else expected_doc.get(args.workload)
    problems = [] if args.record or expected else [
        f"no expected values for {args.workload} in {EXPECTED.name}"]
    with workloads.make(args.workload, args.seed, expected) as workload:
        plain, traced = measure(workload, args.seconds, bool(args.trace), tracing)
    if hasattr(workload, "stream_gen_s"):
        print(f"stream_gen_s {workload.stream_gen_s:.4f} (once per process, "
              f"outside setup_s)")
    reps = plain + [rep for rep, _ in traced]
    counts = [merged_counts(rep, tracer) for rep, tracer in traced]
    check_repeats(reps, counts, expected["counts"] if expected and traced else None,
                  problems)
    result = report(args, plain, traced, problems)
    if traced:
        write_trace(args, traced)
    if args.record:
        expected_doc[args.workload] = {"outputs": traced[-1][0].observed,
                                       "counts": counts[-1]}
        EXPECTED.write_text(json.dumps(expected_doc, sort_keys=True, indent=2) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
