"""Spans and work counters around blockjack's public entry points.

A :class:`Tracer` replaces each traced function with a wrapper for the
length of one repetition and puts the original back afterwards, so an
untraced repetition runs the unmodified program.  Every call becomes a
span ``(name, start, end, parent)`` kept in memory; a span's self time
is its duration minus the time its child spans cover.  The wrappers
also count work at the same boundaries (updates delivered, candidates
ranked, gateway requests by action, ...).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from blockjack import bgp, dispatcher, harness, ledger, profiler

_clock = time.perf_counter


def _count_run_until(counts, args, result, exc):
    if exc is None:
        counts["bgp.events"] += result


def _count_process_update(counts, args, result, exc):
    counts["bgp.updates"] += 1
    if exc is not None:
        return
    outcome, change = result
    if change is not None:
        counts["bgp.updates_changed"] += 1
    if outcome == "dropped-loop":
        counts["bgp.updates_dropped_loop"] += 1
    elif outcome == "dropped-filter":
        counts["bgp.updates_dropped_filter"] += 1


def _count_select_best(counts, args, result, exc):
    counts["bgp.selections"] += 1
    counts["bgp.candidates_ranked"] += len(args[0])


def _count_snapshot(counts, args, result, exc):
    if exc is None:
        counts["bgp.snapshot_rows"] += len(result)


def _count_tick(counts, args, result, exc):
    counts["dispatcher.ticks"] += 1
    if exc is None and (result.verifies or result.adds or result.status_updates
                        or result.filters):
        counts["dispatcher.useful_ticks"] += 1


def _count_request(counts, args, result, exc):
    action = {profiler.ACTION_ADD: "add", profiler.ACTION_UPDATE: "update",
              profiler.ACTION_VERIFY: "verify"}[args[1].action]
    counts[f"profiler.requests.{action}"] += 1
    if isinstance(exc, profiler.AuthenticationError):
        counts["profiler.rejected"] += 1


def _count_submit(counts, args, result, exc):
    if isinstance(result, ledger.CommitResult):
        counts["ledger.commits"] += 1
    elif isinstance(result, ledger.Denial):
        counts["ledger.denials"] += 1


def _count_endorse(counts, args, result, exc):
    counts["ledger.endorse_calls"] += 1


# (owner, attribute, span name, counter); classmethods are handled by _patch.
TARGETS = [
    (bgp.Simulation, "run_until", "bgp.loop", _count_run_until),
    (bgp.Simulation, "process_update", "bgp.process_update", _count_process_update),
    (bgp, "select_best", "bgp.select_best", _count_select_best),
    (bgp.Simulation, "snapshot_table", "bgp.snapshot_table", _count_snapshot),
    (dispatcher.Dispatcher, "tick", "dispatcher.tick", _count_tick),
    (dispatcher, "scan", "dispatcher.scan", None),
    (profiler.Profiler, "handle_request", "profiler.handle_request", _count_request),
    (ledger.ConsortiumLedger, "submit_authorization", "ledger.submit", _count_submit),
    (ledger.ConsortiumLedger, "submit_status_update", "ledger.submit", _count_submit),
    (ledger.ConsortiumMember, "endorse", "ledger.endorse", _count_endorse),
    (ledger.Block, "seal", "ledger.seal", None),
    (ledger.ConsortiumLedger, "query_verify", "ledger.query_verify", None),
    (ledger.ConsortiumLedger, "verify_chain", "ledger.verify_chain", None),
    (ledger.ConsortiumLedger, "dump", "ledger.dump", None),
    (ledger.ConsortiumLedger, "to_json", "ledger.dump", None),
    (ledger.ConsortiumLedger, "load", "ledger.load", None),
    (harness, "gen_topology", "topology.gen", None),
    (harness, "run_scenario", "harness.run_scenario", None),
]


class Tracer:
    """Spans, self times and counts for one traced repetition."""

    def __init__(self):
        self.spans: list = []            # (name, start, end, parent index)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # [span index, start, child seconds]
        self._saved: list = []
        self._tick_depth = 0
        self.enabled = True

    # -- spans --------------------------------------------------------------

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run fn(*args, **kwargs) as one span named `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else None
        if name == "dispatcher.tick":
            self._tick_depth += 1
        elif name == "profiler.handle_request" and self._tick_depth:
            self.counts["dispatcher.gateway_calls"] += 1
        frame = [index, _clock(), 0.0]
        stack.append(frame)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as error:
            exc = error
            raise
        finally:
            end = _clock()
            stack.pop()
            duration = end - frame[1]
            self.self_s[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            self.spans[index] = (name, frame[1], end, parent)
            if name == "dispatcher.tick":
                self._tick_depth -= 1
            if counter is not None:
                counter(self.counts, args, result, exc)

    @contextmanager
    def paused(self):
        """Run the benchmark's own set-up and checks without spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installation ---------------------------------------------------------

    def install(self):
        for owner, attr, name, counter in TARGETS:
            self._patch(owner, attr, name, counter)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def _patch(self, owner, attr, name, counter):
        original = vars(owner)[attr]
        tracer = self
        if isinstance(original, classmethod):
            fn = original.__func__

            def wrapper(cls, *args, **kwargs):
                return tracer.call(name, fn, cls, *args, counter=counter, **kwargs)
            replacement = classmethod(wrapper)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, counter=counter, **kwargs)
            replacement = wrapper
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- output ------------------------------------------------------------------

    def span_document(self, origin: float) -> dict:
        """Spans as plain data, times in microseconds from `origin`."""
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_us", "end_us", "parent"],
            "spans": [[ids[name], round((start - origin) * 1e6, 3),
                       round((end - origin) * 1e6, 3), parent]
                      for name, start, end, parent in self.spans],
        }
