"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one in-process caller that waits for
every call to return.  A repetition returns a :class:`Rep` with its
host times, the operations it attempted, the ones whose outcome
differed from the expected one, and the deterministic work counts the
benchmark compares with ``expected.json``.

* ``routing_multi200`` and ``dispatch_single250`` call ``run_scenario``
  and render its outputs as ``blockjack run`` does.  Tree topologies
  ignore the seed, so these inputs are pinned and ``--seed`` does not
  change them; that keeps their output digests checkable.
* ``ledger_churn`` sends a seeded stream of gateway requests, then
  verifies the chain and round-trips the ledger dump.  The stream's
  make-up is fixed, so its work counts do not depend on the seed; its
  proportions follow the gateway traffic of ``dispatch_single250`` where
  that traffic has the kind of request at all (see ``churn_stream``).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from blockjack import bgp, harness
from blockjack.ledger import (
    CALIBRATED_COST,
    CommitResult,
    ConsortiumLedger,
    CostModel,
    Denial,
)
from blockjack.profiler import (
    ACTION_ADD,
    ACTION_UPDATE,
    ACTION_VERIFY,
    AuthenticationError,
    GatewayRequest,
    Profiler,
)
from blockjack.types import Prefix, RouterId

_clock = time.perf_counter


@dataclass
class Rep:
    """One repetition's measurements and check results."""

    setup_s: float
    run_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)   # values kept in expected.json
    info: dict = field(default_factory=dict)       # reported, not checked


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compare(problems: list[str], label: str, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


class ScenarioWorkload:
    """run_scenario on a pinned configuration, plus output rendering."""

    def __init__(self, expected: Optional[dict], **config):
        self.expected = expected
        self.config = config
        self._original_run_until = None
        self._first_run_until: Optional[float] = None
        self._sim = None

    # The set-up clock: one hook on Simulation.run_until, present in every
    # run, that stamps the first call of a repetition.

    def __enter__(self):
        original = self._original_run_until = vars(bgp.Simulation)["run_until"]
        workload = self

        def run_until(sim, t):
            if workload._first_run_until is None:
                workload._first_run_until = _clock()
                workload._sim = sim
            return original(sim, t)

        bgp.Simulation.run_until = run_until
        return self

    def __exit__(self, *exc_info):
        bgp.Simulation.run_until = self._original_run_until

    def rep(self, tracer=None) -> Rep:
        self._first_run_until = None
        self._sim = None
        start = _clock()
        metrics = harness.run_scenario(harness.ScenarioConfig(**self.config))
        if tracer is None:
            outputs = emit(metrics)
        else:
            outputs = tracer.call("harness.emit", emit, metrics)
        end = _clock()
        return self._check(metrics, outputs, self._first_run_until - start,
                           end - start)

    def _check(self, metrics, outputs: dict, setup_s: float, run_s: float) -> Rep:
        summary = json.loads(outputs["summary"])
        observed = {
            "digests": {key: sha256(text) for key, text in sorted(outputs.items())},
            "impactful": len(metrics.impactful),
            "collateral_ok": metrics.collateral_ok,
            "neutralize_sim_s": summary["neutralize_s"]["mean"],
        }
        counts = {"bgp.events": self._sim.events_processed,
                  "ledger.blocks": len(metrics.ledger_dump["blocks"])}
        problems = []
        if not metrics.all_impactful_neutralized:
            problems.append("an impactful attack was not neutralized")
        if not metrics.end_state_safe:
            problems.append("an adversarial route is still best at the end")
        if self.expected is not None:
            for key, want in self.expected["outputs"].items():
                _compare(problems, key, observed[key], want)
            for key, got in counts.items():
                _compare(problems, key, got, self.expected["counts"][key])
        attacks = len(metrics.records)
        unneutralized = sum(1 for r in metrics.impactful if r.neutralized_at is None)
        return Rep(setup_s=setup_s, run_s=run_s, attempted=attacks,
                   failed=attacks if problems else unneutralized,
                   problems=problems, counts=counts, observed=observed,
                   info={"neutralize_sim_s": observed["neutralize_sim_s"]})


def emit(metrics) -> dict:
    """The texts `blockjack run` writes: CSV, summary, ledger dump, reports."""
    return {
        "csv": harness.metrics_csv([metrics]),
        "summary": json.dumps(harness.summarize([metrics]), sort_keys=True,
                              indent=2) + "\n",
        "ledger": json.dumps(metrics.ledger_dump, sort_keys=True, indent=2) + "\n",
        "reports": "\n".join(metrics.reports) + "\n",
    }


# -- ledger_churn -------------------------------------------------------------

# Seven members rather than the calibrated two: every write is endorsed by
# and replicated to each member, so with seven that per-member work is most
# of a write's cost, as it would be in a consortium of several registries.
MEMBERS = 7
CHURN_COST = CostModel(CALIBRATED_COST.request_latency, CALIBRATED_COST.endorse_latency,
                       CALIBRATED_COST.distribute_latency, MEMBERS)
ROUTERS = 200
ASN_BASE = 65000
# The stream's make-up is fixed; the seed picks owners, prefixes and order.
# Two proportions are taken from the gateway traffic of dispatch_single250,
# the scenario with the most of it (251 registrations, 500 verifications
# answering valid, 250 answering invalid):
REQUESTS = 30000
READS_PER_WRITE = 3      # 750 verifications to 251 registrations
VALID_PER_INVALID = 2    # 500 valid to 250 invalid
# The scenarios make no status updates, cross-AS registrations, spoofed
# requests or unknown answers.  Each of these gets a chosen tenth of its
# class (writes or reads): enough that every path runs hundreds of times
# a repetition, while the kinds the scenarios do make set most of the cost.
OTHER_SHARE = 10         # one in OTHER_SHARE
WRITES = REQUESTS // (READS_PER_WRITE + 1)
STATUS_UPDATES = HIJACKS = SPOOFS = WRITES // OTHER_SHARE   # 750 each
REGISTRATIONS = WRITES - STATUS_UPDATES - HIJACKS - SPOOFS  # 5,250
VERIFICATIONS = REQUESTS - WRITES                           # 22,500
UNKNOWN = VERIFICATIONS // OTHER_SHARE   # asked about prefixes nobody registers
INVALID = (VERIFICATIONS - UNKNOWN) // (VALID_PER_INVALID + 1)
VALID = VERIFICATIONS - UNKNOWN - INVALID
UNREGISTERED = 1000      # the prefixes the unknown verifications pick from
STEP_SIM_S = 0.001       # simulated seconds between requests

COMMIT = "commit"
CONFLICT = "denial:conflict"
REJECTED = "rejected"


def churn_stream(seed: int) -> list[tuple[GatewayRequest, str]]:
    """The seeded request stream, each request with its expected outcome.

    A verification meant to answer valid or invalid answers unknown when
    its prefix is deactivated at that point of the stream.
    """
    rng = random.Random(f"ledger_churn:{seed}")
    routers = [RouterId(ASN_BASE + i) for i in range(ROUTERS)]
    slots = rng.sample(range(1 << 16), REGISTRATIONS + UNREGISTERED)
    prefixes = [Prefix((10 << 24) | (slot << 8), 24) for slot in slots]
    fresh, never = prefixes[:REGISTRATIONS], prefixes[REGISTRATIONS:]
    head = REGISTRATIONS // 10
    tail = (["add"] * (REGISTRATIONS - head) + ["update"] * STATUS_UPDATES
            + ["hijack"] * HIJACKS + ["spoof"] * SPOOFS + ["valid"] * VALID
            + ["invalid"] * INVALID + ["unknown"] * UNKNOWN)
    rng.shuffle(tail)

    owner: dict[Prefix, RouterId] = {}
    active: dict[Prefix, bool] = {}
    registered: list[Prefix] = []
    stream = []

    def other_than(rid: RouterId) -> RouterId:
        while True:
            pick = rng.choice(routers)
            if pick != rid:
                return pick

    for kind in ["add"] * head + tail:
        if kind == "add":
            prefix, rid = fresh[len(registered)], rng.choice(routers)
            owner[prefix], active[prefix] = rid, True
            registered.append(prefix)
            stream.append((GatewayRequest(ACTION_ADD, prefix, rid.asn, rid), COMMIT))
            continue
        if kind == "unknown":
            asker = rng.choice(routers)
            stream.append((GatewayRequest(ACTION_VERIFY, rng.choice(never), asker.asn,
                                          asker), "unknown"))
            continue
        prefix = rng.choice(registered)
        rid = owner[prefix]
        if kind in ("valid", "invalid"):
            asker = rng.choice(routers)
            asn = rid.asn if kind == "valid" else other_than(rid).asn
            signal = kind if active[prefix] else "unknown"
            stream.append((GatewayRequest(ACTION_VERIFY, prefix, asn, asker), signal))
        elif kind == "update":
            active[prefix] = not active[prefix]
            stream.append((GatewayRequest(ACTION_UPDATE, prefix, rid.asn, rid,
                                          active=active[prefix]), COMMIT))
        elif kind == "hijack":
            thief = other_than(rid)
            stream.append((GatewayRequest(ACTION_ADD, prefix, thief.asn, thief),
                           CONFLICT))
        else:
            thief = other_than(rid)
            stream.append((GatewayRequest(ACTION_ADD, prefix, rid.asn, thief), REJECTED))
    return stream


def outcome(profiler: Profiler, req: GatewayRequest, now: float) -> str:
    try:
        result = profiler.handle_request(req, now=now)
    except AuthenticationError:
        return REJECTED
    if isinstance(result, CommitResult):
        return COMMIT
    if isinstance(result, Denial):
        return f"denial:{result.reason}"
    return result.signal.value


class LedgerChurnWorkload:
    """Gateway writes beside reads, then chain verification and dump/load.

    The stream depends only on the seed, and its requests are immutable,
    so it is generated once per process, outside every repetition's
    set-up; set-up is the program's: consortium and router profiles.
    """

    def __init__(self, expected: Optional[dict], seed: int):
        self.expected = expected
        start = _clock()
        self.stream = churn_stream(seed)
        self.stream_gen_s = _clock() - start

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def rep(self, tracer=None) -> Rep:
        paused = tracer.paused if tracer is not None else nullcontext
        stream = self.stream
        start = _clock()
        with paused():
            ledger = ConsortiumLedger(cost_model=CHURN_COST)
            profiler = Profiler(ledger)
            admin = profiler.enroll_admin("admin")
            for i in range(ROUTERS):
                profiler.create_router_profile(RouterId(ASN_BASE + i), admin)
        setup_s = _clock() - start

        write_s = read_s = 0.0
        writes = reads = failed = 0
        mismatches = []
        begin = _clock()
        for i, (req, expect) in enumerate(stream):
            before = _clock()
            got = outcome(profiler, req, i * STEP_SIM_S)
            spent = _clock() - before
            if req.action == ACTION_VERIFY:
                reads += 1
                read_s += spent
            else:
                writes += 1
                write_s += spent
            if got != expect:
                failed += 1
                if len(mismatches) < 3:
                    mismatches.append(f"request {i} ({req.action} {req.prefix}): "
                                      f"got {got}, expected {expect}")
        chain_start = _clock()
        broken = ledger.verify_chain()
        dump_start = _clock()
        text = ledger.to_json()
        reloaded = ConsortiumLedger.load(json.loads(text), cost_model=CHURN_COST)
        end = _clock()

        problems = mismatches
        if broken is not None:
            problems.append(f"verify_chain reports block {broken} broken")
        with paused():
            redumped = reloaded.to_json()
        if redumped != text:
            problems.append("load(dump) does not re-dump byte-identical")
        counts = {"ledger.blocks": ledger.chain_length}
        if self.expected is not None:
            _compare(problems, "ledger.blocks", counts["ledger.blocks"],
                     self.expected["counts"]["ledger.blocks"])
        if problems and not failed:
            failed = len(stream)
        return Rep(setup_s=setup_s, run_s=end - begin, attempted=len(stream),
                   failed=failed, problems=problems, counts=counts,
                   info={"write_per_s": writes / write_s,
                         "read_per_s": reads / read_s,
                         "chain_verify_s": dump_start - chain_start,
                         "dump_load_s": end - dump_start,
                         "ledger_mb": len(text) / 1e6})


def make(name: str, seed: int, expected: Optional[dict]):
    """The workload called `name`; `expected` is its entry in expected.json."""
    if name == "routing_multi200":
        return ScenarioWorkload(expected, kind="multi_path", routers=200,
                                adversarial_prefixes=5, seed=9)
    if name == "dispatch_single250":
        return ScenarioWorkload(expected, kind="single_path", routers=60,
                                adversarial_prefixes=250)
    if name == "ledger_churn":
        return LedgerChurnWorkload(expected, seed)
    raise ValueError(f"unknown workload {name!r}")
