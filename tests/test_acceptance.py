"""Acceptance suite: one test per release criterion, with a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

from blockjack.bgp import Route, select_best
from blockjack.cli import main as cli_main
from blockjack.dispatcher import ACCEPT, Dispatcher, DispatcherReport, scan
from blockjack.harness import ScenarioConfig, run_scenario
from blockjack.ledger import (
    CALIBRATED_COST,
    CommitResult,
    ConsortiumLedger,
    CostModel,
    Denial,
    VerificationSignal,
    estimate_authorization_cost,
)
from blockjack.profiler import ACTION_ADD, ACTION_VERIFY, GatewayRequest, Profiler
from blockjack.bgp import Simulation
from blockjack.types import Prefix, RouterId

QUANTUM = 1e-9
PAPER_AUTH_AVG_S = 2.15     # two-member reference: avg authorization
PAPER_VERIFY_AVG_S = 0.09   # and avg verification per prefix


@contextmanager
def criterion(num, title, limit_s=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num}] FAIL - {title}")
        raise
    elapsed = time.monotonic() - start
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"\n[criterion {num}] PASS - {title} ({elapsed:.2f}s)")


def gateway_for(model, routers):
    profiler = Profiler(ConsortiumLedger(cost_model=model))
    admin = profiler.enroll_admin("admin")
    for rid in routers:
        profiler.create_router_profile(rid, admin)
    return profiler


def add(profiler, rid, prefix, now=0.0):
    return profiler.handle_request(GatewayRequest(
        action=ACTION_ADD, prefix=prefix, asn=rid.asn, claimed_router=rid), now=now)


def verify(profiler, rid, prefix, asn, now=0.0):
    return profiler.handle_request(GatewayRequest(
        action=ACTION_VERIFY, prefix=prefix, asn=asn, claimed_router=rid), now=now)


# -- criterion 1 ------------------------------------------------------------


def test_criterion_1_cost_equation_fidelity():
    with criterion(1, "authorization time equals the cost equation exactly",
                   limit_s=5.0):
        rng = random.Random(1001)
        rid = RouterId(7)
        for i in range(50):
            n = (2, 4, 8)[i % 3]
            model = CostModel(rng.uniform(0, 3), rng.uniform(0, 3),
                              rng.uniform(0, 3), n)
            profiler = gateway_for(model, [rid])
            now = rng.uniform(0, 1000)
            result = add(profiler, rid, Prefix.parse(f"10.{i}.0.0/16"), now=now)
            assert isinstance(result, CommitResult)
            measured = result.completed_at - now
            expected = estimate_authorization_cost(model)
            assert abs(measured - expected) <= QUANTUM, (measured, expected)


# -- criterion 2 ------------------------------------------------------------


def _r_squared(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return (sxy * sxy) / (sxx * syy)


def test_criterion_2_throughput_shape():
    with criterion(2, "calibrated 2-member ledger reproduces the "
                      "authorization/verification shape", limit_s=60.0):
        rid = RouterId(42)
        profiler = gateway_for(CALIBRATED_COST, [rid])
        clock = 0.0
        auth_times, totals = [], []
        verify_at_sizes = {}
        for i in range(1000):
            result = add(profiler, rid, Prefix.parse(f"10.{i // 250}.{i % 250}.0/24"),
                         now=clock)
            assert isinstance(result, CommitResult)
            auth_times.append(result.completed_at - clock)
            clock = result.completed_at
            totals.append(clock)
            if i + 1 in (100, 1000):
                samples = []
                for k in range(200):
                    res = verify(profiler, rid, Prefix.parse(f"10.0.{k % 100}.0/24"),
                                 asn=42, now=clock)
                    samples.append(res.completed_at - clock)
                verify_at_sizes[i + 1] = sum(samples) / len(samples)

        mean_auth = sum(auth_times) / len(auth_times)
        assert math.isclose(mean_auth, PAPER_AUTH_AVG_S, abs_tol=1e-9)

        # (a) verification at most 5% of authorization, within 2x of the
        # reference 0.09/2.15 ratio
        mean_verify = verify_at_sizes[1000]
        ratio = mean_verify / mean_auth
        reference = PAPER_VERIFY_AVG_S / PAPER_AUTH_AVG_S
        assert ratio <= 0.05
        assert reference / 2 <= ratio <= reference * 2

        # (b) verification flat in ledger size within 10%
        assert abs(verify_at_sizes[1000] - verify_at_sizes[100]) \
            <= 0.10 * verify_at_sizes[100]

        # (c) cumulative authorization time linear in count
        assert _r_squared(list(range(1, 1001)), totals) > 0.99


# -- criteria 3-5: resiliency grids ------------------------------------------


def _appearances_filtered_next_tick(metrics, scan):
    """Every episode alive at a tick gets a matching filter by tick+scan."""
    for episode in metrics.appearances:
        tick = scan * math.floor(episode.start / scan + 1)
        if episode.end is not None and episode.end <= tick:
            continue  # transient: gone before the dispatcher could see it
        hits = [t for t, rule in metrics.filter_installs
                if rule.neighbor == episode.next_hop
                and rule.deny_origin == episode.origin
                and tick < t <= tick + scan]
        assert hits, (f"{metrics.config.kind} n={metrics.config.routers} "
                      f"seed={metrics.config.seed}: "
                      f"episode {episode} not filtered after tick {tick}")


def test_criterion_3_single_path_grid():
    with criterion(3, "single-path grid: all impactful attacks neutralized "
                      "within 2 scan intervals, no collateral damage",
                   limit_s=60.0):
        for routers in (20, 30, 40, 50, 60):
            for seed in (1, 2, 3, 4, 5):
                cfg = ScenarioConfig(kind="single_path", routers=routers, seed=seed)
                metrics = run_scenario(cfg)
                impactful = metrics.impactful
                assert impactful, f"n={routers} seed={seed}: no impactful attacks"
                assert metrics.all_impactful_neutralized
                assert metrics.end_state_safe
                assert metrics.collateral_ok
                for record in impactful:
                    assert record.neutralize_time <= 2 * cfg.scan_interval


def test_criterion_4_multi_path_grid():
    with criterion(4, "multi-path grid: alternate paths filtered tick by tick "
                      "to an adversary-free steady state"):
        for routers in (20, 30, 40, 50, 60):
            for seed in (1, 2, 3, 4, 5):
                cfg = ScenarioConfig(kind="multi_path", routers=routers, seed=seed)
                metrics = run_scenario(cfg)
                assert metrics.impactful
                assert metrics.all_impactful_neutralized
                assert metrics.end_state_safe  # zero adversarial best at end
                _appearances_filtered_next_tick(metrics, cfg.scan_interval)
                assert max(r.paths_filtered for r in metrics.records) >= 2, \
                    f"n={routers} seed={seed}: no attack needed two filters"


def test_criterion_5_random_grid():
    with criterion(5, "random graphs: impactful attacks neutralized; "
                      "multi-neighbor contribution raises the attack count"):
        seeds = (8, 9, 10, 11, 12)
        enough_attacks = 0
        for seed in seeds:
            cfg = ScenarioConfig(kind="random", routers=50, connectivity=0.25,
                                 seed=seed)
            metrics = run_scenario(cfg)
            assert metrics.all_impactful_neutralized
            assert metrics.end_state_safe
            _appearances_filtered_next_tick(metrics, cfg.scan_interval)
            for record in metrics.impactful:
                assert record.neutralize_time <= 2 * cfg.scan_interval
            if metrics.attack_count >= cfg.adversarial_prefixes:
                enough_attacks += 1
        assert enough_attacks >= 4, f"only {enough_attacks}/5 seeds multiplied attacks"


# -- criterion 6 ------------------------------------------------------------


def test_criterion_6_ledger_correctness():
    with criterion(6, "ledger correctness: conflicts, status flips, consensus "
                      "threshold, tamper evidence", limit_s=10.0):
        # conflict rejection leaves state untouched
        rid10, rid99 = RouterId(10), RouterId(99)
        profiler = gateway_for(CostModel(0, 0, 0, 4), [rid10, rid99])
        ledger = profiler.ledger
        prefix = Prefix.parse("10.0.0.0/24")
        add(profiler, rid10, prefix)
        length, version = ledger.chain_length, ledger.world_state.version
        result = add(profiler, rid99, prefix)
        assert isinstance(result, Denial) and result.reason == "conflict"
        assert (ledger.chain_length, ledger.world_state.version) == (length, version)

        # withdrawal/re-announcement flips the status bit, never adds a key
        cred = profiler.profiles[rid10]
        keys = set(ledger.world_state.records)
        ledger.submit_status_update(str(prefix), 10, False, cred)
        assert set(ledger.world_state.records) == keys
        assert ledger.world_state.get(str(prefix)).active is False
        ledger.submit_status_update(str(prefix), 10, True, cred)
        assert set(ledger.world_state.records) == keys
        assert ledger.world_state.get(str(prefix)).active is True

        # consensus threshold, exhaustively for 1..9 members
        for n in range(1, 10):
            threshold = math.ceil(n / 2)
            for pattern in itertools.product([True, False], repeat=n):
                lgr = ConsortiumLedger(cost_model=CostModel(0, 0, 0, n))
                admin = lgr.enroll_admin("a")
                c = lgr.register_router(RouterId(5), admin)
                for member, vote in zip(lgr.members, pattern):
                    member.endorse = (lambda tx, v=vote: v)
                outcome = lgr.submit_authorization("198.51.100.0/24", 5, c)
                committed = isinstance(outcome, CommitResult)
                assert committed == (sum(pattern) >= threshold)
                if not committed:
                    assert lgr.chain_length == 1

        # every tampered block is caught at its exact index, 100-block fuzz
        lgr = ConsortiumLedger(cost_model=CostModel(0, 0, 0, 2))
        admin = lgr.enroll_admin("a")
        c = lgr.register_router(RouterId(5), admin)
        for i in range(100):
            assert isinstance(lgr.submit_authorization(f"10.0.{i}.0/24", 5, c),
                              CommitResult)
        rng = random.Random(606)
        for index in range(1, 101):
            block = lgr.blocks[index]
            tx = block.transactions[0]
            record = tx.record
            tampers = [
                replace(tx, record=replace(record, asn=record.asn + 1)),
                replace(tx, record=replace(record, active=not record.active)),
                replace(tx, record=replace(record,
                                           prefix=record.prefix.replace("10.", "11.", 1))),
                replace(tx, submitter=tx.submitter + "x"),
                replace(tx, submitted_at=tx.submitted_at + 1.0),
            ]
            block.transactions[0] = rng.choice(tampers)
            assert lgr.verify_chain() == index
            block.transactions[0] = tx
            assert lgr.verify_chain() is None


# -- criterion 7 ------------------------------------------------------------


def test_criterion_7_signal_semantics():
    with criterion(7, "valid/invalid/unknown semantics, unknown accepted "
                      "by the dispatcher", limit_s=1.0):
        rid10 = RouterId(10)
        profiler = gateway_for(CostModel(0, 0, 0, 2), [rid10])
        owned = Prefix.parse("10.0.0.0/24")
        absent = Prefix.parse("192.168.5.0/24")
        add(profiler, rid10, owned)
        cred = profiler.profiles[rid10]
        truth = {
            (owned, 10, True): VerificationSignal.VALID,
            (owned, 99, True): VerificationSignal.INVALID,
            (absent, 7, True): VerificationSignal.UNKNOWN,
            (owned, 10, False): VerificationSignal.UNKNOWN,
            (owned, 99, False): VerificationSignal.UNKNOWN,
            (absent, 7, False): VerificationSignal.UNKNOWN,
        }
        for (prefix, asn, active), expected in truth.items():
            profiler.ledger.submit_status_update(str(owned), 10, active, cred)
            assert verify(profiler, rid10, prefix, asn).signal is expected, \
                (str(prefix), asn, active)

        # a non-participant announcement is tolerated: the conservative approach
        home, peer = RouterId(101), RouterId(102)
        sim = Simulation()
        sim.add_router(home)
        sim.add_router(peer)
        sim.add_link(home, peer, 0.1)
        gateway = gateway_for(CostModel(0, 0, 0, 2), [home])
        agent = Dispatcher(sim, gateway, home)
        sim.originate_prefix(peer, absent, 0.0)
        sim.run_until(60.0)
        rov_var = scan(sim.snapshot_table(home), 101)[1]
        results = agent.verifier_sync(rov_var, 60.0, DispatcherReport(60.0, str(home)))
        assert results[0][1] is VerificationSignal.UNKNOWN
        assert results[0][2] == ACCEPT
        assert agent._filters_sent == set()


# -- criterion 8 ------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "repeated CLI invocations are byte-identical"):
        # fresh processes with different hash seeds: the strongest form
        outputs = []
        for tag, hashseed in (("x", "0"), ("y", "31337")):
            csv_path = tmp_path / f"{tag}.csv"
            ledger_path = tmp_path / f"{tag}-ledger.json"
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "blockjack.cli", "run",
                 "--scenario", "random", "--routers", "40", "--seed", "9",
                 "--out", str(csv_path), "--dump-ledger", str(ledger_path),
                 "--quiet"],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((csv_path.read_bytes(), ledger_path.read_bytes()))
        assert outputs[0] == outputs[1]

        reruns = []
        for tag in ("p", "q"):
            csv_path = tmp_path / f"{tag}.csv"
            code = cli_main(["run", "--scenario", "multi", "--routers", "20",
                             "--seed", "2", "--out", str(csv_path), "--quiet"])
            assert code == 0
            reruns.append(csv_path.read_bytes())
        assert reruns[0] == reruns[1]


# -- criterion 9 ------------------------------------------------------------


def test_criterion_9_best_path_oracle():
    with criterion(9, "best-path selection matches the brute-force sort",
                   limit_s=1.0):
        rng = random.Random(909)
        prefix = Prefix.parse("10.0.0.0/24")
        for _ in range(1000):
            hops = rng.sample(range(200, 280), rng.randint(1, 8))
            routes = [Route(prefix=prefix, next_hop=RouterId(h),
                            as_path=tuple(rng.sample(range(500, 900),
                                                     rng.randint(1, 5))),
                            local_pref=rng.choice([50, 100, 200]),
                            med=rng.randint(0, 3),
                            weight=rng.choice([0, 0, 10]))
                      for h in hops]
            expected = sorted(
                routes,
                key=lambda r: (-r.weight, -r.local_pref, len(r.as_path),
                               r.med, r.next_hop, r.as_path))[0]
            shuffled = routes[:]
            rng.shuffle(shuffled)
            assert select_best(shuffled) is expected
