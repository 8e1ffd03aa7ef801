"""Command line entry point: `blockjack run ...`."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (
    ScenarioConfig,
    ScenarioError,
    run_scenario,
    write_json,
    write_metrics,
    write_summary,
)
from .ledger import CALIBRATED_COST
from .topology import DEFAULT_CONNECTIVITY, DEFAULT_CONNECTIVITY_AT, TopologyError

SCENARIO_NAMES = {"single": "single_path", "multi": "multi_path",
                  "random": "random"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockjack",
        description="Simulate ledger-backed BGP prefix-hijack neutralization.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one attack scenario")
    run.add_argument("--scenario", required=True,
                     choices=sorted(SCENARIO_NAMES),
                     help="single (tree), multi (peered tree), or random")
    run.add_argument("--routers", type=int, default=ScenarioConfig.routers)
    by_size = "; ".join(f"{value} at {routers} routers"
                        for routers, value in DEFAULT_CONNECTIVITY_AT.items())
    run.add_argument("--connectivity", type=float, default=None,
                     help="edge probability for random scenarios "
                          f"(default {DEFAULT_CONNECTIVITY}; {by_size})")
    run.add_argument("--attacks", type=int,
                     default=ScenarioConfig.adversarial_prefixes,
                     help="number of adversarial prefixes")
    run.add_argument("--seed", type=int, default=ScenarioConfig.seed)
    run.add_argument("--duration", type=float, default=ScenarioConfig.duration,
                     help="simulated seconds")
    run.add_argument("--mari", type=float, default=ScenarioConfig.mari,
                     help="route advertisement interval, simulated seconds")
    run.add_argument("--scan-interval", type=float,
                     default=ScenarioConfig.scan_interval,
                     help="dispatcher scan period, simulated seconds")
    run.add_argument("--attack-at", type=float, default=None,
                     help="injection time (default: mid-run)")
    run.add_argument("--members", type=int, default=CALIBRATED_COST.member_count,
                     help="consortium size")
    run.add_argument("--out", required=True, help="metrics CSV path")
    run.add_argument("--summary", help="summary JSON path")
    run.add_argument("--dump-ledger", help="ledger dump JSON path")
    run.add_argument("--topology-out", help="topology JSON path")
    run.add_argument("--reports-out", help="dispatcher report JSON-lines path")
    run.add_argument("--quiet", action="store_true")
    return parser


def cmd_run(args) -> int:
    if args.members < 1:
        raise ScenarioError(f"need at least 1 consortium member, got {args.members}")
    model = replace(CALIBRATED_COST, member_count=args.members)
    cfg = ScenarioConfig(
        kind=SCENARIO_NAMES[args.scenario],
        routers=args.routers,
        connectivity=args.connectivity,
        adversarial_prefixes=args.attacks,
        seed=args.seed,
        duration=args.duration,
        mari=args.mari,
        scan_interval=args.scan_interval,
        attack_at=args.attack_at,
        cost_model=model,
    )
    metrics = run_scenario(cfg)

    write_metrics([metrics], args.out)
    if args.summary:
        write_summary([metrics], args.summary)
    if args.dump_ledger:
        with open(args.dump_ledger, "w") as handle:
            handle.write(metrics.ledger.to_json())
    if args.topology_out:
        write_json(metrics.topology_doc, args.topology_out)
    if args.reports_out:
        with open(args.reports_out, "w") as handle:
            handle.write("\n".join(metrics.reports) + "\n")

    impactful = metrics.impactful
    neutralized = [r for r in impactful if r.neutralized_at is not None]
    if not args.quiet:
        print(f"{cfg.kind}: routers={cfg.routers} seed={cfg.seed} "
              f"attacks={len(metrics.records)} impactful={len(impactful)} "
              f"neutralized={len(neutralized)} "
              f"attack_count={metrics.attack_count} "
              f"end_state_safe={metrics.end_state_safe}")
        if metrics.needs_reseed:
            print("warning: no attack affected the monitored router; "
                  "re-run with a different seed")
    return 0 if metrics.all_impactful_neutralized else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return cmd_run(args)
    except (ScenarioError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
