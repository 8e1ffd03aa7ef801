"""BlockJack: ledger-backed prefix ownership and hijack neutralization, simulated."""

from .bgp import (
    FilterRule,
    Route,
    SimClock,
    Simulation,
    UpdateMessage,
    select_best,
)
from .dispatcher import Dispatcher, OriginEntry, scan
from .harness import (
    AttackRecord,
    ScenarioConfig,
    ScenarioMetrics,
    inject_attack,
    run_scenario,
    summarize,
    write_metrics,
    write_summary,
)
from .ledger import (
    CALIBRATED_COST,
    ConsortiumLedger,
    CostModel,
    Credential,
    LedgerRecord,
    VerificationSignal,
    estimate_authorization_cost,
)
from .profiler import GatewayRequest, Profiler
from .topology import gen_topology
from .types import Prefix, RouterId, check_asn

__version__ = "0.1.0"

__all__ = [
    "AttackRecord",
    "CALIBRATED_COST",
    "ConsortiumLedger",
    "CostModel",
    "Credential",
    "Dispatcher",
    "FilterRule",
    "GatewayRequest",
    "LedgerRecord",
    "OriginEntry",
    "Prefix",
    "Profiler",
    "Route",
    "RouterId",
    "ScenarioConfig",
    "ScenarioMetrics",
    "SimClock",
    "Simulation",
    "UpdateMessage",
    "VerificationSignal",
    "check_asn",
    "estimate_authorization_cost",
    "gen_topology",
    "inject_attack",
    "run_scenario",
    "scan",
    "select_best",
    "summarize",
    "write_metrics",
    "write_summary",
    "__version__",
]
