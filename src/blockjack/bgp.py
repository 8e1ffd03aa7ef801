"""Deterministic path-vector routing simulation.

A single :class:`Simulation` owns a set of routers, the links between
them, and one event queue ordered by time, then by scheduling order
among events at the same time.  Route advertisements are batched: a
router that changes its best path queues the re-advertisement for the
next advertisement-interval boundary instead of flushing per message,
so ledger-side work can race the routing plane the way it would
against a real update interval.

The queue is bucketed by time: a heap holds each distinct event time
once, and a dict maps each time to a list of its actions in the order
they were scheduled.  An action's position in its bucket is its place
in that order, so draining the earliest bucket in list order, actions
appended to it while it drains included, runs events in time order and,
within one time, in the order they were scheduled.  A flush's
deliveries at one link delay share a time, so the heap moves once per
distinct time rather than once per event.  Actions are
``functools.partial`` objects, which are cheaper to build and to call
than closures.

Everything is single-threaded per instance; two simulations never share
state.

AS paths are validated once, where they enter: ``Route(...)`` rejects an
empty path, a loop or a bad ASN.  The plane's own adverts skip that check
because they are loop-free by construction: ``process_update`` drops any
path holding the receiver's ASN, and an advertisement only prepends the
sender's ASN, which its ``RouterId`` has already checked.

Each route carries its selection key, ``rank``, computed when the route
is built.  A route never changes once built, so one object can sit in
many tables; which route is best is recorded only in ``Router.best``.
A caller that edits a ``Route`` after constructing it bypasses the
checks and leaves ``rank`` stale, and ``process_update`` stores what it
is given.  One advertisement serves every neighbor of the sender: each
receiver stores the advert itself, unless an import ``local_pref``
override applies, in which case it stores a copy ranked by the
override; and one frozen ``UpdateMessage`` serves every neighbor at the
same link delay, since it names no receiver.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

from .types import Prefix, RouterId, check_asn

log = logging.getLogger(__name__)

DEFAULT_MARI = 30.0
DEFAULT_LINK_DELAY = 0.1
DEFAULT_LOCAL_PREF = 100

ANNOUNCE = "announce"
WITHDRAW = "withdraw"


class SimulationError(Exception):
    """Raised for contract violations against the simulation API."""


@dataclass(slots=True)
class Route:
    """One entry of a router's BGP table.

    ``as_path`` is ordered head = nearest neighbor, tail = origin AS.
    A locally originated route has ``next_hop`` equal to the owning
    router and ``as_path`` of just the owner's ASN.  ``rank`` is the
    selection key (see :func:`route_rank`), derived from the other
    fields at construction.  A route is a value: the plane never changes
    one after building it, and tables and messages share it.
    """

    prefix: Prefix
    next_hop: RouterId
    as_path: tuple[int, ...]
    local_pref: int = DEFAULT_LOCAL_PREF
    med: int = 0
    weight: int = 0
    metric: int = 0
    is_valid: bool = True
    rank: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.as_path:
            raise ValueError("as_path must not be empty")
        if len(set(self.as_path)) != len(self.as_path):
            raise ValueError(f"as_path contains a loop: {self.as_path}")
        for asn in self.as_path:
            check_asn(asn)
        self.rank = route_rank(self.weight, self.local_pref, self.as_path,
                               self.med, self.next_hop)

    @property
    def origin(self) -> int:
        """Origin AS: the tail of the AS path."""
        return self.as_path[-1]


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """An announce or withdraw in flight between two peers."""

    kind: str
    sender: RouterId
    prefix: Prefix
    delivery_time: float
    route: Optional[Route] = None

    def __post_init__(self):
        if self.kind not in (ANNOUNCE, WITHDRAW):
            raise ValueError(f"unknown update kind: {self.kind}")
        if self.kind == ANNOUNCE and self.route is None:
            raise ValueError("announce requires a route")


def route_rank(weight: int, local_pref: int, as_path: tuple[int, ...], med: int,
               next_hop: RouterId) -> tuple:
    """A route's selection key: the lower key is the more preferred route.

    The order: highest weight, then highest local_pref, then shortest AS
    path, then lowest MED, then lowest next-hop router id; the AS path
    itself makes the order total over distinct route values.
    """
    return (-weight, -local_pref, len(as_path), med, next_hop, as_path)


_new_route = object.__new__
_rank_of = attrgetter("rank")
# Every advert has weight 0 and the default local_pref, so every advert's
# rank starts with these same two objects.  Tuple comparison skips
# identical elements without comparing them, so ranking adverts against
# each other starts at the path length.
_ADVERT_RANK_HEAD = route_rank(0, DEFAULT_LOCAL_PREF, (), 0, None)[:2]


def _unchecked_route(prefix: Prefix, next_hop: RouterId, as_path: tuple[int, ...],
                     local_pref: int, med: int, weight: int, metric: int,
                     is_valid: bool, rank: tuple) -> Route:
    """A Route built without the path checks, for the plane's own adverts.

    Callers pass a loop-free path of checked ASNs; the module docstring
    says why each caller's path is one.  ``rank`` must equal
    ``route_rank`` of the other fields; a caller passes one it already
    holds instead of building an equal tuple.
    """
    route = _new_route(Route)
    route.prefix = prefix
    route.next_hop = next_hop
    route.as_path = as_path
    route.local_pref = local_pref
    route.med = med
    route.weight = weight
    route.metric = metric
    route.is_valid = is_valid
    route.rank = rank
    return route


@dataclass(frozen=True)
class FilterRule:
    """Inbound filter: drop announcements from deny_origin arriving via neighbor.

    deny_prefix is recorded for audit; matching is by (neighbor, origin).
    """

    neighbor: RouterId
    deny_origin: int
    deny_prefix: Prefix


@dataclass
class SimClock:
    """Simulated time plus the advertisement batching interval."""

    now: float = 0.0
    mari_interval: float = DEFAULT_MARI

    def next_boundary(self, t: float) -> float:
        """First advertisement boundary at or after t.

        Boundaries sit at positive multiples of the interval, so work
        queued at t=0 flushes at the end of the first interval.
        """
        k = math.ceil(t / self.mari_interval)
        return self.mari_interval * max(1, k)


def select_best(candidates: list[Route]) -> Optional[Route]:
    """Pick the unique winner among valid candidates for one prefix.

    Ranks by each route's ``rank`` (see :func:`route_rank`), built once
    when the route was.  ``min`` keeps the first of equal keys, so among
    equal values the first candidate wins, and two ``Route`` objects are
    never compared.

    Mutates nothing; the caller records the winner in ``Router.best``.
    Pure in the candidate multiset: permutation-invariant and
    idempotent. Returns None for no candidates.
    """
    if not candidates:
        return None
    return min(candidates, key=_rank_of)


class Router:
    """Per-router state: adjacency, learned routes, filters, pending adverts."""

    def __init__(self, rid: RouterId):
        self.rid = rid
        self.asn = rid.asn
        self.neighbors: dict[RouterId, float] = {}
        # learned + locally originated routes, keyed prefix -> next_hop
        self.rib: dict[Prefix, dict[RouterId, Route]] = {}
        self.best: dict[Prefix, Route] = {}
        self.filters: dict[tuple[RouterId, int], FilterRule] = {}
        self.originated: set[Prefix] = set()
        self.pending: set[Prefix] = set()
        # per-neighbor local_pref override applied on import
        self.local_pref_in: dict[RouterId, int] = {}
        self._scheduled_boundary: Optional[float] = None

    def is_local(self, route: Route) -> bool:
        return route.next_hop == self.rid

    def advertised_path(self, route: Route) -> tuple[int, ...]:
        """AS path carried in an announce of this route to a peer."""
        if self.is_local(route):
            return route.as_path
        return (self.asn,) + route.as_path


class Simulation:
    """A deterministic event-driven network of path-vector routers."""

    def __init__(self, mari: float = DEFAULT_MARI):
        if mari <= 0:
            raise ValueError("advertisement interval must be positive")
        self.clock = SimClock(0.0, mari)
        self.routers: dict[RouterId, Router] = {}
        self._queue: list[float] = []       # heap of the times in _buckets
        self._buckets: dict[float, list[Callable[[], None]]] = {}
        self._running = False
        self.events_processed = 0
        # callbacks (router_id, prefix, old_best, new_best)
        self.on_best_change: list[Callable[[RouterId, Prefix, Optional[Route], Optional[Route]], None]] = []

    # -- construction ---------------------------------------------------

    def add_router(self, rid: RouterId) -> Router:
        if rid in self.routers:
            raise SimulationError(f"duplicate router {rid}")
        router = Router(rid)
        self.routers[rid] = router
        return router

    def add_link(self, a: RouterId, b: RouterId, delay: float = DEFAULT_LINK_DELAY):
        if a == b:
            raise SimulationError("self links are not allowed")
        if not 0 <= delay < math.inf:
            raise SimulationError(f"link delay must be finite and >= 0, got {delay}")
        ra, rb = self._router(a), self._router(b)
        ra.neighbors[b] = delay
        rb.neighbors[a] = delay

    def _router(self, rid: RouterId) -> Router:
        try:
            return self.routers[rid]
        except KeyError:
            raise SimulationError(f"unknown router {rid}") from None

    # -- event queue -----------------------------------------------------

    def schedule(self, t: float, action: Callable[[], None]) -> None:
        """Queue action at time t, after everything already queued at t.

        A time before now, NaN or an infinity is refused.
        """
        if not self.clock.now <= t < math.inf:
            if t < self.clock.now:
                raise SimulationError(f"cannot schedule at {t} before now={self.clock.now}")
            raise SimulationError(f"event time must be finite, got {t}")
        self._bucket(t).append(action)

    def _bucket(self, t: float) -> list[Callable[[], None]]:
        """The actions queued at t, opening a bucket if t has none yet."""
        bucket = self._buckets.get(t)
        if bucket is None:
            bucket = self._buckets[t] = []
            heapq.heappush(self._queue, t)
        return bucket

    def run_until(self, t: float) -> int:
        """Process every event with time <= t in time, then scheduling, order.

        Returns the number processed.  An action that raises is consumed,
        the clock stays at its time, and the error propagates; the events
        after it stay queued for the next call, and the call adds nothing
        to ``events_processed``.  An action may schedule, but not run, the
        queue.  An end time before now, NaN or an infinity is refused: the
        clock would stop there, and nothing could be scheduled after it.
        """
        if not self.clock.now <= t < math.inf:
            if t < self.clock.now:
                raise SimulationError(f"time regression: {t} < {self.clock.now}")
            raise SimulationError(f"end time must be finite, got {t}")
        if self._running:
            raise SimulationError("run_until called from inside an event")
        queue, buckets, clock = self._queue, self._buckets, self.clock
        processed = 0
        self._running = True
        try:
            while queue and queue[0] <= t:
                when = clock.now = queue[0]
                bucket = buckets[when]
                done = 0
                try:
                    # the list iterator also yields actions appended while it runs
                    for done, action in enumerate(bucket, 1):
                        action()
                except BaseException:
                    del bucket[:done]
                    if not bucket:
                        heapq.heappop(queue)
                        del buckets[when]
                    raise
                heapq.heappop(queue)
                del buckets[when]
                processed += done
        finally:
            self._running = False
        clock.now = t
        self.events_processed += processed
        return processed

    # -- public routing operations ----------------------------------------

    def originate_prefix(self, rid: RouterId, prefix: Prefix, t: Optional[float] = None) -> None:
        """Originate a prefix at router rid at time t (default now)."""
        router = self._router(rid)
        t = self.clock.now if t is None else t
        if prefix in router.originated:
            raise SimulationError(f"{rid} already originates {prefix}")
        self.schedule(t, partial(self._apply_originate, router, prefix))
        router.originated.add(prefix)

    def withdraw_prefix(self, rid: RouterId, prefix: Prefix, t: Optional[float] = None) -> None:
        router = self._router(rid)
        t = self.clock.now if t is None else t
        if prefix not in router.originated:
            raise SimulationError(f"{rid} does not originate {prefix}")
        self.schedule(t, partial(self._apply_withdraw, router, prefix))
        router.originated.discard(prefix)

    def install_inbound_filter(self, rid: RouterId, rule: FilterRule) -> FilterRule:
        """Activate an inbound filter immediately; purge matching routes."""
        router = self._router(rid)
        if rule.neighbor not in router.neighbors:
            raise SimulationError(f"{rule.neighbor} is not adjacent to {rid}")
        router.filters[(rule.neighbor, rule.deny_origin)] = rule
        for prefix in sorted(router.rib):
            table = router.rib[prefix]
            route = table.get(rule.neighbor)
            if route is not None and route.origin == rule.deny_origin:
                del table[rule.neighbor]
                self._after_table_change(router, prefix)
        return rule

    def process_update(self, rid: RouterId, msg: UpdateMessage):
        """Apply one delivered update; returns the table delta or a drop reason.

        An installed announce stores ``msg.route`` itself, shared with
        every other receiver of the advert.  Only an import
        ``local_pref`` override that differs from the advert's makes a
        new ``Route``, ranked by the override.  An announce must name
        its sender as next hop: tables are keyed by sender, so no route
        object then sits twice in one table, and exactly one row is best.
        """
        router = self.routers.get(rid) or self._router(rid)
        assert msg.delivery_time == self.clock.now, "update delivered off-schedule"
        sender, prefix = msg.sender, msg.prefix
        if msg.kind == WITHDRAW:
            table = router.rib.get(prefix)
            if table is not None and sender in table:
                del table[sender]
                return ("withdrawn", self._after_table_change(router, prefix))
            return ("no-op", None)
        route = msg.route
        if route.next_hop != sender:
            raise SimulationError(f"announce from {sender} names next hop "
                                  f"{route.next_hop}")
        path = route.as_path
        if router.asn in path:
            log.debug("%s drops %s: own ASN in path %s", rid, prefix, path)
            return ("dropped-loop", None)
        if router.filters and (sender, path[-1]) in router.filters:
            log.debug("%s drops %s from %s: inbound filter", rid, prefix, sender)
            return ("dropped-filter", None)
        local_pref = router.local_pref_in.get(sender, route.local_pref)
        if local_pref != route.local_pref:
            route = replace(route, local_pref=local_pref)
        table = router.rib.get(prefix)
        if table is None:
            table = router.rib[prefix] = {}
        table[sender] = route
        return ("installed", self._after_table_change(router, prefix))

    def snapshot_table(self, rid: RouterId) -> list[dict]:
        """Stable-ordered, read-only copy of a router's table rows."""
        router = self._router(rid)
        rows = []
        for prefix, table in sorted(router.rib.items()):
            best = router.best.get(prefix)
            for _, route in sorted(table.items()):
                rows.append({
                    "prefix": route.prefix,
                    "next_hop": route.next_hop,
                    "metric": route.metric,
                    "local_pref": route.local_pref,
                    "weight": route.weight,
                    "as_path": route.as_path,
                    "is_valid": route.is_valid,
                    "is_best": route is best,
                })
        return rows

    # -- internals ---------------------------------------------------------

    def _apply_originate(self, router: Router, prefix: Prefix):
        local = Route(prefix=prefix, next_hop=router.rid, as_path=(router.asn,))
        router.rib.setdefault(prefix, {})[router.rid] = local
        self._after_table_change(router, prefix)

    def _apply_withdraw(self, router: Router, prefix: Prefix):
        table = router.rib.get(prefix, {})
        if router.rid in table:
            del table[router.rid]
        self._after_table_change(router, prefix)

    def _after_table_change(self, router: Router, prefix: Prefix):
        """Re-run selection over the router's valid routes for one prefix.

        On a change of best, queues the re-advertisement, tells the
        ``on_best_change`` listeners and returns (old, new); else None.
        """
        old = router.best.get(prefix)
        table = router.rib.get(prefix) or {}
        new = select_best([r for r in table.values() if r.is_valid])
        if new is None:
            router.best.pop(prefix, None)
            if not table:
                router.rib.pop(prefix, None)
        else:
            router.best[prefix] = new
        if new is old or new == old:
            return None
        router.pending.add(prefix)
        self._schedule_flush(router)
        for callback in self.on_best_change:
            callback(router.rid, prefix, old, new)
        return (old, new)

    def _schedule_flush(self, router: Router):
        boundary = self.clock.next_boundary(self.clock.now)
        if router._scheduled_boundary is not None and router._scheduled_boundary >= boundary:
            return
        router._scheduled_boundary = boundary
        self.schedule(boundary, partial(self._flush, router))

    def _flush(self, router: Router):
        router._scheduled_boundary = None
        pending, router.pending = sorted(router.pending), set()
        neighbors = sorted(router.neighbors.items())
        sender, now = router.rid, self.clock.now
        deliver, bucket_at = self.process_update, self._bucket
        for prefix in pending:
            best = router.best.get(prefix)
            if best is None:
                kind, advert = WITHDRAW, None
            else:
                kind = ANNOUNCE
                path = router.advertised_path(best)
                advert = _unchecked_route(
                    prefix, sender, path, DEFAULT_LOCAL_PREF, best.med, 0,
                    best.metric, True,
                    _ADVERT_RANK_HEAD + (len(path), best.med, sender, path))
            # one message per link delay, since it names no receiver; each
            # delivery is queued as schedule() would queue it
            by_delay: dict[float, tuple[UpdateMessage, list]] = {}
            for neighbor, delay in neighbors:
                entry = by_delay.get(delay)
                if entry is None:
                    msg = UpdateMessage(kind, sender, prefix, now + delay, advert)
                    entry = by_delay[delay] = (msg, bucket_at(msg.delivery_time))
                msg, bucket = entry
                bucket.append(partial(deliver, neighbor, msg))


# -- external interfaces ----------------------------------------------------


@contextmanager
def _naming(what: str):
    """Re-raise a bad input entry's error as a SimulationError naming the entry.

    A missing key reads ``routers[0] lacks 'asn'``; a wrong type or value,
    or a contract violation the entry causes, keeps its own message.
    """
    try:
        yield
    except KeyError as exc:
        raise SimulationError(f"{what} lacks {exc.args[0]!r}") from None
    except (SimulationError, TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"{what}: {exc}") from exc


def _list_of(value, name: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{name!r} is not a list")
    return value


def _integer(value, name: str) -> int:
    """An id or ASN as an int, refusing rather than truncating a bool or a
    JSON number written with a fraction or an exponent."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def load_topology(doc: dict, mari: float = DEFAULT_MARI) -> Simulation:
    """Build a simulation from the topology JSON document.

    Expected shape::

        {"routers": [{"id": 0, "asn": 64512}, ...],
         "links": [{"a": 0, "b": 1, "delay_s": 0.1}, ...],
         "peering": [{"router": "64512.0", "neighbor": "64513.1",
                      "local_pref": 200}, ...]}   # optional

    Router ids in "links"/"peering" refer to the integer "id" field, so
    a router written ``"id": "007"`` is named ``7``; the full wire form
    ``asn.index`` is also accepted, and is required for an index that
    more than one router has.  An "id", "asn" or "local_pref" that is a
    bool or a non-integral number, a second link between the same two
    routers in either orientation, and a peering between routers that
    are not linked are refused.  Raises SimulationError naming the first
    bad entry, e.g. ``links[2]``.
    """
    with _naming("topology"):
        routers = _list_of(doc["routers"], "routers")
        links = _list_of(doc.get("links") or [], "links")
        peering = _list_of(doc.get("peering") or [], "peering")
    sim = Simulation(mari=mari)
    by_label: dict[str, RouterId] = {}
    shared: set[str] = set()   # bare indexes that more than one router has
    for i, entry in enumerate(routers):
        with _naming(f"routers[{i}]"):
            rid = RouterId(check_asn(_integer(entry["asn"], "asn")),
                           _integer(entry["id"], "id"))
            sim.add_router(rid)
            if str(rid.index) in by_label:
                shared.add(str(rid.index))
            by_label[str(rid.index)] = rid
            by_label[str(rid)] = rid

    def resolve(label) -> RouterId:
        key = str(label)
        if key not in by_label:
            raise SimulationError(f"unknown router reference {label!r}")
        if key in shared:
            names = " and ".join(str(rid) for rid in sim.routers if str(rid.index) == key)
            raise SimulationError(f"ambiguous router reference {label!r}: {names} "
                                  f"share that index; write it as asn.index")
        return by_label[key]

    for i, link in enumerate(links):
        with _naming(f"links[{i}]"):
            a, b = resolve(link["a"]), resolve(link["b"])
            if b in sim.routers[a].neighbors:
                raise SimulationError(f"duplicate link between {a} and {b}")
            sim.add_link(a, b, float(link.get("delay_s", DEFAULT_LINK_DELAY)))
    for i, override in enumerate(peering):
        with _naming(f"peering[{i}]"):
            router = sim.routers[resolve(override["router"])]
            neighbor = resolve(override["neighbor"])
            if neighbor not in router.neighbors:
                raise SimulationError(f"{neighbor} is not adjacent to {router.rid}")
            router.local_pref_in[neighbor] = _integer(override["local_pref"], "local_pref")
    return sim


def dump_topology(sim: Simulation) -> dict:
    """Topology document for the current simulation (links deduplicated)."""
    routers = [{"id": rid.index, "asn": rid.asn} for rid in sorted(sim.routers)]
    links = []
    seen = set()
    for rid in sorted(sim.routers):
        for neighbor, delay in sorted(sim.routers[rid].neighbors.items()):
            key = tuple(sorted((rid, neighbor)))
            if key in seen:
                continue
            seen.add(key)
            links.append({"a": rid.index, "b": neighbor.index, "delay_s": delay})
    return {"routers": routers, "links": links}


def apply_event_script(sim: Simulation, events: list):
    """Schedule a JSON event script: a list of {t, op, args} entries.

    Supported ops: originate, withdraw, install_filter.  Every entry is
    parsed and checked, against the origins the entries before it leave,
    before any is scheduled: a bad entry raises SimulationError naming
    it, e.g. ``events[3]``, and leaves the simulation as it was.
    """
    with _naming("script"):
        events = _list_of(events, "events")
    plan = []
    originated: dict[RouterId, set[Prefix]] = {}   # as the script leaves them
    for i, event in enumerate(events):
        with _naming(f"events[{i}]"):
            t = float(event["t"])
            if not math.isfinite(t):
                raise ValueError(f"t must be finite, got {t}")
            if t < sim.clock.now:
                raise SimulationError(f"cannot schedule at {t} before now={sim.clock.now}")
            op = event["op"]
            if op not in ("originate", "withdraw", "install_filter"):
                raise SimulationError(f"unknown script op: {op}")
            args = event.get("args", {})
            rid = RouterId.parse(args["router"])
            router = sim._router(rid)
            if op == "install_filter":
                rule = FilterRule(neighbor=RouterId.parse(args["neighbor"]),
                                  deny_origin=check_asn(int(args["deny_origin"])),
                                  deny_prefix=Prefix.parse(args["deny_prefix"]))
                if rule.neighbor not in router.neighbors:
                    raise SimulationError(f"{rule.neighbor} is not adjacent to {rid}")
                plan.append(partial(sim.schedule, t,
                                    partial(sim.install_inbound_filter, rid, rule)))
                continue
            prefix = Prefix.parse(args["prefix"])
            if rid not in originated:
                originated[rid] = set(router.originated)
            held = originated[rid]
            if op == "originate":
                if prefix in held:
                    raise SimulationError(f"{rid} already originates {prefix}")
                held.add(prefix)
                plan.append(partial(sim.originate_prefix, rid, prefix, t))
            else:
                if prefix not in held:
                    raise SimulationError(f"{rid} does not originate {prefix}")
                held.discard(prefix)
                plan.append(partial(sim.withdraw_prefix, rid, prefix, t))
    for schedule in plan:
        schedule()


def snapshot_jsonable(rows: list[dict]) -> list[dict]:
    """Snapshot rows with identifier types rendered as strings/lists."""
    out = []
    for row in rows:
        out.append({
            "prefix": str(row["prefix"]),
            "next_hop": str(row["next_hop"]),
            "metric": row["metric"],
            "local_pref": row["local_pref"],
            "weight": row["weight"],
            "as_path": list(row["as_path"]),
            "is_valid": row["is_valid"],
            "is_best": row["is_best"],
        })
    return out


def snapshot_json(sim: Simulation, rid: RouterId) -> str:
    return json.dumps(snapshot_jsonable(sim.snapshot_table(rid)), sort_keys=True)
