"""Deterministic path-vector routing simulation.

A single :class:`Simulation` owns a set of routers, the links between
them, and one event queue ordered by time, then by scheduling order
among events at the same time.  Route advertisements are batched: a
router that changes its best path queues the re-advertisement for the
next advertisement-interval boundary instead of flushing per message,
so ledger-side work can race the routing plane the way it would
against a real update interval.  A router has at most one queued
flush, queued when its pending set goes from empty to non-empty.

The queue is bucketed by time: a heap holds each distinct event time
once, and a dict maps each time to a list of its actions in the order
they were scheduled.  An action's position in its bucket is its place
in that order, so draining the earliest bucket in list order, actions
appended to it while it drains included, runs events in time order and,
within one time, in the order they were scheduled.  A flush builds one
message per pending prefix and queues one action per delivery time, all
sharing that message list; an action calls ``process_update`` for each
message in prefix order and, per message, each receiver at its time in
router id order.  Each delivery still counts as one event.  The heap
moves once per distinct time and the bucket grows once per (flush,
time) rather than once per delivery.  Actions are
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
is built: one non-negative int that packs weight, local_pref, path
length, MED and next hop as 32-bit fields, so best-path selection
compares ints (see :func:`route_rank`).  The packing is exact because
each field is bounded where it enters: ``Route(...)`` refuses a weight,
local_pref or MED outside 0..2**32-1 and a next hop that is not a
``RouterId``, which refuses an ASN or index outside that range, and a
path of distinct ASNs is no longer than that.  The path itself is not
in the key, so two routes through the same next hop that tie on the
other fields rank equal and the first one seen wins; a table holds one
route per next hop, so that never happens within one.

Most tables hold one route (on a tree nearly all do), and a one-entry
dict costs more memory than the route it holds.  So ``Router.rib`` maps a prefix
with one route to that ``Route`` itself, and only a prefix with two or
more to a ``{next_hop: route}`` dict; no prefix holds an empty or
one-entry dict.  ``Router._install`` and ``Router._remove`` are the
writes that keep that shape, and ``Router.table`` reads either shape as
a new dict.

A route never changes once built, so one object can sit in many tables;
which route is best is recorded only in ``Router.best``.  A caller that
edits a ``Route`` after constructing it bypasses the checks and leaves
``rank`` stale, and ``process_update`` stores what it is given.  One
advertisement serves every neighbor of the sender: each receiver stores
the advert itself, unless an import ``local_pref`` override applies, in
which case it stores a copy ranked by the override; and one frozen
``UpdateMessage`` serves every neighbor, since it names neither a
receiver nor a delivery time.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Collection, Optional

from .types import MAX_U32, Prefix, RouterId, check_asn, check_u32, integer, number

DEFAULT_MARI = 30.0
DEFAULT_LINK_DELAY = 0.1
DEFAULT_LOCAL_PREF = 100


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
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.next_hop, RouterId):
            raise TypeError(f"next_hop must be a RouterId, got {self.next_hop!r}")
        check_u32(self.weight, "weight")
        check_u32(self.local_pref, "local_pref")
        check_u32(self.med, "med")
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
    """An update from ``sender`` to any neighbor at any time: an announce of
    ``route``, or a withdrawal of the prefix when ``route`` is None."""

    sender: RouterId
    prefix: Prefix
    route: Optional[Route] = None


def route_rank(weight: int, local_pref: int, as_path: tuple[int, ...], med: int,
               next_hop: RouterId) -> int:
    """A route's selection key: the lower key is the more preferred route.

    The order: highest weight, then highest local_pref, then shortest AS
    path, then lowest MED, then lowest next-hop router id.  The key packs
    six 32-bit fields into one int, most significant first:
    ``2**32-1-weight``, ``2**32-1-local_pref``, ``len(as_path)``, ``med``,
    ``next_hop.asn`` and ``next_hop.index``.  Each field must lie in
    0..2**32-1, as ``Route`` and ``RouterId`` check, so comparing two keys
    compares those six-field tuples exactly.  The AS path itself is not
    in the key: two routes through one next hop that tie on the first
    four fields rank equal.
    """
    asn, index = next_hop
    return ((MAX_U32 - weight) << 160 | (MAX_U32 - local_pref) << 128
            | len(as_path) << 96 | med << 64 | asn << 32 | index)


_new_route = object.__new__
_rank_of = attrgetter("rank")
# Every advert has weight 0 and the default local_pref, so its rank is
# this head with its path length, MED and sender added in.
_ADVERT_RANK_HEAD = route_rank(0, DEFAULT_LOCAL_PREF, (), 0, (0, 0))


def _unchecked_route(prefix: Prefix, next_hop: RouterId, as_path: tuple[int, ...],
                     local_pref: int, med: int, weight: int, metric: int,
                     is_valid: bool, rank: int) -> Route:
    """A Route built without the path checks, for the plane's own adverts.

    Callers pass a loop-free path of checked ASNs; the module docstring
    says why each caller's path is one.  ``rank`` must equal
    ``route_rank`` of the other fields, which must be in its ranges; a
    caller builds it from a constant head it already holds.
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
        queued at t=0 flushes at the end of the first interval.  ``t / m``
        can round down to a whole number k with ``m * k < t``, so such a
        k moves on to the next boundary.
        """
        m = self.mari_interval
        k = max(1, math.ceil(t / m))
        boundary = m * k
        return boundary if boundary >= t else m * (k + 1)


def select_best(candidates: Collection[Route]) -> Optional[Route]:
    """Pick the unique winner among the valid candidates for one prefix.

    Ranks by each route's ``rank``, the int key :func:`route_rank` built
    once when the route was, so ``min`` compares ints.  ``candidates`` may
    be any collection that can be iterated twice, such as a table's
    ``dict.values()``, so a caller need not copy its table: the minimum
    over all candidates is taken first, and only when that winner is
    invalid is the minimum over the valid ones taken.  Both give the same
    winner, since a valid overall minimum is also the minimum of the
    valid candidates.  ``min`` keeps the first of equal keys, so among
    equal keys the first candidate wins: equal values, or two routes
    through the same next hop with equal weight, local_pref, path length
    and MED but different paths.  Two ``Route`` objects are never
    compared.

    Mutates nothing; the caller records the winner in ``Router.best``.
    Pure in the candidate multiset: permutation-invariant and
    idempotent.  Returns None when no candidate is valid.
    """
    if not candidates:
        return None
    best = min(candidates, key=_rank_of)
    if best.is_valid:
        return best
    return min((route for route in candidates if route.is_valid), key=_rank_of,
               default=None)


class Router:
    """Per-router state: adjacency, learned routes, filters, pending adverts."""

    def __init__(self, rid: RouterId):
        self.rid = rid
        self.asn = rid.asn
        self.neighbors: dict[RouterId, float] = {}
        # learned + locally originated routes: a prefix's one route itself,
        # or {next_hop: route} for a prefix with two or more
        self.rib: dict[Prefix, Route | dict[RouterId, Route]] = {}
        self.best: dict[Prefix, Route] = {}
        self.filters: dict[tuple[RouterId, int], FilterRule] = {}
        self.originated: set[Prefix] = set()
        self.pending: set[Prefix] = set()
        # per-neighbor local_pref override applied on import
        self.local_pref_in: dict[RouterId, int] = {}
        # snapshot rows of rib and best, shared read-only with every
        # snapshot_table caller; a change to either drops the list, never edits it
        self._rows: Optional[list[dict]] = None

    def table(self, prefix: Prefix) -> dict[RouterId, Route]:
        """A new ``{next_hop: route}`` dict of the prefix's routes, empty
        for a prefix with none."""
        held = self.rib.get(prefix)
        if held is None:
            return {}
        if type(held) is dict:
            return dict(held)
        return {held.next_hop: held}

    def _install(self, route: Route) -> None:
        """Store route in its prefix's table, replacing its next hop's route."""
        rib, prefix, hop = self.rib, route.prefix, route.next_hop
        held = rib.get(prefix)
        if type(held) is dict:
            held[hop] = route
        elif held is None or held.next_hop == hop:
            rib[prefix] = route
        else:
            rib[prefix] = {held.next_hop: held, hop: route}

    def _remove(self, prefix: Prefix, hop: RouterId) -> bool:
        """Delete hop's route from the prefix's table; False if it holds none.

        A table left with one route holds it bare, and an emptied one
        leaves ``rib``.
        """
        rib = self.rib
        held = rib.get(prefix)
        if type(held) is dict:
            if held.pop(hop, None) is None:
                return False
            if len(held) == 1:
                rib[prefix] = next(iter(held.values()))
            return True
        if held is None or held.next_hop != hop:
            return False
        del rib[prefix]
        return True

    def advertised_path(self, route: Route) -> tuple[int, ...]:
        """AS path carried in an announce of this route to a peer."""
        if route.next_hop == self.rid:
            return route.as_path
        return (self.asn,) + route.as_path


class Simulation:
    """A deterministic event-driven network of path-vector routers."""

    def __init__(self, mari: float = DEFAULT_MARI):
        if not 0 < mari < math.inf:
            raise ValueError(f"advertisement interval must be positive and finite, "
                             f"got {mari}")
        self.clock = SimClock(0.0, mari)
        self.routers: dict[RouterId, Router] = {}
        self._queue: list[float] = []       # heap of the times in _buckets
        self._buckets: dict[float, list[Callable[[], None]]] = {}
        self._running = False
        self.events_processed = 0
        # deliveries run by _deliver beyond the one event run_until counts
        # per action, and the deliveries a raising one left undone
        self._extra_events = 0
        self._unsent: list[Callable[[], None]] = []
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
        """Link a and b both ways.  Refuses, changing nothing: a self link, a
        delay not finite and >= 0, an unknown router, a second a-b link either way."""
        if a == b:
            raise SimulationError("self links are not allowed")
        if not 0 <= delay < math.inf:
            raise SimulationError(f"link delay must be finite and >= 0, got {delay}")
        try:
            ra, rb = self.routers[a], self.routers[b]
        except KeyError as exc:
            raise SimulationError(f"unknown router {exc.args[0]}") from None
        if b in ra.neighbors:
            raise SimulationError(f"duplicate link between {a} and {b}")
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

        Returns the number processed.  Each delivery of an update is one
        event, also where one queued action delivers a flush's messages to
        several receivers.  An event that raises is consumed, the clock
        stays at its time, and the error propagates; the events after it,
        the rest of its flush's deliveries first, stay queued for the next
        call, and the call adds nothing to ``events_processed``.  An
        action may schedule, but not run, the queue.  An end time before
        now, NaN or an infinity is refused: the clock would stop there,
        and nothing could be scheduled after it.
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
        self._extra_events = 0
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
                    bucket[:done] = self._unsent
                    self._unsent = []
                    if not bucket:
                        heapq.heappop(queue)
                        del buckets[when]
                    raise
                heapq.heappop(queue)
                del buckets[when]
                processed += done
        finally:
            self._running = False
        processed += self._extra_events
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
        neighbor = rule.neighbor
        for prefix in sorted(router.rib):
            held = router.rib[prefix]
            route = (held.get(neighbor) if type(held) is dict
                     else held if held.next_hop == neighbor else None)
            if route is not None and route.origin == rule.deny_origin:
                router._remove(prefix, neighbor)
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
        Its route must be for the message's prefix, the table it lands in.
        """
        router = self.routers.get(rid) or self._router(rid)
        sender, prefix, route = msg.sender, msg.prefix, msg.route
        if route is None:
            if router._remove(prefix, sender):
                return ("withdrawn", self._after_table_change(router, prefix))
            return ("no-op", None)
        if route.next_hop != sender:
            raise SimulationError(f"announce from {sender} names next hop "
                                  f"{route.next_hop}")
        if route.prefix != prefix:
            raise SimulationError(f"announce from {sender} for {prefix} carries "
                                  f"a route for {route.prefix}")
        path = route.as_path
        if router.asn in path:
            return ("dropped-loop", None)
        if router.filters and (sender, path[-1]) in router.filters:
            return ("dropped-filter", None)
        if router.local_pref_in:
            local_pref = router.local_pref_in.get(sender, route.local_pref)
            if local_pref != route.local_pref:
                route = replace(route, local_pref=local_pref)
        table = router.rib.get(prefix)
        if type(table) is dict:   # inline: the common case on a meshed network
            table[sender] = route
        else:
            router._install(route)
        return ("installed", self._after_table_change(router, prefix))

    def snapshot_table(self, rid: RouterId) -> list[dict]:
        """A router's table rows in stable order, shared and read-only.

        The rows are built once per table change and kept on the router.
        Every call until the next change returns that same list; the next
        change replaces the list and never edits it, so a list a caller
        holds keeps the table as it was.  Callers must not edit the list
        or its rows.  A caller that edits ``Router.rib`` or
        ``Router.best`` directly, instead of through the simulation's
        operations, bypasses the cache and reads stale rows.
        """
        router = self._router(rid)
        rows = router._rows
        if rows is None:
            rows = router._rows = []
            for prefix, held in sorted(router.rib.items()):
                best = router.best.get(prefix)
                for route in ([held[hop] for hop in sorted(held)] if type(held) is dict
                              else (held,)):
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
        router._install(Route(prefix=prefix, next_hop=router.rid, as_path=(router.asn,)))
        self._after_table_change(router, prefix)

    def _apply_withdraw(self, router: Router, prefix: Prefix):
        router._remove(prefix, router.rid)
        self._after_table_change(router, prefix)

    def _after_table_change(self, router: Router, prefix: Prefix):
        """Re-run selection over the router's table for one prefix.

        A table dict's ``values()`` view, a bare route as a 1-tuple, or
        ``()`` for a prefix left with no route goes to :func:`select_best`,
        which skips invalid routes itself, so a selection copies no route
        list and ranks every route the prefix holds.  Every change to a router's ``rib`` or ``best``
        ends here, so this is where its cached snapshot rows are dropped.
        On a change of best, adds the prefix to ``pending``, queueing a flush if
        it was empty, tells ``on_best_change`` and returns (old, new); else None.
        """
        router._rows = None
        old = router.best.get(prefix)
        held = router.rib.get(prefix)
        if type(held) is dict:
            new = select_best(held.values())
        else:
            new = select_best(() if held is None else (held,))
        if new is None:
            router.best.pop(prefix, None)
        elif new is old:
            return None
        else:
            router.best[prefix] = new
        if new == old:
            return None
        if not router.pending:
            self.schedule(self.clock.next_boundary(self.clock.now),
                          partial(self._flush, router))
        router.pending.add(prefix)
        for callback in self.on_best_change:
            callback(router.rid, prefix, old, new)
        return (old, new)

    def _flush(self, router: Router):
        if not router.pending:
            return   # nothing to send; an empty batch would count -1 extra events
        pending, router.pending = sorted(router.pending), set()
        sender, now = router.rid, self.clock.now
        head = _ADVERT_RANK_HEAD | sender.asn << 32 | sender.index
        msgs = []
        for prefix in pending:
            best = router.best.get(prefix)
            if best is None:
                advert = None
            else:
                path = router.advertised_path(best)
                advert = _unchecked_route(
                    prefix, sender, path, DEFAULT_LOCAL_PREF, best.med, 0,
                    best.metric, True, head | len(path) << 96 | best.med << 64)
            msgs.append(UpdateMessage(sender, prefix, advert))
        # the neighbors grouped by delivery time, each in router id order; one
        # action per group delivers the one message list, as schedule() would
        groups: dict[float, list[RouterId]] = {}
        for neighbor, delay in sorted(router.neighbors.items()):
            groups.setdefault(now + delay, []).append(neighbor)
        for when, group in groups.items():
            self._bucket(when).append(partial(self._deliver, group, msgs))

    def _deliver(self, receivers: list[RouterId], msgs: list[UpdateMessage]) -> None:
        """Deliver each message in order to each receiver in order, one event
        per delivery.

        If a delivery raises, the rest of that message's receivers, then the
        later messages, are left in ``_unsent`` as actions, which
        ``run_until`` queues again at the head of the bucket.
        """
        process_update = self.process_update
        try:
            for msg in msgs:
                for receiver in receivers:
                    process_update(receiver, msg)
        except BaseException:
            rest = receivers[receivers.index(receiver) + 1:]
            later = msgs[msgs.index(msg) + 1:]
            self._unsent = [partial(self._deliver, group, batch)
                            for group, batch in ((rest, [msg]), (receivers, later))
                            if group and batch]
            raise
        self._extra_events += len(receivers) * len(msgs) - 1


# -- external interfaces ----------------------------------------------------


# the errors a bad input entry raises, which _raise_named renames
_ENTRY_ERRORS = (KeyError, SimulationError, TypeError, ValueError, OverflowError)


def _raise_named(what: str, exc: Exception):
    """Re-raise a bad input entry's error as a SimulationError naming the entry.

    A missing key reads ``routers[0] lacks 'asn'``; a wrong type or value,
    or a contract violation the entry causes, keeps its own message.
    """
    if isinstance(exc, KeyError):
        raise SimulationError(f"{what} lacks {exc.args[0]!r}") from None
    raise SimulationError(f"{what}: {exc}") from exc


def _list_of(value, name: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{name!r} is not a list")
    return value


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
    more than one router has.  "links" and "peering" may be left out,
    but when present must be lists.  An "id", "asn" or "local_pref"
    that is a bool or a non-integral number, a "delay_s" that is not a
    finite JSON number, a router reference that is a bool or a float, a
    second link between the same two routers in either orientation, and
    a peering between routers that are not linked are refused.  Raises
    SimulationError naming the first bad entry, e.g. ``links[2]``.
    """
    try:
        routers = _list_of(doc["routers"], "routers")
        links = _list_of(doc.get("links", []), "links")
        peering = _list_of(doc.get("peering", []), "peering")
    except _ENTRY_ERRORS as exc:
        _raise_named("topology", exc)
    sim = Simulation(mari=mari)
    by_label: dict[str, RouterId] = {}
    shared: set[str] = set()   # bare indexes that more than one router has
    # one try per list, not per entry; i names the entry that failed
    try:
        for i, entry in enumerate(routers):
            rid = RouterId(integer(entry["asn"], "asn"), integer(entry["id"], "id"))
            sim.add_router(rid)
            if str(rid.index) in by_label:
                shared.add(str(rid.index))
            by_label[str(rid.index)] = rid
            by_label[str(rid)] = rid
    except _ENTRY_ERRORS as exc:
        _raise_named(f"routers[{i}]", exc)

    def resolve(label) -> RouterId:
        if isinstance(label, (bool, float)):
            raise ValueError(f"router reference must be an integer or asn.index, "
                             f"got {label!r}")
        key = str(label)
        if key not in by_label:
            raise SimulationError(f"unknown router reference {label!r}")
        if key in shared:
            names = " and ".join(str(rid) for rid in sim.routers if str(rid.index) == key)
            raise SimulationError(f"ambiguous router reference {label!r}: {names} "
                                  f"share that index; write it as asn.index")
        return by_label[key]

    try:
        for i, link in enumerate(links):
            a, b = resolve(link["a"]), resolve(link["b"])
            sim.add_link(a, b, number(link.get("delay_s", DEFAULT_LINK_DELAY), "delay_s"))
    except _ENTRY_ERRORS as exc:
        _raise_named(f"links[{i}]", exc)
    try:
        for i, override in enumerate(peering):
            router = sim.routers[resolve(override["router"])]
            neighbor = resolve(override["neighbor"])
            if neighbor not in router.neighbors:
                raise SimulationError(f"{neighbor} is not adjacent to {router.rid}")
            router.local_pref_in[neighbor] = check_u32(
                integer(override["local_pref"], "local_pref"), "local_pref")
    except _ENTRY_ERRORS as exc:
        _raise_named(f"peering[{i}]", exc)
    return sim


def apply_event_script(sim: Simulation, events: list):
    """Schedule a JSON event script: a list of {t, op, args} entries.

    Supported ops: originate, withdraw, install_filter.  ``t`` must be a
    finite JSON number, not a bool or a string; a router or prefix must
    be text, and ``deny_origin`` an integer.  Every entry is
    parsed and checked, against the origins the entries before it leave,
    before any is scheduled: a bad entry raises SimulationError naming
    it, e.g. ``events[3]``, and leaves the simulation as it was.
    """
    try:
        events = _list_of(events, "events")
    except _ENTRY_ERRORS as exc:
        _raise_named("script", exc)
    plan = []
    originated: dict[RouterId, set[Prefix]] = {}   # as the script leaves them
    # one try for the list, not per entry; i names the entry that failed
    try:
        for i, event in enumerate(events):
            t = number(event["t"], "t")
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
                                  deny_origin=check_asn(integer(args["deny_origin"],
                                                                "deny_origin")),
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
    except _ENTRY_ERRORS as exc:
        _raise_named(f"events[{i}]", exc)
    for schedule in plan:
        schedule()


def snapshot_json(sim: Simulation, rid: RouterId) -> str:
    """A router's snapshot rows as JSON, identifiers as strings and lists."""
    return json.dumps([dict(row, prefix=str(row["prefix"]), next_hop=str(row["next_hop"]),
                            as_path=list(row["as_path"]))
                       for row in sim.snapshot_table(rid)], sort_keys=True)
