import copy
import dataclasses
import heapq
import json
import math
import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjack.bgp import (
    DEFAULT_LOCAL_PREF,
    FilterRule,
    Route,
    SimClock,
    Simulation,
    SimulationError,
    UpdateMessage,
    _unchecked_route,
    apply_event_script,
    load_topology,
    route_rank,
    select_best,
    snapshot_json,
)
from blockjack.topology import gen_topology
from blockjack.types import MAX_ASN, MAX_U32, Prefix, RouterId

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("172.16.0.0/20")
P3 = Prefix.parse("192.168.1.0/24")
A = RouterId(10)
B = RouterId(20)
C = RouterId(30)


def line(*rids, delay=0.1, mari=30.0):
    sim = Simulation(mari=mari)
    for rid in rids:
        sim.add_router(rid)
    for left, right in zip(rids, rids[1:]):
        sim.add_link(left, right, delay)
    return sim


def triangle(delay=0.1):
    sim = line(A, B, C, delay=delay)
    sim.add_link(A, C, delay)
    return sim


def best_row(sim, rid, prefix):
    rows = [r for r in sim.snapshot_table(rid)
            if r["prefix"] == prefix and r["is_best"]]
    assert len(rows) <= 1
    return rows[0] if rows else None


# -- best-path selection ------------------------------------------------


def mk(next_hop, path, lp=DEFAULT_LOCAL_PREF, med=0, weight=0):
    return Route(prefix=P1, next_hop=next_hop, as_path=tuple(path),
                 local_pref=lp, med=med, weight=weight)


def test_select_best_single_candidate_is_itself():
    r = mk(B, [20])
    assert select_best([r]) is r


def test_select_best_empty_is_none():
    assert select_best([]) is None


def test_select_best_prefers_shorter_path():
    short = mk(B, [20, 40])
    longer = mk(C, [30, 50, 40])
    assert select_best([longer, short]) is short


def test_select_best_order_of_attributes():
    # weight dominates local_pref dominates path length dominates MED
    w = mk(C, [30, 99, 98, 40], weight=5)
    lp = mk(B, [20, 99, 40], lp=300)
    assert select_best([lp, w]) is w
    short = mk(B, [20, 40])
    assert select_best([short, lp]) is lp
    low_med = mk(B, [20, 40], med=1)
    high_med = mk(C, [30, 40], med=9)
    assert select_best([high_med, low_med]) is low_med


def test_select_best_tiebreak_lowest_next_hop_and_stable():
    r1 = mk(B, [20, 40])
    r2 = mk(C, [30, 40])
    for trial in range(5):
        assert select_best([r2, r1]) is r1
        assert select_best([r1, r2]) is r1


def test_select_best_equal_values_pick_first_in_list_order():
    # same next hop and path: equal keys, so neither route ranks above the other
    first, second, third = mk(B, [20, 40]), mk(B, [20, 40]), mk(B, [20, 40])
    for order in ([first, second, third], [second, third, first],
                  [third, first, second]):
        assert select_best(order) is order[0]


def test_select_best_same_next_hop_and_fields_picks_first_whatever_the_path():
    # the path is not in the rank, so these tie although (20, 40) < (20, 50)
    later_path, earlier_path = mk(B, [20, 50]), mk(B, [20, 40])
    assert later_path.rank == earlier_path.rank
    assert select_best([later_path, earlier_path]) is later_path
    assert select_best([earlier_path, later_path]) is earlier_path


def inline_key(r):
    """The preference order written out from the route's own fields; the
    path is no tiebreak."""
    return (-r.weight, -r.local_pref, len(r.as_path), r.med, r.next_hop)


def assert_ranked_by_own_fields(routes):
    """Each rank is route_rank of its route's fields, and ranks order the
    routes as inline_key does."""
    for route in routes:
        assert route.rank == route_rank(route.weight, route.local_pref, route.as_path,
                                        route.med, route.next_hop)
    for a in routes:
        for b in routes:
            assert (a.rank < b.rank) == (inline_key(a) < inline_key(b))
            assert (a.rank == b.rank) == (inline_key(a) == inline_key(b))


def brute_force_best(candidates):
    """Independent oracle: stable full sort of the attribute tuple, so the
    first of equal keys wins."""
    if not candidates:
        return None
    return sorted(candidates, key=inline_key)[0]


def random_candidates(rng, max_size=8):
    n = rng.randint(1, max_size)
    routes = []
    # distinct next hops from a few ASNs with several indexes each, so one
    # hop can have the lower ASN and the higher index, e.g. (100, 5)
    # against (101, 0)
    hops = rng.sample([(asn, index) for asn in range(100, 103)
                       for index in range(7)], n)
    # half the time every path has the same length, so that more ties
    # reach the MED and next-hop comparisons
    tied_len = rng.choice([None, rng.randint(1, 5)])
    for asn, index in hops:
        path_len = tied_len or rng.randint(1, 5)
        path = tuple(rng.sample(range(500, 900), path_len))
        routes.append(Route(prefix=P1, next_hop=RouterId(asn, index),
                            as_path=path,
                            local_pref=rng.choice([50, 100, 100, 200]),
                            med=rng.randint(0, 3),
                            weight=rng.choice([0, 0, 0, 10])))
    return routes


def test_select_best_matches_brute_force_oracle():
    rng = random.Random(20260809)
    for _ in range(1000):
        routes = random_candidates(rng)
        expected = brute_force_best(routes)
        shuffled = routes[:]
        rng.shuffle(shuffled)
        got = select_best(shuffled)
        assert got is expected


def field_values(route):
    return tuple(getattr(route, f.name) for f in dataclasses.fields(Route))


def test_select_best_changes_no_candidate():
    rng = random.Random(11)
    for _ in range(200):
        routes = random_candidates(rng)
        before = [field_values(r) for r in routes]
        select_best(routes)
        assert [field_values(r) for r in routes] == before


def test_select_best_permutation_invariant_and_idempotent():
    rng = random.Random(7)
    routes = random_candidates(rng, max_size=6)
    first = select_best(routes)
    for _ in range(10):
        rng.shuffle(routes)
        assert select_best(routes) is first
    assert select_best(routes) is first  # idempotent


def test_select_best_passes_over_an_invalid_top_route():
    top = mk(B, [20], weight=10)
    top.is_valid = False
    runner_up = mk(C, [30, 50, 40])
    assert select_best([top, runner_up]) is runner_up
    assert select_best([runner_up, top]) is runner_up


def test_select_best_with_no_valid_candidate_is_none():
    routes = [mk(B, [20, 40]), mk(C, [30, 40])]
    for route in routes:
        route.is_valid = False
    assert select_best(routes) is None


def test_select_best_takes_a_table_view():
    top, valid = mk(A, [10], weight=10), mk(C, [30, 40])
    top.is_valid = False
    table = {A: top, B: mk(B, [20, 50, 40]), C: valid}
    assert select_best(table.values()) is valid
    assert select_best({}.values()) is None


# a hub with four neighbors, each link's import local_pref overridden or not
HUB = RouterId(10)
SPOKES = [RouterId(asn) for asn in (20, 30, 40, 50)]

# (kind, spoke, prefix, origin AS, extra hops, (weight, valid)); a withdraw
# uses the spoke and prefix, a filter the spoke and origin.  Weight 10 ranks
# a route above every weight-0 route, valid or not; origin 10 is the hub's
# own AS, so that announce is dropped.  Announces outnumber the other steps,
# so tables fill.
hub_step = st.tuples(
    st.sampled_from(["announce"] * 4 + ["withdraw"] * 2 + ["filter"]),
    st.integers(0, 3), st.sampled_from([P1, P1, P2]),
    st.sampled_from([60, 70, 60, 70, 10]), st.integers(0, 2),
    st.sampled_from([(0, True), (10, False), (0, True), (0, False), (10, True)]))


@settings(derandomize=True, deadline=None)
@given(overrides=st.dictionaries(st.integers(0, 3), st.sampled_from([50, 100, 300])),
       steps=st.lists(hub_step, min_size=10, max_size=40))
def test_best_is_the_brute_force_pick_of_the_valid_routes_after_every_update(
        overrides, steps):
    sim = Simulation(mari=1.0)
    hub = sim.add_router(HUB)
    for spoke in SPOKES:
        sim.add_router(spoke)
        sim.add_link(HUB, spoke)
    for spoke, local_pref in overrides.items():
        hub.local_pref_in[SPOKES[spoke]] = local_pref
    for kind, spoke, prefix, origin, hops, (weight, valid) in steps:
        sender = SPOKES[spoke]
        if kind == "filter":
            sim.install_inbound_filter(HUB, FilterRule(sender, origin, P1))
            continue
        route = None
        if kind == "announce":
            path = (sender.asn,) + tuple(range(100, 100 + hops)) + (origin,)
            route = Route(prefix=prefix, next_hop=sender, as_path=path,
                          weight=weight, is_valid=valid)
        sim.process_update(HUB, UpdateMessage(sender, prefix, route))
        for held in (P1, P2):
            table = hub.table(held)
            expected = brute_force_best([r for r in table.values() if r.is_valid])
            assert hub.best.get(held) is expected
            assert (held in hub.best) == (expected is not None)


@pytest.mark.parametrize("path", [(), (20, 30, 20), (20, 0), (20, MAX_ASN + 1)],
                         ids=["empty", "loop", "asn-zero", "asn-too-large"])
def test_route_constructor_rejects_bad_paths(path):
    with pytest.raises(ValueError):
        Route(prefix=P1, next_hop=B, as_path=path)


@pytest.mark.parametrize("name", ["weight", "local_pref", "med"])
@pytest.mark.parametrize("value", [-1, MAX_U32 + 1])
def test_route_constructor_rejects_fields_outside_32_bits(name, value):
    with pytest.raises(ValueError, match=f"{name} out of range 0..{MAX_U32}: {value}"):
        Route(prefix=P1, next_hop=B, as_path=(20,), **{name: value})
    assert getattr(Route(prefix=P1, next_hop=B, as_path=(20,), **{name: MAX_U32}),
                   name) == MAX_U32


def test_route_constructor_rejects_a_next_hop_that_is_not_a_router_id():
    # a plain tuple skips RouterId's bounds, and an index of 2**33 would
    # spill into the ASN's bits of the rank
    with pytest.raises(TypeError, match="next_hop must be a RouterId"):
        Route(prefix=P1, next_hop=(10, 2**33), as_path=(10,))


def packed_fields(route):
    """The six fields route_rank packs, most significant first."""
    return (MAX_U32 - route.weight, MAX_U32 - route.local_pref, len(route.as_path),
            route.med, route.next_hop.asn, route.next_hop.index)


u32 = st.sampled_from([0, 1, MAX_U32 - 1, MAX_U32]) | st.integers(0, MAX_U32)
# weight, local_pref, med, next-hop ASN, next-hop index
RANK_FIELDS = (u32, u32, u32, st.integers(1, MAX_ASN), u32)
paths = st.lists(st.integers(1, MAX_ASN), min_size=1, max_size=4, unique=True)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_rank_orders_routes_as_their_packed_fields(data):
    first = data.draw(st.tuples(*RANK_FIELDS))
    # each of the second route's fields is the first's or drawn afresh, so
    # ties, next hops included, reach every field
    second = data.draw(st.tuples(*(st.just(value) | strategy
                                   for value, strategy in zip(first, RANK_FIELDS))))
    a, b = (Route(prefix=P1, next_hop=RouterId(asn, index), as_path=tuple(data.draw(paths)),
                  weight=weight, local_pref=local_pref, med=med)
            for weight, local_pref, med, asn, index in (first, second))
    assert (a.rank < b.rank) == (packed_fields(a) < packed_fields(b))
    assert (a.rank == b.rank) == (packed_fields(a) == packed_fields(b))
    assert 0 <= a.rank < 1 << 192


def test_unchecked_route_sets_every_field_like_route():
    # _unchecked_route sets Route's slots by hand; a field it misses would
    # stay unset and raise AttributeError on first read
    args = dict(prefix=P1, next_hop=B, as_path=(20, 40), local_pref=150,
                med=3, weight=7, metric=9, is_valid=False)
    fast = _unchecked_route(**args, rank=route_rank(7, 150, (20, 40), 3, B))
    checked = Route(**args)
    for field in dataclasses.fields(Route):
        assert getattr(fast, field.name) == getattr(checked, field.name), field.name


def test_rank_is_the_inline_key():
    routes = random_candidates(random.Random(5), max_size=8)
    routes += [dataclasses.replace(r, local_pref=r.local_pref + 7) for r in routes]
    routes += [_unchecked_route(r.prefix, r.next_hop, r.as_path, r.local_pref, r.med,
                                r.weight, r.metric, r.is_valid,
                                route_rank(r.weight, r.local_pref, r.as_path,
                                           r.med, r.next_hop))
               for r in routes]
    assert_ranked_by_own_fields(routes)


def detour(override=None):
    """d = 40 originates P1; A hears it over B in two hops, over C in three.

    ``override`` is A's import local_pref for routes learned from C.
    """
    d, e = RouterId(40), RouterId(50)
    sim = line(B, A, C, e, d)
    sim.add_link(B, d)
    if override is not None:
        sim.routers[A].local_pref_in[C] = override
    sim.originate_prefix(d, P1, 0.0)
    sim.run_until(200.0)
    return sim


def test_plane_copies_rank_by_their_own_fields():
    # every stored copy, one of them under an import override, carries the
    # key of its own fields, so each advert was ranked by its own fields too
    sim = detour(override=200)
    stored = [route for router in sim.routers.values()
              for prefix in router.rib for route in router.table(prefix).values()]
    assert any(route.local_pref == 200 for route in stored)
    assert_ranked_by_own_fields(stored)


def test_local_pref_override_lets_a_longer_path_win():
    assert best_row(detour(), A, P1)["as_path"] == (20, 40)
    # A's copy must rank by the override's local_pref, not the advert's
    row = best_row(detour(override=200), A, P1)
    assert row["as_path"] == (30, 50, 40) and row["local_pref"] == 200


# -- clock / MARI batching ----------------------------------------------


def test_boundaries_are_positive_multiples():
    clock = SimClock(mari_interval=30.0)
    assert clock.next_boundary(0.0) == 30.0
    assert clock.next_boundary(0.5) == 30.0
    assert clock.next_boundary(30.0) == 30.0
    assert clock.next_boundary(30.1) == 60.0
    assert clock.next_boundary(89.9) == 90.0
    # 60.50000000000001 / 0.1 rounds to exactly 605, and 0.1 * 605 is 60.5
    clock = SimClock(mari_interval=0.1)
    assert clock.next_boundary(60.50000000000001) >= 60.50000000000001
    assert clock.next_boundary(0.30000000000000004) == 0.4


@st.composite
def boundary_times(draw):
    """An interval and a time, often one float either side of a boundary."""
    mari = draw(st.floats(1e-3, 1e3))
    near = mari * draw(st.integers(0, 10**6))
    t = draw(st.one_of(st.floats(0, 1e9),
                       st.sampled_from([near, math.nextafter(near, math.inf),
                                        math.nextafter(near, 0.0)])))
    return mari, t


@settings(derandomize=True, deadline=None, max_examples=500)
@given(boundary_times())
def test_next_boundary_is_at_or_after_t_and_at_most_one_interval_on(case):
    mari, t = case
    boundary = SimClock(mari_interval=mari).next_boundary(t)
    assert boundary >= t
    assert boundary - t <= mari * (1 + 1e-9)


def test_two_node_delivery_at_boundary_plus_delay():
    sim = line(A, B)
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(0.0)
    row = best_row(sim, A, P1)
    assert row["as_path"] == (10,)  # self-origination visible immediately
    sim.run_until(30.05)
    assert sim.snapshot_table(B) == []
    assert sim.run_until(30.1) == 1  # exactly the delivery event
    row = best_row(sim, B, P1)
    assert row["as_path"] == (10,)
    assert row["next_hop"] == A


def test_each_neighbor_hears_at_its_own_link_delay():
    d = RouterId(40)
    sim = Simulation()
    for rid in (A, B, C, d):
        sim.add_router(rid)
    sim.add_link(A, B, 0.1)
    sim.add_link(A, C, 0.5)
    sim.add_link(A, d, 0.1)
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(30.1)
    assert best_row(sim, B, P1)["next_hop"] == A
    assert best_row(sim, d, P1)["next_hop"] == A
    sim.run_until(30.49)
    assert best_row(sim, C, P1) is None
    assert sim.run_until(30.5) == 1
    assert best_row(sim, C, P1)["next_hop"] == A


def test_run_until_now_processes_nothing():
    sim = line(A, B)
    assert sim.run_until(sim.clock.now) == 0
    with pytest.raises(SimulationError):
        sim.run_until(-1.0)
    with pytest.raises(SimulationError):
        sim.run_until(math.nan)


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
def test_run_until_refuses_a_non_finite_end_and_the_run_goes_on(t):
    sim = line(A, B)
    sim.originate_prefix(A, P1, 0.0)
    with pytest.raises(SimulationError, match="end time must be finite"):
        sim.run_until(t)
    assert sim.clock.now == 0.0
    sim.originate_prefix(B, P2, 1.0)
    # two originations, then two rounds of a flush and a delivery each way
    assert sim.run_until(100.0) == 10
    assert best_row(sim, A, P2)["next_hop"] == B


def test_simulation_refuses_a_non_positive_or_non_finite_interval():
    # unchecked, a NaN interval fails only at the first run_until, with a bare
    # "cannot convert float NaN to integer"
    for mari in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="advertisement interval must be positive"):
            Simulation(mari=mari)
        with pytest.raises(ValueError, match="advertisement interval must be"):
            load_topology(TOPOLOGY_DOC, mari=mari)


class HeapQueue:
    """The reference queue: one heap of (time, seq, action) entries."""

    def __init__(self):
        self.clock = SimpleNamespace(now=0.0)
        self.heap = []
        self.seq = 0
        self.events_processed = 0

    def schedule(self, t, action):
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, action))

    def run_until(self, t):
        processed = 0
        while self.heap and self.heap[0][0] <= t:
            when, _, action = heapq.heappop(self.heap)
            self.clock.now = when
            action()
            processed += 1
        self.clock.now = t
        self.events_processed += processed
        return processed


class Boom(Exception):
    pass


# an action: (raises, children), each child (delay from now, action)
queue_actions = st.recursive(
    st.tuples(st.sampled_from([False, False, False, True]), st.just(())),
    lambda inner: st.tuples(
        st.sampled_from([False, False, False, True]),
        st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]), inner),
                 max_size=3).map(tuple)),
    max_leaves=6)


def drive_queue(queue, roots, cuts):
    """Schedule the roots, run to each cut and then to the end; log it all."""
    log = []

    def make(label, spec):
        raises, children = spec

        def action():
            log.append(("ran", label, queue.clock.now))
            for k, (delay, child) in enumerate(children):
                queue.schedule(queue.clock.now + delay, make(f"{label}.{k}", child))
            if raises:
                raise Boom(label)
        return action

    def run(t):
        try:
            log.append(("returned", queue.run_until(t)))
            return True
        except Boom as exc:
            log.append(("raised", str(exc), queue.clock.now))
            return False
        finally:
            log.append(("processed", queue.events_processed))

    for i, (t, spec) in enumerate(roots):
        queue.schedule(t, make(str(i), spec))
    for cut in sorted(cuts):
        run(cut)
    for _ in range(1000):   # after a raise, the next call runs the rest
        if run(100.0):
            break
    return log


@settings(derandomize=True, deadline=None)
@given(roots=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 1.5, 3.0]), queue_actions),
                      max_size=12),
       cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), max_size=6))
def test_queue_runs_events_in_time_then_schedule_order(roots, cuts):
    """Same-time events, appends to the running time and raising actions
    all keep the order, returns and counts of one (time, seq) heap."""
    sim = Simulation()
    log = drive_queue(sim, roots, cuts)
    assert log == drive_queue(HeapQueue(), roots, cuts)
    assert sim._queue == [] and sim._buckets == {}


def test_run_until_from_inside_an_event_is_refused():
    sim = line(A, B)
    sim.schedule(1.0, lambda: sim.run_until(2.0))
    with pytest.raises(SimulationError, match="inside an event"):
        sim.run_until(5.0)
    assert sim.clock.now == 1.0
    assert sim.run_until(5.0) == 0


HUB = RouterId(1)


class LoggedSimulation(Simulation):
    """A simulation that logs every process_update call: (time, receiver,
    sender, prefix, outcome), the outcome None when the call raised."""

    def __init__(self, mari=30.0):
        super().__init__(mari)
        self.log = []

    def process_update(self, rid, msg):
        entry = [self.clock.now, rid, msg.sender, msg.prefix, None]
        self.log.append(entry)
        result = super().process_update(rid, msg)
        entry[-1] = result[0]
        return result


def by_asn(log):
    """A log with each router named by its ASN and each prefix as text."""
    return [(t, rid.asn, sender.asn, str(prefix), outcome)
            for t, rid, sender, prefix, outcome in log]


def flood_script(cls=LoggedSimulation):
    """A hub that floods two prefixes to four spokes at one delay and to a
    fifth at another; the spoke 2.0 passes them on to one more router."""
    sim = cls()
    spokes = [RouterId(asn) for asn in (5, 2, 4, 3)]
    for rid in (HUB, *spokes, RouterId(6), RouterId(7)):
        sim.add_router(rid)
    for spoke in spokes:
        sim.add_link(HUB, spoke, 0.1)
    sim.add_link(HUB, RouterId(6), 0.5)
    sim.add_link(RouterId(2), RouterId(7), 0.1)
    sim.originate_prefix(HUB, P1, 0.0)
    sim.originate_prefix(HUB, P2, 0.0)
    sim.withdraw_prefix(HUB, P2, 45.0)
    return sim


def test_a_flood_counts_one_event_per_delivery():
    sim = flood_script()
    runs = [(t, sim.run_until(t), sim.events_processed)
            for t in (0.0, 30.0, 30.1, 30.5, 60.1, 100.0, 200.0)]
    # t=0: two originations; 30.0: the hub's flush; 30.1: 2 prefixes x 4
    # spokes; 30.5: 2 to the far spoke; and so on, one event per delivery
    assert runs == [(0.0, 2, 2), (30.0, 1, 3), (30.1, 8, 11), (30.5, 2, 13),
                    (60.1, 21, 34), (100.0, 17, 51), (200.0, 2, 53)]
    assert len(sim.log) == 36


def test_a_flood_delivers_in_time_then_flush_then_router_id_order():
    sim = flood_script()
    sim.run_until(200.0)
    p1, p2 = str(P1), str(P2)
    assert by_asn(sim.log) == [
        (30.1, 2, 1, p1, "installed"), (30.1, 3, 1, p1, "installed"),
        (30.1, 4, 1, p1, "installed"), (30.1, 5, 1, p1, "installed"),
        (30.1, 2, 1, p2, "installed"), (30.1, 3, 1, p2, "installed"),
        (30.1, 4, 1, p2, "installed"), (30.1, 5, 1, p2, "installed"),
        (30.5, 6, 1, p1, "installed"), (30.5, 6, 1, p2, "installed"),
        (60.1, 1, 2, p1, "dropped-loop"), (60.1, 7, 2, p1, "installed"),
        (60.1, 1, 2, p2, "dropped-loop"), (60.1, 7, 2, p2, "installed"),
        (60.1, 1, 3, p1, "dropped-loop"), (60.1, 1, 3, p2, "dropped-loop"),
        (60.1, 1, 4, p1, "dropped-loop"), (60.1, 1, 4, p2, "dropped-loop"),
        (60.1, 1, 5, p1, "dropped-loop"), (60.1, 1, 5, p2, "dropped-loop"),
        (60.1, 2, 1, p2, "withdrawn"), (60.1, 3, 1, p2, "withdrawn"),
        (60.1, 4, 1, p2, "withdrawn"), (60.1, 5, 1, p2, "withdrawn"),
        (60.5, 1, 6, p1, "dropped-loop"), (60.5, 1, 6, p2, "dropped-loop"),
        (60.5, 6, 1, p2, "withdrawn"),
        (90.1, 2, 7, p1, "dropped-loop"), (90.1, 2, 7, p2, "dropped-loop"),
        (90.1, 1, 2, p2, "no-op"), (90.1, 7, 2, p2, "withdrawn"),
        (90.1, 1, 3, p2, "no-op"), (90.1, 1, 4, p2, "no-op"),
        (90.1, 1, 5, p2, "no-op"), (90.5, 1, 6, p2, "no-op"),
        (120.1, 2, 7, p2, "no-op"),
    ]


def test_a_flush_queues_one_action_per_delivery_time():
    sim = flood_script()
    sim.run_until(30.0)
    # both prefixes in one action to the group of four at 30.1, and in one
    # to the group of one at 30.5
    assert {when: len(bucket) for when, bucket in sim._buckets.items()} == {
        30.1: 1, 30.5: 1, 45.0: 1}
    assert sim.run_until(30.5) == 10


def test_a_flush_with_nothing_pending_queues_nothing():
    sim, clean = flood_script(), flood_script()
    for each in (sim, clean):
        each.run_until(30.0)   # the hub has flushed, so nothing is pending
    buckets = {when: list(bucket) for when, bucket in sim._buckets.items()}
    sim._flush(sim.routers[HUB])
    assert sim._buckets == buckets and sim._queue == clean._queue
    assert sim.run_until(200.0) == clean.run_until(200.0)
    assert sim.events_processed == clean.events_processed == 53


def test_a_raising_delivery_leaves_the_rest_of_its_flood_queued():
    sim = LoggedSimulation()
    for rid in (HUB, C, A, B):
        sim.add_router(rid)
    for spoke in (C, A, B):
        sim.add_link(HUB, spoke, 0.1)
    sim.originate_prefix(HUB, P1, 0.0)

    def listener(rid, prefix, old, new):
        if rid == B and new is not None:
            raise Boom(str(rid))
    sim.on_best_change.append(listener)
    assert sim.run_until(30.0) == 2   # the origination and the hub's flush
    with pytest.raises(Boom):
        sim.run_until(100.0)
    # the second of three deliveries raised: it is consumed, the third is not
    assert sim.clock.now == 30.1
    assert sim.events_processed == 2
    assert by_asn(sim.log) == [
        (30.1, 10, 1, str(P1), "installed"), (30.1, 20, 1, str(P1), None)]
    assert best_row(sim, B, P1)["next_hop"] == HUB
    assert best_row(sim, C, P1) is None
    # the next call delivers it first, then the spokes' flushes at 60.0
    assert sim.run_until(30.1) == 1
    assert by_asn(sim.log)[-1] == (30.1, 30, 1, str(P1), "installed")
    assert sim.run_until(100.0) == 6
    assert sim.events_processed == 9
    assert by_asn(sim.log[3:]) == [
        (60.1, 1, 10, str(P1), "dropped-loop"), (60.1, 1, 20, str(P1), "dropped-loop"),
        (60.1, 1, 30, str(P1), "dropped-loop")]
    assert sim._queue == [] and sim._buckets == {}


class PerDeliverySimulation(LoggedSimulation):
    """The reference queue: a flush queues one action per delivery, each
    prefix in turn, and per prefix each neighbor in router id order."""

    def _flush(self, router):
        pending, router.pending = sorted(router.pending), set()
        now = self.clock.now
        for prefix in pending:
            best = router.best.get(prefix)
            advert = None if best is None else Route(
                prefix, router.rid, router.advertised_path(best), med=best.med,
                metric=best.metric)
            for neighbor, delay in sorted(router.neighbors.items()):
                msg = UpdateMessage(router.rid, prefix, advert)
                self.schedule(now + delay, partial(self.process_update, neighbor, msg))


def hub_with_three_spokes(raising):
    """A hub that floods two prefixes to three spokes in one action, and a
    marker queued behind that action; with ``raising``, the second spoke's
    listener raises once, at the first prefix."""
    sim = LoggedSimulation()
    for rid in (HUB, C, A, B):
        sim.add_router(rid)
    for spoke in (C, A, B):
        sim.add_link(HUB, spoke, 0.1)
    sim.originate_prefix(HUB, P1, 0.0)
    sim.originate_prefix(HUB, P2, 0.0)
    raised = []

    def listener(rid, prefix, old, new):
        if raising and not raised and rid == B:
            raised.append(prefix)
            raise Boom(str(rid))
    sim.on_best_change.append(listener)
    assert sim.run_until(30.0) == 3   # two originations and the hub's flush
    sim.schedule(30.1, partial(sim.log.append, "marker"))
    return sim


def test_a_delivery_raising_mid_batch_leaves_the_rest_queued_in_order():
    sim, clean = hub_with_three_spokes(True), hub_with_three_spokes(False)
    with pytest.raises(Boom):
        sim.run_until(100.0)
    assert sim.clock.now == 30.1
    assert sim.events_processed == 3
    assert sim.log == [[30.1, A, HUB, P1, "installed"], [30.1, B, HUB, P1, None]]
    # the rest of the first prefix's receivers, then every receiver of the
    # second, at the head of the bucket and ahead of the marker
    head = [(action.args[0], [msg.prefix for msg in action.args[1]])
            for action in sim._buckets[30.1][:2]]
    assert head == [([C], [P1]), ([A, B, C], [P2])]
    assert len(sim._buckets[30.1]) == 3
    # the next call delivers them as the run that never raised did
    assert clean.run_until(30.1) == 7
    assert sim.run_until(30.1) == 5
    assert sim.log[1][:4] == clean.log[1][:4] and sim.log[2:] == clean.log[2:]
    assert sim.log[-1] == "marker"
    assert sim.run_until(100.0) == clean.run_until(100.0)
    assert sim.log[2:] == clean.log[2:]
    assert sim.events_processed == clean.events_processed - 2
    assert all(sim.routers[rid].best == clean.routers[rid].best for rid in sim.routers)
    assert sim._queue == [] and sim._buckets == {}


def test_a_flush_at_two_delays_delivers_one_message_list_at_each():
    sim, reference = flood_script(), flood_script(PerDeliverySimulation)
    assert sim.run_until(30.0) == reference.run_until(30.0)
    [near], [far] = sim._buckets[30.1], sim._buckets[30.5]
    near_group, near_msgs = near.args
    far_group, far_msgs = far.args
    assert near_group == [RouterId(asn) for asn in (2, 3, 4, 5)]
    assert far_group == [RouterId(6)]
    assert [msg.prefix for msg in near_msgs] == [P1, P2]
    assert far_msgs is near_msgs
    assert sim.run_until(30.5) == reference.run_until(30.5) == 10
    # the spokes at both delays hold the hub's one advert
    assert all(sim.routers[RouterId(asn)].table(P1)[HUB] is near_msgs[0].route
               for asn in (2, 3, 4, 5, 6))
    assert sim.run_until(200.0) == reference.run_until(200.0)
    assert sim.log == reference.log
    assert sim.events_processed == reference.events_processed
    assert all(sim.snapshot_table(rid) == reference.snapshot_table(rid)
               for rid in sim.routers)


@st.composite
def flooded_networks(draw):
    """2-6 routers, some sharing an ASN, random links whose delays let
    groups share a time and zero-delay deliveries land in the bucket being
    drained, an originate/withdraw script, an interval, and run cut times.

    With an interval of 0.1, a change at 0.3 flushes at the boundary
    0.1 * 3, just above 0.3, whose own next boundary is 0.4; a change at
    that boundary, before its flush, joins the flush already queued."""
    count = draw(st.integers(2, 6))
    asns = draw(st.lists(st.sampled_from([10, 20, 30, 40, 50, 60]),
                         min_size=count, max_size=count))
    rids = [RouterId(asn, i) for i, asn in enumerate(asns)]
    pairs = [(a, b) for i, a in enumerate(rids) for b in rids[i + 1:]]
    links = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from([0.0, 0.1, 0.5])),
                          min_size=count - 1, unique_by=lambda link: link[0]))
    times = [0.0, 0.1, 0.3, 0.1 * 3, 1.0, 30.0, 45.0]
    script = draw(st.lists(st.tuples(st.sampled_from(times), st.sampled_from(rids),
                                     st.sampled_from([P1, P2, P3])),
                           max_size=10))
    mari = draw(st.sampled_from([30.0, 0.1]))
    cuts = draw(st.lists(st.sampled_from([0.0, 0.3, 0.35, 1.0, 30.0, 30.1, 45.0]),
                         max_size=4))
    return rids, links, sorted(script, key=lambda entry: entry[0]), mari, sorted(cuts)


def flood_network(cls, rids, links, script, mari):
    sim = cls(mari)
    for rid in rids:
        sim.add_router(rid)
    for (a, b), delay in links:
        sim.add_link(a, b, delay)
    for t, rid, prefix in script:   # each entry toggles its origination
        if prefix in sim.routers[rid].originated:
            sim.withdraw_prefix(rid, prefix, t)
        else:
            sim.originate_prefix(rid, prefix, t)
    return sim


@settings(derandomize=True, deadline=None, max_examples=200)
@given(flooded_networks())
def test_batched_deliveries_match_one_action_per_delivery(network):
    """The log of process_update calls, the returns and counts of run_until
    and every best route equal those of a queue with one action per
    delivery."""
    rids, links, script, mari, cuts = network
    sim = flood_network(LoggedSimulation, rids, links, script, mari)
    reference = flood_network(PerDeliverySimulation, rids, links, script, mari)
    for t in (*cuts, 60.0 + 200 * mari):
        assert sim.run_until(t) == reference.run_until(t)
        assert sim.log == reference.log
        assert sim.events_processed == reference.events_processed
        check_one_flush_per_pending_set(sim)
    assert all(sim.routers[rid].best == reference.routers[rid].best for rid in rids)


def test_a_change_at_its_flush_boundary_joins_that_flush():
    """0.1 * 3 is just above 0.3, and its own next boundary is 0.4; a second
    origination at 0.1 * 3 joins the flush queued there, and nothing is
    queued for 0.4."""
    sim = line(A, B, delay=0.5, mari=0.1)
    sim.originate_prefix(A, P1, 0.3)
    sim.originate_prefix(A, P2, 0.1 * 3)
    assert sim.run_until(0.35) == 3   # two originations, then one flush of both
    assert list(sim._buckets) == [0.1 * 3 + 0.5]
    assert sim.run_until(5.0) == 5    # two deliveries, B's flush and its two back
    assert sim._buckets == {}


def test_propagation_one_interval_per_hop():
    d = RouterId(40)
    sim = line(A, B, C, d)
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(30.1)
    assert best_row(sim, B, P1) is not None
    assert best_row(sim, C, P1) is None
    sim.run_until(60.1)
    assert best_row(sim, C, P1)["as_path"] == (20, 10)
    sim.run_until(90.1)
    assert best_row(sim, d, P1)["as_path"] == (30, 20, 10)


@pytest.mark.parametrize("a,b,delay,message", [
    (B, A, 5.0, "duplicate link between 20.0 and 10.0"),
    (A, B, 5.0, "duplicate link between 10.0 and 20.0"),
    (A, A, 5.0, "self links are not allowed"),
    (A, C, -1.0, "link delay must be finite and >= 0, got -1.0"),
    (A, C, math.nan, "link delay must be finite and >= 0, got nan"),
    (A, C, 5.0, "unknown router 30.0"),
    (C, A, 5.0, "unknown router 30.0"),
], ids=["duplicate-reversed", "duplicate", "self", "negative-delay", "nan-delay",
        "unknown-b", "unknown-a"])
def test_add_link_refuses_a_bad_link_and_keeps_both_delays(a, b, delay, message):
    sim = line(A, B)
    with pytest.raises(SimulationError) as excinfo:
        sim.add_link(a, b, delay)
    assert str(excinfo.value) == message
    assert sim.routers[A].neighbors == {B: 0.1} and sim.routers[B].neighbors == {A: 0.1}


# -- origination / withdrawal -------------------------------------------


def test_duplicate_origination_rejected():
    sim = line(A, B)
    sim.originate_prefix(A, P1, 0.0)
    with pytest.raises(SimulationError):
        sim.originate_prefix(A, P1, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_time_is_refused_and_later_events_still_run(t):
    sim = line(A, B)
    with pytest.raises(SimulationError, match="event time must be finite"):
        sim.originate_prefix(A, P1, t)
    with pytest.raises(SimulationError, match="event time must be finite"):
        sim.schedule(t, lambda: None)
    sim.originate_prefix(B, P2, 1.0)
    assert sim.run_until(100.0) == 5   # originate, then a flush and a delivery each way
    assert best_row(sim, A, P2)["next_hop"] == B
    assert not sim.routers[A].originated


def test_refused_originate_time_records_nothing():
    sim = line(A, B)
    sim.run_until(5.0)
    with pytest.raises(SimulationError, match="before now"):
        sim.originate_prefix(A, P1, 1.0)
    assert not sim.routers[A].originated
    sim.originate_prefix(A, P1, 6.0)   # the corrected retry
    sim.run_until(40.0)
    assert best_row(sim, B, P1)["next_hop"] == A


def test_refused_withdraw_time_records_nothing():
    sim = line(A, B)
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(40.0)
    with pytest.raises(SimulationError, match="before now"):
        sim.withdraw_prefix(A, P1, 1.0)
    assert sim.routers[A].originated == {P1}
    sim.withdraw_prefix(A, P1, 41.0)   # the corrected retry
    sim.run_until(100.0)
    assert sim.snapshot_table(B) == []


def test_withdraw_requires_current_origination():
    sim = line(A, B)
    with pytest.raises(SimulationError):
        sim.withdraw_prefix(A, P1, 0.0)


def test_unknown_router_rejected():
    sim = line(A, B)
    with pytest.raises(SimulationError):
        sim.originate_prefix(RouterId(99), P1, 0.0)
    with pytest.raises(SimulationError):
        sim.snapshot_table(RouterId(99))


def test_withdraw_two_node_line_empties_peer():
    sim = line(A, B)
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(40.0)
    assert best_row(sim, B, P1) is not None
    sim.withdraw_prefix(A, P1, 45.0)
    sim.run_until(100.0)
    assert sim.snapshot_table(B) == []
    assert sim.snapshot_table(A) == []


def test_withdraw_triangle_falls_back_to_alternate():
    # B holds the direct route [10] and the alternate [30, 10] via C.
    sim = triangle()
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(100.0)
    assert best_row(sim, B, P1)["as_path"] == (10,)
    rows = sim.snapshot_table(B)
    assert {r["as_path"] for r in rows} == {(10,), (30, 10)}
    sim.withdraw_prefix(A, P1, 100.0)
    sim.run_until(200.0)
    row = best_row(sim, B, P1)
    assert row["as_path"] == (30, 10)
    assert row["next_hop"] == C


def test_reorigination_restores_route():
    sim = line(A, B)
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(40.0)
    sim.withdraw_prefix(A, P1, 40.0)
    sim.run_until(80.0)
    assert best_row(sim, B, P1) is None
    sim.originate_prefix(A, P1, 80.0)
    sim.run_until(130.0)
    assert best_row(sim, B, P1)["as_path"] == (10,)


# -- process_update -----------------------------------------------------


def test_an_update_names_its_sender_prefix_and_route_only():
    # no receiver and no delivery time, so one message serves every neighbor
    assert [f.name for f in dataclasses.fields(UpdateMessage)] == [
        "sender", "prefix", "route"]


def test_loop_prevention_drops_and_leaves_table_unchanged():
    sim = line(A, B)
    msg = UpdateMessage(sender=B, prefix=P1,
                        route=Route(prefix=P1, next_hop=B, as_path=(20, 10)))
    action, delta = sim.process_update(A, msg)
    assert action == "dropped-loop"
    assert sim.snapshot_table(A) == []


def test_receiver_stores_the_advert_itself():
    sim = line(A, B)
    advert = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(sender=B, prefix=P1, route=advert))
    assert sim.routers[A].table(P1)[B] is advert
    # through the plane, both of A's neighbors hold A's one advert
    sim = triangle()
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(30.1)
    assert sim.routers[B].table(P1)[A] is sim.routers[C].table(P1)[A]


def test_announce_must_name_its_sender_as_next_hop():
    # one advert object under two senders would make two rows best
    sim = triangle()
    advert = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(sender=B, prefix=P1, route=advert))
    with pytest.raises(SimulationError):
        sim.process_update(A, UpdateMessage(sender=C, prefix=P1, route=advert))
    assert [row["is_best"] for row in sim.snapshot_table(A)] == [True]


def test_announce_must_carry_a_route_for_its_own_prefix():
    # a P2 route stored in P1's table would list a P2 row there, and the
    # dispatcher's scan would hand that row to the verifier
    sim = line(A, B)
    advert = Route(prefix=P2, next_hop=B, as_path=(20, 40))
    with pytest.raises(SimulationError, match="carries a route for 172.16.0.0/20"):
        sim.process_update(A, UpdateMessage(B, P1, advert))
    assert sim.snapshot_table(A) == []
    assert P1 not in sim.routers[A].rib


def test_receiver_with_override_stores_its_own_copy():
    sim = line(A, B)
    sim.routers[A].local_pref_in[B] = 250
    advert = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(sender=B, prefix=P1, route=advert))
    stored = sim.routers[A].table(P1)[B]
    assert stored is not advert
    assert stored.local_pref == 250 and advert.local_pref == DEFAULT_LOCAL_PREF
    assert_ranked_by_own_fields([stored, advert])
    assert stored.rank < advert.rank


def test_filter_drops_matching_update():
    sim = line(A, B)
    sim.install_inbound_filter(A, FilterRule(neighbor=B, deny_origin=99,
                                             deny_prefix=P1))
    msg = UpdateMessage(sender=B, prefix=P1,
                        route=Route(prefix=P1, next_hop=B, as_path=(20, 99)))
    action, _ = sim.process_update(A, msg)
    assert action == "dropped-filter"
    assert sim.snapshot_table(A) == []
    # a different origin via the same neighbor still installs
    msg2 = UpdateMessage(sender=B, prefix=P1,
                         route=Route(prefix=P1, next_hop=B, as_path=(20, 50)))
    action, _ = sim.process_update(A, msg2)
    assert action == "installed"


def test_shorter_path_replaces_best():
    sim = triangle()
    long_route = Route(prefix=P1, next_hop=C, as_path=(30, 50, 40))
    sim.process_update(A, UpdateMessage(sender=C, prefix=P1, route=long_route))
    assert best_row(sim, A, P1)["as_path"] == (30, 50, 40)
    short_route = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(sender=B, prefix=P1, route=short_route))
    assert best_row(sim, A, P1)["as_path"] == (20, 40)


def test_invalid_route_is_listed_but_never_selected():
    sim = triangle()
    # shorter than the valid route below, so it would win if it were valid
    invalid = Route(prefix=P1, next_hop=B, as_path=(20, 40), is_valid=False)
    sim.process_update(A, UpdateMessage(sender=B, prefix=P1, route=invalid))
    assert best_row(sim, A, P1) is None
    [row] = json.loads(snapshot_json(sim, A))
    assert row["is_valid"] is False and row["is_best"] is False
    valid = Route(prefix=P1, next_hop=C, as_path=(30, 50, 40))
    sim.process_update(A, UpdateMessage(sender=C, prefix=P1, route=valid))
    assert best_row(sim, A, P1)["next_hop"] == C
    rows = {r["next_hop"]: r for r in sim.snapshot_table(A)}
    assert not rows[B]["is_valid"] and not rows[B]["is_best"]


# -- inbound filters -----------------------------------------------------


def test_filter_purges_only_route():
    sim = line(A, B)
    sim.originate_prefix(B, P1, 0.0)
    sim.run_until(40.0)
    assert best_row(sim, A, P1) is not None
    sim.install_inbound_filter(A, FilterRule(neighbor=B, deny_origin=20,
                                             deny_prefix=P1))
    assert best_row(sim, A, P1) is None
    # future announcements stay blocked
    sim.withdraw_prefix(B, P1, 50.0)
    sim.run_until(100.0)
    sim.originate_prefix(B, P1, 100.0)
    sim.run_until(200.0)
    assert best_row(sim, A, P1) is None


def test_filter_with_alternate_path_surfaces_it():
    sim = triangle()
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(100.0)
    sim.install_inbound_filter(B, FilterRule(neighbor=A, deny_origin=10,
                                             deny_prefix=P1))
    row = best_row(sim, B, P1)
    assert row["as_path"] == (30, 10)
    assert row["next_hop"] == C


def test_filter_matching_nothing_changes_nothing():
    sim = line(A, B)
    sim.originate_prefix(B, P1, 0.0)
    sim.run_until(40.0)
    before = snapshot_json(sim, A)
    sim.install_inbound_filter(A, FilterRule(neighbor=B, deny_origin=777,
                                             deny_prefix=P2))
    assert snapshot_json(sim, A) == before


def test_filter_requires_adjacency():
    sim = line(A, B, C)
    with pytest.raises(SimulationError):
        sim.install_inbound_filter(A, FilterRule(neighbor=C, deny_origin=30,
                                                 deny_prefix=P1))


def test_no_filtered_route_ever_appears_after_install():
    sim = triangle()
    sim.install_inbound_filter(A, FilterRule(neighbor=B, deny_origin=99,
                                             deny_prefix=P1))
    adv = RouterId(99)
    sim.add_router(adv)
    sim.add_link(adv, B, 0.1)
    sim.add_link(adv, C, 0.1)
    sim.originate_prefix(adv, P1, 0.0)
    sim.run_until(300.0)
    rows = [r for r in sim.snapshot_table(A)
            if r["as_path"][-1] == 99 and r["next_hop"] == B]
    assert rows == []
    # the origin is still reachable via the unfiltered neighbor
    assert best_row(sim, A, P1)["next_hop"] == C


# -- invariants ----------------------------------------------------------


def test_at_most_one_best_and_loop_freedom_throughout():
    rng = random.Random(99)
    sim = triangle()
    extra = RouterId(40)
    sim.add_router(extra)
    sim.add_link(extra, A, 0.1)
    sim.add_link(extra, C, 0.1)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
    owners = [A, B, C, extra]
    for owner, prefix in zip(owners, prefixes):
        sim.originate_prefix(owner, prefix, rng.uniform(0, 50))
    checkpoints = sorted(rng.uniform(0, 400) for _ in range(25)) + [400.0]
    for t in checkpoints:
        sim.run_until(t)
        for rid in sim.routers:
            rows = sim.snapshot_table(rid)
            per_prefix = {}
            for row in rows:
                assert rid.asn not in row["as_path"] or row["next_hop"] == rid
                if row["is_best"]:
                    per_prefix[row["prefix"]] = per_prefix.get(row["prefix"], 0) + 1
            assert all(v == 1 for v in per_prefix.values())


# five ASes on a ring with one chord; links are (router index, router index, delay)
RING = [RouterId(asn) for asn in (10, 20, 30, 40, 50)]
RING_LINKS = [(0, 1, 0.1), (1, 2, 0.3), (2, 3, 0.1), (3, 4, 0.3), (4, 0, 0.1),
              (1, 3, 0.1)]
RING_SESSIONS = sorted({(a, b) for a, b, _ in RING_LINKS}
                       | {(b, a) for a, b, _ in RING_LINKS})

ring_step = st.one_of(
    st.tuples(st.just("originate"), st.integers(0, 4), st.sampled_from([P1, P2])),
    st.tuples(st.just("withdraw"), st.integers(0, 4), st.sampled_from([P1, P2])),
    # router, and a pick among the (neighbor, origin) pairs it could deny
    st.tuples(st.just("filter"), st.integers(0, 4), st.integers(0, 24)),
    # mari is 1 s: a route crosses one hop per boundary, so most runs
    # move several hops
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 5.0])),
)
ring_steps = st.lists(ring_step, min_size=4, max_size=40)


def ring_sim(overrides):
    sim = Simulation(mari=1.0)
    for rid in RING:
        sim.add_router(rid)
    for a, b, delay in RING_LINKS:
        sim.add_link(RING[a], RING[b], delay)
    for (a, b), local_pref in overrides.items():
        sim.routers[RING[a]].local_pref_in[RING[b]] = local_pref
    return sim


def apply_step(sim, rids, kind, *args):
    """One step of ``ring_step`` over the routers ``rids``, picked by index
    modulo their number; an originate or withdraw that would be refused is
    skipped."""
    if kind == "run":
        sim.run_until(sim.clock.now + args[0])
    elif kind == "filter":
        # deny a route the router holds, if any, so most filters purge one
        rid = rids[args[0] % len(rids)]
        router = sim.routers[rid]
        pairs = sorted({(sender, route.origin) for prefix in router.rib
                        for sender, route in router.table(prefix).items() if sender != rid}
                       ) or [(n, r.asn) for n in sorted(router.neighbors) for r in rids]
        neighbor, origin = pairs[args[1] % len(pairs)]
        sim.install_inbound_filter(rid, FilterRule(neighbor=neighbor, deny_origin=origin,
                                                   deny_prefix=P1))
    else:
        rid, prefix = rids[args[0] % len(rids)], args[1]
        originated = prefix in sim.routers[rid].originated
        if kind == "originate" and not originated:
            sim.originate_prefix(rid, prefix)
        elif kind == "withdraw" and originated:
            sim.withdraw_prefix(rid, prefix)


def check_best_is_recorded_once(sim, seen):
    """router.best is the oracle's pick, the only best row, over unchanged routes.

    ``seen`` maps id(route) to (route, its field values when first seen);
    holding the route keeps its id from being reused.
    """
    for rid, router in sim.routers.items():
        rows = sim.snapshot_table(rid)
        for prefix in set(router.rib) | set(router.best):
            table = router.table(prefix)
            best = router.best.get(prefix)
            assert best is brute_force_best([r for r in table.values() if r.is_valid])
            best_rows = [(row["next_hop"], row["as_path"], row["local_pref"])
                         for row in rows if row["prefix"] == prefix and row["is_best"]]
            assert best_rows == ([] if best is None
                                 else [(best.next_hop, best.as_path, best.local_pref)])
            for route in table.values():
                first = seen.setdefault(id(route), (route, field_values(route)))
                assert field_values(route) == first[1]


@settings(derandomize=True, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(RING_SESSIONS),
                                 st.sampled_from([50, 100, 150, 300])),
       steps=ring_steps)
def test_router_best_is_the_only_record_of_best(overrides, steps):
    sim = ring_sim(overrides)
    seen = {}
    for step in steps:
        apply_step(sim, RING, *step)
        check_best_is_recorded_once(sim, seen)


def test_snapshot_is_pure_and_stable_ordered():
    sim = triangle()
    sim.originate_prefix(A, P1, 0.0)
    sim.originate_prefix(B, P2, 0.0)
    sim.run_until(123.0)
    first = snapshot_json(sim, C)
    second = snapshot_json(sim, C)
    assert first == second
    rows = sim.snapshot_table(C)
    keys = [(r["prefix"], r["next_hop"]) for r in rows]
    assert keys == sorted(keys)


def reference_rows(router):
    """A router's snapshot rows rebuilt from its rib and best."""
    return [{"prefix": route.prefix, "next_hop": route.next_hop, "metric": route.metric,
             "local_pref": route.local_pref, "weight": route.weight,
             "as_path": route.as_path, "is_valid": route.is_valid,
             "is_best": route is router.best.get(prefix)}
            for prefix in sorted(router.rib)
            for _, route in sorted(router.table(prefix).items())]


# a neighbor's withdraw or announce delivered now, beside the ring steps:
# (receiver, pick of its neighbors, prefix) and, for an announce, (pick of
# an origin AS, valid)
snapshot_steps = st.lists(st.one_of(
    ring_step,
    st.tuples(st.just("retract"), st.integers(0, 4), st.integers(0, 3),
              st.sampled_from([P1, P2])),
    st.tuples(st.just("announce"), st.integers(0, 4), st.integers(0, 3),
              st.sampled_from([P1, P2]), st.integers(0, 4), st.booleans()),
), min_size=4, max_size=40)


@settings(derandomize=True, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(RING_SESSIONS),
                                 st.sampled_from([50, 100, 150, 300])),
       steps=snapshot_steps)
def test_snapshot_rows_follow_every_table_change(overrides, steps):
    """After any originate, withdraw, announce or filter, every router's
    snapshot equals its rows rebuilt from rib and best.  Two calls with no
    change between them return the same list, and a list handed out
    before a change still equals a deep copy taken when it was handed out."""
    sim = ring_sim(overrides)
    handed_out = {}   # rid -> (list, deep copy of it)
    for kind, *args in steps:
        if kind in ("announce", "retract"):
            receiver, pick, prefix, *announce = args
            neighbors = sorted(sim.routers[RING[receiver]].neighbors)
            sender = neighbors[pick % len(neighbors)]
            route = None
            if announce:
                origin, valid = announce
                path = tuple(dict.fromkeys((sender.asn, RING[origin].asn)))
                route = Route(prefix=prefix, next_hop=sender, as_path=path,
                              metric=len(path), is_valid=valid)
            sim.process_update(RING[receiver],
                               UpdateMessage(sender, prefix, route))
        else:
            apply_step(sim, RING, kind, *args)
        for rid, router in sim.routers.items():
            if rid in handed_out:
                rows, then = handed_out[rid]
                assert rows == then
            rows = sim.snapshot_table(rid)
            assert rows == reference_rows(router)
            assert sim.snapshot_table(rid) is rows
            handed_out[rid] = (rows, copy.deepcopy(rows))


def test_table_is_a_new_dict_of_either_shape():
    sim = triangle()
    router = sim.routers[A]
    assert router.table(P1) == {}
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(0.0)
    local = router.rib[P1]
    assert router.table(P1) == {A: local}
    sim.run_until(100.0)   # B's and C's adverts of P1 carry AS 10, so A drops them
    table = router.table(P1)
    assert list(table) == [A] and type(router.rib[P1]) is Route
    sim.originate_prefix(B, P2)
    sim.run_until(200.0)   # A hears P2 from B directly and through C
    table = router.table(P2)
    assert sorted(table) == [B, C] and table == router.rib[P2]
    table.clear()
    assert len(router.rib[P2]) == 2 and router.table(P2) != {}


def check_table_shape(sim):
    """Each rib value is a bare route or a dict of at least two, each route
    under its own next hop; best is the brute-force pick over the table, and
    the snapshot rows are the rows built from it."""
    for rid, router in sim.routers.items():
        for prefix, held in router.rib.items():
            if type(held) is dict:
                assert len(held) >= 2
                assert all(hop == route.next_hop for hop, route in held.items())
            else:
                assert type(held) is Route
        for prefix in set(router.rib) | set(router.best):
            table = router.table(prefix)
            assert all(route.prefix == prefix for route in table.values())
            assert router.best.get(prefix) is brute_force_best(
                [route for route in table.values() if route.is_valid])
        assert sim.snapshot_table(rid) == reference_rows(router)


@st.composite
def shaped_networks(draw):
    """2 to 6 routers, some sharing an ASN, linked into one connected
    network with delays from {0, 0.1, 0.5}, and import local_pref
    overrides on some sessions; returns the simulation and its router ids."""
    asns = draw(st.lists(st.sampled_from([10, 20, 30, 40]), min_size=2, max_size=6))
    rids = [RouterId(asn, index) for index, asn in enumerate(asns)]
    delay = st.sampled_from([0.0, 0.1, 0.5])
    # each router past the first links to an earlier one, and a few more pairs
    links = {(draw(st.integers(0, i - 1)), i): draw(delay) for i in range(1, len(rids))}
    pair = st.lists(st.integers(0, len(rids) - 1), min_size=2, max_size=2, unique=True)
    for a, b in draw(st.lists(pair, max_size=4)):
        links.setdefault((min(a, b), max(a, b)), draw(delay))
    sim = Simulation(mari=1.0)
    for rid in rids:
        sim.add_router(rid)
    for (a, b), link_delay in links.items():
        sim.add_link(rids[a], rids[b], link_delay)
    sessions = sorted(links) + sorted((b, a) for a, b in links)
    for a, b in draw(st.lists(st.sampled_from(sessions), max_size=4)):
        sim.routers[rids[a]].local_pref_in[rids[b]] = draw(st.sampled_from([50, 150, 300]))
    return sim, rids


shape_steps = st.lists(st.one_of(
    st.tuples(st.just("originate"), st.integers(0, 5), st.sampled_from([P1, P2, P3])),
    st.tuples(st.just("withdraw"), st.integers(0, 5), st.sampled_from([P1, P2, P3])),
    st.tuples(st.just("filter"), st.integers(0, 5), st.integers(0, 24)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0])),
), min_size=4, max_size=40)


@settings(derandomize=True, deadline=None)
@given(network=shaped_networks(), steps=shape_steps)
def test_tables_keep_their_shape_through_every_change(network, steps):
    sim, rids = network
    for step in steps:
        apply_step(sim, rids, *step)
        check_table_shape(sim)


def check_one_flush_per_pending_set(sim):
    """Each router has one ``_flush`` queued while its pending set is
    non-empty, and none while it is empty."""
    queued = [action.args[0].rid for bucket in sim._buckets.values() for action in bucket
              if isinstance(action, partial) and action.func == sim._flush]
    for rid, router in sim.routers.items():
        assert queued.count(rid) == (1 if router.pending else 0)


@settings(derandomize=True, deadline=None)
@given(network=shaped_networks(), steps=shape_steps)
def test_a_flush_is_queued_exactly_while_the_pending_set_is_non_empty(network, steps):
    sim, rids = network
    check_one_flush_per_pending_set(sim)
    for step in steps:
        apply_step(sim, rids, *step)
        check_one_flush_per_pending_set(sim)


def test_a_snapshot_is_shared_until_the_next_table_change():
    sim = triangle()
    sim.originate_prefix(A, P1, 0.0)
    sim.originate_prefix(B, P2, 0.0)
    sim.run_until(123.0)
    rows = sim.snapshot_table(C)
    then = copy.deepcopy(rows)
    assert sim.snapshot_table(C) is rows
    sim.withdraw_prefix(B, P2, 124.0)
    sim.run_until(200.0)
    after = sim.snapshot_table(C)
    assert after is not rows and after == reference_rows(sim.routers[C])
    assert after != then and rows == then


def test_fixed_script_is_byte_identical_across_runs():
    def run():
        sim = triangle()
        adv = RouterId(99)
        sim.add_router(adv)
        sim.add_link(adv, C, 0.1)
        sim.originate_prefix(A, P1, 0.0)
        sim.originate_prefix(adv, P1, 60.0)
        sim.originate_prefix(B, P2, 15.0)
        sim.withdraw_prefix(B, P2, 200.0)
        sim.run_until(400.0)
        return (sim.events_processed,
                "|".join(snapshot_json(sim, rid) for rid in sorted(sim.routers)))

    assert run() == run()


# -- topology / event script interfaces -----------------------------------


TOPOLOGY_DOC = {
    "routers": [{"id": 0, "asn": 10}, {"id": 1, "asn": 20}, {"id": 2, "asn": 30}],
    "links": [
        {"a": 0, "b": 1, "delay_s": 0.1},
        {"a": 1, "b": 2, "delay_s": 0.2},
    ],
    "peering": [{"router": "30.2", "neighbor": "20.1", "local_pref": 200}],
}


def test_load_topology_and_script_roundtrip():
    sim = load_topology(TOPOLOGY_DOC)
    apply_event_script(sim, [
        {"t": 0.0, "op": "originate", "args": {"router": "10.0", "prefix": "10.0.0.0/24"}},
        {"t": 90.0, "op": "withdraw", "args": {"router": "10.0", "prefix": "10.0.0.0/24"}},
    ])
    sim.run_until(70.0)
    row = best_row(sim, RouterId(30, 2), Prefix.parse("10.0.0.0/24"))
    assert row["local_pref"] == 200  # peering override applied on import
    sim.run_until(200.0)
    assert sim.snapshot_table(RouterId(30, 2)) == []

    assert {rid: router.neighbors for rid, router in sim.routers.items()} == {
        RouterId(10, 0): {RouterId(20, 1): 0.1},
        RouterId(20, 1): {RouterId(10, 0): 0.1, RouterId(30, 2): 0.2},
        RouterId(30, 2): {RouterId(20, 1): 0.2}}


# two routers share index 0, so a bare 0 names neither
SHARED_INDEX_DOC = {"routers": [{"id": 0, "asn": 10}, {"id": 0, "asn": 20},
                                {"id": 1, "asn": 30}],
                    "links": [{"a": 0, "b": 1}]}
ORIGINATE = {"t": 0.0, "op": "originate",
             "args": {"router": "10.0", "prefix": "10.0.0.0/24"}}
FILTER = {"t": 1.0, "op": "install_filter",
          "args": {"router": "20.1", "neighbor": "10.0",
                   "deny_origin": 99, "deny_prefix": "10.0.0.0/24"}}


@pytest.mark.parametrize("doc,events,message", [
    ({}, [], "topology lacks 'routers'"),
    ({"routers": "abc"}, [], "topology: 'routers' is not a list"),
    ({"routers": ["abc"]}, [], "routers[0]: "),
    ({"routers": [{"id": 0}]}, [], "routers[0] lacks 'asn'"),
    ({"routers": [{"id": "x", "asn": 10}]}, [], "routers[0]: invalid literal"),
    ({"routers": [{"id": 0, "asn": 10}, {"id": 0, "asn": 10}]}, [],
     "routers[1]: duplicate router"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 9}]), [],
     "links[0]: unknown router reference 9"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": "nan"}]), [],
     "links[0]: delay_s must be a number, got 'nan'"),
    (dict(TOPOLOGY_DOC, peering=[{"router": 0, "neighbor": 1}]), [],
     "peering[0] lacks 'local_pref'"),
    (TOPOLOGY_DOC, [{"op": "originate", "args": ORIGINATE["args"]}],
     "events[0] lacks 't'"),
    (TOPOLOGY_DOC, [ORIGINATE, dict(ORIGINATE, t=math.nan)],
     "events[1]: t must be finite"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, op="reboot")], "events[0]: unknown script op"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, args={"router": "10.0"})],
     "events[0] lacks 'prefix'"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, args={"router": "10.0", "prefix": "10.0.0/99"})],
     "events[0]: "),
    ({"routers": [{"id": 0.7, "asn": 10}]}, [], "routers[0]: id must be an integer"),
    ({"routers": [{"id": 0, "asn": 10.9}]}, [], "routers[0]: asn must be an integer"),
    ({"routers": [{"id": 0, "asn": 10}, {"id": True, "asn": 20}]}, [],
     "routers[1]: id must be an integer"),
    ({"routers": [{"id": 0, "asn": False}]}, [], "routers[0]: asn must be an integer"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": 0.1},
                               {"a": 1, "b": 0, "delay_s": 5}]), [],
     "links[1]: duplicate link between 20.1 and 10.0"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1}, {"a": 1, "b": 2}, {"a": 0, "b": 1}]),
     [], "links[2]: duplicate link between 10.0 and 20.1"),
    (TOPOLOGY_DOC, [ORIGINATE, dict(ORIGINATE, t=5.0)],
     "events[1]: 10.0 already originates 10.0.0.0/24"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, op="withdraw")],
     "events[0]: 10.0 does not originate 10.0.0.0/24"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, t=-1.0)], "events[0]: cannot schedule at -1.0"),
    (TOPOLOGY_DOC, [ORIGINATE, dict(FILTER, args=dict(FILTER["args"], router="99.9"))],
     "events[1]: unknown router 99.9"),
    (TOPOLOGY_DOC,
     [dict(FILTER, args=dict(FILTER["args"], router="10.0", neighbor="30.2"))],
     "events[0]: 30.2 is not adjacent to 10.0"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], neighbor="99.9"))],
     "events[0]: 99.9 is not adjacent to 20.1"),
    (SHARED_INDEX_DOC, [], "links[0]: ambiguous router reference 0: 10.0 and 20.0 share"),
    (dict(SHARED_INDEX_DOC, links=[{"a": "10.0", "b": 1}],
          peering=[{"router": 1, "neighbor": 0, "local_pref": 200}]), [],
     "peering[0]: ambiguous router reference 0: 10.0 and 20.0 share"),
    (dict(TOPOLOGY_DOC, peering=[{"router": "30.2", "neighbor": "20.1",
                                  "local_pref": 200.7}]), [],
     "peering[0]: local_pref must be an integer, got 200.7"),
    (dict(TOPOLOGY_DOC, peering=[{"router": "30.2", "neighbor": "20.1",
                                  "local_pref": True}]), [],
     "peering[0]: local_pref must be an integer, got True"),
    (dict(TOPOLOGY_DOC, peering=[{"router": "30.2", "neighbor": "10.0",
                                  "local_pref": 200}]), [],
     "peering[0]: 10.0 is not adjacent to 30.2"),
    (dict(TOPOLOGY_DOC, peering=[{"router": "30.2", "neighbor": "20.1",
                                  "local_pref": -1}]), [],
     "peering[0]: local_pref out of range 0..4294967295: -1"),
    (dict(TOPOLOGY_DOC, peering=[{"router": "30.2", "neighbor": "20.1",
                                  "local_pref": 2**32}]), [],
     "peering[0]: local_pref out of range 0..4294967295: 4294967296"),
    (TOPOLOGY_DOC, None, "script: 'events' is not a list"),
    (TOPOLOGY_DOC, 5, "script: 'events' is not a list"),
    (TOPOLOGY_DOC, {}, "script: 'events' is not a list"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": 10**400}]), [],
     "links[0]: int too large to convert to float"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, t=10**400)], "events[0]: int too large"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], deny_origin=math.inf))],
     "events[0]: deny_origin must be an integer, got inf"),
    (dict(TOPOLOGY_DOC, links={}), [], "topology: 'links' is not a list"),
    (dict(TOPOLOGY_DOC, links=0), [], "topology: 'links' is not a list"),
    (dict(TOPOLOGY_DOC, links=False), [], "topology: 'links' is not a list"),
    (dict(TOPOLOGY_DOC, links=None), [], "topology: 'links' is not a list"),
    (dict(TOPOLOGY_DOC, peering={}), [], "topology: 'peering' is not a list"),
    (dict(TOPOLOGY_DOC, peering=None), [], "topology: 'peering' is not a list"),
    # on its own, 10.0 would name router 10.0 through its asn.index text form
    (dict(TOPOLOGY_DOC, links=[{"a": 1, "b": 2}, {"a": 10.0, "b": 1}]), [],
     "links[1]: router reference must be an integer or asn.index, got 10.0"),
    (dict(TOPOLOGY_DOC, links=[{"a": True, "b": 1}]), [],
     "links[0]: router reference must be an integer or asn.index, got True"),
    (dict(TOPOLOGY_DOC, peering=[{"router": "30.2", "neighbor": 1.0,
                                  "local_pref": 200}]), [],
     "peering[0]: router reference must be an integer or asn.index, got 1.0"),
    (TOPOLOGY_DOC, [ORIGINATE, dict(ORIGINATE, t=True, op="withdraw")],
     "events[1]: t must be a number, got True"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, t="5")], "events[0]: t must be a number, got '5'"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, t="nan")],
     "events[0]: t must be a number, got 'nan'"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": True}]), [],
     "links[0]: delay_s must be a number, got True"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": "0.5"}]), [],
     "links[0]: delay_s must be a number, got '0.5'"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": math.nan}]), [],
     "links[0]: delay_s must be finite, got nan"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], deny_origin=99.7))],
     "events[0]: deny_origin must be an integer, got 99.7"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], deny_origin=True))],
     "events[0]: deny_origin must be an integer, got True"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, args=dict(ORIGINATE["args"], router=10.0))],
     "events[0]: expected asn.index text, got 10.0"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], neighbor=10.0))],
     "events[0]: expected asn.index text, got 10.0"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, args=dict(ORIGINATE["args"], prefix=167772160))],
     "events[0]: expected a.b.c.d/len text, got 167772160"),
    # int() would read these as 10.10, 10.0 and 5.0
    ({"routers": [{"id": "1_0", "asn": 10}]}, [],
     "routers[0]: invalid literal for id: '1_0'; expected plain digits"),
    ({"routers": [{"id": 0, "asn": " 10 "}]}, [],
     "routers[0]: invalid literal for asn: ' 10 '; expected plain digits"),
    ({"routers": [{"id": "+5", "asn": 10}]}, [],
     "routers[0]: invalid literal for id: '+5'; expected plain digits"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, args=dict(ORIGINATE["args"], router=" 10.0"))],
     "events[0]: invalid literal for asn: ' 10'; expected plain digits"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], deny_origin="+99"))],
     "events[0]: invalid literal for deny_origin: '+99'; expected plain digits"),
], ids=["empty", "routers-not-list", "router-not-object", "router-lacks-asn",
        "router-id-not-numeric", "duplicate-router", "link-unknown-router",
        "link-delay-nan", "peering-lacks-local-pref", "event-lacks-t", "event-t-nan",
        "event-unknown-op", "event-lacks-prefix", "event-bad-prefix",
        "router-id-fraction", "router-asn-fraction", "router-id-bool", "router-asn-bool",
        "duplicate-link-reversed", "duplicate-link", "event-originates-twice",
        "event-withdraws-unoriginated", "event-in-the-past", "filter-unknown-router",
        "filter-neighbor-not-adjacent", "filter-unknown-neighbor", "link-ambiguous-index",
        "peering-ambiguous-index", "peering-local-pref-fraction", "peering-local-pref-bool",
        "peering-not-adjacent", "peering-local-pref-negative",
        "peering-local-pref-above-32-bits", "script-none", "script-number", "script-object",
        "link-delay-huge", "event-t-huge", "filter-deny-origin-inf", "links-object",
        "links-zero", "links-false", "links-null", "peering-object", "peering-null",
        "link-float-reference", "link-bool-reference", "peering-float-reference",
        "event-t-bool", "event-t-string", "event-t-nan-string", "link-delay-bool",
        "link-delay-string", "link-delay-nan-number", "filter-deny-origin-fraction",
        "filter-deny-origin-bool", "event-router-float", "filter-neighbor-float",
        "event-prefix-number", "router-id-underscore", "router-asn-spaces",
        "router-id-sign", "event-router-space", "filter-deny-origin-sign"])
def test_bad_topology_or_script_names_the_entry(doc, events, message):
    with pytest.raises(SimulationError) as excinfo:
        apply_event_script(load_topology(doc), events)
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("bad_entry,message", [
    ({"op": "withdraw", "args": ORIGINATE["args"]}, "events[1] lacks 't'"),
    (dict(ORIGINATE, t=3.0), "events[1]: 10.0 already originates"),
    (dict(FILTER, args=dict(FILTER["args"], router="99.9")),
     "events[1]: unknown router 99.9"),
    (dict(FILTER, args=dict(FILTER["args"], router="10.0", neighbor="30.2")),
     "events[1]: 30.2 is not adjacent to 10.0"),
    (dict(ORIGINATE, t=True, op="withdraw"), "events[1]: t must be a number, got True"),
    (dict(FILTER, t="5"), "events[1]: t must be a number, got '5'"),
    (dict(FILTER, args=dict(FILTER["args"], deny_origin=99.7)),
     "events[1]: deny_origin must be an integer, got 99.7"),
    (dict(FILTER, args=dict(FILTER["args"], deny_origin=True)),
     "events[1]: deny_origin must be an integer, got True"),
    (dict(ORIGINATE, t=3.0, op="withdraw", args=dict(ORIGINATE["args"], router=10.0)),
     "events[1]: expected asn.index text, got 10.0"),
    (dict(FILTER, args=dict(FILTER["args"], neighbor=10.0)),
     "events[1]: expected asn.index text, got 10.0"),
], ids=["entry-lacks-t", "entry-originates-twice", "filter-unknown-router",
        "filter-neighbor-not-adjacent", "entry-t-bool", "entry-t-string",
        "filter-deny-origin-fraction", "filter-deny-origin-bool", "entry-router-float",
        "filter-neighbor-float"])
def test_bad_script_schedules_nothing_and_a_corrected_retry_succeeds(bad_entry, message):
    sim = load_topology(TOPOLOGY_DOC)
    filter_entry = FILTER
    with pytest.raises(SimulationError) as excinfo:
        apply_event_script(sim, [ORIGINATE, bad_entry, filter_entry])
    assert str(excinfo.value).startswith(message)
    assert sim._queue == []
    assert all(not router.originated for router in sim.routers.values())
    apply_event_script(sim, [ORIGINATE, dict(ORIGINATE, t=90.0, op="withdraw"),
                             filter_entry])
    sim.run_until(70.0)
    assert best_row(sim, RouterId(20, 1), P1) is not None
    assert sim.routers[RouterId(20, 1)].filters
    sim.run_until(200.0)
    assert sim.snapshot_table(RouterId(20, 1)) == []


# Loader fuzzing: a valid topology or script with a few random edits.  An
# edit replaces a value anywhere in the document, or deletes it.  The new
# value is one that breaks a conversion (a huge integer, NaN, an infinity),
# a plausible one (a label, an ASN, an op), or any JSON value.
FUZZ_DOC = {
    "routers": [{"id": 0, "asn": 10}, {"id": 1, "asn": 20}, {"id": 2, "asn": 30},
                {"id": 0, "asn": 40}],
    "links": [{"a": "10.0", "b": 1, "delay_s": 0.1}, {"a": 1, "b": 2},
              {"a": "40.0", "b": 2, "delay_s": 2}],
    "peering": [{"router": 2, "neighbor": 1, "local_pref": 200}],
}
FUZZ_SCRIPT = [
    {"t": 0, "op": "originate", "args": {"router": "10.0", "prefix": "10.0.0.0/24"}},
    {"t": 0.5, "op": "originate", "args": {"router": "40.0", "prefix": "10.0.0.0/24"}},
    {"t": 40, "op": "install_filter",
     "args": {"router": "30.2", "neighbor": "40.0", "deny_origin": 40,
              "deny_prefix": "10.0.0.0/24"}},
    {"t": 90, "op": "withdraw", "args": {"router": "10.0", "prefix": "10.0.0.0/24"}},
]
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)
edit_values = st.one_of(
    st.sampled_from([10**400, math.inf, -math.inf, math.nan]),
    st.sampled_from([0, 1, "1", "007", 1.0, 40, 99, 200.7, True, -1.0, "10.0", "20.1",
                     "40.0", "99.9", "172.16.0.0/20", "10.0.0/99", "withdraw",
                     "install_filter", [], {}]),
    json_scalars, json_values)


def spots(value, path=()):
    """The path of every value in a JSON document, the document's own included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from spots(item, path + (key,))


@st.composite
def edited(draw, base):
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.sampled_from([1, 0, 1, 2, 3]))):
        path = draw(st.sampled_from(list(spots(doc))[::-1]))   # the whole document last
        value = draw(edit_values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=edited(FUZZ_DOC))
def test_load_topology_builds_or_refuses_any_json_document(doc):
    """An accepted topology routes: the base script runs on it when its
    routers and links are still there."""
    try:
        sim = load_topology(doc)
    except SimulationError:
        return
    try:
        apply_event_script(sim, FUZZ_SCRIPT)
    except SimulationError:
        pass
    sim.run_until(200.0)


def queue_state(sim):
    return ({t: list(bucket) for t, bucket in sim._buckets.items()}, sorted(sim._queue),
            {rid: set(router.originated) for rid, router in sim.routers.items()})


@settings(derandomize=True, deadline=None, max_examples=300)
@given(script=edited(FUZZ_SCRIPT))
def test_event_script_schedules_all_or_nothing_for_any_json_script(script):
    """A refused script leaves the queue and the origins as they were; an
    accepted one runs to the end."""
    sim = load_topology(FUZZ_DOC)
    sim.originate_prefix(RouterId(20, 1), P2, 0.5)
    before = queue_state(sim)
    try:
        apply_event_script(sim, script)
    except SimulationError:
        assert queue_state(sim) == before
        return
    sim.run_until(200.0)


def test_shared_index_loads_when_entries_name_routers_in_full():
    sim = load_topology(dict(SHARED_INDEX_DOC,
                             links=[{"a": "10.0", "b": 1}, {"a": "20.0", "b": "30.1"}],
                             peering=[{"router": "20.0", "neighbor": 1, "local_pref": 200}]))
    assert sim.routers[RouterId(30, 1)].neighbors == {RouterId(10, 0): 0.1,
                                                      RouterId(20, 0): 0.1}
    assert sim.routers[RouterId(20, 0)].local_pref_in == {RouterId(30, 1): 200}


def test_numeric_string_id_is_named_by_its_integer():
    sim = load_topology({"routers": [{"id": "007", "asn": 10}, {"id": 1, "asn": 20}],
                         "links": [{"a": 7, "b": 1}]})
    assert sim.routers[RouterId(10, 7)].neighbors == {RouterId(20, 1): 0.1}


@pytest.mark.parametrize("kind", ["single_path", "multi_path", "random"])
def test_generated_topology_documents_load_link_for_link(kind):
    """gen_topology never names a pair twice, so its documents pass the link check."""
    topo = gen_topology(kind, 40, attacks=3, seed=2)
    sim = load_topology(topo.document())
    degrees = [len(router.neighbors) for router in sim.routers.values()]
    assert sum(degrees) == 2 * len(topo.links)
    assert all(sim.routers[a].neighbors[b] == delay for a, b, delay in topo.links)


def test_event_script_filter_op():
    sim = load_topology(TOPOLOGY_DOC)
    apply_event_script(sim, [
        {"t": 0.0, "op": "originate", "args": {"router": "10.0", "prefix": "10.0.0.0/24"}},
        {"t": 1.0, "op": "install_filter",
         "args": {"router": "20.1", "neighbor": "10.0",
                  "deny_origin": 10, "deny_prefix": "10.0.0.0/24"}},
    ])
    sim.run_until(300.0)
    assert sim.snapshot_table(RouterId(20, 1)) == []


# -- network-wide oracle -------------------------------------------------------


def solved_routes(doc, origins, denied=None):
    """The one stable state of the network, solved without the simulation.

    ``origins`` maps each prefix to the one router that originates it.
    The origin keeps its own route; every other router takes the least
    (path length, next hop, path) over its neighbors' best routes as they
    advertise them, skipping a path that holds its own ASN and the routes
    that the filter ``denied`` = (router, neighbor, origin ASN) drops.
    Shortest paths with a fixed tie-break have exactly one stable state,
    which this iteration reaches from no routes.  Returns {(router,
    prefix): (next hop, AS path)}.
    """
    by_id = {r["id"]: RouterId(r["asn"], r["id"]) for r in doc["routers"]}
    rids = list(by_id.values())
    adjacency = {rid: [] for rid in rids}
    for link in doc["links"]:
        a, b = by_id[link["a"]], by_id[link["b"]]
        adjacency[a].append(b)
        adjacency[b].append(a)
    best = {}
    for _ in range(4 * len(rids) + 4):
        solved = {}
        for prefix, origin in origins.items():
            solved[origin, prefix] = (origin, (origin.asn,))
            for rid in rids:
                options = []
                for neighbor in adjacency[rid]:
                    held = best.get((neighbor, prefix))
                    if rid == origin or held is None or (rid, neighbor, origin.asn) == denied:
                        continue
                    hop, path = held
                    path = path if hop == neighbor else (neighbor.asn,) + path
                    if rid.asn not in path:
                        options.append((len(path), neighbor, path))
                if options:
                    solved[rid, prefix] = min(options)[1:]
        if solved == best:
            return best
        best = solved
    raise AssertionError("no fixed point")


def simulated_routes(sim):
    return {(rid, prefix): (route.next_hop, route.as_path)
            for rid, router in sim.routers.items() for prefix, route in router.best.items()}


def run_to_quiescence(sim):
    sim.run_until(sim.clock.now + 1000.0)
    assert not sim._queue


@st.composite
def routed_documents(draw):
    """A connected topology document, one AS per router and no peering
    overrides, and one originating router and time per prefix.

    Each router past the first links to an earlier one, and a few more
    links close cycles.  Two routers in one AS, and withdrawals, are left
    to the ghost-route cases below: on those the plane keeps routes that
    the solver does not find.
    """
    n = draw(st.integers(2, 9))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda pair: pair[0] < pair[1]), max_size=3)))
    delays = st.sampled_from([0.0, 0.1, 0.35, 1.7, 3.0])
    doc = {"routers": [{"id": i, "asn": 10 * (i + 1)} for i in range(n)],
           "links": [{"a": a, "b": b, "delay_s": draw(delays)} for a, b in sorted(pairs)]}
    origins = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.sampled_from([0.0, 0.3, 2.0, 7.5])),
                            min_size=1, max_size=3))
    return doc, origins


def originate_and_settle(doc, script):
    """Load doc, apply the event script and run to quiescence."""
    sim = load_topology(doc, mari=1.0)
    apply_event_script(sim, script)
    run_to_quiescence(sim)
    return sim


@settings(derandomize=True, deadline=None)
@given(routed=routed_documents(), pick=st.tuples(st.integers(0, 8), st.integers(0, 8),
                                                 st.integers(0, 2)))
def test_network_converges_to_the_solved_routes_and_a_filter_removes_only_its_origin(
        routed, pick):
    """Every router's best route is the solver's, whatever the link delays
    and origination times; then an inbound filter at one router changes no
    route of another origin, and leaves none from its neighbor and origin."""
    doc, origins = routed
    # prefix i is originated by router origins[i][0] at time origins[i][1]
    by_prefix = {Prefix.parse(f"10.{i}.0.0/16"): RouterId(10 * (index + 1), index)
                 for i, (index, _) in enumerate(origins)}
    sim = originate_and_settle(doc, [
        {"t": t, "op": "originate", "args": {"router": str(rid), "prefix": str(prefix)}}
        for (prefix, rid), (_, t) in zip(by_prefix.items(), origins)])
    assert simulated_routes(sim) == solved_routes(doc, by_prefix)

    rids = list(sim.routers)
    rid = rids[pick[0] % len(rids)]
    neighbors = sorted(sim.routers[rid].neighbors)
    neighbor = neighbors[pick[1] % len(neighbors)]
    prefixes = list(by_prefix)
    denied = by_prefix[prefixes[pick[2] % len(prefixes)]].asn
    kept = {other: [row for row in sim.snapshot_table(other)
                    if row["as_path"][-1] != denied] for other in rids}
    sim.install_inbound_filter(rid, FilterRule(neighbor, denied, prefixes[0]))
    run_to_quiescence(sim)
    for other in rids:
        rows = sim.snapshot_table(other)
        assert [row for row in rows if row["as_path"][-1] != denied] == kept[other]
    router = sim.routers[rid]
    assert not [route for prefix in router.rib for hop, route in router.table(prefix).items()
                if hop == neighbor and route.origin == denied]


# An announce dropped for a loop leaves the sender's earlier route in the
# receiver's table, where it can win later although the sender no longer
# advertises it.  In the triangle, once the origin withdraws, 20.1 and 30.2
# keep routes through each other.  In the second network, 50.4 keeps the
# first route of 40.3, (40, 60, 20), after 40.3 moves to a path through
# 50.0, the other router of AS 50.  The solver finds no route in either.
GHOST_ROUTES = {
    "withdrawn-origin": (
        {"routers": [{"id": 0, "asn": 10}, {"id": 1, "asn": 20}, {"id": 2, "asn": 30}],
         "links": [{"a": 0, "b": 1}, {"a": 1, "b": 2}, {"a": 0, "b": 2}]},
        [{"t": 0.0, "op": "originate", "args": {"router": "10.0", "prefix": "10.0.0.0/16"}},
         {"t": 100.0, "op": "withdraw", "args": {"router": "10.0", "prefix": "10.0.0.0/16"}}],
        {}),
    "shared-as": (
        {"routers": [{"id": 0, "asn": 50}, {"id": 1, "asn": 20}, {"id": 3, "asn": 40},
                     {"id": 4, "asn": 50}, {"id": 5, "asn": 60}],
         "links": [{"a": 0, "b": 1, "delay_s": 0.0}, {"a": 0, "b": 3, "delay_s": 0.1},
                   {"a": 1, "b": 5, "delay_s": 0.0}, {"a": 3, "b": 4, "delay_s": 0.0},
                   {"a": 3, "b": 5, "delay_s": 0.0}]},
        [{"t": 0.0, "op": "originate", "args": {"router": "20.1", "prefix": "10.0.0.0/16"}}],
        {Prefix.parse("10.0.0.0/16"): RouterId(20, 1)}),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an announce dropped for a loop keeps the sender's earlier route")
@pytest.mark.parametrize("case", sorted(GHOST_ROUTES))
def test_a_dropped_announce_leaves_no_route_of_its_sender(case):
    doc, script, origins = GHOST_ROUTES[case]
    sim = originate_and_settle(doc, script)
    assert simulated_routes(sim) == solved_routes(doc, origins)
