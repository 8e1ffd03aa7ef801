import dataclasses
import heapq
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjack.bgp import (
    ANNOUNCE,
    DEFAULT_LOCAL_PREF,
    FilterRule,
    Route,
    SimClock,
    Simulation,
    SimulationError,
    UpdateMessage,
    _unchecked_route,
    apply_event_script,
    dump_topology,
    load_topology,
    route_rank,
    select_best,
    snapshot_json,
)
from blockjack.topology import gen_topology
from blockjack.types import MAX_ASN, Prefix, RouterId

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("172.16.0.0/20")
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


def inline_key(r):
    """The preference order written out from the route's own fields."""
    return (-r.weight, -r.local_pref, len(r.as_path), r.med, r.next_hop, r.as_path)


def brute_force_best(candidates):
    """Independent oracle: full sort of the attribute tuple."""
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


@pytest.mark.parametrize("path", [(), (20, 30, 20), (20, 0), (20, MAX_ASN + 1)],
                         ids=["empty", "loop", "asn-zero", "asn-too-large"])
def test_route_constructor_rejects_bad_paths(path):
    with pytest.raises(ValueError):
        Route(prefix=P1, next_hop=B, as_path=path)


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
    for route in routes:
        assert route.rank == inline_key(route)


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
              for table in router.rib.values() for route in table.values()]
    assert any(route.local_pref == 200 for route in stored)
    for route in stored:
        assert route.rank == inline_key(route)


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


def test_loop_prevention_drops_and_leaves_table_unchanged():
    sim = line(A, B)
    msg = UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1, delivery_time=0.0,
                        route=Route(prefix=P1, next_hop=B, as_path=(20, 10)))
    action, delta = sim.process_update(A, msg)
    assert action == "dropped-loop"
    assert sim.snapshot_table(A) == []


def test_receiver_stores_the_advert_itself():
    sim = line(A, B)
    advert = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1,
                                        delivery_time=0.0, route=advert))
    assert sim.routers[A].rib[P1][B] is advert
    # through the plane, both of A's neighbors hold A's one advert
    sim = triangle()
    sim.originate_prefix(A, P1, 0.0)
    sim.run_until(30.1)
    assert sim.routers[B].rib[P1][A] is sim.routers[C].rib[P1][A]


def test_announce_must_name_its_sender_as_next_hop():
    # one advert object under two senders would make two rows best
    sim = triangle()
    advert = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1,
                                        delivery_time=0.0, route=advert))
    with pytest.raises(SimulationError):
        sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=C, prefix=P1,
                                            delivery_time=0.0, route=advert))
    assert [row["is_best"] for row in sim.snapshot_table(A)] == [True]


def test_receiver_with_override_stores_its_own_copy():
    sim = line(A, B)
    sim.routers[A].local_pref_in[B] = 250
    advert = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1,
                                        delivery_time=0.0, route=advert))
    stored = sim.routers[A].rib[P1][B]
    assert stored is not advert
    assert stored.local_pref == 250 and advert.local_pref == DEFAULT_LOCAL_PREF
    assert stored.rank == inline_key(stored)


def test_filter_drops_matching_update():
    sim = line(A, B)
    sim.install_inbound_filter(A, FilterRule(neighbor=B, deny_origin=99,
                                             deny_prefix=P1))
    msg = UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1, delivery_time=0.0,
                        route=Route(prefix=P1, next_hop=B, as_path=(20, 99)))
    action, _ = sim.process_update(A, msg)
    assert action == "dropped-filter"
    assert sim.snapshot_table(A) == []
    # a different origin via the same neighbor still installs
    msg2 = UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1, delivery_time=0.0,
                         route=Route(prefix=P1, next_hop=B, as_path=(20, 50)))
    action, _ = sim.process_update(A, msg2)
    assert action == "installed"


def test_shorter_path_replaces_best():
    sim = triangle()
    long_route = Route(prefix=P1, next_hop=C, as_path=(30, 50, 40))
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=C, prefix=P1,
                                        delivery_time=0.0, route=long_route))
    assert best_row(sim, A, P1)["as_path"] == (30, 50, 40)
    short_route = Route(prefix=P1, next_hop=B, as_path=(20, 40))
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1,
                                        delivery_time=0.0, route=short_route))
    assert best_row(sim, A, P1)["as_path"] == (20, 40)


def test_invalid_route_is_listed_but_never_selected():
    sim = triangle()
    # shorter than the valid route below, so it would win if it were valid
    invalid = Route(prefix=P1, next_hop=B, as_path=(20, 40), is_valid=False)
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=B, prefix=P1,
                                        delivery_time=0.0, route=invalid))
    assert best_row(sim, A, P1) is None
    [row] = json.loads(snapshot_json(sim, A))
    assert row["is_valid"] is False and row["is_best"] is False
    valid = Route(prefix=P1, next_hop=C, as_path=(30, 50, 40))
    sim.process_update(A, UpdateMessage(kind=ANNOUNCE, sender=C, prefix=P1,
                                        delivery_time=0.0, route=valid))
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

ring_steps = st.lists(st.one_of(
    st.tuples(st.just("originate"), st.integers(0, 4), st.sampled_from([P1, P2])),
    st.tuples(st.just("withdraw"), st.integers(0, 4), st.sampled_from([P1, P2])),
    # router, and a pick among the (neighbor, origin) pairs it could deny
    st.tuples(st.just("filter"), st.integers(0, 4), st.integers(0, 24)),
    # mari is 1 s: a route crosses one hop per boundary, so most runs
    # move several hops
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 5.0])),
), min_size=4, max_size=40)


def check_best_is_recorded_once(sim, seen):
    """router.best is the oracle's pick, the only best row, over unchanged routes.

    ``seen`` maps id(route) to (route, its field values when first seen);
    holding the route keeps its id from being reused.
    """
    for rid, router in sim.routers.items():
        rows = sim.snapshot_table(rid)
        for prefix in set(router.rib) | set(router.best):
            table = router.rib.get(prefix, {})
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
    sim = Simulation(mari=1.0)
    for rid in RING:
        sim.add_router(rid)
    for a, b, delay in RING_LINKS:
        sim.add_link(RING[a], RING[b], delay)
    for (a, b), local_pref in overrides.items():
        sim.routers[RING[a]].local_pref_in[RING[b]] = local_pref
    seen = {}
    for kind, *args in steps:
        if kind == "run":
            sim.run_until(sim.clock.now + args[0])
        elif kind == "filter":
            # deny a route the router holds, if any, so most filters purge one
            rid = RING[args[0]]
            router = sim.routers[rid]
            pairs = sorted({(sender, route.origin) for table in router.rib.values()
                            for sender, route in table.items() if sender != rid}
                           ) or [(n, r.asn) for n in sorted(router.neighbors) for r in RING]
            neighbor, origin = pairs[args[1] % len(pairs)]
            sim.install_inbound_filter(rid, FilterRule(neighbor=neighbor, deny_origin=origin,
                                                       deny_prefix=P1))
        else:
            rid, prefix = RING[args[0]], args[1]
            originated = prefix in sim.routers[rid].originated
            if kind == "originate" and not originated:
                sim.originate_prefix(rid, prefix)
            elif kind == "withdraw" and originated:
                sim.withdraw_prefix(rid, prefix)
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

    doc = dump_topology(sim)
    assert {(l["a"], l["b"]) for l in doc["links"]} == {(0, 1), (1, 2)}
    assert json.dumps(doc, sort_keys=True)  # JSON-serializable


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
     "links[0]: link delay must be finite"),
    (dict(TOPOLOGY_DOC, peering=[{"router": 0, "neighbor": 1}]), [],
     "peering[0] lacks 'local_pref'"),
    (TOPOLOGY_DOC, [{"op": "originate", "args": ORIGINATE["args"]}],
     "events[0] lacks 't'"),
    (TOPOLOGY_DOC, [ORIGINATE, dict(ORIGINATE, t="nan")],
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
    (TOPOLOGY_DOC, None, "script: 'events' is not a list"),
    (TOPOLOGY_DOC, 5, "script: 'events' is not a list"),
    (TOPOLOGY_DOC, {}, "script: 'events' is not a list"),
    (dict(TOPOLOGY_DOC, links=[{"a": 0, "b": 1, "delay_s": 10**400}]), [],
     "links[0]: int too large to convert to float"),
    (TOPOLOGY_DOC, [dict(ORIGINATE, t=10**400)], "events[0]: int too large"),
    (TOPOLOGY_DOC, [dict(FILTER, args=dict(FILTER["args"], deny_origin=math.inf))],
     "events[0]: cannot convert float infinity to integer"),
], ids=["empty", "routers-not-list", "router-not-object", "router-lacks-asn",
        "router-id-not-numeric", "duplicate-router", "link-unknown-router",
        "link-delay-nan", "peering-lacks-local-pref", "event-lacks-t", "event-t-nan",
        "event-unknown-op", "event-lacks-prefix", "event-bad-prefix",
        "router-id-fraction", "router-asn-fraction", "router-id-bool", "router-asn-bool",
        "duplicate-link-reversed", "duplicate-link", "event-originates-twice",
        "event-withdraws-unoriginated", "event-in-the-past", "filter-unknown-router",
        "filter-neighbor-not-adjacent", "filter-unknown-neighbor", "link-ambiguous-index",
        "peering-ambiguous-index", "peering-local-pref-fraction", "peering-local-pref-bool",
        "peering-not-adjacent", "script-none", "script-number", "script-object",
        "link-delay-huge", "event-t-huge", "filter-deny-origin-inf"])
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
], ids=["entry-lacks-t", "entry-originates-twice", "filter-unknown-router",
        "filter-neighbor-not-adjacent"])
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
    assert len(dump_topology(sim)["links"]) == len(topo.links)


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
