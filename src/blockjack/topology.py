"""Scenario topologies: binary trees, peered trees, seeded random graphs.

Routers are numbered 0..n-1 with one AS each (ASN = base + index); the
tree scenarios use heap numbering, so node i's children are 2i+1 and
2i+2 and the monitored router sits at the root.  Victim prefixes live
on the deepest leaves under the root's first child; adversaries sit one
level higher in the other child's subtree, which keeps the hijacked
path strictly shorter at the root, so every injected attack actually
takes over the table there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .types import RouterId

ASN_BASE = 64512
# Connected draws tried per random topology before giving up.
MAX_ATTEMPTS = 64

SINGLE_PATH = "single_path"
MULTI_PATH = "multi_path"
RANDOM = "random"
KINDS = (SINGLE_PATH, MULTI_PATH, RANDOM)


class TopologyError(Exception):
    """Unsatisfiable topology configuration."""


@dataclass
class ScenarioTopology:
    kind: str
    routers: list[RouterId]
    links: list[tuple[RouterId, RouterId, float]]
    dispatcher: RouterId
    victims: list[RouterId]
    adversaries: list[RouterId]

    def document(self) -> dict:
        return {
            "routers": [{"id": rid.index, "asn": rid.asn} for rid in self.routers],
            "links": [{"a": a.index, "b": b.index, "delay_s": delay}
                      for a, b, delay in self.links],
        }


def node_depth(i: int) -> int:
    return (i + 1).bit_length() - 1


def root_child_of(i: int) -> int:
    """Which depth-1 subtree (1 or 2) node i belongs to; 0 for the root."""
    while i > 2:
        i = (i - 1) // 2
    return i


def _rid(i: int) -> RouterId:
    return RouterId(ASN_BASE + i, i)


def _tree_links(rids: list[RouterId],
                delay: float) -> list[tuple[RouterId, RouterId, float]]:
    return [(rids[(i - 1) // 2], rids[i], delay) for i in range(1, len(rids))]


def _level_peer_links(rids: list[RouterId],
                      delay: float) -> list[tuple[RouterId, RouterId, float]]:
    """Peer every pair of same-depth nodes (the multi-path variant)."""
    by_depth: dict[int, list[RouterId]] = {}
    for i, rid in enumerate(rids):
        by_depth.setdefault(node_depth(i), []).append(rid)
    links = []
    for level in sorted(by_depth):
        nodes = by_depth[level]
        for x in range(len(nodes)):
            for y in range(x + 1, len(nodes)):
                links.append((nodes[x], nodes[y], delay))
    return links


def _tree_placement(rids: list[RouterId],
                    attacks: int) -> tuple[list[RouterId], list[RouterId]]:
    """Victims: deepest leaves under child 1; adversaries: one level
    shallower under child 2 (never on a victim's path to the root)."""
    n = len(rids)
    depth_max = node_depth(n - 1)
    if depth_max < 2:
        raise TopologyError(f"tree of {n} routers is too shallow to place attacks")
    victims = [i for i in range(n)
               if node_depth(i) == depth_max and root_child_of(i) == 1]
    adversaries = [i for i in range(n)
                   if node_depth(i) == depth_max - 1 and root_child_of(i) == 2]
    if not victims or not adversaries:
        raise TopologyError(f"no victim/adversary slots in a tree of {n} routers")
    victims = [victims[k % len(victims)] for k in range(attacks)]
    adversaries = [adversaries[k % len(adversaries)] for k in range(attacks)]
    return [rids[i] for i in victims], [rids[i] for i in adversaries]


def tree_topology(kind: str, n: int, attacks: int, delay: float) -> ScenarioTopology:
    if n < 3:
        raise TopologyError(f"need at least 3 routers, got {n}")
    rids = [_rid(i) for i in range(n)]
    links = _tree_links(rids, delay)
    if kind == MULTI_PATH:
        links = links + _level_peer_links(rids, delay)
    victims, adversaries = _tree_placement(rids, attacks)
    return ScenarioTopology(kind=kind,
                            routers=rids,
                            links=links,
                            dispatcher=rids[0],
                            victims=victims,
                            adversaries=adversaries)


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for peer in adjacency[stack.pop()]:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    return len(seen) == n


def random_topology(n: int, connectivity: float, attacks: int, seed: int,
                    delay: float) -> ScenarioTopology:
    """Edge-probability random graph, regenerated until connected.

    Each retry draws from a derived seed (seed, attempt) so the whole
    construction stays reproducible.
    """
    if n < 3:
        raise TopologyError(f"need at least 3 routers, got {n}")
    if not 0.0 < connectivity <= 1.0:
        raise TopologyError(f"connectivity must be in (0, 1]: {connectivity}")
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"topology:{seed}:{attempt}")
        edges = {(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < connectivity}
        if _connected(n, edges):
            placement = random.Random(f"placement:{seed}")
            dispatcher = placement.randrange(n)
            others = [i for i in range(n) if i != dispatcher]
            victims = placement.sample(others, attacks)
            remaining = [i for i in others if i not in victims]
            adversaries = placement.sample(remaining, min(attacks, len(remaining)))
            adversaries = [adversaries[k % len(adversaries)] for k in range(attacks)]
            rids = [_rid(i) for i in range(n)]
            return ScenarioTopology(
                kind=RANDOM,
                routers=rids,
                links=[(rids[a], rids[b], delay) for a, b in sorted(edges)],
                dispatcher=rids[dispatcher],
                victims=[rids[i] for i in victims],
                adversaries=[rids[i] for i in adversaries])
    raise TopologyError(
        f"could not draw a connected graph (n={n}, connectivity={connectivity})")


def gen_topology(kind: str, n: int, attacks: int, seed: int = 0,
                 connectivity: float = 0.25,
                 delay: float = 0.1) -> ScenarioTopology:
    if kind in (SINGLE_PATH, MULTI_PATH):
        return tree_topology(kind, n, attacks, delay)
    if kind == RANDOM:
        return random_topology(n, connectivity, attacks, seed, delay)
    raise TopologyError(f"unknown scenario kind: {kind}")
