"""Deterministic discrete-event network simulator.

A single virtual clock drives every node; messages travel static
shortest-delay routes and arrive after the sum of per-hop propagation,
seeded jitter and size/bandwidth transfer terms. Identical (topology, seed)
always replays the identical event trace.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import ConfigInvalidError, NoRouteError, SimulationLimitError


class NodeRole(Enum):
    DEVICE = "device"
    EDGE_WORKER = "edge"
    CLOUD = "cloud"


@dataclass(frozen=True)
class Node:
    id: str
    role: NodeRole


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    delay_ms: float
    jitter_ms: float = 0.0
    bandwidth_bytes_per_s: float = 100e6


class Topology:
    def __init__(self, nodes: list[Node], links: list[Link]):
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigInvalidError("duplicate node ids in topology")
        self.nodes = {n.id: n for n in nodes}
        self.links: dict[frozenset, Link] = {}
        for link in links:
            if link.a not in self.nodes or link.b not in self.nodes:
                raise ConfigInvalidError(f"link {link.a}-{link.b} references unknown node")
            if link.a == link.b:
                raise ConfigInvalidError(f"self-link on {link.a}")
            if link.delay_ms < 0 or link.jitter_ms < 0:
                raise ConfigInvalidError("link delay and jitter must be >= 0")
            if link.bandwidth_bytes_per_s <= 0:
                raise ConfigInvalidError("link bandwidth must be > 0")
            key = frozenset((link.a, link.b))
            if key in self.links:
                raise ConfigInvalidError(f"duplicate link {link.a}-{link.b}")
            self.links[key] = link
        self._adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        for key in self.links:
            a, b = sorted(key)
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        for peers in self._adjacency.values():
            peers.sort()

    def by_role(self, role: NodeRole) -> list[str]:
        return [n.id for n in self.nodes.values() if n.role is role]

    def link_between(self, a: str, b: str) -> Link:
        try:
            return self.links[frozenset((a, b))]
        except KeyError:
            raise NoRouteError(f"no link between {a} and {b}") from None

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._adjacency[node])
        return len(seen) == len(self.nodes)

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Minimal-total-delay route; deterministic tie-break by node id."""
        if src not in self.nodes or dst not in self.nodes:
            raise NoRouteError(f"unknown endpoint in route {src}->{dst}")
        if src == dst:
            return [src]
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str] = {}
        heap: list[tuple[float, str]] = [(0.0, src)]
        done: set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node == dst:
                break
            for peer in self._adjacency[node]:
                if peer in done:
                    continue
                nd = d + self.link_between(node, peer).delay_ms
                better = peer not in dist or nd < dist[peer]
                tie = peer in dist and nd == dist[peer] and node < prev.get(peer, node)
                if better or tie:
                    dist[peer] = nd
                    prev[peer] = node
                    heapq.heappush(heap, (nd, peer))
        if dst not in dist:
            raise NoRouteError(f"no route from {src} to {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def path_delay_ms(self, src: str, dst: str) -> float:
        """Sum of one-way link delays along the route (no jitter/transfer)."""
        path = self.shortest_path(src, dst)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.link_between(a, b).delay_ms
        return total


@dataclass(order=True)
class SimEvent:
    fire_at: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class Simulator:
    """Virtual clock plus event heap; (fire_at, seq) ordering is total."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._heap: list[SimEvent] = []
        self._seq = 0
        self.trace: list[dict] = []

    def time(self) -> float:
        return self.now

    def log(self, kind: str, **fields) -> None:
        self.trace.append({"ts": self.now, "kind": kind, **fields})

    def schedule(self, delay_ms: float, action: Callable[[], None], label: str = "") -> SimEvent:
        if delay_ms < 0:
            raise ValueError("events cannot be scheduled in the past")
        return self.schedule_at(self.now + delay_ms, action, label)

    def schedule_at(self, fire_at: float, action: Callable[[], None], label: str = "") -> SimEvent:
        if fire_at < self.now:
            raise ValueError("events cannot be scheduled in the past")
        self._seq += 1
        event = SimEvent(fire_at, self._seq, action, label)
        heapq.heappush(self._heap, event)
        return event

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        executed = 0
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if executed >= max_events:
                raise SimulationLimitError(f"simulation exceeded {max_events} events")
            assert event.fire_at >= self.now
            self.now = event.fire_at
            event.action()
            executed += 1
        return executed


class Network:
    """Message transport over a topology, bound to one simulator.

    A payload is handed to the receiving node's handler as it was sent: a
    message object or its bytes. The network never reads it; the size passed
    with it sets the transfer time.
    """

    def __init__(self, sim: Simulator, topology: Topology):
        self.sim = sim
        self.topology = topology
        self._handlers: dict[str, Callable[[object, str], None]] = {}
        self._routes: dict[tuple[str, str], list[str]] = {}

    def attach(self, node_id: str, handler: Callable[[object, str], None]) -> None:
        self._handlers[node_id] = handler

    def route(self, src: str, dst: str) -> list[str]:
        key = (src, dst)
        if key not in self._routes:
            self._routes[key] = self.topology.shortest_path(src, dst)
        return self._routes[key]

    def hop_latency_ms(self, link: Link, size_bytes: int) -> float:
        jitter = self.sim.rng.uniform(0.0, link.jitter_ms) if link.jitter_ms > 0 else 0.0
        return link.delay_ms + jitter + size_bytes / link.bandwidth_bytes_per_s * 1000.0

    def send(self, frm: str, to: str, payload: object, size_bytes: int) -> float:
        """Schedule a delivery; returns the virtual arrival time."""
        path = self.route(frm, to)
        arrival = self.sim.now
        for a, b in zip(path, path[1:]):
            arrival += self.hop_latency_ms(self.link(a, b), size_bytes)
        self.sim.log("send", frm=frm, to=to, size=size_bytes, arrival=arrival)

        def deliver() -> None:
            self.sim.log("deliver", frm=frm, to=to, size=size_bytes)
            self._handlers[to](payload, frm)

        self.sim.schedule_at(arrival, deliver, label=f"deliver {frm}->{to}")
        return arrival

    def link(self, a: str, b: str) -> Link:
        return self.topology.link_between(a, b)

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        path = self.route(src, dst)
        return min(
            self.link(a, b).bandwidth_bytes_per_s for a, b in zip(path, path[1:])
        )


@dataclass(frozen=True)
class LatencySample:
    scenario: str
    mode: str  # "cloud" | "edge"
    operation: str  # "create" | "retrieve" | "prepare"
    request_index: int
    rtt_ms: float
