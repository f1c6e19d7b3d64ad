"""Deterministic discrete-event network simulator.

A single virtual clock drives every node; messages travel static
shortest-delay routes and arrive after the sum of per-hop propagation,
seeded jitter and size/bandwidth transfer terms. Identical (topology, seed)
always replays the identical event trace.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Generator

from .errors import ConfigInvalidError, EdgeSliceError, NoRouteError, SimulationLimitError

#: events one ``Simulator.run_until_idle`` call may execute unless told otherwise
DEFAULT_MAX_EVENTS = 1_000_000


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
    """Nodes and links, fixed once built. Routes and their links are computed
    once per (source, destination) pair and shared by all that read them."""

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
            if not (0 <= link.delay_ms < math.inf and 0 <= link.jitter_ms < math.inf):
                raise ConfigInvalidError(
                    f"link {link.a}-{link.b}: delay and jitter must be finite and >= 0"
                )
            if not 0 < link.bandwidth_bytes_per_s < math.inf:
                raise ConfigInvalidError(f"link {link.a}-{link.b}: bandwidth must be finite and > 0")
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
        self._routes: dict[tuple[str, str], tuple[str, ...]] = {}
        self._route_links: dict[tuple[str, str], tuple[Link, ...]] = {}

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

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        """The minimal-total-delay route, ties broken by node id, as a
        shared tuple computed on first use."""
        key = (src, dst)
        try:
            return self._routes[key]
        except KeyError:
            path = self._routes[key] = tuple(self._dijkstra(src, dst))
            return path

    def route_links(self, src: str, dst: str) -> tuple[Link, ...]:
        """The links along ``route(src, dst)``, computed on first use."""
        links = self._route_links.get((src, dst))
        if links is None:
            path = self.route(src, dst)
            links = self._route_links[(src, dst)] = tuple(map(self.link_between, path, path[1:]))
        return links

    def _dijkstra(self, src: str, dst: str) -> list[str]:
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
        total = 0.0
        for link in self.route_links(src, dst):
            total += link.delay_ms
        return total


def is_full_trace(level: str) -> bool:
    """What a trace level records in ``Simulator.trace`` and ``EdgeWorker.log``:
    ``control`` the control-plane milestones, worker lifecycle and refused
    dispatches; ``full`` also every message's send and delivery and every
    executed dispatch."""
    if level not in ("control", "full"):
        raise ConfigInvalidError(f"unknown trace level {level!r}")
    return level == "full"


class Simulator:
    """Virtual clock plus a heap of (fire_at, seq, action); the order is total."""

    def __init__(self, seed: int = 0, trace: str = "control"):
        self.now = 0.0
        self._seed = seed
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.trace_level = trace
        self.full_trace = is_full_trace(trace)
        self.trace: list[dict] = []

    @cached_property
    def rng(self) -> random.Random:
        """The jitter stream, seeded on first use: without jitter, never."""
        return random.Random(self._seed)

    def time(self) -> float:
        return self.now

    def log(self, kind: str, **fields) -> None:
        self.trace.append({"ts": self.now, "kind": kind, **fields})

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> None:
        if delay_ms < 0:
            raise ValueError("events cannot be scheduled in the past")
        self.schedule_at(self.now + delay_ms, action)

    def schedule_at(self, fire_at: float, action: Callable[[], None]) -> None:
        if not self.now <= fire_at < math.inf:
            if fire_at < self.now:
                raise ValueError("events cannot be scheduled in the past")
            raise ValueError(f"event time must be finite, not {fire_at!r}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (fire_at, seq, action))

    def process(self, gen: Generator, on_error: Callable[[EdgeSliceError], None] | None = None,
                mailbox: dict | None = None, value: object = None) -> None:
        """Run the process ``gen`` to its next wait, sending it ``value``,
        which its last ``yield`` returns. What it yields is what it waits for:
        a number is a delay in ms; a callable, such as a channel's
        ``when_idle``, is handed the resume; anything else is a key of
        ``mailbox``, or a list of keys, each bound to the resume. The first
        key called resumes it; the others stay bound, so the process must wait
        on them next. The resume is this bound method, so no process refers to
        itself. A package error the process raises ends it and goes to
        ``on_error``, or propagates if there is none."""
        try:
            wait = gen.send(value)
        except StopIteration:
            return
        except EdgeSliceError as exc:
            if on_error is None:
                raise
            on_error(exc)
            return
        resume = partial(self.process, gen, on_error, mailbox)
        if callable(wait):
            wait(resume)
        elif isinstance(wait, (int, float)):
            self.schedule(wait, resume)
        else:
            for key in wait if isinstance(wait, list) else (wait,):
                mailbox[key] = resume

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Run every scheduled event; more than ``max_events`` (by default
        ``DEFAULT_MAX_EVENTS``) raises ``SimulationLimitError`` and leaves
        the rest scheduled."""
        if max_events is None:
            max_events = DEFAULT_MAX_EVENTS
        executed = 0
        while self._heap:
            if executed >= max_events:
                raise SimulationLimitError(f"simulation exceeded {max_events} events")
            fire_at, _, action = heapq.heappop(self._heap)
            self.now = fire_at
            action()
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

    def attach(self, node_id: str, handler: Callable[[object, str], None]) -> None:
        self._handlers[node_id] = handler

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        return self.topology.route(src, dst)

    def hop_latency_ms(self, link: Link, size_bytes: int) -> float:
        jitter = self.sim.rng.uniform(0.0, link.jitter_ms) if link.jitter_ms > 0 else 0.0
        return link.delay_ms + jitter + size_bytes / link.bandwidth_bytes_per_s * 1000.0

    def send(self, frm: str, to: str, payload: object, size_bytes: int) -> float:
        """Schedule a delivery; returns the virtual arrival time."""
        arrival = self.sim.now
        for link in self.topology.route_links(frm, to):
            arrival += self.hop_latency_ms(link, size_bytes)
        full = self.sim.full_trace
        if full:
            self.sim.log("send", frm=frm, to=to, size=size_bytes, arrival=arrival)

        def deliver() -> None:
            if full:
                self.sim.log("deliver", frm=frm, to=to, size=size_bytes)
            self._handlers[to](payload, frm)

        self.sim.schedule_at(arrival, deliver)
        return arrival

    def link(self, a: str, b: str) -> Link:
        return self.topology.link_between(a, b)

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        return min(link.bandwidth_bytes_per_s for link in self.topology.route_links(src, dst))


@dataclass(frozen=True)
class LatencySample:
    scenario: str
    mode: str  # "cloud" | "edge"
    operation: str  # "create" | "retrieve" | "prepare"
    request_index: int
    rtt_ms: float
