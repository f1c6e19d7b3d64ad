import itertools
import random
from functools import partial

import pytest

from edgeslice.errors import (
    ConfigInvalidError,
    EdgeSliceError,
    NoRouteError,
    SimulationLimitError,
)
from edgeslice.netsim import Link, Network, Node, NodeRole, Simulator, Topology


def chain_topology(jitter=0.0):
    return Topology(
        [
            Node("dev0", NodeRole.DEVICE),
            Node("edge0", NodeRole.EDGE_WORKER),
            Node("cloud", NodeRole.CLOUD),
        ],
        [
            Link("dev0", "edge0", delay_ms=1.0, jitter_ms=jitter, bandwidth_bytes_per_s=1e8),
            Link("edge0", "cloud", delay_ms=15.0, jitter_ms=jitter, bandwidth_bytes_per_s=1e8),
        ],
    )


class TestTopologyValidation:
    def test_duplicate_link_rejected(self):
        nodes = [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)]
        with pytest.raises(ConfigInvalidError):
            Topology(nodes, [Link("a", "b", 1.0), Link("b", "a", 2.0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigInvalidError):
            Topology([Node("a", NodeRole.DEVICE)], [Link("a", "ghost", 1.0)])

    def test_bad_numbers_rejected(self):
        nodes = [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)]
        with pytest.raises(ConfigInvalidError):
            Topology(nodes, [Link("a", "b", -1.0)])
        with pytest.raises(ConfigInvalidError):
            Topology(nodes, [Link("a", "b", 1.0, bandwidth_bytes_per_s=0)])

    @pytest.mark.parametrize(
        "numbers",
        [
            {"delay_ms": float("nan")},
            {"delay_ms": float("inf")},
            {"jitter_ms": float("nan")},
            {"jitter_ms": float("inf")},
            {"bandwidth_bytes_per_s": float("nan")},
            {"bandwidth_bytes_per_s": float("inf")},
        ],
        ids=lambda numbers: "{}={}".format(*next(iter(numbers.items()))),
    )
    def test_non_finite_link_numbers_rejected(self, numbers):
        nodes = [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)]
        link = Link("a", "b", **{"delay_ms": 1.0, **numbers})
        with pytest.raises(ConfigInvalidError):
            Topology(nodes, [link])

    def test_connectivity_check(self):
        nodes = [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)]
        assert not Topology(nodes, []).is_connected()
        assert Topology(nodes, [Link("a", "b", 1.0)]).is_connected()


def brute_force_delay(topo, src, dst) -> float:
    """Least total delay over every simple path, by enumeration."""
    best = None
    stack = [(src, (src,), 0.0)]
    while stack:
        node, path, delay = stack.pop()
        if node == dst:
            best = delay if best is None else min(best, delay)
            continue
        for peer in topo.nodes:
            if peer not in path and frozenset((node, peer)) in topo.links:
                stack.append((peer, path + (peer,), delay + topo.link_between(node, peer).delay_ms))
    return best


class TestRouting:
    def test_chain_route(self):
        topo = chain_topology()
        assert topo.route("dev0", "cloud") == ("dev0", "edge0", "cloud")
        assert topo.path_delay_ms("dev0", "cloud") == 16.0

    def test_route_prefers_lower_total_delay(self):
        topo = Topology(
            [
                Node("a", NodeRole.DEVICE),
                Node("b", NodeRole.EDGE_WORKER),
                Node("c", NodeRole.CLOUD),
            ],
            [Link("a", "b", 1.0), Link("b", "c", 1.0), Link("a", "c", 5.0)],
        )
        assert topo.route("a", "c") == ("a", "b", "c")

    @pytest.mark.parametrize("seed", range(6))
    def test_memoized_routes_equal_a_fresh_search_on_topologies_with_ties(self, seed):
        rng = random.Random(seed)
        names = [f"n{i}" for i in rng.sample(range(10), 7)]
        nodes = [Node(name, NodeRole.EDGE_WORKER) for name in names]
        # few distinct delays, so equal-delay routes abound; zero-delay links too
        links = [
            Link(a, b, rng.choice([0.0, 1.0, 1.0, 2.0]))
            for a, b in itertools.combinations(names, 2)
            if rng.random() < 0.45
        ]
        topo = Topology(nodes, links)
        pairs = [(a, b) for a in names for b in names] * 2
        rng.shuffle(pairs)
        for src, dst in pairs:
            try:
                expected = Topology(nodes, links).route(src, dst)
            except NoRouteError:
                with pytest.raises(NoRouteError):
                    topo.route(src, dst)
                continue
            assert topo.route(src, dst) == expected
            assert topo.path_delay_ms(src, dst) == brute_force_delay(topo, src, dst)

    def test_a_returned_route_can_be_changed_without_touching_the_memo(self):
        topo = chain_topology()
        route = list(topo.route("dev0", "cloud"))  # the memo holds a tuple, so a copy to change
        route.reverse()
        route.append("elsewhere")
        assert topo.route("dev0", "cloud") == ("dev0", "edge0", "cloud")
        assert Network(Simulator(), topo).route("dev0", "cloud") == ("dev0", "edge0", "cloud")

    def test_networks_on_one_topology_share_its_routes(self):
        topo = chain_topology()
        first, second = Network(Simulator(), topo), Network(Simulator(1), topo)
        assert first.route("dev0", "cloud") is second.route("dev0", "cloud")

    def test_no_route(self):
        topo = Topology(
            [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)], []
        )
        with pytest.raises(NoRouteError):
            topo.route("a", "b")


class TestSimulator:
    def test_events_fire_in_time_then_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(5.0, lambda: order.append("c"))
        sim.run_until_idle()
        assert order == ["a", "b", "c"]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("fire_at", [float("nan"), float("inf")])
    def test_non_finite_event_time_rejected(self, fire_at):
        sim = Simulator()
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_at(fire_at, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            sim.schedule(fire_at, lambda: None)
        assert sim.run_until_idle() == 0

    def test_causality_clock_never_rewinds(self):
        sim = Simulator(seed=3)
        stamps = []

        def tick(depth):
            stamps.append(sim.now)
            if depth:
                sim.schedule(sim.rng.uniform(0, 2), lambda: tick(depth - 1))
                sim.schedule(0.0, lambda: stamps.append(sim.now))

        sim.schedule(0.0, lambda: tick(10))
        sim.run_until_idle()
        assert stamps == sorted(stamps)

    def test_event_cap_raises_a_package_error(self):
        sim = Simulator()
        fired = []

        def forever():
            fired.append(sim.now)
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationLimitError, match="exceeded 5 events"):
            sim.run_until_idle(max_events=5)
        assert len(fired) == 5
        assert issubclass(SimulationLimitError, EdgeSliceError)

    def test_event_cap_counts_executed_events_only(self):
        sim = Simulator()
        for delay in range(5):
            sim.schedule(float(delay), lambda: None)
        assert sim.run_until_idle(max_events=5) == 5
        assert sim.run_until_idle(max_events=0) == 0

    def test_the_event_cap_loses_no_event(self):
        sim = Simulator()
        fired = []
        for index in range(6):
            sim.schedule(float(index), partial(fired.append, index))
        with pytest.raises(SimulationLimitError):
            sim.run_until_idle(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.run_until_idle() == 3
        assert fired == [0, 1, 2, 3, 4, 5]


class TestProcess:
    def test_a_delay_resumes_the_process_that_much_later(self):
        sim = Simulator()
        stamps = []

        def process():
            stamps.append(sim.now)
            yield 2.5
            stamps.append(sim.now)
            yield 0
            stamps.append(sim.now)

        sim.process(process())
        assert stamps == [0.0]  # runs to its first wait at once
        assert sim.run_until_idle() == 2
        assert stamps == [0.0, 2.5, 2.5]

    def test_a_callable_is_handed_the_resume(self):
        sim = Simulator()
        handed, received = [], []

        def process():
            received.append((yield handed.append))

        sim.process(process())
        assert len(handed) == 1 and received == []
        handed[0]("answer")
        assert received == ["answer"]

    def test_a_key_waits_in_the_mailbox(self):
        sim, mailbox = Simulator(), {}
        received = []

        def process():
            received.append((yield "rq-1"))
            received.append((yield ("record", "ctx-1")))

        sim.process(process(), mailbox=mailbox)
        assert list(mailbox) == ["rq-1"]
        mailbox.pop("rq-1")("first")
        assert list(mailbox) == [("record", "ctx-1")]
        mailbox.pop(("record", "ctx-1"))("second")
        assert received == ["first", "second"] and mailbox == {}

    def test_the_first_of_a_list_of_keys_resumes_and_the_others_stay_bound(self):
        sim, mailbox = Simulator(), {}
        arrivals = []

        def process():
            waiting = ["a", "b", "c"]
            while waiting:
                key = yield list(waiting)
                arrivals.append(key)
                waiting.remove(key)

        sim.process(process(), mailbox=mailbox)
        assert sorted(mailbox) == ["a", "b", "c"]
        mailbox.pop("b")("b")
        assert sorted(mailbox) == ["a", "c"]
        mailbox.pop("c")("c")
        mailbox.pop("a")("a")
        assert arrivals == ["b", "c", "a"] and mailbox == {}

    def test_a_package_error_is_handed_to_on_error(self):
        sim = Simulator()
        errors = []

        def process():
            yield 1.0
            raise ConfigInvalidError("refused")

        sim.process(process(), errors.append)
        sim.run_until_idle()
        assert [str(e) for e in errors] == ["refused"]
        assert isinstance(errors[0], ConfigInvalidError)

    def test_a_package_error_without_on_error_propagates(self):
        sim = Simulator()

        def process():
            yield 1.0
            raise ConfigInvalidError("refused")

        sim.process(process())
        with pytest.raises(ConfigInvalidError, match="refused"):
            sim.run_until_idle()

    def test_an_error_outside_the_package_is_never_handed_over(self):
        sim = Simulator()
        errors = []

        def process():
            yield 1.0
            raise KeyError("bug")

        sim.process(process(), errors.append)
        with pytest.raises(KeyError):
            sim.run_until_idle()
        assert errors == []


class TestNetworkDelivery:
    def test_zero_delay_link_delivers_now(self):
        topo = Topology(
            [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)],
            [Link("a", "b", 0.0, bandwidth_bytes_per_s=1e9)],
        )
        sim = Simulator()
        net = Network(sim, topo)
        arrivals = []
        net.attach("b", lambda payload, frm: arrivals.append(sim.now))
        net.send("a", "b", b"x", 0)
        sim.run_until_idle()
        assert arrivals == [0.0]

    def test_two_hop_closed_form(self):
        sim = Simulator()
        net = Network(sim, chain_topology())
        arrivals = []
        net.attach("cloud", lambda payload, frm: arrivals.append(sim.now))
        net.send("dev0", "cloud", b"x", 0)
        sim.run_until_idle()
        assert arrivals == [16.0]

    def test_transfer_term_per_hop(self):
        sim = Simulator()
        net = Network(sim, chain_topology())
        arrivals = []
        net.attach("cloud", lambda payload, frm: arrivals.append(sim.now))
        net.send("dev0", "cloud", b"x", 400)  # 400 B / 1e8 B/s = 0.004 ms per hop
        sim.run_until_idle()
        assert arrivals == [16.0 + 2 * 0.004]

    def test_jitter_bounded_and_seeded(self):
        def run(seed):
            sim = Simulator(seed)
            net = Network(sim, chain_topology(jitter=2.0))
            arrivals = []
            net.attach("cloud", lambda payload, frm: arrivals.append(sim.now))
            for _ in range(20):
                net.send("dev0", "cloud", b"x", 0)
            sim.run_until_idle()
            return arrivals

        first, second = run(42), run(42)
        assert first == second  # same seed, same timestamps
        assert run(43) != first
        for arrival in first:
            assert 16.0 <= arrival <= 16.0 + 4.0

    def test_bottleneck_bandwidth(self):
        topo = Topology(
            [
                Node("a", NodeRole.DEVICE),
                Node("b", NodeRole.EDGE_WORKER),
                Node("c", NodeRole.CLOUD),
            ],
            [
                Link("a", "b", 1.0, bandwidth_bytes_per_s=1e9),
                Link("b", "c", 1.0, bandwidth_bytes_per_s=1e8),
            ],
        )
        net = Network(Simulator(), topo)
        assert net.bottleneck_bandwidth("a", "c") == 1e8

    def test_trace_records_sends_and_deliveries(self):
        sim = Simulator(trace="full")
        net = Network(sim, chain_topology())
        net.attach("cloud", lambda payload, frm: None)
        net.send("dev0", "cloud", b"x", 0)
        sim.run_until_idle()
        kinds = [entry["kind"] for entry in sim.trace]
        assert kinds == ["send", "deliver"]

    def test_the_default_trace_records_no_messages(self):
        sim = Simulator()
        net = Network(sim, chain_topology())
        delivered = []
        net.attach("cloud", lambda payload, frm: delivered.append(payload))
        net.send("dev0", "cloud", b"x", 0)
        sim.run_until_idle()
        assert delivered == [b"x"] and sim.trace == []

    def test_an_unknown_trace_level_is_refused(self):
        with pytest.raises(ConfigInvalidError):
            Simulator(trace="off")
