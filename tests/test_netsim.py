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

    def test_connectivity_check(self):
        nodes = [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)]
        assert not Topology(nodes, []).is_connected()
        assert Topology(nodes, [Link("a", "b", 1.0)]).is_connected()


class TestRouting:
    def test_chain_route(self):
        topo = chain_topology()
        assert topo.shortest_path("dev0", "cloud") == ["dev0", "edge0", "cloud"]
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
        assert topo.shortest_path("a", "c") == ["a", "b", "c"]

    def test_no_route(self):
        topo = Topology(
            [Node("a", NodeRole.DEVICE), Node("b", NodeRole.CLOUD)], []
        )
        with pytest.raises(NoRouteError):
            topo.shortest_path("a", "b")


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
        sim.schedule(9.0, lambda: None).cancelled = True
        assert sim.run_until_idle(max_events=5) == 5


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
        sim = Simulator()
        net = Network(sim, chain_topology())
        net.attach("cloud", lambda payload, frm: None)
        net.send("dev0", "cloud", b"x", 0)
        sim.run_until_idle()
        kinds = [entry["kind"] for entry in sim.trace]
        assert kinds == ["send", "deliver"]
