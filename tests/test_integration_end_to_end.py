"""Full-stack integration: IP -> PPP -> P5 datapath -> SONET -> line.

These tests wire together every subsystem the way a real OC-48 line
card deployment would, which is the scenario the paper's title
promises: *gigabit IP over SDH/SONET*.
"""

import pytest

from repro.core import P5Config, run_duplex_exchange
from repro.hdlc import Delineator
from repro.ipv4 import Ipv4Datagram
from repro.phy import BitErrorLine
from repro.ppp import (
    IpcpConfig,
    LcpConfig,
    PppEndpoint,
    PPPFrame,
    connect_endpoints,
)
from repro.ppp.ipcp import parse_ipv4
from repro.sonet import PppOverSonet
from repro.workloads import PacketStream


class TestIpOverP5:
    def test_checksummed_ip_through_cycle_accurate_datapath(self):
        """Real IPv4 datagrams through the 32-bit P5, byte-exact."""
        stream = PacketStream(seed=1)
        contents = stream.frame_contents(10)
        result = run_duplex_exchange(contents, [], timeout=400_000)
        assert result.all_good()
        for content, _ in result.b_received:
            frame = PPPFrame.decode(content)
            datagram = Ipv4Datagram.decode(frame.information)
            assert datagram.header.dst == parse_ipv4("10.0.0.2")


class TestPppOverSonetWithNegotiation:
    def _endpoints(self):
        a = PppEndpoint(
            "A",
            LcpConfig(),
            IpcpConfig(
                local_address=parse_ipv4("192.168.1.1"),
                assign_peer=parse_ipv4("192.168.1.2"),
            ),
            magic_seed=1,
        )
        b = PppEndpoint("B", LcpConfig(), IpcpConfig(local_address=0), magic_seed=2)
        return a, b

    def test_lcp_over_real_sonet_path(self):
        """LCP/IPCP negotiation where the wire is an actual STS-12c."""
        a, b = self._endpoints()
        path_ab = PppOverSonet(12)
        path_ba = PppOverSonet(12)
        a.open(); b.open(); a.lower_up(); b.lower_up()
        for _ in range(30):
            for content_wire in [a.pump()]:
                if content_wire:
                    # Endpoint produces HDLC wire; re-queue the raw PPP
                    # contents so the SONET path frames them itself.
                    for content in Delineator(framer=a.tx_framer).push_bytes(content_wire):
                        path_ab.queue_frame(content)
            for recovered in path_ab.receive_line(path_ab.next_line_frame()):
                b.receive_wire(b.rx_framer.encode(recovered))
            wire = b.pump()
            if wire:
                for content in Delineator(framer=b.tx_framer).push_bytes(wire):
                    path_ba.queue_frame(content)
            for recovered in path_ba.receive_line(path_ba.next_line_frame()):
                a.receive_wire(a.rx_framer.encode(recovered))
            if a.network_ready() and b.network_ready():
                break
        assert a.network_ready() and b.network_ready()
        assert b.ipcp.local_address_str == "192.168.1.2"


class TestErroredLink:
    def test_ber_sweep_error_detection(self):
        """No corrupted frame is ever delivered as good across BERs."""
        path = PppOverSonet(3)
        frames = PacketStream(seed=3).frame_contents(30)
        line = BitErrorLine(1e-4, seed=4)
        for frame in frames:
            path.queue_frame(frame)
        delivered = []
        for _ in range(20):
            delivered += path.receive_line(line.transmit(path.next_line_frame()))
            if not path.tx_backlog_frames:
                break
        # Anything delivered must be byte-identical to something sent.
        assert all(d in frames for d in delivered)
        # At this BER, some frames must have been caught by FCS/BIP.
        total_errors = (
            path.hdlc_stats.total_errors()
            + path.sonet_counters.b1_errors
            + path.sonet_counters.b3_errors
        )
        assert total_errors > 0

    def test_clean_line_zero_errors(self):
        path = PppOverSonet(3)
        frames = PacketStream(seed=5).frame_contents(10)
        for frame in frames:
            path.queue_frame(frame)
        delivered = []
        for _ in range(10):
            delivered += path.receive_line(path.next_line_frame())
        assert delivered == frames
        assert path.hdlc_stats.total_errors() == 0
        assert path.sonet_counters.b1_errors == 0


class TestWidthEquivalence:
    """The 8-bit and 32-bit systems are behaviourally identical —
    only timing differs (the paper's design premise)."""

    def test_same_wire_bytes(self):
        from repro.core.tx import P5Transmitter
        from repro.rtl import Simulator, StreamSink

        contents = PacketStream(seed=6).frame_contents(3)
        wires = {}
        for width in (8, 32):
            tx = P5Transmitter(P5Config(width_bits=width))
            sink = StreamSink("s", tx.phy_out)
            sim = Simulator(tx.modules + [sink], tx.channels)
            for c in contents:
                tx.submit(c)
            sim.run_until(
                lambda: not tx.busy and not tx.phy_out.can_pop, timeout=400_000
            )
            wires[width] = sink.data()
        assert wires[8] == wires[32]
