"""Unit tests for the full PPP endpoint / phase machinery."""

import pytest

from repro.crc import CRC16_X25, CRC32
from repro.errors import NegotiationError
from repro.hdlc import HdlcFramer
from repro.ppp import (
    IpcpConfig,
    LcpConfig,
    LinkPhase,
    PppEndpoint,
    connect_endpoints,
)
from repro.ppp.frame import PPPFrame
from repro.ppp.ipcp import parse_ipv4
from repro.ppp.options import FCS_16, FCS_32


def make_pair(**a_kwargs):
    a = PppEndpoint(
        "A",
        a_kwargs.pop("lcp", LcpConfig()),
        IpcpConfig(
            local_address=parse_ipv4("10.0.0.1"),
            assign_peer=parse_ipv4("10.0.0.2"),
        ),
        magic_seed=11,
        **a_kwargs,
    )
    b = PppEndpoint("B", LcpConfig(), IpcpConfig(local_address=0), magic_seed=22)
    return a, b


class TestBringUp:
    def test_phases_progress(self):
        a, b = make_pair()
        assert a.phase is LinkPhase.DEAD
        rounds = connect_endpoints(a, b)
        assert rounds < 20
        assert a.phase is LinkPhase.NETWORK and b.phase is LinkPhase.NETWORK
        assert a.network_ready() and b.network_ready()

    def test_address_assignment_through_full_stack(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        assert b.ipcp.local_address_str == "10.0.0.2"

    def test_no_convergence_raises(self):
        a, _ = make_pair()
        # B never brought up: A can't converge.
        b = PppEndpoint("B", magic_seed=22)
        a.open(); a.lower_up()
        with pytest.raises(NegotiationError):
            connect_endpoints(a, b, max_rounds=5, bring_up=False)


class TestDatagramFlow:
    def test_datagram_delivery(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        assert a.send_datagram(b"E\x00datagram")
        b.receive_wire(a.pump())
        proto, payload = b.datagrams_in.popleft()
        assert proto == 0x0021 and payload == b"E\x00datagram"
        assert b.counters.datagrams_rx == 1

    def test_datagram_refused_before_network_phase(self):
        a, b = make_pair()
        assert not a.send_datagram(b"too early")
        assert a.counters.discarded_wrong_phase == 1

    def test_compressed_frames_on_the_wire(self):
        a, b = make_pair(lcp=LcpConfig(request_pfc=True, request_acfc=True))
        connect_endpoints(a, b)
        a.send_datagram(b"x")
        wire = a.pump()
        # ACFC+PFC: body between flags starts with the 1-byte protocol.
        body = wire.strip(b"\x7e")
        assert body[0] == 0x21
        b.receive_wire(wire)
        assert b.datagrams_in.popleft() == (0x0021, b"x")

    def test_unknown_protocol_gets_protocol_reject(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        wire = a.tx_framer.encode(PPPFrame(protocol=0x002B, information=b"?").encode())
        b.receive_wire(wire)
        a.receive_wire(b.pump())
        assert 0x002B in a.lcp.protocol_rejects
        assert b.counters.protocol_rejects_tx == 1


class TestFcsSwitching:
    def test_fcs32_negotiated_switches_framers(self):
        a = PppEndpoint(
            "A",
            LcpConfig(fcs_flags=FCS_32),
            IpcpConfig(local_address=parse_ipv4("1.1.1.1")),
            fcs_spec=CRC16_X25,
            magic_seed=1,
        )
        b = PppEndpoint(
            "B",
            LcpConfig(fcs_flags=FCS_32),
            IpcpConfig(local_address=parse_ipv4("1.1.1.2")),
            fcs_spec=CRC16_X25,
            magic_seed=2,
        )
        connect_endpoints(a, b)
        assert a.tx_framer.fcs_spec.width == 32
        assert b.rx_framer.fcs_spec.width == 32
        # Data still flows after the switch.
        a.send_datagram(b"after switch")
        b.receive_wire(a.pump())
        assert b.datagrams_in.popleft()[1] == b"after switch"

    def test_frame_spanning_a_reprogram_decodes_with_the_new_framer(self):
        """The open frame is carried across the write of a new receive
        framer, as LCP's FCS and MRU results are applied, so the framer
        in place when its closing flag arrives decides it."""
        endpoint = PppEndpoint("rx", fcs_spec=CRC32, magic_seed=1)
        new = HdlcFramer(CRC16_X25, max_content=64 + 8)
        ip = b"\xff\x03\x00\x21"
        wires = [
            new.encode(ip + bytes(40)),  # good under the new framer
            new.encode(ip + bytes(100)),  # over the new MRU
            HdlcFramer(CRC32).encode(ip + bytes(40)),  # the old FCS
        ]
        for wire in wires:
            endpoint.rx_framer = endpoint.delineator.framer = HdlcFramer(CRC32)
            endpoint.receive_wire(wire[: len(wire) // 2])
            endpoint.rx_framer = endpoint.delineator.framer = new
            endpoint.receive_wire(wire[len(wire) // 2:])
        stats = endpoint.delineator.stats
        assert (stats.frames_ok, stats.oversize, stats.fcs_errors) == (1, 1, 1)
        assert endpoint.counters.frames_rx == 1

    def test_default_keeps_constructor_fcs(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        assert a.tx_framer.fcs_spec is CRC32


class TestTeardown:
    def test_close_returns_to_dead(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        a.close()
        b.receive_wire(a.pump())
        a.receive_wire(b.pump())
        assert a.phase is LinkPhase.DEAD
        assert b.phase is LinkPhase.TERMINATE
        for _ in range(4):
            b.tick()
        assert b.phase is LinkPhase.DEAD

    def test_lower_down_propagates(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        a.lower_down()
        assert not a.network_ready()
        assert not a.ipcp.layer_up

    def test_datagrams_blocked_after_down(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        a.lower_down()
        assert not a.send_datagram(b"late")


class TestCounters:
    def test_frame_counters(self):
        a, b = make_pair()
        connect_endpoints(a, b)
        tx_before = a.counters.frames_tx
        a.send_datagram(b"1")
        a.send_datagram(b"2")
        b.receive_wire(a.pump())
        assert a.counters.frames_tx == tx_before + 2
        assert a.counters.datagrams_tx == 2
