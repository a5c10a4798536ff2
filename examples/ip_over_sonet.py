#!/usr/bin/env python
"""Gigabit IP over SDH/SONET — the paper's title, end to end.

Brings up a full PPP link (LCP + IPCP negotiation) whose physical
layer is a real STS-48c/STM-16 path: SONET framing with section/line/
path overhead, both scramblers, BIP monitoring, and the RFC 2615
PPP-over-SONET payload mapping.  Then streams IMIX IPv4 traffic and
reports the efficiency stack from the optical line rate down to IP
goodput.

Run:  python examples/ip_over_sonet.py
"""

from repro.analysis import ip_over_sonet_efficiency
from repro.hdlc import Delineator
from repro.ipv4 import Ipv4Datagram
from repro.ppp import IpcpConfig, LcpConfig, PppEndpoint
from repro.ppp.frame import PPPFrame
from repro.ppp.ipcp import parse_ipv4
from repro.sonet import PppOverSonet, rate_for
from repro.workloads import PacketStream


def pump_over_sonet(endpoint: PppEndpoint, path: PppOverSonet) -> bytes:
    """Endpoint -> HDLC wire -> re-map onto the SONET path -> line."""
    wire = endpoint.pump()
    if wire:
        for content in Delineator(framer=endpoint.tx_framer).push_bytes(wire):
            path.queue_frame(content)
    return path.next_line_frame()


def deliver_from_sonet(endpoint: PppEndpoint, path: PppOverSonet, line: bytes) -> None:
    for content in path.receive_line(line):
        endpoint.receive_wire(endpoint.rx_framer.encode(content))


def main() -> None:
    rate = rate_for(48)
    print(f"physical layer: {rate.name} / {rate.oc_name} / {rate.sdh_name}")
    print(f"  gross line rate   : {rate.line_rate_bps / 1e9:.5f} Gbps")
    print(f"  SPE payload rate  : {rate.payload_rate_bps / 1e9:.5f} Gbps")

    # Two PPP endpoints and two unidirectional SONET paths.
    a = PppEndpoint(
        "A",
        LcpConfig(mru=4470),   # classic POS MTU
        IpcpConfig(local_address=parse_ipv4("10.48.0.1"),
                   assign_peer=parse_ipv4("10.48.0.2")),
        magic_seed=1,
    )
    b = PppEndpoint("B", LcpConfig(), IpcpConfig(local_address=0), magic_seed=2)
    path_ab, path_ba = PppOverSonet(48), PppOverSonet(48)

    a.open(); b.open(); a.lower_up(); b.lower_up()
    sonet_frames = 0
    while not (a.network_ready() and b.network_ready()):
        deliver_from_sonet(b, path_ab, pump_over_sonet(a, path_ab))
        deliver_from_sonet(a, path_ba, pump_over_sonet(b, path_ba))
        sonet_frames += 2
        if sonet_frames > 100:
            raise RuntimeError("link failed to come up")
    print(f"\nlink up after {sonet_frames} SONET frames "
          f"({sonet_frames * 125} us of line time)")
    print(f"  A address: {a.ipcp.local_address_str}, peer MRU {a.lcp.negotiated_mru()}")
    print(f"  B address: {b.ipcp.local_address_str} (assigned by A via IPCP)")

    # Stream IMIX traffic A -> B.
    stream = PacketStream(src="10.48.0.1", dst="10.48.0.2", seed=7)
    datagrams = stream.datagrams(200)
    for datagram in datagrams:
        a.send_datagram(datagram.encode())
    received = 0
    for _ in range(40):   # 40 x 125us = 5 ms of line time
        deliver_from_sonet(b, path_ab, pump_over_sonet(a, path_ab))
        received = len(b.datagrams_in)
        if received == len(datagrams):
            break
    print(f"\ndelivered {received}/{len(datagrams)} datagrams")
    # Verify checksums survive the whole stack.
    ok = sum(
        1 for _, payload in b.datagrams_in
        if Ipv4Datagram.decode(payload).header.dst == parse_ipv4("10.48.0.2")
    )
    print(f"IPv4 header checksums verified: {ok}/{received}")

    print("\nSONET section monitoring (B side of the A->B path):")
    c = path_ab.sonet_counters
    print(f"  frames {c.frames_ok}, B1 errors {c.b1_errors}, "
          f"B2 {c.b2_errors}, B3 {c.b3_errors}, OOF {c.oof_events}")

    print("\nefficiency stack (analytic, per datagram size):")
    print(f"  {'size':>6} {'SONET':>7} {'PPP':>7} {'total':>7} {'IP Gbps':>8}")
    for size in (40, 576, 1500):
        eff = ip_over_sonet_efficiency(size, 48)
        print(f"  {size:>6} {eff.sonet_efficiency:>6.1%} {eff.ppp_efficiency:>6.1%} "
              f"{eff.total_efficiency:>6.1%} {eff.ppp_goodput_bps / 1e9:>8.3f}")

    assert received == len(datagrams)
    print("\nip_over_sonet OK: gigabit IP over SDH/SONET, byte-exact.")


if __name__ == "__main__":
    main()
