#!/usr/bin/env python
"""MAPOS over the P5: the programmable-address claim in action.

The paper makes the HDLC address field programmable "so that it is
compatible with MAPOS systems" (RFC 2171): a multi-access SONET LAN
where a switch forwards frames by station address.  This example
builds a four-station MAPOS LAN, programs each station's P5 with its
assigned address via the OAM register, and runs unicast, broadcast and
multicast traffic through the switch — every hop crossing a real
cycle-accurate P5 datapath.

Run:  python examples/mapos_lan.py
"""

from repro.core import P5Config, P5System
from repro.core.oam import ADDR_STATION_ADDRESS
from repro.core.p5 import PhyWire
from repro.mapos import (
    BROADCAST_ADDRESS,
    MAPOS_PROTO_IP,
    MaposFrame,
    MaposSwitch,
    group_address,
)
from repro.rtl import Simulator


class MaposStation:
    """One station: a P5 system programmed with a MAPOS address."""

    def __init__(self, port_number: int, switch: MaposSwitch) -> None:
        self.port = switch.attach(port_number)
        # The P5's programmable address register takes the assigned value.
        self.p5 = P5System(
            P5Config.thirty_two_bit(address=self.port.address),
            name=f"station{port_number}",
        )
        self.p5.oam.write(ADDR_STATION_ADDRESS, self.port.address)
        self.received = []

    def send(self, destination: int, payload: bytes) -> None:
        frame = MaposFrame(destination, MAPOS_PROTO_IP, payload)
        self.p5.submit(frame.encode())

    def collect(self) -> None:
        for content, good in self.p5.received()[len(self.received):]:
            if good:
                self.received.append(MaposFrame.decode(content))


def main() -> None:
    switch = MaposSwitch()
    stations = {n: MaposStation(n, switch) for n in (1, 2, 3, 4)}
    print("MAPOS LAN: 4 stations behind one switch")
    for n, station in stations.items():
        print(f"  port {n}: address 0x{station.port.address:02X}, "
              f"P5 programmed via OAM "
              f"(readback 0x{station.p5.oam.read(ADDR_STATION_ADDRESS):02X})")

    # Multicast group for stations 2 and 4.
    video_group = group_address(9)
    switch.join_group(2, video_group)
    switch.join_group(4, video_group)

    # Traffic: unicast 1->3, broadcast from 2, multicast from 1.
    stations[1].send(stations[3].port.address, b"unicast: hello station 3")
    stations[2].send(BROADCAST_ADDRESS, b"broadcast: link status ping")
    stations[1].send(video_group, b"multicast: video chunk 0001")

    # Each station's TX datapath wires into the switch; the switch's
    # per-port inboxes wire back into the destination's RX datapath.
    # Run each hop's cycle-accurate simulation to completion.
    for n, station in stations.items():
        sink_frames = _drain_tx(station)
        for content in sink_frames:
            frame = MaposFrame.decode(content)
            for dest_port in switch.ingress(n, frame):
                _inject_rx(stations[dest_port], content)
    for station in stations.values():
        station.collect()

    print("\ndelivery matrix:")
    for n, station in stations.items():
        for frame in station.received:
            print(f"  station {n} <- addr 0x{frame.address:02X}: "
                  f"{frame.information.decode()}")

    assert [f.information for f in stations[3].received] == [
        b"unicast: hello station 3",
        b"broadcast: link status ping",
    ]
    assert [f.information for f in stations[2].received] == [
        b"multicast: video chunk 0001",
    ]
    # Station 1's frames are switched before station 2's, so port 4
    # sees the multicast first.
    assert [f.information for f in stations[4].received] == [
        b"multicast: video chunk 0001",
        b"broadcast: link status ping",
    ]
    assert stations[1].received == [
        f for f in stations[1].received if f.information.startswith(b"broadcast")
    ]
    print(f"\nswitch: {switch.frames_switched} switched, "
          f"{switch.frames_dropped} dropped")
    print("mapos_lan OK: programmable addressing verified through the P5.")


def _drain_tx(station: MaposStation):
    """Run the station's TX pipeline until its wire is fully emitted."""
    from repro.core.rx import P5Receiver
    from repro.hdlc import Delineator, HdlcFramer

    tx = station.p5.tx
    from repro.rtl import StreamSink

    sink = StreamSink("wire", tx.phy_out)
    sim = Simulator(tx.modules + [sink], tx.channels)
    sim.run_until(lambda: not tx.busy and not tx.phy_out.can_pop, timeout=200_000)
    framer = HdlcFramer(station.p5.config.fcs)
    return Delineator(framer=framer).push_bytes(sink.data())


def _inject_rx(station: MaposStation, content: bytes) -> None:
    """Run the destination's RX pipeline over the re-framed wire."""
    from repro.hdlc import HdlcFramer
    from repro.rtl import StreamSource, beats_from_bytes

    rx = station.p5.rx
    wire = HdlcFramer(station.p5.config.fcs).encode(content)
    src = StreamSource(
        f"wire>{station.port.number}", rx.phy_in,
        beats_from_bytes(wire, station.p5.config.width_bytes, frame_marks=False),
    )
    sim = Simulator([src] + rx.modules, rx.channels)
    sim.run_until(
        lambda: src.done and not any(ch.can_pop for ch in rx.channels)
        and rx.escape.idle,
        timeout=200_000,
    )


if __name__ == "__main__":
    main()
