"""A complete PPP link endpoint and the RFC 1661 phase diagram.

:class:`PppEndpoint` glues every layer of the stack together the same
way the P5 system does in hardware (paper Figure 2): an HDLC
framer/delineator pair (the datapath), LCP and the NCPs (the Protocol
OAM's control plane), and transmit/receive datagram queues (the shared
memory).  It is pure protocol logic over byte strings, so it runs
equally over a plain loopback pipe, the BER-injecting PHY model, or
the SONET path used by the examples.

Phases (RFC 1661 section 3.2)::

    DEAD -> ESTABLISH -> AUTHENTICATE -> NETWORK -> TERMINATE -> DEAD
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.crc import CRC16_X25, CRC32, CrcSpec
from repro.errors import FramingError
from repro.hdlc.accm import Accm
from repro.hdlc.delineation import Delineator
from repro.hdlc.framer import HdlcFramer
from repro.ppp.frame import PPPFrame
from repro.ppp.ipcp import Ipcp, IpcpConfig
from repro.ppp.lcp import Lcp, LcpConfig
from repro.ppp.ncp import NcpBase
from repro.ppp.pap import PapAuthenticator, PapClient
from repro.ppp.options import FCS_32, OPT_ACCM, OPT_AUTH_PROTOCOL
from repro.ppp.protocol_numbers import (
    PROTO_CHAP,
    PROTO_LCP,
    PROTO_PAP,
    is_network_layer,
)
from repro.ppp.fsm import State
from repro.utils.rng import SeedLike

__all__ = ["LinkPhase", "PppEndpoint", "connect_endpoints"]


class LinkPhase(enum.Enum):
    """RFC 1661 link phases."""

    DEAD = "Dead"
    ESTABLISH = "Establish"
    AUTHENTICATE = "Authenticate"
    NETWORK = "Network"
    TERMINATE = "Terminate"


@dataclass
class EndpointCounters:
    """Per-endpoint traffic counters (surfaced by the OAM register map)."""

    frames_tx: int = 0
    frames_rx: int = 0
    datagrams_tx: int = 0
    datagrams_rx: int = 0
    protocol_rejects_tx: int = 0
    discarded_wrong_phase: int = 0


class PppEndpoint:
    """One side of a PPP link.

    Parameters
    ----------
    name:
        Label used in traces.
    lcp_config, ipcp_config:
        Negotiation policies; defaults give a plain IP-over-SONET
        endpoint requesting a magic number.
    fcs_spec:
        Initial FCS wire format.  RFC 1662's default is FCS-16; the P5
        runs FCS-32 ("for accuracy purposes"), so that is our default.
        When both peers negotiate FCS-Alternatives the framers are
        re-programmed per direction after LCP opens.
    address:
        The programmable HDLC address octet (0xFF for plain PPP,
        station addresses for MAPOS-style operation).
    """

    def __init__(
        self,
        name: str,
        lcp_config: Optional[LcpConfig] = None,
        ipcp_config: Optional[IpcpConfig] = None,
        *,
        fcs_spec: CrcSpec = CRC32,
        address: int = 0xFF,
        magic_seed: SeedLike = None,
        pap_client: Optional[PapClient] = None,
        pap_server: Optional[PapAuthenticator] = None,
        auth_client=None,
        auth_server=None,
    ) -> None:
        self.name = name
        self.address = address
        self.lcp = Lcp(lcp_config, magic_seed=magic_seed)
        self.ipcp = Ipcp(ipcp_config)
        self.ncps: Dict[int, NcpBase] = {self.ipcp.protocol_number: self.ipcp}
        self._base_fcs = fcs_spec
        self.tx_framer = HdlcFramer(fcs_spec)
        self.rx_framer = HdlcFramer(fcs_spec)
        self.delineator = Delineator(framer=self.rx_framer)
        self.counters = EndpointCounters()
        self._datagram_out: Deque[Tuple[int, bytes]] = deque()
        self.datagrams_in: Deque[Tuple[int, bytes]] = deque()
        self._lcp_was_up = False
        self._fcs_applied = False
        # RFC 1661 Authenticate phase (RFC 1334 PAP / RFC 1994 CHAP).
        # `pap_client`/`pap_server` are convenience aliases for the
        # generic `auth_client`/`auth_server` slots.
        self.auth_client = auth_client if auth_client is not None else pap_client
        self.auth_server = auth_server if auth_server is not None else pap_server
        self._auth_started = False
        self._ncps_up = False
        if self.auth_server is not None:
            self.lcp.config.require_auth = self.auth_server.protocol_number
        if self.auth_client is not None:
            self.lcp.config.acceptable_auth = (self.auth_client.protocol_number,)

    # -------------------------------------------------------------- controls
    def lower_up(self) -> None:
        """The physical layer came up (PHY signal)."""
        self.lcp.fsm.up()
        self._sync_layers()

    def lower_down(self) -> None:
        """The physical layer went down."""
        self.lcp.fsm.down()
        self.delineator.flush()
        self._sync_layers()

    def open(self) -> None:
        """Administrative Open (host writes the OAM 'open' bit)."""
        self.lcp.fsm.open()
        for ncp in self.ncps.values():
            ncp.fsm.open()
        self._sync_layers()

    def close(self) -> None:
        """Administrative Close."""
        for ncp in self.ncps.values():
            ncp.fsm.close()
        self.lcp.fsm.close()
        self._sync_layers()

    def tick(self) -> None:
        """One restart-timeout period of logical time."""
        self.lcp.fsm.tick()
        if self.lcp.layer_up and self._auth_started:
            if self.auth_client is not None and not self.auth_client.done:
                self.auth_client.tick()
            if self.auth_server is not None and not self.auth_server.done:
                self.auth_server.tick()
        for ncp in self.ncps.values():
            ncp.fsm.tick()
        self._sync_layers()

    # ---------------------------------------------------------------- phases
    @property
    def phase(self) -> LinkPhase:
        lcp_state = self.lcp.state
        if lcp_state in (State.INITIAL, State.STARTING, State.CLOSED, State.STOPPED):
            return LinkPhase.DEAD
        if lcp_state in (State.CLOSING, State.STOPPING):
            return LinkPhase.TERMINATE
        if lcp_state is State.OPENED:
            if not self._auth_complete():
                return LinkPhase.AUTHENTICATE
            return LinkPhase.NETWORK
        return LinkPhase.ESTABLISH

    def network_ready(self) -> bool:
        """IPv4 datagrams may flow (LCP open, authenticated, IPCP open)."""
        return (
            self.lcp.layer_up
            and self._auth_complete()
            and self.ipcp.network_ready()
        )

    def protocol_ready(self, protocol: int) -> bool:
        """Whether datagrams of ``protocol`` may flow (its NCP is open)."""
        if not (self.lcp.layer_up and self._auth_complete()):
            return False
        for ncp in self.ncps.values():
            if ncp.data_protocol_number == protocol:
                return ncp.network_ready()
        return False

    def add_ncp(self, ncp: NcpBase) -> NcpBase:
        """Register an additional network control protocol (RFC 1661:
        "simultaneous use of multiple network-layer protocols").

        If the link is already past Establish/Authenticate, the new NCP
        is opened and brought up immediately.
        """
        self.ncps[ncp.protocol_number] = ncp
        if self.ipcp.fsm.state is not State.INITIAL:
            # `open()` was already called on this endpoint.
            ncp.fsm.open()
        if self._ncps_up:
            ncp.lower_layer_up()
        return ncp

    # -------------------------------------------------------- authentication
    @property
    def pap_client(self):
        """Back-compat alias for :attr:`auth_client`."""
        return self.auth_client

    @property
    def pap_server(self):
        """Back-compat alias for :attr:`auth_server`."""
        return self.auth_server

    def _peer_demands_auth(self) -> bool:
        opt = self.lcp.peer_options.get(OPT_AUTH_PROTOCOL)
        if opt is None or len(opt.data) < 2:
            return False
        wanted = int.from_bytes(opt.data[:2], "big")
        return self.auth_client is not None and \
            wanted == self.auth_client.protocol_number

    def _we_demand_auth(self) -> bool:
        return (
            self.auth_server is not None
            and OPT_AUTH_PROTOCOL in self.lcp.local_options
        )

    def _auth_complete(self) -> bool:
        if self._peer_demands_auth() and not self.auth_client.done:
            return False
        if self._we_demand_auth() and not self.auth_server.done:
            return False
        return True

    # ------------------------------------------------------------ layer glue
    def _sync_layers(self) -> None:
        """Propagate LCP up/down edges into auth and the NCPs."""
        if self.lcp.layer_up and not self._lcp_was_up:
            self._apply_lcp_results()
            if not self._auth_started:
                if self._peer_demands_auth():
                    self.auth_client.start()
                    self._auth_started = True
                if self._we_demand_auth():
                    self.auth_server.start()
                    self._auth_started = True
        elif not self.lcp.layer_up and self._lcp_was_up:
            if self._ncps_up:
                for ncp in self.ncps.values():
                    ncp.lower_layer_down()
                self._ncps_up = False
            self._auth_started = False
            self._revert_fcs()
        if self.lcp.layer_up and self._auth_complete() and not self._ncps_up:
            for ncp in self.ncps.values():
                ncp.lower_layer_up()
            self._ncps_up = True
        self._lcp_was_up = self.lcp.layer_up

    def _apply_lcp_results(self) -> None:
        """Re-programme the datapath from the negotiated LCP options.

        This mirrors the OAM writing the P5's configuration registers:
        MRU bounds, ACCM escape set and FCS width are all datapath
        parameters in hardware.
        """
        # Our transmit FCS is whatever the peer acked in our request.
        tx_flags = self.lcp.negotiated_fcs_flags()
        rx_opt = self.lcp.peer_options.get(9)  # OPT_FCS_ALTERNATIVES
        rx_flags = rx_opt.data[0] if rx_opt and len(rx_opt.data) == 1 else None
        tx_accm_opt = self.lcp.local_options.get(OPT_ACCM)
        tx_accm = (
            Accm(tx_accm_opt.value_uint()) if tx_accm_opt is not None else None
        )
        if self.lcp.config.fcs_flags is not None and tx_flags == FCS_32:
            self.tx_framer = HdlcFramer(CRC32, accm=tx_accm)
            self._fcs_applied = True
        elif self.lcp.config.fcs_flags is not None:
            self.tx_framer = HdlcFramer(CRC16_X25, accm=tx_accm)
            self._fcs_applied = True
        elif tx_accm is not None:
            self.tx_framer = HdlcFramer(self._base_fcs, accm=tx_accm)
        if rx_flags is not None:
            spec = CRC32 if rx_flags == FCS_32 else CRC16_X25
            self.rx_framer = HdlcFramer(spec, max_content=self.lcp.config.mru + 8)
            self.delineator.framer = self.rx_framer
            self._fcs_applied = True

    def _revert_fcs(self) -> None:
        if self._fcs_applied:
            self.tx_framer = HdlcFramer(self._base_fcs)
            self.rx_framer = HdlcFramer(self._base_fcs)
            self.delineator.framer = self.rx_framer
            self._fcs_applied = False

    # ------------------------------------------------------------- transmit
    def send_datagram(self, payload: bytes, protocol: int = 0x0021) -> bool:
        """Queue a network-layer datagram; False if the phase forbids it."""
        if not self.protocol_ready(protocol):
            self.counters.discarded_wrong_phase += 1
            return False
        self._datagram_out.append((protocol, payload))
        return True

    def _frame(self, protocol: int, payload: bytes) -> bytes:
        use_pfc = self.lcp.layer_up and self.lcp.peer_accepted_pfc()
        use_acfc = (
            self.lcp.layer_up
            and self.lcp.peer_accepted_acfc()
            and protocol != PROTO_LCP  # LCP frames never compress (RFC 1661)
        )
        frame = PPPFrame(
            protocol=protocol, information=payload, address=self.address
        )
        content = frame.encode(acfc=use_acfc, pfc=use_pfc and protocol != PROTO_LCP)
        self.counters.frames_tx += 1
        return self.tx_framer.encode(content)

    def pump(self) -> bytes:
        """Drain all pending transmissions into wire bytes."""
        out = bytearray()
        for raw in self.lcp.drain_outbox():
            out += self._frame(PROTO_LCP, raw)
        if self.lcp.layer_up:
            for agent in (self.auth_client, self.auth_server):
                if agent is not None:
                    for raw in agent.drain_outbox():
                        out += self._frame(agent.protocol_number, raw)
        # NCP packets only flow during the Network phase.
        if self.lcp.layer_up:
            for ncp in self.ncps.values():
                for raw in ncp.drain_outbox():
                    out += self._frame(ncp.protocol_number, raw)
        while self._datagram_out:
            protocol, payload = self._datagram_out.popleft()
            out += self._frame(protocol, payload)
            self.counters.datagrams_tx += 1
        return bytes(out)

    # --------------------------------------------------------------- receive
    def receive_wire(self, data: bytes) -> None:
        """Push raw line octets through delineation and dispatch frames."""
        for content in self.delineator.push_bytes(data):
            self.counters.frames_rx += 1
            try:
                frame = PPPFrame.decode(content, expected_address=self.address)
            except FramingError:
                continue
            self._dispatch(frame)
        self._sync_layers()

    def _dispatch(self, frame: PPPFrame) -> None:
        protocol = frame.protocol
        if protocol == PROTO_LCP:
            if self.lcp.state in (State.INITIAL, State.STARTING):
                # RFC 1661 §4.3: these events "cannot occur" with the
                # lower layer down — the hardware would never deliver
                # the frame, so the model discards it.
                self.counters.discarded_wrong_phase += 1
                return
            self.lcp.receive_packet(frame.information)
            self._sync_layers()
            return
        if not self.lcp.layer_up:
            # RFC 1661: non-LCP frames received during Establish phase
            # are silently discarded.
            self.counters.discarded_wrong_phase += 1
            return
        if protocol in (PROTO_PAP, PROTO_CHAP):
            handled = False
            for agent in (self.auth_server, self.auth_client):
                if agent is not None and agent.protocol_number == protocol:
                    agent.receive_packet(frame.information)
                    handled = True
            if handled:
                self._sync_layers()
                return
            # An auth protocol we are not running: Protocol-Reject.
        ncp = self.ncps.get(protocol)
        if ncp is not None:
            ncp.receive_packet(frame.information)
            return
        if is_network_layer(protocol):
            for candidate in self.ncps.values():
                if candidate.data_protocol_number == protocol:
                    if candidate.network_ready():
                        self.datagrams_in.append((protocol, frame.information))
                        self.counters.datagrams_rx += 1
                    else:
                        # NCP known but not yet open: silently discard.
                        self.counters.discarded_wrong_phase += 1
                    return
        # Unknown protocol (control or otherwise): LCP Protocol-Reject.
        self.lcp.send_protocol_reject(protocol, frame.information)
        self.counters.protocol_rejects_tx += 1


def connect_endpoints(
    a: PppEndpoint,
    b: PppEndpoint,
    *,
    max_rounds: int = 50,
    bring_up: bool = True,
) -> int:
    """Drive two endpoints against each other until the network phase.

    A deterministic round-based scheduler: each round pumps both sides
    and delivers the bytes to the opposite side; if a round moves no
    bytes, one timer tick is applied instead.  Returns the number of
    rounds used.

    Raises
    ------
    repro.errors.NegotiationError
        If the link fails to converge within ``max_rounds``.
    """
    from repro.errors import NegotiationError

    if bring_up:
        a.open()
        b.open()
        a.lower_up()
        b.lower_up()
    for round_no in range(1, max_rounds + 1):
        wire_ab = a.pump()
        wire_ba = b.pump()
        if wire_ab:
            b.receive_wire(wire_ab)
        if wire_ba:
            a.receive_wire(wire_ba)
        if a.network_ready() and b.network_ready():
            # Flush any final acks still queued.
            b.receive_wire(a.pump())
            a.receive_wire(b.pump())
            return round_no
        if not wire_ab and not wire_ba:
            a.tick()
            b.tick()
    raise NegotiationError(
        f"link {a.name}<->{b.name} failed to open in {max_rounds} rounds "
        f"(LCP {a.lcp.state.name}/{b.lcp.state.name}, "
        f"IPCP {a.ipcp.state.name}/{b.ipcp.state.name})"
    )
