"""The Protocol OAM block (paper Figure 2, centre).

"The Protocol OAM provides an efficient interface for control and
status information to be exchanged between an external microcontroller
and the internal Receiver and Transmitter blocks" — i.e. the
programmability of the P5.  This model exposes:

* **control registers** — transmitter/receiver enables and the
  programmable station address (the MAPOS hook);
* **status registers** — live counters pulled from the datapath
  modules (frames, FCS errors, escapes inserted/deleted, resync
  high-water marks);
* **interrupts** — a pending/mask pair with write-1-to-clear
  semantics; events are raised on frame reception, receive errors and
  transmit completion.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.core.regmap import Register, RegisterMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.p5 import P5System

__all__ = [
    "ProtocolOam",
    "COUNTERS",
    "COUNTER_READERS",
    "IRQ_RX_FRAME",
    "IRQ_RX_ERROR",
    "IRQ_TX_DONE",
]

# Interrupt bits.
IRQ_RX_FRAME = 1 << 0    # a good frame landed in receive memory
IRQ_RX_ERROR = 1 << 1    # FCS error / runt / dangling escape
IRQ_TX_DONE = 1 << 2     # the transmit queue drained

# Register addresses (word bus).
ADDR_CTRL = 0x00
ADDR_STATION_ADDRESS = 0x01
ADDR_IRQ_PENDING = 0x02
ADDR_IRQ_MASK = 0x03
ADDR_TX_FRAMES = 0x10
ADDR_RX_FRAMES_OK = 0x11
ADDR_RX_FCS_ERRORS = 0x12
ADDR_RX_RUNTS = 0x13
ADDR_RX_HUNT_DISCARDS = 0x14
ADDR_ESC_INSERTED = 0x15
ADDR_ESC_DELETED = 0x16
ADDR_RESYNC_HIGHWATER_TX = 0x17
ADDR_RESYNC_HIGHWATER_RX = 0x18
ADDR_DANGLING_ESCAPES = 0x19
ADDR_RX_ABORTS = 0x1A
ADDR_RX_OVERSIZE = 0x1B
ADDR_RESYNC_DROPS_RX = 0x1C
ADDR_FRAMING = 0x04            # [15:8] escape octet, [7:0] flag octet

CTRL_TX_ENABLE = 1 << 0
CTRL_RX_ENABLE = 1 << 1

#: The one map from OAM counter register to datapath counter: each
#: read-only register's address and the attribute path, on a
#: :class:`~repro.core.p5.P5System`, of the counter it reads.
COUNTERS: Dict[str, Tuple[int, str]] = {
    "TX_FRAMES": (ADDR_TX_FRAMES, "tx.flags.frames_wrapped"),
    "RX_FRAMES_OK": (ADDR_RX_FRAMES_OK, "rx.crc.frames_ok"),
    "RX_FCS_ERRORS": (ADDR_RX_FCS_ERRORS, "rx.crc.fcs_errors"),
    "RX_RUNTS": (ADDR_RX_RUNTS, "rx.crc.runt_frames"),
    "RX_HUNT_DISCARDS": (ADDR_RX_HUNT_DISCARDS, "rx.delineator.octets_discarded_hunting"),
    "ESC_INSERTED": (ADDR_ESC_INSERTED, "tx.escape.octets_escaped"),
    "ESC_DELETED": (ADDR_ESC_DELETED, "rx.escape.octets_deleted"),
    "RESYNC_HIGHWATER_TX": (ADDR_RESYNC_HIGHWATER_TX, "tx.escape.max_resync_occupancy"),
    "RESYNC_HIGHWATER_RX": (ADDR_RESYNC_HIGHWATER_RX, "rx.escape.max_resync_occupancy"),
    "DANGLING_ESCAPES": (ADDR_DANGLING_ESCAPES, "rx.escape.dangling_escape_errors"),
    "RX_ABORTS": (ADDR_RX_ABORTS, "rx.delineator.aborts"),
    "RX_OVERSIZE": (ADDR_RX_OVERSIZE, "rx.delineator.oversize_drops"),
    "RESYNC_DROPS_RX": (ADDR_RESYNC_DROPS_RX, "rx.escape.resync_overflow_drops"),
}

#: ``COUNTER_READERS[name](system)`` reads register ``name``'s counter
#: straight from the datapath; built once, shared by every system.
COUNTER_READERS: Dict[str, Callable[["P5System"], int]] = {
    name: attrgetter(path) for name, (_, path) in COUNTERS.items()
}


class ProtocolOam:
    """Control/status bridge between a host and one P5 system."""

    def __init__(self, system: "P5System") -> None:
        self.system = system
        self.regs = RegisterMap()
        self._irq_pending = 0
        self._seen_rx_ok = 0
        self._seen_rx_err = 0
        self._tx_was_busy = False
        self._build_map()

    # --------------------------------------------------------------- wiring
    def _build_map(self) -> None:
        sys = self.system
        self.regs.add(
            Register(
                "CTRL",
                ADDR_CTRL,
                access="rw",
                reset=CTRL_TX_ENABLE | CTRL_RX_ENABLE,
                on_write=self._write_ctrl,
            )
        )
        self.regs.add(
            Register(
                "STATION_ADDRESS",
                ADDR_STATION_ADDRESS,
                access="rw",
                reset=sys.config.address,
            )
        )
        self.regs.add(
            Register(
                "IRQ_PENDING",
                ADDR_IRQ_PENDING,
                access="w1c",
                on_read=lambda: self._irq_pending,
                on_write=self._ack_irq,
            )
        )
        self.regs.add(Register("IRQ_MASK", ADDR_IRQ_MASK, access="rw", reset=0x7))
        self.regs.add(
            Register(
                "FRAMING",
                ADDR_FRAMING,
                access="rw",
                reset=(sys.config.esc_octet << 8) | sys.config.flag_octet,
                on_write=self._write_framing,
            )
        )

        for name, (addr, _) in COUNTERS.items():
            self.regs.add(Register(
                name, addr, access="ro", on_read=partial(COUNTER_READERS[name], sys)
            ))

    def _write_ctrl(self, value: int) -> None:
        self.system.tx.source.enabled = bool(value & CTRL_TX_ENABLE)
        # The receive path has no enable gate in this model; the bit is
        # stored for host readback.

    def _write_framing(self, value: int) -> None:
        """Live-reprogram the datapath's framing octets.

        This is the paper's programmability thesis taken to its
        logical end: the same silicon delineates any flag/escape pair
        (cf. the authors' follow-on work on programmable frame
        delineation).  Only safe on an idle link.
        """
        flag = value & 0xFF
        esc = (value >> 8) & 0xFF
        if flag == esc:
            return  # ignore nonsense writes, as hardware would
        sys = self.system
        escapes = frozenset(
            (set(sys.config.escape_octets) - {sys.config.flag_octet,
                                              sys.config.esc_octet})
            | {flag, esc}
        )
        sys.tx.escape.escapes = escapes
        sys.tx.escape.esc_octet = esc
        sys.tx.flags.flag_octet = flag
        sys.rx.delineator.flag_octet = flag
        sys.rx.delineator.esc_octet = esc
        sys.rx.escape.esc_octet = esc
        sys.rx.escape.flag_octet = flag

    def _ack_irq(self, _remaining: int) -> None:
        # w1c semantics already applied by RegisterMap on reg.value;
        # mirror into the live pending word.
        self._irq_pending = self.regs.register("IRQ_PENDING").value

    # ----------------------------------------------------------- interrupts
    def service(self) -> None:
        """Poll the datapath and raise edge-triggered interrupts.

        Call once per simulation quantum (the hardware equivalent is
        combinational event logic; polling granularity only affects
        interrupt latency, not which events are seen).
        """
        sys = self.system
        ok = sys.rx.crc.frames_ok
        err = (
            sys.rx.crc.fcs_errors
            + sys.rx.crc.runt_frames
            + sys.rx.delineator.aborts
            + sys.rx.delineator.oversize_drops
        )
        if ok > self._seen_rx_ok:
            self._raise(IRQ_RX_FRAME)
            self._seen_rx_ok = ok
        if err > self._seen_rx_err:
            self._raise(IRQ_RX_ERROR)
            self._seen_rx_err = err
        busy = sys.tx.busy
        if self._tx_was_busy and not busy:
            self._raise(IRQ_TX_DONE)
        self._tx_was_busy = busy

    def _raise(self, bit: int) -> None:
        self._irq_pending |= bit
        self.regs.register("IRQ_PENDING").value = self._irq_pending

    @property
    def irq_asserted(self) -> bool:
        """The level of the interrupt line to the host."""
        mask = self.regs.register("IRQ_MASK").value
        return bool(self._irq_pending & mask)

    # ------------------------------------------------------------- host API
    def read(self, address: int) -> int:
        """Host bus read."""
        return self.regs.read(address)

    def write(self, address: int, value: int) -> None:
        """Host bus write."""
        self.regs.write(address, value)
