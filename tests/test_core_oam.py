"""Unit tests for the Protocol OAM block and the register map."""

from functools import reduce

import pytest

from repro.core.config import P5Config
from repro.core.oam import (
    ADDR_CTRL,
    ADDR_ESC_INSERTED,
    ADDR_IRQ_MASK,
    ADDR_IRQ_PENDING,
    ADDR_RX_FCS_ERRORS,
    ADDR_RX_FRAMES_OK,
    ADDR_STATION_ADDRESS,
    ADDR_TX_FRAMES,
    COUNTERS,
    CTRL_RX_ENABLE,
    CTRL_TX_ENABLE,
    IRQ_RX_ERROR,
    IRQ_RX_FRAME,
    IRQ_TX_DONE,
)
from repro.core.p5 import P5System, build_duplex, run_duplex_exchange
from repro.core.regmap import Register, RegisterMap
from repro.errors import ConfigError
from repro.phy.line import make_beat_corruptor
from repro.workloads.packets import ppp_frame_contents

#: The counter register map written out independently of
#: ``repro.core.oam``: name -> (address, counter attribute on a P5System).
EXPECTED_COUNTERS = {
    "TX_FRAMES": (0x10, "tx.flags.frames_wrapped"),
    "RX_FRAMES_OK": (0x11, "rx.crc.frames_ok"),
    "RX_FCS_ERRORS": (0x12, "rx.crc.fcs_errors"),
    "RX_RUNTS": (0x13, "rx.crc.runt_frames"),
    "RX_HUNT_DISCARDS": (0x14, "rx.delineator.octets_discarded_hunting"),
    "ESC_INSERTED": (0x15, "tx.escape.octets_escaped"),
    "ESC_DELETED": (0x16, "rx.escape.octets_deleted"),
    "RESYNC_HIGHWATER_TX": (0x17, "tx.escape.max_resync_occupancy"),
    "RESYNC_HIGHWATER_RX": (0x18, "rx.escape.max_resync_occupancy"),
    "DANGLING_ESCAPES": (0x19, "rx.escape.dangling_escape_errors"),
    "RX_ABORTS": (0x1A, "rx.delineator.aborts"),
    "RX_OVERSIZE": (0x1B, "rx.delineator.oversize_drops"),
    "RESYNC_DROPS_RX": (0x1C, "rx.escape.resync_overflow_drops"),
}


class TestRegisterMap:
    def test_read_write(self):
        regs = RegisterMap()
        regs.add(Register("A", 0x0, access="rw", reset=5))
        assert regs.read(0x0) == 5
        regs.write(0x0, 9)
        assert regs.read(0x0) == 9

    def test_read_only_ignores_writes(self):
        regs = RegisterMap()
        regs.add(Register("S", 0x1, access="ro", reset=3))
        regs.write(0x1, 77)
        assert regs.read(0x1) == 3

    def test_w1c_semantics(self):
        regs = RegisterMap()
        reg = regs.add(Register("P", 0x2, access="w1c"))
        reg.value = 0b1011
        regs.write(0x2, 0b0010)
        assert regs.read(0x2) == 0b1001

    def test_on_read_provider(self):
        counter = {"n": 0}
        regs = RegisterMap()
        regs.add(Register("C", 0x3, access="ro",
                          on_read=lambda: counter["n"]))
        counter["n"] = 42
        assert regs.read(0x3) == 42

    def test_duplicate_address_rejected(self):
        regs = RegisterMap()
        regs.add(Register("A", 0x0))
        with pytest.raises(ConfigError):
            regs.add(Register("B", 0x0))

    def test_duplicate_name_rejected(self):
        regs = RegisterMap()
        regs.add(Register("A", 0x0))
        with pytest.raises(ConfigError):
            regs.add(Register("A", 0x1))

    def test_unknown_address(self):
        with pytest.raises(KeyError):
            RegisterMap().read(0x99)

    def test_reset(self):
        regs = RegisterMap()
        regs.add(Register("A", 0x0, reset=1))
        regs.write(0x0, 7)
        regs.reset()
        assert regs.read(0x0) == 1

    def test_name_access(self):
        regs = RegisterMap()
        regs.add(Register("A", 0x0))
        regs.write_name("A", 3)
        assert regs.read_name("A") == 3

    def test_dump_format(self):
        regs = RegisterMap()
        regs.add(Register("CTRL", 0x0, reset=0xAB))
        assert "CTRL" in regs.dump() and "0x000000AB" in regs.dump()

    def test_invalid_access_mode(self):
        with pytest.raises(ConfigError):
            Register("X", 0, access="wo")


class TestProtocolOam:
    def test_reset_values(self):
        oam = P5System(P5Config(address=0x0B)).oam
        assert oam.read(ADDR_STATION_ADDRESS) == 0x0B
        assert oam.read(ADDR_CTRL) == CTRL_TX_ENABLE | CTRL_RX_ENABLE

    def test_ctrl_gates_transmitter(self):
        system = P5System()
        system.oam.write(ADDR_CTRL, 0)   # clear TX enable
        assert not system.tx.source.enabled
        system.oam.write(ADDR_CTRL, CTRL_TX_ENABLE)
        assert system.tx.source.enabled

    def test_counters_reflect_traffic(self):
        result = run_duplex_exchange([b"frame one!", b"frame two!"], [], timeout=50_000)
        oam_a, oam_b = result.a.oam, result.b.oam
        assert oam_a.read(ADDR_TX_FRAMES) == 2
        assert oam_b.read(ADDR_RX_FRAMES_OK) == 2
        assert oam_b.read(ADDR_RX_FCS_ERRORS) == 0

    def test_escape_counters(self):
        content = bytes([0x7E] * 8)
        result = run_duplex_exchange([content], [], timeout=50_000)
        # Stuffing escapes the 8 flags (plus any escapable FCS octets).
        assert result.a.oam.read(ADDR_ESC_INSERTED) >= 8
        assert result.b.oam.regs.read_name("ESC_DELETED") == \
            result.a.oam.read(ADDR_ESC_INSERTED)

    def test_rx_frame_interrupt(self):
        result = run_duplex_exchange([b"interrupt me"], [], timeout=50_000)
        oam = result.b.oam
        assert oam.read(ADDR_IRQ_PENDING) & IRQ_RX_FRAME
        assert oam.irq_asserted

    def test_tx_done_interrupt(self):
        result = run_duplex_exchange([b"payload"], [], timeout=50_000)
        assert result.a.oam.read(ADDR_IRQ_PENDING) & IRQ_TX_DONE

    def test_irq_ack_clears(self):
        result = run_duplex_exchange([b"payload"], [], timeout=50_000)
        oam = result.b.oam
        pending = oam.read(ADDR_IRQ_PENDING)
        oam.write(ADDR_IRQ_PENDING, pending)   # w1c everything
        assert oam.read(ADDR_IRQ_PENDING) == 0
        assert not oam.irq_asserted

    def test_irq_mask(self):
        result = run_duplex_exchange([b"payload"], [], timeout=50_000)
        oam = result.b.oam
        oam.write(ADDR_IRQ_MASK, 0)
        assert not oam.irq_asserted

    def test_resync_highwater_exposed(self):
        content = bytes([0x7E] * 64)
        result = run_duplex_exchange([content], [], timeout=50_000)
        hw = result.a.oam.regs.read_name("RESYNC_HIGHWATER_TX")
        assert 1 <= hw <= 3


class TestCounterMap:
    def test_counter_table_matches_the_register_map(self):
        assert COUNTERS == EXPECTED_COUNTERS

    def test_every_counter_register_reads_its_datapath_counter(self):
        """Across a duplex exchange over a damaged a->b line, each
        counter register reads the module attribute it names."""
        frames = [b"\x7e\x7d" * 8] + ppp_frame_contents(20, seed=5)
        corrupt = make_beat_corruptor(ber=2e-4, seed=9)
        a, b, sim = build_duplex(P5Config.thirty_two_bit(), corrupt_ab=corrupt)
        for frame in frames:
            a.submit(frame)
            b.submit(frame)
        sim.run_until(
            lambda: not a.tx.busy and not b.tx.busy and a.idle() and b.idle(),
            timeout=500_000,
        )
        for system in (a, b):
            for name, (address, attribute) in EXPECTED_COUNTERS.items():
                truth = reduce(getattr, attribute.split("."), system)
                assert system.oam.read(address) == truth, (system.name, name)
        assert b.oam.read(ADDR_RX_FCS_ERRORS) > 0
        assert b.oam.read(ADDR_IRQ_PENDING) & IRQ_RX_ERROR
        assert a.oam.read(ADDR_ESC_INSERTED) > 0
