"""Cycle-accurate pipelined Escape Generate / Escape Detect units.

This module is the paper's core claim, reproduced at clock-cycle
granularity: the word-parallel transparency problem "has been solved
by devising a data reordering mechanism and by further pipelining the
unit ... the process is divided up into 4 pipelined stages with
buffering and decisional mechanisms implemented.  The first data
transmitted is therefore delayed by 4 clock cycles, approximately
50ns.  Subsequent data flow is continuous and efficient."

Pipeline structure (32-bit unit, ``pipeline_stages=4``)::

    stage 1      stage 2      stage 3              stage 4
    detect   ->  expand   ->  sort (carry reg) ->  emit (resync buf)
    (lane        (byte        (barrel shift        (output register +
     compare)     insert/      realignment)         backpressure)
                  delete)

In this model stages 1 and 2 are *registers holding the expanded job*
(their combinational work — lane comparison and byte insertion — is
computed once at intake, since only its timing, not its value, is
cycle-dependent), stage 3 merges the job into the carry register, and
stage 4 drains completed words through the resynchronisation buffer.
A job therefore takes exactly ``pipeline_stages`` cycles from intake
to first possible emission.

Backpressure: when the resynchronisation buffer cannot absorb the
words a job would complete, stage 3 refuses to consume and the stall
ripples back to the input — the mechanism that keeps the buffer
"extremely low" under the worst-case all-flag payload (where stuffing
doubles the stream and the unit *must* halve its intake rate).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, List, Optional

from repro.core.escape_det import contract_word
from repro.core.escape_gen import expand_word
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.rtl.module import BufferBound, Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import WordBeat

__all__ = ["PipelinedEscapeGenerate", "PipelinedEscapeDetect"]

_DEFAULT_ESCAPES = frozenset({FLAG_OCTET, ESC_OCTET})


class _Job:
    """One word's worth of work travelling down the pipeline."""

    __slots__ = ("data", "eof", "sof")

    def __init__(self, data: bytes, eof: bool, sof: bool) -> None:
        self.data = data      # expanded (gen) or contracted (det) octets
        self.eof = eof
        self.sof = sof


class _EscapePipelineBase(Module):
    """Shared skeleton of the generate and detect units."""

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        pipeline_stages: int = 4,
        resync_depth_words: int = 3,
    ) -> None:
        super().__init__(name)
        if pipeline_stages < 2:
            raise ValueError("the unit needs at least sort + emit stages (2)")
        # A single job can complete up to 3 words (carry W-1 + 2W new
        # bytes, plus an eof flush); the buffer must absorb one whole
        # job or the sort stage deadlocks against its own backpressure.
        if resync_depth_words < 3:
            raise ValueError(
                "resync buffer must hold at least 3 words (one worst-case job)"
            )
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.pipeline_stages = pipeline_stages
        self.resync_capacity = resync_depth_words
        # Stage registers between intake and the sort stage.
        self._regs: List[Optional[_Job]] = [None] * (pipeline_stages - 2)
        self._intake_job: Optional[_Job] = None   # two-stage units only
        self._carry = bytearray()
        self._resync: Deque[WordBeat] = deque()
        self._frame_open = False
        # Statistics the OAM exposes.
        self.resync_overflow_drops = 0
        self.max_resync_occupancy = 0
        self.max_carry_occupancy = 0
        self.words_in = 0
        self.words_out = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # ------------------------------------------------------------- per unit
    def _transform(self, beat: WordBeat) -> bytes:
        """Stage-1/2 combinational work (subclass hook)."""
        raise NotImplementedError

    def _on_eof_flush(self) -> None:
        """Subclass hook at frame end (error checks)."""

    # ------------------------------------------------------------ the clock
    def clock(self) -> None:
        self._emit_stage()
        self._sort_stage()
        self._shift_stage()
        self._intake_stage()

    def _emit_stage(self) -> None:
        """Stage 4: move one completed word to the output register."""
        if self._resync and self.out.can_push:
            beat = self._resync.popleft()
            self.out.push(beat)
            self.words_out += 1
            self.bytes_out += beat.n_valid
        elif self._resync:
            self.note_stall()

    def _sort_stage(self) -> None:
        """Stage 3: merge the oldest job into the carry register."""
        job = self._regs[-1] if self._regs else self._staged_input()
        if job is None:
            return
        produced = self._words_job_would_complete(job)
        if len(self._resync) + produced > self.resync_capacity:
            self.note_stall()
            return  # backpressure: leave the job in its register
        self._consume_oldest()
        sof_pending = job.sof
        self._carry.extend(job.data)
        if len(self._carry) > self.max_carry_occupancy:
            self.max_carry_occupancy = len(self._carry)
        while len(self._carry) >= self.width_bytes:
            word = bytes(self._carry[: self.width_bytes])
            del self._carry[: self.width_bytes]
            self._push_resync(word, sof=sof_pending, eof=False)
            sof_pending = False
        if job.eof:
            self._on_eof_flush()
            if self._carry:
                self._push_resync(bytes(self._carry), sof=sof_pending, eof=True)
                self._carry.clear()
            elif self._resync:
                last = self._resync[-1]
                self._resync[-1] = WordBeat(
                    last.lanes, last.valid, sof=last.sof, eof=True
                )
            else:
                # Every remaining octet of the frame was a deleted
                # escape (e.g. a force-closed abort fragment ending in
                # a dangling escape): deliver the eof on an all-invalid
                # beat so this frame cannot merge into the next one.
                w = self.width_bytes
                self._resync.append(
                    WordBeat((0,) * w, (False,) * w, sof=sof_pending, eof=True)
                )

    def _push_resync(self, word: bytes, *, sof: bool, eof: bool) -> None:
        if len(self._resync) >= self.resync_capacity:
            # The sort stage pre-checks capacity, so this is a defensive
            # bound for fault campaigns: a register upset shrinking the
            # buffer must degrade to a counted drop, never an assertion.
            self.resync_overflow_drops += 1
            return
        beat = WordBeat.from_bytes(word, self.width_bytes, sof=sof, eof=eof)
        self._resync.append(beat)
        if len(self._resync) > self.max_resync_occupancy:
            self.max_resync_occupancy = len(self._resync)

    def _words_job_would_complete(self, job: _Job) -> int:
        total = len(self._carry) + len(job.data)
        words = total // self.width_bytes
        if job.eof and total % self.width_bytes:
            words += 1
        return words

    # For pipeline_stages == 2 there are no intermediate registers and
    # the sort stage reads the input channel directly.
    def _staged_input(self) -> Optional[_Job]:
        if self._regs:
            return self._regs[-1]
        if self._intake_job is None and self.inp.can_pop:
            beat = self.inp.pop()
            self._account_input(beat)
            self._intake_job = self._make_job(beat)
        return self._intake_job

    def _consume_oldest(self) -> None:
        if self._regs:
            self._regs[-1] = None
        else:
            self._intake_job = None

    def _shift_stage(self) -> None:
        """Advance jobs through the intermediate stage registers."""
        for i in range(len(self._regs) - 1, 0, -1):
            if self._regs[i] is None and self._regs[i - 1] is not None:
                self._regs[i] = self._regs[i - 1]
                self._regs[i - 1] = None

    def _intake_stage(self) -> None:
        """Stage 1: accept one input word if the first register is free."""
        if not self._regs:
            return  # two-stage unit: intake handled by the sort stage
        if self._regs[0] is None and self.inp.can_pop:
            beat = self.inp.pop()
            self._regs[0] = self._make_job(beat)
            self._account_input(beat)

    def _make_job(self, beat: WordBeat) -> _Job:
        sof = not self._frame_open
        self._frame_open = not beat.eof
        return _Job(data=self._transform(beat), eof=beat.eof, sof=sof)

    def _account_input(self, beat: WordBeat) -> None:
        self.words_in += 1
        self.bytes_in += beat.n_valid

    def _resync_bound(self) -> BufferBound:
        """The paper's "extremely low" buffer, as a checkable bound."""
        return BufferBound(
            name="resync",
            capacity=self.resync_capacity,
            # One worst-case job completes 3 words (carry W-1 octets +
            # 2W expanded octets + an eof flush); the sort stage's
            # pre-check keeps occupancy within whatever the buffer
            # holds, but below 3 it deadlocks against itself.
            min_required=3,
            peak_attr="max_resync_occupancy",
            why="one maximally expanded job (carry + 2W octets + eof flush)",
        )

    # ---------------------------------------------------------------- status
    @property
    def idle(self) -> bool:
        """No data anywhere in the unit."""
        return (
            not self._resync
            and not self._carry
            and self._intake_job is None
            and all(r is None for r in self._regs)
        )

    @property
    def quiescent(self) -> bool:
        # All four stages are empty and no word is waiting at the
        # intake: every stage function falls straight through.
        return not self.inp.can_pop and self.idle


class PipelinedEscapeGenerate(_EscapePipelineBase):
    """The transmit-side unit: insert escapes, word-parallel.

    The programmable escape set (flag + escape + ACCM picks) is the
    paper's programmability hook for this unit.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        escapes: FrozenSet[int] = _DEFAULT_ESCAPES,
        esc_octet: int = ESC_OCTET,
        pipeline_stages: int = 4,
        resync_depth_words: int = 3,
    ) -> None:
        super().__init__(
            name,
            inp,
            out,
            width_bytes=width_bytes,
            pipeline_stages=pipeline_stages,
            resync_depth_words=resync_depth_words,
        )
        self.escapes = escapes
        self.esc_octet = esc_octet
        self.octets_escaped = 0

    def _transform(self, beat: WordBeat) -> bytes:
        expanded = expand_word(beat, self.escapes, self.esc_octet)
        self.octets_escaped += len(expanded) - beat.n_valid
        return expanded

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            # "The first data transmitted is therefore delayed by 4
            # clock cycles, approximately 50ns": one cycle per stage
            # from intake to first emission.
            latency_cycles=self.pipeline_stages,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Stuffing at worst doubles every octet (all-flag
                    # payload); it never deletes.
                    max_expansion=2.0,
                ),
            ),
            buffers=(self._resync_bound(),),
        )


class PipelinedEscapeDetect(_EscapePipelineBase):
    """The receive-side unit: delete escapes, fill the bubbles.

    Holds the cross-word ``pending_xor`` state in its detect stage —
    the case of an escape octet in the last lane of a word.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        esc_octet: int = ESC_OCTET,
        flag_octet: int = FLAG_OCTET,
        pipeline_stages: int = 4,
        resync_depth_words: int = 3,
    ) -> None:
        super().__init__(
            name,
            inp,
            out,
            width_bytes=width_bytes,
            pipeline_stages=pipeline_stages,
            resync_depth_words=resync_depth_words,
        )
        self.esc_octet = esc_octet
        self.flag_octet = flag_octet
        self._pending_xor = False
        self.octets_deleted = 0
        self.dangling_escape_errors = 0

    def _transform(self, beat: WordBeat) -> bytes:
        contracted, self._pending_xor, deleted = contract_word(
            beat, self._pending_xor, self.esc_octet, self.flag_octet
        )
        self.octets_deleted += deleted
        if beat.eof and self._pending_xor:
            # Dangling escape at frame end: the control FSM is told via
            # the OAM; the truncated frame will fail its FCS anyway.
            self.dangling_escape_errors += 1
            self._pending_xor = False
        return contracted

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            # One cycle per stage, plus one: contraction can leave the
            # first job short of a full word, deferring the first
            # emission until the second job tops up the carry.
            latency_cycles=self.pipeline_stages + 1,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Destuffing only deletes; at worst every second
                    # octet is an escape and the stream halves.
                    max_expansion=1.0,
                    min_expansion=0.5,
                ),
            ),
            buffers=(self._resync_bound(),),
        )
