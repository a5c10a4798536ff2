"""Octet-synchronous transparency (byte stuffing), RFC 1662 section 4.2.

This is the computation the paper's Escape Generate and Escape Detect
hardware performs, and the package's one frame-level implementation
of it.  :func:`stuff` serves :class:`~repro.hdlc.framer.HdlcFramer`
and :class:`~repro.fastpath.engine.FastpathEngine` on transmit;
:func:`unstuff` serves the framer's strict whole-frame decode and,
non-strict, the one streaming receiver
(:class:`~repro.hdlc.receiver.HdlcReceiver`) behind the delineator and
the fastpath.  The cycle-accurate pipelines in
:mod:`repro.core.escape_pipeline` are checked against them.

Both directions work on whole ``bytes`` buffers: stuffing is a
``bytes.replace`` chain, unstuffing a ``replace`` pass when every
escape is a conforming pair and a ``split`` walk otherwise.  The
framing octets are parameters because the P5's are programmable
(:attr:`~repro.core.config.P5Config.flag_octet` / ``esc_octet``).

The per-octet walks ``_stuff_scalar`` / ``_unstuff_scalar`` are the
legible reference the tests hold the kernels to.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Optional, Tuple

from repro.errors import AbortError, FramingError
from repro.hdlc.accm import Accm
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET

__all__ = ["escape_set", "stuff", "unstuff", "stuffed_length"]

_MANDATORY = frozenset({FLAG_OCTET, ESC_OCTET})


def escape_set(accm: Optional[Accm] = None) -> FrozenSet[int]:
    """The set of octet values that must be escaped on transmit."""
    if accm is None:
        return _MANDATORY
    return accm.escape_octets()


def stuffed_length(data: bytes, accm: Optional[Accm] = None) -> int:
    """Length of ``stuff(data)`` without materialising it.

    Every escapable octet costs exactly one extra octet, so this is
    ``len(data) + count(escapable)`` — the quantity the paper's
    resynchronisation buffer has to absorb.
    """
    return len(data) + sum(data.count(octet) for octet in escape_set(accm))


# --------------------------------------------------------------------- stuff
def _stuff_scalar(
    data: bytes, escapes: FrozenSet[int], esc: int = ESC_OCTET
) -> bytes:
    out = bytearray()
    for byte in data:
        if byte in escapes:
            out.append(esc)
            out.append(byte ^ ESCAPE_XOR)
        else:
            out.append(byte)
    return bytes(out)


@lru_cache(maxsize=64)
def _stuff_plan(
    mask: int, flag: int, esc: int
) -> Tuple[FrozenSet[int], Optional[Tuple[Tuple[bytes, bytes], ...]]]:
    """The escape set and its ``replace`` chain (``None``: no chain).

    The escape octet goes first, so no escape a later step inserts is
    escaped again.  A chain is exact only if no escaped form
    ``c ^ 0x20`` is itself escapable; that fails just for exotic
    programmable framing octets below 0x40 paired with an ACCM, which
    take the per-octet walk.
    """
    escapes = frozenset(
        {i for i in range(32) if (mask >> i) & 1} | {flag, esc}
    )
    if any(octet ^ ESCAPE_XOR in escapes for octet in escapes):
        return escapes, None
    order = [esc, flag] + sorted(escapes - {esc, flag})
    return escapes, tuple(
        (bytes((octet,)), bytes((esc, octet ^ ESCAPE_XOR))) for octet in order
    )


def stuff(
    data: bytes,
    accm: Optional[Accm] = None,
    *,
    flag: int = FLAG_OCTET,
    esc: int = ESC_OCTET,
) -> bytes:
    """Apply octet transparency: escape flags, escapes and ACCM octets.

    ``0x7E`` becomes ``0x7D 0x5E``, ``0x7D`` becomes ``0x7D 0x5D``, and
    any ACCM-selected control octet ``c`` becomes ``0x7D, c ^ 0x20``.
    """
    escapes, chain = _stuff_plan(accm.mask if accm is not None else 0, flag, esc)
    if chain is None:
        return _stuff_scalar(data, escapes, esc)
    out = bytes(data)
    for octet, pair in chain:
        out = out.replace(octet, pair)
    return out


# ------------------------------------------------------------------- unstuff
def _unstuff_scalar(data: bytes, *, strict: bool) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        if byte == FLAG_OCTET:
            raise FramingError(f"unescaped flag octet inside frame at offset {i}")
        if byte == ESC_OCTET:
            if i + 1 >= n:
                # The octet after a frame body is its closing flag, so
                # a trailing escape is the RFC 1662 abort sequence.
                raise AbortError("frame aborted: escape immediately before closing flag")
            nxt = data[i + 1]
            if nxt == FLAG_OCTET:
                raise AbortError(f"abort sequence (7D 7E) at offset {i}")
            restored = nxt ^ ESCAPE_XOR
            if strict and nxt == ESC_OCTET:
                # 7D 7D is not producible by a conforming sender.
                raise FramingError(f"invalid escape pair 7D 7D at offset {i}")
            out.append(restored)
            i += 2
        else:
            out.append(byte)
            i += 1
    return bytes(out)


@lru_cache(maxsize=64)
def _unstuff_octets(flag: int, esc: int) -> Tuple[bytes, bytes, bytes, bytes]:
    """``(ESC, FLAG, ESC FLAG^0x20, ESC ESC^0x20)`` as ``bytes``."""
    return (
        bytes((esc,)),
        bytes((flag,)),
        bytes((esc, flag ^ ESCAPE_XOR)),
        bytes((esc, esc ^ ESCAPE_XOR)),
    )


def _unstuff_walk(data: bytes, strict: bool, flag: int, esc: int) -> bytes:
    """Escape removal with :func:`~repro.core.escape_det.contract_word`
    run semantics: a deleting escape restores whatever octet follows,
    so non-strict ``7D 7D`` decodes to ``5D``."""
    parts = data.split(bytes((esc,)))
    last = len(parts) - 1
    out = bytearray()
    k = pos = 0
    seg = parts[0]
    while True:
        bare = seg.find(flag)
        if bare >= 0:
            raise FramingError(
                f"unescaped flag octet inside frame at offset {pos + bare}"
            )
        out += seg
        if k == last:
            return bytes(out)
        at = pos + len(seg)  # a deleting escape
        nxt = parts[k + 1]
        if nxt:
            if nxt[0] == flag:
                raise AbortError(f"abort sequence (7D 7E) at offset {at}")
            out.append(nxt[0] ^ ESCAPE_XOR)
            seg, k = nxt[1:], k + 1
        elif k + 1 == last:
            raise AbortError("frame aborted: escape immediately before closing flag")
        elif strict:
            raise FramingError(f"invalid escape pair 7D 7D at offset {at}")
        else:
            out.append(esc ^ ESCAPE_XOR)
            seg, k = parts[k + 2], k + 2
        pos = at + 2


def unstuff(
    data: bytes,
    *,
    strict: bool = True,
    flag: int = FLAG_OCTET,
    esc: int = ESC_OCTET,
) -> bytes:
    """Remove octet transparency (inverse of :func:`stuff`).

    ``data`` is the body *between* two flags, so a trailing escape
    octet means the escape was immediately followed by the closing
    flag — the RFC 1662 abort sequence.

    Raises
    ------
    AbortError
        On the abort sequence: ``0x7D 0x7E`` inside the buffer, or a
        trailing ``0x7D``.
    FramingError
        On a bare flag inside the frame or (when ``strict``) the
        unproducible pair ``0x7D 0x7D``.
    """
    esc_b, flag_b, flag_pair, esc_pair = _unstuff_octets(flag, esc)
    if flag not in data:
        escapes = data.count(esc_b)
        if not escapes:
            return bytes(data)
        # Conforming pairs cannot overlap, and restoring flags first
        # creates no new pair, so each replacement removes one octet:
        # one per escape iff every escape starts a conforming pair.
        clear = data.replace(flag_pair, flag_b).replace(esc_pair, esc_b)
        if len(data) - len(clear) == escapes:
            return clear
    return _unstuff_walk(data, strict, flag, esc)
