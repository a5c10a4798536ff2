"""Golden values for the STS-Nc framers.

The transmit side pins the wire bytes of five seeded frames for every
STS level the package models and a sweep of pointers.  The receive
side pins what :class:`SonetRxFramer` makes of those frames after
leading junk, seeded bit flips (one of them on the A1 byte of the
third frame) and a seeded chunking: the recovered payload, every
:class:`RxCounters` field and the final alignment state, once with the
default OOF threshold and once with a threshold of one frame.

A change to the framers' internals must leave every value here as it
is; a change that means to move one says so.
"""

import dataclasses
import functools
import hashlib
import random

import pytest

from repro.sonet import SonetFramer, SonetRxFramer
from repro.sonet.constants import SONET_C2_PPP_SCRAMBLED

LEVELS = (1, 3, 12, 48)
POINTERS = (0, 1, 86, 260, 782)
FRAMES = 5


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _payloads(n: int, pointer: int):
    rng = random.Random(1000 * n + pointer)
    size = SonetFramer(n).payload_bytes_per_frame
    return [bytes(rng.getrandbits(8) for _ in range(size)) for _ in range(FRAMES)]


@functools.lru_cache(maxsize=None)
def _wire(n: int, pointer: int) -> bytes:
    tx = SonetFramer(n, pointer=pointer)
    return b"".join(tx.build(p) for p in _payloads(n, pointer))


def _damaged_stream(n: int, pointer: int) -> bytes:
    rng = random.Random(7 * n + pointer)
    junk = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 3 * 90 * n)))
    wire = bytearray(_wire(n, pointer))
    frame = len(wire) // FRAMES
    wire[2 * frame] ^= 0x01                       # A1 of the third frame
    for _ in range(6):
        wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
    return junk + bytes(wire)


def _receive(n: int, pointer: int, oof_threshold: int):
    stream = _damaged_stream(n, pointer)
    rng = random.Random(11 * n + pointer + oof_threshold)
    rx = SonetRxFramer(n, expected_c2=SONET_C2_PPP_SCRAMBLED, oof_threshold=oof_threshold)
    got = bytearray()
    at = 0
    while at < len(stream):
        step = rng.randrange(1, 5000)
        got += rx.feed(stream[at : at + step])
        at += step
    counters = tuple(dataclasses.astuple(rx.counters))
    return _sha(bytes(got)), counters, rx.state.value


TX_GOLDEN = {
    (1, 0): '22c4a88f311ef39d',
    (1, 1): '5bb98737f3c0a68b',
    (1, 86): 'cc34b9b1a7f0abd5',
    (1, 260): 'aee693a0f703e08d',
    (1, 782): '783d5ed3c22c7824',
    (3, 0): 'dffa2fc954aa1abf',
    (3, 1): '3a5021d75938a2b5',
    (3, 86): '2156d15f03a3582d',
    (3, 260): '0f891659b3892374',
    (3, 782): 'b607dec8eb0bca55',
    (12, 0): 'ac4ffe895f34183c',
    (12, 1): '1d703764e52ae895',
    (12, 86): '4892a77e8eacd619',
    (12, 260): '4416c0c30ba6c04e',
    (12, 782): '183ee535db2b5d49',
    (48, 0): 'd775a5c1b1259c8f',
    (48, 1): '34107dc867e7d047',
    (48, 86): '1f503d740c18248a',
    (48, 260): 'ad25446c4541d662',
    (48, 782): '4168ed8be3b98be6',
}

RX_GOLDEN = {
    (1, 0, 1): ('e18fd99c7c20c216', (4, 1, 0, 2, 2, 2, 0, 0, 976), 'sync'),
    (1, 0, 4): ('e18fd99c7c20c216', (4, 0, 0, 3, 3, 3, 0, 0, 166), 'sync'),
    (1, 1, 1): ('dd072860baf8db75', (4, 1, 0, 1, 0, 1, 0, 0, 927), 'sync'),
    (1, 1, 4): ('dd072860baf8db75', (4, 0, 0, 2, 1, 2, 0, 0, 117), 'sync'),
    (1, 86, 1): ('5bcc6e4c57988bc1', (4, 1, 0, 2, 1, 2, 0, 0, 1064), 'sync'),
    (1, 86, 4): ('5bcc6e4c57988bc1', (4, 0, 0, 3, 2, 3, 0, 0, 254), 'sync'),
    (1, 260, 1): ('d4159f533fcad224', (4, 1, 0, 2, 2, 2, 0, 0, 912), 'sync'),
    (1, 260, 4): ('d4159f533fcad224', (4, 0, 0, 3, 3, 3, 0, 0, 102), 'sync'),
    (1, 782, 1): ('26d4424fec9b6064', (4, 1, 0, 2, 1, 2, 0, 0, 1056), 'sync'),
    (1, 782, 4): ('26d4424fec9b6064', (4, 0, 0, 3, 2, 3, 0, 0, 246), 'sync'),
    (3, 0, 1): ('bf8c287cf7ea4141', (4, 1, 0, 1, 1, 1, 0, 0, 2599), 'sync'),
    (3, 0, 4): ('bf8c287cf7ea4141', (4, 0, 0, 2, 2, 2, 0, 0, 169), 'sync'),
    (3, 1, 1): ('e8e29606a9e87d2a', (4, 1, 0, 1, 1, 1, 0, 0, 2574), 'sync'),
    (3, 1, 4): ('e8e29606a9e87d2a', (4, 0, 0, 2, 2, 2, 0, 0, 144), 'sync'),
    (3, 86, 1): ('0cb6063de39a27bb', (4, 1, 0, 1, 0, 1, 0, 0, 2683), 'sync'),
    (3, 86, 4): ('0cb6063de39a27bb', (4, 0, 0, 2, 1, 2, 0, 0, 253), 'sync'),
    (3, 260, 1): ('7fd2552fa113c68d', (4, 1, 0, 1, 1, 1, 0, 0, 2451), 'sync'),
    (3, 260, 4): ('7fd2552fa113c68d', (4, 0, 0, 2, 2, 2, 0, 0, 21), 'sync'),
    (3, 782, 1): ('c56ebd6d2822bfc0', (4, 1, 0, 2, 2, 2, 0, 0, 2542), 'sync'),
    (3, 782, 4): ('c56ebd6d2822bfc0', (4, 0, 0, 3, 3, 3, 0, 0, 112), 'sync'),
    (12, 0, 1): ('ae9c3b4bf3c4de55', (4, 1, 0, 1, 0, 1, 0, 0, 12717), 'sync'),
    (12, 0, 4): ('ae9c3b4bf3c4de55', (4, 0, 0, 2, 1, 2, 0, 0, 2997), 'sync'),
    (12, 1, 1): ('a939207a7e0a3ec8', (4, 1, 0, 1, 1, 1, 0, 0, 10538), 'sync'),
    (12, 1, 4): ('a939207a7e0a3ec8', (4, 0, 0, 2, 2, 2, 0, 0, 818), 'sync'),
    (12, 86, 1): ('9ea348508c52b7c4', (4, 1, 0, 2, 0, 2, 0, 0, 12946), 'sync'),
    (12, 86, 4): ('9ea348508c52b7c4', (4, 0, 0, 3, 1, 3, 0, 0, 3226), 'sync'),
    (12, 260, 1): ('ee50237a9c12762d', (4, 1, 0, 2, 2, 2, 0, 0, 11262), 'sync'),
    (12, 260, 4): ('ee50237a9c12762d', (4, 0, 0, 3, 3, 3, 0, 0, 1542), 'sync'),
    (12, 782, 1): ('9cbba3c1baae8481', (4, 1, 0, 2, 2, 2, 0, 0, 10203), 'sync'),
    (12, 782, 4): ('9cbba3c1baae8481', (4, 0, 0, 3, 3, 3, 0, 0, 483), 'sync'),
    (48, 0, 1): ('97bd825c6197b26a', (4, 1, 0, 1, 1, 1, 0, 0, 38984), 'sync'),
    (48, 0, 4): ('97bd825c6197b26a', (4, 0, 0, 2, 2, 2, 0, 0, 104), 'sync'),
    (48, 1, 1): ('6cd3917ed2c7c963', (4, 1, 0, 0, 0, 0, 0, 0, 42188), 'sync'),
    (48, 1, 4): ('6cd3917ed2c7c963', (4, 0, 0, 1, 1, 1, 0, 0, 3308), 'sync'),
    (48, 86, 1): ('8adafb5807fcfbc9', (4, 1, 0, 1, 1, 1, 0, 0, 45204), 'sync'),
    (48, 86, 4): ('8adafb5807fcfbc9', (4, 0, 0, 2, 2, 2, 0, 0, 6324), 'sync'),
    (48, 260, 1): ('fdc28e9b336c50fa', (4, 1, 0, 2, 2, 2, 0, 0, 45504), 'sync'),
    (48, 260, 4): ('fdc28e9b336c50fa', (4, 0, 0, 3, 3, 3, 0, 0, 6624), 'sync'),
    (48, 782, 1): ('c6e566da4a51f68f', (4, 1, 0, 2, 1, 2, 0, 0, 42645), 'sync'),
    (48, 782, 4): ('c6e566da4a51f68f', (4, 0, 0, 3, 2, 3, 0, 0, 3765), 'sync'),
}


@pytest.mark.parametrize("n", LEVELS)
@pytest.mark.parametrize("pointer", POINTERS)
def test_wire_bytes(n, pointer):
    assert _sha(_wire(n, pointer)) == TX_GOLDEN[n, pointer]


@pytest.mark.parametrize("n", LEVELS)
@pytest.mark.parametrize("pointer", POINTERS)
@pytest.mark.parametrize("oof_threshold", (1, 4))
def test_receiver(n, pointer, oof_threshold):
    assert _receive(n, pointer, oof_threshold) == RX_GOLDEN[n, pointer, oof_threshold]
