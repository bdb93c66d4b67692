"""The Michael message integrity code and its inversion (paper §2.2, §5).

Michael is TKIP's 64-bit MIC.  Its block function is a tiny unkeyed
Feistel-like mixer; the secret is only the 64-bit initial state.  Because
every step is invertible, knowing a message *and* its MIC value lets an
attacker run the algorithm backwards and recover the MIC key — the
Tews-Beck observation the paper relies on ("Unfortunately Micheal is
straightforward to invert", §2.2).  :func:`recover_key` implements that
inversion; the TKIP attack calls it on the decrypted packet (§5.3).

Michael processes the MSDU header (DA, SA, priority) and payload as
little-endian 32-bit words, padded with 0x5a and zeros.
"""

from __future__ import annotations

import struct

from ..errors import MichaelError
from ..utils.bytesops import rotl32, rotr32, xswap32

_MASK32 = 0xFFFFFFFF


def _block(left: int, right: int) -> tuple[int, int]:
    """The Michael block function b(L, R)."""
    right ^= rotl32(left, 17)
    left = (left + right) & _MASK32
    right ^= xswap32(left)
    left = (left + right) & _MASK32
    right ^= rotl32(left, 3)
    left = (left + right) & _MASK32
    right ^= rotr32(left, 2)
    left = (left + right) & _MASK32
    return left, right


def _block_inverse(left: int, right: int) -> tuple[int, int]:
    """Inverse of :func:`_block` (each step undone in reverse order)."""
    left = (left - right) & _MASK32
    right ^= rotr32(left, 2)
    left = (left - right) & _MASK32
    right ^= rotl32(left, 3)
    left = (left - right) & _MASK32
    right ^= xswap32(left)
    left = (left - right) & _MASK32
    right ^= rotl32(left, 17)
    return left, right


class MichaelState:
    """The 64-bit Michael state machine, runnable in both directions.

    Michael's only secret is its initial (L, R) state — the MIC key —
    and every step is invertible, so the same object supports forward
    MIC computation and the Tews–Beck backward key recovery (paper
    §2.2; Beck, *Enhanced TKIP Michael Attacks*, 2010).  Words are the
    padded little-endian 32-bit message words of
    :func:`message_words`.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left & _MASK32
        self.right = right & _MASK32

    @classmethod
    def from_key(cls, key: bytes) -> "MichaelState":
        if len(key) != 8:
            raise MichaelError(f"Michael key must be 8 bytes, got {len(key)}")
        return cls(*struct.unpack("<II", key))

    @classmethod
    def from_mic(cls, mic: bytes) -> "MichaelState":
        if len(mic) != 8:
            raise MichaelError(f"MIC must be 8 bytes, got {len(mic)}")
        return cls(*struct.unpack("<II", mic))

    def copy(self) -> "MichaelState":
        return MichaelState(self.left, self.right)

    def mix(self, word: int) -> "MichaelState":
        """Absorb one message word (forward direction)."""
        self.left ^= word & _MASK32
        self.left, self.right = _block(self.left, self.right)
        return self

    def unmix(self, word: int) -> "MichaelState":
        """Undo :meth:`mix` of ``word`` (backward direction)."""
        self.left, self.right = _block_inverse(self.left, self.right)
        self.left ^= word & _MASK32
        return self

    def digest(self) -> bytes:
        """The packed state — the MIC going forward, the key going back."""
        return struct.pack("<II", self.left, self.right)


def michael_header(da: bytes, sa: bytes, priority: int = 0) -> bytes:
    """The MIC header block: DA || SA || priority || 3 zero bytes."""
    if len(da) != 6 or len(sa) != 6:
        raise MichaelError("DA and SA must be 6-byte MAC addresses")
    if not 0 <= priority <= 15:
        raise MichaelError(f"bad priority {priority}")
    return bytes(da) + bytes(sa) + bytes((priority, 0, 0, 0))


def message_words(message: bytes) -> list[int]:
    """Michael padding: append 0x5a then zeros to a multiple of 4 bytes
    (at least 4 zero bytes follow the 0x5a marker), as little-endian
    32-bit words."""
    padded = bytes(message) + b"\x5a" + b"\x00" * 4
    padded += b"\x00" * ((-len(padded)) % 4)
    return [
        struct.unpack_from("<I", padded, offset)[0]
        for offset in range(0, len(padded), 4)
    ]


def michael(key: bytes, message: bytes) -> bytes:
    """Compute the 8-byte Michael MIC of ``message`` under ``key``.

    Args:
        key: 8-byte MIC key (one direction's key from the PTK).
        message: header block plus MSDU data (see :func:`michael_header`).
    """
    state = MichaelState.from_key(key)
    for word in message_words(message):
        state.mix(word)
    return state.digest()


def recover_key(message: bytes, mic: bytes) -> bytes:
    """Invert Michael: derive the MIC key from a message and its MIC.

    Runs the algorithm backwards from the final state (the MIC) through
    the message words to the initial state (the key) — the §2.2 attack
    enabling packet injection once one packet is decrypted.
    """
    state = MichaelState.from_mic(mic)
    for word in reversed(message_words(message)):
        state.unmix(word)
    return state.digest()
