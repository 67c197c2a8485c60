"""Code-offset fuzzy extractor for binary biometric templates.

A template is a fixed-length bit string (512 bits at defaults).  Gen
draws a uniform 128-bit key R, spreads it with a t-fold repetition code
(t = template bits / 128, so t = 4 by default) and publishes the XOR of
the codeword with the template as helper data.  Rep decodes each t-bit
block by majority vote, so any reading that differs in strictly fewer
than t/2 positions per block reproduces R exactly.  Ties (exactly t/2
flips in a block, possible because t is even) decode as 0.

The helper data leaks nothing useful about R to anyone without a close
template — a random template recovers each key bit with probability
well below 1, so all 128 bits essentially never.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import FIELD_BYTES, Field128, SessionRng

KEY_BITS = FIELD_BYTES * 8


@dataclass(frozen=True)
class BiometricTemplate:
    """One biometric reading as a packed bit string (MSB first)."""

    bits: bytes
    nbits: int

    def __post_init__(self) -> None:
        if self.nbits % 8 != 0 or len(self.bits) != self.nbits // 8:
            raise ValueError("template length does not match bit count")

    @classmethod
    def random(cls, rng: SessionRng, nbits: int) -> "BiometricTemplate":
        if nbits % 8 != 0:
            raise ValueError("template bit count must be a multiple of 8")
        return cls(rng.random_bytes(nbits // 8), nbits)

    def as_int(self) -> int:
        return int.from_bytes(self.bits, "big")


@dataclass(frozen=True)
class HelperData:
    """Public sketch published at enrollment: codeword XOR template."""

    offset: bytes
    nbits: int

    def __post_init__(self) -> None:
        if len(self.offset) != self.nbits // 8:
            raise ValueError("helper length does not match bit count")


def _repetition_factor(nbits: int) -> int:
    if nbits % KEY_BITS != 0:
        raise ValueError("template bits must be a multiple of %d" % KEY_BITS)
    t = nbits // KEY_BITS
    if t < 1:
        raise ValueError("template too short for a 128-bit key")
    return t


@lru_cache(maxsize=None)
def _byte_codewords(t: int) -> tuple[bytes, ...]:
    """Per byte value: its 8 bits each repeated t times, as t bytes."""
    return tuple(
        int("".join(bit * t for bit in format(byte, "08b")), 2).to_bytes(t, "big")
        for byte in range(256)
    )


def _expand(key: Field128, t: int) -> int:
    """Repetition-code encoding of a 128-bit key, as an int."""
    return int.from_bytes(b"".join(map(_byte_codewords(t).__getitem__, key)), "big")


@lru_cache(maxsize=None)
def _vote_masks(t: int) -> tuple[int, int, int, int, int, int, int]:
    """Constants of the bit-sliced majority vote over 128 t-bit blocks.

    Block j (counted from the least significant end) holds bits
    j*t .. j*t+t-1.  Returns the blocks' low bits; per parity (even,
    odd j) the blocks' full masks, the bias that carries a block's
    count into bit t exactly when it is a strict majority, and those
    carry bits.
    """
    even_low = sum(1 << (j * t) for j in range(0, KEY_BITS, 2))
    odd_low = even_low << t
    block = (1 << t) - 1
    bias = (1 << t) - (t // 2 + 1)  # count + bias >= 2**t iff 2 * count > t
    return (
        even_low | odd_low,
        even_low * block, even_low * bias, even_low << t,
        odd_low * block, odd_low * bias, odd_low << t,
    )


def gen(
    template: BiometricTemplate, rng: SessionRng
) -> tuple[Field128, HelperData]:
    """Enroll a template: returns (key R, helper data P)."""
    t = _repetition_factor(template.nbits)
    key = rng.field()
    offset = _expand(key, t) ^ template.as_int()
    helper = HelperData(offset.to_bytes(template.nbits // 8, "big"), template.nbits)
    return key, helper


def rep(template: BiometricTemplate, helper: HelperData) -> Field128:
    """Reproduce R from a (possibly noisy) reading of the same template.

    Never fails loudly: a far-off template simply decodes to the wrong
    key, and the scheme's own verifier (V) is what rejects it.
    """
    if template.nbits != helper.nbits:
        raise ValueError("template and helper sizes differ")
    t = _repetition_factor(template.nbits)
    noisy = template.as_int() ^ int.from_bytes(helper.offset, "big")
    low, even, even_bias, even_carry, odd, odd_bias, odd_carry = _vote_masks(t)
    # each block's bit count, summed lane by lane into the block's own
    # bits (a count of at most t fits in t bits, so blocks never mix)
    counts = 0
    for lane in range(t):
        counts += (noisy >> lane) & low
    # even and odd blocks apart, so a carry lands in an empty neighbour;
    # a tie (2 * count == t) carries nothing and decodes as 0
    votes = (((counts & even) + even_bias) & even_carry) | (
        ((counts & odd) + odd_bias) & odd_carry
    )
    # block j's vote sits at bit (j+1)*t: move it to j*t and keep every
    # t-th bit of the binary string, most significant block first
    key_int = int(format(votes >> t, "0%db" % template.nbits)[t - 1 :: t], 2)
    return Field128.from_int(key_int)


def flip_positions(
    template: BiometricTemplate, positions: list[int]
) -> BiometricTemplate:
    """Copy of the template with the given bit positions inverted.

    Position 0 is the most significant bit of the first byte, matching
    the block layout used by the repetition code.
    """
    word = template.as_int()
    for pos in positions:
        if not 0 <= pos < template.nbits:
            raise ValueError("flip position out of range")
        word ^= 1 << (template.nbits - 1 - pos)
    return BiometricTemplate(word.to_bytes(template.nbits // 8, "big"), template.nbits)


def perturb_within_tolerance(
    template: BiometricTemplate, rng: SessionRng, nblocks: int
) -> BiometricTemplate:
    """Reading noise the decoder is guaranteed to correct.

    Flips exactly one bit in `nblocks` distinct repetition blocks —
    within the majority decoder's radius once a block holds at least 3
    bits, so Rep recovers the enrolled key exactly.  This is what honest
    sessions use.  ValueError for noise in blocks of 1 or 2 bits (a 128-
    or 256-bit template), where one flip is not corrected.
    """
    t = _repetition_factor(template.nbits)
    if nblocks > 0 and t < 3:
        raise ValueError(
            "noise in a %d-bit template cannot be corrected: its blocks hold "
            "%d bit(s), and correcting one flip needs 3" % (template.nbits, t)
        )
    positions = [
        block * t + rng.below(t)
        for block in rng.positions(KEY_BITS, nblocks)
    ]
    return flip_positions(template, positions)
