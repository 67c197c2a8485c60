"""Fuzzy extractor: exact recovery inside tolerance, failure beyond it."""

import pytest

from triauth.core import Field128, SessionRng
from triauth.fuzzy import (
    KEY_BITS,
    BiometricTemplate,
    HelperData,
    _expand,
    flip_positions,
    gen,
    perturb_within_tolerance,
    rep,
)


def hamming(a: BiometricTemplate, b: BiometricTemplate) -> int:
    """The number of bits in which two readings of one size differ."""
    return (a.as_int() ^ b.as_int()).bit_count()


def test_template_shape_is_validated():
    BiometricTemplate(bytes(64), 512)
    with pytest.raises(ValueError):
        BiometricTemplate(bytes(63), 512)
    with pytest.raises(ValueError):
        BiometricTemplate.random(SessionRng(1), 513)


def test_helper_shape_is_validated():
    HelperData(bytes(64), 512)
    with pytest.raises(ValueError):
        HelperData(bytes(63), 512)


def test_hamming_distance():
    a = BiometricTemplate(bytes(64), 512)
    b = flip_positions(a, [0, 7, 511])
    assert hamming(a, b) == 3


def test_exact_reading_recovers_the_key():
    rng = SessionRng(11)
    template = BiometricTemplate.random(rng, 512)
    key, helper = gen(template, rng)
    assert rep(template, helper) == key


def test_recovery_with_one_flip_in_every_block():
    """512/128 = 4-bit blocks: one flip per block is always correctable."""
    rng = SessionRng(12)
    template = BiometricTemplate.random(rng, 512)
    key, helper = gen(template, rng)
    worst = flip_positions(template, [4 * i for i in range(128)])
    assert hamming(worst, template) == 128
    assert rep(worst, helper) == key


def test_two_flips_in_one_block_break_that_block_only():
    """A 2-of-4 tie decodes as 0, so the result flips iff the bit was 1."""
    rng = SessionRng(13)
    template = BiometricTemplate.random(rng, 512)
    key, helper = gen(template, rng)
    bad = flip_positions(template, [0, 1])  # both flips inside block 0
    got = rep(bad, helper)
    key_msb = key[0] >> 7
    got_msb = got[0] >> 7
    if key_msb == 1:
        assert got_msb == 0  # tie collapsed the 1 to 0
        assert got != key
    else:
        assert got == key  # 0 survives a tie unchanged
    # three flips in one block always flip the decoded bit
    worse = flip_positions(template, [0, 1, 2])
    assert rep(worse, helper)[0] >> 7 == key_msb ^ 1


def test_perturb_within_tolerance_always_recovers():
    rng = SessionRng(14)
    for trial in range(25):
        template = BiometricTemplate.random(rng, 512)
        key, helper = gen(template, rng)
        for nblocks in (0, 1, 16, 64, 128):
            noisy = perturb_within_tolerance(template, rng, nblocks)
            assert hamming(noisy, template) == nblocks
            assert rep(noisy, helper) == key
    # the noise is a function of the seed alone
    assert (perturb_within_tolerance(template, SessionRng(99), 16)
            == perturb_within_tolerance(template, SessionRng(99), 16))


@pytest.mark.parametrize("nbits", [128, 256, 384, 512, 640])
def test_perturb_within_tolerance_decodes_or_refuses(nbits):
    rng = SessionRng(nbits)
    for trial in range(10):
        template = BiometricTemplate.random(rng, nbits)
        key, helper = gen(template, rng)
        for nblocks in (0, 1, 16, 128):
            try:
                noisy = perturb_within_tolerance(template, rng, nblocks)
            except ValueError as exc:
                # one flip is corrected in blocks of 3 or more bits only
                assert nblocks > 0 and nbits < 3 * KEY_BITS
                assert "cannot be corrected" in str(exc)
                continue
            assert rep(noisy, helper) == key


def test_unrelated_template_decodes_to_a_different_key():
    rng = SessionRng(15)
    misses = 0
    for _ in range(200):
        owner = BiometricTemplate.random(rng, 512)
        key, helper = gen(owner, rng)
        stranger = BiometricTemplate.random(rng, 512)
        if rep(stranger, helper) == key:
            misses += 1
    assert misses == 0


def test_rep_requires_matching_sizes():
    rng = SessionRng(16)
    template = BiometricTemplate.random(rng, 512)
    _, helper = gen(template, rng)
    other = BiometricTemplate.random(rng, 256)
    with pytest.raises(ValueError):
        rep(other, helper)


def test_gen_requires_block_aligned_templates():
    rng = SessionRng(17)
    odd = BiometricTemplate.random(rng, 136)  # not a multiple of 128
    with pytest.raises(ValueError):
        gen(odd, rng)


def test_flip_positions_bounds():
    template = BiometricTemplate(bytes(64), 512)
    with pytest.raises(ValueError):
        flip_positions(template, [512])
    with pytest.raises(ValueError):
        flip_positions(template, [-1])


def test_flip_positions_msb_first_layout():
    template = BiometricTemplate(bytes(64), 512)
    flipped = flip_positions(template, [0])
    assert flipped.bits[0] == 0x80  # position 0 is the MSB of byte 0


def test_gen_draws_fresh_keys():
    rng = SessionRng(19)
    template = BiometricTemplate.random(rng, 512)
    key1, _ = gen(template, rng)
    key2, _ = gen(template, rng)
    assert key1 != key2


# ---------------------------------------------------------------------------
# Oracle: the repetition code bit by bit, block by block
# ---------------------------------------------------------------------------

def _expand_reference(key: Field128, t: int) -> int:
    key_int = key.to_int()
    block = (1 << t) - 1
    word = 0
    for i in range(KEY_BITS):
        word <<= t
        if (key_int >> (KEY_BITS - 1 - i)) & 1:
            word |= block
    return word


def _rep_reference(template: BiometricTemplate, helper: HelperData) -> Field128:
    t = template.nbits // KEY_BITS
    noisy = template.as_int() ^ int.from_bytes(helper.offset, "big")
    block_mask = (1 << t) - 1
    key_int = 0
    for i in range(KEY_BITS):
        shift = (KEY_BITS - 1 - i) * t
        weight = ((noisy >> shift) & block_mask).bit_count()
        key_int <<= 1
        if weight * 2 > t:  # tie (weight*2 == t) decodes as 0
            key_int |= 1
    return Field128.from_int(key_int)


def _flips_per_block(template, rng, counts):
    """Flip counts[b] distinct positions inside repetition block b."""
    t = template.nbits // KEY_BITS
    return flip_positions(template, [
        block * t + pos
        for block, count in enumerate(counts)
        for pos in rng.positions(t, count)
    ])


@pytest.mark.parametrize("t", range(1, 9))
def test_expand_equals_the_reference(t):
    rng = SessionRng(40 + t)
    keys = [Field128(bytes(16)), Field128.from_int((1 << 128) - 1)]
    keys += [rng.field() for _ in range(50)]
    for key in keys:
        assert _expand(key, t) == _expand_reference(key, t)


@pytest.mark.parametrize("t", range(1, 9))
def test_rep_equals_the_reference(t):
    rng = SessionRng(50 + t)
    nbits = KEY_BITS * t
    near_half = (0, t // 2, (t + 1) // 2, t)
    for _ in range(10):
        template = BiometricTemplate.random(rng, nbits)
        key, helper = gen(template, rng)
        random_helper = HelperData(BiometricTemplate.random(rng, nbits).bits, nbits)
        readings = [
            template,
            BiometricTemplate.random(rng, nbits),
            _flips_per_block(template, rng, [t // 2] * KEY_BITS),
            _flips_per_block(
                template, rng, [near_half[rng.below(4)] for _ in range(KEY_BITS)]
            ),
        ]
        assert rep(template, helper) == key
        for reading in readings:
            for h in (helper, random_helper):
                assert rep(reading, h) == _rep_reference(reading, h)


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_a_tie_in_every_block_decodes_to_zero(t):
    rng = SessionRng(60 + t)
    template = BiometricTemplate.random(rng, KEY_BITS * t)
    _, helper = gen(template, rng)
    tied = _flips_per_block(template, rng, [t // 2] * KEY_BITS)
    assert rep(tied, helper) == Field128(bytes(16))
