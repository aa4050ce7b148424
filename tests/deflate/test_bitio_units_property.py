"""Property tests for the bit/byte unit conversions and BitReader offsets.

The REP014 units analysis assumes the conversions in :mod:`repro.units`
and the BitReader's position accounting agree on one invariant:

    ``bytes_to_bits(bits_to_bytes(b)) + intra_byte_bits(b) == b``

i.e. a bit offset decomposes exactly into a byte offset plus an
intra-byte remainder in ``[0, 8)``.  Hypothesis drives random offsets
and random read/align/seek programs against a model counter to pin the
invariant down at runtime, not just in the lattice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.bitio import BitReader
from repro.units import (
    BitOffset,
    bits_to_bytes,
    bytes_to_bits,
    ceil_bits_to_bytes,
    intra_byte_bits,
)

_offsets = st.integers(min_value=0, max_value=1 << 40)


@given(_offsets)
def test_bit_offset_roundtrip_decomposition(bit_offset):
    assert (
        bytes_to_bits(bits_to_bytes(bit_offset)) + intra_byte_bits(bit_offset)
        == bit_offset
    )


@given(_offsets)
def test_intra_byte_remainder_range(bit_offset):
    assert 0 <= intra_byte_bits(bit_offset) < 8


@given(_offsets)
def test_ceil_floor_bracket_the_offset(bit_offset):
    floor = bits_to_bytes(bit_offset)
    ceil = ceil_bits_to_bytes(bit_offset)
    assert floor <= ceil <= floor + 1
    assert (ceil == floor) == (intra_byte_bits(bit_offset) == 0)
    assert bytes_to_bits(ceil) >= bit_offset


@given(st.integers(min_value=0, max_value=1 << 30))
def test_bytes_to_bits_is_exact_inverse_on_aligned(byte_offset):
    bit = bytes_to_bits(byte_offset)
    assert bits_to_bytes(bit) == byte_offset
    assert intra_byte_bits(bit) == 0


# One program step: read n bits, align to the next byte boundary, or
# seek to an absolute bit offset (the latter given as a fraction of the
# stream so it is always in range).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=25)),
        st.tuples(st.just("align"), st.just(0)),
        st.tuples(st.just("seek"), st.integers(min_value=0, max_value=10_000)),
    ),
    max_size=30,
)


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=64), _steps)
def test_reader_position_matches_model(data, steps):
    """tell_bits() tracks a plain integer model across arbitrary ops."""
    reader = BitReader(data)
    total = 8 * len(data)
    model = 0
    for op, arg in steps:
        if op == "read":
            nbits = min(arg, total - model)
            reader.read(nbits)
            model += nbits
        elif op == "align":
            reader.align_to_byte()
            model += -model % 8
            model = min(model, total)
        else:
            target = arg % (total + 1)
            reader.seek_bits(BitOffset(target))
            model = target
        pos = reader.tell_bits()
        assert pos == model
        # The decomposition invariant holds at every intermediate
        # position, not just for synthetic offsets.
        assert bytes_to_bits(bits_to_bytes(pos)) + intra_byte_bits(pos) == pos
        assert reader.bits_remaining() == total - model
