"""Streaming sequence extractor: equivalence with the batch extractor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marker import MARKER_BASE, from_bytes
from repro.core.marker_inflate import marker_inflate
from repro.core.seqstream import StreamingSequenceExtractor
from repro.core.sequences import extract_sequences
from repro.core.sync import find_block_start
from repro.data import gzip_zlib, synthetic_fastq


def feed_in_chunks(symbols: np.ndarray, sizes, min_length=20, max_length=None):
    ex = StreamingSequenceExtractor(min_length=min_length, max_length=max_length)
    pos = 0
    i = 0
    while pos < len(symbols):
        size = sizes[i % len(sizes)]
        ex(symbols[pos : pos + size].tolist(), pos)
        pos += size
        i += 1
    ex.finish()
    return ex


class TestEquivalence:
    def test_matches_batch_on_fastq(self, fastq_small):
        symbols = from_bytes(fastq_small)
        batch = extract_sequences(symbols, min_length=20)
        stream = feed_in_chunks(symbols, [1000, 3777, 50])
        assert [(s.start, s.end) for s in stream.sequences] == [
            (s.start, s.end) for s in batch
        ]

    @pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
    def test_chunk_size_invariance(self, chunk):
        text = b"\n".join(
            [b"@h1", b"ACGT" * 30, b"+", b"I" * 120, b"@h2", b"TTGGCCAA" * 20, b"+", b"J" * 160]
        ) + b"\n"
        # The second text ends mid-read: the end of the span is no
        # terminator, so neither extractor counts the cut-off read.
        for text, reads in ((text, 2), (text + b"@h3\n" + b"ACGT" * 10, 2)):
            symbols = from_bytes(text)
            batch = extract_sequences(symbols, min_length=20)
            stream = feed_in_chunks(symbols, [chunk])
            assert len(batch) == reads
            assert [(s.start, s.end) for s in stream.sequences] == [
                (s.start, s.end) for s in batch
            ]

    def test_read_longer_than_many_chunks(self):
        """A 160 kb read spanning four chunks is carried whole."""
        symbols = from_bytes(b"\n" + b"ACGT" * 40_000 + b"\n")
        stream = feed_in_chunks(symbols, [50_000])
        assert [(s.start, s.end) for s in stream.sequences] == [(1, 160_001)]

    def test_read_before_a_long_marker_run(self):
        """A short read a marker terminates stays a read when the D/U run
        it opens goes on far past ``max_length``."""
        symbols = np.concatenate(
            [from_bytes(b"\n" + b"A" * 30), np.full(200, MARKER_BASE, np.int32), from_bytes(b"\n")]
        )
        batch = extract_sequences(symbols, min_length=20, max_length=100)
        stream = feed_in_chunks(symbols, [50], max_length=100)
        assert [(s.start, s.end) for s in batch] == [(1, 31)]
        assert [(s.start, s.end) for s in stream.sequences] == [(1, 31)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([ord("A"), ord("\n"), ord("I"), MARKER_BASE]), max_size=400),
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
        st.sampled_from([None, 5, 30]),
    )
    def test_matches_batch_on_any_stream(self, symbols, sizes, max_length):
        symbols = np.asarray(symbols, dtype=np.int32)
        batch = extract_sequences(symbols, min_length=1, max_length=max_length)
        stream = feed_in_chunks(symbols, sizes, min_length=1, max_length=max_length)
        assert [(s.start, s.end, s.undetermined) for s in stream.sequences] == [
            (s.start, s.end, s.undetermined) for s in batch
        ]

    def test_sequence_split_across_chunks(self):
        """A read cut mid-way by a flush boundary is still one match."""
        text = b"\n" + b"ACGT" * 50 + b"\nIIII\n"
        symbols = from_bytes(text)
        stream = feed_in_chunks(symbols, [37])
        (seq,) = [s for s in stream.sequences if s.length == 200]
        assert seq.start == 1

    def test_marker_stream_equivalence(self, fastq_medium):
        """On a real marker-domain stream (with undetermined chars),
        streaming == batch."""
        gz = gzip_zlib(fastq_medium, 6)
        sync = find_block_start(gz, start_bit=8 * (len(gz) // 3))
        full = marker_inflate(gz, start_bit=sync.bit_offset)
        batch = extract_sequences(full.symbols, min_length=20)

        ex = StreamingSequenceExtractor(min_length=20)
        marker_inflate(gz, start_bit=sync.bit_offset, sink=ex, flush_symbols=30_000)
        ex.finish()
        assert [(s.start, s.end, s.undetermined) for s in ex.sequences] == [
            (s.start, s.end, s.undetermined) for s in batch
        ]


class TestLifecycle:
    def test_finish_idempotent(self):
        ex = StreamingSequenceExtractor()
        ex(from_bytes(b"\nACGTACGTACGTACGTACGTACGT\n").tolist(), 0)
        ex.finish()
        n = len(ex.sequences)
        ex.finish()
        assert len(ex.sequences) == n

    def test_feed_after_finish_raises(self):
        ex = StreamingSequenceExtractor()
        ex.finish()
        with pytest.raises(RuntimeError):
            ex([65], 0)

    def test_non_contiguous_rejected(self):
        ex = StreamingSequenceExtractor()
        ex(from_bytes(b"\nACGTACGT").tolist(), 0)
        with pytest.raises(ValueError):
            ex(from_bytes(b"ACGT\n").tolist(), 100)

    def test_end_of_stream_does_not_terminate_final_read(self):
        """A read at EOF without a trailing terminator is not extracted;
        one a marker terminates is."""
        ex = StreamingSequenceExtractor()
        ex(from_bytes(b"\n" + b"ACGT" * 10).tolist(), 0)
        ex.finish()
        assert ex.sequences == []
        ex = StreamingSequenceExtractor()
        ex(from_bytes(b"\n" + b"ACGT" * 10).tolist() + [MARKER_BASE], 0)
        ex.finish()
        assert [s.length for s in ex.sequences] == [40]
