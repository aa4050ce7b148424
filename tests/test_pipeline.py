"""Pipeline head: chunk-parallel analysis with mergeable analyzers."""

import numpy as np
import pytest

from repro.data import FastqRecord, gzip_zlib, parse_fastq, synthetic_fastq
from repro.pipeline import (
    GcProfile,
    KmerCounter,
    LengthHistogram,
    QualityStats,
    run_fastq_pipeline,
)
from repro.pipeline.runner import _split_records


def record(seq: bytes, qual: bytes | None = None) -> FastqRecord:
    qual = qual if qual is not None else b"I" * len(seq)
    return FastqRecord(b"@r", seq, b"+", qual)


class TestKmerCounter:
    def test_counts(self):
        c = KmerCounter(k=3)
        c.consume(record(b"ACGTACG"))
        assert c.counts[b"ACG"] == 2
        assert c.total == 5
        assert c.distinct == 4

    def test_merge(self):
        a, b = KmerCounter(3), KmerCounter(3)
        a.consume(record(b"AAAA"))
        b.consume(record(b"AAA"))
        a.merge(b)
        assert a.counts[b"AAA"] == 3
        assert a.reads == 2

    def test_merge_k_mismatch(self):
        with pytest.raises(ValueError):
            KmerCounter(3).merge(KmerCounter(4))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KmerCounter(0)

    def test_read_shorter_than_k(self):
        c = KmerCounter(k=10)
        c.consume(record(b"ACGT"))
        assert c.total == 0


class TestQualityStats:
    def test_mean_by_cycle(self):
        q = QualityStats()
        q.consume(record(b"AC", bytes([33 + 30, 33 + 20])))
        q.consume(record(b"AC", bytes([33 + 10, 33 + 40])))
        assert q.mean_by_cycle().tolist() == [20.0, 30.0]
        assert q.mean_quality == 25.0

    def test_variable_lengths(self):
        q = QualityStats()
        q.consume(record(b"A", bytes([33 + 10])))
        q.consume(record(b"ACG", bytes([33 + 20] * 3)))
        means = q.mean_by_cycle()
        assert means[0] == 15.0
        assert means[2] == 20.0

    def test_merge(self):
        a, b = QualityStats(), QualityStats()
        a.consume(record(b"A", bytes([33 + 10])))
        b.consume(record(b"AC", bytes([33 + 30, 33 + 30])))
        a.merge(b)
        assert a.reads == 2
        assert a.mean_by_cycle()[0] == 20.0


class TestGcProfile:
    def test_mean_and_histogram(self):
        g = GcProfile(bins=10)
        g.consume(record(b"GGCC"))  # 100% GC
        g.consume(record(b"AATT"))  # 0% GC
        assert g.mean_gc == 0.5
        assert g.histogram[0] == 1
        assert g.histogram[-1] == 1

    def test_merge_bins_mismatch(self):
        with pytest.raises(ValueError):
            GcProfile(10).merge(GcProfile(5))

    def test_empty_read_ignored(self):
        g = GcProfile()
        g.consume(record(b""))
        assert g.reads == 0


class TestLengthHistogram:
    def test_modal_length(self):
        h = LengthHistogram()
        for seq in (b"AAAA", b"CCCC", b"GG"):
            h.consume(record(seq))
        assert h.modal_length == 4
        assert h.reads == 3


class TestSplitRecords:
    def test_aligned_chunk(self):
        chunk = b"@r1\nACGT\n+\nIIII\n@r2\nCCCC\n+\nJJJJ\n"
        head, whole, tail = _split_records(chunk)
        assert head == b""
        assert whole == chunk
        assert tail == b""

    def test_partial_edges(self):
        chunk = b"GT\n+\nIIII\n@r2\nCCCC\n+\nJJJJ\n@r3\nGG"
        head, whole, tail = _split_records(chunk)
        assert head == b"GT\n+\nIIII\n"
        assert whole == b"@r2\nCCCC\n+\nJJJJ\n"
        assert tail == b"@r3\nGG"

    def test_reassembly_invariant(self):
        chunk = b"II\n@rX\nACGT\n+\nIIII\n@rY\nCC"
        head, whole, tail = _split_records(chunk)
        assert head + whole + tail == chunk


class TestRunPipeline:
    @pytest.fixture(scope="class")
    def data(self):
        text = synthetic_fastq(2500, read_length=100, seed=55, quality_profile="safe")
        return text, gzip_zlib(text, 6)

    def test_all_reads_seen_once(self, data):
        text, gz = data
        result = run_fastq_pipeline(gz, [LengthHistogram], n_chunks=4)
        assert result.reads == len(parse_fastq(text))
        assert result.analyzers[0].reads == result.reads

    def test_results_match_sequential_reference(self, data):
        """Chunked analysis == analysing the whole file in one piece."""
        text, gz = data
        result = run_fastq_pipeline(
            gz, [lambda: KmerCounter(8), QualityStats, GcProfile], n_chunks=5
        )
        kmer, qual, gc = result.analyzers

        ref_k, ref_q, ref_g = KmerCounter(8), QualityStats(), GcProfile()
        for r in parse_fastq(text):
            ref_k.consume(r)
            ref_q.consume(r)
            ref_g.consume(r)

        assert kmer.counts == ref_k.counts
        assert qual.mean_quality == pytest.approx(ref_q.mean_quality)
        assert np.allclose(gc.histogram, ref_g.histogram)

    def test_chunk_counts_vary(self, data):
        text, gz = data
        for n in (1, 2, 7):
            result = run_fastq_pipeline(gz, [LengthHistogram], n_chunks=n)
            assert result.reads == len(parse_fastq(text))

    def test_multi_member_file(self, data):
        """The chunk sizes the pipeline splits on cover every member."""
        text, _ = data
        cut = text.index(b"\n@", len(text) // 2) + 1
        gz = gzip_zlib(text[:cut], 6) + gzip_zlib(text[cut:], 6)
        result = run_fastq_pipeline(gz, [LengthHistogram], n_chunks=3)
        assert result.reads == len(parse_fastq(text))
