"""Random access to DNA sequences in gzip-compressed FASTQ (Section VI-B).

Pipeline, as in the paper's ``fqgz`` prototype:

1. pick a byte offset in the compressed file;
2. find the first confirmed DEFLATE block start at/after it
   (:mod:`repro.core.sync`);
3. decompress forward with a fully undetermined context
   (:mod:`repro.core.marker_inflate`);
4. per decompressed block, run the heuristic sequence extractor
   (:mod:`repro.core.sequences`) and declare a block
   *sequence-resolved* once it yields at least ``resolved_threshold``
   sequences, none containing an undetermined character;
5. report the "delay" (bytes decompressed before the first
   sequence-resolved block) and, from there on, the fraction of
   unambiguous sequences — the two quantities of the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.marker import count_markers
from repro.core.marker_inflate import marker_inflate
from repro.core.sequences import ExtractedSequence, extract_sequences
from repro.core.sync import find_block_start
from repro.deflate.gzipfmt import parse_gzip_header
from repro.errors import RandomAccessError

__all__ = ["RandomAccessReport", "random_access_sequences", "random_access_payload"]


@dataclass
class RandomAccessReport:
    """Outcome of one random-access decompression."""

    #: Compressed byte offset requested.
    requested_offset: int
    #: Bit offset of the confirmed block start used.
    sync_bit: int
    #: Candidate bit offsets tried by the probe.
    sync_candidates: int
    #: Total bytes decompressed.
    decompressed: int
    #: Index (into ``block_sequences``) of the first sequence-resolved
    #: block, or ``None`` if none was found.
    first_resolved_block: int | None
    #: Bytes decompressed before the first sequence-resolved block
    #: (the paper's "delay to sequence-resolved block").
    delay_bytes: int | None
    #: All sequences extracted after (and including) the first
    #: sequence-resolved block.
    sequences: list[ExtractedSequence] = field(default_factory=list)
    #: Per-block sequence counts: (total, ambiguous).
    block_sequences: list[tuple[int, int]] = field(default_factory=list)
    #: Undetermined characters remaining in the whole analysed span.
    residual_markers: int = 0

    @property
    def unambiguous_fraction(self) -> float | None:
        """The paper's "Unambiguous sequences (%)" (as a 0-1 fraction)."""
        if self.first_resolved_block is None or not self.sequences:
            return None
        good = sum(1 for s in self.sequences if s.is_unambiguous)
        return good / len(self.sequences)


def random_access_payload(
    data,
    start_bit: int,
    *,
    min_read_length: int = 20,
    resolved_threshold: int = 10,
    max_output: int | None = None,
    confirm_blocks: int = 5,
    end_bit: int | None = None,
    streaming: bool = False,
) -> RandomAccessReport:
    """Random access into a raw DEFLATE payload at a bit offset.

    ``streaming=True`` runs the decode through the streaming sequence
    extractor instead of materialising the symbol stream — O(32 KiB)
    memory, for GB-scale scans (the paper's Table I protocol at full
    size).
    """
    sync = find_block_start(data, start_bit=start_bit, confirm_blocks=confirm_blocks, end_bit=end_bit)

    if streaming:
        return _random_access_streaming(
            data, sync, min_read_length, resolved_threshold, max_output, start_bit
        )

    result = marker_inflate(data, start_bit=sync.bit_offset, window=None, max_output=max_output)
    symbols = result.symbols

    report = RandomAccessReport(
        requested_offset=start_bit // 8,
        sync_bit=sync.bit_offset,
        sync_candidates=sync.candidates_tried,
        decompressed=len(symbols),
        first_resolved_block=None,
        delay_bytes=None,
        residual_markers=count_markers(symbols),
    )

    # Extract sequences over the whole span once (the grammar spans
    # block boundaries naturally), then attribute them to blocks.
    sequences = extract_sequences(symbols, min_length=min_read_length)
    _attribute_to_blocks(report, result.blocks, sequences, resolved_threshold)
    return report


def _attribute_to_blocks(
    report: RandomAccessReport, blocks, sequences: list[ExtractedSequence], resolved_threshold: int
) -> None:
    """Attribute ``sequences`` to ``blocks`` by start position and fill
    ``report``'s per-block counts, first sequence-resolved block, delay
    and the sequences from that block on."""
    seq_idx = 0
    first_resolved = None
    for bi, block in enumerate(blocks):
        total = ambiguous = 0
        while seq_idx < len(sequences) and sequences[seq_idx].start < block.out_end:
            seq = sequences[seq_idx]
            if seq.start >= block.out_start:
                total += 1
                if not seq.is_unambiguous:
                    ambiguous += 1
            seq_idx += 1
        report.block_sequences.append((total, ambiguous))
        if first_resolved is None and total >= resolved_threshold and ambiguous == 0:
            first_resolved = bi
    report.first_resolved_block = first_resolved
    if first_resolved is not None:
        resolved_start = blocks[first_resolved].out_start
        report.delay_bytes = resolved_start
        report.sequences = [s for s in sequences if s.start >= resolved_start]


def _random_access_streaming(
    data,
    sync,
    min_read_length: int,
    resolved_threshold: int,
    max_output: int | None,
    start_bit: int,
) -> RandomAccessReport:
    """Streaming variant: composed sinks, no symbol materialisation."""
    from repro.core.marker import MARKER_BASE
    from repro.core.seqstream import StreamingSequenceExtractor

    extractor = StreamingSequenceExtractor(min_length=min_read_length)
    marker_total = [0]

    def sink(symbols, start_position):
        arr = np.asarray(symbols, dtype=np.int32)
        marker_total[0] += int((arr >= MARKER_BASE).sum())
        extractor(symbols, start_position)

    result = marker_inflate(
        data, start_bit=sync.bit_offset, window=None,
        sink=sink, max_output=max_output,
    )
    extractor.finish()
    sequences = extractor.sequences

    report = RandomAccessReport(
        requested_offset=start_bit // 8,
        sync_bit=sync.bit_offset,
        sync_candidates=sync.candidates_tried,
        decompressed=result.total_output,
        first_resolved_block=None,
        delay_bytes=None,
        residual_markers=marker_total[0],
    )
    _attribute_to_blocks(report, result.blocks, sequences, resolved_threshold)
    return report


def _member_bounds_from_index(index, byte_offset: int, file_size: int):
    """Payload bounds of the member containing compressed ``byte_offset``.

    Uses the index's ``"member"`` checkpoints (their bit offsets are
    the members' payload starts).  The member's payload certainly ends
    before the *next* member's gzip header, i.e. at least 8 trailer
    bytes plus a 10-byte minimum header before the next payload start.
    """
    members = [cp for cp in index.checkpoints if cp.kind == "member"]
    if not members:
        return None
    chosen = members[0]
    nxt = None
    for i, cp in enumerate(members):
        if cp.byte_offset <= byte_offset:
            chosen = cp
            nxt = members[i + 1] if i + 1 < len(members) else None
        else:
            break
    if nxt is not None:
        end_bit = 8 * (nxt.byte_offset - 18)
    else:
        end_bit = 8 * (file_size - 8)
    return chosen.byte_offset, end_bit


def random_access_sequences(
    gz_data: bytes,
    byte_offset: int,
    *,
    min_read_length: int = 20,
    resolved_threshold: int = 10,
    max_output: int | None = None,
    confirm_blocks: int = 5,
    streaming: bool = False,
    index=None,
) -> RandomAccessReport:
    """Random access into a gzip file at a compressed byte offset.

    ``byte_offset`` is relative to the start of the file.  Without an
    ``index`` it is clamped into the *first* member's DEFLATE payload
    (the paper's dataset is single-member files).  With an ``index`` (a
    :class:`~repro.index.zran.GzipIndex` whose member checkpoints
    locate every member), the offset is resolved into whichever member
    contains it, so multi-member files are addressable throughout.
    """
    if index is not None:
        bounds = _member_bounds_from_index(index, byte_offset, len(gz_data))
    else:
        bounds = None
    if bounds is not None:
        payload_start, payload_end_bit = bounds
    else:
        payload_start, *_ = parse_gzip_header(gz_data, 0)
        payload_end_bit = 8 * (len(gz_data) - 8)
    offset = max(byte_offset, payload_start)
    if 8 * offset >= payload_end_bit:
        raise RandomAccessError(
            f"offset {byte_offset} is beyond the compressed payload",
            stage="random_access",
        )
    return random_access_payload(
        gz_data,
        8 * offset,
        min_read_length=min_read_length,
        resolved_threshold=resolved_threshold,
        max_output=max_output,
        confirm_blocks=confirm_blocks,
        end_bit=payload_end_bit,
        streaming=streaming,
    )
