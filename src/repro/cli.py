"""Command-line interface: ``python -m repro`` / ``repro-gzip``.

Subcommands mirror the tools the paper discusses:

* ``compress``   — gzip-compress a file with our own DEFLATE (levels 0-9);
* ``decompress`` — sequential decompression with our own inflate;
* ``pugz``       — exact two-pass parallel decompression;
* ``sync``       — find the first DEFLATE block start after an offset;
* ``random-access`` — extract DNA sequences from a compressed FASTQ
  starting at an arbitrary compressed offset;
* ``info``       — member/block structure of a gzip file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro._version import __version__


def _cmd_compress(args) -> int:
    from repro.deflate import gzip_compress

    data = _read(args.input)
    t0 = time.perf_counter()
    out = gzip_compress(data, level=args.level)
    dt = time.perf_counter() - t0
    _write(args.output or (args.input + ".gz" if args.input != "-" else "-"), out)
    print(
        f"compressed {len(data)} -> {len(out)} bytes "
        f"({len(out) / max(1, len(data)):.1%}) in {dt:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_decompress(args) -> int:
    from repro.deflate import gzip_unwrap

    data = _read(args.input)
    t0 = time.perf_counter()
    out = gzip_unwrap(data, verify=not args.no_verify, kernel=args.kernel)
    dt = time.perf_counter() - t0
    _write(args.output or "-", out)
    print(
        f"decompressed {len(data)} -> {len(out)} bytes "
        f"({len(data) / max(dt, 1e-9) / 1e6:.2f} MB/s compressed)",
        file=sys.stderr,
    )
    return 0


def _cmd_pugz(args) -> int:
    from repro.core import pugz_decompress
    from repro.robustness.limits import ResourceBudget

    data = _read(args.input)
    budget = None
    if args.max_output_bytes is not None or args.max_expansion is not None:
        budget = ResourceBudget(
            max_output_bytes=args.max_output_bytes,
            max_expansion_ratio=args.max_expansion,
        )
    t0 = time.perf_counter()
    out, report = pugz_decompress(
        data,
        n_chunks=args.threads,
        executor=args.executor,
        verify=args.verify,
        return_report=True,
        on_error=args.on_error,
        allow_trailing_garbage=args.allow_trailing_garbage,
        max_resync_search_bits=args.max_resync_search_bits,
        deadline_s=args.deadline,
        max_retries=args.max_retries,
        budget=budget,
        kernel=args.kernel,
    )
    dt = time.perf_counter() - t0
    _write(args.output or "-", out)
    print(
        f"pugz: {len(data)} -> {len(out)} bytes, {len(report.chunks)} chunks, "
        f"{dt:.2f}s (sync {report.sync_seconds:.2f} / pass1 {report.pass1_seconds:.2f} "
        f"/ resolve {report.resolve_seconds:.3f} / pass2 {report.pass2_seconds:.2f})",
        file=sys.stderr,
    )
    if report.trailing_garbage_offset is not None:
        print(
            f"pugz: ignored trailing garbage at byte {report.trailing_garbage_offset}",
            file=sys.stderr,
        )
    data_lost = bool(
        report.holes or report.unresolved_markers or report.verify_failures
    )
    if not data_lost:
        # Explicitly-allowed trailing garbage alone is not a failure:
        # every decompressed byte is present and exact.
        if report.trailing_garbage_offset is None or args.allow_trailing_garbage:
            return 0
        return 3
    # Partial output: say exactly what was lost, and exit non-zero so
    # pipelines notice, while still having written everything salvaged.
    for hole in report.holes:
        print(
            f"pugz: hole in chunk {hole.chunk_index}: compressed bytes "
            f"{hole.start_byte}..{hole.end_byte} lost ({hole.error})",
            file=sys.stderr,
        )
    if report.unresolved_markers:
        print(
            f"pugz: {report.unresolved_markers} output bytes unresolved "
            "(written as '?')",
            file=sys.stderr,
        )
    for failure in report.verify_failures:
        print(f"pugz: verification failed: {failure}", file=sys.stderr)
    print("pugz: output is PARTIAL", file=sys.stderr)
    return 3


def _cmd_sync(args) -> int:
    from repro.core import find_block_start

    data = _read(args.input)
    sync = find_block_start(data, start_bit=8 * args.offset)
    print(
        f"block start at bit {sync.bit_offset} "
        f"(byte {sync.bit_offset // 8} + {sync.bit_offset % 8} bits); "
        f"{sync.candidates_tried} candidates in {sync.elapsed * 1e3:.0f} ms"
    )
    return 0


def _cmd_random_access(args) -> int:
    from repro.core import random_access_sequences

    data = _read(args.input)
    report = random_access_sequences(
        data,
        args.offset,
        min_read_length=args.min_read_length,
        max_output=args.max_output,
    )
    print(f"synced at bit {report.sync_bit} ({report.sync_candidates} candidates)")
    print(f"decompressed {report.decompressed} bytes")
    if report.first_resolved_block is None:
        print("no sequence-resolved block found")
        return 1
    print(f"first sequence-resolved block after {report.delay_bytes} bytes")
    frac = report.unambiguous_fraction
    print(
        f"{len(report.sequences)} sequences, "
        f"{frac:.1%} unambiguous" if frac is not None else "no sequences"
    )
    return 0


def _cmd_stream(args) -> int:
    from repro.core.pugz import PugzReport, iter_pugz

    data = _read(args.input)
    report = PugzReport(n_chunks_requested=args.chunks)
    t0 = time.perf_counter()
    out = sys.stdout.buffer if not args.output else open(args.output, "wb")
    try:
        for piece in iter_pugz(
            data,
            n_chunks=args.chunks,
            stripe_chunks=args.stripe,
            executor=args.executor,
            report=report,
        ):
            out.write(piece)
    finally:
        if args.output:
            out.close()
    print(
        f"stream: {report.output_size} bytes in {report.stripes} stripes "
        f"(peak {report.peak_stripe_symbols} symbols in memory, "
        f"{time.perf_counter() - t0:.2f}s)",
        file=sys.stderr,
    )
    return 0


def _cmd_pigz(args) -> int:
    from repro.core.pigz import pigz_compress

    data = _read(args.input)
    t0 = time.perf_counter()
    out = pigz_compress(
        data,
        level=args.level,
        chunk_size=args.chunk_size,
        executor=args.executor,
        n_workers=args.threads,
    )
    dt = time.perf_counter() - t0
    _write(args.output or (args.input + ".gz" if args.input != "-" else "-"), out)
    print(
        f"pigz: {len(data)} -> {len(out)} bytes "
        f"({len(out) / max(1, len(data)):.1%}) in {dt:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_recover(args) -> int:
    from repro.core.recovery import recover

    data = _read(args.input)
    report = recover(data, guess=args.guess)
    print(f"clean head: {len(report.head)} bytes", file=sys.stderr)
    if report.resync_bit is None:
        print("no resync point found after the damage", file=sys.stderr)
        if args.output:
            _write(args.output, report.head)
        return 1
    print(
        f"resynced at bit {report.resync_bit}; tail has "
        f"{report.tail_undetermined} undetermined chars; "
        f"{len(report.sequences)} unambiguous sequences salvaged",
        file=sys.stderr,
    )
    if args.output:
        _write(args.output, report.head + b"\n" + (report.tail_bytes_best_effort or b""))
    return 0


def _source_arg(path: str):
    """CLI input as a ranged-I/O source: stdin is slurped, a file path
    is passed through so readers fetch only the ranges they need."""
    if path == "-":
        return sys.stdin.buffer.read()
    return path


def _span(args) -> int:
    """``--span``, or the library default when it was not given (the
    default lives with the index code, which the parser does not
    import)."""
    from repro.index import DEFAULT_SPAN

    return DEFAULT_SPAN if args.span is None else args.span


def _cmd_index(args) -> int:
    from repro.deflate.constants import WINDOW_SIZE
    from repro.index import GzipIndex, load_or_rebuild

    if args.mode == "info":
        idx = GzipIndex.load(args.index_file)
        kinds: dict[str, int] = {}
        for cp in idx.checkpoints:
            kinds[cp.kind] = kinds.get(cp.kind, 0) + 1
        print(f"index file:      {args.index_file}")
        print(f"format:          v{idx.version}")
        print(f"checkpoints:     {len(idx.checkpoints)}")
        for kind in sorted(kinds):
            print(f"  {kind + ':':<14} {kinds[kind]}")
        print(f"uncompressed:    {idx.usize} bytes")
        print(f"compressed:      {idx.csize or 'unknown (v1 index)'} bytes")
        print(f"span:            {idx.span} bytes")
        offs = [cp.uoffset for cp in idx.checkpoints] + [idx.usize]
        gap = max((b - a for a, b in zip(offs, offs[1:])), default=idx.usize)
        print(f"max gap:         {gap} bytes (largest checkpoint interval)")
        if kinds.get("token"):
            # Token checkpoints sit inside the block of the block or
            # member checkpoint before them.
            entered = len(idx.checkpoints) - kinds["token"]
            print(
                f"per block:       {len(idx.checkpoints) / entered:.2f} checkpoints "
                "in each block that has one"
            )
        for kind, label in (("block", "window bytes:   "), ("token", "token windows:  ")):
            stored = sorted(len(cp.window) for cp in idx.checkpoints if cp.kind == kind)
            if stored:
                median = stored[len(stored) // 2]
                print(
                    f"{label} {median} median per {kind} checkpoint "
                    f"({100 * median / WINDOW_SIZE:.1f}% of 32 KiB), max {stored[-1]}, "
                    f"{sum(stored)} stored in all"
                )
        if idx.version == 5:
            windows = sum(len(cp.window) for cp in idx.checkpoints)
            print(
                f"window union:    {len(idx.window_union())} bytes stored once, for "
                f"{windows} in the checkpoints' windows"
            )
        return 0

    source = _source_arg(args.input)
    if args.mode == "extract":
        if args.auto_rebuild:
            idx, rebuilt = load_or_rebuild(args.index_file, source, span=_span(args))
            if rebuilt:
                print(
                    f"index: {args.index_file} was missing or damaged; "
                    "rebuilt and replaced atomically",
                    file=sys.stderr,
                )
        else:
            idx = GzipIndex.load(args.index_file)
        out = idx.read_at(source, args.extract, args.size)
        _write(args.output or "-", out)
        return 0

    from repro.core.parallel_index import index_members

    t0 = time.perf_counter()
    idx = index_members(source, args.threads, args.executor, kernel=None, span=_span(args))
    idx.save(args.index_file)
    print(
        f"index: {len(idx.checkpoints)} checkpoints over "
        f"{idx.members} member(s), built in {time.perf_counter() - t0:.1f}s "
        "(sealed + checksummed, written atomically)",
        file=sys.stderr,
    )
    return 0


def _cmd_cat(args) -> int:
    from repro.index.seekable import SeekableGzipReader

    reader = SeekableGzipReader(
        _source_arg(args.input),
        index_path=args.index,
        span=_span(args),
        backend=args.backend,
        n_chunks=args.threads,
        executor=args.executor,
    )
    if args.range:
        start_s, sep, end_s = args.range.partition(":")
        start = int(start_s) if start_s else 0
        if sep and end_s:
            end = int(end_s)
            if end < start:
                raise SystemExit(f"--range end {end} precedes start {start}")
            out = reader.pread(start, end - start)
        else:
            reader.seek(start)
            out = reader.read()
    else:
        out = reader.read()
    _write(args.output or "-", out)
    if args.stats:
        s = reader.stats
        print(
            f"cat: backend={s.backend} inflate_calls={s.inflate_calls} "
            f"cache_hits={s.cache_hits} served={s.served_bytes} "
            f"decoded={s.decoded_bytes} compressed_read={s.compressed_bytes_read} "
            f"preads={s.pread_calls} headers={s.headers_parsed} "
            f"index_builds={s.index_builds} index_loaded={s.index_loaded}",
            file=sys.stderr,
        )
    return 0


def _cmd_bgzf(args) -> int:
    from repro.bgzf import BgzfReader, bgzf_compress, bgzf_decompress

    data = _read(args.input)
    if args.mode == "compress":
        _write(args.output or "-", bgzf_compress(data, level=args.level))
    elif args.mode == "decompress":
        _write(args.output or "-", bgzf_decompress(data))
    else:  # extract
        reader = BgzfReader(data)
        _write(args.output or "-", reader.read_at(args.offset, args.size))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.robustness import run_campaign

    progress = None
    if args.verbose:
        def progress(case):
            print(f"  {case.case_id}: {case.outcome}", file=sys.stderr)

    report = run_campaign(
        n_seeds=args.seeds,
        base_seed=args.base_seed,
        n_chunks=args.threads,
        max_resync_search_bits=args.max_resync_search_bits,
        progress=progress,
    )
    if args.json:
        _write(args.json, report.to_json(indent=2).encode())
    print(f"fuzz: {report.summary()}", file=sys.stderr)
    for case in report.crashes:
        print(
            f"fuzz: CRASH {case.case_id}: {case.error_type} {case.error_context}",
            file=sys.stderr,
        )
    return 1 if report.crashes else 0


def _cmd_lint(args) -> int:
    from repro.lint import run_lint
    from repro.lint.runner import explain_rule, prove_pragmas

    if args.explain:
        return explain_rule(args.explain)
    if not args.paths:
        print("repro lint: no paths given (or use --explain REPxxx)",
              file=sys.stderr)
        return 2
    if args.prove_pragmas:
        return prove_pragmas(args.paths, summary_store=args.summary_store)
    return run_lint(
        args.paths,
        fmt=args.format,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
        select=args.select,
        ignore=args.ignore,
        verbose=args.verbose,
        jobs=args.jobs,
        summary_store=args.summary_store,
    )


def _cmd_info(args) -> int:
    from repro.deflate.gzipfmt import inflate_member, iter_members

    data = _read(args.input)
    # One decode per member finds its end, checks its trailer and lists its blocks.
    members = [(m, inflate_member(m).blocks) for m in iter_members(data)]
    print(f"{len(members)} member(s)")
    for i, (m, blocks) in enumerate(members):
        print(
            f"  member {i}: header@{m.header_start} payload@{m.payload_start}"
            f"..{m.payload_end} isize={m.isize} crc={m.crc:#010x}"
            + (f" name={m.filename!r}" if m.filename else "")
        )
        if args.blocks:
            kinds = {0: "stored", 1: "fixed", 2: "dynamic"}
            for b in blocks:
                print(
                    f"    block @bit {b.start_bit}: {kinds[b.btype]}, "
                    f"{b.out_end - b.out_start} bytes"
                    + (" (final)" if b.bfinal else "")
                )
    return 0


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-gzip",
        description="Parallel gzip decompression & random access (IPPS 2019 reproduction)",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="gzip-compress with our DEFLATE")
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.add_argument("-l", "--level", type=int, default=6, choices=range(0, 10))
    c.set_defaults(func=_cmd_compress)

    d = sub.add_parser("decompress", help="sequential decompression")
    d.add_argument("input")
    d.add_argument("-o", "--output")
    d.add_argument("--no-verify", action="store_true", help="skip CRC check")
    d.add_argument("--kernel", choices=("pure", "numpy"), default=None,
                   help="decode kernel (default: $REPRO_KERNEL or auto)")
    d.set_defaults(func=_cmd_decompress)

    z = sub.add_parser("pugz", help="two-pass parallel decompression")
    z.add_argument("input")
    z.add_argument("-o", "--output")
    z.add_argument("-t", "--threads", type=int, default=4)
    z.add_argument("--executor", choices=("serial", "thread", "process"), default="process")
    z.add_argument("--verify", action="store_true", help="check CRC32/ISIZE")
    z.add_argument("--on-error", choices=("raise", "recover"), default="raise",
                   help="recover: salvage around corrupted chunks, report holes, "
                        "exit 3 with partial output")
    z.add_argument("--allow-trailing-garbage", action="store_true",
                   help="warn and stop at non-gzip bytes after the last member")
    z.add_argument("--max-resync-search-bits", type=int, default=None,
                   help="bound each recover-mode resync search")
    z.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-chunk deadline: a worker past it is killed and "
                        "the chunk retried (supervision)")
    z.add_argument("--max-retries", type=int, default=0,
                   help="bounded retries per chunk for hung/crashed workers")
    z.add_argument("--max-output-bytes", type=int, default=None,
                   help="resource budget: abort with a structured error once "
                        "resident output would exceed this many bytes")
    z.add_argument("--kernel", choices=("pure", "numpy"), default=None,
                   help="decode kernel for both passes "
                        "(default: $REPRO_KERNEL or auto)")
    z.add_argument("--max-expansion", type=float, default=None, metavar="RATIO",
                   help="resource budget: abort when output exceeds RATIO x "
                        "the compressed input consumed (zip-bomb guard)")
    z.set_defaults(func=_cmd_pugz)

    s = sub.add_parser("sync", help="find a DEFLATE block start")
    s.add_argument("input")
    s.add_argument("--offset", type=int, default=0, help="start searching at this byte")
    s.set_defaults(func=_cmd_sync)

    r = sub.add_parser("random-access", help="extract sequences from an offset")
    r.add_argument("input")
    r.add_argument("--offset", type=int, required=True, help="compressed byte offset")
    r.add_argument("--min-read-length", type=int, default=20)
    r.add_argument("--max-output", type=int, default=None)
    r.set_defaults(func=_cmd_random_access)

    i = sub.add_parser("info", help="show gzip member/block structure")
    i.add_argument("input")
    i.add_argument("--blocks", action="store_true", help="also list DEFLATE blocks")
    i.set_defaults(func=_cmd_info)

    st = sub.add_parser("stream", help="memory-bounded parallel decompression")
    st.add_argument("input")
    st.add_argument("-o", "--output")
    st.add_argument("--chunks", type=int, default=16)
    st.add_argument("--stripe", type=int, default=4)
    st.add_argument("--executor", choices=("serial", "thread", "process"), default="serial")
    st.set_defaults(func=_cmd_stream)

    g = sub.add_parser("pigz", help="chunk-parallel gzip compression")
    g.add_argument("input")
    g.add_argument("-o", "--output")
    g.add_argument("-l", "--level", type=int, default=6, choices=range(1, 10))
    g.add_argument("-t", "--threads", type=int, default=4)
    g.add_argument("--chunk-size", type=int, default=131072)
    g.add_argument("--executor", choices=("serial", "thread", "process"), default="process")
    g.set_defaults(func=_cmd_pigz)

    rec = sub.add_parser("recover", help="salvage data from a corrupted gzip file")
    rec.add_argument("input")
    rec.add_argument("-o", "--output")
    rec.add_argument("--guess", action="store_true",
                     help="fill undetermined characters with best guesses")
    rec.set_defaults(func=_cmd_recover)

    x = sub.add_parser("index", help="build or use a checkpoint index (ref [11])")
    xsub = x.add_subparsers(dest="mode", required=True)
    xb = xsub.add_parser("build", help="build and export an index sidecar")
    xb.add_argument("input")
    xb.add_argument("index_file", help="index sidecar path")
    xb.add_argument("--span", type=int, default=None,
                    help="bytes between checkpoints, at most, unless a "
                         "block cannot be cut (default 8192: four "
                         "checkpoints per gzip -6 block)")
    xb.add_argument("-t", "--threads", type=int, default=None,
                    help="pugz chunks (default: one per executor worker, "
                         "so one sequential pass on serial); the index is "
                         "the same for any count")
    xb.add_argument("-e", "--executor", choices=("serial", "thread", "process"),
                    default="serial", help="executor backend (faster with process)")
    xb.set_defaults(func=_cmd_index)
    xi = xsub.add_parser("info", help="describe an exported index sidecar")
    xi.add_argument("index_file")
    xi.set_defaults(func=_cmd_index)
    xe = xsub.add_parser("extract", help="ranged read through an index")
    xe.add_argument("input")
    xe.add_argument("index_file", help="index sidecar path")
    xe.add_argument("--extract", "--offset", type=int, required=True,
                    dest="extract", help="uncompressed offset to extract")
    xe.add_argument("--size", type=int, default=1024)
    xe.add_argument("--span", type=int, default=None,
                    help="checkpoint spacing if --auto-rebuild rebuilds "
                         "(default 8192)")
    xe.add_argument("--auto-rebuild", action="store_true",
                    help="if the index file is missing or fails its "
                         "integrity check, rebuild it in place (atomic rename)")
    xe.add_argument("-o", "--output")
    xe.set_defaults(func=_cmd_index)

    ct = sub.add_parser(
        "cat", help="seekable ranged read (auto backend: bgzf / zran / pugz cold start)"
    )
    ct.add_argument("input")
    ct.add_argument("--range", default=None, metavar="START:END",
                    help="uncompressed byte range (END exclusive; omit END "
                         "to read to EOF)")
    ct.add_argument("--index", default=None,
                    help="zran index sidecar: loaded when intact, written "
                         "after a cold start")
    ct.add_argument("--backend", choices=("bgzf", "zran"), default=None,
                    help="force a backend instead of sniffing the stream")
    ct.add_argument("--span", type=int, default=None,
                    help="checkpoint spacing of a cold-start index "
                         "(default 8192)")
    ct.add_argument("-t", "--threads", type=int, default=None,
                    help="cold start: number of pugz chunks (default: one "
                         "per executor worker, so 1 on serial)")
    ct.add_argument("-e", "--executor", choices=("serial", "thread", "process"),
                    default="serial")
    ct.add_argument("--stats", action="store_true",
                    help="print seek-cost counters to stderr")
    ct.add_argument("-o", "--output")
    ct.set_defaults(func=_cmd_cat)

    f = sub.add_parser("fuzz", help="seeded fault-injection campaign")
    f.add_argument("--seeds", type=int, default=9, help="seeds per (corpus, injector) cell")
    f.add_argument("--base-seed", type=int, default=1000)
    f.add_argument("-t", "--threads", type=int, default=2)
    f.add_argument("--max-resync-search-bits", type=int, default=20000)
    f.add_argument("--json", help="write the full machine-readable report here")
    f.add_argument("-v", "--verbose", action="store_true", help="print each case")
    f.set_defaults(func=_cmd_fuzz)

    lnt = sub.add_parser(
        "lint",
        help="AST + dataflow invariant checker (REP001-REP021)",
        description="Enforce the codebase's decode-safety, error-context "
                    "and parallelism contracts, plus flow-sensitive "
                    "bit/byte-unit and taint rules and interprocedural "
                    "call-graph analyses. Exit 0 clean, "
                    "1 findings, 2 internal error.",
    )
    lnt.add_argument("paths", nargs="*", help="files or directories to check")
    lnt.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text")
    lnt.add_argument("--baseline", default=None,
                     help="baseline JSON: suppress known findings (ratchet)")
    lnt.add_argument("--update-baseline", action="store_true",
                     help="rewrite the baseline from current findings and exit 0")
    lnt.add_argument("--select", default=None,
                     help="comma-separated rule ids to run (default: all)")
    lnt.add_argument("--ignore", default=None,
                     help="comma-separated rule ids to skip")
    lnt.add_argument("-v", "--verbose", action="store_true",
                     help="also list baselined findings")
    lnt.add_argument("-j", "--jobs", type=int, default=1,
                     help="process-pool workers for the per-module rule "
                          "phase (the interprocedural phase stays serial)")
    lnt.add_argument("--summary-store", default=None, metavar="PATH",
                     help="JSON cache for interprocedural function "
                          "summaries, keyed on a project-wide source hash")
    lnt.add_argument("--explain", metavar="REPxxx", default=None,
                     help="print one rule's doc, example violation and "
                          "pragma slug, then exit")
    lnt.add_argument("--prove-pragmas", action="store_true",
                     help="report which allow-unbudgeted-alloc pragmas the "
                          "interval engine discharges (proved spec-constant "
                          "size bounds), then exit 0")
    lnt.set_defaults(func=_cmd_lint)

    b = sub.add_parser("bgzf", help="blocked gzip (BGZF) operations (ref [12])")
    b.add_argument("mode", choices=("compress", "decompress", "extract"))
    b.add_argument("input")
    b.add_argument("-o", "--output")
    b.add_argument("-l", "--level", type=int, default=6, choices=range(0, 10))
    b.add_argument("--offset", type=int, default=0, help="extract: uncompressed offset")
    b.add_argument("--size", type=int, default=1024, help="extract: byte count")
    b.set_defaults(func=_cmd_bgzf)

    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if (
        len(argv) >= 2
        and argv[0] == "index"
        and argv[1] not in ("build", "info", "extract")
        and not argv[1].startswith("-")
    ):
        # Legacy form: `index INPUT IDX [--extract N ...]` predates the
        # build/info/extract modes — route it to the matching mode.
        argv.insert(1, "extract" if "--extract" in argv else "build")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`repro ... | head`): stop
        # quietly.  Point stdout at /dev/null first, so the flush of
        # what is still buffered at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    raise SystemExit(main())
