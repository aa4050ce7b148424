"""Command-line interface, exercised through main(argv)."""

import gzip as stdlib_gzip

import pytest

from repro.cli import main
from repro.data import synthetic_fastq
from repro.deflate.gzipfmt import parse_gzip_header
from repro.deflate.inflate import inflate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    text = synthetic_fastq(2500, read_length=100, seed=55, quality_profile="safe")
    plain = d / "reads.fastq"
    plain.write_bytes(text)
    gz = d / "reads.fastq.gz"
    gz.write_bytes(stdlib_gzip.compress(text, 6, mtime=0))
    return d, text


class TestCompressDecompress:
    def test_compress_then_stdlib_reads(self, workdir, tmp_path):
        d, text = workdir
        out = tmp_path / "out.gz"
        assert main(["compress", str(d / "reads.fastq"), "-o", str(out), "-l", "6"]) == 0
        assert stdlib_gzip.decompress(out.read_bytes()) == text

    def test_decompress(self, workdir, tmp_path):
        d, text = workdir
        out = tmp_path / "plain"
        assert main(["decompress", str(d / "reads.fastq.gz"), "-o", str(out)]) == 0
        assert out.read_bytes() == text

    def test_round_trip_own_tools(self, workdir, tmp_path):
        d, text = workdir
        gz = tmp_path / "own.gz"
        plain = tmp_path / "own.txt"
        main(["compress", str(d / "reads.fastq"), "-o", str(gz), "-l", "1"])
        main(["decompress", str(gz), "-o", str(plain)])
        assert plain.read_bytes() == text


class TestPugz:
    def test_pugz_exact(self, workdir, tmp_path):
        d, text = workdir
        out = tmp_path / "pugz.out"
        rc = main([
            "pugz", str(d / "reads.fastq.gz"), "-o", str(out),
            "-t", "3", "--executor", "serial", "--verify",
        ])
        assert rc == 0
        assert out.read_bytes() == text


class TestSyncAndInfo:
    def test_sync_finds_block(self, workdir, capsys):
        d, _ = workdir
        gz = d / "reads.fastq.gz"
        assert main(["sync", str(gz), "--offset", str(len(gz.read_bytes()) // 3)]) == 0
        assert "block start at bit" in capsys.readouterr().out

    def test_info_lists_member(self, workdir, capsys):
        d, text = workdir
        assert main(["info", str(d / "reads.fastq.gz")]) == 0
        out = capsys.readouterr().out
        assert "1 member(s)" in out
        assert f"isize={len(text)}" in out

    def test_info_blocks(self, workdir, capsys):
        d, _ = workdir
        assert main(["info", str(d / "reads.fastq.gz"), "--blocks"]) == 0
        assert "dynamic" in capsys.readouterr().out

    def test_info_blocks_decodes_each_member_once(self, workdir, tmp_path, capsys, monkeypatch):
        import importlib

        gzipfmt = importlib.import_module("repro.deflate.gzipfmt")
        # The package re-exports the function under the submodule's name.
        inflate_module = importlib.import_module("repro.deflate.inflate")

        _, text = workdir
        gz = tmp_path / "multi.gz"
        gz.write_bytes(
            stdlib_gzip.compress(text[:20000]) + stdlib_gzip.compress(b"")
            + stdlib_gzip.compress(text[20000:40000])
        )
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("start_bit"))
            return inflate(*args, **kwargs)

        for module in (gzipfmt, inflate_module):
            monkeypatch.setattr(module, "inflate", spy)
        assert main(["info", str(gz), "--blocks"]) == 0
        out = capsys.readouterr().out
        assert "3 member(s)" in out
        assert len(calls) == 3 and len(set(calls)) == 3
        assert out.count("(final)") == 3


class TestRandomAccess:
    def test_random_access_reports(self, workdir, capsys):
        d, _ = workdir
        gz = d / "reads.fastq.gz"
        size = len(gz.read_bytes())
        rc = main(["random-access", str(gz), "--offset", str(size // 4)])
        out = capsys.readouterr().out
        assert "synced at bit" in out
        assert rc in (0, 1)  # resolution depends on content scale


class TestIndexCommand:
    def test_build_and_extract(self, workdir, tmp_path):
        d, text = workdir
        idx = tmp_path / "reads.idx"
        gz = d / "reads.fastq.gz"
        assert main(["index", str(gz), str(idx), "--span", "100000"]) == 0
        assert idx.exists()
        out = tmp_path / "piece"
        assert main([
            "index", str(gz), str(idx), "--extract", "200000",
            "--size", "120", "-o", str(out),
        ]) == 0
        assert out.read_bytes() == text[200000:200120]


class TestCatCommand:
    def test_whole_file_stats(self, workdir, tmp_path, capsys):
        d, text = workdir
        out = tmp_path / "cat.out"
        assert main(["cat", str(d / "reads.fastq.gz"), "--stats", "-o", str(out)]) == 0
        assert out.read_bytes() == text
        line = capsys.readouterr().err.strip().splitlines()[-1]
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        assert fields["backend"] == "zran"
        assert fields["index_builds"] == "1"
        # A whole-file read decodes every byte exactly once.
        assert int(fields["served"]) == int(fields["decoded"]) == len(text)
        assert int(fields["cache_hits"]) == 0
        # ... and parses each block's header once.
        gz = (d / "reads.fastq.gz").read_bytes()
        start, *_ = parse_gzip_header(gz)
        assert int(fields["headers"]) == len(inflate(gz, start_bit=8 * start).blocks)


class TestBgzfCommand:
    def test_round_trip_and_extract(self, workdir, tmp_path):
        d, text = workdir
        bg = tmp_path / "reads.bgzf"
        assert main(["bgzf", "compress", str(d / "reads.fastq"), "-o", str(bg)]) == 0
        plain = tmp_path / "plain"
        assert main(["bgzf", "decompress", str(bg), "-o", str(plain)]) == 0
        assert plain.read_bytes() == text
        piece = tmp_path / "piece"
        assert main([
            "bgzf", "extract", str(bg), "--offset", "70000",
            "--size", "64", "-o", str(piece),
        ]) == 0
        assert piece.read_bytes() == text[70000:70064]


class TestStreamCommand:
    def test_stream_to_file(self, workdir, tmp_path):
        d, text = workdir
        out = tmp_path / "streamed"
        rc = main([
            "stream", str(d / "reads.fastq.gz"), "-o", str(out),
            "--chunks", "4", "--stripe", "2",
        ])
        assert rc == 0
        assert out.read_bytes() == text


class TestPigzCommand:
    def test_parallel_compress(self, workdir, tmp_path):
        d, text = workdir
        out = tmp_path / "pigz.gz"
        rc = main([
            "pigz", str(d / "reads.fastq"), "-o", str(out),
            "-l", "6", "--chunk-size", "100000", "--executor", "serial",
        ])
        assert rc == 0
        assert stdlib_gzip.decompress(out.read_bytes()) == text


class TestRecoverCommand:
    def test_recover_damaged_file(self, workdir, tmp_path):
        import numpy as np

        d, text = workdir
        gz = bytearray((d / "reads.fastq.gz").read_bytes())
        rng = np.random.default_rng(0)
        hole = len(gz) // 2
        gz[hole : hole + 64] = rng.integers(0, 256, 64).astype(np.uint8).tobytes()
        broken = tmp_path / "broken.gz"
        broken.write_bytes(bytes(gz))
        out = tmp_path / "salvaged"
        rc = main(["recover", str(broken), "-o", str(out)])
        assert rc in (0, 1)
        assert out.exists()


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestClosedStdout:
    """A reader that closes the pipe early is not a crash, for any
    subcommand: exit 0, no traceback."""

    @pytest.mark.parametrize(
        "args",
        [["lint", "--explain", "REP015"], ["cat", "{gz}"]],
        ids=["lint-explain", "cat"],
    )
    def test_reader_closes_pipe_first(self, workdir, args):
        import os
        import subprocess
        import sys

        d, _ = workdir
        argv = [a.format(gz=d / "reads.fastq.gz") for a in args]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # Close the read end before the command can write: its first
        # write to stdout meets a closed pipe.
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, err
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
