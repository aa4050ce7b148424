"""One container contract for every gzip entry point.

Every decoder walks members through :func:`repro.deflate.gzipfmt.iter_members`,
so empty input, trailing garbage, a truncated trailer and a CRC32 or
ISIZE mismatch raise the same error class, stage and bit offset from
each of them, and from the CLI's ``decompress`` and ``pugz``.
"""

import gzip as stdlib_gzip
import os
import subprocess
import sys

import pytest

from repro.core import iter_pugz, pugz_build_index, pugz_decompress
from repro.data import synthetic_fastq
from repro.deflate import gzip_unwrap, split_members
from repro.deflate.gzipfmt import iter_members
from repro.errors import GzipFormatError
from repro.index import build_index

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

TEXT = synthetic_fastq(500, read_length=100, seed=25, quality_profile="safe")
TAIL = TEXT[:5000]
#: Three members, the middle one empty.
MULTI = (
    stdlib_gzip.compress(TEXT, 6, mtime=0)
    + stdlib_gzip.compress(b"", 6, mtime=0)
    + stdlib_gzip.compress(TAIL, 6, mtime=0)
)
N = len(MULTI)


def _flip(data: bytes, pos: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1 :]


#: name -> (input, stage, bit_offset, message prefix)
CASES = {
    "empty": (b"", "container", 0, "empty input"),
    "junk4": (MULTI + b"junk", "container", 8 * N, "trailing garbage after last gzip member"),
    "junk16": (
        MULTI + b"not a gzip file!",
        "container",
        8 * N,
        "trailing garbage after last gzip member",
    ),
    "truncated_trailer": (MULTI[:-3], "trailer", 8 * (N - 8), "truncated gzip trailer"),
    "flipped_crc": (_flip(MULTI, N - 8), "trailer", 8 * (N - 8), "CRC mismatch"),
    "flipped_isize": (_flip(MULTI, N - 4), "trailer", 8 * (N - 4), "ISIZE mismatch"),
}

ENTRY_POINTS = {
    "gzip_unwrap": gzip_unwrap,
    "split_members": split_members,
    "build_index": build_index,
    "pugz_build_index_1": lambda d: pugz_build_index(d, n_chunks=1),
    "pugz_build_index_3": lambda d: pugz_build_index(d, n_chunks=3),
    "pugz_decompress": lambda d: pugz_decompress(d, n_chunks=3, verify=True),
    "iter_pugz": lambda d: list(iter_pugz(d, n_chunks=3, stripe_chunks=1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_same_error_everywhere(entry, case):
    data, stage, bit_offset, message = CASES[case]
    with pytest.raises(GzipFormatError) as excinfo:
        ENTRY_POINTS[entry](data)
    assert type(excinfo.value) is GzipFormatError
    assert excinfo.value.stage == stage
    assert excinfo.value.bit_offset == bit_offset
    assert excinfo.value.message.startswith(message)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("command", [["decompress"], ["pugz", "-t", "3", "--verify"]])
def test_cli_exit_codes(tmp_path, command, case):
    data, stage, _, message = CASES[case]
    path = tmp_path / "in.gz"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *command, str(path), "-o", str(tmp_path / "out")],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert b"GzipFormatError" in proc.stderr
    assert message.encode() in proc.stderr


def test_every_entry_point_reads_the_intact_file():
    want = TEXT + TAIL
    assert gzip_unwrap(MULTI) == want
    assert pugz_decompress(MULTI, n_chunks=3, verify=True) == want
    assert b"".join(iter_pugz(MULTI, n_chunks=3, stripe_chunks=1)) == want
    members = split_members(MULTI)
    assert [m.isize for m in members] == [len(TEXT), 0, len(TAIL)]
    assert members[-1].member_end == N


def test_builders_write_identical_sidecars():
    sidecar = build_index(MULTI).to_bytes()
    for n_chunks in (1, 3):
        data, index = pugz_build_index(MULTI, n_chunks=n_chunks)
        assert data == TEXT + TAIL
        assert index.to_bytes() == sidecar
    assert build_index(MULTI).members == 3


def test_walk_needs_each_member_finished():
    walk = iter_members(MULTI)
    next(walk)
    with pytest.raises(ValueError, match="finish"):
        next(walk)


def test_tolerated_garbage_ends_the_walk_with_a_warning():
    data = MULTI + b"junk"
    with pytest.warns(UserWarning, match="trailing garbage"):
        out, report = pugz_decompress(
            data, n_chunks=3, allow_trailing_garbage=True, return_report=True
        )
    assert out == TEXT + TAIL
    assert report.trailing_garbage_offset == N
    assert report.members == 3
