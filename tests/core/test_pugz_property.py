"""Property-based exactness of the parallel decompressor."""

import gzip as stdlib_gzip
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pugz import iter_pugz, pugz_decompress

# Structured text generators that produce multi-block streams with
# varied match/literal regimes.
# Size caps keep the worst-case input ~600 KB: hypothesis may run a
# shrink cycle of dozens of decompressions, so per-example cost must
# stay in the ~1 s range on a single core.
_line = st.one_of(
    st.text(alphabet="ACGT", min_size=10, max_size=80),
    st.text(alphabet="!#$%&'()*+,-./0123456789", min_size=10, max_size=80),
    st.text(alphabet="abcdefghij ", min_size=5, max_size=40),
)
_document = st.lists(_line, min_size=30, max_size=120).map(
    lambda lines: ("\n".join(lines) + "\n").encode()
)


class TestPugzProperty:
    @given(
        _document,
        st.integers(min_value=1, max_value=60),
        st.sampled_from([1, 5, 9]),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_exactness(self, doc, reps, level, n_chunks):
        text = doc * reps
        gz = stdlib_gzip.compress(text, level, mtime=0)
        assert pugz_decompress(gz, n_chunks=n_chunks) == text

    @given(
        _document,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_windowed_exactness(self, doc, reps, stripe):
        text = doc * reps
        gz = stdlib_gzip.compress(text, 6, mtime=0)
        assert b"".join(iter_pugz(gz, n_chunks=5, stripe_chunks=stripe)) == text

    @given(st.lists(_document, min_size=1, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_multi_member_exactness(self, docs):
        gz = b"".join(stdlib_gzip.compress(d * 15, 6, mtime=0) for d in docs)
        truth = b"".join(d * 15 for d in docs)
        assert pugz_decompress(gz, n_chunks=2) == truth
