"""Property-based kernel tests (hypothesis): invariants that must hold
for ANY input, complementing the hand-vector tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pubmed_and_method_ray.functions import textkernels as tk
from pubmed_and_method_ray.functions.hashing import hash64_array, stable_hash64
from pubmed_and_method_ray.functions.simhash import (
    DEFAULT_BANDS,
    hamming64,
    simhash64,
    simhash_bands,
)

words = st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), max_size=30)
texts = st.text(alphabet="abcdef GH-12\n\t", max_size=80)


class TestSimilarityProperties:
    @given(words, words)
    @settings(max_examples=60, deadline=None)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        j = tk.jaccard_similarity(a, b)
        assert 0.0 <= j <= 1.0
        assert j == tk.jaccard_similarity(b, a)
        if set(a) == set(b) and a:
            assert j == 1.0

    @given(texts, texts)
    @settings(max_examples=60, deadline=None)
    def test_jw_bounds_and_symmetry(self, a, b):
        v = tk.jaro_winkler_similarity(a, b)
        assert 0.0 <= v <= 1.0
        assert abs(v - tk.jaro_winkler_similarity(b, a)) < 1e-12
        assert tk.jaro_winkler_similarity(a, a) == 1.0  # identical -> 1.0

    @given(texts, texts)
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_metric_properties(self, a, b):
        d = tk.levenshtein(a, b)
        assert d == tk.levenshtein(b, a)
        assert d >= abs(len(a) - len(b))
        assert d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @given(texts, texts)
    @settings(max_examples=40, deadline=None)
    def test_edit_diff_chars_length_is_distance(self, a, b):
        assert len(tk.edit_diff_chars(a, b)) == tk.levenshtein(a, b)


class TestBatchKernelParity:
    """The vectorized batch string kernels must be BIT-EXACT equal to
    their scalar references on any input (stages/features.py relies on
    this to swap them in the hot pair loop)."""

    pairs = st.lists(
        st.tuples(
            st.text(alphabet="abcde/09 é", max_size=14),
            st.text(alphabet="abcde/09 é", max_size=14),
        ),
        min_size=1,
        max_size=40,
    )

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_batch_matches_scalar(self, ps):
        a = [x for x, _ in ps]
        b = [y for _, y in ps]
        got = tk.levenshtein_batch(a, b)
        want = np.array([tk.levenshtein(x, y) for x, y in ps])
        assert np.array_equal(got, want)

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_jaro_winkler_batch_matches_scalar(self, ps):
        a = [x for x, _ in ps]
        b = [y for _, y in ps]
        got = tk.jaro_winkler_batch(a, b)
        want = np.array([tk.jaro_winkler_similarity(x, y) for x, y in ps])
        assert np.array_equal(got, want)


class TestHashProperties:
    @given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=8), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_hash_array_matches_scalar(self, strings):
        arr = hash64_array(strings, seed=9)
        for s, h in zip(strings, arr):
            assert int(h) == stable_hash64(s, 9)

    @given(
        st.lists(
            st.text(max_size=24),  # arbitrary unicode incl. empties
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_fnv64_arrow_matches_scalar(self, strings, seed):
        # the length-sorted position-wise vectorization must agree with
        # the byte-at-a-time scalar FNV on arbitrary unicode, empty
        # strings and mixed lengths; seeds must decorrelate
        import pyarrow as pa

        from pubmed_and_method_ray.functions.hashing import fnv64, fnv64_arrow

        arr = pa.array(strings, pa.string())
        got = fnv64_arrow(arr, seed=seed)
        for s, h in zip(strings, got):
            assert int(h) == fnv64(s, seed=seed)
        if any(strings):
            other = fnv64_arrow(arr, seed=seed + 1)
            assert not np.array_equal(got, other)

    def test_fnv64_arrow_large_string_and_chunked(self):
        import pyarrow as pa

        from pubmed_and_method_ray.functions.hashing import fnv64, fnv64_arrow

        strs = ["alpha", "", "日本語テキスト", "z" * 300]
        for typ in (pa.string(), pa.large_string()):
            arr = pa.array(strs, typ)
            got = fnv64_arrow(arr, seed=3)
            assert [int(h) for h in got] == [fnv64(s, 3) for s in strs]
        chunked = pa.chunked_array([pa.array(strs[:2]), pa.array(strs[2:])])
        got = fnv64_arrow(chunked, seed=3)
        assert [int(h) for h in got] == [fnv64(s, 3) for s in strs]
        # sliced array (nonzero offset) must hash the right rows
        sl = pa.array(strs).slice(1)
        got = fnv64_arrow(sl, seed=3)
        assert [int(h) for h in got] == [fnv64(s, 3) for s in strs[1:]]

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_splitmix64_matches_python_int_reference(self, xs):
        from pubmed_and_method_ray.functions.hashing import splitmix64

        def ref(x):
            m = (1 << 64) - 1
            x = (x + 0x9E3779B97F4A7C15) & m
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m
            return x ^ (x >> 31)

        xs = xs + [0, 2**64 - 1]
        arr = np.array(xs, dtype=np.uint64)
        got = splitmix64(arr)
        assert got.dtype == np.uint64
        assert [int(h) for h in got] == [ref(x) for x in xs]
        assert arr.tolist() == xs  # the input is not hashed in place
        for x in (0, 2**64 - 1, xs[0]):
            h = splitmix64(x)
            assert isinstance(h, np.uint64) and int(h) == ref(x)

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_simhash_band_reassembly(self, tokens):
        h = simhash64(tokens)
        bands = simhash_bands(h, DEFAULT_BANDS)
        # bands partition the 64 bits: reassemble with the width table
        from pubmed_and_method_ray.functions.simhash import _BAND_WIDTHS

        widths = _BAND_WIDTHS[DEFAULT_BANDS]
        acc, off = 0, 0
        for w, b in zip(widths, bands):
            acc |= int(b) << off
            off += w
        assert acc == h

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_simhash_permutation_invariant(self, tokens):
        # multiset-invariant: order must not matter
        assert simhash64(tokens) == simhash64(list(reversed(tokens)))

    @given(texts)
    @settings(max_examples=40, deadline=None)
    def test_clean_text_idempotent(self, s):
        once = tk.clean_text(s)
        assert tk.clean_text(once) == once
        assert tk.ascii_fold(tk.ascii_fold(s)) == tk.ascii_fold(s)


class TestFeatureKernelProperties:
    @given(
        st.lists(st.integers(0, 2**32 - 1), max_size=40),
        st.lists(st.integers(0, 2**32 - 1), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_searchsorted_intersection_matches_set(self, xs, ys):
        from pubmed_and_method_ray.stages.features import _intersect_count_sorted

        a = np.unique(np.array(xs, dtype=np.uint64))
        b = np.unique(np.array(ys, dtype=np.uint64))
        assert _intersect_count_sorted(a, b) == len(set(a.tolist()) & set(b.tolist()))


class TestVectorizedPairKernels:
    """The flat lexsort multi-pair kernels must agree with the scalar
    per-pair kernels on arbitrary list-column layouts (incl. empties)."""

    @given(
        st.lists(
            st.lists(st.integers(0, 2**20), max_size=12), min_size=1, max_size=10
        ),
        st.sampled_from(["uint64", "uint32"]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pairwise_jaccard_matches_scalar(self, rows, dtype, data):
        # both element types the kernel sees: uint64, and uint32 (the
        # hot mention token/shingle columns); each runs the same
        # per-left-run searchsorted loop
        import pyarrow as pa

        from pubmed_and_method_ray.stages.features import (
            _jaccard_u64,
            _list_view,
            pairwise_jaccard,
        )

        sets = [np.unique(np.array(r, dtype=np.dtype(dtype))) for r in rows]
        col = pa.array(
            [s.tolist() for s in sets],
            pa.list_(pa.uint64() if dtype == "uint64" else pa.uint32()),
        )
        off, vals = _list_view(pa.table({"x": col})["x"])
        n_pairs = data.draw(st.integers(0, 12))
        li = np.array(
            [data.draw(st.integers(0, len(sets) - 1)) for _ in range(n_pairs)],
            dtype=np.int64,
        )
        ri = np.array(
            [data.draw(st.integers(0, len(sets) - 1)) for _ in range(n_pairs)],
            dtype=np.int64,
        )
        got = pairwise_jaccard(off, vals, li, off, vals, ri)
        want = np.array([_jaccard_u64(sets[a], sets[b]) for a, b in zip(li, ri)])
        assert np.allclose(got, want)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 50), st.floats(-2, 2, width=32)),
                max_size=8,
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["int64", "uint32"]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pairwise_sparse_dot_matches_scalar(self, rows, dtype, data):
        # both index types the kernel sees: int64, and uint32 (the
        # unpacked tfidf index values); each runs the per-left-run loop
        import pyarrow as pa

        from pubmed_and_method_ray.stages.features import (
            _list_view,
            _sparse_cos,
            pairwise_sparse_dot,
        )

        idxs, ws = [], []
        for r in rows:
            d = dict(r)  # unique indices
            ii = np.array(sorted(d), dtype=np.dtype(dtype))
            idxs.append(ii)
            ws.append(np.array([d[i] for i in ii], dtype=np.float64))
        icol = pa.array(
            [x.tolist() for x in idxs],
            pa.list_(pa.int64() if dtype == "int64" else pa.uint32()),
        )
        wcol = pa.array([x.tolist() for x in ws], pa.list_(pa.float64()))
        io, iv = _list_view(pa.table({"x": icol})["x"])
        wo, wv = _list_view(pa.table({"x": wcol})["x"])
        n_pairs = data.draw(st.integers(0, 10))
        li = np.array(
            [data.draw(st.integers(0, len(rows) - 1)) for _ in range(n_pairs)],
            dtype=np.int64,
        )
        ri = np.array(
            [data.draw(st.integers(0, len(rows) - 1)) for _ in range(n_pairs)],
            dtype=np.int64,
        )
        got = pairwise_sparse_dot(io, iv, wo, wv, li, io, iv, wo, wv, ri)
        want = np.array(
            [
                _sparse_cos(idxs[a], ws[a], idxs[b], ws[b])
                for a, b in zip(li, ri)
            ]
        )
        assert np.allclose(got, want)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 9)),  # (gap, size)
            max_size=25,
        ),
        st.integers(2, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_run_pairs_matches_triu_loop(self, layout, n_max):
        # runs with gaps between them, selected the way the dedup and
        # blocking callers select them (2 <= n <= n_max): the pairs and
        # their order equal the per-run np.triu_indices loop
        from pubmed_and_method_ray.stages.features import run_pairs

        gaps = np.array([g for g, _ in layout], dtype=np.int64)
        sizes = np.array([n for _, n in layout], dtype=np.int64)
        starts = np.cumsum(gaps) + np.cumsum(sizes) - sizes
        pick = (sizes >= 2) & (sizes <= n_max)
        want_i, want_j = [], []
        for s, n in zip(starts[pick], sizes[pick]):
            iu, ju = np.triu_indices(n, k=1)
            want_i += (s + iu).tolist()
            want_j += (s + ju).tolist()
        i, j = run_pairs(starts[pick], sizes[pick])
        assert i.dtype == j.dtype == np.int64
        assert i.tolist() == want_i and j.tolist() == want_j
        # unselected runs (sizes 0 and 1 included) add no pair
        i_all, _ = run_pairs(starts, sizes)
        assert len(i_all) == int((sizes * (sizes - 1) // 2).sum())

    def test_run_pairs_edge_layouts(self):
        from pubmed_and_method_ray.stages.features import run_pairs

        i, j = run_pairs(np.empty(0, np.int64), np.empty(0, np.int64))
        assert i.dtype == j.dtype == np.int64 and len(i) == len(j) == 0
        i, j = run_pairs([3, 4, 9], [0, 1, 1])
        assert len(i) == len(j) == 0
        iu, ju = np.triu_indices(700, k=1)
        i, j = run_pairs([5], [700])
        assert np.array_equal(i, iu + 5) and np.array_equal(j, ju + 5)

    @given(
        st.lists(  # (S, p) per row, 0 <= p < S
            st.integers(1, 6).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s - 1))),
            max_size=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_triangle_salt_matches_loop(self, rows):
        # the per-row loop the salting sites ran before: row-major, q
        # inner; each pair of rows then meets in exactly one group
        from pubmed_and_method_ray.stages.features import triangle_salt

        S = np.array([s for s, _ in rows], dtype=np.int64)
        p = np.array([x for _, x in rows], dtype=np.int64)
        want = [
            (r, int(p[r]), min(int(p[r]), q), max(int(p[r]), q))
            for r in range(len(S))
            for q in range(S[r])
        ]
        got = triangle_salt(S, p)
        assert all(a.dtype == np.int64 for a in got)
        assert list(zip(*(a.tolist() for a in got))) == want

    @given(
        st.lists(  # (rows, S) per code
            st.tuples(st.integers(0, 8), st.integers(1, 5)), max_size=12
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_salted_group_pairs_pairs_each_code_once(self, codes, data):
        # rows replicated by triangle_salt, in any order: every pair of
        # distinct original rows that share a code comes back exactly
        # once, and no other pair does
        from pubmed_and_method_ray.stages.features import salted_group_pairs, triangle_salt

        code_of = np.repeat(np.arange(len(codes)), [n for n, _ in codes]).astype(np.int64)
        S = np.repeat([s for _, s in codes], [n for n, _ in codes]).astype(np.int64)
        p = np.array(
            [data.draw(st.integers(0, s - 1)) for s in S.tolist()], dtype=np.int64
        )
        rows, part, sa, sb = triangle_salt(S, p)
        perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(rows))
        rows, part, sa, sb = rows[perm], part[perm], sa[perm], sb[perm]
        gi, gj = salted_group_pairs(code_of[rows], sa, sb, part)
        assert gi.dtype == gj.dtype == np.int64
        a, b = rows[gi], rows[gj]
        got = sorted(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        want = [
            (i, j)
            for i in range(len(code_of))
            for j in range(i + 1, len(code_of))
            if code_of[i] == code_of[j]
        ]
        assert got == want

    def test_salted_group_pairs_refuses_keys_past_63_bits(self):
        import pytest

        from pubmed_and_method_ray.stages.features import salted_group_pairs

        one = np.zeros(1, np.int64)
        gi, gj = salted_group_pairs(one + (1 << 40), one, one + 3, one)
        assert len(gi) == len(gj) == 0
        with pytest.raises(ValueError, match="63 bits"):
            salted_group_pairs(one + (1 << 59), one, one + 3, one)

    def test_gather_on_sliced_list_array(self):
        import pyarrow as pa

        from pubmed_and_method_ray.stages.features import _list_view, gather_list_rows

        col = pa.array([[1, 2], [3], [], [4, 5, 6]], pa.list_(pa.uint64()))
        sliced = col.slice(1)  # nonzero base offset
        off, vals = _list_view(pa.table({"x": sliced})["x"])
        flat, lens = gather_list_rows(off, vals, np.array([0, 2], dtype=np.int64))
        assert flat.tolist() == [3, 4, 5, 6]
        assert lens.tolist() == [1, 3]


class TestPairSumsProperty:
    """pair_sums (count-algebra confusion, pipelines/analysis.py) must
    equal brute-force enumeration of every within-host pair for ANY
    multiset of (host, ent, rid) page rows."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # host
                st.integers(0, 4),  # ent
                st.integers(0, 5),  # rid
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, rows):
        from pubmed_and_method_ray.pipelines.analysis import pair_sums

        arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
        uniq, cnt = (
            np.unique(arr, axis=0, return_counts=True)
            if len(arr)
            else (np.empty((0, 3), np.int64), np.empty(0, np.int64))
        )
        got = pair_sums(uniq[:, 0], uniq[:, 1], uniq[:, 2], cnt)

        tp = pred = gold = total = 0
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                if arr[i, 0] != arr[j, 0]:
                    continue
                total += 1
                ge = arr[i, 1] == arr[j, 1]
                pr = arr[i, 2] == arr[j, 2]
                tp += ge and pr
                pred += pr
                gold += ge
        assert got == (tp, pred, gold, total)


class TestDecoderExceptionContract:
    """Every raster/container decoder is a boundary for UNTRUSTED bytes
    (actor-pool stages decode arbitrary crawled payloads): malformed or
    truncated input must fail with the DECLARED ValueError (or
    NotImplementedError for recognized-but-unsupported shapes) — never
    an internal IndexError/KeyError/zlib.error/struct.error/
    RecursionError out of the decoding machinery (functions/raster.py
    wrappers; the r4 ADVICE item generalized to all five formats)."""

    @staticmethod
    def _valids():
        from pubmed_and_method_ray.functions import raster as R

        px = (
            np.arange(9 * 12 * 3, dtype=np.uint8).reshape(9, 12, 3) * 7 % 251
        ).astype(np.uint8)
        return {
            "bmp": (R.encode_bmp(px), R.decode_bmp),
            "png": (R.encode_png(px), R.decode_png),
            "ppm": (R.encode_ppm(px), R.decode_ppm),
            "jpeg": (R.encode_jpeg(px), R.decode_jpeg),
            "avi": (R.encode_mjpeg_avi([px, px]), R.mjpeg_avi_frames),
        }

    @given(
        fmt=st.sampled_from(["bmp", "png", "ppm", "jpeg", "avi"]),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_payloads_fail_with_declared_types(self, fmt, data):
        base, decode = self._valids()[fmt]
        b = bytearray(base)
        if data.draw(st.booleans(), label="truncate"):
            b = b[: data.draw(st.integers(0, len(b) - 1), label="cut")]
        for _ in range(data.draw(st.integers(1, 5), label="flips")):
            if not b:
                break
            i = data.draw(st.integers(0, len(b) - 1), label="pos")
            b[i] = data.draw(st.integers(0, 255), label="byte")
        try:
            decode(bytes(b))
        except (ValueError, NotImplementedError):
            pass  # the declared contract

    def test_deeply_nested_avi_list_no_recursion(self):
        """5000 nested LISTs (8 bytes buys a level) must not hit
        Python's recursion limit — the walker is iterative."""
        from pubmed_and_method_ray.functions.raster import mjpeg_avi_frames

        inner = b""
        for _ in range(5000):
            inner = b"LIST" + (len(inner) + 4).to_bytes(4, "little") + b"movi" + inner
        deep = b"RIFF" + (len(inner) + 4).to_bytes(4, "little") + b"AVI " + inner
        assert mjpeg_avi_frames(deep) == []

    def test_avi_frame_order_and_offsets_preserved(self):
        """The iterative walk keeps stream order and absolute offsets
        (sampling stages key on them)."""
        import numpy as _np

        from pubmed_and_method_ray.functions.raster import (
            decode_jpeg,
            encode_mjpeg_avi,
            mjpeg_avi_frames,
        )

        frames = [
            _np.full((8, 8, 3), 30 * i, dtype=_np.uint8) for i in range(4)
        ]
        payload = encode_mjpeg_avi(frames)
        got = mjpeg_avi_frames(payload)
        assert len(got) == 4
        offs = [o for o, _ in got]
        assert offs == sorted(offs)
        for (off, jb), src in zip(got, frames):
            assert payload[off : off + len(jb)] == jb
            assert decode_jpeg(jb).shape == (8, 8, 3)


class TestPackedTfidfProperty:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 65535), st.integers(1, 65535)),
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip_bit_exact(self, rows, data):
        """The packed transport's bit layout (idx | tf<<16, float32 norm)
        must reproduce w = tf*idf[idx]/norm exactly as the per-doc
        two-column construction computed it, for arbitrary (idx, tf)
        sets and idf values — the invariant the exchange relies on."""
        import numpy as np
        import pyarrow as pa

        from pubmed_and_method_ray.stages.features import _unpack_tfidf

        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        idf = (rng.random(65536) * 6).astype(np.float32)
        pk_lists, norms, want_w, want_idx = [], [], [], []
        for r in rows:
            d = dict(r)  # unique indices, tf >= 1
            idx = np.array(sorted(d), dtype=np.uint32)
            cnt = np.array([d[i] for i in idx], dtype=np.int64)
            w = cnt.astype(np.float32) * idf[idx.astype(np.int64)]
            norm = float(np.sqrt((w * w).sum()))
            if norm > 0:
                w = w / norm
            pk_lists.append((idx | (cnt.astype(np.uint32) << np.uint32(16))).tolist())
            norms.append(np.float32(norm))
            want_idx.append(idx)
            want_w.append(w.astype(np.float32))
        pk_col = pa.array(pk_lists, pa.list_(pa.uint32()))
        norm_col = pa.array(np.array(norms, np.float32), pa.float32())
        off, iv, wv = _unpack_tfidf(
            pa.table({"x": pk_col})["x"], norm_col, idf
        )
        for i in range(len(rows)):
            s, e = off[i], off[i + 1]
            assert np.array_equal(iv[s:e], want_idx[i])
            assert np.array_equal(
                wv[s:e].view(np.uint32), want_w[i].view(np.uint32)
            )


class TestSharedWindowProperty:
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=12
            ),
            min_size=2,
            max_size=8,
        ),
        st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_match_bruteforce(self, docs, window):
        """dedup_shared_window's keyed-exchange pair construction must
        equal the brute-force set-of-shared-windows definition for any
        corpus, window size and group cap."""
        import pyarrow as pa
        import ray.data as rd

        from pubmed_and_method_ray.pipelines import dedup as dd

        texts = [" ".join(toks) for toks in docs]

        def windows(text):
            toks = text.lower().split(" ")
            if len(toks) < window:
                return {" ".join(toks)}
            return {
                " ".join(toks[j : j + window])
                for j in range(len(toks) - window + 1)
            }

        n_max = 3
        from collections import Counter

        freq = Counter(g for t in texts for g in windows(t))
        want = {}
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                shared = {
                    g
                    for g in windows(texts[i]) & windows(texts[j])
                    if 2 <= freq[g] <= n_max
                }
                if shared:
                    want[(i, j)] = len(shared)

        tbl = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        orig = dd._read_documents
        try:
            dd._read_documents = lambda sf, cols=None: rd.from_arrow(tbl)
            out = dd.dedup_shared_window(
                "unused", window=window, n_max=n_max
            ).to_pandas()
        finally:
            dd._read_documents = orig
        if out.empty:  # zero pairs -> empty dataset (schema-less in Ray)
            got = {}
        else:
            got = {
                (a, b): c
                for a, b, c in zip(
                    out["doc_id1"], out["doc_id2"], out["shared_windows"]
                )
            }
        assert got == want


# docs for the gram kernels: null, empty, shorter than k, repeated
# tokens, Greek final sigma and Turkish dotted/dotless i (lowered by
# Arrow's utf8_lower, as DuckDB's lower), and whole-doc duplicates
gram_texts = st.lists(
    st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(["a", "b", "ΣΑΣ", "σας", "İ", "ı", "I", " "]), max_size=16
        ).map("".join),
    ),
    min_size=1,
    max_size=10,
).map(lambda xs: xs + xs[: len(xs) // 2])


def _reference_doc_grams(texts, k, seed):
    """Per doc, np.unique of the doc's folded gram hashes."""
    import pyarrow as pa

    from pubmed_and_method_ray.pipelines.dedup import _token_hashes
    from pubmed_and_method_ray.stages.mention_prep import _masked_gram_fold

    th, offs = _token_hashes(pa.array(texts, pa.string()))
    h, doc_of = _masked_gram_fold(th, offs, k, seed)
    return [np.unique(h[doc_of == i]) for i in range(len(texts))]


class TestGramKernelProperties:
    @given(gram_texts, st.sampled_from([1, 2, 3, 8]))
    @settings(max_examples=80, deadline=None)
    def test_doc_grams_match_per_doc_unique(self, texts, k):
        """``distinct[ranks[off[i]:off[i+1]]]`` is doc i's per-doc
        ``np.unique`` of its grams, and ``distinct`` is sorted-distinct."""
        import pyarrow as pa

        from pubmed_and_method_ray.pipelines.dedup import _doc_grams

        distinct, ranks, off = _doc_grams(pa.array(texts, pa.string()), k, 0x57)
        assert distinct.dtype == np.uint64 and ranks.dtype == off.dtype == np.int64
        assert np.all(distinct[1:] > distinct[:-1])
        assert len(off) == len(texts) + 1 and off[0] == 0 and off[-1] == len(ranks)
        want = _reference_doc_grams(texts, k, 0x57)
        for i, w in enumerate(want):
            assert np.array_equal(distinct[ranks[off[i] : off[i + 1]]], w)
        assert len(distinct) == len(np.unique(np.concatenate(want)))

    def test_doc_grams_single_and_empty_batch(self):
        import pyarrow as pa

        from pubmed_and_method_ray.pipelines.dedup import _doc_grams

        distinct, ranks, off = _doc_grams(pa.array(["ΣΑΣ b b"], pa.string()), 2, 7)
        assert off.tolist() == [0, 2] and len(distinct) == 2
        assert ranks.tolist() == [0, 1]
        distinct, ranks, off = _doc_grams(pa.array([], pa.string()), 3, 7)
        assert len(distinct) == len(ranks) == 0 and off.tolist() == [0]

    def test_packed_ranks_refuse_ranks_past_32_bits(self):
        import pytest

        from pubmed_and_method_ray.pipelines.dedup import _packed_ranks

        zero = np.zeros(1, np.int64)
        assert _packed_ranks(zero + 3, zero + 5, 4, 6).tolist() == [3 << 32 | 5]
        for n_hi, n_lo in ((1 << 32, 1), (1, 1 << 32)):
            with pytest.raises(ValueError):
                _packed_ranks(zero, zero, n_hi, n_lo)

    @given(
        st.lists(st.integers(0, 14), min_size=1, max_size=12),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sketch_matches_per_gram_minhash(self, lens, all_distinct, data):
        """``_SketchBander``'s ``sh`` and ``bands`` equal a direct
        per-doc ``min(splitmix64(g ^ seed_p))`` over the doc's gram
        list, on a small-vocabulary corpus (grams repeat across docs)
        and on one where every token, so every shingle, is distinct."""
        import pyarrow as pa

        from pubmed_and_method_ray.functions.hashing import splitmix64
        from pubmed_and_method_ray.pipelines.dedup import _SketchBander

        if all_distinct:
            starts = np.cumsum([0] + lens)
            texts = [" ".join(f"w{j}" for j in range(s, s + n)) for s, n in zip(starts, lens)]
        else:
            texts = [
                " ".join(data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n)))
                for n in lens
            ]
        bander = _SketchBander()
        got = bander(
            pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
        )
        seeds = splitmix64(
            np.arange(1, bander.num_perm + 1, dtype=np.uint64)
            * np.uint64(bander.MINHASH_SEED + 1)
        )
        rows = bander.num_perm // bander.n_bands
        grams = _reference_doc_grams(texts, bander.shingle_k, bander.SHINGLE_SEED)
        for i, g in enumerate(grams):
            assert got["sh"][i].as_py() == g.tobytes()
            sig = np.array([splitmix64(g ^ s).min() for s in seeds], np.uint64)
            want = [
                np.r_[np.uint64(b), sig[b * rows : (b + 1) * rows]].tobytes()
                for b in range(bander.n_bands)
            ]
            assert got["bands"][i].as_py() == want


class TestPairSortProperty:
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1)),
            max_size=60,
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sort_pairs_matches_lexsort(self, rows, distinct):
        """``_sort_pairs`` returns the rows in ``np.lexsort((b, a))``
        order; with ``distinct`` each repeated row once."""
        from pubmed_and_method_ray.pipelines.dedup import _sort_pairs

        # repeat some rows so duplicates and equal first keys occur
        rows = rows + rows[::3]
        a = np.array([r[0] for r in rows], np.int64)
        b = np.array([r[1] for r in rows], np.int64)
        order = np.lexsort((b, a))
        wa, wb = a[order], b[order]
        if distinct:
            keep = np.r_[True, (wa[1:] != wa[:-1]) | (wb[1:] != wb[:-1])][: len(wa)]
            wa, wb = wa[keep], wb[keep]
        ga, gb = _sort_pairs(a, b, distinct=distinct)
        assert ga.dtype == gb.dtype == np.int64
        assert ga.tolist() == wa.tolist() and gb.tolist() == wb.tolist()
