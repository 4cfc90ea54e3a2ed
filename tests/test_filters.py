import copy
import hashlib
import math
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab.estimators import SaturationError
from bloomlab.filters import (
    HASH_SCHEME_VERSION,
    MAGIC,
    BloomFilter,
    FilterParams,
    FilterVariant,
    FormatError,
    IncompatibleFilterError,
    _positions,
    deserialize,
    estimate_cardinality,
    filter_intersect,
    filter_union,
    index_stream,
    serialize,
)

STD = FilterVariant.STANDARD
CLS = FilterVariant.CLASSIC


def _params(m=64, k=3, variant=STD, seed=12345):
    return FilterParams(m=m, k=k, variant=variant, seed=seed)


class TestParams:
    def test_validation(self):
        _params()
        with pytest.raises(ValueError):
            FilterParams(m=0, k=1, variant=STD)
        with pytest.raises(ValueError):
            FilterParams(m=8, k=9, variant=STD)
        with pytest.raises(ValueError):
            FilterParams(m=8, k=0, variant=CLS)
        with pytest.raises(ValueError):
            FilterParams(m=8, k=1, variant=STD, seed=1 << 128)
        # the header stores m as u64 and k as u32
        FilterParams(m=2**64 - 1, k=2**32 - 1, variant=CLS)
        for m, k in ((2**64, 1), (2**64 + 1, 3), (2**40, 2**32)):
            with pytest.raises(ValueError):
                FilterParams(m=m, k=k, variant=STD)

    def test_degenerate_single_bit(self):
        filt = BloomFilter(FilterParams(m=1, k=1, variant=STD))
        assert filt.bit_sum() == 0


class TestIndexStream:
    def test_deterministic(self):
        p = _params()
        assert index_stream(p, b"hello") == index_stream(p, b"hello")

    def test_seed_and_element_sensitivity(self):
        p1 = _params(seed=1)
        p2 = _params(seed=2)
        assert index_stream(p1, b"hello") != index_stream(p2, b"hello")
        assert index_stream(p1, b"hello") != index_stream(p1, b"world")

    def test_classic_all_distinct(self):
        p = _params(m=16, k=16, variant=CLS)
        for i in range(50):
            positions = index_stream(p, b"e%d" % i)
            assert sorted(positions) == list(range(16))

    def test_standard_allows_repeats(self):
        p = _params(m=2, k=2, variant=STD, seed=3)
        streams = [index_stream(p, b"x%d" % i) for i in range(30)]
        assert all(len(s) == 2 for s in streams)
        assert any(len(set(s)) == 1 for s in streams)

    def test_uniformity_five_sigma(self):
        # one million raw draws over a modulus that exercises rejection
        m, k = 7, 4
        p = _params(m=m, k=k, variant=STD, seed=99)
        counts = [0] * m
        draws = 0
        for i in range(250_000):
            for pos in index_stream(p, i.to_bytes(4, "little")):
                counts[pos] += 1
                draws += 1
        expect = draws / m
        sigma = math.sqrt(draws * (1 / m) * (1 - 1 / m))
        for c in counts:
            assert abs(c - expect) < 5 * sigma


def _reference_words(seed, element):
    """Hash scheme 1 read one word at a time: the endless stream of 64-bit
    words that index_stream rejection-samples."""
    root = hashlib.blake2b(
        element, key=seed.to_bytes(16, "little"), digest_size=16
    ).digest()
    counter = 0
    while True:
        chunk = hashlib.blake2b(
            counter.to_bytes(8, "little"), key=root, digest_size=64
        ).digest()
        for off in range(0, 64, 8):
            yield int.from_bytes(chunk[off : off + 8], "little")
        counter += 1


def _reference_index_stream(params, element):
    """(positions, rejected word count), built word by word from the
    scheme's definition."""
    m = params.m
    limit = ((1 << 64) // m) * m
    out, seen, rejected = [], set(), 0
    for word in _reference_words(params.seed, element):
        if word >= limit:
            rejected += 1
            continue
        pos = word % m
        if params.variant is CLS:
            if pos in seen:
                continue
            seen.add(pos)
        out.append(pos)
        if len(out) == params.k:
            return out, rejected


# Powers of two never reject a word; the last three sizes reject about
# 25%, 50% and 2^-64 of them.
_SIZES = [1, 97, 2**16, 2**20, 3 * 2**62, 2**63 + 1, 2**64 - 1]
_SEEDS = st.integers(0, 2**128 - 1)
_ELEMENTS = st.binary(max_size=40)


class TestStreamMatchesReference:
    @given(data=st.data(), seed=_SEEDS, element=_ELEMENTS)
    @settings(max_examples=300, deadline=None)
    def test_equals_per_word_stream(self, data, seed, element):
        m = data.draw(st.sampled_from(_SIZES), "m")
        k = data.draw(st.integers(1, min(m, 64)), "k")
        variant = data.draw(st.sampled_from([STD, CLS]), "variant")
        params = FilterParams(m, k, variant, seed)
        assert index_stream(params, element) == (
            _reference_index_stream(params, element)[0]
        )

    @given(m=st.integers(1, 24), seed=_SEEDS, element=_ELEMENTS)
    @settings(max_examples=60, deadline=None)
    def test_classic_k_equals_m(self, m, seed, element):
        # every position once; the last few need many chunks of draws
        params = FilterParams(m, m, CLS, seed)
        assert index_stream(params, element) == (
            _reference_index_stream(params, element)[0]
        )

    @given(seed=_SEEDS, element=_ELEMENTS)
    @settings(max_examples=60, deadline=None)
    def test_classic_spans_chunks(self, seed, element):
        params = FilterParams(97, 64, CLS, seed)
        assert index_stream(params, element) == (
            _reference_index_stream(params, element)[0]
        )

    @pytest.mark.parametrize("m", [3 * 2**62, 2**63 + 1])
    def test_rejection_branch(self, m):
        rejected = 0
        for variant in (STD, CLS):
            params = FilterParams(m, 32, variant, 2**127 + 5)
            for i in range(20):
                ref, r = _reference_index_stream(params, b"rej%d" % i)
                assert index_stream(params, b"rej%d" % i) == ref
                rejected += r
        assert rejected > 0


class _SparseBits(dict):
    """A bytearray stand-in for filters too long to allocate: a byte never
    written reads 0."""

    def __init__(self, m):
        super().__init__()
        self.nbytes = (m + 7) // 8

    def __len__(self):
        return self.nbytes

    def __missing__(self, index):
        return 0


def _set_bytes(bits):
    """{byte index: value} of the nonzero bytes of a bit array."""
    pairs = bits.items() if isinstance(bits, dict) else enumerate(bits)
    return {i: b for i, b in pairs if b}


def _reference_bytes(params, elements):
    out = {}
    for e in elements:
        for pos in _reference_index_stream(params, e)[0]:
            out[pos >> 3] = out.get(pos >> 3, 0) | 1 << (pos & 7)
    return out


class TestFilterHashState:
    """A filter keys its hash scheme once and serves every later insert and
    query from that state, so each must still give the scheme's positions."""

    @pytest.mark.parametrize(
        "m, k, variant",
        [(m, 20, v) for m in (97, 2**16, 3 * 2**62) for v in (STD, CLS)]
        + [(m, m, CLS) for m in (1, 2, 7, 24)],
    )
    def test_long_lived_filter_matches_reference(self, m, k, variant):
        # k = 20 needs three or more chunks per element; at k = m every
        # element sets every bit, so only the streams tell elements apart
        params = FilterParams(m, k, variant, 2**127 + 9)
        filt = BloomFilter(params, _SparseBits(m) if m > 2**16 else None)
        elements = [b"long%d" % i for i in range(300)]
        for e in elements:
            filt.insert(e)
        expect = _reference_bytes(params, elements)
        assert _set_bytes(filt.bits) == expect
        for i in range(300):
            e = elements[i] if i % 2 else b"absent%d" % i
            ref = _reference_index_stream(params, e)[0]
            assert list(_positions(filt._hash, e)) == ref
            assert filt.query(e) == all(
                expect.get(pos >> 3, 0) >> (pos & 7) & 1 for pos in ref
            )

    @pytest.mark.parametrize("variant", [STD, CLS])
    def test_derived_filters_query_as_source(self, variant):
        params = FilterParams(2**16, 7, variant, 2**90 + 3)
        source = BloomFilter(params)
        for i in range(400):
            source.insert(b"src%d" % i)
        probes = [b"src%d" % i for i in range(0, 400, 3)] + [
            b"out%d" % i for i in range(300)
        ]
        expect = [source.query(e) for e in probes]
        assert True in expect and False in expect
        derived = [
            deserialize(serialize(source)),
            filter_union(source, BloomFilter(params)),
            filter_intersect(source, source),
        ]
        for filt in derived:
            assert [filt.query(e) for e in probes] == expect

    def test_concurrent_queries_match_serial(self):
        params = FilterParams(2**12, 32, STD, 77)
        filt = BloomFilter(params)
        for i in range(60):
            filt.insert(b"c%d" % i)
        probes = [b"c%d" % i for i in range(60)] + [b"x%d" % i for i in range(600)]
        serial = [filt.query(e) for e in probes]
        assert True in serial and False in serial
        results = [None] * 4

        def worker(slot):
            results[slot] = [filt.query(e) for e in probes]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 4

    @pytest.mark.parametrize(
        "clone",
        [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize("variant", [STD, CLS])
    def test_pickle_and_copy(self, clone, variant):
        filt = BloomFilter(FilterParams(1000, 5, variant, 2**100 + 1))
        for i in range(40):
            filt.insert(b"p%d" % i)
        reference = deserialize(serialize(filt))
        twin = clone(filt)
        assert twin == filt
        for i in range(40, 80):
            twin.insert(b"p%d" % i)
            reference.insert(b"p%d" % i)
        assert twin == reference
        probes = [b"p%d" % i for i in range(80)] + [b"q%d" % i for i in range(80)]
        assert [twin.query(e) for e in probes] == [
            reference.query(e) for e in probes
        ]
        unknown = clone(filter_intersect(filt, filt))
        assert unknown.count is None


class TestInsertQuery:
    def test_no_false_negatives(self):
        for variant in (STD, CLS):
            filt = BloomFilter(_params(m=128, k=4, variant=variant))
            elements = [b"item-%d" % i for i in range(60)]
            for e in elements:
                filt.insert(e)
            assert all(filt.query(e) for e in elements)

    def test_empty_filter_negative(self):
        filt = BloomFilter(_params())
        assert not filt.query(b"anything")

    def test_bit_sum_per_variant(self):
        classic = BloomFilter(_params(m=8, k=3, variant=CLS))
        classic.insert(b"a")
        assert classic.bit_sum() == 3
        standard = BloomFilter(_params(m=8, k=3, variant=STD))
        standard.insert(b"a")
        assert 1 <= standard.bit_sum() <= 3

    @pytest.mark.parametrize("k", [3, 32])
    @pytest.mark.parametrize("variant", [STD, CLS])
    @pytest.mark.parametrize("fill", ["empty", "half", "ones"])
    def test_query_is_all_positions_set(self, fill, variant, k):
        params = _params(m=1024, k=k, variant=variant, seed=77)
        filt = BloomFilter(params)
        if fill == "half":
            i = 0
            while filt.bit_sum() < params.m // 2:
                filt.insert(b"h%d" % i)
                i += 1
        elif fill == "ones":
            filt.bits[:] = b"\xff" * len(filt.bits)
        verdicts = set()
        for i in range(300):
            e = b"q%d" % (i // 2) if i % 2 else b"h%d" % (i // 2)
            expect = all(
                filt.bits[pos >> 3] >> (pos & 7) & 1
                for pos in index_stream(params, e)
            )
            assert filt.query(e) == expect
            verdicts.add(expect)
        assert verdicts == ({True, False} if fill == "half" else {fill == "ones"})

    def test_count_tracks_inserts(self):
        filt = BloomFilter(_params())
        for i in range(5):
            filt.insert(b"%d" % i)
        assert filt.count == 5


class TestSetAlgebra:
    def test_union_identity_and_count(self):
        a = BloomFilter(_params())
        empty = BloomFilter(_params())
        for e in (b"x", b"y"):
            a.insert(e)
        u = filter_union(a, empty)
        assert u.bits == a.bits and u.count == a.count

    def test_intersect_idempotent(self):
        a = BloomFilter(_params())
        for e in (b"x", b"y", b"z"):
            a.insert(e)
        i = filter_intersect(a, a)
        assert i.bits == a.bits
        assert i.count is None

    def test_union_query_monotone(self):
        a = BloomFilter(_params())
        b = BloomFilter(_params())
        for e in (b"p", b"q"):
            a.insert(e)
        for e in (b"r",):
            b.insert(e)
        u = filter_union(a, b)
        for e in (b"p", b"q", b"r"):
            assert u.query(e)

    def test_union_count_propagates_unknown(self):
        a = BloomFilter(_params())
        unknown = filter_intersect(a, a)
        assert filter_union(a, unknown).count is None

    def test_incompatible_params_rejected(self):
        a = BloomFilter(_params(seed=1))
        b = BloomFilter(_params(seed=2))
        with pytest.raises(IncompatibleFilterError):
            filter_union(a, b)
        with pytest.raises(IncompatibleFilterError):
            filter_intersect(a, BloomFilter(_params(m=32, k=3)))


class TestCardinality:
    def test_empty(self):
        assert estimate_cardinality(BloomFilter(_params())) == 0.0

    def test_saturated(self):
        filt = BloomFilter(FilterParams(m=1, k=1, variant=STD))
        filt.insert(b"x")
        with pytest.raises(SaturationError):
            estimate_cardinality(filt)

    def test_classic_estimate_concentrates(self):
        # mean over many independent filters lands within ~3 combined SE
        m, k, n, reps = 1024, 8, 50, 300
        total = 0.0
        for seed in range(reps):
            filt = BloomFilter(FilterParams(m=m, k=k, variant=CLS, seed=seed))
            for i in range(n):
                filt.insert(b"e%d" % i)
            total += estimate_cardinality(filt)
        assert abs(total / reps - n) < 1.0

    def test_standard_estimate_divides_by_k(self):
        m, k, n = 2048, 4, 100
        filt = BloomFilter(FilterParams(m=m, k=k, variant=STD, seed=11))
        for i in range(n):
            filt.insert(b"s%d" % i)
        assert abs(estimate_cardinality(filt) - n) < 8


class TestSerialization:
    def test_round_trip(self):
        for variant in (STD, CLS):
            filt = BloomFilter(_params(m=77, k=5, variant=variant, seed=2**100 + 17))
            for i in range(9):
                filt.insert(b"r%d" % i)
            again = deserialize(serialize(filt))
            assert again == filt

    def test_round_trip_unknown_count(self):
        a = BloomFilter(_params())
        i = filter_intersect(a, a)
        assert deserialize(serialize(i)).count is None

    def test_golden_empty_filter(self):
        # 44-byte header (magic, version, variant, hash scheme, m, k, count,
        # seed) then one zero byte of bit array for m = 8
        filt = BloomFilter(FilterParams(m=8, k=1, variant=STD, seed=0))
        blob = serialize(filt)
        expect = (
            MAGIC
            + (1).to_bytes(2, "little")
            + bytes([FilterVariant.STANDARD.value])
            + bytes([HASH_SCHEME_VERSION])
            + (8).to_bytes(8, "little")
            + (1).to_bytes(4, "little")
            + (0).to_bytes(8, "little")
            + bytes(16)
            + b"\x00"
        )
        assert blob == expect
        assert len(blob) == 45

    def test_bit_order_lsb_first(self):
        filt = BloomFilter(FilterParams(m=16, k=1, variant=STD, seed=0))
        filt.bits[0] = 0b0000_0001  # bit 0
        filt.bits[1] = 0b1000_0000  # bit 15
        blob = serialize(filt)
        assert blob[-2] == 1 and blob[-1] == 0x80

    def test_truncated_rejected(self):
        blob = serialize(BloomFilter(_params()))
        with pytest.raises(FormatError):
            deserialize(blob[:-1])
        with pytest.raises(FormatError):
            deserialize(blob + b"\x00")
        with pytest.raises(FormatError):
            deserialize(b"shrt")

    def test_bad_magic_and_version(self):
        blob = bytearray(serialize(BloomFilter(_params())))
        bad = bytes(b"XXXX") + bytes(blob[4:])
        with pytest.raises(FormatError) as exc:
            deserialize(bad)
        assert exc.value.offset == 0
        blob2 = bytearray(serialize(BloomFilter(_params())))
        blob2[4] = 99
        with pytest.raises(FormatError) as exc:
            deserialize(bytes(blob2))
        assert exc.value.offset == 4

    def test_padding_bits_rejected(self):
        filt = BloomFilter(FilterParams(m=3, k=1, variant=STD, seed=0))
        blob = bytearray(serialize(filt))
        blob[-1] = 0b1000  # bit 3 is beyond m = 3
        with pytest.raises(FormatError):
            deserialize(bytes(blob))

    def test_injective_on_fields(self):
        base = serialize(BloomFilter(_params()))
        other = serialize(BloomFilter(_params(seed=12346)))
        assert base != other


class TestAlgebraStatistics:
    def test_union_mean_matches_aggregated_law(self):
        # OR of two classic filters behaves as one filter storing n1+n2 items
        from bloomlab.occupancy import committee_mean_variance

        m, k, n1, n2, trials = 32, 3, 4, 6, 1500
        params = _params(m=m, k=k, variant=CLS, seed=21)
        total = 0
        for t in range(trials):
            a = BloomFilter(params)
            b = BloomFilter(params)
            for i in range(n1):
                a.insert(b"a-%d-%d" % (t, i))
            for i in range(n2):
                b.insert(b"b-%d-%d" % (t, i))
            total += filter_union(a, b).bit_sum()
        mean, var = committee_mean_variance(m, n1 + n2, k)
        se = math.sqrt(float(var) / trials)
        assert abs(total / trials - float(mean)) < 4 * se

    def test_intersection_mean_matches_exact_moment(self):
        from bloomlab.analytics import intersection_filter_moments

        m, k, counts, trials = 16, 2, [2, 3], 2000
        params = _params(m=m, k=k, variant=STD, seed=33)
        total = 0
        for t in range(trials):
            filters = []
            for j, n_j in enumerate(counts):
                f = BloomFilter(params)
                for i in range(n_j):
                    f.insert(b"%d-%d-%d" % (j, t, i))
                filters.append(f)
            total += filter_intersect(filters[0], filters[1]).bit_sum()
        mean, var = intersection_filter_moments(m, k, counts)
        se = math.sqrt(float(var) / trials)
        assert abs(total / trials - float(mean)) < 4 * se


class TestHashScheme:
    def test_documented_derivation(self):
        # first chunk: blake2b(counter=0, key=blake2b(elem, key=seed16))
        seed, element, m = 5, b"elem", 11
        p = FilterParams(m=m, k=1, variant=STD, seed=seed)
        root = hashlib.blake2b(
            element, key=seed.to_bytes(16, "little"), digest_size=16
        ).digest()
        chunk = hashlib.blake2b(
            (0).to_bytes(8, "little"), key=root, digest_size=64
        ).digest()
        word = int.from_bytes(chunk[:8], "little")
        limit = ((1 << 64) // m) * m
        assert word < limit  # rejection not triggered for this vector
        assert index_stream(p, element)[0] == word % m
