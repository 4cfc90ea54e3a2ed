"""Reference Bloom filters with deterministic hashing and a fixed wire format.

Two variants share one code path:

* CLASSIC  -- each insert marks exactly k distinct bit positions.
* STANDARD -- each insert marks k independently drawn positions
              (collisions allowed).

Hashing (scheme version 1) is fully deterministic given (seed, element):
a keyed 128-bit blake2b of the element seeds a counter-mode blake2b
expansion into 64-byte chunks, each read as eight little-endian 64-bit
words, and each word is rejection-sampled to an exactly uniform position
in [0, m).  Exact uniformity is what lets the Monte Carlo harness compare
against the exact occupancy law.

Each filter forms its hashing state once, when it is built
(`_hash_state`): the blake2b keyed with the seed, m, k and the rejection
limit.  One lazy stream (`_positions`) produces an element's k positions
from that state, copying the keyed hasher per element and the root-keyed
chunk hasher per chunk, and hashing one chunk at a time.  Nothing in the
state is updated in place, so concurrent queries on one filter only copy
it.  `BloomFilter.insert` and `BloomFilter.query` read the filter's state;
`index_stream` forms one per call.  `query` stops at the first unset bit,
so probing an absent element in a filter that is not nearly full usually
hashes one chunk, whatever k is.

Wire format (little-endian), header 44 bytes then the bit array:

    magic "OBF1" | format version u16 | variant u8 (0=classic, 1=standard)
    | hash-scheme version u8 | m u64 | k u32 | count u64 | seed 16 bytes
    | ceil(m/8) bytes, bit i at byte i//8, bit i%8, LSB first

count is the number of inserted items; the sentinel 0xFFFFFFFFFFFFFFFF
marks "unknown" (intersections do not have a derivable item count).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum

from .estimators import SaturationError, estimate_n

__all__ = [
    "FilterVariant",
    "FilterParams",
    "BloomFilter",
    "FormatError",
    "IncompatibleFilterError",
    "index_stream",
    "filter_union",
    "filter_intersect",
    "estimate_cardinality",
    "serialize",
    "deserialize",
    "MAGIC",
    "FORMAT_VERSION",
    "HASH_SCHEME_VERSION",
]

MAGIC = b"OBF1"
FORMAT_VERSION = 1
HASH_SCHEME_VERSION = 1
_HEADER = struct.Struct("<4sHBBQIQ16s")
_COUNT_UNKNOWN = 0xFFFFFFFFFFFFFFFF
_unpack_words = struct.Struct("<8Q").unpack  # one hash chunk -> 8 words


class FormatError(ValueError):
    """Malformed serialized filter; offset points at the offending field."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class IncompatibleFilterError(ValueError):
    """Set algebra requires identical (m, k, variant, seed)."""


class FilterVariant(Enum):
    CLASSIC = 0
    STANDARD = 1


@dataclass(frozen=True)
class FilterParams:
    """Filter geometry plus the 128-bit hashing seed."""

    m: int
    k: int
    variant: FilterVariant
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("filter length m must be >= 1")
        if not 1 <= self.k <= self.m:
            raise ValueError("hash bits k must satisfy 1 <= k <= m")
        if self.m >= 1 << 64 or self.k >= 1 << 32:
            raise ValueError("m must fit in u64 and k in u32 (the header's fields)")
        if not 0 <= self.seed < 1 << 128:
            raise ValueError("seed must fit in 128 bits")


def _hash_state(params: FilterParams) -> tuple:
    """What hashing needs of params, formed once: the blake2b keyed with the
    seed, m, k, the rejection limit floor(2^64 / m) * m, and whether
    positions must be distinct (CLASSIC)."""
    m = params.m
    return (
        hashlib.blake2b(key=params.seed.to_bytes(16, "little"), digest_size=16),
        m,
        params.k,
        ((1 << 64) // m) * m,
        params.variant is FilterVariant.CLASSIC,
    )


def _positions(state: tuple, element: bytes):
    """Lazy stream of the k bit positions an element maps to (k distinct
    for CLASSIC), computed one 64-byte chunk at a time from a `_hash_state`.

    The seed-keyed hasher is copied for each element and the root-keyed
    chunk hasher for each chunk; neither is updated in place, so one state
    serves any number of concurrent streams.  Words >= the limit are
    rejected before the modulo, so every position is exactly uniform on
    [0, m).
    """
    keyed, m, left, limit, classic = state
    seen: set[int] | None = set() if classic else None
    root = keyed.copy()
    root.update(element)
    chunks = hashlib.blake2b(key=root.digest(), digest_size=64)
    counter = 0
    while True:
        chunk = chunks.copy()
        chunk.update(counter.to_bytes(8, "little"))
        for word in _unpack_words(chunk.digest()):
            if word >= limit:
                continue
            pos = word % m
            if seen is not None:
                if pos in seen:
                    continue
                seen.add(pos)
            yield pos
            left -= 1
            if not left:
                return
        counter += 1


def index_stream(params: FilterParams, element: bytes) -> list[int]:
    """The k bit positions an element maps to (k distinct for CLASSIC), in
    the order `insert` sets them and `query` tests them."""
    return list(_positions(_hash_state(params), element))


class BloomFilter:
    """An m-bit filter, its insertion count, and single-writer mutation ops.

    The hashing state (`_hash_state`) is formed once, when the filter is
    built, from params, which must not be reassigned after.  Queries may
    run concurrently, since each only copies the shared keyed hasher;
    insertion requires exclusive access.  Pickling and copying rebuild the
    state from (params, bits, count).
    """

    __slots__ = ("params", "bits", "count", "_hash")

    def __init__(
        self, params: FilterParams, bits: bytearray | None = None,
        count: int | None = 0,
    ) -> None:
        nbytes = (params.m + 7) // 8
        if bits is None:
            bits = bytearray(nbytes)
        elif len(bits) != nbytes:
            raise ValueError("bit array length does not match m")
        self.params = params
        self.bits = bits
        self.count = count  # None = unknown (result of an intersection)
        self._hash = _hash_state(params)

    def __reduce__(self):
        # the hashlib object in _hash cannot be pickled; __init__ rebuilds it
        return type(self), (self.params, self.bits, self.count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.params == other.params
            and self.bits == other.bits
            and self.count == other.count
        )

    def insert(self, element: bytes) -> None:
        bits = self.bits
        for pos in _positions(self._hash, element):
            bits[pos >> 3] |= 1 << (pos & 7)
        if self.count is not None:
            self.count += 1

    def query(self, element: bytes) -> bool:
        """True when all k positions are set; hashing stops at the first
        unset one."""
        bits = self.bits
        for pos in _positions(self._hash, element):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def bit_sum(self) -> int:
        return int.from_bytes(self.bits, "little").bit_count()

    def fill_ratio(self) -> float:
        return self.bit_sum() / self.params.m


def _require_same_params(a: BloomFilter, b: BloomFilter) -> None:
    if a.params != b.params:
        raise IncompatibleFilterError(
            f"filters differ: {a.params} vs {b.params}"
        )


def filter_union(a: BloomFilter, b: BloomFilter) -> BloomFilter:
    """Bitwise OR; represents the union of the encoded sets."""
    _require_same_params(a, b)
    bits = int.from_bytes(a.bits, "little") | int.from_bytes(b.bits, "little")
    count = None if a.count is None or b.count is None else a.count + b.count
    return BloomFilter(a.params, bytearray(bits.to_bytes(len(a.bits), "little")), count)


def filter_intersect(a: BloomFilter, b: BloomFilter) -> BloomFilter:
    """Bitwise AND.  The item count of an intersection is not derivable
    from the operand counts, so the result carries count = unknown."""
    _require_same_params(a, b)
    bits = int.from_bytes(a.bits, "little") & int.from_bytes(b.bits, "little")
    return BloomFilter(a.params, bytearray(bits.to_bytes(len(a.bits), "little")), None)


def estimate_cardinality(filt: BloomFilter) -> float:
    """Estimated number of stored items, from the bit sum alone.

    A standard filter's bit sum follows the classic occupancy law with n*k
    balls, so its raw estimate counts hash applications and is divided by k.
    """
    bs = filt.bit_sum()
    m, k = filt.params.m, filt.params.k
    if bs >= m:
        raise SaturationError("filter is saturated; cardinality unbounded")
    if filt.params.variant is FilterVariant.CLASSIC:
        return estimate_n(m, k, bs)
    return estimate_n(m, 1, bs) / k


def serialize(filt: BloomFilter) -> bytes:
    """Encode to the fixed wire format documented in the module docstring."""
    count = _COUNT_UNKNOWN if filt.count is None else filt.count
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        filt.params.variant.value,
        HASH_SCHEME_VERSION,
        filt.params.m,
        filt.params.k,
        count,
        filt.params.seed.to_bytes(16, "little"),
    )
    return header + bytes(filt.bits)


def deserialize(data: bytes) -> BloomFilter:
    """Decode a serialized filter, validating every header field."""
    if len(data) < _HEADER.size:
        raise FormatError("truncated header", len(data))
    magic, version, variant_code, hash_version, m, k, count, seed_raw = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", 0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", 4)
    if variant_code not in (0, 1):
        raise FormatError(f"unknown variant code {variant_code}", 6)
    if hash_version != HASH_SCHEME_VERSION:
        raise FormatError(f"unsupported hash scheme {hash_version}", 7)
    expected = _HEADER.size + (m + 7) // 8
    if len(data) != expected:
        raise FormatError(
            f"payload length {len(data)} != expected {expected}", _HEADER.size
        )
    try:
        params = FilterParams(
            m, k, FilterVariant(variant_code), int.from_bytes(seed_raw, "little")
        )
    except ValueError as exc:
        raise FormatError(str(exc), 8) from None
    surplus = data[_HEADER.size + (m // 8)] if m % 8 else None
    if surplus is not None and surplus >> (m % 8):
        raise FormatError("padding bits beyond m are set", _HEADER.size + m // 8)
    return BloomFilter(
        params,
        bytearray(data[_HEADER.size :]),
        None if count == _COUNT_UNKNOWN else count,
    )
