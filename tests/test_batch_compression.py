"""Batch-kernel equivalence: vectorized sizes must match the scalar path.

The scalar ``compressed_size`` is the specification; every algorithm's
``batch_sizes`` kernel is checked against it line for line over random,
patterned and adversarial corpora (DESIGN.md §9).  This is the contract
that lets the batch-driven simulator stay bitwise-identical to the scalar
reference while skipping per-access recompression.
"""

import random
import struct

import numpy as np
import pytest

from repro.compression import (
    BDI,
    CPack,
    FPC,
    FVC,
    BatchCompressor,
    HybridCompressor,
    ZeroLine,
    array_to_lines,
    lines_to_array,
)
from repro.compression.base import LINE_SIZE, CompressionAlgorithm
from repro.compression.batch import check_batch, finalize_sizes
from tests.lineutils import (
    line_of_words,
    pointer_line,
    quad_friendly_line,
    random_line,
    small_int_line,
    zero_line,
)


def _pattern_corpus():
    """Structured lines exercising every scalar fast path."""
    lines = [
        zero_line(),
        b"\xff" * LINE_SIZE,
        small_int_line(),
        small_int_line(start=-8, step=3),
        quad_friendly_line(),
        quad_friendly_line(variant=5),
        pointer_line(),
        pointer_line(base=0x10_0000, stride=8),
        line_of_words(0xDEADBEEF),  # one word repeated
        line_of_words(0x41, 0x42, 0x43, 0x44),  # low-byte words (zzzx)
        line_of_words(0xCAFE0001, 0xCAFE0002, 0xCAFE0003),  # C-Pack mm-match
        line_of_words(0x0000_FFFF),  # FVC dictionary value
        line_of_words(0x8000_0000),  # sign-boundary word
    ]
    # narrow-delta families around every BDI (base, delta) width
    for base_bytes, delta in ((2, 100), (4, 100), (4, 30_000), (8, 100)):
        count = LINE_SIZE // base_bytes
        anchor = (1 << (base_bytes * 8 - 2)) + 12345
        lines.append(
            b"".join(
                ((anchor + i * delta) % (1 << (base_bytes * 8))).to_bytes(
                    base_bytes, "little"
                )
                for i in range(count)
            )
        )
    return lines


def _adversarial_corpus():
    """Boundary hunters: values at exactly the encodable/oversize edges."""
    lines = []
    # BDI delta exactly at +/- the representable limit for each width
    for base_bytes, delta_bytes in ((2, 1), (4, 1), (4, 2), (8, 1), (8, 2), (8, 4)):
        high = 1 << (delta_bytes * 8 - 1)
        modulus = 1 << (base_bytes * 8)
        count = LINE_SIZE // base_bytes
        anchor = modulus // 2
        for offset in (high - 1, high, high + 1):
            values = [anchor] * (count - 1) + [(anchor + offset) % modulus]
            lines.append(
                b"".join(v.to_bytes(base_bytes, "little") for v in values)
            )
            values = [anchor] * (count - 1) + [(anchor - offset) % modulus]
            lines.append(
                b"".join(v.to_bytes(base_bytes, "little") for v in values)
            )
    # FPC zero runs at the run-length cap (8) and around it
    for run in (7, 8, 9, 15, 16):
        words = [0] * run + [0x0BAD_CAFE] * (16 - run)
        lines.append(b"".join(struct.pack("<I", w) for w in words))
    # elements straddling uint64 wraparound (base near 2^64)
    top = (1 << 64) - 5
    lines.append(
        b"".join(((top + i) % (1 << 64)).to_bytes(8, "little") for i in range(8))
    )
    # near-incompressible: random with a single zero word
    rng = random.Random(99)
    noisy = bytearray(random_line(rng))
    noisy[0:4] = b"\x00\x00\x00\x00"
    lines.append(bytes(noisy))
    return lines


def _random_corpus(seed, count=200):
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            lines.append(random_line(rng))
        elif kind == 1:  # sparse: mostly zeros, a few random words
            words = [0] * 16
            for _ in range(rng.randrange(1, 6)):
                words[rng.randrange(16)] = rng.getrandbits(32)
            lines.append(b"".join(struct.pack("<I", w) for w in words))
        elif kind == 2:  # clustered values (dictionary friendly)
            pool = [rng.getrandbits(32) for _ in range(rng.randrange(1, 5))]
            lines.append(
                b"".join(struct.pack("<I", rng.choice(pool)) for _ in range(16))
            )
        else:  # narrow numeric ramps
            width = rng.choice((2, 4, 8))
            base = rng.getrandbits(width * 8)
            modulus = 1 << (width * 8)
            lines.append(
                b"".join(
                    ((base + rng.randrange(-300, 300)) % modulus).to_bytes(
                        width, "little"
                    )
                    for _ in range(LINE_SIZE // width)
                )
            )
    return lines


CORPUS = _pattern_corpus() + _adversarial_corpus() + _random_corpus(1) + _random_corpus(2)

ALGORITHMS = [
    FPC(),
    BDI(),
    CPack(),
    FVC(),
    ZeroLine(),
    HybridCompressor(),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
def test_batch_sizes_match_scalar(algorithm):
    array = lines_to_array(CORPUS)
    batch = algorithm.batch_sizes(array)
    if isinstance(algorithm, HybridCompressor):
        algorithm.clear_cache()  # no batch-seeded size may answer for the scalar path
    scalar = [algorithm.compressed_size(line) for line in CORPUS]
    mismatches = [
        (i, CORPUS[i].hex(), int(batch[i]), scalar[i])
        for i in range(len(CORPUS))
        if int(batch[i]) != scalar[i]
    ]
    assert not mismatches, mismatches[:5]


def test_bdi_classify_tags_match_scalar_payloads():
    bdi = BDI()
    sizes, tags = bdi.batch_classify(lines_to_array(CORPUS))
    for i, line in enumerate(CORPUS):
        payload = bdi.compress(line)
        if payload is None:
            assert tags[i] == 255 and sizes[i] == LINE_SIZE
        else:
            assert tags[i] == payload[0]
            assert sizes[i] == len(payload)


def test_scalar_fallback_matches_scalar():
    """An algorithm without a kernel gets the scalar-loop default."""

    class NoKernel(CompressionAlgorithm):
        name = "nokernel"

        def compress(self, line):
            self.check_line(line)
            return b"\x01\x02" if line[0] == 0 else None

        def decompress(self, payload):
            raise NotImplementedError

    algorithm = NoKernel()
    sizes = algorithm.batch_sizes(lines_to_array(CORPUS))
    assert list(sizes) == [algorithm.compressed_size(line) for line in CORPUS]


class TestBatchCompressor:
    def test_sizes_accepts_bytes_and_arrays(self):
        front = BatchCompressor(FPC())
        as_bytes = front.sizes(CORPUS[:10])
        as_array = front.sizes(lines_to_array(CORPUS[:10]))
        assert list(as_bytes) == list(as_array)

    def test_precompute_seeds_hybrid_memo(self):
        hybrid = HybridCompressor()
        hybrid.clear_cache()
        front = BatchCompressor(hybrid)
        front.precompute(CORPUS[:20])
        for line in CORPUS[:20]:
            cached = hybrid.cached_size(line)
            assert cached is not None
            # precompute seeds sizes only; the payload memo is still
            # empty, so this compresses the line for real
            assert cached == hybrid.compress_and_size(line)[1]
        hybrid.clear_cache()

    def test_precompute_skips_known_lines(self):
        hybrid = HybridCompressor()
        hybrid.clear_cache()
        front = BatchCompressor(hybrid)
        first = front.precompute([zero_line(), small_int_line()])
        assert first is not None and len(first) == 2
        assert front.precompute([zero_line(), small_int_line()]) is None
        hybrid.clear_cache()

    def test_precompute_empty(self):
        assert BatchCompressor(FPC()).precompute([]) is None


class TestBatchHelpers:
    def test_lines_array_round_trip(self):
        assert array_to_lines(lines_to_array(CORPUS[:7])) == CORPUS[:7]

    def test_lines_to_array_rejects_short_lines(self):
        with pytest.raises(ValueError):
            lines_to_array([b"\x00" * 63])

    def test_check_batch_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            check_batch(np.zeros((4, 32), dtype=np.uint8))

    def test_finalize_sizes_caps_at_line_size(self):
        bits = np.array([0, 1, 8, 511, 512, 4096])
        assert list(finalize_sizes(bits)) == [0, 1, 1, 64, 64, 64]
