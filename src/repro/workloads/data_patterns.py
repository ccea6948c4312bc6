"""Deterministic cache-line data generation with controlled compressibility.

The paper's workloads are real SPEC/GAP program slices; we replace them
with synthetic traces (DESIGN.md §4), which means *we* must supply the
byte values each line holds.  Compressibility is controlled through a
small set of pattern families chosen per page — matching the paper's
observation (and the LLP's premise) that lines within a page tend to
have similar compressibility:

=============  =================================  ========================
family         contents                           co-compressibility
=============  =================================  ========================
``ZERO``       all zeros                          4:1 (quad fits easily)
``SMALL_INT``  mostly-zero tiny 32-bit ints       4:1 (FPC ~10B/line)
``POINTER``    8-byte base + small deltas         2:1 (BDI ~20-27B/line)
``MEDIUM``     16-bit-range 32-bit ints           line-compressible but a
                                                  pair exceeds one slot
``BOUNDARY``   mixed 8/16-bit-range ints          a pair fits 64B but not
                                                  60B (marker reserve)
``RANDOM``     keyed-hash noise                   incompressible
=============  =================================  ========================

Generation is a pure function of (address, version, seed) so the
simulator can regenerate identical bytes anywhere and memoized
compression stays valid.  :func:`render_pattern` and
:meth:`DataGenerator.line` are the specification;
:meth:`DataGenerator.render_many` renders many lines in one numpy pass
and must match them byte for byte (DESIGN.md §9).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

from repro.compression.base import LINE_SIZE
from repro.util.hashing import KeyedHash, mix64, mix64_array

LINES_PER_PAGE = 64

_MASK64 = (1 << 64) - 1


class PatternKind(Enum):
    ZERO = "zero"
    SMALL_INT = "small_int"
    POINTER = "pointer"
    MEDIUM = "medium"
    BOUNDARY = "boundary"
    RANDOM = "random"


#: a small-integer code per kind, for the vectorized renderer
_CODE = {kind: code for code, kind in enumerate(PatternKind)}


def _unit_draws(hashes):
    """``(h % 2**30) / 2**30`` per element, as the scalar draws compute it."""
    import numpy as np

    return (hashes & np.uint64((1 << 30) - 1)).astype(np.float64) / float(1 << 30)


@dataclass(frozen=True)
class DataProfile:
    """Distribution over pattern families, assigned page by page.

    ``noise`` is the per-line probability of deviating to RANDOM within an
    otherwise homogeneous page — it creates the occasional incompressible
    line that breaks a group apart (and exercises LLP mispredictions).
    """

    weights: Dict[PatternKind, float]
    noise: float = 0.001

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError("profile weights must sum to a positive value")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be a probability")

    def kind_for_page(self, page: int, seed: int) -> PatternKind:
        """Deterministically pick the page's family by weight."""
        total = sum(self.weights.values())
        draw = (mix64(page ^ seed ^ 0xA5A5) % (1 << 30)) / (1 << 30) * total
        acc = 0.0
        for kind, weight in self.weights.items():
            acc += weight
            if draw < acc:
                return kind
        return PatternKind.RANDOM

    def kind_for_line(self, vline: int, seed: int) -> PatternKind:
        """Page family, with per-line noise deviation."""
        page = vline // LINES_PER_PAGE
        kind = self.kind_for_page(page, seed)
        if self.noise > 0.0:
            draw = (mix64(vline ^ seed ^ 0x0F0F) % (1 << 30)) / (1 << 30)
            if draw < self.noise:
                return PatternKind.RANDOM
        return kind

    def kind_codes(self, vlines, seed: int):
        """:meth:`kind_for_line` codes over a ``uint64`` array of lines.

        ``seed`` must already be masked to 64 bits (XOR commutes with
        the mask :func:`mix64` applies to its input).
        """
        import numpy as np

        seed64 = np.uint64(seed)
        pages = vlines // np.uint64(LINES_PER_PAGE)
        total = sum(self.weights.values())
        draws = _unit_draws(mix64_array(pages ^ seed64 ^ np.uint64(0xA5A5))) * total
        codes = np.full(vlines.shape, _CODE[PatternKind.RANDOM], dtype=np.int8)
        open_ = np.ones(vlines.shape, dtype=bool)
        acc = 0.0
        for kind, weight in self.weights.items():
            acc += weight
            hit = open_ & (draws < acc)
            codes[hit] = _CODE[kind]
            open_ &= ~hit
        if self.noise > 0.0:
            noisy = _unit_draws(mix64_array(vlines ^ seed64 ^ np.uint64(0x0F0F))) < self.noise
            codes[noisy] = _CODE[PatternKind.RANDOM]
        return codes


# Canonical profiles used by the synthetic suites --------------------------

SPEC_LIKE = DataProfile(
    {
        PatternKind.ZERO: 0.20,
        PatternKind.SMALL_INT: 0.35,
        PatternKind.POINTER: 0.22,
        PatternKind.BOUNDARY: 0.08,
        PatternKind.MEDIUM: 0.07,
        PatternKind.RANDOM: 0.08,
    }
)

GRAPH_LIKE = DataProfile(
    {
        PatternKind.ZERO: 0.10,
        PatternKind.SMALL_INT: 0.15,
        PatternKind.POINTER: 0.25,
        PatternKind.BOUNDARY: 0.05,
        PatternKind.MEDIUM: 0.15,
        PatternKind.RANDOM: 0.30,
    },
    noise=0.02,
)

INCOMPRESSIBLE = DataProfile({PatternKind.RANDOM: 1.0}, noise=0.0)
ALL_ZERO = DataProfile({PatternKind.ZERO: 1.0}, noise=0.0)


class DataGenerator:
    """Pure-function line contents: ``data(vline, version)``.

    ``version`` counts stores to the line; bumping it changes the values
    while (usually) staying in the family.  ``write_scramble`` is the
    probability a store degrades the line to RANDOM — graph workloads
    update lines with poorly compressible values more often.
    """

    def __init__(self, profile: DataProfile, seed: int, write_scramble: float = 0.0) -> None:
        self.profile = profile
        self.seed = seed
        self.write_scramble = write_scramble
        self._hash = KeyedHash(seed ^ 0xDA7A)
        self._memo: Dict[Tuple[int, int], bytes] = {}

    def kind(self, vline: int, version: int = 0) -> PatternKind:
        base_kind = self.profile.kind_for_line(vline, self.seed)
        if version > 0 and self.write_scramble > 0.0:
            draw = (mix64(vline ^ (version << 32) ^ self.seed) % (1 << 30)) / (1 << 30)
            if draw < self.write_scramble:
                return PatternKind.RANDOM
        return base_kind

    def line(self, vline: int, version: int = 0) -> bytes:
        """The 64 bytes this line holds at this version (memoized)."""
        key = (vline, version)
        data = self._memo.get(key)
        if data is None:
            kind = self.kind(vline, version)
            nonce = mix64(vline ^ (version << 20) ^ self.seed)
            data = render_pattern(kind, nonce, self._hash)
            self._memo[key] = data
        return data

    def render_many(self, keys: Iterable[Tuple[int, int]]) -> None:
        """Render every ``(vline, version)`` key into the :meth:`line` memo.

        One numpy pass over all keys not yet memoized: the page-kind,
        noise and write-scramble draws and every :func:`render_pattern`
        family run as wrapping ``uint64`` arithmetic, so each memoized
        line equals what :meth:`line` would have produced, byte for byte.
        Keys outside the ``uint64`` range, where that arithmetic would
        not match Python's, take the scalar :meth:`line` instead.
        """
        import numpy as np

        memo = self._memo
        todo: List[Tuple[int, int]] = []
        for key in dict.fromkeys(keys):
            if key in memo:
                continue
            if 0 <= key[0] <= _MASK64 and 0 <= key[1] <= _MASK64:
                todo.append(key)
            else:
                self.line(*key)
        if not todo:
            return
        vlines = np.array([key[0] for key in todo], dtype=np.uint64)
        versions = np.array([key[1] for key in todo], dtype=np.uint64)
        seed = self.seed & _MASK64
        codes = self.profile.kind_codes(vlines, seed)
        seed = np.uint64(seed)
        if self.write_scramble > 0.0:
            draws = _unit_draws(mix64_array(vlines ^ (versions << np.uint64(32)) ^ seed))
            codes[(versions > 0) & (draws < self.write_scramble)] = _CODE[PatternKind.RANDOM]
        nonces = mix64_array(vlines ^ (versions << np.uint64(20)) ^ seed)
        blob = render_patterns(codes, nonces, self._hash).tobytes()
        for i, key in enumerate(todo):
            memo[key] = blob[i * LINE_SIZE : (i + 1) * LINE_SIZE]


def render_pattern(kind: PatternKind, nonce: int, keyed: KeyedHash) -> bytes:
    """Materialise 64 bytes of the given family from a nonce."""
    if kind is PatternKind.ZERO:
        return b"\x00" * LINE_SIZE
    if kind is PatternKind.SMALL_INT:
        # sparse-array shape: a zero run followed by a few tiny values, so
        # the FPC size is stable across versions (a quad always fits)
        words = [0] * 12
        state = nonce
        for _ in range(4):
            state = mix64(state)
            words.append((state >> 8) % 15 - 7)  # in [-7, 7]
        return struct.pack("<16i", *words)
    if kind is PatternKind.POINTER:
        base = 0x7F0000000000 | ((nonce & 0xFFFF) << 20)
        values = []
        state = nonce
        for _ in range(8):
            state = mix64(state)
            values.append(base + (state % 120))  # deltas fit one byte
        return struct.pack("<8Q", *values)
    if kind is PatternKind.BOUNDARY:
        # 8 one-byte-range + 8 two-byte-range words: FPC encodes this in
        # exactly 240 bits (31B with the tag), so a *pair* sums to 62B —
        # it fits a bare 64-byte slot but not one with a 4-byte marker
        # reserved.  This family realises the paper's Fig. 6 gap between
        # "double 64" and "double 60".
        words = []
        state = nonce
        for i in range(16):
            state = mix64(state)
            if i % 2 == 0:
                magnitude = 9 + state % 90  # always the 8-bit FPC class
            else:
                magnitude = 300 + state % 29000  # always the 16-bit class
            words.append(magnitude if state & (1 << 40) else -magnitude)
        return struct.pack("<16i", *words)
    if kind is PatternKind.MEDIUM:
        words = []
        state = nonce
        for _ in range(16):
            state = mix64(state)
            words.append((state >> 4) % 60000 - 30000)  # 16-bit range
        return struct.pack("<16i", *words)
    # RANDOM: keyed noise, astronomically unlikely to hit any pattern
    base = keyed.hash64(nonce, tweak=0xBAD)
    return b"".join(mix64(base + i).to_bytes(8, "little") for i in range(8))


def _mix_steps(states, steps: int):
    """The successive ``mix64`` states ``render_pattern`` draws words from."""
    import numpy as np

    out = np.empty((states.shape[0], steps), dtype=np.uint64)
    for i in range(steps):
        states = mix64_array(states)
        out[:, i] = states
    return out


def render_patterns(codes, nonces, keyed: KeyedHash):
    """:func:`render_pattern` over arrays: an ``(n, 64)`` uint8 array.

    ``codes`` holds each row's :class:`PatternKind` code and ``nonces``
    its ``uint64`` nonce; every family is computed for its own rows only.
    """
    import numpy as np

    u64 = np.uint64
    out = np.zeros((codes.shape[0], LINE_SIZE), dtype=np.uint8)

    def rows(kind: PatternKind):
        return np.flatnonzero(codes == _CODE[kind])

    idx = rows(PatternKind.SMALL_INT)
    if idx.size:
        words = np.zeros((idx.size, 16), dtype="<i4")
        words[:, 12:] = ((_mix_steps(nonces[idx], 4) >> u64(8)) % u64(15)).astype(np.int64) - 7
        out[idx] = words.view(np.uint8)
    idx = rows(PatternKind.POINTER)
    if idx.size:
        nonce = nonces[idx]
        base = u64(0x7F0000000000) | ((nonce & u64(0xFFFF)) << u64(20))
        values = base[:, None] + _mix_steps(nonce, 8) % u64(120)
        out[idx] = values.astype("<u8").view(np.uint8)
    idx = rows(PatternKind.BOUNDARY)
    if idx.size:
        states = _mix_steps(nonces[idx], 16)
        magnitude = np.empty(states.shape, dtype=np.int64)
        magnitude[:, 0::2] = 9 + (states[:, 0::2] % u64(90)).astype(np.int64)
        magnitude[:, 1::2] = 300 + (states[:, 1::2] % u64(29000)).astype(np.int64)
        positive = (states & u64(1 << 40)) != 0
        out[idx] = np.where(positive, magnitude, -magnitude).astype("<i4").view(np.uint8)
    idx = rows(PatternKind.MEDIUM)
    if idx.size:
        words = ((_mix_steps(nonces[idx], 16) >> u64(4)) % u64(60000)).astype(np.int64) - 30000
        out[idx] = words.astype("<i4").view(np.uint8)
    idx = rows(PatternKind.RANDOM)
    if idx.size:
        base = keyed.hash64_array(nonces[idx], tweak=0xBAD)
        values = mix64_array(base[:, None] + np.arange(8, dtype=np.uint64))
        out[idx] = values.astype("<u8").view(np.uint8)
    return out
