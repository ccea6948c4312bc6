#!/usr/bin/env python
"""Micro-benchmark: scalar vs vectorized kernel throughput.

Times every compression algorithm's scalar ``compressed_size`` reference
against its vectorized ``batch_sizes`` kernel over one pinned corpus, and
the scalar line renderer ``DataGenerator.line`` against
``DataGenerator.render_many`` over one pinned key set (the
``line_render`` row), and writes the result as ``BENCH_vectorize.json``
(see README "Benchmarks").
The corpus and measurement protocol are fixed so runs are comparable:

- corpus: 4096 lines, deterministic families (zero, sparse, clustered,
  narrow ramps of every BDI width, random) from a pinned seed;
- batch side: best of ``--repeats`` full-corpus kernel passes;
- scalar side: best of ``--repeats`` passes over a pinned subsample
  (the scalar path's lines/sec does not depend on corpus size), with
  the hybrid's memo cleared before each pass so repetition cannot fake
  throughput;
- line rendering: ``CORPUS_LINES`` distinct ``(vline, version)`` keys of
  a graph-like data generator from the pinned seed, the scalar side over
  the first ``SCALAR_SAMPLE`` of them, with the generator's memo cleared
  before every pass of either side.

``--check BASELINE`` turns the run into a regression gate: it fails if
any algorithm's batch-over-scalar speedup drops more than 20% below the
committed baseline's, or if the geometric-mean speedup falls under 5x.
Speedups — not absolute lines/sec — are compared, so the gate is stable
across machines of different speeds.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import struct
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.compression import (  # noqa: E402
    BDI,
    CPack,
    FPC,
    FVC,
    HybridCompressor,
    ZeroLine,
    lines_to_array,
)
from repro.compression.base import LINE_SIZE  # noqa: E402
from repro.workloads.data_patterns import GRAPH_LIKE, DataGenerator  # noqa: E402

SCHEMA = 1
CORPUS_SEED = 20260807
CORPUS_LINES = 4096
SCALAR_SAMPLE = 512
MIN_GEOMEAN_SPEEDUP = 5.0
REGRESSION_TOLERANCE = 0.20


def build_corpus(seed: int = CORPUS_SEED, count: int = CORPUS_LINES) -> list:
    """The pinned line population (mirrors what simulations compress)."""
    rng = random.Random(seed)
    lines = []
    while len(lines) < count:
        kind = rng.randrange(6)
        if kind == 0:  # all zeros (freshly allocated pages)
            lines.append(b"\x00" * LINE_SIZE)
        elif kind == 1:  # sparse: a few random words in a zero line
            words = [0] * 16
            for _ in range(rng.randrange(1, 6)):
                words[rng.randrange(16)] = rng.getrandbits(32)
            lines.append(b"".join(struct.pack("<I", w) for w in words))
        elif kind == 2:  # clustered values (dictionary friendly)
            pool = [rng.getrandbits(32) for _ in range(rng.randrange(1, 5))]
            lines.append(
                b"".join(struct.pack("<I", rng.choice(pool)) for _ in range(16))
            )
        elif kind == 3:  # narrow numeric ramps at every BDI width
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
        elif kind == 4:  # pointer-like 8-byte strides
            base = rng.getrandbits(48)
            lines.append(
                b"".join(
                    struct.pack("<Q", base + i * 64) for i in range(LINE_SIZE // 8)
                )
            )
        else:  # incompressible noise
            lines.append(bytes(rng.getrandbits(8) for _ in range(LINE_SIZE)))
    return lines


def algorithms():
    return [
        FPC(),
        BDI(),
        CPack(),
        FVC(),
        ZeroLine(),
        HybridCompressor(),
    ]


def _best_time(fn, repeats: int, setup=None) -> float:
    best = math.inf
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_algorithm(algorithm, lines, array, repeats: int) -> dict:
    sample = lines[:SCALAR_SAMPLE]

    def scalar_pass():
        for line in sample:
            algorithm.compressed_size(line)

    clear_memo = getattr(algorithm, "clear_cache", None)
    scalar_seconds = _best_time(scalar_pass, repeats, setup=clear_memo)
    batch_seconds = _best_time(lambda: algorithm.batch_sizes(array), repeats)
    scalar_lps = len(sample) / scalar_seconds
    batch_lps = len(lines) / batch_seconds
    return {
        "scalar_lines_per_sec": round(scalar_lps),
        "batch_lines_per_sec": round(batch_lps),
        "speedup": round(batch_lps / scalar_lps, 2),
    }


def bench_line_render(repeats: int) -> dict:
    """Scalar ``DataGenerator.line`` vs ``render_many`` on pinned keys."""
    rng = random.Random(CORPUS_SEED)
    keys = list(
        dict.fromkeys((rng.randrange(1 << 20), rng.randrange(4)) for _ in range(CORPUS_LINES))
    )
    generator = DataGenerator(GRAPH_LIKE, seed=CORPUS_SEED, write_scramble=0.35)
    sample = keys[:SCALAR_SAMPLE]

    def scalar_pass():
        for vline, version in sample:
            generator.line(vline, version)

    clear_memo = generator._memo.clear
    scalar_seconds = _best_time(scalar_pass, repeats, setup=clear_memo)
    batch_seconds = _best_time(lambda: generator.render_many(keys), repeats, setup=clear_memo)
    scalar_lps = len(sample) / scalar_seconds
    batch_lps = len(keys) / batch_seconds
    return {
        "scalar_lines_per_sec": round(scalar_lps),
        "batch_lines_per_sec": round(batch_lps),
        "speedup": round(batch_lps / scalar_lps, 2),
    }


def run(repeats: int) -> dict:
    lines = build_corpus()
    array = lines_to_array(lines)
    per_algorithm = {}
    for algorithm in algorithms():
        per_algorithm[algorithm.name] = bench_algorithm(
            algorithm, lines, array, repeats
        )
    per_algorithm["line_render"] = bench_line_render(repeats)
    for name, row in per_algorithm.items():
        print(
            f"{name:>11}: scalar {row['scalar_lines_per_sec']:>9,} lps  "
            f"batch {row['batch_lines_per_sec']:>11,} lps  "
            f"speedup {row['speedup']:>6.2f}x"
        )
    speedups = [row["speedup"] for row in per_algorithm.values()]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    print(f"geomean speedup: {geomean:.2f}x")
    return {
        "schema": SCHEMA,
        "corpus_seed": CORPUS_SEED,
        "corpus_lines": CORPUS_LINES,
        "scalar_sample": SCALAR_SAMPLE,
        "repeats": repeats,
        "algorithms": per_algorithm,
        "geomean_speedup": round(geomean, 2),
    }


def check(report: dict, baseline_path: pathlib.Path) -> int:
    """Regression gate against a committed baseline. Returns exit status."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    if report["geomean_speedup"] < MIN_GEOMEAN_SPEEDUP:
        failures.append(
            f"geomean speedup {report['geomean_speedup']:.2f}x is below the "
            f"{MIN_GEOMEAN_SPEEDUP:.0f}x floor"
        )
    for name, base_row in baseline["algorithms"].items():
        row = report["algorithms"].get(name)
        if row is None:
            failures.append(f"algorithm {name!r} missing from this run")
            continue
        floor = base_row["speedup"] * (1.0 - REGRESSION_TOLERANCE)
        if row["speedup"] < floor:
            failures.append(
                f"{name}: speedup {row['speedup']:.2f}x regressed more than "
                f"{REGRESSION_TOLERANCE:.0%} below baseline "
                f"{base_row['speedup']:.2f}x (floor {floor:.2f}x)"
            )
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(f"regression gate passed against {baseline_path}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[1] / "BENCH_vectorize.json",
        help="where to write the report (default: repo-root BENCH_vectorize.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing passes per measurement"
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        metavar="BASELINE",
        help="also gate this run's speedups against a baseline report",
    )
    args = parser.parse_args(argv)
    report = run(args.repeats)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.check is not None:
        return check(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
