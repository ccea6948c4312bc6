#!/usr/bin/env python
"""CI smoke for one non-default LLC replacement policy.

Runs one short simulation per design under the given policy, then
proves the results round-trip through the content-addressed disk cache:
the memo table is dropped (as a fresh process would see it), the same
identities are requested again, and the replies must be served from
disk and — modulo the replay markers — compare equal to the originals.
It also checks that the default config and an explicit
``llc_policy=DEFAULT_POLICY`` are one identity: the explicit request
must be served from the default run's disk entry, not executed.

Usage::

    python scripts/policy_smoke.py --policy srrip
    python scripts/policy_smoke.py --policy random --designs static_ptmc,prefetch
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.cache.replacement import DEFAULT_POLICY, POLICIES  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.config import bench_config  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--policy", required=True, choices=sorted(set(POLICIES) - {DEFAULT_POLICY})
    )
    parser.add_argument("--workload", default="lbm06")
    parser.add_argument("--designs", default="static_ptmc,dynamic_ptmc")
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--warmup", type=int, default=150)
    return parser.parse_args(argv)


def comparable(result) -> dict:
    payload = result.to_json_dict()
    payload["extras"].pop("sim_seconds", None)
    payload["extras"].pop("cached", None)
    payload["extras"].pop("serve_seconds", None)
    return payload


def check_default_identity(args, design: str) -> int:
    """Run the default config, then request it by the default policy's name.

    Returns the number of failures (0 or 1).
    """
    default = bench_config(ops_per_core=args.ops, warmup_ops=args.warmup)
    runner.simulate(args.workload, design, default)
    runner.clear_cache()
    explicit = default.with_(llc_policy=DEFAULT_POLICY)
    _, source = runner.simulate_with_source(args.workload, design, explicit)
    if source != "disk":
        print(
            f"  FAIL: llc_policy={DEFAULT_POLICY} x {design} served from "
            f"{source!r}; the default run's disk entry should answer it",
            file=sys.stderr,
        )
        return 1
    print(f"default == llc_policy={DEFAULT_POLICY} x {design}: one identity, from disk")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    config = bench_config(
        ops_per_core=args.ops, warmup_ops=args.warmup, llc_policy=args.policy
    )
    failures = 0
    with tempfile.TemporaryDirectory(prefix="policy-smoke-") as cache_dir:
        runner.configure_disk_cache(cache_dir)
        originals = {}
        for design in designs:
            result, source = runner.simulate_with_source(args.workload, design, config)
            print(f"{args.policy} x {design}: {source}, {result.elapsed_cycles} cycles")
            if source != "executed":
                print("  FAIL: expected a cold execution", file=sys.stderr)
                failures += 1
            originals[design] = result

        runner.clear_cache()  # what a fresh process sees: only the disk store

        for design in designs:
            replay, source = runner.simulate_with_source(args.workload, design, config)
            if source != "disk":
                print(
                    f"  FAIL: {design} replay served from {source!r}, not disk",
                    file=sys.stderr,
                )
                failures += 1
            elif comparable(replay) != comparable(originals[design]):
                print(f"  FAIL: {design} disk replay differs", file=sys.stderr)
                failures += 1
            else:
                print(f"{args.policy} x {design}: disk round trip ok")

        failures += check_default_identity(args, designs[0])
    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
        return 1
    print(f"policy smoke ok: {args.policy} across {len(designs)} designs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
