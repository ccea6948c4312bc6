"""Simulation results and the metrics derived from them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.stats import MetricValue
from repro.obs.timeseries import TimeSeries
from repro.types import Category

#: Version of the :class:`SimResult` JSON wire format.  Every persisted
#: result embeds this and the disk cache treats a mismatch as a miss.
#: v2: added the ``metrics`` mapping (telemetry-registry paths).
#: v3: added the optional ``timeseries`` envelope (interval sampling).
#: v4: ``metrics`` is the only record of simulated numbers; the scalar
#: copies (``core_cycles``, ``dram``, ``l3_hits``, ...) left the payload.
#: v2 and v3 payloads carry every v4 key, so they still decode.
RESULT_SCHEMA_VERSION = 4

#: Schema versions :meth:`SimResult.from_json_dict` accepts.
SUPPORTED_SCHEMA_VERSIONS = (2, 3, RESULT_SCHEMA_VERSION)


class ResultDecodeError(ValueError):
    """A serialized ``SimResult`` could not be decoded.

    Raised on schema-version mismatches, missing fields, and type errors;
    the disk cache treats any of these as "entry absent" and re-simulates.
    """


def _number(key: str, value: Any) -> MetricValue:
    """``value`` if it is a finite JSON number (not a bool), else raise."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ResultDecodeError(f"{key!r} is not a finite number: {value!r}")
    return value


@dataclass
class SimResult:
    """Everything a finished simulation reports: one registry window.

    ``metrics`` is the measured-window delta of the stat registry, keyed
    by path (``dram.row_hits``, ``ptmc.llp.accuracy``, ...).  It is the
    only record of the simulated numbers; the scalar accessors below are
    views over it.
    """

    workload: str
    design: str
    metrics: Dict[str, MetricValue] = field(default_factory=dict)
    #: host provenance only: ``sim_seconds``, ``cached``, ``serve_seconds``
    extras: Dict[str, float] = field(default_factory=dict)
    #: phase-resolved telemetry samples (``None`` unless the run was
    #: observed with an :class:`~repro.obs.sampler.ObsConfig` that
    #: enabled interval sampling); purely additive — core metrics are
    #: identical with or without it.
    timeseries: Optional[TimeSeries] = None

    def _count(self, path: str) -> int:
        return int(self.metrics.get(path, 0))

    def _per_core(self, stat: str) -> List[int]:
        values: List[int] = []
        while f"core.{len(values)}.{stat}" in self.metrics:
            values.append(self._count(f"core.{len(values)}.{stat}"))
        return values

    def _by_suffix(self, suffix: str) -> Optional[float]:
        """The metric ending in ``suffix``, which at most one controller
        scope registers; ``None`` when this design has none."""
        for path, value in self.metrics.items():
            if path.endswith(suffix):
                return float(value)
        return None

    @property
    def core_cycles(self) -> List[int]:
        return self._per_core("cycles")

    @property
    def core_instructions(self) -> List[int]:
        return self._per_core("instructions")

    @property
    def l3_hits(self) -> int:
        return self._count("llc.hits")

    @property
    def l3_misses(self) -> int:
        return self._count("llc.misses")

    @property
    def useful_prefetches(self) -> int:
        return self._count("llc.useful_prefetches")

    @property
    def demand_accesses(self) -> int:
        return self._count("llc.demand_accesses")

    @property
    def llp_accuracy(self) -> Optional[float]:
        return self._by_suffix(".llp.accuracy")

    @property
    def metadata_hit_rate(self) -> Optional[float]:
        return self._by_suffix(".metadata_cache.hit_rate")

    @property
    def elapsed_cycles(self) -> int:
        """Wall-clock of the whole run (slowest core)."""
        return max(self.core_cycles, default=0)

    @property
    def ipc_per_core(self) -> List[float]:
        return [
            instr / cycles if cycles else 0.0
            for instr, cycles in zip(self.core_instructions, self.core_cycles)
        ]

    @property
    def l3_hit_rate(self) -> float:
        total = self.l3_hits + self.l3_misses
        return self.l3_hits / total if total else 0.0

    def bandwidth_by_category(self) -> Dict[Category, int]:
        """DRAM accesses per accounting bucket (64B each), nonzero only."""
        counts = {c: self._count(f"dram.accesses.{c.value}") for c in Category}
        return {category: count for category, count in counts.items() if count}

    @property
    def total_dram_accesses(self) -> int:
        return sum(self.bandwidth_by_category().values())

    # --- versioned JSON wire format (used by the on-disk result cache) ---

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation, tagged with the schema version."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "workload": self.workload,
            "design": self.design,
            # sorted paths: dumped metrics diff deterministically even
            # through serializers that preserve insertion order
            "metrics": dict(sorted(self.metrics.items())),
            "extras": dict(sorted(self.extras.items())),
            "timeseries": (
                None if self.timeseries is None else self.timeseries.to_json_dict()
            ),
        }

    @classmethod
    def from_json_dict(cls, payload: Any) -> "SimResult":
        """Inverse of :meth:`to_json_dict`; raises :class:`ResultDecodeError`.

        Every metric and extras value must be a finite JSON number: a
        string, bool or NaN would otherwise reach the accessors as a
        different number than the one the mapping holds.
        """
        if not isinstance(payload, dict):
            raise ResultDecodeError("result payload is not an object")
        schema = payload.get("schema")
        if schema not in SUPPORTED_SCHEMA_VERSIONS:
            raise ResultDecodeError(
                f"result schema {schema!r} not in supported {SUPPORTED_SCHEMA_VERSIONS}"
            )
        try:
            timeseries = payload.get("timeseries")
            return cls(
                workload=str(payload["workload"]),
                design=str(payload["design"]),
                metrics={
                    str(k): _number(k, v) for k, v in payload["metrics"].items()
                },
                extras={
                    str(k): float(_number(k, v)) for k, v in payload["extras"].items()
                },
                timeseries=(
                    None if timeseries is None else TimeSeries.from_json_dict(timeseries)
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ResultDecodeError(f"malformed result payload: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultDecodeError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(payload)


def weighted_speedup(result: SimResult, baseline: SimResult) -> float:
    """Paper's metric: per-core IPC normalised to the baseline, averaged.

    In rate mode every core runs the same trace in both systems, so this
    reduces to the mean of per-core cycle ratios.
    """
    if result.core_instructions != baseline.core_instructions:
        raise ValueError("weighted speedup requires identical per-core traces")
    ratios = [
        ipc / base_ipc if base_ipc else 0.0
        for ipc, base_ipc in zip(result.ipc_per_core, baseline.ipc_per_core)
    ]
    return sum(ratios) / len(ratios) if ratios else 0.0


def normalized_bandwidth(result: SimResult, baseline: SimResult) -> Dict[str, float]:
    """Per-category DRAM traffic normalised to baseline *total* traffic.

    This is the y-axis of the paper's Figs. 4 and 14: stack heights sum to
    (compressed traffic / uncompressed traffic).
    """
    denom = baseline.total_dram_accesses or 1
    return {
        category.value: count / denom
        for category, count in sorted(
            result.bandwidth_by_category().items(), key=lambda kv: kv[0].value
        )
    }


def geometric_mean(values) -> float:
    """Geomean (the paper's average for speedups)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))
