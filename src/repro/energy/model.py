"""DRAM energy/power model (paper Fig. 18).

A per-operation model with DDR4-datasheet-style constants: each row
activation, read burst and write burst costs fixed energy, and each
channel draws constant background power while the system runs.  The
paper's Fig. 18 effect — fewer requests → lower energy, shorter runtime →
lower background energy and EDP — falls out directly (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.results import SimResult


@dataclass(frozen=True)
class EnergyParams:
    """Per-operation DRAM energy and background power."""

    activate_nj: float = 2.5
    read_nj: float = 4.0
    write_nj: float = 4.2
    background_mw_per_channel: float = 350.0
    cpu_ghz: float = 3.2
    channels: int = 2


@dataclass(frozen=True)
class EnergyReport:
    """Absolute energy/power/EDP for one simulation."""

    dynamic_nj: float
    background_nj: float
    seconds: float

    @property
    def energy_nj(self) -> float:
        return self.dynamic_nj + self.background_nj

    @property
    def power_mw(self) -> float:
        if self.seconds == 0:
            return 0.0
        return self.energy_nj / self.seconds * 1e-6  # nJ/s -> mW

    @property
    def edp(self) -> float:
        """Energy-delay product (nJ * s)."""
        return self.energy_nj * self.seconds


def energy_of(result: SimResult, params: EnergyParams = EnergyParams()) -> EnergyReport:
    """Energy accounting for one finished simulation."""
    metrics = result.metrics
    dynamic = (
        metrics["dram.activations"] * params.activate_nj
        + metrics["dram.reads"] * params.read_nj
        + metrics["dram.writes"] * params.write_nj
    )
    seconds = result.elapsed_cycles / (params.cpu_ghz * 1e9)
    background = params.background_mw_per_channel * params.channels * seconds * 1e6
    return EnergyReport(dynamic_nj=dynamic, background_nj=background, seconds=seconds)


@dataclass(frozen=True)
class RelativeEnergy:
    """Fig. 18's normalised quadruple: speedup, power, energy, EDP."""

    speedup: float
    power: float
    energy: float
    edp: float


def relative_energy(
    result: SimResult,
    baseline: SimResult,
    params: EnergyParams = EnergyParams(),
) -> RelativeEnergy:
    """Normalise a design's energy metrics to the uncompressed baseline."""
    ours = energy_of(result, params)
    base = energy_of(baseline, params)
    speedup = base.seconds / ours.seconds if ours.seconds else 0.0
    return RelativeEnergy(
        speedup=speedup,
        power=ours.power_mw / base.power_mw if base.power_mw else 0.0,
        energy=ours.energy_nj / base.energy_nj if base.energy_nj else 0.0,
        edp=ours.edp / base.edp if base.edp else 0.0,
    )
