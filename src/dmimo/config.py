"""System configuration: physical constants, link-budget parameters, and the
elevation-to-Rician-factor table.

All powers are linear watts, gains are dBi, and the Rician factors in the
lookup table are linear (not dB).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

SPEED_OF_LIGHT = 2.998e8  # m/s
EARTH_RADIUS = 6371e3  # m


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def db_to_linear(x_db):
    """Convert a power quantity from dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class RicianTableRow:
    min_deg: float
    max_deg: float
    k_linear: float


@dataclass(frozen=True)
class RicianTable:
    """Piecewise-constant elevation (degrees) -> linear Rician factor map.

    Rows cover half-open ranges [min_deg, max_deg); the numeric content is
    operator-supplied external data.
    """

    rows: tuple[RicianTableRow, ...]

    def lookup(self, elevation_deg):
        for row in self.rows:
            if row.min_deg <= elevation_deg < row.max_deg:
                return row.k_linear
        raise ConfigError(
            f"elevation {elevation_deg:.3f} deg outside Rician table coverage"
        )

    @staticmethod
    def from_records(records):
        return RicianTable(
            rows=tuple(
                RicianTableRow(r["min_deg"], r["max_deg"], r["k_linear"])
                for r in records
            )
        )

    def to_records(self):
        return [asdict(r) for r in self.rows]


# Default table shipped for convenience; operators supply their own values.
DEFAULT_RICIAN_RECORDS = [
    {"min_deg": 0.0, "max_deg": 10.0, "k_linear": 1.8},
    {"min_deg": 10.0, "max_deg": 20.0, "k_linear": 5.0},
    {"min_deg": 20.0, "max_deg": 30.0, "k_linear": 10.0},
    {"min_deg": 30.0, "max_deg": 40.0, "k_linear": 14.0},
    {"min_deg": 40.0, "max_deg": 50.0, "k_linear": 18.0},
    {"min_deg": 50.0, "max_deg": 60.0, "k_linear": 22.0},
    {"min_deg": 60.0, "max_deg": 70.0, "k_linear": 26.0},
    {"min_deg": 70.0, "max_deg": 80.0, "k_linear": 30.0},
    {"min_deg": 80.0, "max_deg": 90.001, "k_linear": 35.0},
]


@dataclass(frozen=True)
class CorrelationModel:
    """Antenna correlation model: 'identity' or 'exponential' with ratio r."""

    kind: str = "identity"
    r: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "exponential"):
            raise ConfigError(f"unknown correlation model {self.kind!r}")
        if not (0.0 <= self.r < 1.0):
            raise ConfigError("correlation ratio must satisfy 0 <= r < 1")


@dataclass(frozen=True)
class SystemConfig:
    num_satellites: int = 3
    num_users: int = 5
    antennas_x: int = 4
    antennas_y: int = 4
    antenna_spacing_ratio: float = 0.5  # d_A / lambda
    carrier_frequency: float = 2e9  # Hz
    total_bandwidth: float = 1e6  # Hz
    num_subbands: int = 2
    pilot_length: int = 3
    pilot_power: float = 0.2  # W per user
    max_power: float = 0.2  # W per user
    rate_requirement: float = 0.0  # bit/s per user
    cluster_size: int = 2
    subband_capacity: int = 5
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 6.0
    noise_figure_db: float = 9.0
    noise_temperature: float = 290.0  # K
    boltzmann: float = 1.381e-23  # J/K
    correlation: CorrelationModel = field(default_factory=CorrelationModel)
    rician_records: tuple = tuple(
        tuple(sorted(r.items())) for r in DEFAULT_RICIAN_RECORDS
    )
    rician_override: float | None = None  # bypass the table when set (linear)
    altitude: float = 550e3  # m
    elevation_min_deg: float = 20.0
    elevation_max_deg: float = 20.1
    rng_seed: int = 0

    def __post_init__(self):
        if self.pilot_length > self.num_users:
            raise ConfigError("pilot length tau must satisfy tau <= K")
        if self.pilot_length < 1:
            raise ConfigError("pilot length tau must be >= 1")
        if self.num_subbands >= self.num_users:
            raise ConfigError("number of sub-bands I must satisfy I < K")
        if not (0 < self.subband_capacity <= self.num_users):
            raise ConfigError("sub-band capacity must satisfy 0 < N_max <= K")
        if self.num_subbands * self.subband_capacity < self.num_users:
            raise ConfigError("no feasible partition: I * N_max < K")
        if self.cluster_size > self.num_satellites:
            raise ConfigError("cluster size exceeds number of satellites")
        for name in ("pilot_power", "max_power", "total_bandwidth",
                     "noise_temperature", "boltzmann", "carrier_frequency",
                     "antenna_spacing_ratio", "altitude"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.rate_requirement < 0:
            raise ConfigError("rate requirement must be nonnegative")
        if not self.noise_density * self.total_bandwidth > 0:
            raise ConfigError("full-band noise must be strictly positive")

    @property
    def num_antennas(self):
        return self.antennas_x * self.antennas_y

    @property
    def rician_table(self):
        return RicianTable.from_records([dict(r) for r in self.rician_records])

    @property
    def noise_density(self):
        """Noise power per Hz: k_B * T_0 * 10^(N_dB/10)."""
        return self.boltzmann * self.noise_temperature * db_to_linear(
            self.noise_figure_db
        )

    def replace(self, **kw):
        import dataclasses

        return dataclasses.replace(self, **kw)

    def to_dict(self):
        d = asdict(self)
        d["correlation"] = {"kind": self.correlation.kind, "r": self.correlation.r}
        d["rician_records"] = self.rician_table.to_records()
        return d

    @staticmethod
    def from_dict(d):
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in fields(SystemConfig)})
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        corr = d.pop("correlation", None)
        if corr is not None:
            d["correlation"] = CorrelationModel(
                kind=corr.get("kind", "identity"), r=corr.get("r", 0.0)
            )
        records = d.pop("rician_records", None)
        if records is not None:
            d["rician_records"] = tuple(
                tuple(sorted(r.items())) for r in records
            )
        return SystemConfig(**d)

    @staticmethod
    def from_json(path):
        with open(path, "r", encoding="utf-8") as f:
            return SystemConfig.from_dict(json.load(f))

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
