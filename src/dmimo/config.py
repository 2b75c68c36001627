"""System configuration: physical constants, link-budget parameters, and the
elevation-to-Rician-factor table.

All powers are linear watts, gains are dBi, and the Rician factors in the
table are linear (not dB). A config is checked when it is built, so a bad
value fails at load rather than partway through a run.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

SPEED_OF_LIGHT = 2.998e8  # m/s
EARTH_RADIUS = 6371e3  # m


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def db_to_linear(x_db):
    """Convert a power quantity from dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


# Default table shipped for convenience; operators supply their own values.
# Row (min_deg, max_deg, k_linear) gives elevations in [min_deg, max_deg)
# the linear Rician factor k_linear.
RICIAN_KEYS = ("min_deg", "max_deg", "k_linear")
DEFAULT_RICIAN_RECORDS = (
    (0.0, 10.0, 1.8),
    (10.0, 20.0, 5.0),
    (20.0, 30.0, 10.0),
    (30.0, 40.0, 14.0),
    (40.0, 50.0, 18.0),
    (50.0, 60.0, 22.0),
    (60.0, 70.0, 26.0),
    (70.0, 80.0, 30.0),
    (80.0, 90.001, 35.0),
)


def _is_real(v):
    """A finite real number, not a bool."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_keys(d, allowed, what):
    """Raise ConfigError unless d is a dict whose keys are all allowed."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, not {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} fields: {', '.join(unknown)}")


@dataclass(frozen=True)
class CorrelationModel:
    """Antenna correlation model: 'identity' or 'exponential' with ratio r."""

    kind: str = "identity"
    r: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "exponential"):
            raise ConfigError(f"unknown correlation model {self.kind!r}")
        if not (_is_real(self.r) and 0.0 <= self.r < 1.0):
            raise ConfigError("correlation ratio must satisfy 0 <= r < 1")


# each field's type by its annotation (a string here), named for messages
_TYPES = {"int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a finite number"),
          "float | None": ((numbers.Real, type(None)),
                           "a finite number or null"),
          "CorrelationModel": (CorrelationModel, "a CorrelationModel"),
          "tuple": (tuple, "a tuple of rows")}


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
    # (min_deg, max_deg, k_linear) rows, as DEFAULT_RICIAN_RECORDS
    rician_records: tuple = DEFAULT_RICIAN_RECORDS
    rician_override: float | None = None  # bypass the table when set (linear)
    altitude: float = 550e3  # m
    elevation_min_deg: float = 20.0
    elevation_max_deg: float = 20.1

    def __post_init__(self):
        for f in fields(self):
            value, (kind, name) = getattr(self, f.name), _TYPES[f.type]
            if not isinstance(value, kind) or (
                    isinstance(value, numbers.Number) and not _is_real(value)):
                raise ConfigError(f"{f.name} must be {name}, not {value!r}")
        self._check_rician_rows()
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
        if not 0 < self.cluster_size <= self.num_satellites:
            raise ConfigError("cluster size must satisfy 0 < |M_k| <= M")
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

    def _check_rician_rows(self):
        """Rows are three numbers and, without an override, cover every
        elevation in [elevation_min_deg, elevation_max_deg)."""
        for i, row in enumerate(self.rician_records):
            if not (isinstance(row, tuple) and len(row) == 3
                    and all(map(_is_real, row))):
                raise ConfigError(
                    f"rician_records[{i}] must be three finite numbers "
                    f"(min_deg, max_deg, k_linear), not {row!r}")
        lo, hi = self.elevation_min_deg, self.elevation_max_deg
        if lo > hi:
            raise ConfigError("elevation_min_deg exceeds elevation_max_deg")
        at, covered = lo, self.rician_override is not None
        while not covered:
            reach = max((b for a, b, _ in self.rician_records if a <= at < b),
                        default=None)
            if reach is None:
                raise ConfigError(f"rician_records do not cover elevation "
                                  f"{at:g} deg of [{lo:g}, {hi:g})")
            at, covered = reach, reach >= hi

    def rician_factor(self, elevation_deg):
        """The linear Rician factor at an elevation: the override if set,
        else k_linear of the row whose [min_deg, max_deg) holds it."""
        if self.rician_override is not None:
            return self.rician_override
        for lo, hi, k_linear in self.rician_records:
            if lo <= elevation_deg < hi:
                return k_linear
        raise ConfigError(f"elevation {elevation_deg:.3f} deg outside "
                          f"Rician table coverage")

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
        d["rician_records"] = [dict(zip(RICIAN_KEYS, row))
                               for row in self.rician_records]
        return d

    @staticmethod
    def from_dict(d):
        _check_keys(d, [f.name for f in fields(SystemConfig)], "config")
        d = dict(d)
        corr = d.pop("correlation", None)
        if corr is not None:
            _check_keys(corr, ("kind", "r"), "correlation")
            d["correlation"] = CorrelationModel(**corr)
        records = d.pop("rician_records", None)
        if records is not None:  # a missing key reads None, not a number
            for i, r in enumerate(records):
                _check_keys(r, RICIAN_KEYS, f"rician_records[{i}]")
            d["rician_records"] = tuple(tuple(map(r.get, RICIAN_KEYS))
                                        for r in records)
        return SystemConfig(**d)

    @staticmethod
    def from_json(path):
        with open(path, "r", encoding="utf-8") as f:
            return SystemConfig.from_dict(json.load(f))

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
