"""Shared domain types: protocol identifiers, parameters and observations."""

from __future__ import annotations

import enum
import operator
import struct
from dataclasses import dataclass, fields

from .errors import ConfigError, ProtocolError

_PARAMS_WIRE = struct.Struct(">IHBIdBBBHQ")


class ProtocolId(enum.Enum):
    CPI = 1
    IBLT = 2
    CUCKOO = 3

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> ProtocolId:
        try:
            return cls[str(text).strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown protocol {text!r}; expected {_PROTOCOL_NAMES}") from None


# "CPI, IBLT or CUCKOO"
_PROTOCOL_NAMES = " or ".join(", ".join(p.name for p in ProtocolId).rsplit(", ", 1))


class SyncRole(enum.Enum):
    SERVER = "server"
    CLIENT = "client"

    @classmethod
    def parse(cls, text) -> SyncRole:
        if isinstance(text, SyncRole):
            return text
        try:
            return cls[str(text).strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown role {text!r}; expected SERVER or CLIENT") from None


# Every setting's type and accepted values: ProtocolParams' fields in wire
# order (an upper end is at most what _PARAMS_WIRE carries), ChannelParams'
# fields, the bench script's workload (its seed is rng_seed) and the
# Builder's TCP port. A square bracket takes its end in and a round one
# leaves it out, so NaN and the infinities lie in none of the intervals.
SETTINGS = {
    "cpi_mbar": "int [1, 2^32)",
    "cpi_verification_points": "int [0, 2^16)",
    "cpi_retry_limit": "int [0, 3]",
    "iblt_expected_diffs": "int [1, 2^32)",
    "iblt_hedge": "float [1, inf)",
    "iblt_num_hashes": "int [2, 2^8)",
    "cuckoo_fingerprint_bits": "int [4, 32]",
    "cuckoo_bucket_size": "int [1, 2^8)",
    "cuckoo_max_kicks": "int [1, 2^16)",
    "rng_seed": "int [0, 2^64)",
    "latency_ms": "float [0, inf)",
    "bandwidth_up_mbps": "float (0, inf)",
    "bandwidth_down_mbps": "float (0, inf)",
    "packet_loss": "float [0, 1)",
    "cpu_server": "float (0, 100]",
    "cpu_client": "float (0, 100]",
    "protocol": "protocol",
    "repeat": "int [1, inf)",
    "set_size": "int [0, inf)",
    "diff_count": "int [0, inf)",
    "split": "float [0, 1]",
    "port": "int [0, 2^16)",
}

# A type in SETTINGS -> the values it takes, how script text becomes one,
# and what an error says it expects
_TYPES = {
    "int": ((int,), int, "an integer"),
    "float": ((int, float), float, "a number"),
    "protocol": ((ProtocolId,), ProtocolId.parse, _PROTOCOL_NAMES),
}

# an interval's bracket -> how a value compares with that end
_BRACKETS = {"[": operator.le, "(": operator.lt, "]": operator.le, ")": operator.lt}


def _end(text: str) -> float:
    base, _, power = text.partition("^")
    return float(base) ** int(power or 1)


def _parse(entry: str):
    """(types, reader, expected, interval, ends) of one SETTINGS entry."""
    kind, _, interval = entry.partition(" ")
    ends = None
    if interval:
        low, high = (_end(end) for end in interval[1:-1].split(","))
        ends = _BRACKETS[interval[0]], low, _BRACKETS[interval[-1]], high
    return (*_TYPES[kind], interval, ends)


_CHECKS = {name: _parse(entry) for name, entry in SETTINGS.items()}


def check(name: str, value, key: str | None = None):
    """``value`` if setting ``name`` accepts it; ConfigError naming ``key`` (default ``name``) if not."""
    types, _, expected, interval, ends = _CHECKS[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key or name} expects {expected}, got {value!r}")
    if ends is not None:
        above, low, below, high = ends
        if not (above(low, value) and below(value, high)):
            raise ConfigError(f"{key or name} must lie in {interval}, got {value}")
    return value


def read(name: str, text: str, key: str | None = None):
    """The value of setting ``name`` that script ``text`` spells, checked as by ``check``."""
    _, reader, expected, _, _ = _CHECKS[name]
    try:
        value = reader(text)
    except ValueError:
        raise ConfigError(f"{key or name} expects {expected}, got {text!r}") from None
    return check(name, value, key)


@dataclass(frozen=True)
class ProtocolParams:
    """Per-protocol knobs; the full record travels in the handshake.

    Defaults follow standard literature values where the protocols have
    conventional choices. ``cpi_mbar`` and ``iblt_expected_diffs`` should
    normally be provisioned to the expected difference count. A value that
    SETTINGS does not accept raises ConfigError when the record is built.
    """

    # The field order is the wire order: to_bytes and from_bytes take the
    # fields in declaration order, with the formats of _PARAMS_WIRE.
    cpi_mbar: int = 64
    cpi_verification_points: int = 8
    cpi_retry_limit: int = 0
    iblt_expected_diffs: int = 64
    iblt_hedge: float = 2.0
    iblt_num_hashes: int = 4
    cuckoo_fingerprint_bits: int = 12
    cuckoo_bucket_size: int = 4
    cuckoo_max_kicks: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            check(f.name, getattr(self, f.name))

    def to_bytes(self) -> bytes:
        return _PARAMS_WIRE.pack(*(getattr(self, f.name) for f in fields(self)))

    @classmethod
    def from_bytes(cls, data: bytes) -> ProtocolParams:
        """The record ``data`` carries; ProtocolError if a peer's value is out of range."""
        try:
            return cls(*_PARAMS_WIRE.unpack(data))
        except ConfigError as exc:
            raise ProtocolError(f"peer parameters: {exc}") from None

    @classmethod
    def wire_size(cls) -> int:
        return _PARAMS_WIRE.size


@dataclass
class Observation:
    """Execution statistics of one sync attempt."""

    success: bool
    bytes_transmitted: int
    communication_time: float
    computation_time: float
    protocol: ProtocolId
    params: ProtocolParams
    local_set_size: int
    differences_recovered: int
    failure_reason: str | None = None

    def as_dict(self) -> dict:
        d = {
            "success": self.success,
            "protocol": str(self.protocol),
            "local_set_size": self.local_set_size,
            "differences_recovered": self.differences_recovered,
            "bytes_transmitted": self.bytes_transmitted,
            "communication_time_s": self.communication_time,
            "computation_time_s": self.computation_time,
        }
        if self.failure_reason:
            d["failure_reason"] = self.failure_reason
        return d
