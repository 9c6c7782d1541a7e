"""Shared domain types: protocol identifiers, parameters and observations."""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, fields

from .errors import ConfigError
from .hashing import MASK64

_PARAMS_WIRE = struct.Struct(">IHBIdBBBHQ")

# Each field's accepted values, from ``low`` up to but not including
# ``high``; an upper limit is at most what the field's format in
# _PARAMS_WIRE can carry, and the hedge must be finite.
_LIMITS = {
    "cpi_mbar": (1, 1 << 32),
    "cpi_verification_points": (0, 1 << 16),
    "cpi_retry_limit": (0, 4),
    "iblt_expected_diffs": (1, 1 << 32),
    "iblt_hedge": (1.0, math.inf),
    "iblt_num_hashes": (2, 1 << 8),
    "cuckoo_fingerprint_bits": (4, 33),
    "cuckoo_bucket_size": (1, 1 << 8),
    "cuckoo_max_kicks": (1, 1 << 16),
    "rng_seed": (0, MASK64 + 1),
}


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
            raise ConfigError(f"unknown protocol {text!r}; expected CPI, IBLT or CUCKOO") from None


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


@dataclass(frozen=True)
class ProtocolParams:
    """Per-protocol knobs; the full record travels in the handshake.

    Defaults follow standard literature values where the protocols have
    conventional choices. ``cpi_mbar`` and ``iblt_expected_diffs`` should
    normally be provisioned to the expected difference count.
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

    def validate(self) -> ProtocolParams:
        for f in fields(self):
            low, high = _LIMITS[f.name]
            value = getattr(self, f.name)
            if not low <= value < high:
                raise ConfigError(f"{f.name} must lie in [{low}, {high}), got {value}")
        return self

    def to_bytes(self) -> bytes:
        return _PARAMS_WIRE.pack(*(getattr(self, f.name) for f in fields(self)))

    @classmethod
    def from_bytes(cls, data: bytes) -> ProtocolParams:
        return cls(*_PARAMS_WIRE.unpack(data))

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
