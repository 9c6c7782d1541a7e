"""Shared domain types: protocol identifiers, parameters and observations."""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, fields

from .errors import ConfigError
from .hashing import MASK64

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
        if self.cpi_mbar < 1:
            raise ConfigError("cpi_mbar must be positive")
        if self.cpi_verification_points < 0:
            raise ConfigError("cpi_verification_points cannot be negative")
        if not 0 <= self.cpi_retry_limit <= 3:
            raise ConfigError("cpi_retry_limit must lie in [0, 3]")
        if self.iblt_expected_diffs < 1:
            raise ConfigError("iblt_expected_diffs must be positive")
        if self.iblt_hedge < 1.0:
            raise ConfigError("iblt_hedge must be at least 1.0")
        if self.iblt_num_hashes < 2:
            raise ConfigError("iblt_num_hashes must be at least 2")
        if not 4 <= self.cuckoo_fingerprint_bits <= 32:
            raise ConfigError("cuckoo_fingerprint_bits must lie in [4, 32]")
        if self.cuckoo_bucket_size < 1:
            raise ConfigError("cuckoo_bucket_size must be positive")
        if self.cuckoo_max_kicks < 1:
            raise ConfigError("cuckoo_max_kicks must be positive")
        if not 0 <= self.rng_seed <= MASK64:
            raise ConfigError("rng_seed must fit in 64 bits")
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
