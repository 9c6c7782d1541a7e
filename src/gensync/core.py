"""Public middleware surface: Builder, GenSync and observation recording.

A GenSync instance owns a local element set, dispatches one of the three
sync protocols over its configured communicant, and records an
Observation per sync attempt. Instances are single-owner: no concurrent
calls on one instance, though distinct instances may sync concurrently on
independent channels.

A CPI or IBLT instance keeps the sketch of its last sync and a net log of
the adds and removes since then, so each later sync updates that sketch
at a cost that grows with the changes rather than with the set.
"""

from __future__ import annotations

from .errors import ConfigError, StateError
from .hashing import MASK64
from .params import Observation, ProtocolId, ProtocolParams, SyncRole, check
from .session import PROTOCOLS, run_client, run_server
from .transport import (
    MemoryEndpoint,
    TcpListener,
    scale_compute,
    session_time,
    tcp_connect,
)

_BUILDER_KEYS = ("protocol", "communicant", "host", "port", "role", "protocol-params")

_TCP_NAMES = ("tcp", "socket")


class Builder:
    """Collects sync configuration and produces bound GenSync instances."""

    def __init__(self):
        self._protocol = None
        self._communicant = None
        self._host = None
        self._port = None
        self._role = None
        self._params = None

    def set(self, key: str, value) -> Builder:
        if key == "protocol":
            self._protocol = value if isinstance(value, ProtocolId) else ProtocolId.parse(value)
        elif key == "communicant":
            if isinstance(value, MemoryEndpoint):
                self._communicant = value
            elif isinstance(value, str) and value.lower() in _TCP_NAMES:
                self._communicant = "tcp"
            else:
                raise ConfigError(
                    f"communicant must be 'socket'/'tcp' or a memory endpoint, got {value!r}"
                )
        elif key == "host":
            self._host = str(value)
        elif key == "port":
            self._port = check("port", value)
        elif key == "role":
            self._role = SyncRole.parse(value)
        elif key == "protocol-params":
            if isinstance(value, ProtocolParams):
                self._params = value
            elif isinstance(value, dict):
                try:
                    self._params = ProtocolParams(**value)
                except TypeError as exc:
                    raise ConfigError(f"bad protocol parameter: {exc}") from None
            else:
                raise ConfigError("protocol-params must be a ProtocolParams or a dict")
        else:
            raise ConfigError(f"unknown builder key {key!r}; expected one of {_BUILDER_KEYS}")
        return self

    def build(self) -> GenSync:
        if self._protocol is None:
            raise ConfigError("protocol is required")
        if self._communicant is None:
            raise ConfigError("communicant is required")
        params = self._params or ProtocolParams()

        if self._communicant == "tcp":
            if self._role is None:
                raise ConfigError("role is required for a TCP communicant")
            if self._port is None or (self._role is SyncRole.CLIENT and not self._host):
                raise ConfigError("host and port are required for a TCP communicant")
            return GenSync(
                self._protocol,
                params,
                role=self._role,
                tcp_address=(self._host or "", self._port),
            )

        endpoint = self._communicant
        role = SyncRole.CLIENT if endpoint.is_client else SyncRole.SERVER
        if self._role is not None and self._role is not role:
            raise ConfigError(f"role {self._role.name} contradicts the endpoint's {role.name} side")
        return GenSync(self._protocol, params, role=role, endpoint=endpoint)


class GenSync:
    """One sync party: a data set bound to a protocol and a communicant."""

    def __init__(self, protocol, params, role, endpoint=None, tcp_address=None):
        self.protocol = protocol
        self.params = params
        self.role = role
        self._endpoint = endpoint
        self._tcp_address = tcp_address
        self._listener = None
        self._elements: set[int] = set()
        self._observation: Observation | None = None
        self._modulus = PROTOCOLS[protocol].modulus
        # the sketch of the set at the last sync, and the adds and removes
        # since; the log stays None until a first sync caches a sketch
        self._sketch = None
        self._added: set[int] | None = None
        self._removed: set[int] | None = None
        if tcp_address is not None and role is SyncRole.SERVER:
            self._listener = TcpListener(*tcp_address)

    # -- data set -----------------------------------------------------------

    def add_element(self, value: int) -> bool:
        if not isinstance(value, int) or not 0 <= value <= MASK64:
            raise ValueError(f"elements are unsigned 64-bit integers, got {value!r}")
        v = value % self._modulus
        if v in self._elements:
            return False
        self._elements.add(v)
        if self._added is not None:
            if v in self._removed:
                self._removed.remove(v)
            else:
                self._added.add(v)
        return True

    def remove_element(self, value: int) -> bool:
        if not isinstance(value, int) or not 0 <= value <= MASK64:
            raise ValueError(f"elements are unsigned 64-bit integers, got {value!r}")
        v = value % self._modulus
        if v not in self._elements:
            return False
        self._elements.remove(v)
        if self._added is not None:
            if v in self._added:
                self._added.remove(v)
            else:
                self._removed.add(v)
        return True

    @property
    def elements(self) -> frozenset:
        return frozenset(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def bound_port(self) -> int | None:
        return self._listener.port if self._listener else None

    # -- sync ---------------------------------------------------------------

    def sync_begin(self) -> bool:
        size_before = len(self._elements)
        endpoint, transient = self._open_channel()
        try:
            runner = run_client if self.role is SyncRole.CLIENT else run_server
            outcome = runner(endpoint, self.protocol, self.params, self._elements, self._local_sketch)
        finally:
            if transient:
                endpoint.close()

        if outcome.success:
            learned = outcome.to_add - self._elements
            self._elements |= learned
            if self._added is not None:
                self._added |= learned

        self._observation = self._make_observation(endpoint, outcome, size_before)
        return outcome.success

    def _local_sketch(self):
        """The sketch of the set that this peer sends; the session calls it.

        The sketch is built from the whole set, except that a protocol
        that caches its sketch updates the cached one by the log, while
        the log is shorter than the set and the update can divide each
        removed element out.
        """
        protocol = PROTOCOLS[self.protocol]
        sketch = None
        if self._sketch is not None and len(self._added) + len(self._removed) < len(self._elements):
            sketch = protocol.update(self._sketch, self._added, self._removed)
        if sketch is None:
            sketch = protocol.build(self.params, self._elements)
        if protocol.update is not None:
            self._sketch, self._added, self._removed = sketch, set(), set()
        return sketch

    def _open_channel(self):
        if self._endpoint is not None:
            return self._endpoint, False
        if self.role is SyncRole.SERVER:
            return self._listener.accept(), True
        host, port = self._tcp_address
        return tcp_connect(host, port), True

    def _make_observation(self, endpoint, outcome, size_before) -> Observation:
        link = endpoint.params
        if link is not None:
            comm = session_time(link, outcome.bytes_up, outcome.bytes_down, outcome.turns)
            comp = scale_compute(link, self.role, outcome.compute_seconds)
        else:
            # a real link: whatever is not this thread's CPU time, which
            # includes waiting while the peer computes
            comm = outcome.wall_seconds - outcome.compute_seconds
            comp = outcome.compute_seconds
        return Observation(
            success=outcome.success,
            bytes_transmitted=outcome.bytes_up + outcome.bytes_down,
            communication_time=comm,
            computation_time=comp,
            protocol=self.protocol,
            params=self.params,
            local_set_size=size_before,
            differences_recovered=outcome.differences_recovered if outcome.success else 0,
            failure_reason=outcome.failure_reason,
        )

    def get_observation(self) -> Observation:
        if self._observation is None:
            raise StateError("no sync has been performed yet")
        return self._observation

    def close(self):
        if self._listener is not None:
            self._listener.close()
            self._listener = None
