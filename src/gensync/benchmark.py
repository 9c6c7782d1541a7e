"""Benchmarking layer: config scripts, seeded workloads, repeated runs, CSV.

The configuration format is key=value lines with '#' comments. Network
and CPU keys mirror the emulated-link model; the workload keys
(set_size, diff_count, split, seed) and the protocol-parameter overrides
are documented extensions. Every run is fully determined by the config
and the seed: replaying a config reproduces byte counts bit-identically.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
from dataclasses import dataclass, field, fields, replace
from functools import partial

from .core import Builder
from .errors import ConfigError, ParameterError
from .hashing import MASK64
from .params import Observation, ProtocolId, ProtocolParams
from .transport import LINK_RANGES, ChannelParams, in_range, memory_channel_pair

# network presets derived from the good/bad edge-network conditions
GOOD_NETWORK = ChannelParams(latency_ms=30, bandwidth_up_mbps=7, bandwidth_down_mbps=7)
BAD_NETWORK = ChannelParams(latency_ms=50, bandwidth_up_mbps=1, bandwidth_down_mbps=1)


def _link(name: str):
    """The test and interval of a link field, from ChannelParams' table."""
    return partial(in_range, interval=LINK_RANGES[name]), LINK_RANGES[name]


# Each script key, in to_script's order: the BenchConfig fields it sets, its
# type, and the values it accepts as a test and in interval notation.
_SCRIPT_KEYS = {
    "protocol": (("protocol",), ProtocolId, None, "CPI, IBLT or CUCKOO"),
    "latency": (("latency_ms",), float, *_link("latency_ms")),
    "bandwidth": (("bandwidth_up_mbps", "bandwidth_down_mbps"), float, *_link("bandwidth_up_mbps")),
    "packet_loss": (("packet_loss",), float, *_link("packet_loss")),
    "cpu_server": (("cpu_server",), float, *_link("cpu_server")),
    "cpu_client": (("cpu_client",), float, *_link("cpu_client")),
    "repeat": (("repeat",), int, lambda v: v >= 1, "[1, inf)"),
    "set_size": (("set_size",), int, lambda v: v >= 0, "[0, inf)"),
    "diff_count": (("diff_count",), int, lambda v: v >= 0, "[0, inf)"),
    "split": (("split",), float, lambda v: 0 <= v <= 1, "[0, 1]"),
    "seed": (("rng_seed",), int, lambda v: 0 <= v <= MASK64, "[0, 2^64)"),
}

# Protocol-parameter override key, in scripts and sync flags -> (ProtocolParams field, type)
OVERRIDE_KEYS = {
    "mbar": ("cpi_mbar", int),
    "verification_points": ("cpi_verification_points", int),
    "retries": ("cpi_retry_limit", int),
    "expected_diffs": ("iblt_expected_diffs", int),
    "hedge": ("iblt_hedge", float),
    "num_hashes": ("iblt_num_hashes", int),
    "fingerprint_bits": ("cuckoo_fingerprint_bits", int),
    "bucket_size": ("cuckoo_bucket_size", int),
    "max_kicks": ("cuckoo_max_kicks", int),
}

_REQUIRED = ("protocol", "set_size", "diff_count")


@dataclass
class BenchConfig:
    protocol: ProtocolId
    set_size: int
    diff_count: int
    latency_ms: float = 0.0
    bandwidth_up_mbps: float = 10.0
    bandwidth_down_mbps: float = 10.0
    packet_loss: float = 0.0
    cpu_server: float = 100.0
    cpu_client: float = 100.0
    repeat: int = 1
    split: float = 0.5
    rng_seed: int = 0
    overrides: dict = field(default_factory=dict)

    def channel_params(self) -> ChannelParams:
        return ChannelParams(**{f.name: getattr(self, f.name) for f in fields(ChannelParams)})

    def protocol_params(self) -> ProtocolParams:
        """Provision bounds to the workload's difference count by default."""
        values = {
            "cpi_mbar": max(1, self.diff_count),
            "iblt_expected_diffs": max(1, self.diff_count),
        }
        for key, (attr, cast) in OVERRIDE_KEYS.items():
            if key in self.overrides:
                values[attr] = cast(self.overrides[key])
        return ProtocolParams(**values).validate()

    def to_script(self) -> str:
        lines = []
        for key, (names, *_) in _SCRIPT_KEYS.items():
            text = "/".join(str(getattr(self, name)) for name in names)
            lines.append(f'{key}="{text}"' if len(names) > 1 else f"{key}={text}")
        for key in sorted(self.overrides):
            lines.append(f"{key}={self.overrides[key]!r}")
        return "\n".join(lines) + "\n"


def _parse_number(raw, cast, key):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a {cast.__name__}, got {raw!r}") from None


def _parse_value(key, raw) -> dict:
    """The BenchConfig fields that one script key sets; raises ConfigError."""
    names, cast, accepts, accepted = _SCRIPT_KEYS[key]
    if key == "protocol":
        return {"protocol": ProtocolId.parse(raw)}
    parts = [raw]
    if key == "bandwidth":  # "UP/DOWN" or one value for both, optionally quoted
        text = raw.strip()
        if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
            text = text[1:-1]
        parts = text.split("/")
        if len(parts) > 2:
            raise ConfigError(f"bandwidth expects 'UP/DOWN' or a single value, got {raw!r}")
        if len(parts) == 1:
            parts *= 2
    values = {}
    for name, part in zip(names, parts):
        v = _parse_number(part, cast, key)
        if not accepts(v):
            raise ConfigError(f"{key} must lie in {accepted}, got {v}")
        values[name] = v
    return values


def parse_config(text: str) -> BenchConfig:
    """Parse a configuration script; raises ConfigError with line numbers."""
    entries = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw_line.strip()!r}", lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first on line {entries[key][0]})", lineno)
        entries[key] = (lineno, raw)

    for key in _REQUIRED:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")

    cfg_fields = {}
    overrides = {}
    for key, (line, raw) in entries.items():
        try:
            if key in _SCRIPT_KEYS:
                cfg_fields.update(_parse_value(key, raw))
            elif key in OVERRIDE_KEYS:
                name, cast = OVERRIDE_KEYS[key]
                overrides[key] = _parse_number(raw, cast, key)
                ProtocolParams(**{name: overrides[key]}).validate()
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(str(exc), line) from None

    cfg = BenchConfig(overrides=overrides, **cfg_fields)
    try:
        _split_differences(cfg.set_size, cfg.diff_count, cfg.split)
        cfg.protocol_params()  # the bounds provisioned from diff_count
    except (ParameterError, ConfigError) as exc:
        raise ConfigError(str(exc), entries["diff_count"][0]) from None
    return cfg


# ---------------------------------------------------------------------------
# workloads


def _split_differences(set_size: int, diff_count: int, split: float):
    """Server-only and client-only difference counts; ParameterError when one exceeds set_size."""
    server_only_n = round(split * diff_count)
    if max(server_only_n, diff_count - server_only_n) > set_size:
        raise ParameterError(f"diff_count {diff_count} at split {split} does not fit set_size {set_size}")
    return server_only_n, diff_count - server_only_n


def generate_workload(set_size: int, diff_count: int, split: float = 0.5, seed: int = 0):
    """Two seeded sets with exactly ``diff_count`` symmetric differences.

    ``split`` is the share of differences that only the server holds. The
    server set has exactly ``set_size`` elements; the client set matches it
    when the split is even, and differs by the split imbalance otherwise.
    Elements are drawn without replacement from the 64-bit space.
    """
    server_only_n, client_only_n = _split_differences(set_size, diff_count, split)
    common_n = set_size - server_only_n

    rng = random.Random(seed)
    drawn = []
    seen = set()
    while len(drawn) < common_n + server_only_n + client_only_n:
        v = rng.getrandbits(64)
        if v not in seen:
            seen.add(v)
            drawn.append(v)
    common = drawn[:common_n]
    server_only = drawn[common_n : common_n + server_only_n]
    client_only = drawn[common_n + server_only_n :]
    return set(common) | set(server_only), set(common) | set(client_only)


# ---------------------------------------------------------------------------
# execution


@dataclass
class MetricStats:
    mean: float
    sd: float
    ci95: float
    min: float
    max: float


@dataclass
class RunStats:
    repeat: int
    success_count: int
    set_size: int
    diff_count: int
    bytes_transmitted: MetricStats
    communication_time: MetricStats
    computation_time: MetricStats
    total_time: MetricStats


def _metric(samples) -> MetricStats:
    mean = statistics.fmean(samples)
    sd = statistics.stdev(samples) if len(samples) >= 2 else 0.0
    ci = 1.96 * sd / math.sqrt(len(samples))
    return MetricStats(mean, sd, ci, min(samples), max(samples))


def total_time(obs: Observation) -> float:
    return obs.communication_time + obs.computation_time


def run_benchmark(cfg: BenchConfig):
    """Execute ``repeat`` seeded syncs over the in-memory channel.

    Returns (observations, stats). Each run's Observation merges the two
    roles: byte and communication figures are identical on both sides by
    the ledger-symmetry invariant, and computation_time sums the two
    CPU-scaled compute times. Failures are recorded per run and never
    abort the batch.
    """
    channel_params = cfg.channel_params()
    base_params = cfg.protocol_params()
    observations = []
    for index in range(cfg.repeat):
        run_seed = (cfg.rng_seed + index) & MASK64
        server_set, client_set = generate_workload(cfg.set_size, cfg.diff_count, cfg.split, run_seed)
        params = replace(base_params, rng_seed=run_seed)
        client_end, server_end = memory_channel_pair(channel_params)
        client = (
            Builder()
            .set("protocol", cfg.protocol)
            .set("communicant", client_end)
            .set("protocol-params", params)
            .build()
        )
        server = (
            Builder()
            .set("protocol", cfg.protocol)
            .set("communicant", server_end)
            .set("protocol-params", params)
            .build()
        )
        for v in client_set:
            client.add_element(v)
        for v in server_set:
            server.add_element(v)

        server_result = {}

        def serve():
            server_result["ok"] = server.sync_begin()

        thread = threading.Thread(target=serve)
        thread.start()
        client_ok = client.sync_begin()
        thread.join()

        obs_c = client.get_observation()
        obs_s = server.get_observation()
        observations.append(
            Observation(
                success=client_ok and server_result["ok"],
                bytes_transmitted=obs_c.bytes_transmitted,
                communication_time=obs_c.communication_time,
                computation_time=obs_c.computation_time + obs_s.computation_time,
                protocol=cfg.protocol,
                params=params,
                local_set_size=obs_c.local_set_size,
                differences_recovered=obs_c.differences_recovered,
                failure_reason=obs_c.failure_reason or obs_s.failure_reason,
            )
        )

    stats = RunStats(
        repeat=cfg.repeat,
        success_count=sum(1 for o in observations if o.success),
        set_size=cfg.set_size,
        diff_count=cfg.diff_count,
        bytes_transmitted=_metric([float(o.bytes_transmitted) for o in observations]),
        communication_time=_metric([o.communication_time for o in observations]),
        computation_time=_metric([o.computation_time for o in observations]),
        total_time=_metric([total_time(o) for o in observations]),
    )
    return observations, stats


# ---------------------------------------------------------------------------
# CSV output


CSV_HEADER = (
    "run_index,protocol,set_size,diff_count,success,"
    "bytes_transmitted,communication_time_s,computation_time_s,total_time_s"
)


def emit_csv(observations, stats: RunStats, destination) -> None:
    """Write one row per observation plus a commented summary block.

    Floats use repr so a re-parse reproduces them exactly; lines end with
    LF and the decimal separator is always '.'.
    """
    write = destination.write
    write(CSV_HEADER + "\n")
    for i, obs in enumerate(observations):
        row = (
            f"{i},{obs.protocol},{obs.local_set_size},{stats.diff_count},"
            f"{'true' if obs.success else 'false'},{obs.bytes_transmitted},"
            f"{obs.communication_time!r},{obs.computation_time!r},{total_time(obs)!r}"
        )
        write(row + "\n")
    write("# metric,mean,sd,ci95,min,max\n")
    for name, m in (
        ("bytes_transmitted", stats.bytes_transmitted),
        ("communication_time_s", stats.communication_time),
        ("computation_time_s", stats.computation_time),
        ("total_time_s", stats.total_time),
    ):
        write(f"# {name},{m.mean!r},{m.sd!r},{m.ci95!r},{m.min!r},{m.max!r}\n")
    write(f"# success_count,{stats.success_count},repeat,{stats.repeat}\n")
