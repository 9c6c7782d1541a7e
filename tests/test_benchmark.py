import ast
import inspect
import io
import statistics
from dataclasses import fields

import pytest

from gensync import params
from gensync.benchmark import (
    _SCRIPT_KEYS,
    BAD_NETWORK,
    GOOD_NETWORK,
    OVERRIDE_KEYS,
    BenchConfig,
    emit_csv,
    generate_workload,
    parse_config,
    run_benchmark,
)
from gensync.errors import ConfigError, ParameterError
from gensync.params import ProtocolId, ProtocolParams
from gensync.transport import ChannelParams

LISTING_CONFIG = """\
# Protocol identifier
protocol=CPI
# Latency in milliseconds
latency=20
# Bandwidth in Mbps (in two directions)
bandwidth="10/25"
# Packet loss (percentage)
packet_loss=0.01
# Percentage of CPU cycles used for sync
cpu_server=100
cpu_client=20
# Repeat each experiment
repeat=100
"""

WORKLOAD_KEYS = """\
set_size=1000
diff_count=10
seed=7
"""


def test_parse_reference_config_verbatim():
    cfg = parse_config(LISTING_CONFIG + WORKLOAD_KEYS)
    assert cfg.protocol is ProtocolId.CPI
    assert cfg.latency_ms == 20
    assert (cfg.bandwidth_up_mbps, cfg.bandwidth_down_mbps) == (10, 25)
    assert cfg.packet_loss == 0.01
    assert (cfg.cpu_server, cfg.cpu_client) == (100, 20)
    assert cfg.repeat == 100
    assert cfg.set_size == 1000
    assert cfg.diff_count == 10
    assert cfg.rng_seed == 7


def test_config_serialization_round_trips():
    cfg = parse_config(LISTING_CONFIG + WORKLOAD_KEYS + "mbar=32\nhedge=2.5\n")
    assert parse_config(cfg.to_script()) == cfg


def test_bandwidth_single_value_is_symmetric():
    cfg = parse_config("protocol=IBLT\nbandwidth=5\nset_size=10\ndiff_count=0\n")
    assert (cfg.bandwidth_up_mbps, cfg.bandwidth_down_mbps) == (5, 5)


def test_packet_loss_range_error_reports_line():
    text = "protocol=IBLT\nset_size=10\ndiff_count=0\npacket_loss=1.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 4" in str(err.value)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("protocol=CPI\nset_size=1\ndiff_count=0\nbogus=1\n")
    assert "line 4" in str(err.value)
    assert "bogus" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("protocol=CPI\nprotocol=IBLT\nset_size=1\ndiff_count=0\n")
    assert "duplicate" in str(err.value)


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("protocol=CPI\ndiff_count=0\n")
    assert "set_size" in str(err.value)


def test_network_presets_match_edge_conditions():
    assert (BAD_NETWORK.bandwidth_up_mbps, BAD_NETWORK.latency_ms) == (1, 50)
    assert (GOOD_NETWORK.bandwidth_up_mbps, GOOD_NETWORK.latency_ms) == (7, 30)


# -- workloads --------------------------------------------------------------


def test_workload_zero_differences_gives_identical_sets():
    a, b = generate_workload(10, 0, 0.5, seed=1)
    assert a == b
    assert len(a) == 10


def test_workload_exact_difference_count():
    server, client = generate_workload(10_000, 100, 0.5, seed=2)
    assert len(server) == len(client) == 10_000
    assert len(server ^ client) == 100
    assert len(server - client) == 50


def test_workload_oracle_recount_over_seeds():
    for seed in range(10):
        server, client = generate_workload(500, 37, 0.5, seed=seed)
        assert len(server ^ client) == 37


def test_workload_deterministic_in_seed():
    assert generate_workload(100, 10, 0.5, 9) == generate_workload(100, 10, 0.5, 9)
    assert generate_workload(100, 10, 0.5, 9) != generate_workload(100, 10, 0.5, 10)


def test_workload_infeasible_counts_rejected():
    with pytest.raises(ParameterError):
        generate_workload(5, 11, 0.5, 0)
    with pytest.raises(ParameterError):
        generate_workload(5, 10, 1.0, 0)  # ten server-only out of five slots


# -- execution ---------------------------------------------------------------


def small_cfg(**kw):
    base = dict(protocol=ProtocolId.IBLT, set_size=200, diff_count=8, repeat=3, rng_seed=5)
    base.update(kw)
    return BenchConfig(**base)


def test_single_repeat_zero_diffs():
    obs, stats = run_benchmark(small_cfg(repeat=1, diff_count=0))
    assert len(obs) == 1
    assert obs[0].success
    assert obs[0].differences_recovered == 0
    assert stats.success_count == 1


def test_repeat_count_is_respected():
    obs, stats = run_benchmark(small_cfg(repeat=10))
    assert len(obs) == 10
    assert stats.repeat == 10


def test_replay_reproduces_bytes_exactly():
    cfg = small_cfg(protocol=ProtocolId.CPI, repeat=4)
    first, _ = run_benchmark(cfg)
    second, _ = run_benchmark(cfg)
    assert [o.bytes_transmitted for o in first] == [o.bytes_transmitted for o in second]
    assert [o.communication_time for o in first] == [o.communication_time for o in second]


def test_failures_recorded_but_do_not_abort():
    # expected_diffs drastically undersized: some peels fail, batch completes
    cfg = small_cfg(diff_count=40, overrides={"expected_diffs": 2}, repeat=5)
    obs, stats = run_benchmark(cfg)
    assert len(obs) == 5
    assert stats.success_count < 5
    assert any(not o.success for o in obs)


def test_stats_confidence_interval_formula():
    obs, stats = run_benchmark(small_cfg(repeat=5))
    times = [o.communication_time + o.computation_time for o in obs]
    sd = statistics.stdev(times)
    assert stats.total_time.sd == pytest.approx(sd)
    assert stats.total_time.ci95 == pytest.approx(1.96 * sd / 5**0.5)
    assert stats.total_time.min == min(times)
    assert stats.total_time.max == max(times)


# -- CSV ---------------------------------------------------------------------


def test_csv_row_arity():
    obs, stats = run_benchmark(small_cfg(repeat=4))
    sink = io.StringIO()
    emit_csv(obs, stats, sink)
    lines = sink.getvalue().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 5  # header + one per run
    assert data[0].startswith("run_index,protocol,set_size,diff_count,success,")


def test_csv_empty_observations():
    cfg = small_cfg(repeat=1)
    obs, stats = run_benchmark(cfg)
    sink = io.StringIO()
    emit_csv([], stats, sink)
    lines = sink.getvalue().splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 1
    assert any(l.startswith("# success_count") for l in lines)


def test_csv_round_trip_reproduces_means_exactly():
    obs, stats = run_benchmark(small_cfg(repeat=6))
    sink = io.StringIO()
    emit_csv(obs, stats, sink)
    rows = [l.split(",") for l in sink.getvalue().splitlines() if l and not l.startswith("#")][1:]
    comm = [float(r[6]) for r in rows]
    comp = [float(r[7]) for r in rows]
    total = [float(r[8]) for r in rows]
    nbytes = [float(r[5]) for r in rows]
    assert statistics.fmean(comm) == stats.communication_time.mean
    assert statistics.fmean(comp) == stats.computation_time.mean
    assert statistics.fmean(total) == stats.total_time.mean
    assert statistics.fmean(nbytes) == stats.bytes_transmitted.mean


# -- every script key --------------------------------------------------------

REQUIRED = {"protocol": "IBLT", "set_size": "10", "diff_count": "0"}

BAD_VALUES = [
    ("protocol", "SPINNER"),
    ("protocol", "7"),
    ("latency", "-1"),
    ("latency", "fast"),
    ("bandwidth", "0/10"),
    ("bandwidth", "10/-1"),
    ("bandwidth", "ten"),
    ("bandwidth", "1/2/3"),
    ("packet_loss", "1.0"),
    ("packet_loss", "lots"),
    ("cpu_server", "0"),
    ("cpu_server", "max"),
    ("cpu_client", "100.5"),
    ("cpu_client", "half"),
    ("repeat", "0"),
    ("repeat", "2.5"),
    ("set_size", "-1"),
    ("set_size", "1e3"),
    ("diff_count", "-1"),
    ("diff_count", "ten"),
    ("split", "1.5"),
    ("split", "even"),
    ("seed", str(2**64)),
    ("seed", "0x10"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_bad_value_names_its_key_and_line(key, value):
    others = [f"{k}={v}\n" for k, v in REQUIRED.items() if k != key]
    text = "# a comment\n" + "".join(others) + f"{key}={value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith(f"line {len(others) + 2}:")
    assert key in str(err.value)


EVERY_KEY = """\
protocol=CUCKOO
latency=12.5
bandwidth="3/7.5"
packet_loss=0.02
cpu_server=80
cpu_client=40
repeat=3
set_size=500
diff_count=30
split=0.25
seed=99
mbar=40
verification_points=4
retries=2
expected_diffs=35
hedge=3.0
num_hashes=5
fingerprint_bits=16
bucket_size=2
max_kicks=800
"""


def test_script_setting_every_key_round_trips():
    cfg = parse_config(EVERY_KEY)
    assert cfg == BenchConfig(
        protocol=ProtocolId.CUCKOO,
        set_size=500,
        diff_count=30,
        latency_ms=12.5,
        bandwidth_up_mbps=3.0,
        bandwidth_down_mbps=7.5,
        packet_loss=0.02,
        cpu_server=80.0,
        cpu_client=40.0,
        repeat=3,
        split=0.25,
        rng_seed=99,
        overrides={
            "mbar": 40,
            "verification_points": 4,
            "retries": 2,
            "expected_diffs": 35,
            "hedge": 3.0,
            "num_hashes": 5,
            "fingerprint_bits": 16,
            "bucket_size": 2,
            "max_kicks": 800,
        },
    )
    script = cfg.to_script()
    assert sorted(line.split("=")[0] for line in script.splitlines()) == sorted(
        line.split("=")[0] for line in EVERY_KEY.splitlines()
    )
    assert parse_config(script) == cfg


@pytest.mark.parametrize("key", ["latency", "bandwidth"])
def test_nan_is_out_of_range(key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"protocol=CPI\nset_size=10\ndiff_count=0\n{key}=nan\n")
    assert str(err.value).startswith("line 4:")


@pytest.mark.parametrize("key", ["latency", "bandwidth", "packet_loss", "cpu_server", "cpu_client"])
def test_infinite_link_value_is_out_of_range(key):
    # ``latency=inf`` parsed, and the run reported an infinite communication time
    with pytest.raises(ConfigError, match=rf"^line 4: {key} must lie in .*, got inf$"):
        parse_config(f"protocol=CPI\nset_size=10\ndiff_count=0\n{key}=inf\n")


@pytest.mark.parametrize("key,value", [("mbar", "0"), ("num_hashes", "300"), ("hedge", "inf"), ("max_kicks", "65536")])
def test_bad_override_is_reported_on_its_line(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"protocol=CPI\nset_size=10\ndiff_count=0\n{key}={value}\nrepeat=2\n")
    assert str(err.value).startswith("line 4:")


def test_bound_provisioned_beyond_the_record_is_reported_on_diff_count():
    # the default CPI bound follows diff_count, and the record carries 32 bits
    with pytest.raises(ConfigError) as err:
        parse_config(f"protocol=CPI\nset_size={2**33}\ndiff_count={2**32}\n")
    assert str(err.value).startswith("line 3:")


def test_every_setting_is_in_the_table_exactly_once():
    module = ast.parse(inspect.getsource(params))
    (table,) = (
        node.value
        for node in module.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETTINGS"]
    )
    names = [key.value for key in table.keys]
    assert len(names) == len(set(names))
    targets = {f.name for record in (ProtocolParams, ChannelParams) for f in fields(record)}
    targets |= {name for names in _SCRIPT_KEYS.values() for name in names}
    targets |= set(OVERRIDE_KEYS.values()) | {"port"}  # and the Builder's
    assert set(names) == targets
