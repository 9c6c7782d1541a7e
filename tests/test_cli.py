import json
import socket
import threading

from gensync.cli import main
from gensync.benchmark import BenchConfig, run_benchmark
from gensync.params import ProtocolId

BASE_CONFIG = """\
protocol=IBLT
latency=5
bandwidth="10/10"
packet_loss=0
cpu_server=100
cpu_client=100
repeat=4
set_size=300
diff_count=40
seed=11
"""


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def write_elements(path, values):
    path.write_text("".join(f"{v}\n" for v in sorted(values)))


def read_elements(path):
    return {int(line) for line in path.read_text().splitlines() if line.strip()}


def run_pair(tmp_path, protocol, a, b, extra=(), apply=True):
    port = free_port()
    file_a = tmp_path / "client.txt"
    file_b = tmp_path / "server.txt"
    write_elements(file_a, a)
    write_elements(file_b, b)
    base = ["--protocol", protocol, *extra]
    if apply:
        base.append("--apply")
    results = {}

    def serve():
        results["server"] = main(
            ["sync", "--role", "server", "--addr", f"127.0.0.1:{port}", "--input", str(file_b), *base]
        )

    t = threading.Thread(target=serve)
    t.start()
    results["client"] = main(
        ["sync", "--role", "client", "--addr", f"127.0.0.1:{port}", "--input", str(file_a), *base]
    )
    t.join()
    return results, file_a, file_b


# -- bench -------------------------------------------------------------------


def test_bench_writes_csv_and_exits_zero(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(BASE_CONFIG)
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 5
    assert lines[0].startswith("run_index,")


def test_bench_config_typo_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BASE_CONFIG + "lattency=20\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")
    assert "line 11" in err


def test_bench_infeasible_split_exits_one(tmp_path, capsys):
    # ten differences all on the server side cannot fit a set of five
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("protocol=IBLT\nset_size=5\ndiff_count=10\nsplit=1.0\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")
    assert "line 3" in err


def test_bench_override_beyond_the_record_exits_one(tmp_path, capsys):
    # 300 hashes do not fit the handshake record's one-byte field
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BASE_CONFIG + "num_hashes=300\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")
    assert "line 11" in err


def test_bench_partial_failures_exit_two_with_csv(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(
        "protocol=IBLT\nrepeat=5\nset_size=300\ndiff_count=40\nseed=3\nexpected_diffs=2\n"
    )
    code = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert out.exists()
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert any(",false," in r for r in rows)
    assert capsys.readouterr().err.startswith("error[sync]:")


def test_bench_seed_env_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bench.cfg"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg.write_text(BASE_CONFIG.replace("repeat=4", "repeat=2"))
    monkeypatch.setenv("GENSYNC_SEED", "999")
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    monkeypatch.delenv("GENSYNC_SEED")
    base = BenchConfig(protocol=ProtocolId.IBLT, set_size=300, diff_count=40, repeat=2, rng_seed=999,
                       latency_ms=5, cpu_server=100, cpu_client=100)
    obs, _ = run_benchmark(base)
    csv_bytes = [int(l.split(",")[5]) for l in out1.read_text().splitlines() if l and not l.startswith(("#", "run_"))]
    assert csv_bytes == [o.bytes_transmitted for o in obs]
    assert out2.exists() is False


# -- sync --------------------------------------------------------------------


def test_sync_identical_files(tmp_path, capsys):
    values = set(range(100, 120))
    results, _, _ = run_pair(tmp_path, "iblt", values, values)
    assert results == {"server": 0, "client": 0}
    out_lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    payloads = [json.loads(l) for l in out_lines]
    assert all(p["success"] for p in payloads)
    assert all(p["differences_recovered"] == 0 for p in payloads)


def test_sync_cpi_apply_unifies_files(tmp_path):
    common = set(range(1000, 1090))
    a = common | {5, 6, 7, 8, 9}
    b = common | {70001, 70002, 70003, 70004, 70005}
    results, file_a, file_b = run_pair(tmp_path, "cpi", a, b, extra=["--mbar", "16"])
    assert results == {"server": 0, "client": 0}
    assert read_elements(file_a) == read_elements(file_b) == a | b


def test_sync_protocol_mismatch_exits_three_both_sides(tmp_path, capsys):
    port = free_port()
    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    write_elements(file_a, {1, 2})
    write_elements(file_b, {1, 2})
    results = {}

    def serve():
        results["server"] = main(
            ["sync", "--role", "server", "--addr", f"127.0.0.1:{port}", "--protocol", "cpi",
             "--input", str(file_b)]
        )

    t = threading.Thread(target=serve)
    t.start()
    results["client"] = main(
        ["sync", "--role", "client", "--addr", f"127.0.0.1:{port}", "--protocol", "iblt",
         "--input", str(file_a)]
    )
    t.join()
    assert results == {"server": 3, "client": 3}
    err = capsys.readouterr().err
    assert "error[sync]:" in err


def test_sync_unreachable_peer_exits_four(tmp_path, capsys):
    file_a = tmp_path / "a.txt"
    write_elements(file_a, {1})
    port = free_port()  # nothing listens here
    code = main(
        ["sync", "--role", "client", "--addr", f"127.0.0.1:{port}", "--protocol", "iblt",
         "--input", str(file_a)]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error[connect]:")


def test_sync_malformed_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("12\nnot-a-number\n")
    code = main(
        ["sync", "--role", "client", "--addr", "127.0.0.1:1", "--protocol", "iblt",
         "--input", str(bad)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error[config]:")


def test_loopback_tcp_bytes_match_in_memory_benchmark(tmp_path, capsys):
    # same workload through the benchmark channel and over real TCP
    from gensync.benchmark import generate_workload

    server_set, client_set = generate_workload(300, 40, 0.5, seed=11)
    cfg = BenchConfig(protocol=ProtocolId.IBLT, set_size=300, diff_count=40, repeat=1, rng_seed=11)
    obs, _ = run_benchmark(cfg)

    results, file_a, file_b = run_pair(
        tmp_path, "iblt", client_set, server_set, extra=["--expected-diffs", "40"], apply=False
    )
    assert results == {"server": 0, "client": 0}
    payloads = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert {p["bytes_transmitted"] for p in payloads} == {obs[0].bytes_transmitted}
