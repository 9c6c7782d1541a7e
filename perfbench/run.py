"""Sync benchmark: CPI, IBLT and cuckoo on the same seeded inputs.

    python3 perfbench/run.py --workload large-sets --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; gensync is imported from ``src``. The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` syncs, and the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The result, and the span dump of a traced run, are also written under
``perfbench/results``. Exits 1 when a sync breaks an oracle rule or a
thread or listener outlives the run, 2 when gensync cannot be imported.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("large-sets", "many-diffs", "churn")
# documented turns per sync: two request/response turns, no retries
TURNS_PER_SYNC = 2
CLOSE_TIMEOUT_S = 10.0


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime, in clock ticks since boot
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_gensync():
    """Import gensync from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gensync
    except ImportError as exc:
        print(f"error: cannot import gensync from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(gensync.__file__).resolve().parent != (src / "gensync").resolve():
        print(f"error: gensync resolved to {gensync.__file__}, outside {src}", file=sys.stderr)
        sys.exit(2)
    return gensync


def median(values) -> float:
    """The median, or 0 for a run that ended as incorrect before any sample."""
    return statistics.median(values) if values else 0.0


def end_to_end(record, setup_s: float) -> dict:
    out = {"setup_s": (setup_s, "s"), "ingest_ops_per_s": (median(record.ingest_rates), "ops/s")}
    for protocol in record.sync_s:
        key = protocol.lower()
        out[f"{key}.sync_s"] = (median(record.sync_s[protocol]), "s")
        out[f"{key}.bytes"] = (median(record.bytes[protocol]), "bytes")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def modeled_totals(record, presets) -> list[str]:
    """Each protocol's total time on an emulated link, from measured figures.

    The link formula of the repo README, turns * latency + bytes * 8 /
    (bandwidth * (1 - loss)), plus the measured sync seconds for the
    computation of both peers. The presets have one bandwidth for both
    directions, so the bytes of both directions share it.
    """
    lines = []
    for label, link in presets.items():
        if link.bandwidth_up_mbps != link.bandwidth_down_mbps:
            raise ValueError(f"{label}: the model here needs a symmetric link")
        for protocol, seconds in record.sync_s.items():
            comm = TURNS_PER_SYNC * link.latency_ms / 1000.0 + median(record.bytes[protocol]) * 8 / (
                link.bandwidth_up_mbps * 1e6 * (1.0 - link.packet_loss)
            )
            total = comm + median(seconds)
            lines.append(f"model {label} {protocol.lower()}: total_s={total:.4f} communication_s={comm:.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_gensync()
    sys.path.insert(0, str(HERE))
    import oracle
    import probes
    import workloads
    from gensync.benchmark import BAD_NETWORK, GOOD_NETWORK
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        probes.install(tracer)

    setup = {}

    def on_first_timed():
        setup["s"] = process_age()

    harness = workloads.Harness(tracer, on_first_timed)
    run = getattr(workloads, args.workload.replace("-", "_"))
    problem = None
    try:
        run(harness, args.seed, time.perf_counter() + args.seconds)
    except workloads.WrongResult as exc:
        problem = f"incorrect: {exc}"
    finally:
        if tracer is not None:
            tracer.unpatch()
        left = harness.close(CLOSE_TIMEOUT_S)

    record = harness.record
    params = workloads.params_for(None)
    rate = oracle.cuckoo_rate(params.cuckoo_bucket_size, params.cuckoo_fingerprint_bits)
    if problem is None and oracle.check_missed_total(record.cuckoo_missed, record.cuckoo_diffs, rate):
        problem = (
            f"incorrect: {record.cuckoo_missed} of {record.cuckoo_diffs} cuckoo differences "
            f"undiscovered, beyond the tail bound at rate {rate}"
        )

    if tracer is None:
        metrics = end_to_end(record, setup["s"])
        for line in modeled_totals(record, {"GOOD_NETWORK": GOOD_NETWORK, "BAD_NETWORK": BAD_NETWORK}):
            print(line)
    else:
        metrics = probes.derive(tracer, record)
    result = {
        "correct": problem is None,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}.spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    if problem:
        print(problem, file=sys.stderr)
    for item in left:
        print(f"error: {item}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if problem is None and not left else 1


if __name__ == "__main__":
    sys.exit(main())
