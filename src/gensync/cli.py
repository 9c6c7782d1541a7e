"""Command-line entry points: run benchmark configs, or sync two machines.

Exit codes: 0 success; 1 configuration or input errors; 2 benchmark
completed with some failed repeats (CSV still written); 3 sync failure,
including handshake aborts; 4 peer unreachable. Every error path prints a
single machine-greppable line of the form ``error[<code>]: message`` to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .benchmark import OVERRIDE_KEYS, emit_csv, parse_config, run_benchmark
from .core import Builder
from .errors import ConfigError, GenSyncError, TransportError
from .hashing import MASK64
from .params import ProtocolId, ProtocolParams, SyncRole, read

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_SYNC = 3
EXIT_UNREACHABLE = 4


def _error(code: str, message: str) -> None:
    print(f"error[{code}]: {message}", file=sys.stderr)


def _env_seed():
    raw = os.environ.get("GENSYNC_SEED")
    return None if raw is None else read("rng_seed", raw, "GENSYNC_SEED")


def cmd_bench(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        seed = _env_seed()
        if seed is not None:
            cfg.rng_seed = seed
    except OSError as exc:
        _error("config", f"cannot read {args.config}: {exc}")
        return EXIT_CONFIG
    except ConfigError as exc:
        _error("config", str(exc))
        return EXIT_CONFIG

    observations, stats = run_benchmark(cfg)

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                emit_csv(observations, stats, fh)
        else:
            emit_csv(observations, stats, sys.stdout)
    except OSError as exc:
        _error("io", f"cannot write {args.out}: {exc}")
        return EXIT_CONFIG

    if stats.success_count < stats.repeat:
        _error("sync", f"{stats.repeat - stats.success_count} of {stats.repeat} repeats failed")
        return EXIT_PARTIAL
    return EXIT_OK


def _read_elements(path: str) -> set[int]:
    elements = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: not a decimal identifier: {text!r}") from None
            if not 0 <= value <= MASK64:
                raise ConfigError(f"{path}:{lineno}: identifier out of 64-bit range")
            elements.add(value)
    return elements


def _split_address(addr: str):
    host, sep, port = addr.rpartition(":")
    if not sep:
        raise ConfigError(f"address must be host:port, got {addr!r}")
    return host, read("port", port)


def cmd_sync(args) -> int:
    try:
        host, port = _split_address(args.addr)
        elements = _read_elements(args.input)
        overrides = {
            attr: getattr(args, key)
            for key, attr in OVERRIDE_KEYS.items()
            if getattr(args, key, None) is not None
        }
        seed = _env_seed()
        if seed is not None:
            overrides["rng_seed"] = seed
        params = ProtocolParams(**overrides)
        role = SyncRole.parse(args.role)
        gs = (
            Builder()
            .set("protocol", args.protocol)
            .set("communicant", "socket")
            .set("role", role)
            .set("host", host)
            .set("port", port)
            .set("protocol-params", params)
            .build()
        )
    except OSError as exc:
        _error("input", f"cannot read {args.input}: {exc}")
        return EXIT_CONFIG
    except ConfigError as exc:
        _error("config", str(exc))
        return EXIT_CONFIG

    for value in elements:
        gs.add_element(value)
    initial = gs.elements

    try:
        ok = gs.sync_begin()
    except TransportError as exc:
        # raised only while opening the channel; mid-sync transport trouble
        # surfaces as a failed outcome instead
        _error("connect", str(exc))
        return EXIT_UNREACHABLE
    except GenSyncError as exc:
        _error("sync", str(exc))
        return EXIT_SYNC
    finally:
        gs.close()

    observation = gs.get_observation()
    print(json.dumps(observation.as_dict()))

    if ok and args.apply:
        learned = sorted(gs.elements - initial)
        if learned:
            try:
                with open(args.input, "a", encoding="utf-8", newline="\n") as fh:
                    for value in learned:
                        fh.write(f"{value}\n")
            except OSError as exc:
                _error("io", f"cannot append to {args.input}: {exc}")
                return EXIT_CONFIG

    if not ok:
        _error("sync", observation.failure_reason or "sync failed")
        return EXIT_SYNC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gensync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark config and emit CSV")
    bench.add_argument("--config", required=True, help="path to the key=value config script")
    bench.add_argument("--out", help="CSV output path (default: standard output)")
    bench.set_defaults(func=cmd_bench)

    sync = sub.add_parser("sync", help="run one TCP sync with a remote peer")
    sync.add_argument("--role", required=True, choices=("server", "client"))
    sync.add_argument("--addr", required=True, help="host:port to listen on or connect to")
    sync.add_argument("--protocol", required=True, choices=[p.name.lower() for p in ProtocolId])
    sync.add_argument("--mbar", type=int, help="CPI difference bound")
    sync.add_argument("--expected-diffs", type=int, help="IBLT provisioning")
    sync.add_argument("--fingerprint-bits", type=int, help="cuckoo fingerprint width")
    sync.add_argument("--input", required=True, help="newline-delimited decimal 64-bit identifiers")
    sync.add_argument("--apply", action="store_true", help="append received elements to the input file")
    sync.set_defaults(func=cmd_sync)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
