"""Seeded workloads and the two-thread harness that drives them.

Everything runs in one process: the client on the main thread and the
server on one long-lived worker thread. Only the public API of gensync
is used to build peers, load them and sync them. Inputs come from the
benchmark's own ``random.Random``, seeded from the workload name, the
``--seed`` argument and the round number, and every sync is checked by
``oracle`` against sets the benchmark tracks itself.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field

import oracle
from gensync import Builder, ProtocolParams, memory_channel_pair

PROTOCOLS = ("CPI", "IBLT", "CUCKOO")

# IBLT provisioning used by every workload. At the library's default
# hedge 2.0 and 4 hashes, peeling fails on about 0.3% of syncs at 50 to
# 64 differences (two keys that share all four cells never peel), so a
# run's failure count would depend on the seed. With hedge 3.0 and 6
# hashes, all of 170,000 seeded pairs at 50 and at 60 differences peeled.
IBLT_PROVISIONING = {"iblt_hedge": 3.0, "iblt_num_hashes": 6}

LARGE_SETS = {"set_size": 100_000, "diffs": 50}
MANY_DIFFS = {"set_size": 2_000, "diffs": 150}
# per round: each side adds `add` fresh identifiers and drops `drop`
# shared ones the other side keeps (4 * 15 = 60 differences), and both
# sides expire the same `expire` shared ones, which holds the set size steady
CHURN = {"set_size": 20_000, "add": 15, "drop": 15, "expire": 30}

SYNC_TIMEOUT_S = 120.0


class WrongResult(Exception):
    """A sync broke an oracle rule; the run ends as incorrect."""


class ServerThread:
    """The one worker thread; it runs the server side of each sync."""

    def __init__(self):
        self._jobs: queue.Queue = queue.Queue()
        self._done: queue.Queue = queue.Queue()
        self.thread = threading.Thread(target=self._serve, name="bench-server")
        self.thread.start()

    def _serve(self):
        while True:
            peer = self._jobs.get()
            if peer is None:
                return
            try:
                self._done.put((True, peer.sync_begin()))
            except Exception as exc:  # handed to the main thread, which re-raises
                self._done.put((False, exc))

    def begin(self, peer) -> None:
        self._jobs.put(peer)

    def result(self) -> bool:
        ok, value = self._done.get(timeout=SYNC_TIMEOUT_S)
        if not ok:
            raise value
        return value

    def stop(self, timeout: float) -> bool:
        """Ask the thread to end and join it; True when it has ended."""
        self._jobs.put(None)
        self.thread.join(timeout)
        return not self.thread.is_alive()


@dataclass
class Record:
    """What a run measured, in the units it reports."""

    sync_s: dict = field(default_factory=lambda: {p: [] for p in PROTOCOLS})
    bytes: dict = field(default_factory=lambda: {p: [] for p in PROTOCOLS})
    # ops per second of each ingestion call: one peer's adds and removes
    ingest_rates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cuckoo_missed: int = 0
    cuckoo_diffs: int = 0
    # per sync, for the traced run: sync id -> (protocol, elements of both peers)
    syncs: dict = field(default_factory=dict)


def build_peer(protocol, params, communicant, **tcp):
    b = Builder().set("protocol", protocol).set("communicant", communicant)
    for key, value in tcp.items():
        b.set(key, value)
    return b.set("protocol-params", params).build()


def memory_pair(protocol, params):
    client_end, server_end = memory_channel_pair()
    return build_peer(protocol, params, client_end), build_peer(protocol, params, server_end)


class Harness:
    def __init__(self, tracer=None, on_first_timed=None):
        self.tracer = tracer
        self.record = Record()
        self.server = ServerThread()
        self.tcp_peers: list = []
        self._on_first_timed = on_first_timed

    def tcp_pair(self, protocol, params):
        """A pair over loopback TCP; ``close`` closes it and checks its listener."""
        server = build_peer(protocol, params, "socket", role="server", host="127.0.0.1", port=0)
        client = build_peer(
            protocol, params, "socket", role="client", host="127.0.0.1", port=server.bound_port
        )
        self.tcp_peers += [client, server]
        return client, server

    def ingest(self, peer, adds=(), removes=()) -> None:
        if self._on_first_timed is not None:
            self._on_first_timed()
            self._on_first_timed = None
        add, remove = peer.add_element, peer.remove_element
        start = time.perf_counter()
        for x in adds:
            add(x)
        for x in removes:
            remove(x)
        self.record.ingest_rates.append((len(adds) + len(removes)) / (time.perf_counter() - start))

    def exchange(self, client, server) -> tuple[bool, float]:
        """Run one sync, the server on the worker; (both succeeded, seconds).

        The time runs from the client's ``sync_begin`` call until both
        sides have returned.
        """
        self.server.begin(server)
        start = time.perf_counter()
        ok_client = client.sync_begin()
        ok_server = self.server.result()
        return ok_client and ok_server, time.perf_counter() - start

    def sync(self, protocol, client, server, before_client, before_server, carried=frozenset()):
        """Sync a pair, check it, and return the peers' sets afterwards.

        ``carried`` holds differences an earlier sync of this pair left
        undiscovered (see ``oracle.missed``).
        """
        rec = self.record
        sync_id = rec.attempted
        if self.tracer is not None:
            self.tracer.begin_sync(sync_id)
        ok, elapsed = self.exchange(client, server)
        if self.tracer is not None:
            self.tracer.end_sync()

        rec.attempted += 1
        if not ok:
            rec.failed += 1
        obs_client, obs_server = client.get_observation(), server.get_observation()
        after_client, after_server = client.elements, server.elements
        broken = oracle.check_sync(
            protocol, before_client, before_server, after_client, after_server, obs_client, obs_server
        )
        if broken:
            raise WrongResult(f"{protocol} sync {sync_id}: {', '.join(broken)}")
        missed, diffs = oracle.missed(before_client, before_server, after_client, after_server, carried)
        if protocol == "CUCKOO":
            rec.cuckoo_missed += missed
            rec.cuckoo_diffs += diffs
        rec.sync_s[protocol].append(elapsed)
        rec.bytes[protocol].append(obs_client.bytes_transmitted)
        rec.syncs[sync_id] = (protocol, len(before_client) + len(before_server))
        return after_client, after_server

    def close(self, timeout: float) -> list[str]:
        """Close every peer and end the worker; returns what was left open."""
        left = []
        if not self.server.stop(timeout):
            left.append("server thread still running")
        for peer in self.tcp_peers:
            peer.close()
            if peer.bound_port is not None:
                left.append(f"listener on port {peer.bound_port} still open")
        extra = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
        if extra:
            left.append(f"threads still running: {extra}")
        return left


# ---------------------------------------------------------------------------
# input generation


def draw(rng: random.Random, count: int, taken: set) -> list[int]:
    """``count`` new 64-bit identifiers, distinct even after CPI's reduction."""
    out = []
    while len(out) < count:
        x = rng.getrandbits(64)
        r = x % oracle.CPI_MODULUS
        if r not in taken:
            taken.add(r)
            out.append(x)
    return out


def fresh_inputs(rng: random.Random, set_size: int, diffs: int):
    """Two peers of ``set_size`` elements with ``diffs`` differences split evenly."""
    half = diffs // 2
    ids = draw(rng, set_size + diffs - half, set())
    common = ids[: set_size - half]
    client = common + ids[set_size - half : set_size]
    server = common + ids[set_size:]
    return client, server


def views(protocol: str, ids) -> set:
    return {oracle.view(protocol, x) for x in ids}


def params_for(diffs: int | None) -> ProtocolParams:
    """Bounds provisioned to ``diffs``, or the library defaults for None."""
    bounds = {} if diffs is None else {"cpi_mbar": diffs, "iblt_expected_diffs": diffs}
    return ProtocolParams(**bounds, **IBLT_PROVISIONING)


def sync_fresh(h: Harness, client_ids, server_ids, diffs: int) -> None:
    """Sync the same inputs with each protocol, each on a fresh memory pair."""
    params = params_for(diffs)
    as_is = set(client_ids), set(server_ids)
    for protocol in PROTOCOLS:
        client, server = memory_pair(protocol, params)
        h.ingest(client, client_ids)
        h.ingest(server, server_ids)
        before = (views(protocol, client_ids), views(protocol, server_ids)) if protocol == "CPI" else as_is
        h.sync(protocol, client, server, *before)
        client.close()
        server.close()


# ---------------------------------------------------------------------------
# workloads: each runs whole rounds of the same syncs


def rounds(deadline: float):
    """Round numbers, for as many whole rounds as fit before ``deadline``.

    A round starts when one of the mean length so far would end by the
    deadline; the first round always runs.
    """
    start = time.perf_counter()
    r = 0
    while True:
        yield r
        r += 1
        now = time.perf_counter()
        if now + (now - start) / r > deadline:
            return


def large_sets(h: Harness, seed: int, deadline: float) -> None:
    n, d = LARGE_SETS["set_size"], LARGE_SETS["diffs"]
    for r in rounds(deadline):
        rng = random.Random(f"large-sets/{seed}/{r}")
        client_ids, server_ids = fresh_inputs(rng, n, d)
        sync_fresh(h, client_ids, server_ids, d)


def many_diffs(h: Harness, seed: int, deadline: float) -> None:
    n, d = MANY_DIFFS["set_size"], MANY_DIFFS["diffs"]
    for r in rounds(deadline):
        rng = random.Random(f"many-diffs/{seed}/{r}")
        client_ids, server_ids = fresh_inputs(rng, n, d)
        sync_fresh(h, client_ids, server_ids, d)


def churn(h: Harness, seed: int, deadline: float) -> None:
    """One long-lived TCP pair per protocol, synced after every round of writes."""
    rng = random.Random(f"churn/{seed}")
    taken: set = set()
    base = draw(rng, CHURN["set_size"], taken)
    params = params_for(None)
    pairs = {}
    state = {}  # protocol -> [client set, server set], in the protocol's view
    for protocol in PROTOCOLS:
        client, server = h.tcp_pair(protocol, params)
        h.ingest(client, base)
        h.ingest(server, base)
        pairs[protocol] = (client, server)
        state[protocol] = [views(protocol, base), views(protocol, base)]
    shared = list(base)  # identifiers every peer of every pair holds

    for r in rounds(deadline):
        rng = random.Random(f"churn/{seed}/{r}")
        fresh_client = draw(rng, CHURN["add"], taken)
        fresh_server = draw(rng, CHURN["add"], taken)
        picked = [shared.pop(rng.randrange(len(shared))) for _ in range(2 * CHURN["drop"] + CHURN["expire"])]
        drop_client = picked[: CHURN["drop"]]
        drop_server = picked[CHURN["drop"] : 2 * CHURN["drop"]]
        expire = picked[2 * CHURN["drop"] :]
        for protocol in PROTOCOLS:
            client, server = pairs[protocol]
            mine, theirs = state[protocol]
            carried = mine ^ theirs  # cuckoo differences earlier syncs left undiscovered
            h.ingest(client, fresh_client, drop_client + expire)
            h.ingest(server, fresh_server, drop_server + expire)
            mine |= views(protocol, fresh_client)
            mine -= views(protocol, drop_client + expire)
            theirs |= views(protocol, fresh_server)
            theirs -= views(protocol, drop_server + expire)
            state[protocol] = [set(s) for s in h.sync(protocol, client, server, mine, theirs, carried)]
        # identifiers of this round that every peer now holds become shared
        for x in fresh_client + fresh_server + drop_client + drop_server:
            if all(oracle.view(p, x) in s for p in PROTOCOLS for s in state[p]):
                shared.append(x)

