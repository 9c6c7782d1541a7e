"""Where the traced run wraps gensync, and the per-layer metrics it derives.

Each layer is a module of gensync. A wrapper is installed on the name
through which the calling module looks the function up, and removed
when the run ends. The ``benchmark`` and ``cli`` modules are not
wrapped: they repeat what the workloads do through the same ``core``
and ``transport`` calls.
"""

from __future__ import annotations

import importlib

from run import median as _median
from workloads import PROTOCOLS

SPAN_CLASS_METHODS = {
    # (module, class): {method: span name}
    ("cpi", "CpiSketch"): {"to_bytes": "cpi.codec", "from_bytes": "cpi.codec"},
    ("iblt", "Iblt"): {
        "subtract": "iblt.subtract",
        "peel": "iblt.peel",
        "to_bytes": "iblt.codec",
        "from_bytes": "iblt.codec",
    },
    ("cuckoo", "CuckooFilter"): {"to_bytes": "cuckoo.codec", "from_bytes": "cuckoo.codec"},
    ("transport", "MemoryEndpoint"): {"recv_frame": "transport.recv_frame"},
    ("transport", "TcpEndpoint"): {"recv_frame": "transport.recv_frame"},
}

SPAN_FUNCTIONS = {
    # (module looked up in, name): span name
    ("core", "run_client"): "session.run_client",
    ("core", "run_server"): "session.run_server",
    ("cpi", "make_sketch"): "cpi.make_sketch",
    ("cpi", "reconcile"): "cpi.reconcile",
    ("cpi", "rational_interpolate"): "field.rational_interpolate",
    ("cpi", "find_roots"): "field.find_roots",
    ("field", "poly_powmod"): "field.poly_powmod",
    ("iblt", "build_table"): "iblt.build_table",
    ("cuckoo", "build_filter"): "cuckoo.build_filter",
    ("cuckoo", "local_only"): "cuckoo.local_only",
}


def install(tracer) -> None:
    modules = {
        name: importlib.import_module(f"gensync.{name}")
        for name in ("core", "cpi", "cuckoo", "field", "iblt", "transport")
    }

    def on_sketch(sync, sketch):
        tracer.add("cpi.make_sketch_evals", sketch.set_size * len(sketch.evaluations), sync)

    def on_roots(sync, roots):
        tracer.add("field.roots_found", len(roots), sync)

    def on_table(sync, table):
        tracer.add("iblt.cells", table.num_cells, sync)
        tracer.add("iblt.tables", 1, sync)

    def on_filter(sync, cf):
        tracer.add("cuckoo.load", cf.occupancy / cf.capacity, sync)
        tracer.add("cuckoo.filters", 1, sync)

    callbacks = {
        "cpi.make_sketch": on_sketch,
        "field.find_roots": on_roots,
        "iblt.build_table": on_table,
        "cuckoo.build_filter": on_filter,
    }

    for (mod, name), span in SPAN_FUNCTIONS.items():
        tracer.patch(modules[mod], name, lambda fn, s=span: tracer.span(s, fn, callbacks.get(s)))
    for (mod, cls), methods in SPAN_CLASS_METHODS.items():
        owner = getattr(modules[mod], cls)
        for method, span in methods.items():
            tracer.patch(owner, method, lambda fn, s=span: tracer.span(s, fn))
    for cls in (modules["transport"].MemoryEndpoint, modules["transport"].TcpEndpoint):
        tracer.patch(cls, "send_frame", tracer.wire_send)
    for method in ("add_element", "remove_element"):
        tracer.patch(modules["core"].GenSync, method, lambda fn, m=method: tracer.timed_counter(f"core.{m}", fn))
    for mod in ("iblt", "cuckoo"):
        tracer.patch(modules[mod], "keyed_hash", lambda fn: tracer.counter("hashing.keyed_hash_calls", fn))


def derive(tracer, record) -> dict:
    """Per-layer metrics: name -> (value, unit).

    Times inside a sync are summed over both peers and reported as the
    median over the syncs of one protocol.
    """
    by_protocol = {p: [s for s, info in record.syncs.items() if info[0] == p] for p in PROTOCOLS}
    out = {}

    def per_sync_seconds(span, protocol):
        seconds = tracer.seconds_per_sync(span)
        return _median([seconds.get(s, 0.0) for s in by_protocol[protocol]])

    def per_sync_total(name, protocol):
        return _median([tracer.total(name, s) for s in by_protocol[protocol]])

    # core: time per call, from counters (one span per call would not fit)
    add_s, add_n = tracer.timed("core.add_element")
    rm_s, rm_n = tracer.timed("core.remove_element")
    out["core.add_element_s"] = (add_s / add_n, "s")
    out["core.ingest_call_s"] = ((add_s + rm_s) / (add_n + rm_n), "s")
    out["core.add_element_calls"] = (add_n, "count")
    out["core.remove_element_calls"] = (rm_n, "count")

    for p in PROTOCOLS:
        key = p.lower()
        out[f"session.run_client_s.{key}"] = (per_sync_seconds("session.run_client", p), "s")
        out[f"session.run_server_s.{key}"] = (per_sync_seconds("session.run_server", p), "s")
        out[f"transport.recv_wait_s.{key}"] = (per_sync_seconds("transport.recv_frame", p), "s")
        wires = [tracer.wire(s) for s in by_protocol[p]]
        for i, (name, unit) in enumerate(
            (("frames", "count"), ("bytes_up", "bytes"), ("bytes_down", "bytes"), ("turns", "count"))
        ):
            out[f"transport.{name}.{key}"] = (_median([w[i] for w in wires]), unit)

    out["cpi.make_sketch_s"] = (per_sync_seconds("cpi.make_sketch", "CPI"), "s")
    out["cpi.make_sketch_evals"] = (per_sync_total("cpi.make_sketch_evals", "CPI"), "count")
    out["cpi.reconcile_s"] = (per_sync_seconds("cpi.reconcile", "CPI"), "s")
    out["cpi.codec_s"] = (per_sync_seconds("cpi.codec", "CPI"), "s")

    out["field.rational_interpolate_s"] = (per_sync_seconds("field.rational_interpolate", "CPI"), "s")
    out["field.find_roots_s"] = (per_sync_seconds("field.find_roots", "CPI"), "s")
    powmod_calls = tracer.calls_per_sync("field.poly_powmod")
    powmods = [powmod_calls[s] for s in by_protocol["CPI"]]
    roots = [tracer.total("field.roots_found", s) for s in by_protocol["CPI"]]
    out["field.poly_powmod_calls"] = (_median(powmods), "count")
    out["field.roots_found"] = (_median(roots), "count")
    out["field.roots_per_powmod"] = (sum(roots) / max(1, sum(powmods)), "roots/call")

    out["iblt.build_table_s"] = (per_sync_seconds("iblt.build_table", "IBLT"), "s")
    out["iblt.subtract_s"] = (per_sync_seconds("iblt.subtract", "IBLT"), "s")
    out["iblt.peel_s"] = (per_sync_seconds("iblt.peel", "IBLT"), "s")
    out["iblt.codec_s"] = (per_sync_seconds("iblt.codec", "IBLT"), "s")
    out["iblt.cells"] = (
        _median([tracer.total("iblt.cells", s) / tracer.total("iblt.tables", s) for s in by_protocol["IBLT"]]),
        "count",
    )

    out["cuckoo.build_filter_s"] = (per_sync_seconds("cuckoo.build_filter", "CUCKOO"), "s")
    out["cuckoo.local_only_s"] = (per_sync_seconds("cuckoo.local_only", "CUCKOO"), "s")
    out["cuckoo.codec_s"] = (per_sync_seconds("cuckoo.codec", "CUCKOO"), "s")
    out["cuckoo.load"] = (
        _median([tracer.total("cuckoo.load", s) / tracer.total("cuckoo.filters", s) for s in by_protocol["CUCKOO"]]),
        "ratio",
    )
    out["cuckoo.missed_diffs"] = (record.cuckoo_missed / max(1, record.cuckoo_diffs), "ratio")

    for p in ("IBLT", "CUCKOO"):
        calls = sum(tracer.total("hashing.keyed_hash_calls", s) for s in by_protocol[p])
        elements = sum(record.syncs[s][1] for s in by_protocol[p])
        out[f"hashing.keyed_hash_per_element.{p.lower()}"] = (calls / elements, "calls/elem")

    for p in PROTOCOLS:
        out[f"traced.{p.lower()}.sync_s"] = (_median(record.sync_s[p]), "s")
    return out
