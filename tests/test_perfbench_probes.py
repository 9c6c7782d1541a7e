"""The traced benchmark wraps gensync functions by name; each must exist.

``perfbench/probes.py`` installs wrappers on module functions and class
methods of gensync and removes them when a traced run ends. A rename in
gensync would break only the traced run, so this installs the probes,
checks that every listed name was wrapped, and checks that removing
them restores every original.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import probes
    import spans
finally:
    sys.path.remove(PERFBENCH)

MODULES = {name: importlib.import_module(f"gensync.{name}") for name in ("core", "cpi", "cuckoo", "field", "iblt", "transport")}


def snapshot() -> dict:
    """Attributes of each gensync module and of each class defined there."""
    owners = list(MODULES.values())
    for module in MODULES.values():
        owners += [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    return {owner: dict(vars(owner)) for owner in owners}


def test_probes_wrap_every_listed_name_and_restore_it():
    before = snapshot()
    tracer = spans.Tracer()
    try:
        probes.install(tracer)
        during = snapshot()
    finally:
        tracer.unpatch()
    after = snapshot()

    wrapped = {
        (owner, name)
        for owner, attrs in before.items()
        for name, value in attrs.items()
        if during[owner].get(name) is not value
    }
    listed = {(MODULES[module], name) for module, name in probes.SPAN_FUNCTIONS}
    for (module, cls), methods in probes.SPAN_CLASS_METHODS.items():
        listed |= {(getattr(MODULES[module], cls), method) for method in methods}
    assert listed <= wrapped
    for owner, name in wrapped:
        assert after[owner][name] is before[owner][name], f"{owner.__name__}.{name} was not restored"
