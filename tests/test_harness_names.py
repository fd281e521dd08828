"""The benchmark harness wraps library functions by name (perfbench/launch.py).

A name it lists that the library no longer has fails the benchmark run at
install time; this test fails first, in tier-1.  It only resolves the
names and installs no wrapper.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load("tracer")
    # launch.py imports its sibling as a top-level module.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    launch = _load("launch")
    assert launch.SPEC
    for module_name, attr, _span, _hook in launch.SPEC:
        owner, leaf = tracer.resolve(module_name, attr)
        assert callable(vars(owner)[leaf]), (module_name, attr)
