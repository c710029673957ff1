"""The benchmark's tracer finds every function it wraps.

bench/tracer.py names the d2ssl functions it times by module and
attribute. A rename in d2ssl would leave a per-layer metric unmeasured
or stop a traced benchmark run, so every target must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            assert hasattr(owner, part), f"{target.module}.{target.attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}.{target.attr}"
