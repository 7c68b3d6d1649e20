"""Every name that the benchmark's tracer rebinds still exists.

`perfbench/tracer.py` replaces each `Class.method` of its TARGETS in the
class `__dict__` and each plain function in its module.  A deleted or renamed
target stops the tracer from installing, so every traced benchmark round
fails; this test names the target instead.  It reads TARGETS and changes
nothing.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert tracer.TARGETS
    assert missing == []
