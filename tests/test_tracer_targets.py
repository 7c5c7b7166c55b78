"""The benchmark's span tracer wraps module attributes by name: they must exist.

``perfbench/tracer.py`` replaces attributes such as ``ggm.solve_threshold``
(kept in ``ggm`` only for the tracer) during a traced run; a rename or a
removed import there would otherwise show only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """``perfbench/tracer.py`` loaded by file path under a private module name."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    targets = _load_tracer()._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert targets
    assert missing == []
