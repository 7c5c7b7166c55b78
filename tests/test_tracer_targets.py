"""The benchmark's span tracer wraps module attributes by name: they must exist.

``perfbench/tracer.py`` replaces attributes such as ``ggm.solve_threshold``
(kept in ``ggm`` only for the tracer) during a traced run; a rename or a
removed import there would otherwise show only when the benchmark runs.
A wrapper counts only the calls made through the attribute, so the solve
and replay must keep calling those names rather than route around them.
"""

import importlib.util
import json
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
FIXTURE_DUMP = Path(__file__).resolve().parent / "fixtures" / "score_dump"


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


# the calls the tracer counts on the solve and replay path of a dump-mode run
ON_THE_CALL_PATH = [("ggm", "update_precision_eig"), ("ggm", "update_auxiliary"),
                    ("ggm", "penalized_objective"), ("nodes", "update_score")]


def test_a_dump_mode_run_calls_every_traced_name_on_its_path(tmp_path, monkeypatch):
    # wrapping an attribute counts a call only if the package calls it by that name
    from ggm_select import cli, ggm, nodes

    owners = {"ggm": ggm, "nodes": nodes}
    calls = {}
    for owner, name in ON_THE_CALL_PATH:
        original = getattr(owners[owner], name)

        def counted(*args, _name=f"{owner}.{name}", _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owners[owner], name, counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "dump", "dump": str(FIXTURE_DUMP), "h": 1, "tau": 0.1, "lambda": 1.0,
        "surrogate": {"kind": "geman", "params": {"epsilon": 0.5}},
        "solver": {"T": 5}, "selection": {"budget": 1},
    }))
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert sorted(calls) == sorted(f"{owner}.{name}" for owner, name in ON_THE_CALL_PATH)
    assert all(count > 0 for count in calls.values())
