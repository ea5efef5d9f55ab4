"""The benchmark tracer still finds every module binding it wraps.

perfbench/smoke.py's ``check_tracer`` fails when a traced binding is gone,
which a refactor of the package can do silently; running it here makes that
a tier-1 failure rather than a benchmark one.
"""

import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "smoke.py")


def test_tracer_wraps_and_restores_every_traced_binding(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # check_tracer prepends to it
    spec = importlib.util.spec_from_file_location("perfbench_smoke", _PATH)
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    try:
        smoke.check_tracer()
    except SystemExit as exc:
        pytest.fail(str(exc))
    finally:
        sys.modules.pop("tracer", None)  # the harness module check_tracer imports
