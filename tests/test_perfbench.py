"""The benchmark still runs against the package.

perfbench/smoke.py's ``check_tracer`` fails when a traced binding is gone,
and a workload job fails when a library call it makes no longer matches the
package's signatures; either can follow silently from a refactor of the
package.  Running both here makes that a tier-1 failure rather than a
benchmark one.
"""

import importlib.util
import os
import sys

import pytest

_PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
_PATH = os.path.join(_PERFBENCH, "smoke.py")


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


@pytest.fixture
def workloads(monkeypatch):
    # sys.path and sys.modules come back as they were; the module is registered
    # while the test runs because dataclasses look their module up there
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(_PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tiny_workloads_pass_their_own_checks(workloads, tmp_path):
    for name in ("tensor", "norm", "cli"):
        w = workloads.build(name, seed=1, out_dir=str(tmp_path), tiny=True)
        for job in [w.warmup] + w.jobs:
            problem = job.check(job.run())
            assert problem is None, f"{name} {job.label}: {problem}"


def test_norm_workload_n3_jobs_pass_their_own_checks(workloads):
    # the tiny norm pass has no n = 3 job, so this is the one tier-1 run of the
    # benchmark's n = 3 checks: the Frobenius bound, and the floor that replays
    # schwarzian_norm_at at the sup's points, seed and starts
    jobs = [job for job in workloads.norm(seed=1).jobs if job.label.endswith("-n3")]
    assert len(jobs) == sum(workloads.NORM_MIX[3].values())
    for job in jobs:
        problem = job.check(job.run())
        assert problem is None, f"{job.label}: {problem}"
