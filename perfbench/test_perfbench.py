"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_change_names_but_not_sizes(workload):
    items_a, files_a = inputs.generate(workload, 1)
    items_b, files_b = inputs.generate(workload, 2)
    assert files_a != files_b or workload == "polyad"
    assert items_a != items_b
    assert [(i["id"], i["op"], i["size"]) for i in items_a] == \
        [(i["id"], i["op"], i["size"]) for i in items_b]
    assert [i["expect"].get("status") for i in items_a] == \
        [i["expect"].get("status") for i in items_b]


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (value, percentile, beyond) == (30.0, 75.0, 10)


def test_pass_count_depends_on_seconds_only():
    assert run.passes_for("group-algebra", 30, 10) == 3
    assert run.passes_for("wide-shape", 1, 7) == 2


def test_refclock_samples_through_the_block_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock().timing() as timed:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    # one sample on each side and one per period in between
    assert len(timed.speeds) >= 2 + 0.05 / refclock.PERIOD_S
    assert 0.05 < timed.wall <= 0.1
    assert timed.seconds == pytest.approx(
        timed.wall * statistics.fmean(timed.speeds))
    assert signal.getsignal(signal.SIGALRM) is previous


@pytest.fixture(scope="module")
def polyad_trace(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("polyad")
    modules, items, _ = run.setup("polyad", 3, workdir)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        _, failures = run.run_pass(modules, items, workdir, tracer)
    finally:
        tracer.uninstall()
    return modules, tracer, failures


def test_polyad_makes_no_vect_backend_calls(polyad_trace):
    _, tracer, failures = polyad_trace
    assert failures == []
    vect = {name: n for name, n in tracer.calls.items()
            if name.startswith("vect_backend.")}
    assert vect and sum(vect.values()) == 0
    assert tracer.metrics()["vect_backend.compose_calls"] == (0, "count")
    assert tracer.calls["hopf_structures.polyad_is_hopf"] > 0


def test_uninstall_restores_every_binding(polyad_trace):
    modules, _, _ = polyad_trace
    hs = modules["hopf_structures"]
    assert not hasattr(hs.hcomp1, "__wrapped__")
    assert not hasattr(hs.eq2, "__wrapped__")
    assert not hasattr(modules["vect_backend"].VMorphism.__mul__,
                       "__wrapped__")


def test_aliases_are_patched_in_every_namespace(tmp_path):
    modules, _, _ = run.setup("polyad", 1, tmp_path)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        hs, spanv = modules["hopf_structures"], modules["spanv_core"]
        for name in ("hcomp1", "eq2", "invert_cell2"):
            assert getattr(hs, name) is getattr(spanv, name)
            assert hasattr(getattr(hs, name), "__wrapped__")
        assert modules["cli"].check_frobenius is \
            modules["monoidale_duoidal"].check_frobenius
        vm = modules["vect_backend"].VMorphism
        assert vm.__mul__ is vm.compose
    finally:
        tracer.uninstall()
