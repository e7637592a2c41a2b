"""Time to verdict for hopfspan presentations, end to end and per layer.

    python3 perfbench/run.py --workload group-algebra --seed 1 --seconds 30 --trace 0

One client in one process and one thread decides each item before it
starts the next (a closed loop).  Items call hopfspan's public entry
points in-process: ``hopfspan.cli.main`` on generated files, or the
``hopf_structures`` API for the polyad workload.  Every verdict is
compared with the answer ``inputs.py`` fixed by construction; a wrong
exit code, status, law name or count, or an exception, is a failed item
and never stops the run.

A run is a whole number of passes over the workload's items, each
preceded by set-up rounds: import hopfspan afresh and write the inputs.
The pass count comes from ``--seconds`` and each workload's pass time at
the commit that defined the benchmark, not from the clock, so every
commit times the same decisions, and a faster commit finishes sooner
instead of shifting which item the tail percentile lands on.  Every
pass decides every item once; ``gc.collect()`` runs, untimed, before
each decision: without it successive passes in one process drifted by
15-20%.

Times are reference seconds (``refclock.py``): wall time scaled by how
fast a fixed piece of Python work runs while it is measured, because the
machines this runs on share their cores and their speed swings by a
factor of two.  p50 is the median over items of each item's median
time, the tail is taken over all decisions of the run,
``decided_per_s`` is the decisions over their summed times, and
``setup_s`` the median set-up round.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics, writes the spans to ``.perfbench/`` in the checkout
and prints the self-time table.  See ``METRICS.md``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from refclock import RefClock, WallClock  # noqa: E402

# Seconds a pass counts for when --seconds is turned into passes: about
# a pass's wall time at the commit that defined the benchmark (Python
# 3.11.7, 2 cores, a busy host), but 4.0 for polyad's 2-2.5 s, which
# still gives 80 decisions, so that all runs stay short.
PASS_SECONDS = {"group-algebra": 9.5, "wide-shape": 10.5, "polyad": 4.0}
TAIL_BEYOND = 10
# Set-up rounds per run, spread over its passes.
SETUP_ROUNDS = 15
# Stop starting passes after this long, so a much slower commit still
# finishes within the time a run is allowed.
TIME_CAP_S = 120.0


class SetupError(Exception):
    """The checkout holds no usable hopfspan."""


def import_hopfspan():
    """Import hopfspan afresh from the checkout's src; returns the layer
    modules by name."""
    for name in [m for m in sys.modules if m.split(".")[0] == "hopfspan"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {layer: importlib.import_module("hopfspan." + layer)
                   for layer in tracing.LAYERS}
    except ImportError as error:
        raise SetupError("cannot import hopfspan from %s: %s" % (SRC, error))
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError("hopfspan was imported from %s, not from %s"
                         % (origin, SRC))
    return modules


def setup(workload, seed, workdir, clock=None):
    """Import hopfspan afresh and write the seeded inputs; returns the
    modules, the items and the seconds this took on clock."""
    clock = clock or WallClock()
    gc.collect()
    with clock.timing() as timed:
        modules = import_hopfspan()
        items, files = inputs.generate(workload, seed)
        for name, text in files.items():
            (workdir / name).write_text(text)
    return modules, items, timed.seconds


# ---------------------------------------------------------------------------
# Deciding one item.


def _cli(modules, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = modules["cli"].main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue()


def _monoid(spec):
    mul = {(a, b): ab for a, b, ab in spec["table"]}
    return spec["elements"], mul, spec["unit"]


def prepare(item, workdir):
    """The argument lists of a CLI item, built outside the timed call."""
    a = item["args"]
    path = lambda name: str(workdir / name)  # noqa: E731
    if item["op"] == "cli-check":
        return [["check", path(a["file"]), "--format", "json"] + a["flags"]]
    if item["op"] == "cli-antipode":
        return [["antipode", path(a["file"]), "--format", "json"]]
    if item["op"] == "cli-roundtrip":
        return [["export-polyad", path(a["file"]), "--probes",
                 path(a["probes"]), "--output", path(a["output"]),
                 "--format", "json"],
                ["check", path(a["output"]), "--format", "json"]]
    return None


def decide(modules, item, argvs):
    """Run one item; what it returns is judged by verify()."""
    if argvs is not None:
        return [_cli(modules, argv) for argv in argvs]
    hs = modules["hopf_structures"]
    a = item["args"]
    elements, mul, unit = _monoid(a["monoid"])
    if item["op"] == "polyad-is-hopf":
        if a["polyad"] == "identity":
            fiber = hs.discrete_monoidal_group(elements, mul, unit)
            return hs.polyad_is_hopf(hs.identity_polyad(elements, mul, unit,
                                                        fiber))
        fiber = hs.indiscrete_monoidal_group(elements, mul, unit)
        return hs.polyad_is_hopf(hs.translation_opmonoidal(elements, mul,
                                                           unit, fiber))
    fiber = hs.indiscrete_monoidal_group(elements, mul, unit)
    polyad = hs.translation_polyad(elements, mul, unit, fiber)
    return hs.em_algebras_restricted(polyad, a["kind"])


def _check_report(code, text, expect):
    if code != expect["exit"]:
        return "exit code %r, expected %r" % (code, expect["exit"])
    report = json.loads(text)
    status = {c["name"]: c["status"] for c in report["checks"]}
    if status != expect["status"]:
        return "statuses %r, expected %r" % (status, expect["status"])
    for check in report["checks"]:
        laws = sorted({law for law, _ in check.get("failures", [])})
        if laws != expect["laws"].get(check["name"], []):
            return "%s failed %r" % (check["name"], laws)
        dets = check.get("fusion_determinants")
        if dets is not None and "fusion_pairs" in expect:
            for side in ("left", "right"):
                if len(dets[side]) != expect["fusion_pairs"]:
                    return "%d %s fusion components, expected %d" % (
                        len(dets[side]), side, expect["fusion_pairs"])
                if any(det in (None, "0") for _, det in dets[side]):
                    return "a %s fusion determinant is not invertible" % side
    return None


def verify(modules, item, result):
    """None when the verdict is the expected one, else what differs."""
    expect, op = item["expect"], item["op"]
    if op == "cli-check":
        return _check_report(*result[0], expect)
    if op == "cli-antipode":
        code, text = result[0]
        if code != expect["exit"]:
            return "exit code %r" % (code,)
        if json.loads(text)["sigma"] != expect["sigma"]:
            return "antipode differs from the inversion map"
        return None
    if op == "cli-roundtrip":
        code, _ = result[0]
        if code != 0:
            return "export-polyad exit code %r" % (code,)
        return _check_report(*result[1], expect)
    if op == "polyad-is-hopf":
        if bool(result) != expect["hopf"]:
            return "polyad_is_hopf gave %r" % (bool(result),)
        if not result and result.witness[0] != expect["witness"]:
            return "witness %r" % (result.witness,)
        return None
    if not result.report.ok:
        return "comparison failed: %s" % result.report.summary()
    counts = (len(list(result.algebras.objects)),
              len(list(result.algebras.morphisms)))
    if counts != (expect["objects"], expect["morphisms"]):
        return "counted %r" % (counts,)
    identity = modules["cat_backend"].FunctorData.identity(result.enumerated)
    if result.forward.then(result.backward) != identity:
        return "forward then backward is not the identity"
    return None


def decide_once(modules, item, workdir, clock):
    """Decide item once; returns its seconds on clock and what failed,
    or None."""
    argvs = prepare(item, workdir)
    problem = None
    with clock.timing() as timed:
        try:
            result = decide(modules, item, argvs)
        except Exception:
            problem = traceback.format_exc(limit=3)
    if problem is None:
        try:
            problem = verify(modules, item, result)
        except Exception:
            problem = traceback.format_exc(limit=3)
    return timed.seconds, problem


def run_pass(modules, items, workdir, tracer=None, clock=None):
    """Decide every item once; returns each decision's seconds on clock
    (wall seconds by default) and the failures."""
    clock = clock or WallClock()
    times, failures = [], []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        gc.collect()
        seconds, problem = decide_once(modules, item, workdir, clock)
        times.append(seconds)
        if problem is not None:
            failures.append((item["id"], problem))
    return times, failures


# ---------------------------------------------------------------------------
# Metrics.


def tail(samples):
    """The highest nearest-rank percentile with TAIL_BEYOND samples above
    it: (value, percentile, samples beyond)."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return (ordered[rank - 1], 100.0 * rank / len(ordered),
            len(ordered) - rank)


def passes_for(workload, seconds, n_items):
    wanted = max(1, round(seconds / PASS_SECONDS[workload]))
    return max(wanted, math.ceil((TAIL_BEYOND + 1) / n_items))


def measure(workload, seed, workdir, passes):
    """passes rounds of set-ups followed by one pass, in reference
    seconds; returns each pass's decision times in item order, the
    failures and the set-up times."""
    clock = RefClock()
    setups_per_pass = math.ceil(SETUP_ROUNDS / passes)
    setups, failures, times = [], [], []
    started = time.perf_counter()
    for _ in range(passes):
        for _ in range(setups_per_pass):
            modules, items, setup_s = setup(workload, seed, workdir, clock)
            setups.append(setup_s)
        pass_times, failed = run_pass(modules, items, workdir, clock=clock)
        times.append(pass_times)
        failures += failed
        if time.perf_counter() - started > TIME_CAP_S:
            break
    return times, failures, setups


def end_to_end(passes, setups):
    """The end-to-end metrics from each pass's decision times.  p50 is
    the median over items of each item's median time, so that it never
    falls in the gap between two items' decisions; the tail is taken
    over all decisions."""
    times = [t for pass_times in passes for t in pass_times]
    per_item = [statistics.median(ts) for ts in zip(*passes)]
    value, percentile, beyond = tail(times)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "verdict_s.p50": (statistics.median(per_item), "s"),
        "verdict_s.tail": (value, "s"),
        "decided_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (peak, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    note = ("verdict_s.tail is p%.1f of %d decisions, %d beyond it; "
            "set-up took %s s" % (percentile, len(times), beyond,
                                  " ".join("%.4f" % s for s in setups)))
    return metrics, note


def traced_run(workload, seed, workdir):
    clock = RefClock()
    modules, items, _ = setup(workload, seed, workdir)
    plain, failures = run_pass(modules, items, workdir, clock=clock)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        traced, failed = run_pass(modules, items, workdir, tracer, clock)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0,
                                      "ratio")
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.tsv.gz" % (workload, seed))
    tracer.write_spans(spans, [item["id"] for item in items])
    lines = ["self time by layer (%d spans in %s):"
             % (len(tracer.span_start), spans.relative_to(ROOT))]
    lines += ["  %-18s %9.4f s %6.1f%%" % (layer, secs, 100 * share)
              for layer, secs, share in tracer.self_time_table()]
    return plain + traced, failures + failed, metrics, "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            samples, failures, metrics, note = traced_run(
                args.workload, args.seed, workdir)
        else:
            n_items = len(inputs.generate(args.workload, args.seed)[0])
            passes = passes_for(args.workload, args.seconds, n_items)
            times, failures, setups = measure(args.workload, args.seed,
                                              workdir, passes)
            samples = [t for pass_times in times for t in pass_times]
            metrics, note = end_to_end(times, setups)
    except SetupError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for item_id, problem in failures[:5]:
        sys.stderr.write("FAILED %s: %s\n" % (item_id, problem))
    attempted = len(samples)
    print("%s seed %d: %d decisions, %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, attempted, len(failures),
             len(failures) / attempted))
    print(note)
    for name, (value, unit) in metrics.items():
        print("  %-45s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
