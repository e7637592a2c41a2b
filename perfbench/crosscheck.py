"""Cross-check the traced self-time shares against cProfile.

    python3 perfbench/crosscheck.py --workload wide-shape --seed 1

Runs one pass of the workload under cProfile, one under the tracer and
one under a sampling timer, on the same seed, and prints four share
tables: cProfile self time grouped by file; the same with every function
outside hopfspan charged to its hopfspan caller (the tracer's rule, which
puts ``fractions`` under ``vect_backend``); the tracer's layers; and the
share of CPU-time samples (one per 4 ms, the kernel tick) whose
innermost hopfspan frame is in each layer.  cProfile and the tracer both add a cost to every call, which
they try to take off again; the samples add none, so they settle where
the first two disagree.
"""

import argparse
import cProfile
import os
import pstats
import shutil
import signal
import sys
from collections import Counter

import run
import tracing


def _layer(filename):
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == "hopfspan":
        layer = parts[-1][:-3]
        return layer if layer in tracing.LAYERS else None
    return None


def profile_shares(stats):
    """(self time by file, self time by layer with callees outside
    hopfspan folded into their hopfspan callers)."""
    raw = stats.stats
    by_file = Counter()
    for (filename, _, _), (_, _, tt, _, _) in raw.items():
        by_file[os.path.basename(filename)] += tt
    by_layer = Counter()

    def charge(func, seconds, depth):
        layer = _layer(func[0])
        if layer is not None:
            by_layer[layer] += seconds
            return
        callers = raw[func][4] if func in raw else {}
        total = sum(v[2] for v in callers.values())
        if depth > 20 or not total:
            by_layer["(outside hopfspan)"] += seconds
            return
        for caller, values in callers.items():
            charge(caller, seconds * values[2] / total, depth + 1)

    for func, (_, _, tt, _, _) in raw.items():
        charge(func, tt, 0)
    return by_file, by_layer


def sampled_pass(modules, items, workdir, interval=0.004):
    """Layer of the innermost hopfspan frame at each CPU-time tick."""
    hits = Counter()

    def tick(signum, frame):
        while frame is not None:
            layer = _layer(frame.f_code.co_filename)
            if layer is not None:
                hits[layer] += 1
                return
            frame = frame.f_back

    previous = signal.signal(signal.SIGPROF, tick)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        _, failed = run.run_pass(modules, items, workdir)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return hits, failed


def _table(title, counter):
    total = sum(counter.values())
    lines = [title]
    for name, secs in counter.most_common():
        if secs / total >= 0.005:
            lines.append("  %-24s %6.1f%%" % (name, 100 * secs / total))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=run.inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workdir = run.OUT / ("crosscheck-%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        modules, items, _ = run.setup(args.workload, args.seed, workdir)
        profiler = cProfile.Profile()
        profiler.enable()
        _, failed = run.run_pass(modules, items, workdir)
        profiler.disable()
        by_file, by_layer = profile_shares(pstats.Stats(profiler))
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            _, failed_traced = run.run_pass(modules, items, workdir, tracer)
        finally:
            tracer.uninstall()
        samples, failed_sampled = sampled_pass(modules, items, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = len(failed) + len(failed_traced) + len(failed_sampled)
    print("%s seed %d, %d failed items" % (args.workload, args.seed,
                                           failures))
    print(_table("cProfile self time by file:", by_file))
    print(_table("cProfile self time by layer, callees folded:", by_layer))
    print(_table("tracer self time by layer:", Counter(tracer.self_s)))
    print(_table("%d CPU-time samples by layer:" % sum(samples.values()),
                 samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
