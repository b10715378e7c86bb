"""One cold pass of an offline workload, in its own interpreter.

Run by ``perfbench/run.py``, once per pass, the way the CLI runs: a
fresh process, so process-global state (the hierarchical timing model
cache, the simulation kernel counters) starts empty every pass.

    python3 perfbench/passrun.py --workload kms-csa --seed 1 --trace 0 \\
        --launched <epoch seconds> --workdir <dir> --out <file.json>

Writes one JSON document: ``setup_s`` (from ``--launched`` to inputs
built), ``pass_s``, per-operation seconds and errors -- all in
reference seconds (``speed.py``), with the raw wall clock beside them
-- the records the independent checks read, peak RSS, and, for
``--trace 1``, the per-layer metrics of this pass.  The span list goes
to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402 - needs the path above
from speed import MIN_PROBES, SpeedSampler, normalize  # noqa: E402


def main(argv=None) -> int:
    sampler = SpeedSampler().start()
    started = sampler.mark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    if tracer is not None:
        with tracer.span("setup"):
            ops = workloads.setup(args.workload, args.seed, args.workdir)
        # layer counts cover the timed operations only, like pass_s
        tracer.counts.clear()
    else:
        ops = workloads.setup(args.workload, args.seed, args.workdir)
    setup_raw = time.time() - args.launched
    setup_probe = (started, sampler.mark())

    from repro.sim.kernel import SimWorkTracker

    kernel = SimWorkTracker()
    results = []
    op_spans = []
    pass_mark = sampler.mark()
    start = time.perf_counter()
    for op in ops:
        index = tracer.open(f"op:{op.name}") if tracer is not None else -1
        op_mark = sampler.mark()
        t0 = time.perf_counter()
        try:
            raw, error = op.run(), None
        except Exception:
            raw, error = None, traceback.format_exc(limit=8)
        seconds = time.perf_counter() - t0
        probe = (op_mark, sampler.mark())
        if tracer is not None:
            tracer.close(index)
            op_spans.append(index)
        results.append((op, raw, error, seconds, probe))
    pass_raw = time.perf_counter() - start
    pass_spent, pass_mean = sampler.region(pass_mark)
    sampler.stop()
    kernel_counts = kernel.counters

    def scaled(raw_s, mark, end):
        spent, _ = sampler.region(mark, end)
        # an operation too short to see MIN_PROBES probes borrows the
        # speed of the ones just before it
        first = max(0, min(mark[0], end[0] - MIN_PROBES))
        return normalize(raw_s, spent, sampler.mean(first, end[0]))

    ops_out = []
    for op, raw, error, seconds, probe in results:
        record = None
        if error is None:
            try:
                record = op.record(raw)
            except Exception:
                error = traceback.format_exc(limit=8)
        ops_out.append({
            "name": op.name,
            "seconds": scaled(seconds, *probe),
            "raw_s": seconds,
            "error": error,
            "record": record,
        })

    out = {
        "setup_s": scaled(setup_raw, *setup_probe),
        "setup_raw_s": setup_raw,
        "pass_s": normalize(pass_raw, pass_spent, pass_mean),
        "pass_raw_s": pass_raw,
        "ops": ops_out,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import layers

        tracer.restore()
        selfs = tracer.self_times()
        metrics = layers.layer_metrics(
            tracer, kernel_counts, sum(selfs[i] for i in op_spans)
        )
        # span seconds in the same reference seconds as pass_s
        factor = normalize(1.0, 0.0, pass_mean)
        out["layers"] = {
            name: value * factor if layers.unit(name) == "s" else value
            for name, value in metrics.items()
        }
        out["unattributed"] = {
            tracer.spans[i][0][3:]: selfs[i] * factor for i in op_spans
        }
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
