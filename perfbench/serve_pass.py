"""One pass of the ``serve`` workload, in its own interpreter.

A closed loop: :data:`CLIENTS` client threads share one fixed list of
``kms`` submissions against an in-process daemon with the default two
spawn-context workers.  Each client sends its next request only after
the previous one finished, failed, or ran past :data:`DEADLINE_S` (its
own per-request deadline, so a stuck worker costs a failed request, not
a hung pass).  :data:`REPEATS` of the submissions repeat an earlier
circuit, so coalescing and the result memo run beside fresh work; the
:data:`DISTINCT` others are pairwise different circuits (by the
fingerprint the daemon coalesces on).  That mix is a coverage choice,
not measured traffic.  Every distinct circuit is a small base with one
planted redundancy.

Set-up (charged to ``setup_s``) is interpreter start, imports, input
generation, daemon start and a warm-up that spawns both workers.  Times
are reported in reference seconds (``speed.py``).  The pass's speed is
the median of calibration bursts run on both cores while the daemon is
idle: at launch, before the daemon starts, and between the loop's
segments of :data:`SEGMENT` submissions (the clients pause for them).
Probes taken during the loop would share the cores with the workers and
slow down with the program itself.

    python3 perfbench/serve_pass.py --seed 1 --trace 0 --workdir <dir> \\
        --out <file.json> --launched <epoch seconds>

The worker processes re-import this file as ``__mp_main__``, so
everything that runs lives under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from speed import TwoCoreCalibrator, normalize  # noqa: E402

CLIENTS = 2
DISTINCT = 96
REPEATS = 32
WARMUP = 4
#: Submissions between two idle calibration bursts.
SEGMENT = 32
#: Small paper-figure and adder bases (5 inputs, about 20 gates) that
#: each submission plants one redundancy into.  Seeded random circuits
#: of the same size made the KMS work seed-dependent (8-67 ms, results
#: of 0-6 gates); a planted base keeps it within a narrow band.
BASES = ("fig1", "fig2", "rca2", "cla2")
DEADLINE_S = 30.0


def make_inputs(seed: int):
    """(distinct circuits, submission order as circuit indices, warm-up
    circuits) -- all a function of ``seed``.  The loop's and the warm-up's
    circuits are pairwise distinct, so exactly :data:`REPEATS` of the
    loop's submissions repeat an earlier one."""
    from repro.circuits import named_circuit
    from repro.engine.hashing import circuit_fingerprint
    from repro.engine.serialize import circuit_from_dict, circuit_to_dict
    from repro.fuzz.plant import plant_redundancies

    rng = random.Random(seed)
    bases = [named_circuit(name) for name in BASES]
    drawn, seen = [], set()
    while len(drawn) < DISTINCT + WARMUP:
        base = bases[len(drawn) % len(bases)]
        circuit = plant_redundancies(
            base, plants=1, seed=rng.randrange(1 << 30)
        ).circuit
        # the fingerprint the daemon computes from the submitted JSON
        fingerprint = circuit_fingerprint(
            circuit_from_dict(circuit_to_dict(circuit))
        )
        if fingerprint not in seen:
            seen.add(fingerprint)
            drawn.append(circuit)
    circuits, warmup = drawn[:DISTINCT], drawn[DISTINCT:]
    order = list(range(DISTINCT))
    for _ in range(REPEATS):
        position = rng.randrange(1, len(order) + 1)
        order.insert(position, rng.choice(order[:position]))
    return circuits, order, warmup


def _request(client, source, name, traced):
    """Submit one job and wait for it; returns the request record."""
    t0 = time.perf_counter()
    handle = client.submit(source, pipeline="kms", name=name)
    job_id = handle["job_id"]
    out = {"coalesced": handle.get("coalesced")}
    if traced:
        submitted = time.perf_counter()
        running_at = done_at = None
        exec_s, stages, hits = 0.0, 0, 0
        for event in client.events(job_id):
            now = time.perf_counter()
            if now - t0 > DEADLINE_S:
                raise TimeoutError(f"job {job_id} past its deadline")
            kind = event.get("type")
            if kind == "running" and running_at is None:
                running_at = now
            elif kind == "stage":
                record = event["record"]
                exec_s += record["seconds"]
                stages += 1
                hits += record.get("cache") == "hit"
            elif kind == "done":
                done_at = now
                break
        if done_at is None:
            raise RuntimeError(f"event stream of {job_id} ended early")
        out["latency_s"] = done_at - t0
        out.update(
            exec_s=exec_s, stages=stages, cache_hits=hits,
            queue_wait_s=(running_at - submitted)
            if running_at is not None else None,
        )
        response = client.result(job_id)
    else:
        response = client.wait(job_id, timeout=DEADLINE_S)
        out["latency_s"] = time.perf_counter() - t0
    out["start"] = t0
    out["state"] = response.get("state")
    result = response.get("result") or {}
    out["fingerprint"] = result.get("final_fingerprint")
    if out["state"] != "done":
        out["error"] = f"state {out['state']}: {response.get('error')}"
    return out


def _closed_loop(port, sources, order, traced):
    """Run the submission list with CLIENTS closed-loop threads."""
    from repro.serve import ServeClient

    records = [None] * len(order)
    cursor = iter(range(len(order)))
    lock = threading.Lock()

    def client_loop():
        client = ServeClient(port=port, timeout=DEADLINE_S)
        while True:
            with lock:
                slot = next(cursor, None)
            if slot is None:
                return
            index = order[slot]
            try:
                record = _request(client, sources[index], f"c{index}", traced)
            except Exception as exc:  # refused (429), expired, transport
                record = {"error": f"{type(exc).__name__}: {exc}",
                          "latency_s": None}
            record["circuit"] = index
            records[slot] = record

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    calibrator = TwoCoreCalibrator()
    try:
        return run(calibrator, argv)
    finally:
        calibrator.close()


def run(calibrator, argv) -> int:
    launch_probe = calibrator.burst()
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.engine.serialize import circuit_to_dict
    from repro.serve import InProcessServer, ServeClient, ServeConfig

    circuits, order, warmup = make_inputs(args.seed)
    sources = [
        {"kind": "json", "circuit": circuit_to_dict(c)} for c in circuits
    ]
    warm_sources = [
        {"kind": "json", "circuit": circuit_to_dict(c)} for c in warmup
    ]
    cache_dir = os.path.join(args.workdir, f"serve-cache-{os.getpid()}")
    server = InProcessServer(ServeConfig(workers=2, cache_dir=cache_dir))
    inputs_probe = calibrator.burst()
    server.start()
    records, pass_raw = [], 0.0
    try:
        # each slot spawns its worker on its first job: two concurrent
        # warm-up jobs spawn both, two more measure a warm request
        cold, _ = _closed_loop(server.port, warm_sources[:2], [0, 1], False)
        warm, _ = _closed_loop(server.port, warm_sources[2:], [0, 1], False)
        probes = [launch_probe, inputs_probe, calibrator.burst()]
        setup_raw = time.time() - args.launched
        setup_spent = sum(p[0] for p in probes)
        for first in range(0, len(order), SEGMENT):
            segment, seconds = _closed_loop(
                server.port, sources, order[first:first + SEGMENT],
                bool(args.trace),
            )
            probes.append(calibrator.burst())
            records += segment
            pass_raw += seconds
        stats = ServeClient(port=server.port).stats()
    finally:
        server.stop()
    # one speed per pass: single bursts move with the host's transient
    # speed; the median over the pass's bursts follows its regime
    factor = normalize(1.0, 0.0, statistics.median(p[1] for p in probes))
    for record in records:
        if record.get("latency_s") is None:
            continue
        record["latency_raw_s"] = record["latency_s"]
        for key in ("latency_s", "exec_s", "queue_wait_s"):
            if record.get(key) is not None:
                record[key] *= factor
    warm_errors = [r["error"] for r in cold + warm if r.get("error")]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": factor * (setup_raw - setup_spent),
        "setup_raw_s": setup_raw,
        "pass_s": factor * pass_raw,
        "pass_raw_s": pass_raw,
        "requests": records,
        "circuits": [s["circuit"] for s in sources],
        "warmup_errors": warm_errors,
        "spawn_s": (
            factor * (
                statistics.median(r["latency_s"] for r in cold)
                - statistics.median(r["latency_s"] for r in warm)
            ) if not warm_errors else None
        ),
        "stats": stats.get("counters", {}),
        # the pass process plus its largest reaped worker
        "peak_rss_mb": (usage + workers) / 1024.0,
    }
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
