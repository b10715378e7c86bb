"""Wall-clock benchmark of the KMS reproduction: one workload per run.

    python3 perfbench/run.py --workload kms-csa --seed 1 --seconds 15 \\
        --trace 0

Workloads (reasoning in ``BENCHMARK.json``): ``kms-csa``, ``kms-mcnc``,
``atpg`` (offline, one cold interpreter per pass, see ``passrun.py``)
and ``serve`` (a closed loop against an in-process daemon, see
``serve_pass.py``).  A run keeps starting passes until ``--seconds`` of
measuring have elapsed and reports medians over them, in reference
seconds: wall clock scaled by the machine speed each pass samples while
it runs (``speed.py``).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (spans
written under ``.perfbench/traces/``).  ``NOTES.md`` records why the
workloads and metrics are what they are.

Every output is checked outside the timed region by machinery other
than the one that produced it (``checks.py``); a failed, refused,
expired or wrong operation counts in ``failed`` and makes the exit code
1.  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable report with the environment stamp.

Run from the repository root; ``src/`` must be next to this directory.
Any ``REPRO_*`` environment variable (the program's A/B and backend
switches) makes the run refuse, so an oracle-path number is never
recorded as the default program's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("kms-csa", "kms-mcnc", "atpg", "serve")
#: Per-pass limit; a pass that overruns it is killed and counted failed.
PASS_TIMEOUT_S = 120.0

#: end-to-end metric -> unit (the JSON result carries exactly these)
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_geomean_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #

def refuse_reason() -> str:
    """Why this environment cannot produce a default-program number."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return f"no program source at {os.path.relpath(SRC)}/repro"
    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        return ("REPRO_* switches select non-default program paths; "
                f"unset {', '.join(switches)}")
    return ""


def environment_stamp() -> Dict[str, Any]:
    """Commit (when the tree is a git checkout), a digest of the program
    source, Python and numpy versions, and the CPU count."""
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def child_env(workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    # temp files stay inside the checkout; a fixed hash seed keeps
    # set/dict iteration -- and so the work done -- identical per pass
    env["TMPDIR"] = workdir
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------- #
# passes
# ---------------------------------------------------------------------- #

def run_pass(workload: str, seed: int, traced: bool, workdir: str,
             index: int) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns its JSON document, or
    ``{"error": ...}``."""
    out = os.path.join(workdir, f"pass{index}.json")
    if workload == "serve":
        cmd = [sys.executable, os.path.join(HERE, "serve_pass.py")]
    else:
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", workload]
        if traced:
            traces = os.path.join(STATE, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--spans", os.path.join(
                traces, f"{workload}-seed{seed}-pass{index}.json")]
    launched = time.time()
    cmd += ["--seed", str(seed), "--trace", str(int(traced)),
            "--workdir", workdir, "--out", out, "--launched", repr(launched)]
    # own session, so a pass that overruns is killed with its workers
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(workdir), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stderr = None
    finally:
        try:  # the pass and anything it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if stderr is None:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(out):
        return {"error": f"pass exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}"}
    with open(out) as handle:
        doc = json.load(handle)
    doc["traced"] = traced
    return doc


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               workdir: str) -> List[Dict[str, Any]]:
    """Run passes for about ``seconds`` (with ``trace``, alternating
    untraced and traced, at least one of each).  No pass starts that
    would end more than half a pass past the budget, so a run's length
    stays close to ``seconds`` whatever a pass costs."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, traced, workdir, len(passes)))
        elapsed = time.perf_counter() - start
        if (not trace or len(passes) >= 2) and (
            elapsed + 0.5 * elapsed / len(passes) >= seconds
        ):
            return passes


# ---------------------------------------------------------------------- #
# checks and metrics
# ---------------------------------------------------------------------- #

def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _memo_key(record: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


def check_offline(passes: List[Dict[str, Any]]):
    """Check every operation of every pass (memoized per distinct
    output).  Returns (attempted, failures, output_size, extras)."""
    import checks

    attempted, failures = 0, []
    verdicts: Dict[str, tuple] = {}
    first: Dict[str, str] = {}
    sizes: Dict[str, float] = {}
    delays: Dict[str, float] = {}
    for number, doc in enumerate(passes):
        if "error" in doc:
            attempted += 1
            failures.append(f"pass {number}: {doc['error']}")
            continue
        for op in doc["ops"]:
            attempted += 1
            where = f"pass {number} {op['name']}"
            if op["error"]:
                failures.append(f"{where}: {op['error']}")
                continue
            record = op["record"]
            key = _memo_key(record)
            # every pass must produce the same output for the same row
            if first.setdefault(op["name"], key) != key:
                failures.append(f"{where}: output differs between passes")
                continue
            if key not in verdicts:
                try:
                    if record["kind"] == "kms":
                        problems = checks.check_kms(record)
                        gates, delay = checks.kms_quality(record)
                        verdicts[key] = (problems, gates, delay)
                    else:
                        problems, tests = checks.check_atpg(record)
                        verdicts[key] = (problems, tests, None)
                except Exception as exc:
                    verdicts[key] = ([f"check crashed: {exc!r}"], None, None)
            problems, size, delay = verdicts[key]
            if problems:
                failures.append(f"{where}: {'; '.join(problems)}")
            if size is not None:
                sizes[op["name"]] = size
            if delay is not None:
                delays[op["name"]] = delay
    extras = {"delay_out": (sum(delays.values()), "units")} if delays else {}
    return attempted, failures, sum(sizes.values()), extras


def check_serve(passes: List[Dict[str, Any]]):
    """Every request done, fingerprint equal to the in-process
    ``run_pipeline`` result of its circuit."""
    from repro.engine import StageCall, run_pipeline
    from repro.engine.hashing import circuit_fingerprint
    from repro.engine.serialize import circuit_from_dict
    from repro.serve.protocol import DEFAULT_MODEL

    attempted, failures = 0, []
    oracle: Dict[str, tuple] = {}
    sizes: Dict[str, int] = {}
    for number, doc in enumerate(passes):
        if "error" in doc:
            attempted += 1
            failures.append(f"pass {number}: {doc['error']}")
            continue
        if doc["warmup_errors"]:
            attempted += 1
            failures.append(f"pass {number} warm-up: "
                            f"{'; '.join(doc['warmup_errors'])}")
        for slot, request in enumerate(doc["requests"]):
            attempted += 1
            where = f"pass {number} request {slot}"
            if request.get("error"):
                failures.append(f"{where}: {request['error']}")
                continue
            source = doc["circuits"][request["circuit"]]
            key = _memo_key(source)
            if key not in oracle:
                result = run_pipeline(
                    circuit_from_dict(source),
                    [StageCall("kms", {"model": DEFAULT_MODEL,
                                       "mode": "static"})],
                    keep_final=True,
                )
                final = circuit_from_dict(result.final_circuit)
                oracle[key] = (circuit_fingerprint(final), final.num_gates())
            fingerprint, gates = oracle[key]
            sizes[key] = gates
            if request["fingerprint"] != fingerprint:
                failures.append(f"{where}: result fingerprint differs "
                                f"from the in-process pipeline")
    return attempted, failures, sum(sizes.values()), {}


def offline_metrics(untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-operation figures are medians over passes first, so every
    row counts once whatever the pass count."""
    per_op: Dict[str, List[float]] = {}
    for doc in untraced:
        for op in doc["ops"]:
            per_op.setdefault(op["name"], []).append(op["seconds"])
    medians = {k: statistics.median(v) for k, v in per_op.items()}
    rows = list(medians.values())
    return {
        "pass_s": statistics.median(d["pass_s"] for d in untraced),
        "op_geomean_s": geomean(rows),
        "op_p50_s": quantile(rows, 0.5),
        "op_p90_s": quantile(rows, 0.9),
        "per_op": medians,
    }


def serve_metrics(untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    done = [
        r for d in untraced for r in d["requests"]
        if r.get("latency_s") is not None and not r.get("error")
    ]
    latencies = [r["latency_s"] for r in done]
    raw = [r["latency_raw_s"] for r in done]
    pass_s = statistics.median(d["pass_s"] for d in untraced)
    return {
        "pass_s": pass_s,
        "op_geomean_s": geomean(latencies),
        "op_p50_s": quantile(latencies, 0.5),
        "op_p90_s": quantile(latencies, 0.9),
        "op_p50_raw_s": quantile(raw, 0.5),
        "op_p90_raw_s": quantile(raw, 0.9),
        "requests_per_s": len(untraced[0]["requests"]) / pass_s,
        "samples": len(latencies),
    }


def serve_layers(traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """serve.* per-layer metrics from the traced passes' event streams
    and ``/stats`` counters (medians per fresh execution)."""
    fresh = [r for d in traced for r in d["requests"]
             if not r.get("error") and r.get("coalesced") is None]
    waits = [r["queue_wait_s"] for r in fresh
             if r.get("queue_wait_s") is not None]
    stages = sum(r.get("stages", 0) for d in traced for r in d["requests"])
    hits = sum(r.get("cache_hits", 0) for d in traced for r in d["requests"])
    counters = [d["stats"] for d in traced]
    submissions = sum(c.get("submissions", 0) for c in counters)
    coalesced = sum(c.get("coalesced_total", 0) for c in counters)
    spawn = [d["spawn_s"] for d in traced if d.get("spawn_s") is not None]
    return {
        "serve.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.exec_s": statistics.median(r["exec_s"] for r in fresh)
        if fresh else 0.0,
        "serve.overhead_s": statistics.median(
            r["latency_s"] - r["exec_s"] for r in fresh
        ) if fresh else 0.0,
        "serve.coalesced_rate": coalesced / submissions
        if submissions else 0.0,
        "serve.cache_hit_rate": hits / stages if stages else 0.0,
        "serve.spawn_s": statistics.median(spawn) if spawn else 0.0,
    }


def layer_metrics(workload: str, untraced, traced) -> Dict[str, float]:
    import layers

    out = {name: 0.0 for name in layers.metric_names()}
    good = [d for d in traced if "error" not in d]
    if not good:
        return out
    if workload == "serve":
        out.update(serve_layers(good))
    else:
        for name in out:
            values = [d["layers"][name] for d in good if name in d["layers"]]
            if values:
                out[name] = statistics.median(values)
    ok = [d for d in untraced if "error" not in d]
    if ok:
        out["trace.overhead_ratio"] = (
            statistics.median(d["pass_s"] for d in good)
            / statistics.median(d["pass_s"] for d in ok)
        )
    return out


# ---------------------------------------------------------------------- #
# main
# ---------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reason = refuse_reason()
    if reason:
        print(f"perfbench: refusing to run: {reason}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        return report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workdir: str) -> int:
    stamp = environment_stamp()
    passes = run_passes(args.workload, args.seed, args.seconds,
                        bool(args.trace), workdir)
    if args.workload == "serve":
        attempted, failures, size, extras = check_serve(passes)
    else:
        attempted, failures, size, extras = check_offline(passes)
    untraced = [d for d in passes if not d.get("traced") and "error" not in d]
    traced = [d for d in passes if d.get("traced")]

    metrics: Dict[str, float] = {}
    detail: Dict[str, Any] = {}
    if untraced:
        measured = (serve_metrics if args.workload == "serve"
                    else offline_metrics)(untraced)
        metrics = {k: measured[k] for k in
                   ("pass_s", "op_geomean_s", "op_p50_s", "op_p90_s")}
        metrics["setup_s"] = statistics.median(d["setup_s"] for d in untraced)
        metrics["peak_rss_mb"] = statistics.median(
            d["peak_rss_mb"] for d in untraced
        )
        detail = {k: v for k, v in measured.items() if k not in metrics}
        for key in ("setup_raw_s", "pass_raw_s"):
            detail[key] = statistics.median(d[key] for d in untraced)
    else:
        failures.append("no untraced pass completed")

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(stamp, sort_keys=True)}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced")
    for number, doc in enumerate(passes):
        if "error" not in doc:
            print(f"# pass {number}{' traced' if doc['traced'] else ''}: "
                  f"setup_s={doc['setup_s']:.4f} "
                  f"(raw {doc['setup_raw_s']:.4f}) "
                  f"pass_s={doc['pass_s']:.4f} (raw {doc['pass_raw_s']:.4f})")
    error_rate = len(failures) / attempted if attempted else 1.0
    for name, unit in END_TO_END.items():
        if name in metrics:
            print(f"{name:<28} {metrics[name]:>14.6f} {unit}")
    print(f"{'error_rate':<28} {error_rate:>14.6f} ratio")
    if args.workload == "serve":
        for alias, name in (("request_p50_s", "op_p50_s"),
                            ("request_p90_s", "op_p90_s")):
            if name in metrics:
                print(f"{alias:<28} {metrics[name]:>14.6f} s (= {name})")
    size_name = {"atpg": ("tests_out", "vectors")}.get(
        args.workload, ("gates_out", "gates")
    )
    extras = {size_name[0]: (size, size_name[1]), **extras}
    for key in ("setup_raw_s", "pass_raw_s", "op_p50_raw_s", "op_p90_raw_s"):
        if key in detail:
            extras[key] = (detail[key], "s (wall clock, not normalized)")
    for name, (value, unit) in extras.items():
        print(f"{name:<28} {value:>14.6f} {unit}")
    if "requests_per_s" in detail:
        print(f"{'requests_per_s':<28} {detail['requests_per_s']:>14.6f} 1/s "
              f"({detail['samples']} requests)")
    for name, seconds in sorted(detail.get("per_op", {}).items()):
        print(f"  op {name:<23} {seconds:>14.6f} s (median)")

    result_metrics = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END.items() if name in metrics
    }
    if args.trace:
        import layers

        layer_values = layer_metrics(args.workload, untraced, traced)
        for name, value in layer_values.items():
            print(f"  layer {name:<40} {value:>16.6f}")
        for doc in traced:
            for op, seconds in sorted(doc.get("unattributed", {}).items()):
                print(f"  unattributed {op:<23} {seconds:>14.6f} s")
        result_metrics = {
            name: {"value": layer_values[name], "unit": layers.unit(name)}
            for name in layers.metric_names()
        }
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not failures and len(result_metrics) > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
