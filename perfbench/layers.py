"""The ``repro`` layer map of the traced run.

:func:`install` patches the public entry point of every layer the
benchmark attributes time to; :func:`layer_metrics` turns one traced
pass into the per-layer metric dict named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable

from tracer import Tracer
from workloads import PRELOAD

#: (module, function, span name) patched in every importing module.
FUNCTIONS = (
    ("repro.atpg.faultsim", "fault_coverage", "atpg.faultsim"),
    ("repro.atpg.faultsim", "batch_fault_coverage", "atpg.faultsim"),
    ("repro.atpg.redundancy", "remove_fault", "atpg.remove_fault"),
    ("repro.timing.sta", "analyze", "timing.sta"),
    ("repro.timing.paths", "iter_paths_longest_first", "timing.paths"),
    ("repro.network.transform", "duplicate_chain", "network.transform"),
    ("repro.network.transform", "set_connection_constant",
     "network.transform"),
    ("repro.network.transform", "propagate_constants", "network.transform"),
    ("repro.network.transform", "sweep", "network.transform"),
    ("repro.synth.optimize", "area_optimize", "synth.area_optimize"),
    ("repro.synth.speedup", "speed_up", "synth.speed_up"),
)

#: (module, class, methods, span name).
METHODS = (
    ("repro.atpg.proofengine", "ProofEngine",
     ("next_redundant", "redundant_faults", "remove", "invalidate"),
     "atpg.proofengine"),
    ("repro.sat.tseitin", "CircuitEncoder", ("encode",), "sat.encode"),
    ("repro.timing.incremental", "IncrementalTiming",
     ("begin_iteration", "annotation", "refresh"), "timing.sta"),
    ("repro.timing.incremental", "IncrementalTiming", ("check_path",),
     "timing.viability"),
)

#: Deterministic timing counters copied out of ``KmsResult.counters``.
TIMING_COUNTERS = (
    "arrival_relaxations",
    "dist_relaxations",
    "paths_enumerated",
    "viability_checks_exact",
    "viability_checks_prefiltered",
    "cube_cache_hits",
)

SELF_TIME_LAYERS = (
    "atpg.podem",
    "atpg.proofengine",
    "atpg.faultsim",
    "atpg.remove_fault",
    "sim.simulate5",
    "sat.encode",
    "timing.sta",
    "timing.paths",
    "timing.viability",
    "network.transform",
    "synth.area_optimize",
    "core.kms",
)

#: Set-up synthesis (``optimized_mcnc`` on kms-mcnc), children included;
#: the only layer figure taken outside the timed operations.
SETUP_SYNTH = "setup.synth.speed_up_s"

SERVE_METRICS = (
    "serve.queue_wait_s",
    "serve.exec_s",
    "serve.overhead_s",
    "serve.coalesced_rate",
    "serve.cache_hit_rate",
    "serve.spawn_s",
)


def counter_names() -> Dict[str, tuple]:
    """The program's own counter-name tuples (imported lazily: the
    benchmark must import ``repro`` only after its path is set)."""
    from repro.atpg.proofengine import PROOF_COUNTERS
    from repro.net import ARENA_COUNTERS
    from repro.sim.kernel import WORK_COUNTERS
    from repro.timing.hier import HIER_COUNTERS

    return {
        "proof": PROOF_COUNTERS,
        "kernel": WORK_COUNTERS,
        "hier": HIER_COUNTERS,
        "arena": ARENA_COUNTERS + ("arena_full_builds",),
    }


def metric_names() -> list:
    """Every per-layer metric name, in report order."""
    names = counter_names()
    out = [f"{layer}.self_s" for layer in SELF_TIME_LAYERS]
    out.append(SETUP_SYNTH)
    out += [
        "atpg.podem.calls", "atpg.podem.backtracks", "atpg.podem.aborts",
        "atpg.podem.abort_rate", "atpg.faultsim.calls",
        "atpg.proof.carry_rate", "sim.simulate5.calls",
        "sat.solve.self_s.timing", "sat.solve.self_s.atpg",
        "sat.solve.calls", "sat.conflicts", "sat.propagations",
        "sat.decisions", "timing.viability.prefilter_rate",
        "network.transform.calls", "core.kms.iterations",
        "core.kms.duplicated_gates",
    ]
    out += [f"atpg.proof.{n}" for n in names["proof"]]
    out += [f"sim.kernel.{n}" for n in names["kernel"]]
    out += [f"timing.{n}" for n in TIMING_COUNTERS]
    out += [f"timing.hier.{n}" for n in names["hier"]]
    out += [f"net.arena.{n}" for n in names["arena"]]
    out += list(SERVE_METRICS)
    out += ["trace.overhead_ratio", "trace.unattributed_s"]
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".self_s.timing", ".self_s.atpg")):
        return "s"
    if name.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


def install(tracer: Tracer) -> None:
    """Patch every layer entry point; undo with ``tracer.restore()``.

    The workloads' lazily imported modules are imported first, so
    ``patch_everywhere`` sees every ``from x import f`` binding."""
    for name in PRELOAD:
        importlib.import_module(name)
    for module, attr, span in FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        tracer.patch_everywhere(fn, tracer.wrap(fn, span))
    for module, cls_name, methods, span in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        stats = _proof_stats if cls_name == "ProofEngine" else None
        for method in methods:
            tracer.patch(cls, method, tracer.wrap(
                getattr(cls, method), span, stats=stats,
                prefix="atpg.proof.",
            ))

    from repro.atpg import podem as podem_mod
    from repro.sat.solver import Solver

    # ``repro.core`` re-exports the function under the module's name
    kms_mod = importlib.import_module("repro.core.kms")

    # PODEM implication only: simulate5 as the PODEM module binds it
    tracer.patch(podem_mod, "simulate5",
                 tracer.wrap(podem_mod.simulate5, "sim.simulate5"))
    tracer.patch(podem_mod.Podem, "generate", tracer.wrap(
        podem_mod.Podem.generate, "atpg.podem",
        stats=lambda args: _pick(args[0].stats, ("backtracks", "aborts")),
        prefix="atpg.podem.",
    ))
    tracer.patch(Solver, "solve", tracer.wrap(
        Solver.solve, "sat.solve",
        stats=lambda args: _pick(
            args[0].stats, ("conflicts", "propagations", "decisions")
        ),
        prefix="sat.",
    ))

    def on_kms(result) -> None:
        counts = tracer.counts
        counts["core.kms.iterations"] += result.iterations
        counts["core.kms.duplicated_gates"] += result.duplicated_gates
        names = counter_names()
        for name in TIMING_COUNTERS:
            counts[f"timing.{name}"] += result.counters.get(name, 0)
        for name in names["hier"]:
            counts[f"timing.hier.{name}"] += result.counters.get(name, 0)
        for name in names["arena"]:
            counts[f"net.arena.{name}"] += result.counters.get(name, 0)

    tracer.patch_everywhere(
        kms_mod.kms, tracer.wrap(kms_mod.kms, "core.kms", on_result=on_kms)
    )


def _pick(stats: Dict[str, Any], keys: Iterable[str]) -> Dict[str, Any]:
    return {key: stats.get(key, 0) for key in keys}


def _proof_stats(args) -> Dict[str, Any]:
    return dict(args[0].counters)


def layer_metrics(tracer: Tracer, kernel_counts: Dict[str, int],
                  unattributed_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (serve/trace keys are left
    to the caller).  Self times cover the spans under the ``op:*`` spans
    only -- the region ``pass_s`` times -- and ``tracer.counts`` must
    have been cleared when set-up ended, so counts cover it too."""
    selfs = tracer.layer_self_times("op:")
    counts = tracer.counts
    out: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    out[SETUP_SYNTH] = tracer.total_time("synth.speed_up", "setup")
    for caller in ("timing", "atpg"):
        out[f"sat.solve.self_s.{caller}"] = selfs.get(
            f"sat.solve.{caller}", 0.0
        )
    for key in (
        "atpg.podem.calls", "atpg.podem.backtracks", "atpg.podem.aborts",
        "atpg.faultsim.calls", "sim.simulate5.calls", "sat.solve.calls",
        "sat.conflicts", "sat.propagations", "sat.decisions",
        "network.transform.calls", "core.kms.iterations",
        "core.kms.duplicated_gates",
    ):
        out[key] = counts.get(key, 0)
    out["atpg.podem.abort_rate"] = _ratio(
        counts.get("atpg.podem.aborts", 0), counts.get("atpg.podem.calls", 0)
    )
    names = counter_names()
    for name in names["proof"]:
        out[f"atpg.proof.{name}"] = counts.get(f"atpg.proof.{name}", 0)
    carried = counts.get("atpg.proof.verdicts_carried", 0)
    requalified = counts.get("atpg.proof.faults_requalified", 0)
    out["atpg.proof.carry_rate"] = _ratio(carried, carried + requalified)
    for name in names["kernel"]:
        out[f"sim.kernel.{name}"] = kernel_counts.get(name, 0)
    for name in TIMING_COUNTERS:
        out[f"timing.{name}"] = counts.get(f"timing.{name}", 0)
    for name in names["hier"]:
        out[f"timing.hier.{name}"] = counts.get(f"timing.hier.{name}", 0)
    for name in names["arena"]:
        out[f"net.arena.{name}"] = counts.get(f"net.arena.{name}", 0)
    pre = counts.get("timing.viability_checks_prefiltered", 0)
    exact = counts.get("timing.viability_checks_exact", 0)
    out["timing.viability.prefilter_rate"] = _ratio(pre, pre + exact)
    out["trace.unattributed_s"] = unattributed_s
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
