"""Incremental timing context for the KMS loop.

The Fig. 3 while-loop perturbs a small region per iteration (a
duplicated chain plus a constant-propagation cone) yet the reference
implementation recomputes every timing quantity from scratch each time.
Following Teslenko & Dubrova's observation that restricting recomputation
to the affected region is where the speed comes from, this module bundles
the three incremental facilities the loop needs:

* **dirty-cone STA** -- an :class:`~repro.timing.sta.IncrementalSTA`
  consuming the touched-gate sets returned by the transforms in
  :mod:`repro.network.transform`, re-relaxing arrival times and
  longest-path counts only in the transitive fanout/fanin of mutated
  gates;
* **bit-parallel witness prefilter** -- 64 random patterns simulated
  in one packed word per gate (lazily, on the iteration's first check,
  seeded by the iteration number); any pattern that puts every
  constrained side-input at its required value *is* a
  sensitization/viability witness, so the path is decided without SAT;
* **UNSAT core store** -- after an exact UNSAT verdict the solver's
  failed-assumption core is shrunk by deletion to a minimal set of
  constraints no input pattern meets together, and stored as
  ``(fingerprint, value)`` pairs over the content fingerprints of
  :mod:`repro.engine.hashing`.  Fingerprints are canonical over a
  signal's whole fanin cone *and* the PI interface positions, so equal
  fingerprints compute the same function: a core stays a proof across
  iterations and mutations, in static and viability mode alike, and any
  later constraint set containing a stored core is UNSAT without a
  solve.

The witness runs first because it is the cheaper miss: a core lookup
needs the iteration's fingerprints, and in the loop's last iteration
(the one that finds a sensitizable path) re-hashing the last mutation's
cone buys nothing.  Fingerprints are only read once a core exists.

Counter semantics (all deterministic; exported via
:class:`repro.core.kms.KmsResult` counters and engine telemetry):

* ``arrival_relaxations`` / ``dist_relaxations`` -- per-gate STA
  recomputations (a full :func:`~repro.timing.sta.analyze` costs one per
  gate per direction);
* ``viability_checks_prefiltered`` -- path checks resolved by the packed
  simulation witness alone;
* ``viability_core_hits`` -- path checks resolved UNSAT by a stored
  core;
* ``viability_checks_exact`` -- path checks that fell through to a SAT
  solve (the deletion solves that shrink its core are not counted
  separately).

A core is a proof of UNSAT and a witness is a satisfying pattern, so
the funnel decides the same booleans SAT would, and the incremental
loop takes bit-identical decisions to the full recompute -- the A/B
oracle ``kms(..., incremental=False)`` and the property suites assert
exactly that.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..network import Circuit
from ..sat import CircuitEncoder, Solver
from .models import AsBuiltDelayModel, DelayModel
from .paths import Path
from .sensitize import side_inputs
from .sta import IncrementalSTA, TimingAnnotation
from .viability import early_side_inputs

#: Packed-simulation width: one machine word of random patterns.
PREFILTER_WIDTH = 64

#: Constraint list: (source gid, required settled value) pairs.
Constraints = List[Tuple[int, int]]

#: (fingerprint, value) pairs that no input pattern meets together.
Core = FrozenSet[Tuple[str, int]]


class _ExactOracle:
    """One Tseitin encoding + solver for the current circuit state.

    Both static sensitization and viability reduce to the same question:
    *is there an input assignment under which each constrained signal
    settles to its required value?*  Encoded once per KMS iteration,
    solved under assumptions per path -- the same query the
    :class:`~repro.timing.sensitize.SensitizationChecker` and
    :class:`~repro.timing.viability.ViabilityChecker` issue.
    """

    def __init__(self, circuit: Circuit) -> None:
        encoder = CircuitEncoder()
        self.var = encoder.encode(circuit)
        self.solver = Solver(encoder.cnf)

    def unsat_core(self, constraints: Constraints) -> Optional[Constraints]:
        """None when some input pattern meets every constraint; else a
        minimal subset of the constraints that no pattern meets.

        The solver's failed-assumption core is shrunk by deletion: drop
        one constraint and re-solve; if still UNSAT, keep the new
        (smaller) core, else the dropped constraint is necessary.  A
        constraint found necessary stays necessary in every UNSAT subset,
        so one pass leaves each survivor necessary.
        """
        by_lit = {
            (self.var[src] if value else -self.var[src]): (src, value)
            for src, value in constraints
        }
        solver = self.solver
        if solver.solve(list(by_lit)):
            return None
        pending = solver.core()
        needed: List[int] = []
        while pending:
            lit = pending.pop()
            if solver.solve(needed + pending):
                needed.append(lit)
            else:
                kept = set(solver.core())
                pending = [q for q in pending if q in kept]
        return [by_lit[lit] for lit in needed]


class IncrementalTiming:
    """The incremental KMS loop's timing engine.

    One instance lives for a whole :func:`repro.core.kms.kms` run over
    the mutating working circuit.  Per iteration the loop calls
    :meth:`begin_iteration` (a new witness seed; the packed simulation
    and the SAT oracle are rebuilt lazily), reads :meth:`annotation`,
    tests candidate paths with :meth:`check_path`, and after the
    structural edits calls :meth:`refresh` with the union of the
    transforms' touched-gate sets.
    """

    def __init__(
        self,
        circuit: Circuit,
        model: Optional[DelayModel] = None,
        mode: str = "static",
        seed: int = 0,
        hier: Optional[bool] = None,
        hier_store=None,
    ) -> None:
        from ..engine.hashing import gate_fingerprints
        from .hier import HierSTA, hier_enabled

        self.circuit = circuit
        self.model = model if model is not None else AsBuiltDelayModel()
        self.mode = mode
        self.seed = seed
        if hier is None:
            hier = hier_enabled()
        self.hier = hier
        if hier:
            self.sta = HierSTA(circuit, self.model, store=hier_store)
        else:
            self.sta = IncrementalSTA(circuit, self.model)
        #: with an attached arena the fingerprint cache lives in the
        #: arena (hook-driven dirty tracking, same digests); otherwise
        #: this context maintains its own gid-keyed dict.
        self._arena = getattr(circuit, "_arena", None)
        self._fps: Optional[Dict[int, str]] = (
            None if self._arena is not None else gate_fingerprints(circuit)
        )
        #: learned UNSAT cores, each minimal
        self.cores: List[Core] = []
        self.viability_checks_exact = 0
        self.viability_checks_prefiltered = 0
        self.viability_core_hits = 0
        self._iteration = 0
        self._sim_seed: Optional[int] = None
        self._sim: Optional[Dict[int, int]] = None
        self._oracle: Optional[_ExactOracle] = None
        self._annotation: Optional[TimingAnnotation] = None

    @property
    def fingerprints(self) -> Dict[int, str]:
        """Current gid-keyed content fingerprints (arena-maintained when
        the circuit carries one, else this context's own cache)."""
        if self._arena is not None:
            return self._arena.gate_fps()
        assert self._fps is not None
        return self._fps

    # ------------------------------------------------------------------ #
    # per-iteration lifecycle
    # ------------------------------------------------------------------ #

    def begin_iteration(self) -> None:
        """Start one Fig. 3 iteration: new witness seed, lazy oracle."""
        self._sim_seed = (self.seed << 20) ^ self._iteration
        self._sim = None
        self._oracle = None
        self._annotation = None
        self._iteration += 1

    def annotation(self) -> TimingAnnotation:
        """The current iteration's timing annotation (cached per
        iteration; bit-identical to a from-scratch ``analyze``)."""
        if self._annotation is None:
            self._annotation = self.sta.annotation()
        return self._annotation

    def refresh(self, touched) -> None:
        """Re-relax timing and re-hash fingerprints in the dirty cone."""
        from ..sim import refresh_compiled

        self.sta.refresh(touched)
        self._update_fingerprints(touched)
        refresh_compiled(self.circuit, touched)
        self._annotation = None

    # ------------------------------------------------------------------ #
    # path checking: witness prefilter -> core store -> exact SAT
    # ------------------------------------------------------------------ #

    def path_constraints(self, path: Path) -> Constraints:
        """The (source gid, required value) constraint set of a path
        under the context's mode."""
        if self.mode == "viability":
            triples = early_side_inputs(
                self.circuit, self.model, self.annotation(), path
            )
        else:
            triples = [
                (si.cid, si.gate, si.value)
                for si in side_inputs(self.circuit, path)
            ]
        conns = self.circuit.conns
        return [(conns[cid].src, value) for cid, _gid, value in triples]

    def check_path(self, path: Path) -> bool:
        """Is the path statically sensitizable (static mode) / viable
        (viability mode)?  Same verdict the exact checkers give."""
        constraints = self.path_constraints(path)
        if self._witness_bits(constraints):
            self.viability_checks_prefiltered += 1
            return True
        if self.cores:
            fps = self.fingerprints
            pairs = {(fps[src], value) for src, value in constraints}
            for core in self.cores:
                if core <= pairs:
                    self.viability_core_hits += 1
                    return False
        if self._oracle is None:
            self._oracle = _ExactOracle(self.circuit)
        self.viability_checks_exact += 1
        core = self._oracle.unsat_core(constraints)
        if core is None:
            return True
        fps = self.fingerprints
        self.cores.append(
            frozenset((fps[src], value) for src, value in core)
        )
        return False

    def witness_cube(self, path: Path) -> Optional[Dict[int, int]]:
        """A witness PI cube for a path the prefilter can resolve, else
        None (diagnostic/test hook; ``check_path`` is the loop entry)."""
        constraints = self.path_constraints(path)
        word = self._witness_bits(constraints)
        if not word:
            return None
        bit = (word & -word).bit_length() - 1
        sim = self._simulation()
        return {gid: (sim[gid] >> bit) & 1 for gid in self.circuit.inputs}

    def _simulation(self) -> Optional[Dict[int, int]]:
        """This iteration's 64 packed random patterns, simulated on
        first use (None before the first :meth:`begin_iteration`).

        The simulation routes through the compiled kernel
        (:mod:`repro.sim.kernel`) -- the schedule is compiled once and
        recompiled only when :meth:`refresh` reports structural edits;
        ``REPRO_SIM_LEGACY`` forces the interpreted ``simulate_packed``
        as the A/B oracle.  Either path is bit-identical.
        """
        if self._sim is None and self._sim_seed is not None:
            from ..sim import get_compiled, kernel_enabled
            from ..sim import random_packed_inputs, simulate_packed

            rng = random.Random(self._sim_seed)
            packed = random_packed_inputs(self.circuit, PREFILTER_WIDTH, rng)
            if kernel_enabled():
                self._sim = get_compiled(self.circuit).evaluate(
                    packed, PREFILTER_WIDTH
                )
            else:
                self._sim = simulate_packed(
                    self.circuit, packed, PREFILTER_WIDTH
                )
        return self._sim

    def _witness_bits(self, constraints: Constraints) -> int:
        """Packed word of patterns satisfying every constraint."""
        sim = self._simulation()
        if sim is None:
            return 0
        mask = (1 << PREFILTER_WIDTH) - 1
        word = mask
        for src, value in constraints:
            bits = sim[src]
            word &= bits if value else ~bits & mask
            if not word:
                return 0
        return word

    # ------------------------------------------------------------------ #
    # fingerprint maintenance
    # ------------------------------------------------------------------ #

    def _update_fingerprints(self, touched) -> None:
        """Re-hash the transitive fanout of touched gates, early-cutoff
        on unchanged digests (a gate's fingerprint covers exactly its
        fanin cone, so nothing upstream can have moved).

        With an attached arena this is a no-op: the mutation hooks
        already recorded the dirty gids, and :meth:`fingerprints`
        re-hashes the dirty cone lazily inside the arena."""
        if self._arena is not None:
            return
        import heapq

        from ..engine.hashing import gate_fingerprint

        circuit = self.circuit
        fps = self.fingerprints
        for gid in [g for g in fps if g not in circuit.gates]:
            del fps[gid]
        dirty = {g for g in touched if g in circuit.gates}
        if not dirty:
            return
        pi_index = {gid: i for i, gid in enumerate(circuit.inputs)}
        po_index = {gid: i for i, gid in enumerate(circuit.outputs)}
        pos = {gid: i for i, gid in enumerate(circuit.topological_order())}
        heap = [(pos[gid], gid) for gid in dirty]
        heapq.heapify(heap)
        queued = set(dirty)
        while heap:
            _, gid = heapq.heappop(heap)
            queued.discard(gid)
            old = fps.get(gid)
            new = gate_fingerprint(circuit, gid, fps, pi_index, po_index)
            fps[gid] = new
            if new == old:
                continue
            for cid in circuit.gates[gid].fanout:
                dst = circuit.conns[cid].dst
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (pos[dst], dst))

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #

    def counters(self) -> Dict[str, float]:
        """The deterministic counter snapshot telemetry exports (plus
        the hierarchical engine's own counters when it is active)."""
        result = {
            "arrival_relaxations": self.sta.arrival_relaxations,
            "dist_relaxations": self.sta.dist_relaxations,
            "viability_checks_exact": self.viability_checks_exact,
            "viability_checks_prefiltered": self.viability_checks_prefiltered,
            "viability_core_hits": self.viability_core_hits,
        }
        hier_counters = getattr(self.sta, "counters", None)
        if hier_counters is not None:
            result.update(hier_counters())
        return result
