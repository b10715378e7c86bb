"""The serve workload's submission mix holds what it states."""

from collections import Counter

import serve_pass


def test_distinct_draws_differ_by_daemon_fingerprint_and_repeats_are_exact():
    from repro.engine.hashing import circuit_fingerprint
    from repro.engine.serialize import circuit_from_dict, circuit_to_dict

    circuits, order, warmup = serve_pass.make_inputs(seed=3)
    fingerprints = [
        circuit_fingerprint(circuit_from_dict(circuit_to_dict(c)))
        for c in circuits + warmup
    ]
    assert len(set(fingerprints)) == serve_pass.DISTINCT + serve_pass.WARMUP
    assert len(order) == serve_pass.DISTINCT + serve_pass.REPEATS
    assert set(order) == set(range(serve_pass.DISTINCT))
    repeats = sum(n - 1 for n in Counter(order).values())
    assert repeats == serve_pass.REPEATS
    # a repeat always follows its circuit's first submission
    seen = set()
    for index in order:
        assert index in seen or index == len(seen)
        seen.add(index)
