"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time


from automu.automata import trace_first, trace_last, trace_popfirst, trace_pushlast
from automu.graphs import count_digraphs
from automu.harness import bisim_invariance_check, equiv_exhaustive, equiv_sampled
from automu.logic import approximants, lfp_iterations
from automu.runtime import (
    Activation,
    async_run,
    async_step,
    check_consistency,
    fuzz_consistency,
    is_quiescent,
    sample_timing,
    sync_step,
    synchronous_activation,
)
from automu.transform import automaton_to_formula, compute_enables, formula_to_automaton
from automu.zoo import (
    boxed_one_formula,
    reach_one_formula,
    safe_one_automaton,
    safe_one_formula,
    sync_probe_automaton,
    two_cycle_graph,
)
from strategies import make_automaton, make_graph, make_pointed, make_system


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def timed(budget: float):
    start = time.monotonic()

    def check() -> float:
        elapsed = time.monotonic() - start
        assert elapsed <= budget, f"exceeded budget: {elapsed:.1f}s > {budget}s"
        return elapsed

    return check


def test_criterion_1_flagship_equivalence_exhaustive():
    done = timed(60.0)
    verdict = equiv_exhaustive(safe_one_automaton(), safe_one_formula(), 3)
    elapsed = done()
    expected_graphs = count_digraphs(3, 1)
    expected_points = 4 * 1 + 64 * 2 + 4096 * 3
    report(
        "criterion 1: hand-built machine == its formula on ALL 1-bit digraphs <= 3 nodes",
        verdict.equivalent and expected_graphs == 4164 and verdict.checked == expected_points,
        f"{verdict.checked} pointed instances, {elapsed:.1f}s",
    )


def test_flagship_equivalence_exhaustive_at_4_nodes():
    # criterion 1 one node further, on the sliced scan: 65,536 edge masks
    # of 16 labelings each
    done = timed(15.0)
    verdict = equiv_exhaustive(safe_one_automaton(), safe_one_formula(), 4)
    elapsed = done()
    expected_points = 4 * 1 + 64 * 2 + 4096 * 3 + 65536 * 16 * 4
    report(
        "flagship at 4 nodes: hand-built machine == its formula on ALL 1-bit digraphs <= 4 nodes",
        verdict.equivalent and verdict.checked == expected_points == 4206724,
        f"{verdict.checked} pointed instances, {elapsed:.1f}s",
    )


def test_criterion_2_upward_round_trip():
    done = timed(120.0)
    seeds = [safe_one_formula(), reach_one_formula(), boxed_one_formula()]
    ok = True
    details = []
    for sys in seeds:
        automaton = formula_to_automaton(sys)
        quasi = automaton.is_quasi_acyclic()
        verdict = equiv_exhaustive(automaton, sys, 3)
        ok = ok and quasi and verdict.equivalent
        details.append(f"{len(automaton.states)} states ok={quasi and verdict.equivalent}")
    elapsed = done()
    report(
        "criterion 2: compile-up is quasi-acyclic and equals its source on <= 3 nodes",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_3_downward_round_trip():
    done = timed(120.0)
    automaton = safe_one_automaton()
    system = automaton_to_formula(automaton)
    exhaustive = equiv_exhaustive(system, automaton, 2)
    sampled = equiv_sampled(system, automaton, 4, 500, seed=0)
    elapsed = done()
    report(
        "criterion 3: compile-down equals the machine (exhaustive <= 2, 500 samples <= 4)",
        exhaustive.equivalent and sampled.equivalent,
        f"{exhaustive.checked} + {sampled.checked} checks, {elapsed:.1f}s",
    )


def test_criterion_4_asynchrony_fuzz():
    done = timed(120.0)
    subjects = [
        ("flagship", safe_one_automaton()),
        ("up(safe_one)", formula_to_automaton(safe_one_formula())),
        ("up(reach_one)", formula_to_automaton(reach_one_formula())),
        ("up(boxed_one)", formula_to_automaton(boxed_one_formula())),
    ]
    ok = True
    details = []
    for name, automaton in subjects:
        verdict = fuzz_consistency(
            automaton, max_nodes=5, graphs=50, timings_per_graph=100, seed=0
        )
        ok = ok and verdict.consistent
        details.append(f"{name}:{'consistent' if verdict.consistent else 'INCONSISTENT'}")

    probe = check_consistency(sync_probe_automaton(), two_cycle_graph(), samples=100, seed=0)
    witness_ok = (
        not probe.consistent
        and probe.witness is not None
        and {probe.witness.verdict_a, probe.witness.verdict_b} == {"yes", "no"}
    )
    # the witness must replay
    if witness_ok:
        w = probe.witness
        ra = async_run(sync_probe_automaton(), two_cycle_graph(), w.timing_a)
        rb = async_run(sync_probe_automaton(), two_cycle_graph(), w.timing_b)
        witness_ok = ra.accepted[w.node] == w.verdict_a and rb.accepted[w.node] == w.verdict_b
    elapsed = done()
    report(
        "criterion 4: compiled machines fuzz consistent; simultaneity probe caught with witness",
        ok and witness_ok,
        "; ".join(details) + f"; probe witnessed, {elapsed:.1f}s",
    )


def test_criterion_5_bisimulation_invariance():
    done = timed(120.0)
    automaton = safe_one_automaton()
    rng = random.Random(0)
    passed = 0
    for _ in range(100):
        p = make_pointed(rng, 4, 1)
        if all(bisim_invariance_check(automaton, p, depth).ok for depth in (1, 2)):
            passed += 1
    elapsed = done()
    report(
        "criterion 5: acceptance invariant under backward unraveling (depths 1 and 2)",
        passed == 100,
        f"{passed}/100, {elapsed:.1f}s",
    )


def test_criterion_6_structural_bounds():
    done = timed(120.0)
    rng = random.Random(1)

    # fixpoint iteration: bounded by (variables) * |V| + 1, chain nondecreasing
    lfp_ok = True
    chain_ok = True
    for _ in range(1000):
        system = make_system(rng, bits=1, max_vars=3, depth=3)
        graph = make_graph(rng, 4, 1)
        _, steps = lfp_iterations(system, graph)
        lfp_ok = lfp_ok and steps <= len(system.vars) * len(graph.nodes) + 1
        chain = list(approximants(system, graph))
        for prev, cur in zip(chain, chain[1:]):
            chain_ok = chain_ok and all(prev[x] <= cur[x] for x in system.vars)

    # driving-relation closure: iterations bounded by |T| * 2^|T|
    enables_ok = True
    checked = 0
    candidates = [sync_probe_automaton()]
    while len(candidates) < 30:
        a = make_automaton(rng, max_states=3, bits=1, quasi_acyclic=True)
        if len(a.traces()) <= 6:
            candidates.append(a)
    for a in candidates:
        closure = compute_enables(a)
        t = len(a.traces())
        enables_ok = enables_ok and closure.iterations_used <= t * 2**t
        checked += 1
    elapsed = done()
    report(
        "criterion 6: iteration bounds and monotone approximant chains",
        lfp_ok and chain_ok and enables_ok,
        f"1000 fixpoint instances, {checked} closures, {elapsed:.1f}s",
    )


def test_criterion_7_operator_laws_and_step_identities():
    done = timed(120.0)

    # the eight defining cases of the trace operators
    laws = [
        trace_first(("q1",)) == "q1",
        trace_first(("q1", "q3")) == "q1",
        trace_last(("q3",)) == "q3",
        trace_last(("q1", "q3")) == "q3",
        trace_pushlast(("q1", "q2"), "q2") == ("q1", "q2"),
        trace_pushlast(("q1", "q2"), "q3") == ("q1", "q2", "q3"),
        trace_popfirst(("q1", "q2")) == ("q2",),
        trace_popfirst(("q1",)) == ("q1",),
    ]

    # fully active steps collapse to the synchronous step
    rng = random.Random(2)
    collapse_ok = True
    for _ in range(200):
        a = make_automaton(rng, max_states=4, bits=1)
        g = make_graph(rng, 4, 1)
        states = {v: a.states[rng.randrange(len(a.states))] for v in g.nodes}
        from automu.runtime import Configuration

        c = Configuration(node_state=states, buffers={(u, v): (states[u],) for u, v in g.edges})
        collapse_ok = collapse_ok and (
            async_step(a, g, c, synchronous_activation(g)) == sync_step(a, g, c)
        )

    # quiescent configurations absorb every activation map
    absorb_ok = True
    for _ in range(200):
        a = make_automaton(rng, max_states=4, bits=1, quasi_acyclic=True)
        g = make_graph(rng, 3, 1)
        final = async_run(a, g, sample_timing(g, 8, seed=rng.randrange(2**32))).final
        absorb_ok = absorb_ok and is_quiescent(a, g, final)
        act = Activation(
            nodes={v: rng.randint(0, 1) for v in g.nodes},
            edges={e: rng.randint(0, 1) for e in g.edges},
        )
        absorb_ok = absorb_ok and async_step(a, g, final, act) == final
    elapsed = done()
    report(
        "criterion 7: operator laws, synchronous collapse x200, quiescence absorption x200",
        all(laws) and collapse_ok and absorb_ok,
        f"{elapsed:.1f}s",
    )
