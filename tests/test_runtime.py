import functools
import graphlib
import itertools
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from automu import runtime
from automu.automata import (
    CERTIFICATE_GUARD,
    ELSE,
    Automaton,
    NotQuasiAcyclic,
    SubsetEq,
    SupsetEq,
    TransitionRule,
    parse_automaton,
    trace_pushlast,
)
from automu.cli import main
from automu.graphs import (
    Digraph,
    PointedDigraph,
    enumerate_digraphs,
    indexed_digraph,
    node_set,
    parse_digraph,
    random_digraph,
)
from automu.logic import parse_formula
from automu.runtime import (
    DEFAULT_STARVATION_BOUND,
    Activation,
    Configuration,
    ConsistencyVerdict,
    ConsistencyWitness,
    FuzzVerdict,
    FuzzWitness,
    RunReport,
    RuntimeFormatError,
    TimingPrefix,
    TimingSampler,
    _index_movers,
    _label_states,
    _Net,
    _outcomes,
    _run,
    _sample,
    async_run,
    async_step,
    check_consistency,
    fuzz_consistency,
    initial_configuration,
    is_quiescent,
    parse_timing,
    sample_timing,
    sync_accepting_nodes,
    sync_accepts,
    sync_step,
    synchronous_activation,
    synchronous_prefix,
    timing_to_json,
)
from automu.transform import formula_to_automaton
from automu.zoo import (
    boxed_one_formula,
    chain_graph,
    reach_one_formula,
    safe_one_automaton,
    safe_one_formula,
    single_node,
    sync_probe_automaton,
    two_cycle_graph,
)
from strategies import automata, graphs, make_automaton, make_graph, make_system, seeds, systems
from test_logic import all_states_automaton
from test_state_diagram import reference_reachable_traces, scan_bound
from test_transform import SIX_VARIABLES


def sync_config(a, g, rng):
    """Random configuration that a synchronous run could be in: arbitrary node
    states, buffers mirroring the writer."""
    states = {v: a.states[rng.randrange(len(a.states))] for v in g.nodes}
    return Configuration(node_state=states, buffers={(u, v): (states[u],) for u, v in g.edges})


class TestSyncStep:
    def test_chain_hand_simulation(self):
        a = safe_one_automaton()
        g = chain_graph()
        c0 = initial_configuration(a, g)
        assert c0.node_state == {"u": "q1", "v": "q2"}
        assert c0.buffers == {("u", "v"): ("q1",)}
        c1 = sync_step(a, g, c0)
        assert c1.node_state == {"u": "q5", "v": "q2"}
        assert c1.buffers == {("u", "v"): ("q5",)}
        c2 = sync_step(a, g, c1)
        assert c2.node_state == {"u": "q5", "v": "q5"}

    def test_edgeless_graph_evolves_by_empty_neighborhood(self):
        a = safe_one_automaton()
        g = Digraph(bits=1, nodes=("x", "y"), labels={"x": "1", "y": "0"}, edges=frozenset())
        c1 = sync_step(a, g, initial_configuration(a, g))
        assert c1.node_state == {"x": "q5", "y": "q4"}  # delta(q1, {}) and delta(q2, {})

    def test_configuration_mismatch(self):
        a = safe_one_automaton()
        with pytest.raises(RuntimeFormatError):
            sync_step(a, chain_graph(), initial_configuration(a, two_cycle_graph()))

    @given(automata(), graphs(), seeds)
    @settings(max_examples=40)
    def test_buffers_always_mirror_the_writer(self, a, g, seed):
        c = sync_config(a, g, random.Random(seed))
        out = sync_step(a, g, c)
        assert all(out.buffers[(u, v)] == (out.node_state[u],) for u, v in g.edges)


class TestSyncAcceptance:
    def test_isolated_one(self):
        assert sync_accepts(safe_one_automaton(), single_node("1"))

    def test_one_with_self_loop(self):
        assert not sync_accepts(safe_one_automaton(), single_node("1", self_loop=True))

    def test_chain_pointed_at_sink(self):
        assert sync_accepts(safe_one_automaton(), PointedDigraph(chain_graph(), "v"))

    def test_accepting_from_step_zero_counts(self):
        a = Automaton(
            bits=0, states=("q",), init={"": "q"}, accepting=frozenset({"q"}),
            rules={"q": (TransitionRule(ELSE, "q"),)},
        )
        assert sync_accepts(a, single_node(""))

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2).flatmap(
        lambda bits: st.tuples(automata(max_states=5, bits=bits), graphs(max_nodes=5, bits=bits))))
    def test_kernel_matches_the_sync_step_run(self, case):
        # automata with non-trivial cycles included
        a, g = case
        assert sync_accepting_nodes(a, g) == sync_step_accepting_nodes(a, g)


def sync_step_accepting_nodes(a, g):
    """The reference for the synchronous kernel: ``sync_step`` until the state
    map repeats, collecting the nodes that were ever in an accepting state."""
    config = initial_configuration(a, g)
    visited = {v for v in g.nodes if config.node_state[v] in a.accepting}
    seen = set()
    while True:
        key = tuple(config.node_state[v] for v in g.nodes)
        if key in seen:
            return frozenset(visited)
        seen.add(key)
        config = sync_step(a, g, config)
        visited.update(v for v in g.nodes if config.node_state[v] in a.accepting)


class TestAsyncStep:
    @given(automata(), graphs(), seeds)
    @settings(max_examples=60)
    def test_all_active_collapses_to_sync(self, a, g, seed):
        c = sync_config(a, g, random.Random(seed))
        assert async_step(a, g, c, synchronous_activation(g)) == sync_step(a, g, c)

    def test_only_edges_active_drains_buffers(self):
        a = safe_one_automaton()
        g = chain_graph()
        c = Configuration(
            node_state={"u": "q5", "v": "q2"},
            buffers={("u", "v"): ("q1", "q5")},
        )
        act = Activation(nodes={"u": 0, "v": 0}, edges={("u", "v"): 1})
        out = async_step(a, g, c, act)
        assert out.node_state == c.node_state
        assert out.buffers == {("u", "v"): ("q5",)}

    def test_only_nodes_active_grows_buffers(self):
        a = safe_one_automaton()
        g = Digraph(bits=1, nodes=("u", "v"), labels={"u": "0", "v": "0"},
                    edges=frozenset({("u", "v")}))
        c0 = initial_configuration(a, g)  # u at q2 with no incoming edges
        act = Activation(nodes={"u": 1, "v": 1}, edges={("u", "v"): 0})
        out = async_step(a, g, c0, act)
        assert out.node_state["u"] == "q4"  # delta(q2, {}) = q4
        assert out.buffers[("u", "v")] == ("q2", "q4")  # inactive edge keeps history

    def test_incomplete_activation_rejected(self):
        a = safe_one_automaton()
        g = chain_graph()
        with pytest.raises(RuntimeFormatError, match="incomplete"):
            async_step(a, g, initial_configuration(a, g), Activation(nodes={"u": 1}, edges={}))


class TestTimingSampler:
    def test_p_one_is_synchronous(self):
        g = two_cycle_graph()
        t = sample_timing(g, steps=5, p_active=1.0, seed=9)
        assert all(step == synchronous_activation(g) for step in t.steps)

    def test_deterministic(self):
        g = two_cycle_graph()
        assert sample_timing(g, 20, seed=5) == sample_timing(g, 20, seed=5)
        assert sample_timing(g, 20, seed=5) != sample_timing(g, 20, seed=6)

    def test_lossless_invariant(self):
        g = make_graph(random.Random(2), 5, 1)
        t = sample_timing(g, steps=40, lossless=True, seed=3)
        for step in t.steps:
            for (u, v), on in step.edges.items():
                if on:
                    assert step.nodes[v] == 1

    def test_starvation_bound(self):
        g = make_graph(random.Random(4), 5, 1)
        k = 4
        t = sample_timing(g, steps=60, p_active=0.1, starvation_bound=k, seed=8)
        for entity in list(g.nodes) + list(g.edges):
            idle = 0
            for step in t.steps:
                on = step.nodes[entity] if isinstance(entity, str) else step.edges[entity]
                idle = 0 if on else idle + 1
                assert idle < k

    def test_json_round_trip(self):
        g = chain_graph()
        t = sample_timing(g, steps=7, lossless=True, seed=1)
        assert parse_timing(timing_to_json(t)) == t

    @pytest.mark.parametrize("part", ["nodes", "edges"])
    @pytest.mark.parametrize("on", [True, False])
    def test_json_booleans_are_refused(self, part, on):
        # JSON true and false are not the integers 1 and 0
        good = {"nodes": {"u": 1, "v": 1}, "edges": {"u->v": 1}}
        bad = {**good, part: dict.fromkeys(good[part], on)}
        with pytest.raises(RuntimeFormatError, match=f"step #1: '{part}'"):
            parse_timing(json.dumps({"lossless": False, "K": 8, "steps": [good, bad]}))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TimingSampler(chain_graph(), p_active=0.0)
        with pytest.raises(ValueError):
            TimingSampler(chain_graph(), starvation_bound=0)


class TestAsyncRun:
    def test_chain_any_fair_timing_accepts_everywhere(self):
        a = safe_one_automaton()
        g = chain_graph()
        for seed in range(8):
            t = sample_timing(g, steps=30, seed=seed, lossless=bool(seed % 2))
            report = async_run(a, g, t, extend_until_quiescent=True)
            assert report.accepted == {"u": "yes", "v": "yes"}
            assert report.stabilized_at is not None

    def test_all_active_prefix_matches_sync_simulation(self):
        a = safe_one_automaton()
        g = two_cycle_graph()
        horizon = 6
        report = async_run(a, g, synchronous_prefix(g, horizon), extend_until_quiescent=False)
        c = initial_configuration(a, g)
        visited = {v: c.node_state[v] in a.accepting for v in g.nodes}
        for _ in range(report.steps_taken):
            c = sync_step(a, g, c)
            for v in g.nodes:
                visited[v] = visited[v] or c.node_state[v] in a.accepting
        for v in g.nodes:
            assert (report.accepted[v] == "yes") == visited[v]

    def test_self_looped_one_rejects_definitively(self):
        a = safe_one_automaton()
        p = single_node("1", self_loop=True)
        t = sample_timing(p.graph, steps=25, seed=4)
        report = async_run(a, p.graph, t, extend_until_quiescent=True)
        assert report.accepted["v"] == "no"
        assert report.stabilized_at is not None
        assert report.trace_of["v"] == ("q1",)

    def test_without_extension_unknown(self):
        a = safe_one_automaton()
        p = single_node("1", self_loop=True)
        report = async_run(a, p.graph, sample_timing(p.graph, 2, seed=11),
                           extend_until_quiescent=False)
        assert report.accepted["v"] in ("no", "unknown")

    def test_monotone_acceptance_over_horizons(self):
        a = safe_one_automaton()
        g = two_cycle_graph()
        yes_at = []
        for horizon in (2, 5, 9, 14):
            t = sample_timing(g, steps=horizon, seed=2)
            report = async_run(a, g, t, extend_until_quiescent=False)
            yes_at.append({v for v in g.nodes if report.accepted[v] == "yes"})
        for small, big in zip(yes_at, yes_at[1:]):
            assert small <= big

    def test_deterministic_report(self):
        a = safe_one_automaton()
        g = make_graph(random.Random(13), 4, 1)
        t = sample_timing(g, steps=20, seed=21)
        assert async_run(a, g, t) == async_run(a, g, t)

    def test_extension_requires_quasi_acyclic(self):
        cyclic = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        g = two_cycle_graph()
        g0 = Digraph(bits=0, nodes=g.nodes, labels={v: "" for v in g.nodes}, edges=g.edges)
        with pytest.raises(NotQuasiAcyclic):
            async_run(cyclic, g0, sample_timing(g0, 4, seed=0), extend_until_quiescent=True)

    def test_visited_step_zero(self):
        a = Automaton(
            bits=0, states=("q",), init={"": "q"}, accepting=frozenset({"q"}),
            rules={"q": (TransitionRule(ELSE, "q"),)},
        )
        p = single_node("")
        report = async_run(a, p.graph, sample_timing(p.graph, 3, seed=0))
        assert report.visited_accepting_at["v"] == 0


class TestQuiescence:
    @given(automata(quasi_acyclic=True), graphs(max_nodes=3), seeds)
    @settings(max_examples=50)
    def test_absorbing_under_any_activation(self, a, g, seed):
        report = async_run(a, g, sample_timing(g, 10, seed=seed), extend_until_quiescent=True)
        final = report.final
        assert is_quiescent(a, g, final)
        rng = random.Random(seed)
        for _ in range(5):
            act = Activation(
                nodes={v: rng.randint(0, 1) for v in g.nodes},
                edges={e: rng.randint(0, 1) for e in g.edges},
            )
            assert async_step(a, g, final, act) == final

    @given(automata(quasi_acyclic=True), graphs(max_nodes=3), seeds)
    @settings(max_examples=50)
    def test_extension_always_terminates(self, a, g, seed):
        report = async_run(a, g, sample_timing(g, 6, seed=seed), extend_until_quiescent=True)
        assert report.stabilized_at is not None
        assert all(v in ("yes", "no") for v in report.accepted.values())


class TestConsistency:
    def test_five_state_machine_consistent(self):
        a = safe_one_automaton()
        for g in (chain_graph(), two_cycle_graph(), make_graph(random.Random(3), 4, 1)):
            verdict = check_consistency(a, g, samples=30, seed=7)
            assert verdict.consistent

    def test_probe_inconsistent_on_two_cycle(self):
        verdict = check_consistency(sync_probe_automaton(), two_cycle_graph(), samples=40, seed=0)
        assert not verdict.consistent
        w = verdict.witness
        assert w.node in ("u", "v")
        assert {w.verdict_a, w.verdict_b} == {"yes", "no"}

    def test_probe_witness_replays(self):
        a = sync_probe_automaton()
        g = two_cycle_graph()
        w = check_consistency(a, g, samples=40, seed=0).witness
        ra = async_run(a, g, w.timing_a, extend_until_quiescent=True)
        rb = async_run(a, g, w.timing_b, extend_until_quiescent=True)
        assert ra.accepted[w.node] == w.verdict_a
        assert rb.accepted[w.node] == w.verdict_b

    def test_probe_is_lossless_consistent_on_two_cycle(self):
        # the probe only exploits message loss; lossless delivery cannot
        # reorder its first observation
        verdict = check_consistency(
            sync_probe_automaton(), two_cycle_graph(), samples=60, lossless_only=True, seed=0
        )
        assert verdict.consistent

    @pytest.mark.parametrize("counts", [{"samples": -3}, {"samples": 5, "budget": -1}])
    def test_negative_counts_rejected(self, counts):
        name, value = list(counts.items())[-1]
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got {value}"):
            check_consistency(sync_probe_automaton(), two_cycle_graph(), **counts)

    def test_zero_budget_is_legal(self):
        verdict = check_consistency(sync_probe_automaton(), two_cycle_graph(), samples=4, budget=0)
        assert verdict == reference_consistency(sync_probe_automaton(), two_cycle_graph(), 4, budget=0)
        assert verdict.runs == 5

    def test_zero_samples_vacuous(self):
        verdict = check_consistency(sync_probe_automaton(), two_cycle_graph(), samples=0)
        assert verdict.consistent
        assert verdict.runs == 1
        assert verdict.comparisons == 0  # consistent, having compared nothing

    def test_non_quasi_acyclic_does_not_crash(self):
        cyclic = Automaton(
            bits=1, states=("q1", "q2"), init={"0": "q1", "1": "q2"}, accepting=frozenset({"q2"}),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        verdict = check_consistency(cyclic, two_cycle_graph(), samples=5, seed=1, budget=30)
        assert verdict.runs == 6

    @pytest.mark.parametrize("max_nodes, graphs", [(3, 10), (3, 20), (4, 20)])
    def test_fuzz_result_independent_of_jobs(self, max_nodes, graphs):
        a = sync_probe_automaton()
        seq, par = (fuzz_consistency(a, max_nodes, graphs, graphs, seed=0, jobs=jobs) for jobs in (1, 2))
        assert not seq.consistent
        assert seq == par


def criterion_4_subjects():
    return [safe_one_automaton()] + [formula_to_automaton(f())
                                     for f in (safe_one_formula, reach_one_formula, boxed_one_formula)]


def uncertified():
    """The certificate switched off: every automaton takes the explorer,
    then the sampled loop, as if ``Automaton.is_monotone`` had failed."""
    return mock.patch.object(Automaton, "is_monotone", lambda self: False)


def sampled_consistency(*args, **kwargs):
    """``check_consistency`` with the certificate off and the explorer
    leaving every graph undecided: the sampled loop runs on every graph
    that moves."""
    with uncertified(), mock.patch.object(runtime, "_outcomes", lambda net, limit: iter([None])):
        return check_consistency(*args, **kwargs)


class TestQuiescentAtStart:
    def test_takes_the_synchronous_run_alone(self):
        rng = random.Random(0)
        quiet = 0
        for a in criterion_4_subjects():
            for _ in range(15):
                g = make_graph(rng, 5, a.bits)
                verdict = check_consistency(a, g, samples=6, seed=1)
                assert sampled_consistency(a, g, samples=6, seed=1) == verdict
                if not is_quiescent(a, g, initial_configuration(a, g)):
                    assert verdict.runs == 7
                    continue
                quiet += 1
                assert (verdict.consistent, verdict.runs, verdict.comparisons) == (True, 1, 0)
                # no timing can move a configuration that is quiescent
                sync = async_run(a, g, synchronous_prefix(g, 1)).accepted
                for seed in range(4):
                    for lossless in (True, False):
                        timing = sample_timing(g, steps=12, lossless=lossless, seed=seed)
                        assert async_run(a, g, timing).accepted == sync
        assert quiet > 0

    @pytest.mark.parametrize("subject", range(4))
    def test_criterion_4_subjects_fuzz_as_before(self, subject):
        verdict = fuzz_consistency(criterion_4_subjects()[subject], 5, 20, 20, seed=0)
        assert (verdict.consistent, verdict.graphs_checked) == (True, 20)
        assert verdict.comparisons > 0
        assert verdict == fuzz_consistency(criterion_4_subjects()[subject], 5, 20, 20, seed=0, jobs=2)


# ---------------------------------------------------------------------------
# the run engine against the single-step reference

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def reference_run(a, g, activations, extend_until_quiescent):
    """The run loop over ``async_step`` and ``is_quiescent`` on named
    configurations: the supplied activations, then the fully-active
    extension up to its theoretical bound, whose longest trace is read off
    the scanned states reachable from initialization."""
    config = initial_configuration(a, g)
    visited = {v: 0 if config.node_state[v] in a.accepting else None for v in g.nodes}
    traces = {v: (config.node_state[v],) for v in g.nodes}
    stabilized = 0 if is_quiescent(a, g, config) else None
    step = 0

    def schedule():
        yield from activations
        if not extend_until_quiescent:
            return
        longest = scan_bound(a, a.init.values())
        if longest is None:
            raise NotQuasiAcyclic("buffers may grow forever")
        budget = (len(g.nodes) * (longest + 1) + 2) * (longest + 2)
        budget += sum(len(b) for b in config.buffers.values())  # the buffers at the prefix's end
        yield from itertools.repeat(synchronous_activation(g), budget)
        raise AssertionError("quiescence not reached within its theoretical bound")

    if stabilized is None:
        for act in schedule():
            step += 1
            config = async_step(a, g, config, act)
            for v in g.nodes:
                traces[v] = trace_pushlast(traces[v], config.node_state[v])
                if visited[v] is None and config.node_state[v] in a.accepting:
                    visited[v] = step
            if is_quiescent(a, g, config):
                stabilized = step
                break
    unvisited = "no" if stabilized is not None else "unknown"
    return RunReport(
        accepted={v: "yes" if visited[v] is not None else unvisited for v in g.nodes},
        visited_accepting_at=visited,
        stabilized_at=stabilized,
        trace_of=traces,
        steps_taken=step,
        final=config,
    )


def reference_consistency(a, g, samples, lossless_only=False, seed=0, budget=None):
    """``check_consistency`` on ``reference_run``, fed by ``next_step`` and
    recording the activations each run consumed."""
    if budget is None:
        budget = 10 * DEFAULT_STARVATION_BOUND * len(g.nodes)
    quasi = scan_bound(a, a.init.values()) is not None

    def run_prefix(activations, lossless, k):
        consumed = []

        def tee():
            for act in itertools.islice(activations, budget):
                consumed.append(act)
                yield act

        report = reference_run(a, g, tee(), quasi)
        return report, TimingPrefix(tuple(consumed), lossless=lossless, starvation_bound=k)

    base, base_prefix = run_prefix(iter(synchronous_prefix(g, budget).steps), True, 1)
    if base.stabilized_at == 0:
        return ConsistencyVerdict(consistent=True, runs=1, comparisons=0)
    refs = {v: (base.accepted[v], base_prefix) for v in g.nodes}
    rng = random.Random(seed)
    comparisons = 0
    for i in range(samples):
        lossless = True if lossless_only else (i % 2 == 0)
        sampler = TimingSampler(g, lossless=lossless, seed=rng.randrange(2**32))
        report, prefix = run_prefix(iter(sampler), lossless, DEFAULT_STARVATION_BOUND)
        for v in g.nodes:
            got, (ref, ref_prefix) = report.accepted[v], refs[v]
            if got == "unknown":
                continue
            if ref == "unknown":
                refs[v] = (got, prefix)
                continue
            comparisons += 1
            if got != ref:
                witness = ConsistencyWitness(v, ref_prefix, ref, prefix, got)
                return ConsistencyVerdict(False, i + 2, comparisons, witness)
    return ConsistencyVerdict(True, samples + 1, comparisons)


def engine_subjects():
    return {
        "safe_one.json": parse_automaton((SAMPLES / "safe_one.json").read_text()),
        "sync_probe.json": parse_automaton((SAMPLES / "sync_probe.json").read_text()),
        **{f"up({f.__name__[:-8]})": formula_to_automaton(f())
           for f in (safe_one_formula, reach_one_formula, boxed_one_formula)},
    }


# the engine subjects ``Automaton.is_monotone`` certifies
CERTIFIED = {"safe_one.json", "up(safe_one)", "up(reach_one)", "up(boxed_one)"}


def reference_fuzz(a, max_nodes, graphs, timings_per_graph, lossless_only=False, seed=0):
    """``fuzz_consistency`` as one loop over whole digraphs: every graph is
    drawn by ``random_digraph`` and checked by ``check_consistency``."""
    rng = random.Random(seed)
    specs = [(rng.randrange(2**32), rng.randrange(2**32)) for _ in range(graphs)]
    comparisons = 0
    for i, (graph_seed, timing_seed) in enumerate(specs):
        g = random_digraph(random.Random(graph_seed), max_nodes, a.bits).graph
        verdict = check_consistency(a, g, samples=timings_per_graph, lossless_only=lossless_only,
                                    seed=timing_seed)
        comparisons += verdict.comparisons
        if not verdict.consistent:
            return FuzzVerdict(False, i + 1, comparisons, FuzzWitness(g, verdict.witness))
    return FuzzVerdict(True, graphs, comparisons)


def index_automata():
    """Random automata of 0, 1 and 2 bits."""
    return [make_automaton(random.Random(s), 4, bits, quasi_acyclic=s % 2 == 0)
            for bits in (0, 1, 2) for s in range(3)]


class TestIndexPath:
    """``fuzz_consistency`` settles a graph from the integers ``random_indices``
    draws when it is quiescent at the start or the automaton is certified."""

    @pytest.mark.parametrize("a", list(engine_subjects().values()) + index_automata(),
                             ids=list(engine_subjects()) + [f"a{i}" for i in range(9)])
    def test_initial_movers_match_the_net(self, a):
        label_states = _label_states(a)
        for m in (1, 2, 3):
            for mask in range(1 << m * m):
                for index in range(1 << a.bits * m):
                    want = _Net(a, indexed_digraph(m, a.bits, mask, index)).movers
                    assert _index_movers(a, label_states, m, mask, index) == want, (m, mask, index)

    @pytest.mark.parametrize("name", list(engine_subjects()))
    def test_fuzz_matches_the_per_graph_loop(self, name):
        a = engine_subjects()[name]
        witnesses = 0
        for timings, lossless_only in itertools.product((0, 20), (False, True)):
            want = reference_fuzz(a, 4, 30, timings, lossless_only, seed=2)
            for jobs in (1, 2):
                assert fuzz_consistency(a, 4, 30, timings, lossless_only, seed=2, jobs=jobs) == want
            witnesses += want.witness is not None
        if name == "sync_probe.json":
            assert witnesses  # the probe's witness comes out the same way

    def test_a_settled_graph_is_never_built(self):
        a = formula_to_automaton(reach_one_formula())
        want = reference_fuzz(a, 5, 40, 20)
        assert a.is_monotone() and want.comparisons > 0

        def fail(*args):
            raise AssertionError("a graph was built")

        with mock.patch.object(runtime, "indexed_digraph", fail), mock.patch.object(runtime, "_Net", fail):
            assert fuzz_consistency(a, 5, 40, 20) == want


def engine_graphs(bits):
    """Every digraph of at most 2 nodes, then 3- to 5-node samples."""
    yield from enumerate_digraphs(2, bits)
    rng = random.Random(bits)
    for m in (3, 4, 5) * 4:
        nodes = tuple(f"n{i}" for i in range(m))
        yield Digraph(bits=bits, nodes=nodes,
                      labels={v: "".join(rng.choice("01") for _ in range(bits)) for v in nodes},
                      edges=frozenset((u, v) for u in nodes for v in nodes if rng.random() < 0.4))


def engine_timings(g, seed):
    """(timing, extend until quiescent): synchronous, sampled lossless and
    lossy timings, and short prefixes that stop at their end."""
    yield synchronous_prefix(g, 4), True
    for lossless in (True, False):
        yield sample_timing(g, 30, lossless=lossless, seed=seed), True
        yield sample_timing(g, 3, lossless=lossless, seed=seed + 1), False
    yield sample_timing(g, 12, p_active=0.2, starvation_bound=3, seed=seed), False


class TestEngineAgainstReference:
    @pytest.mark.parametrize("name", list(engine_subjects()))
    def test_reports_match(self, name):
        a = engine_subjects()[name]
        for i, g in enumerate(engine_graphs(a.bits)):
            for timing, extend in engine_timings(g, i):
                want = reference_run(a, g, timing.steps, extend)
                assert async_run(a, g, timing, extend) == want, (g, timing)

    @given(automata(max_states=5), graphs(max_nodes=4), seeds)
    @settings(max_examples=60)
    def test_reports_match_on_any_automaton(self, a, g, seed):
        # cyclic automata included: both sides raise alike when asked to extend them
        for timing, extend in engine_timings(g, seed):
            try:
                want = reference_run(a, g, timing.steps, extend)
            except NotQuasiAcyclic:
                with pytest.raises(NotQuasiAcyclic):
                    async_run(a, g, timing, extend)
                continue
            assert async_run(a, g, timing, extend) == want

    @pytest.mark.parametrize("name", list(engine_subjects()))
    def test_consistency_verdicts_match(self, name):
        a = engine_subjects()[name]
        rng = random.Random(7)
        for i in range(12):
            g = make_graph(rng, 5, a.bits)
            # a budget of 2 steps leaves most runs to the fully-active extension
            for lossless_only, budget in itertools.product((False, True), (None, 2)):
                want = reference_consistency(a, g, 12, lossless_only, seed=i, budget=budget)
                assert check_consistency(a, g, 12, lossless_only, seed=i, budget=budget) == want
                assert sampled_consistency(a, g, 12, lossless_only, seed=i, budget=budget) == want

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("delayed", [False, True])
    def test_probe_witness_matches(self, delayed, budget):
        a, g = sync_probe_automaton(), two_cycle_graph()
        if delayed:  # one unconditional step first, so the synchronous run outlasts a budget of 1
            a = Automaton(bits=1, states=("wait",) + a.states, init={"0": "wait", "1": "wait"},
                          rules={"wait": (TransitionRule(ELSE, "qa"),), **a.rules}, accepting=a.accepting)
        got = check_consistency(a, g, samples=40, seed=0, budget=budget)
        assert not got.consistent
        assert got == reference_consistency(a, g, 40, seed=0, budget=budget)


class TestSamplerViews:
    @staticmethod
    def reference_steps(g, steps, p_active, starvation_bound, lossless, seed):
        """The draw order: the nodes in order, then the edges sorted; a
        starved entity is active without a draw."""
        rng = random.Random(seed)
        edges = sorted(g.edges)
        idle = {x: 0 for x in itertools.chain(g.nodes, edges)}
        for _ in range(steps):
            on = {x: 1 if idle[x] >= starvation_bound - 1 or rng.random() < p_active else 0 for x in idle}
            for (u, v) in edges if lossless else ():
                if on[u, v]:
                    on[v] = 1
            idle = {x: 0 if on[x] else idle[x] + 1 for x in idle}
            yield tuple(on.values())

    @pytest.mark.parametrize("lossless", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_bits_and_next_step_are_one_stream(self, seed, lossless):
        g = make_graph(random.Random(seed), 5, 1)
        for p, k in ((0.5, DEFAULT_STARVATION_BOUND), (0.2, 3)):
            bits = TimingSampler(g, p, k, lossless, seed)
            acts = TimingSampler(g, p, k, lossless, seed)
            want = self.reference_steps(g, 60, p, k, lossless, seed)
            for on, ref in zip(iter(bits.next_bits, None), want):
                act = acts.next_step()
                on = mask_bits(on, len(ref))
                assert on == ref
                assert on == (tuple(act.nodes[v] for v in g.nodes)
                              + tuple(act.edges[e] for e in sorted(g.edges)))

    @pytest.mark.parametrize("lossless", [False, True])
    @pytest.mark.parametrize("k", [1, 2, DEFAULT_STARVATION_BOUND, 70])
    @pytest.mark.parametrize("p", [0.3, 0.1, 1e-9, 1.0])
    def test_lane_draws_are_random_draws(self, p, k, lossless):
        # a prefix in which no entity can starve yet, one ending where the
        # first can, and ones crossing step K
        for seed in range(4):
            g = make_graph(random.Random(seed), 5, 1)
            for steps in {max(k - 2, 0), k - 1, k, 3 * k + 5}:
                sampler = TimingSampler(g, p, k, lossless, seed)
                want = list(self.reference_steps(g, steps, p, k, lossless, seed))
                entities = len(g.nodes) + len(g.edges)
                assert [mask_bits(sampler.next_bits(), entities) for _ in range(steps)] == want
                timing = sample_timing(g, steps, p, k, lossless, seed)
                assert [tuple(act.nodes[v] for v in g.nodes) + tuple(act.edges[e] for e in sorted(g.edges))
                        for act in timing.steps] == want


def mask_bits(on, entities):
    """A step mask as one 0/1 per entity, in index order."""
    return tuple(on >> i & 1 for i in range(entities))


def staged_automaton():
    """A writer with no incoming edge moves s0 -> s1 -> s2; a reader in s0
    accepts if the front it reads is s1, rejects on s2, and waits on s0."""
    return Automaton(
        bits=0, states=("s0", "s1", "s2", "acc", "rej"), init={"": "s0"}, accepting=frozenset({"acc"}),
        rules={
            "s0": (TransitionRule(SupsetEq(frozenset({"s1"})), "acc"),
                   TransitionRule(SubsetEq(frozenset()), "s1"),
                   TransitionRule(SupsetEq(frozenset({"s2"})), "rej"),
                   TransitionRule(ELSE, "s0")),
            "s1": (TransitionRule(ELSE, "s2"),),
            "s2": (TransitionRule(ELSE, "s2"),),
            "acc": (TransitionRule(ELSE, "acc"),),
            "rej": (TransitionRule(ELSE, "rej"),),
        },
    )


def activation(g, active):
    """The activation in which exactly the named nodes and edges act."""
    return Activation(nodes={v: int(v in active) for v in g.nodes}, edges={e: int(e in active) for e in g.edges})


class TestEngineHandCases:
    def check(self, a, g, steps, buffer, verdict):
        """The run along ``steps`` matches the reference with and without
        the extension, leaves edge u -> v holding ``buffer``, and ends with
        ``verdict`` at v."""
        timing = TimingPrefix(tuple(activation(g, act) for act in steps), lossless=False, starvation_bound=1)
        cut = async_run(a, g, timing, extend_until_quiescent=False)
        assert cut == reference_run(a, g, timing.steps, False)
        assert cut.final.buffers["u", "v"] == buffer
        report = async_run(a, g, timing)
        assert report == reference_run(a, g, timing.steps, True)
        assert report.accepted["v"] == verdict

    def test_writer_moves_while_its_singleton_edge_pops(self):
        # u moves qa -> qacc and its buffer to v is pushed then popped in
        # the same step: v's front is now qacc, so v reads no qa and dies
        g = two_cycle_graph()
        self.check(sync_probe_automaton(), g, [{"u", ("u", "v")}], ("qacc",), "no")

    def test_long_buffer_pops_while_its_writer_moves(self):
        # u: s0 -> s1 with the edge idle leaves (s0, s1); u: s1 -> s2 with
        # the edge active pushes s2 and pops s0 once, so v's front is s1
        g = Digraph(bits=0, nodes=("u", "v"), labels={"u": "", "v": ""}, edges=frozenset({("u", "v")}))
        self.check(staged_automaton(), g, [{"u"}, {"u", ("u", "v")}], ("s1", "s2"), "yes")

    def test_consistency_past_the_first_block(self):
        # safe_one on a 5-node path: sampled runs outlast the K-1 steps the
        # sampler draws in its first call, so they read the later draws too
        a = safe_one_automaton()
        nodes = tuple(f"n{i}" for i in range(5))
        g = Digraph(bits=1, nodes=nodes, labels=dict(zip(nodes, "10000")), edges=frozenset(zip(nodes, nodes[1:])))
        got = sampled_consistency(a, g, 20, seed=3)
        assert got == reference_consistency(a, g, 20, seed=3) == check_consistency(a, g, 20, seed=3)
        assert got.runs == 21 and got.comparisons > 0
        rng, budget = random.Random(3), 10 * DEFAULT_STARVATION_BOUND * len(nodes)
        steps = [async_run(a, g, sample_timing(g, budget, lossless=i % 2 == 0, seed=rng.randrange(2**32))).steps_taken
                 for i in range(20)]
        assert max(steps) > DEFAULT_STARVATION_BOUND


# ---------------------------------------------------------------------------
# the lossy explorer against the full-activation reference


def reference_outcomes(a, g):
    """Every quiescent outcome over all timings, as the set of nodes that
    visited an accepting state: a search over named configurations in which
    any subset of the nodes and edges acts at each step, stepped by
    ``async_step`` and stopped by ``is_quiescent``."""
    entities = list(g.nodes) + sorted(g.edges)
    acts = [activation(g, on) for k in range(len(entities) + 1) for on in itertools.combinations(entities, k)]

    def key(c, visited):
        return tuple(sorted(c.node_state.items())), tuple(sorted(c.buffers.items())), visited

    c0 = initial_configuration(a, g)
    todo = [(c0, frozenset(v for v in g.nodes if c0.node_state[v] in a.accepting))]
    seen = {key(*todo[0])}
    outcomes = set()
    while todo:
        c, visited = todo.pop()
        if is_quiescent(a, g, c):
            outcomes.add(visited)
            continue
        for act in acts:
            nxt = async_step(a, g, c, act)
            now = visited | {v for v in g.nodes if nxt.node_state[v] in a.accepting}
            if key(nxt, now) not in seen:
                seen.add(key(nxt, now))
                todo.append((nxt, now))
    return outcomes


def explorer_graphs(bits):
    """Every digraph of at most 2 nodes, then sampled 3-node graphs."""
    yield from enumerate_digraphs(2, bits)
    rng = random.Random(bits)
    nodes = ("n0", "n1", "n2")
    for _ in range(6):
        yield Digraph(bits=bits, nodes=nodes,
                      labels={v: "".join(rng.choice("01") for _ in range(bits)) for v in nodes},
                      edges=frozenset((u, v) for u in nodes for v in nodes if rng.random() < 0.3))


def explored(a, g):
    """The explorer's outcomes with no limit, as sets of nodes."""
    return {node_set(g, mask) for mask in _outcomes(_Net(a, g), math.inf)}


def consistency_path(a, g, samples, **kwargs):
    """``check_consistency``'s verdict, and the path that settled it:
    "quiescent" at the start, "certified" by ``Automaton.is_monotone``,
    "explored" by ``_outcomes`` or "sampled"."""
    with mock.patch.object(runtime, "_outcomes", wraps=runtime._outcomes) as explore, \
            mock.patch.object(runtime, "_sampled_consistency", wraps=runtime._sampled_consistency) as sample:
        verdict = check_consistency(a, g, samples, **kwargs)
    if sample.called:
        return verdict, "sampled"
    if explore.called:
        return verdict, "explored"
    return verdict, "quiescent" if verdict.runs == 1 else "certified"


def proved(a, g, samples):
    """Whether ``check_consistency`` settles the graph without sampling."""
    found = list(itertools.islice(_outcomes(_Net(a, g), samples), 2))
    return len(found) == 1 and found[0] is not None


class TestExplorer:
    @pytest.mark.parametrize("name", list(engine_subjects()))
    def test_outcomes_match_the_full_activation_reference(self, name):
        a = engine_subjects()[name]
        several = 0
        for g in explorer_graphs(a.bits):
            want = reference_outcomes(a, g)
            assert explored(a, g) == want, g
            several += len(want) > 1
        if name == "sync_probe.json":
            assert several  # the probe is timing-dependent on some of them

    @pytest.mark.parametrize("name", list(engine_subjects()))
    def test_sampled_runs_end_in_an_explored_outcome(self, name):
        a = engine_subjects()[name]
        rng = random.Random(5)
        for g in itertools.chain(explorer_graphs(a.bits), (make_graph(rng, 4, a.bits) for _ in range(4))):
            net = _Net(a, g)
            outcomes = explored(a, g)
            for seed, lossless in itertools.product(range(6), (False, True)):
                steps = _sample(g, 0.5, DEFAULT_STARVATION_BOUND, lossless, random.Random(seed))
                out = _run(net, itertools.islice(steps, 40), True)
                assert node_set(g, sum(1 << v for v, at in enumerate(out.visited) if at is not None)) in outcomes

    @pytest.mark.parametrize("name", list(engine_subjects()))
    def test_consistency_matches_the_reference_on_either_path(self, name):
        a = engine_subjects()[name]
        paths, uncertified_paths = set(), set()
        for i, g in enumerate(engine_graphs(a.bits)):
            want = reference_consistency(a, g, 12, seed=i)
            verdict, path = consistency_path(a, g, 12, seed=i)
            assert verdict == want, g
            paths.add(path)
            with uncertified():  # the explorer and the sampled loop, on every subject
                verdict, path = consistency_path(a, g, 12, seed=i)
            assert verdict == want, g
            uncertified_paths.add(path)
        # the graphs that move: every one certified, or some explored and some sampled
        assert paths - {"quiescent"} == ({"certified"} if name in CERTIFIED else {"explored", "sampled"})
        assert uncertified_paths - {"quiescent"} == {"explored", "sampled"}

    def test_a_proved_graph_draws_no_timing(self):
        a, g = safe_one_automaton(), chain_graph()
        assert proved(a, g, 30)

        def no_sampling(*args):
            raise AssertionError("a timing was drawn")

        with mock.patch.object(runtime, "_sample", no_sampling):
            with uncertified():  # the explorer proves it, not the certificate
                verdict = check_consistency(a, g, samples=30, seed=7)
            with pytest.raises(AssertionError, match="a timing was drawn"):
                check_consistency(sync_probe_automaton(), two_cycle_graph(), samples=30)
        assert verdict == ConsistencyVerdict(consistent=True, runs=31, comparisons=60)
        assert verdict == reference_consistency(a, g, 30, seed=7)

    def test_a_certified_graph_draws_no_timing(self):
        # five nodes and eleven edges: more than 30 configurations for the explorer
        a, g = formula_to_automaton(reach_one_formula()), make_graph(random.Random(6), 5, 1)
        assert a.is_monotone() and not proved(a, g, 30)
        # and a graph quiescent from the start, under an automaton with no certificate:
        # a lone node with no fronts never holds a front i, so it stays in i
        dropped, quiet = FAILS_ONE_CONDITION["a dropped front never lowers"], single_node("").graph
        assert is_quiescent(dropped, quiet, initial_configuration(dropped, quiet)) and not dropped.is_monotone()

        def fail(*args):
            raise AssertionError("a timing was drawn, a configuration explored or a run engine started")

        with mock.patch.object(runtime, "_sample", fail), mock.patch.object(runtime, "_outcomes", fail), \
                mock.patch.object(runtime, "_run", fail):
            verdict = check_consistency(a, g, samples=30, seed=7)
            assert check_consistency(dropped, quiet, samples=30) == ConsistencyVerdict(True, runs=1, comparisons=0)
        assert verdict == ConsistencyVerdict(consistent=True, runs=31, comparisons=30 * len(g.nodes))
        assert verdict == reference_consistency(a, g, 30, seed=7)


# ---------------------------------------------------------------------------
# the certificate: one quiescent outcome on every graph


def certificate_graphs(bits, seed):
    """Every digraph of at most 2 nodes, then sampled 3- and 4-node graphs."""
    yield from enumerate_digraphs(2, bits)
    rng = random.Random(seed)
    for m in (3, 3, 4, 4):
        nodes = tuple(f"n{i}" for i in range(m))
        yield Digraph(bits=bits, nodes=nodes,
                      labels={v: "".join(rng.choice("01") for _ in range(bits)) for v in nodes},
                      edges=frozenset((u, v) for u in nodes for v in nodes if rng.random() < 0.3))


def one_outcome_everywhere(a, seed):
    """The explorer, with no limit, finds exactly one outcome on every
    ``certificate_graphs`` graph."""
    for g in certificate_graphs(a.bits, seed):
        assert len(explored(a, g)) == 1, g


def hand_automaton(accepting, rules):
    """A 0-bit automaton that starts in state i; ``rules`` lists each
    state's (guard, target) pairs."""
    return Automaton(bits=0, states=tuple(rules), init={"": "i"}, accepting=frozenset(accepting),
                     rules={q: tuple(TransitionRule(g, t) for g, t in lst) for q, lst in rules.items()})


def sub(*states):
    return SubsetEq(frozenset(states))


def sup(*states):
    return SupsetEq(frozenset(states))


# per condition of the table ``reference_monotone``, an automaton that fails
# that one alone, and is timing-dependent on some digraph of two nodes
FAILS_ONE_CONDITION = {
    # accepting a is below rejecting b: a node that reads a moves past it
    "accepting upward closed": hand_automaton({"a"}, {
        "i": [(sub("i"), "a"), (ELSE, "b")], "a": [(ELSE, "b")], "b": [(ELSE, "b")]}),
    # from i, reading b jumps to b, but from a, reading i and b stays at a
    "monotone in the state": hand_automaton({"b"}, {
        "i": [(sub("i", "a"), "a"), (ELSE, "b")], "a": [(sub("b"), "b"), (ELSE, "a")], "b": [(ELSE, "b")]}),
    # i moves only while every front is i: a front that moved on blocks it
    "a raised front never lowers": hand_automaton({"a"}, {
        "i": [(sub("i"), "a"), (ELSE, "i")], "a": [(ELSE, "a")]}),
    # i moves only while some front is i: dropping it blocks the move
    "a dropped front never lowers": hand_automaton({"a"}, {
        "i": [(sup("i"), "a"), (ELSE, "i")], "a": [(ELSE, "a")]}),
}


def reference_monotone(a):
    """The certificate ``Automaton.is_monotone`` had before it read front
    sets, on a table of step over every subset F of R, the states of
    ``state_diagram(init states)``, under the same guard: 1 as now, and
    2 to 4 in place of its condition 2 (see its docstring), which they
    imply.  ``table[q][i]`` is step(q, subsets[i]), where bit k of i says
    the k-th state of R is in the subset, and bit r of ``up[q]`` says
    q <= r.  2 is checked for q2 a successor of q only; 3 and 4 in one loop
    over F and y.  Its conditions are

    2. step(q, F) <= step(q2, F) for q <= q2;
    3. step(q, F) <= step(q, F | {y}) when some x in F has x <= y;
    4. step(q, F | {y}) <= step(q, F) when some z in F has y <= z.
    """
    if a.trace_length_bound(a.init.values()) is None:
        return False
    diagram = a.state_diagram(a.init.values())
    if len(diagram) > CERTIFICATE_GUARD:
        return False
    states = [a.index[q] for q in diagram]
    successors = {a.index[q]: [a.index[r] for r in found] for q, found in diagram.items()}
    subsets = [0]
    for q in states:
        subsets += [f | 1 << q for f in subsets]
    table = {q: [a.step(q, f) for f in subsets] for q in states}
    up = {}
    for q in graphlib.TopologicalSorter(successors).static_order():  # successors first
        up[q] = 1 << q
        for r in successors[q]:
            up[q] |= up[r]
    down = {y: sum(1 << x for x in states if up[x] >> y & 1) for y in states}
    accepting = a.mask(a.accepting)
    if any(up[q] & ~accepting for q in states if accepting >> q & 1):
        return False
    for q, row in table.items():
        for q2 in successors[q]:
            if not all(up[t] >> t2 & 1 for t, t2 in zip(row, table[q2])):
                return False
    for row in table.values():
        for k, y in enumerate(states):
            for i, f in enumerate(subsets):
                if i >> k & 1:
                    continue
                t, t2 = row[i], row[i | 1 << k]
                if f & down[y] and not up[t] >> t2 & 1 or f & up[y] and not up[t2] >> t & 1:
                    return False
    return True


def submasks(mask):
    """Every mask whose bits are bits of ``mask``."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def reference_front_monotone(a):
    """``Automaton.is_monotone`` by brute force over the subsets of R, the
    states of ``state_diagram(init states)``, under the same guard: <= from
    a table of step over every subset of R, Front as a fixpoint over every
    subset of each Front(q), then condition 2 over every s <= q, every
    subset F of Front(s) and every subset G of Front(q).  Bit r of
    ``up[q]`` says q <= r."""
    if a.trace_length_bound(a.init.values()) is None:
        return False
    diagram = a.state_diagram(a.init.values())
    if len(diagram) > CERTIFICATE_GUARD:
        return False
    states = [a.index[q] for q in diagram]
    table = {q: {f: a.step(q, f) for f in submasks(a.mask(diagram))} for q in states}
    up = {q: 1 << q for q in states}
    changed = True
    while changed:  # the reflexive-transitive closure of q -> step(q, F)
        changed = False
        for q, row in table.items():
            more = functools.reduce(int.__or__, (up[t] for t in row.values()), up[q])
            changed |= more != up[q]
            up[q] = more
    accepting = a.mask(a.accepting)
    if any(up[q] & ~accepting for q in states if accepting >> q & 1):
        return False

    def above(f):
        return functools.reduce(int.__or__, (up[x] for x in states if f >> x & 1), 0)

    def em(f, g):  # F ⊑ G
        return all(up[x] & g for x in states if f >> x & 1) and all(above(f) >> y & 1 for y in states if g >> y & 1)

    starts = a.mask(a.init.values())
    front = {q: above(starts) if starts >> q & 1 else 0 for q in states}
    changed = True
    while changed:
        changed = False
        for q in states:
            for f in submasks(front[q]):
                t = table[q][f]
                if t != q and above(f) & ~front[t]:
                    front[t] |= above(f)
                    changed = True
    for q in states:
        keeps = [g for g in submasks(front[q]) if table[q][g] == q]
        for s in states:
            if up[s] >> q & 1:
                for f in submasks(front[s]):
                    if not up[table[s][f]] >> q & 1 and any(em(f, g) for g in keeps):
                        return False
    return True


class TestCertificate:
    def test_which_subjects_are_certified(self):
        assert {name for name, a in engine_subjects().items() if a.is_monotone()} == CERTIFIED

    def test_it_equals_the_table_on_the_subjects(self):
        for a in [*engine_subjects().values(), *FAILS_ONE_CONDITION.values()]:
            assert a.is_monotone() == reference_front_monotone(a)
            assert a.is_monotone() or not reference_monotone(a)  # the old table implies it
        # the flagship is what the front sets add
        flagship = engine_subjects()["safe_one.json"]
        assert flagship.is_monotone() and not reference_monotone(flagship)

    @given(automata(quasi_acyclic=True))
    @settings(max_examples=200)
    def test_it_equals_the_table_on_any_automaton(self, a):
        assert a.is_monotone() == reference_front_monotone(a)
        assert a.is_monotone() or not reference_monotone(a)

    def test_it_equals_the_table_on_compile_ups(self):
        verdicts = set()
        for s in range(60):
            a = formula_to_automaton(make_system(random.Random(s), 1, 3, 3))
            assert a.is_monotone() == reference_front_monotone(a), s
            assert a.is_monotone() or not reference_monotone(a), s
            verdicts.add(a.is_monotone())
        assert verdicts == {False, True}

    def test_the_flagship_has_one_outcome_on_every_small_graph(self):
        # every 1-bit digraph of at most 3 nodes, each explored within a limit it must not reach
        a = engine_subjects()["safe_one.json"]
        count = 0
        for g in enumerate_digraphs(3, a.bits):
            found = list(_outcomes(_Net(a, g), 1000))
            assert len(found) == 1 and found[0] is not None, g
            count += 1
        assert count == 4164

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_certified_subjects_have_one_outcome_on_every_graph(self, name):
        one_outcome_everywhere(engine_subjects()[name], 0)

    @given(automata(quasi_acyclic=True), seeds)
    @settings(max_examples=200)
    def test_a_certified_automaton_has_one_outcome_on_every_graph(self, a, seed):
        assume(a.is_monotone())
        one_outcome_everywhere(a, seed)

    @given(systems(bits=1, max_vars=2, depth=2), seeds)
    @settings(max_examples=60)
    def test_a_certified_compile_up_has_one_outcome_on_every_graph(self, sys, seed):
        a = formula_to_automaton(sys)
        assume(len(a.states) <= 16 and a.is_monotone())
        one_outcome_everywhere(a, seed)

    @given(automata(quasi_acyclic=True))
    def test_it_reads_the_states_of_the_initialized_traces(self, a):
        assert a.state_diagram(a.init.values()).keys() == {q for t in reference_reachable_traces(a) for q in t}

    @pytest.mark.parametrize("condition", list(FAILS_ONE_CONDITION))
    def test_each_condition_is_needed(self, condition):
        a = FAILS_ONE_CONDITION[condition]
        assert not a.is_monotone()
        assert any(len(explored(a, g)) > 1 for g in enumerate_digraphs(2, a.bits))

    def test_an_upward_closed_accepting_set_is_certified(self):
        a = FAILS_ONE_CONDITION["accepting upward closed"]
        a = Automaton(bits=a.bits, states=a.states, init=a.init, rules=a.rules, accepting=frozenset({"b"}))
        assert a.is_monotone()

    def test_a_cyclic_automaton_is_not_certified(self):
        cyclic = hand_automaton({"a"}, {"i": [(ELSE, "a")], "a": [(ELSE, "i")]})
        assert cyclic.trace_length_bound() is None
        assert not cyclic.is_monotone()

    def test_the_guard_trips_before_any_neighborhood_is_listed(self):
        a = all_states_automaton(parse_formula(SIX_VARIABLES, bits=1))
        assert len({q for t in a.traces(a.init.values()) for q in t}) == 26 > CERTIFICATE_GUARD
        g = make_graph(random.Random(6), 5, 1)
        with mock.patch.object(Automaton, "step", side_effect=AssertionError("a neighborhood was listed")), \
                mock.patch.object(Automaton, "region", side_effect=AssertionError("a region was walked")):
            assert not a.is_monotone()
        verdict, path = consistency_path(a, g, 12, seed=3)
        assert path in ("explored", "sampled")
        with uncertified():
            assert consistency_path(a, g, 12, seed=3) == (verdict, path)

    @pytest.mark.parametrize("kwargs", [{"timings_per_graph": 0}, {"lossless_only": True}, {"jobs": 2}])
    def test_fuzz_is_the_same_with_the_certificate_off(self, kwargs):
        a = formula_to_automaton(boxed_one_formula())
        kwargs = {"timings_per_graph": 20, **kwargs}
        verdict = fuzz_consistency(a, 5, 20, seed=1, **kwargs)
        with uncertified():
            assert fuzz_consistency(a, 5, 20, seed=1, **kwargs) == verdict
        assert verdict.consistent


class TestUnreachableCycle:
    """``samples/unreachable_cycle.json``: its only non-trivial cycle,
    c1 <-> c2, lies outside q0 and q1, the states reachable from
    initialization.  ``check`` reads every state; runs, the certificate and
    compile-down read only those a run can visit."""

    path = SAMPLES / "unreachable_cycle.json"

    def test_check_reads_every_state(self, capsys):
        assert main(["check", "--automaton", str(self.path)]) == 1
        assert "quasi-acyclic: false" in capsys.readouterr().out

    def test_it_is_certified(self):
        a = parse_automaton(self.path.read_text())
        assert a.trace_length_bound() is None and a.trace_length_bound(a.init.values()) == 2
        assert a.is_monotone()

    def test_run_reaches_quiescence(self, capsys):
        chain = SAMPLES / "chain.json"
        assert main(["run", "--automaton", str(self.path), "--graph", str(chain), "--sample", "0"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["stabilized_at"] == 1
        want = reference_run(parse_automaton(self.path.read_text()), parse_digraph(chain.read_text()), [], True)
        assert got == json.loads(json.dumps(want.to_dict()))

    def test_fuzz(self):
        assert main(["fuzz", "--automaton", str(self.path)]) == 0

    def test_compile_down_is_reach_one(self, tmp_path, capsys):
        down = tmp_path / "down.sexp"
        assert main(["compile-down", "--automaton", str(self.path), "-o", str(down)]) == 0
        assert main(["equiv", "--a", str(down), "--b", str(SAMPLES / "reach_one.sexp"), "--max-nodes", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"verdict": "equivalent", "checked": 12420}
