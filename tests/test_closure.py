"""Differential tests of the int-encoded trace-driving closure
(``transform._pair_closure``, ``_extension_choices``, ``_prune_family``)
against the frozenset implementation it replaced, kept here as the
reference, and of the closure's family operations (``_Families``) against
the one-set product ``_extension_choices``."""

import itertools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from automu import transform
from automu.automata import ELSE, Automaton, AutomatonTooLarge, Trace, TransitionRule, parse_automaton, trace_pushlast
from automu.logic import parse_formula
from automu.transform import compute_enables, formula_to_automaton
from strategies import automata
from test_kernel import BENCHMARK_FORMULAS

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# ---------------------------------------------------------------------------
# the reference: trace sets as frozensets, every product enumerated

def _subsets(xs):
    for mask in range(1 << len(xs)):
        yield frozenset(x for i, x in enumerate(xs) if mask >> i & 1)


def reference_extension_choices(ext, h):
    """Every set obtained by replacing each trace of ``h`` with a nonempty
    set of its one-step extensions (the trace itself included), with the set
    of its last states."""
    per = []
    for t in sorted(h):
        choices = ext[t]
        per.append([
            tuple(c for i, c in enumerate(choices) if r >> i & 1)
            for r in range(1, 1 << len(choices))
        ])
    out = {}
    for combo in itertools.product(*per):
        h2 = frozenset(t for group in combo for t in group)
        if h2 not in out:
            out[h2] = frozenset(t[-1] for t in h2)
    return sorted(out.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def reference_ext(universe):
    ext = {t: [t] for t in universe}
    for t in ext:
        if len(t) > 1:
            ext[t[:-1]].append(t)
    return ext


def reference_pair_closure(a: Automaton, seeds, universe, max_rounds=None):
    """The driving pairs (frozenset of neighbor traces, node trace) and how
    many were processed; breadth-first rounds, round 0 the seeds alone."""
    ext = reference_ext(universe)
    frontier = [(frozenset((s,) for s in n), trace_pushlast((q,), a.delta(q, n)))
                for n in _subsets(seeds) for q in seeds]
    seen = set(frontier)
    iterations = rounds = 0
    choice_memo = {}
    while frontier and (max_rounds is None or rounds < max_rounds):
        rounds += 1
        iterations += len(frontier)
        next_frontier = []
        for h, t in frontier:
            if h not in choice_memo:
                choice_memo[h] = reference_extension_choices(ext, h)
            for h2, lasts in choice_memo[h]:
                pair = (h2, trace_pushlast(t, a.delta(t[-1], lasts)))
                if pair not in seen:
                    seen.add(pair)
                    next_frontier.append(pair)
        frontier = next_frontier
    return seen, iterations


def _is_prefix(a: Trace, b: Trace) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def _covers(small, big) -> bool:
    return all(any(_is_prefix(x, y) for y in big) for x in small) and all(
        any(_is_prefix(x, y) for x in small) for y in big
    )


def reference_prune_family(family):
    ordered = sorted(set(family), key=lambda h: (len(h), sorted(h)))
    kept = []
    for h in ordered:
        if any(_covers(k, h) for k in kept):
            continue
        kept = [k for k in kept if not _covers(h, k)]
        kept.append(h)
    return kept


# ---------------------------------------------------------------------------

def decoder(traces):
    """A trace mask over ``traces`` as the frozenset of its traces."""
    return lambda h: frozenset(traces[i] for i in transform._bits(h))


def closure(a, seeds, universe, max_rounds=None):
    """The closure under test, decoded to the reference's terms."""
    traces = sorted(universe)
    families, iterations = transform._pair_closure(a, seeds, traces, max_rounds)
    decode = decoder(traces)
    return {(decode(h), traces[t]) for t, family in enumerate(families) for h in transform._members(family)}, iterations


def restricted(a):
    """Seeds and universe of compile-down's closure."""
    return sorted(set(a.init.values())), sorted(a.traces(a.init.values()))


def assert_same_prune(a):
    """``_prune_family`` on every family of compile-down's closure keeps what
    the reference keeps, in the same order."""
    index = sorted(a.traces(a.init.values()))
    extensions = transform._prefix_masks(index)[1]
    decode = decoder(index)
    for family in transform._driver_closure(a).values():
        got = transform._prune_family(family, extensions)
        assert [decode(h) for h in got] == reference_prune_family([decode(h) for h in family])


def assert_same_closure(a, seeds, universe, max_rounds=None):
    assert closure(a, seeds, universe, max_rounds) == reference_pair_closure(a, seeds, universe, max_rounds)


def sample(name):
    return parse_automaton((SAMPLES / name).read_text())


def up(name):
    return formula_to_automaton(parse_formula(BENCHMARK_FORMULAS[name]))


def test_probe_full_closure():
    a = sample("sync_probe.json")
    ref_pairs, ref_iterations = reference_pair_closure(a, a.states, a.traces())
    got = compute_enables(a)
    assert (got.pairs, got.iterations_used) == (ref_pairs, ref_iterations)
    assert len(ref_pairs) == 96


def test_negative_rounds_are_refused_before_the_trace_set():
    # a two-state cycle, whose trace set would raise NotQuasiAcyclic
    a = Automaton(bits=0, states=("a", "b"), init={"": "a"}, accepting=frozenset(),
                  rules={"a": (TransitionRule(ELSE, "b"),), "b": (TransitionRule(ELSE, "a"),)})
    with pytest.raises(ValueError, match="max_rounds must be >= 0, got -1"):
        compute_enables(a, max_rounds=-1)


def test_flagship_one_round():
    a = sample("safe_one.json")
    ref_pairs, ref_iterations = reference_pair_closure(a, a.states, a.traces(), max_rounds=1)
    got = compute_enables(a, max_rounds=1, max_traces=20)
    assert (got.pairs, got.iterations_used) == (ref_pairs, ref_iterations)


def test_flagship_restricted():
    assert_same_closure(sample("safe_one.json"), *restricted(sample("safe_one.json")))


@pytest.mark.parametrize("name", ["safe_one", "reach_one", "boxed_one"])
def test_compile_up_outputs_restricted(name):
    a = up(name)
    assert_same_closure(a, *restricted(a))


@settings(max_examples=40)
@given(automata(max_states=4, quasi_acyclic=True))
def test_random_quasi_acyclic_automata(a):
    assert_same_closure(a, *restricted(a))
    assume(len(a.traces()) <= 7)
    assert_same_closure(a, a.states, a.traces())


@pytest.mark.parametrize("max_rounds", [1, 2])
@settings(max_examples=40)
@given(a=automata(max_states=4, quasi_acyclic=True))
def test_random_quasi_acyclic_automata_bounded_rounds(a, max_rounds):
    assert_same_closure(a, *restricted(a), max_rounds)
    assume(len(a.traces()) <= 7)
    assert_same_closure(a, a.states, a.traces(), max_rounds)


def test_extension_choices_on_every_set_of_probe_traces():
    a = sample("sync_probe.json")
    traces = sorted(a.traces())
    subs = transform._extension_subsets(transform._prefix_masks(traces)[0])
    ext = reference_ext(traces)
    memo = {0: (0,)}
    for r in range(len(traces) + 1):
        for h in itertools.combinations(range(len(traces)), r):
            mask = sum(1 << i for i in h)
            got = transform._extension_choices(subs, memo, mask)  # one product on a memoized part
            assert len(set(got)) == len(got)
            assert set(transform._extension_choices(subs, {0: (0,)}, mask)) == set(got)  # built from nothing
            decoded = set(map(decoder(traces), got))
            assert {x: frozenset(t[-1] for t in x) for x in decoded} == dict(
                reference_extension_choices(ext, frozenset(traces[i] for i in h)))


def assert_family_operations(a, traces, family):
    """``_Families.choices`` of ``family`` is the union of ``_extension_choices``
    over its members, and ``split`` cuts it into the sets of each last-state
    mask, as decoding every set's mask gives them."""
    steps = transform._prefix_masks(traces)[0]
    ops = transform._Families(steps, [1 << a.index[t[-1]] for t in traces])
    subs = transform._extension_subsets(steps)
    memo = {0: (0,)}
    want = set()
    for h in transform._members(family):
        want.update(transform._extension_choices(subs, memo, h))
    got = ops.choices(family)
    assert transform._members(got) == sorted(want)
    parts = {}
    for x in want:
        lasts = a.mask(traces[i][-1] for i in transform._bits(x))
        parts[lasts] = parts.get(lasts, 0) | 1 << x
    cut = list(ops.split(got))
    assert len(cut) == len(parts) and dict(cut) == parts


def test_family_operations_on_every_set_of_probe_traces():
    a = sample("sync_probe.json")
    traces = sorted(a.traces())
    for h in range(1 << len(traces)):
        assert_family_operations(a, traces, 1 << h)


FLAGSHIP = sample("safe_one.json")
FLAGSHIP_TRACES = sorted(FLAGSHIP.traces())


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, (1 << len(FLAGSHIP_TRACES)) - 1), max_size=8))
def test_family_operations_on_random_families_of_flagship_traces(masks):
    assert len(FLAGSHIP_TRACES) == 15
    assert_family_operations(FLAGSHIP, FLAGSHIP_TRACES, sum(1 << h for h in masks))


def test_closure_guard_trips_before_any_family_is_built(monkeypatch):
    # seven states whose diagram is a complete DAG: 127 traces
    a = sample("dag7.json")

    def unbuilt(*args):
        raise AssertionError("a family was built")

    monkeypatch.setattr(transform, "_Families", unbuilt)
    with pytest.raises(AutomatonTooLarge, match=r"over 127 traces refused: .* 2\^127-bit int; guard is \|T\| <= 20"):
        transform._pair_closure(a, a.states, sorted(a.traces()), max_rounds=1)


@pytest.mark.parametrize("name", ["sync_probe.json", "safe_one.json", "safe_one", "reach_one", "boxed_one"])
def test_prune_keeps_what_the_covers_rule_keeps(name):
    assert_same_prune(sample(name) if name.endswith(".json") else up(name))


@settings(max_examples=40)
@given(automata(max_states=4, quasi_acyclic=True))
def test_prune_on_random_automata(a):
    assert_same_prune(a)
