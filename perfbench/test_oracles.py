"""Hand-worked cases for the benchmark's oracles.

Run from the repository root with ``python3 perfbench/test_oracles.py`` or
``python3 -m pytest perfbench/test_oracles.py``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as o  # noqa: E402
import workloads  # noqa: E402

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

FORMULAS = {
    name: text or (SAMPLES / f"{name}.sexp").read_text() for name, text in workloads.FORMULAS.items()
}


def sample(name: str) -> o.Graph:
    return o.graph_from_doc(json.loads((SAMPLES / name).read_text()))


def machine(name: str) -> o.Machine:
    return o.Machine(json.loads((SAMPLES / name).read_text()))


def single(label: str, loop: bool) -> o.Graph:
    return o.Graph(len(label), ("v",), {"v": label}, frozenset({("v", "v")}) if loop else frozenset())


def test_closed_form_counts():
    assert o.count_instances(1, 1) == 4
    assert o.count_instances(2, 1) == 4 + 2 * 16 * 4 == 132
    assert o.count_instances(3, 1) == 12420
    assert o.count_instances(3, 2) == 8 + 2 * 16 * 16 + 3 * 512 * 64


def test_properties_on_the_sample_graphs():
    # chain: u -> v, u labelled 1, v labelled 0
    chain = sample("chain.json")
    assert o.PROPERTIES["safe_one"](chain) == {"u", "v"}
    assert o.PROPERTIES["reach_one"](chain) == {"u", "v"}
    assert o.PROPERTIES["boxed_one"](chain) == {"u", "v"}
    # a 1-labelled node on its own cycle is not safe
    loop = sample("selfloop1.json")
    assert o.PROPERTIES["safe_one"](loop) == set()
    assert o.PROPERTIES["reach_one"](loop) == {"v"}
    assert o.PROPERTIES["boxed_one"](loop) == {"v"}
    cycle = sample("two_cycle.json")
    for name in ("safe_one", "reach_one", "boxed_one"):
        assert o.PROPERTIES[name](cycle) == set()


def test_two_bit_properties_by_hand():
    two_box = o.PROPERTIES["two_box"]
    assert two_box(single("01", loop=True)) == {"v"}   # bit 1 on
    assert two_box(single("10", loop=False)) == {"v"}  # bit 0 on, no sources
    assert two_box(single("10", loop=True)) == set()   # endless bit-1-off path
    assert two_box(single("00", loop=False)) == set()
    two_and = o.PROPERTIES["two_and"]
    g = o.Graph(2, ("a", "b"), {"a": "11", "b": "10"}, frozenset({("a", "b")}))
    assert two_and(g) == {"a", "b"}
    assert two_and(o.Graph(2, ("a", "b"), g.labels, frozenset({("b", "a")}))) == {"a"}


def test_evaluator_matches_the_properties():
    for name, text in FORMULAS.items():
        system = o.parse_system(text)
        for g in o.sample_graphs(name, 300, 4, workloads.BITS[name]):
            assert o.formula_holds(system, g) == o.PROPERTIES[name](g), (name, g)


def test_evaluator_on_the_sample_graphs():
    system = o.parse_system(FORMULAS["safe_one"])
    fix = o.least_fixpoint(system, sample("chain.json"))
    assert fix == {"X1": {"u", "v"}, "X2": {"u", "v"}}
    assert o.least_fixpoint(system, sample("selfloop1.json")) == {"X1": set(), "X2": set()}


def test_synchronous_simulator():
    flagship = machine("safe_one.json")
    assert o.sync_accepting(flagship, sample("chain.json")) == {"u", "v"}
    assert o.sync_accepting(flagship, sample("selfloop1.json")) == set()
    assert o.sync_accepting(flagship, sample("two_cycle.json")) == set()
    for g in o.sample_graphs("flagship", 300, 4, 1):
        assert o.sync_accepting(flagship, g) == o.PROPERTIES["safe_one"](g), g
    # on a 2-cycle both probe nodes see each other's initial state at once
    assert o.sync_accepting(machine("sync_probe.json"), sample("two_cycle.json")) == {"u", "v"}


def test_asynchronous_replay():
    probe = machine("sync_probe.json")
    cycle = sample("two_cycle.json")
    u_first = {"steps": [{"nodes": {"u": 1, "v": 0}, "edges": {"u->v": 1, "v->u": 0}}]}
    assert o.async_replay(probe, cycle, u_first) == {"u": "yes", "v": "no"}
    together = {"steps": [{"nodes": {"u": 1, "v": 1}, "edges": {"u->v": 1, "v->u": 1}}]}
    assert o.async_replay(probe, cycle, together) == {"u": "yes", "v": "yes"}
    # with everything active the replay is the synchronous run
    flagship = machine("safe_one.json")
    for g in o.sample_graphs("replay", 100, 4, 1):
        verdicts = o.async_replay(flagship, g, {"steps": []})
        assert {v for v, x in verdicts.items() if x == "yes"} == o.sync_accepting(flagship, g)
        assert "unknown" not in verdicts.values()


def test_rule_diagram():
    assert o.rule_diagram_acyclic(json.loads((SAMPLES / "safe_one.json").read_text()))
    flip = {"rules": {"a": [{"guard": "else", "to": "b"}], "b": [{"guard": "else", "to": "a"}]}}
    assert not o.rule_diagram_acyclic(flip)
    assert o.rule_count(json.loads((SAMPLES / "safe_one.json").read_text())) == 3 + 4 + 2 + 2 + 1


def test_random_graphs_repeat_for_a_seed():
    assert o.sample_graphs(7, 20, 4, 2) == o.sample_graphs(7, 20, 4, 2)
    g = o.random_graph(random.Random(0), 1, 2)
    assert len(g.nodes) == 1 and len(g.labels["v0"]) == 2


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
