import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automu.automata import automaton_to_dict, automaton_to_json, parse_automaton
from automu.cli import main
from automu.graphs import digraph_to_dict, digraph_to_json, parse_digraph
from automu.logic import parse_formula
from automu.runtime import (
    fuzz_consistency,
    parse_timing,
    sample_timing,
    timing_to_dict,
    timing_to_json,
)
from automu.transform import compute_enables
from automu.zoo import (
    SAFE_ONE_SEXP,
    chain_graph,
    safe_one_automaton,
    single_node,
    sync_probe_automaton,
    two_cycle_graph,
)
from test_kernel import SAMPLES
from test_logic import all_states_automaton
from test_transform import SIX_VARIABLES

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def files(tmp_path: Path) -> dict[str, str]:
    out = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        out[name] = str(p)

    put("safe_one.json", automaton_to_json(safe_one_automaton()))
    put("safe_one.sexp", SAFE_ONE_SEXP)
    put("probe.json", automaton_to_json(sync_probe_automaton()))
    put("chain.json", digraph_to_json(chain_graph()))
    put("two_cycle.json", digraph_to_json(two_cycle_graph()))
    put("selfloop1.json", digraph_to_json(single_node("1", self_loop=True).graph))
    out["tmp"] = str(tmp_path)
    return out


class TestExitCodes:
    def test_equiv_flagship_pair(self, files, capsys):
        code = main(["equiv", "--a", files["safe_one.json"], "--b", files["safe_one.sexp"],
                     "--max-nodes", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"

    def test_equiv_disagreement(self, files, tmp_path, capsys):
        t = tmp_path / "t.sexp"
        t.write_text("(mu ((X0 true)))")
        code = main(["equiv", "--a", str(t), "--b", files["safe_one.json"], "--max-nodes", "1"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "counterexample"

    def test_check_quasi_acyclic(self, files, capsys):
        assert main(["check", "--automaton", files["safe_one.json"]]) == 0
        assert "quasi-acyclic: true" in capsys.readouterr().out

    def test_compile_up_with_128_states_fuzzes(self, tmp_path, capsys):
        # the all-states compile-up: the state diagram is derived rule by
        # rule, so neither fuzz nor check scans the 2^128 neighborhoods
        up = str(tmp_path / "six.json")
        Path(up).write_text(automaton_to_json(all_states_automaton(parse_formula(SIX_VARIABLES, bits=1))))
        assert main(["fuzz", "--automaton", up, "--max-nodes", "4", "--graphs", "5", "--samples", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == {"verdict": "consistent_up_to_budget", "graphs_checked": 5}
        assert main(["check", "--automaton", up]) == 0
        out, err = capsys.readouterr()
        assert "quasi-acyclic: true" in out
        assert "traces: 1906" in out and "Traceback" not in err

    def test_check_cyclic(self, files, tmp_path, capsys):
        doc = {
            "bits": 0, "states": ["a", "b"], "init": {"": "a"}, "accepting": [],
            "rules": {"a": [{"guard": "else", "to": "b"}],
                      "b": [{"guard": "else", "to": "a"}]},
        }
        p = tmp_path / "cyc.json"
        p.write_text(json.dumps(doc))
        assert main(["check", "--automaton", str(p)]) == 1
        assert "quasi-acyclic: false" in capsys.readouterr().out

    def test_eval_false_point(self, files, capsys):
        code = main(["eval", "--formula", files["safe_one.sexp"],
                     "--graph", files["selfloop1.json"], "--point", "v"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["satisfied"] is False
        assert doc["fixpoint"] == {"X1": [], "X2": []}

    def test_eval_true_point(self, files, capsys):
        code = main(["eval", "--formula", files["safe_one.sexp"],
                     "--graph", files["chain.json"], "--point", "v"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["satisfied"] is True

    def test_fuzz_consistent(self, files, capsys):
        code = main(["fuzz", "--automaton", files["safe_one.json"], "--max-nodes", "3",
                     "--graphs", "4", "--samples", "6", "--seed", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "consistent_up_to_budget"

    def test_fuzz_inconsistent(self, files, capsys):
        code = main(["fuzz", "--automaton", files["probe.json"], "--max-nodes", "3",
                     "--graphs", "10", "--samples", "10", "--seed", "0"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "inconsistent"
        assert {doc["verdict_a"], doc["verdict_b"]} == {"yes", "no"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fuzz_inconsistent_reports_graphs_checked(self, files, jobs, capsys):
        code = main(["fuzz", "--automaton", files["probe.json"], "--max-nodes", "3",
                     "--graphs", "10", "--samples", "10", "--seed", "0", "--jobs", str(jobs)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        verdict = fuzz_consistency(sync_probe_automaton(), max_nodes=3, graphs=10,
                                   timings_per_graph=10, seed=0)
        assert not verdict.consistent
        assert doc["graphs_checked"] == verdict.graphs_checked

    def test_usage_errors(self, files, capsys):
        assert main(["no-such-command"]) == 2
        assert main(["eval", "--formula", "/nonexistent.sexp", "--graph", files["chain.json"]]) == 2
        assert main(["equiv", "--a", files["safe_one.json"], "--b",
                     files["chain.json"]]) == 2  # a graph is not a device
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["equiv", "--max-nodes", "0"],
        ["equiv", "--jobs", "0"],
        ["equiv", "--samples", "-1"],
        ["fuzz", "--max-nodes", "0"],
        ["fuzz", "--jobs", "0"],
        ["fuzz", "--graphs", "-1"],
        ["fuzz", "--samples", "-1"],
    ])
    def test_empty_or_invalid_budget(self, files, argv, capsys):
        devices = (["--a", files["safe_one.json"], "--b", files["safe_one.sexp"]]
                   if argv[0] == "equiv" else ["--automaton", files["safe_one.json"]])
        assert main(argv[:1] + devices + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >=" in captured.err

    @pytest.mark.parametrize("command", ["compile-up", "eval", "equiv"])
    def test_negative_bits(self, files, tmp_path, command, capsys):
        constant_free = tmp_path / "free.sexp"
        constant_free.write_text("(mu ((X0 (dia (var X0)))))")
        operands = {"compile-up": ["--formula", str(constant_free)],
                    "eval": ["--formula", str(constant_free), "--graph", files["chain.json"]],
                    "equiv": ["--a", str(constant_free), "--b", files["safe_one.sexp"]]}[command]
        assert main([command, *operands, "--bits", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: bits must be >= 0, got -1\n"

    @pytest.mark.parametrize("flags", [["--sample", "-3"], ["--steps", "-3"], ["--sync", "--steps", "-3"]])
    def test_negative_step_count(self, files, flags, capsys):
        assert main(["run", "--automaton", files["safe_one.json"], "--graph", files["chain.json"],
                     *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "steps must be >= 0, got -3" in captured.err

    def test_equiv_checked_independent_of_jobs(self, tmp_path, capsys):
        a, b = tmp_path / "reach.sexp", tmp_path / "boxed.sexp"
        a.write_text("(mu ((X (or (p 0) (dia (var X))))))")
        b.write_text("(mu ((X (or (p 0) (box (var X))))))")
        docs = []
        for jobs in ("1", "2"):
            assert main(["equiv", "--a", str(a), "--b", str(b), "--max-nodes", "3",
                         "--jobs", jobs]) == 1
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]
        assert docs[0]["checked"] == 1

    def test_malformed_document(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bits": 1, "nodes": [], "labels": {}, "edges": []}')
        assert main(["eval", "--formula", files["safe_one.sexp"], "--graph", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_arrow_in_node_id(self, files, tmp_path, capsys):
        graph = tmp_path / "arrow.json"
        graph.write_text(json.dumps({"bits": 1, "nodes": ["a->b", "c"], "labels": {"a->b": "1", "c": "0"},
                                     "edges": [["a->b", "c"], ["c", "c"]]}))
        for argv in (["run", "--automaton", files["safe_one.json"], "--graph", str(graph)],
                     ["eval", "--formula", files["safe_one.sexp"], "--graph", str(graph)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "'a->b'" in err and "Traceback" not in err


def _timing_doc():
    return timing_to_dict(sample_timing(chain_graph(), steps=4, seed=0), chain_graph())


def _automaton_doc():
    return automaton_to_dict(safe_one_automaton())


# one malformed document of each kind, with the flag that takes it and the
# fault each one used to raise past the CLI
MALFORMED = {
    "timing_edges_list": ("--timing", json.dumps(
        {**_timing_doc(), "steps": [{"nodes": {"u": 1, "v": 1}, "edges": []}]})),  # AttributeError
    "automaton_states_int": ("--automaton", json.dumps(
        {**_automaton_doc(), "states": 5})),  # TypeError
    "graph_label_int": ("--graph", json.dumps(
        {**digraph_to_dict(chain_graph()), "labels": {"u": 1, "v": "0"}})),  # TypeError
    "formula_3000_deep": ("--formula",
                          "(mu ((X " + "(dia " * 3000 + "(p 0)" + ")" * 3000 + ")))"),  # RecursionError
    # RecursionError inside the JSON decoder
    **{f"{flag[2:]}_json_deep": (flag, "[" * 100000 + "]" * 100000)
       for flag in ("--timing", "--automaton", "--graph")},
    # JSON true is a Python int, and a width or a bound of 1 made of it used to pass
    "graph_bits_true": ("--graph", json.dumps({**digraph_to_dict(chain_graph()), "bits": True})),
    "automaton_bits_true": ("--automaton", json.dumps({**_automaton_doc(), "bits": True})),
    "timing_K_true": ("--timing", json.dumps({**_timing_doc(), "K": True})),
}


class TestParseBoundary:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_exits_2(self, files, tmp_path, name, capsys):
        flag, text = MALFORMED[name]
        path = tmp_path / "document"
        path.write_text(text)
        argv = {
            "--formula": ["eval", "--formula", str(path), "--graph", files["chain.json"]],
            "--graph": ["eval", "--formula", files["safe_one.sexp"], "--graph", str(path)],
            "--automaton": ["run", "--automaton", str(path), "--graph", files["chain.json"], "--sync"],
            "--timing": ["run", "--automaton", files["safe_one.json"], "--graph", files["chain.json"],
                         "--timing", str(path)],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("lossless, nodes, edges", [
        (False, {"u": 1, "v": 1, "ghost": 1}, {"u->v": 1}),  # a node the graph lacks
        (False, {"u": 1, "v": 1}, {"u->v": 1, "x->y": 0}),  # an edge the graph lacks
        (False, {"u": True, "v": 1}, {"u->v": 0}),  # JSON true is not 1
        (True, {"u": 1, "v": 0}, {"u->v": 1}),  # lossless, yet delivers to an inactive node
    ])
    def test_timing_that_does_not_match_the_graph_exits_2(self, files, tmp_path, capsys,
                                                          lossless, nodes, edges):
        path = tmp_path / "timing.json"
        step = {"nodes": nodes, "edges": edges}
        path.write_text(json.dumps({"lossless": lossless, "K": 8, "steps": [step]}))
        assert main(["run", "--automaton", files["safe_one.json"], "--graph", files["chain.json"],
                     "--timing", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step #0:") and "Traceback" not in err

    @pytest.mark.parametrize("lossless, nodes, edges, fault", [
        (False, {"u": 1}, {"u->v": 1}, "activation map incomplete: missing ['v']"),
        (False, {"u": 1, "v": 1}, {}, "activation map incomplete: missing ['u->v']"),
        (False, {"u": 1, "v": 1, "w": 1}, {"u->v": 1}, "['w'] not in the graph"),
        (False, {"u": 1, "v": 1, "u->v": 1}, {"u->v": 1}, "['u->v'] not in the graph"),
        (False, {"u": 2, "v": 1}, {"u->v": 1}, "'nodes' must map ids to 0 or 1"),
        (False, {"u": 1, "v": 1}, {"u->v": True}, "'edges' must map ids to 0 or 1"),
        (False, {"u": 1, "v": 1}, {"uv": 1}, "bad edge key 'uv' (want 'src->dst')"),
        (True, {"u": 1, "v": 0}, {"u->v": 1}, "lossless timing activates edge u->v while 'v' is inactive"),
    ], ids=["missing_node", "missing_edge", "unknown_id", "edge_under_nodes", "value_2", "value_true",
            "edge_key_uv", "lossless_into_inactive"])
    def test_a_timing_with_one_fault_exits_2_naming_it(self, files, tmp_path, capsys,
                                                       lossless, nodes, edges, fault):
        good = {"nodes": {"u": 1, "v": 1}, "edges": {"u->v": 1}}
        path = tmp_path / "timing.json"
        path.write_text(json.dumps({"lossless": lossless, "K": 8,
                                    "steps": [good, {"nodes": nodes, "edges": edges}, good]}))
        assert main(["run", "--automaton", files["safe_one.json"], "--graph", files["chain.json"],
                     "--timing", str(path)]) == 2
        assert capsys.readouterr().err == f"error: step #1: {fault}\n"

    def test_wide_n_ary_formula(self, files, tmp_path, capsys):
        # 1,200 arguments desugar to a left-associated chain 1,200 deep while
        # the document nests only four levels
        wide = tmp_path / "wide.sexp"
        wide.write_text("(mu ((X (or " + "(p 0) " * 1200 + "))))")
        accepted = True
        try:
            parse_formula(wide.read_text())
        except ValueError:
            accepted = False
        codes = {}
        for argv in (["eval", "--formula", str(wide), "--graph", files["chain.json"]],
                     ["compile-up", "--formula", str(wide), "-o", str(tmp_path / "up.json")]):
            codes[argv[0]] = main(argv)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert codes[argv[0]] == 0 or (codes[argv[0]] == 2 and err.startswith("error:"))
        if accepted:
            assert codes["eval"] == 0


def test_fuzz_does_not_depend_on_the_hash_seed():
    argv = [sys.executable, "-m", "automu.cli", "fuzz", "--automaton",
            str(REPO / "samples" / "sync_probe.json"), "--max-nodes", "3", "--graphs", "10",
            "--samples", "10"]
    outputs = []
    for hash_seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["graphs_checked"] == 2


@pytest.mark.parametrize("automaton, seed", [("sync_probe.json", 0), ("sync_probe.json", 1),
                                             ("sync_probe.json", 2), ("safe_one.json", 0)])
def test_fuzz_output_is_pinned(automaton, seed, capsys):
    # the expected documents were written by the dict-based run loop that
    # preceded the int engine: its verdicts, graphs_checked and witnesses
    code = main(["fuzz", "--automaton", str(REPO / "samples" / automaton), "--seed", str(seed)])
    golden = REPO / "tests" / "golden" / f"fuzz_{automaton.removesuffix('.json')}_seed{seed}.txt"
    assert capsys.readouterr().out == golden.read_text()
    assert code == (0 if automaton == "safe_one.json" else 1)


@pytest.mark.parametrize("a, b, scan, golden, code", [
    ("safe_one.sexp", "reach_one.sexp", ["--samples", "200", "--max-nodes", "4", "--seed", "0"],
     "equiv_safe_one_reach_one_samples200_seed0.txt", 1),
    ("safe_one.json", "safe_one.sexp", ["--samples", "500", "--seed", "3"],
     "equiv_safe_one_samples500_seed3.txt", 0),
])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sampled_equiv_output_is_pinned(a, b, scan, golden, code, jobs, capsys):
    # the expected documents were written by the sampler that built a
    # Digraph per sample, before samples were drawn as integers
    got = main(["equiv", "--a", str(REPO / "samples" / a), "--b", str(REPO / "samples" / b), *scan,
                "--jobs", jobs])
    assert capsys.readouterr().out == (REPO / "tests" / "golden" / golden).read_text()
    assert got == code


# exit-code fuzzer: mutate the sample documents and feed them to the CLI

_JUNK_VALUES = [None, True, 0, 1, -1, 7, 2.5, "", "1", "01", "x", "u->v", [], ["u"], [["u", "v"]],
                {}, {"u": 1}, {"subseteq": ["q1"]}]
_JUNK_TOKENS = ["(", ")", "p", "not-p", "var", "dia", "box", "or", "and", "mu", "true", "false",
                "X1", "X9", "0", "1", "-1", "99"]


def _slots(obj):
    """(container, key) for every value nested in a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in list(items):
        yield obj, key
        yield from _slots(value)


@st.composite
def mutated_json(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots or draw(st.integers(0, 19)) == 0:
            return json.dumps(draw(st.sampled_from(_JUNK_VALUES)))
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = copy.deepcopy(draw(st.sampled_from(_JUNK_VALUES)))
        else:
            del container[key]
    return json.dumps(doc)


@st.composite
def mutated_sexp(draw, text):
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        if op == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from(_JUNK_TOKENS)))
        elif op == "delete":
            del tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(_JUNK_TOKENS))
    return " ".join(tokens)


def _graph_argvs(path, ref):
    return [["eval", "--formula", ref["safe_one.sexp"], "--graph", path],
            ["run", "--automaton", ref["safe_one.json"], "--graph", path, "--sync", "--steps", "4"]]


def _automaton_argvs(path, ref):
    return [["check", "--automaton", path],
            ["run", "--automaton", path, "--graph", ref["chain.json"], "--sync", "--steps", "4"]]


def _timing_argvs(path, ref):
    return [["run", "--automaton", ref["safe_one.json"], "--graph", ref["chain.json"], "--timing", path]]


def _formula_argvs(path, ref):
    return [["eval", "--formula", path, "--graph", ref["chain.json"]]]


DOCUMENT_KINDS = {
    "graph": (mutated_json(digraph_to_dict(chain_graph())), parse_digraph, _graph_argvs),
    "automaton": (mutated_json(_automaton_doc()), parse_automaton, _automaton_argvs),
    "timing": (mutated_json(_timing_doc()), lambda text: parse_timing(text, chain_graph()), _timing_argvs),
    "formula": (mutated_sexp(SAFE_ONE_SEXP), lambda text: parse_formula(text, bits=1), _formula_argvs),
}


@pytest.fixture(scope="module")
def reference_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    out = {}
    for name, text in [("safe_one.json", automaton_to_json(safe_one_automaton())),
                       ("safe_one.sexp", SAFE_ONE_SEXP),
                       ("chain.json", digraph_to_json(chain_graph()))]:
        (root / name).write_text(text)
        out[name] = str(root / name)
    out["mutant"] = str(root / "mutant")
    return out


@pytest.mark.parametrize("kind", sorted(DOCUMENT_KINDS))
def test_mutated_documents_keep_the_exit_code_contract(kind, reference_files):
    strategy, parse, argvs = DOCUMENT_KINDS[kind]

    @settings(max_examples=100)
    @given(strategy)
    def check(text):
        Path(reference_files["mutant"]).write_text(text)
        try:
            parse(text)
            malformed = False
        except ValueError:
            malformed = True
        for argv in argvs(reference_files["mutant"], reference_files):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert code == 2 or not malformed, (argv, text)
            assert "Traceback" not in err.getvalue()

    check()


class TestRoundTrips:
    def test_compile_up_output_reparses_and_matches(self, files, tmp_path, capsys):
        out = tmp_path / "up.json"
        assert main(["compile-up", "--formula", files["safe_one.sexp"], "-o", str(out)]) == 0
        compiled = parse_automaton(out.read_text())
        assert compiled.bits == 1
        code = main(["equiv", "--a", str(out), "--b", files["safe_one.sexp"], "--max-nodes", "2"])
        assert code == 0
        capsys.readouterr()

    def test_compile_down_output_reparses_and_matches(self, files, tmp_path, capsys):
        out = tmp_path / "down.sexp"
        assert main(["compile-down", "--automaton", files["safe_one.json"], "-o", str(out)]) == 0
        parse_formula(out.read_text())
        code = main(["equiv", "--a", str(out), "--b", files["safe_one.json"], "--max-nodes", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "hypothesis" in err  # the unchecked-assumption note

    def test_run_replays_a_dumped_timing(self, files, tmp_path, capsys):
        g = chain_graph()
        t = sample_timing(g, steps=12, seed=3)
        tf = tmp_path / "timing.json"
        tf.write_text(timing_to_json(t, g))
        assert parse_timing(tf.read_text(), g) == t
        code = main(["run", "--automaton", files["safe_one.json"], "--graph", files["chain.json"],
                     "--timing", str(tf)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] == {"u": "yes", "v": "yes"}

    def test_run_sync_flag(self, files, capsys):
        code = main(["run", "--automaton", files["safe_one.json"], "--graph",
                     files["two_cycle.json"], "--sync"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] == {"u": "no", "v": "no"}
        assert doc["stabilized_at"] is not None

    def test_enables_dump_parses(self, files, tmp_path, capsys):
        out = tmp_path / "closure.jsonl"
        assert main(["enables", "--automaton", files["probe.json"], "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"H", "t"}
        capsys.readouterr()

    def test_enables_guard_and_bounded_mode(self, files, tmp_path, capsys):
        out = tmp_path / "closure.jsonl"
        # 15 traces exceed the full-closure guard; bounding the rounds works
        assert main(["enables", "--automaton", files["safe_one.json"], "-o", str(out)]) == 2
        assert main(["enables", "--automaton", files["safe_one.json"],
                     "--max-rounds", "1", "-o", str(out)]) == 0
        assert out.read_text().splitlines()
        capsys.readouterr()

    def test_enables_negative_rounds_exits_2(self, files, tmp_path, capsys):
        out = tmp_path / "closure.jsonl"
        assert main(["enables", "--automaton", files["safe_one.json"],
                     "--max-rounds", "-1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_rounds must be >= 0" in err
        assert not out.exists()

    def test_enables_flagship_two_rounds_pinned(self, tmp_path, capsys):
        out = tmp_path / "closure.jsonl"
        assert main(["enables", "--automaton", str(SAMPLES / "safe_one.json"),
                     "--max-rounds", "2", "-o", str(out)]) == 0
        assert capsys.readouterr().err == "pairs: 163952  iterations: 20480\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3ae2870d47145cec3bf22abdd4c694c2210d2ef24a42b88f2a3dcc12e7d57712")

    def test_enables_probe_full_closure_pinned(self, tmp_path, capsys):
        out = tmp_path / "closure.jsonl"
        assert main(["enables", "--automaton", str(SAMPLES / "sync_probe.json"), "-o", str(out)]) == 0
        assert capsys.readouterr().err == "pairs: 96  iterations: 96\n"
        assert len(out.read_text().splitlines()) == 96
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ba187aad77cf3549a872baa522faf14170eee512c022833dc1a06e3045a970f1")

    @pytest.mark.parametrize("name, rounds", [("sync_probe.json", None), ("safe_one.json", 1)])
    def test_enables_writes_and_counts_the_decoded_pairs(self, tmp_path, capsys, name, rounds):
        closure = compute_enables(parse_automaton((SAMPLES / name).read_text()), max_rounds=rounds)
        traces = closure.traces
        decoded = {(frozenset(traces[i] for i in range(len(traces)) if h >> i & 1), t)
                   for t, family in zip(traces, closure.families)
                   for h in range(1 << len(traces)) if family >> h & 1}
        assert decoded == closure.pairs
        out = tmp_path / "closure.jsonl"
        bound = [] if rounds is None else ["--max-rounds", str(rounds)]
        assert main(["enables", "--automaton", str(SAMPLES / name), *bound, "-o", str(out)]) == 0
        assert capsys.readouterr().err == f"pairs: {len(closure.pairs)}  iterations: {closure.iterations_used}\n"
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {(frozenset(map(tuple, row["H"])), tuple(row["t"])) for row in rows} == closure.pairs
        assert len(rows) == len(closure.pairs)

    @pytest.mark.parametrize("argv", [["compile-down"], ["enables", "--max-rounds", "1"]])
    def test_closure_over_more_than_20_traces_is_refused(self, argv, tmp_path, capsys):
        # seven states whose diagram is a complete DAG: 64 traces from
        # initialization and 127 in all, so no family of neighbor sets is built
        start = time.perf_counter()
        code = main([*argv, "--automaton", str(SAMPLES / "dag7.json"), "-o", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 2 and elapsed < 1
        assert len(errors) == 1 and "traces refused" in errors[0] and "Traceback" not in err

    def test_equiv_sampled_mode(self, files, capsys):
        code = main(["equiv", "--a", files["safe_one.json"], "--b", files["safe_one.sexp"],
                     "--max-nodes", "4", "--samples", "60", "--seed", "0"])
        assert code == 0
        capsys.readouterr()
