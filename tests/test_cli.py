import json
from pathlib import Path

import pytest

from automu.automata import automaton_to_json, parse_automaton
from automu.cli import main
from automu.graphs import digraph_to_json
from automu.logic import parse_formula
from automu.runtime import parse_timing, sample_timing, timing_to_json
from automu.zoo import (
    SAFE_ONE_SEXP,
    chain_graph,
    safe_one_automaton,
    single_node,
    sync_probe_automaton,
    two_cycle_graph,
)


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
        tf.write_text(timing_to_json(t))
        assert parse_timing(tf.read_text()) == t
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

    def test_equiv_sampled_mode(self, files, capsys):
        code = main(["equiv", "--a", files["safe_one.json"], "--b", files["safe_one.sexp"],
                     "--max-nodes", "4", "--samples", "60", "--seed", "0"])
        assert code == 0
        capsys.readouterr()
