"""The four workloads: the automu subcommands each round runs, in order.

Every operation names the documents it reads and writes inside the run's
scratch directory, the exit code the method requires, and what the checker
must verify about its output.  Seed-dependent arguments (sampled ``equiv``,
``fuzz``) are derived from the benchmark's ``--seed``; everything else is
fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# formula documents <name>.sexp: None means a copy of samples/<name>.sexp
FORMULAS = {
    "safe_one": None,
    "reach_one": None,
    "boxed_one": None,
    "two_and": "(mu ((X (or (and (p 0) (p 1)) (dia (var X))))))\n",
    "two_box": "(mu ((X (or (p 1) (and (p 0) (box (var X)))))))\n",
}
BITS = {"safe_one": 1, "reach_one": 1, "boxed_one": 1, "two_and": 2, "two_box": 2}
AUTOMATA = ("safe_one.json", "sync_probe.json")  # copies of the samples

FUZZ_GRAPHS = 100      # graphs per criterion-4 subject (the CLI default is 50)
UPDOWN_SAMPLES = 200   # sampled equiv of the up-down formula at 4 nodes
DOWN_SAMPLES = 500     # sampled equiv of the compile-down formula at 4 nodes


@dataclass(frozen=True)
class Op:
    """One ``automu`` invocation.  ``kind`` selects the checker; ``meta``
    carries what it needs (the property a device must define, the instance
    count, the graphs requested)."""

    kind: str
    argv: tuple[str, ...]
    expect: int
    meta: dict = field(default_factory=dict)


def _compile_up(name: str) -> Op:
    return Op("compile-up", ("compile-up", "--formula", f"{name}.sexp", "-o", f"up_{name}.json"), 0,
              {"source": name, "output": f"up_{name}.json", "bits": BITS[name]})


def _compile_down(automaton: str, output: str, source: str) -> Op:
    return Op("compile-down", ("compile-down", "--automaton", automaton, "-o", output), 0,
              {"source": source, "output": output, "bits": 1})


def _equiv(a: str, b: str, nodes: int, bits: int, samples: int = 0, seed: int = 0) -> Op:
    argv = ("equiv", "--a", a, "--b", b, "--max-nodes", str(nodes))
    if samples:
        argv += ("--samples", str(samples), "--seed", str(seed))
    return Op("equiv", argv, 0, {"nodes": nodes, "bits": bits, "samples": samples})


def _fuzz(automaton: str, graphs: int, seed: int, expect: int = 0) -> Op:
    return Op("fuzz", ("fuzz", "--automaton", automaton, "--graphs", str(graphs), "--seed", str(seed)),
              expect, {"graphs": graphs, "automaton": automaton})


def roundtrip_down(rng: random.Random) -> list[Op]:
    return [
        _compile_down("safe_one.json", "down_safe_one.sexp", "safe_one"),
        _equiv("down_safe_one.sexp", "safe_one.json", 3, 1),
        _equiv("down_safe_one.sexp", "safe_one.json", 4, 1, DOWN_SAMPLES, rng.randrange(2**31)),
        # gives this workload an up_rules figure
        _compile_up("safe_one"),
    ]


def roundtrip_up(rng: random.Random) -> list[Op]:
    ops = []
    for name in FORMULAS:
        ops.append(_compile_up(name))
        ops.append(_equiv(f"up_{name}.json", f"{name}.sexp", 3, BITS[name]))
    ops.append(_equiv("safe_one.json", "safe_one.sexp", 3, 1))
    # gives this workload a down_formula_bytes figure
    ops.append(_compile_down("safe_one.json", "down_safe_one.sexp", "safe_one"))
    return ops


def fuzz_async(rng: random.Random) -> list[Op]:
    names = ("safe_one", "reach_one", "boxed_one")
    ops = [_compile_up(name) for name in names]
    for subject in ("safe_one.json",) + tuple(f"up_{n}.json" for n in names):
        ops.append(_fuzz(subject, FUZZ_GRAPHS, rng.randrange(2**31)))
    # the CLI's default budget; the probe is caught on the first graph where
    # timing matters, so this costs next to nothing
    ops.append(_fuzz("sync_probe.json", 50, rng.randrange(2**31), expect=1))
    # gives this workload a down_formula_bytes figure
    ops.append(_compile_down("safe_one.json", "down_safe_one.sexp", "safe_one"))
    return ops


def roundtrip_updown(rng: random.Random) -> list[Op]:
    return [
        _compile_up("safe_one"),
        _compile_down("up_safe_one.json", "updown_safe_one.sexp", "safe_one"),
        _equiv("updown_safe_one.sexp", "safe_one.sexp", 2, 1),
        _equiv("updown_safe_one.sexp", "safe_one.sexp", 4, 1, UPDOWN_SAMPLES, rng.randrange(2**31)),
    ]


WORKLOADS = {
    "roundtrip-down": roundtrip_down,
    "roundtrip-up": roundtrip_up,
    "fuzz-async": fuzz_async,
    "roundtrip-updown": roundtrip_updown,
}


def operations(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED of the workload child: the seed itself, reduced to the
    range the interpreter accepts."""
    return seed % 4294967296
