import functools
import itertools
import pickle
import random
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings

from automu import transform
from automu.automata import ELSE, AndGuard, Automaton, Guard, NotGuard, SubsetEq, TransitionRule, parse_automaton
from automu.graphs import BitWidthMismatch, Digraph, PointedDigraph, enumerate_digraphs
from automu.logic import (
    _CLASS_OF_HEAD,
    And,
    Box,
    Const,
    Dia,
    FalseF,
    FormulaSyntaxError,
    MuSystem,
    NegConst,
    Or,
    TrueF,
    Var,
    _lex,
    _postorder,
    _read,
    apply_once,
    approximants,
    eval_modal,
    format_formula,
    lfp,
    lfp_iterations,
    parse_formula,
    satisfies,
)
from automu.transform import (
    SizeGuardExceeded,
    _atom_system,
    _shallow_guards,
    automaton_to_formula,
    formula_to_automaton,
)
from automu.zoo import chain_graph, safe_one_formula, single_node
from strategies import graphs, make_graph, seeds, systems

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def tree_parse(text: str, bits: int | None = None) -> MuSystem:
    """The reader before hash-consing, kept as the reference the interned
    ``parse_formula`` is tested against: a fresh node for every occurrence,
    so each body is a tree."""

    def build(node: object):
        if node in ("true", "false"):
            return _CLASS_OF_HEAD[node]()
        if isinstance(node, str):
            raise FormulaSyntaxError(f"bare atom {node!r}; did you mean (var {node})?")
        if not isinstance(node, list) or not node:
            raise FormulaSyntaxError(f"malformed formula {node!r}")
        head = node[0]
        args = node[1:]
        if head in ("p", "not-p"):
            if len(args) != 1 or not isinstance(args[0], str) or not (args[0].isascii() and args[0].isdigit()):
                raise FormulaSyntaxError(f"({head} <int>) expected, got {node!r}")
            return _CLASS_OF_HEAD[head](int(args[0]))
        if head == "var":
            if len(args) != 1 or not isinstance(args[0], str):
                raise FormulaSyntaxError(f"(var NAME) expected, got {node!r}")
            return Var(args[0])
        if head in ("or", "and"):
            if len(args) < 2:
                raise FormulaSyntaxError(f"({head} ...) needs at least two arguments")
            return reduce(_CLASS_OF_HEAD[head], [build(a) for a in args])
        if head in ("dia", "box"):
            if len(args) != 1:
                raise FormulaSyntaxError(f"({head} <f>) takes exactly one argument")
            return _CLASS_OF_HEAD[head](build(args[0]))
        raise FormulaSyntaxError(f"unknown operator {head!r}")

    try:
        tokens = _lex(text)
        sexp, pos = _read(tokens, 0)
        if pos != len(tokens):
            raise FormulaSyntaxError(f"trailing input after formula: {tokens[pos]!r}")
        if not (isinstance(sexp, list) and len(sexp) == 2 and sexp[0] == "mu" and isinstance(sexp[1], list)):
            raise FormulaSyntaxError("expected (mu ((NAME <f>) ...))")
        names, bodies = [], []
        for entry in sexp[1]:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
                raise FormulaSyntaxError(f"expected (NAME <f>) pair, got {entry!r}")
            names.append(entry[0])
            bodies.append(build(entry[1]))
        return MuSystem(bits=bits, vars=tuple(names), bodies=tuple(bodies))
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply") from None


def all_states_automaton(sys: MuSystem) -> Automaton:
    """The compile-up before it kept only the states reachable from
    initialization, kept as the reference ``formula_to_automaton`` is tested
    against: every subset of the atoms is a state, the ``dia`` and ``box``
    guards name states among all of them, and each state has one rule per
    subset of its open variables."""
    flat = _atom_system(sys)
    consts = [f"p{i}" for i in range(flat.bits)]
    atoms = consts + list(flat.vars)
    if len(atoms) > transform.MAX_ATOMS:
        raise SizeGuardExceeded(
            f"powerset construction over {len(atoms)} atoms exceeds the guard of {transform.MAX_ATOMS}"
        )
    order = {t: i for i, t in enumerate(atoms)}

    def state_id(subset: frozenset[str]) -> str:
        return "{" + ",".join(sorted(subset, key=order.__getitem__)) + "}"

    subsets = [frozenset(x for i, x in enumerate(atoms) if mask >> i & 1) for mask in range(1 << len(atoms))]
    ids = [state_id(q) for q in subsets]
    box = {y: SubsetEq(frozenset(i for i, q in zip(ids, subsets) if y in q)) for y in flat.vars}
    dia = {y: NotGuard(SubsetEq(frozenset(i for i, q in zip(ids, subsets) if y not in q)))
           for y in flat.vars}

    # per state: what every transition adds, and the guards of the open variables
    nodes = list(_postorder(flat.bodies))
    plan: list[tuple[frozenset[str], list[tuple[str, Guard]]]] = []
    for q in subsets:
        always, open_vars = set(q), []
        for x, g in zip(flat.vars, _shallow_guards(nodes, flat.bodies, q, dia, box)):
            if x not in q:
                if g is True:
                    always.add(x)
                elif g is not False:
                    open_vars.append((x, g))
        plan.append((frozenset(always), open_vars))
    total_rules = sum(1 << len(open_vars) for _, open_vars in plan)
    if total_rules > transform.MAX_RULE_TABLE:
        raise SizeGuardExceeded(
            f"rule table of {total_rules} entries exceeds the guard of {transform.MAX_RULE_TABLE}"
        )

    # the rule for the set of open variables that hold comes before every
    # smaller one, so first-match picks exactly that set
    rules: dict[str, tuple[TransitionRule, ...]] = {}
    for q_id, (base, open_vars) in zip(ids, plan):
        rules[q_id] = tuple(
            TransitionRule(AndGuard(tuple(g for _, g in chosen)),
                           state_id(base.union(x for x, _ in chosen)))
            for k in range(len(open_vars), 0, -1)
            for chosen in itertools.combinations(open_vars, k)
        ) + (TransitionRule(ELSE, state_id(base)),)

    words = ("".join(w) for w in itertools.product("01", repeat=flat.bits))
    return Automaton(
        bits=flat.bits,
        states=tuple(ids),
        init={w: state_id(frozenset(f"p{i}" for i, c in enumerate(w) if c == "1")) for w in words},
        rules=rules,
        accepting=frozenset(i for i, q in zip(ids, subsets) if flat.vars[0] in q),
    )


@functools.cache
def compiled_texts() -> dict[str, str]:
    """The printed compile-down of the flagship automaton and of the
    compile-up of the flagship formula."""
    down = automaton_to_formula(parse_automaton((SAMPLES / "safe_one.json").read_text()))
    up = formula_to_automaton(parse_formula((SAMPLES / "safe_one.sexp").read_text()))
    return {"down": format_formula(down), "up-down": format_formula(automaton_to_formula(up))}


def node_objects(sys: MuSystem) -> int:
    return sum(1 for _ in _postorder(sys.bodies))


def distinct_subterms(sys: MuSystem) -> int:
    """Structurally distinct subterms of the bodies, by value numbering: a
    node's number is that of its class with its leaf field or its children's
    numbers."""
    numbers: dict[tuple, int] = {}
    number: dict[int, int] = {}  # id of a node -> its number
    for f, kids in _postorder(sys.bodies):
        key = (type(f), *[number[id(k)] for k in kids]) if kids else (type(f), *vars(f).values())
        number[id(f)] = numbers.setdefault(key, len(numbers))
    return len(numbers)


def g(bits, nodes, labels, edges):
    return Digraph(bits=bits, nodes=tuple(nodes), labels=dict(labels), edges=frozenset(edges))


class TestParsing:
    def test_flagship_formula(self):
        sys = safe_one_formula()
        assert sys.vars == ("X1", "X2")
        assert sys.bits == 1
        assert sys.bodies[0] == Or(And(Const(0), Var("X2")), Dia(Var("X1")))
        assert sys.bodies[1] == Box(Var("X2"))

    def test_unknown_variable(self):
        with pytest.raises(FormulaSyntaxError, match="unknown variable 'X9'"):
            parse_formula("(mu ((X0 (var X9))))")

    def test_trivial_true(self):
        sys = parse_formula("(mu ((X0 true)))")
        assert sys.bits == 0
        assert sys.bodies == (TrueF(),)

    def test_nary_desugars_left_associatively(self):
        sys = parse_formula("(mu ((X0 (or true false (p 0)))))")
        assert sys.bodies[0] == Or(Or(TrueF(), FalseF()), Const(0))

    def test_const_out_of_range_with_explicit_bits(self):
        with pytest.raises(FormulaSyntaxError, match="out of range"):
            parse_formula("(mu ((X0 (p 3))))", bits=2)

    @pytest.mark.parametrize("text", ["(mu ((X0 true)))", "(mu ((X0 (p 0))))"])
    def test_negative_bits_are_refused_first(self, text):
        with pytest.raises(FormulaSyntaxError, match=r"^bits must be >= 0, got -1$"):
            parse_formula(text, bits=-1)

    def test_inferred_bits(self):
        assert parse_formula("(mu ((X0 (p 3))))").bits == 4

    @pytest.mark.parametrize("index", ["²", "٣", "-1"])
    def test_const_index_takes_ascii_digits_only(self, index):
        for head in ("p", "not-p"):
            with pytest.raises(FormulaSyntaxError, match=f"\\({head} <int>\\) expected"):
                parse_formula(f"(mu ((X ({head} {index}))))")

    def test_unbalanced(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(mu ((X0 true))")

    def test_bare_atom(self):
        with pytest.raises(FormulaSyntaxError, match="bare atom"):
            parse_formula("(mu ((X0 X0)))")

    def test_duplicate_variable(self):
        with pytest.raises(FormulaSyntaxError, match="duplicate"):
            parse_formula("(mu ((X0 true) (X0 false)))")

    def test_variables_cannot_be_negated(self):
        # the grammar has no negation form at all except on constants
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(mu ((X0 (not (var X0)))))")

    def test_format_round_trip_flagship(self):
        sys = safe_one_formula()
        assert parse_formula(format_formula(sys)) == sys

    @given(systems())
    @settings(max_examples=50)
    def test_format_round_trip_random(self, sys):
        assert parse_formula(format_formula(sys), bits=sys.bits) == sys

    def test_wide_formula_walks_without_recursion(self):
        # 3,000 arguments desugar to a chain 3,000 deep, past the recursion limit
        sys = parse_formula("(mu ((X (or " + "(dia (var X)) (p 2) " * 1500 + "))))")
        assert sys.bits == 3
        assert format_formula(sys).count("(or ") == 2999
        assert lfp(sys, g(3, ["u", "v"], {"u": "001", "v": "000"}, [("u", "v")]))["X"] == {"u", "v"}


ERRORS = [
    ("", "unexpected end of input"),
    ("(mu ((X true))", "unbalanced '('"),
    (")", "unbalanced ')'"),
    ("(mu ((X true)))) x", "trailing input after formula: ')'"),
    ("(nu ((X true)))", "expected (mu ((NAME <f>) ...))"),
    ("(mu (X true))", "expected (NAME <f>) pair, got 'X'"),
    ("(mu ((X y)))", "bare atom 'y'; did you mean (var y)?"),
    ("(mu ((X ())))", "malformed formula []"),
    ("(mu ((X (p 1 2))))", "(p <int>) expected, got ['p', '1', '2']"),
    ("(mu ((X (not-p x))))", "(not-p <int>) expected, got ['not-p', 'x']"),
    ("(mu ((X (var (a)))))", "(var NAME) expected, got ['var', ['a']]"),
    ("(mu ((X (or true))))", "(or ...) needs at least two arguments"),
    ("(mu ((X (dia true false))))", "(dia <f>) takes exactly one argument"),
    ("(mu ((X (not true))))", "unknown operator 'not'"),
    ("(mu ((X ((p 0)))))", "unknown operator ['p', '0']"),
    ("(mu ((X (or (var X) (dia (var Z))))))", "unknown variable 'Z' in body of 'X'"),
    ("(mu ((X true) (X false)))", "duplicate variable name"),
    ("(mu ())", "a system needs at least one variable"),
    ("(mu ((X " + "(dia " * 3000 + "true" + ")" * 3000 + ")))", "formula nested too deeply"),
]


class TestInternedReader:
    """``parse_formula`` builds each structurally distinct subterm once."""

    @pytest.mark.parametrize("name, objects, tree", [("down", 251, 1327), ("up-down", 445, 3003)])
    def test_one_object_per_distinct_subterm(self, name, objects, tree):
        text = compiled_texts()[name]
        interned, reference = parse_formula(text), tree_parse(text)
        assert node_objects(reference) == tree
        assert node_objects(interned) == distinct_subterms(interned) == distinct_subterms(reference) == objects

    def test_compile_down_is_interned(self):
        # the construction shares as the reader does
        down = automaton_to_formula(parse_automaton((SAMPLES / "safe_one.json").read_text()))
        assert node_objects(down) == distinct_subterms(down) == 251

    @pytest.mark.parametrize("name", ["down", "up-down"])
    def test_format_round_trips_byte_for_byte(self, name):
        text = compiled_texts()[name]
        assert format_formula(parse_formula(text)) == text

    @pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.sexp")), ids=lambda p: p.name)
    def test_samples_print_as_their_trees(self, path):
        text = path.read_text()
        assert format_formula(parse_formula(text)) == format_formula(tree_parse(text))
        assert parse_formula(text) == tree_parse(text)

    @given(systems(bits=2, max_vars=4))
    @settings(max_examples=50)
    def test_random_systems_print_as_their_trees(self, sys):
        text = format_formula(sys)
        interned = parse_formula(text, bits=sys.bits)
        assert interned == tree_parse(text, bits=sys.bits) == sys
        assert format_formula(interned) == text
        assert node_objects(interned) == distinct_subterms(interned)

    def test_nary_intermediate_nodes_are_shared(self):
        sys = parse_formula("(mu ((X (or (p 0) (var X) (p 1))) (Y (and (or (p 0) (var X)) (p 1)))))")
        assert sys.bodies[0].left is sys.bodies[1].left
        assert node_objects(sys) == 6

    def test_leaves_of_different_kinds_are_never_merged(self):
        sys = parse_formula("(mu ((X (and (or (p 1) (not-p 1)) (or true false))) (Y (or (var X) (var Y)))"
                            " (Z (and (or (p 1) (not-p 1)) (or (var X) (var Y))))))")
        x, y, z = sys.bodies
        assert (type(x.left.left), type(x.left.right)) == (Const, NegConst)
        assert (type(x.right.left), type(x.right.right)) == (TrueF, FalseF)
        assert (y.left.name, y.right.name) == ("X", "Y")
        assert z.left is x.left and z.right is y
        assert node_objects(sys) == 11

    def test_a_repeated_leaf_is_one_object(self):
        body = parse_formula("(mu ((X (and (p 1) (p 1)))))").bodies[0]
        assert body.left is body.right

    def test_tables_are_per_parse(self):
        text = "(mu ((X (or (p 0) (var X)))))"
        assert parse_formula(text).bodies[0] is not parse_formula(text).bodies[0]

    def test_pickling_keeps_the_sharing(self):
        sys = parse_formula(compiled_texts()["up-down"])
        copy = pickle.loads(pickle.dumps(sys))
        assert node_objects(copy) == 445
        assert format_formula(copy) == compiled_texts()["up-down"]

    @pytest.mark.parametrize("text, message", ERRORS, ids=[m for _, m in ERRORS])
    def test_error_messages_are_the_reference_readers(self, text, message):
        for read in (parse_formula, tree_parse):
            with pytest.raises(FormulaSyntaxError) as caught:
                read(text)
            assert str(caught.value) == message


class TestEvalModal:
    def test_box_vacuous_at_in_degree_zero(self):
        d = g(0, ["v"], {"v": ""}, [])
        assert eval_modal(Box(FalseF()), d, {}) == {"v"}

    def test_dia_clause(self):
        d = g(0, ["u", "v"], {"u": "", "v": ""}, [("u", "v")])
        assert eval_modal(Dia(Var("X")), d, {"X": {"u"}}) == {"v"}

    def test_contradiction(self):
        d = g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v")])
        assert eval_modal(And(Const(0), NegConst(0)), d, {}) == frozenset()

    def test_constants(self):
        d = g(2, ["u", "v"], {"u": "10", "v": "01"}, [])
        assert eval_modal(Const(0), d, {}) == {"u"}
        assert eval_modal(Const(1), d, {}) == {"v"}

    def test_missing_variable(self):
        d = g(0, ["v"], {"v": ""}, [])
        with pytest.raises(KeyError, match="missing variable"):
            eval_modal(Var("X"), d, {})


class TestLfp:
    def test_single_node_hand_iteration(self):
        p = single_node("1")
        chain = list(approximants(safe_one_formula(), p.graph))
        assert chain == [
            {"X1": frozenset(), "X2": frozenset()},
            {"X1": frozenset(), "X2": frozenset({"v"})},
            {"X1": frozenset({"v"}), "X2": frozenset({"v"})},
        ]
        val, steps = lfp_iterations(safe_one_formula(), p.graph)
        assert steps == 3  # the bound (k+1)*|V| + 1 is met exactly here
        assert satisfies(safe_one_formula(), p)

    def test_self_loop_stays_empty(self):
        p = single_node("1", self_loop=True)
        assert lfp(safe_one_formula(), p.graph) == {"X1": frozenset(), "X2": frozenset()}
        assert not satisfies(safe_one_formula(), p)

    def test_all_true_in_one_application(self):
        sys = parse_formula("(mu ((A true) (B true)))", bits=1)
        d = make_graph(random.Random(1), 4, 1)
        chain = list(approximants(sys, d))
        assert len(chain) == 2
        assert chain[1] == {"A": frozenset(d.nodes), "B": frozenset(d.nodes)}

    def test_chain_satisfied_at_sink(self):
        assert satisfies(safe_one_formula(), PointedDigraph(chain_graph(), "v"))

    def test_zero_labeled_isolated_node(self):
        assert not satisfies(safe_one_formula(), single_node("0"))

    def test_mu_false(self):
        sys = parse_formula("(mu ((X0 false)))", bits=1)
        for d in itertools.islice(enumerate_digraphs(2, 1), 20):
            assert lfp(sys, d)["X0"] == frozenset()

    def test_bit_width_mismatch(self):
        with pytest.raises(BitWidthMismatch):
            lfp(parse_formula("(mu ((X0 true)))", bits=2), single_node("1").graph)


def _subsets(nodes):
    for r in range(1 << len(nodes)):
        yield frozenset(n for i, n in enumerate(nodes) if r >> i & 1)


class TestOperatorProperties:
    @given(systems(max_vars=2, depth=3), graphs(max_nodes=3), seeds)
    @settings(max_examples=60)
    def test_monotone(self, sys, d, seed):
        rng = random.Random(seed)
        small, big = {}, {}
        for x in sys.vars:
            lo = frozenset(v for v in d.nodes if rng.random() < 0.4)
            hi = lo | frozenset(v for v in d.nodes if rng.random() < 0.4)
            small[x], big[x] = lo, hi
        out_small = apply_once(sys, d, small)
        out_big = apply_once(sys, d, big)
        assert all(out_small[x] <= out_big[x] for x in sys.vars)

    @given(systems(max_vars=3), graphs(max_nodes=4))
    @settings(max_examples=60)
    def test_chain_nondecreasing_and_bounded(self, sys, d):
        chain = list(approximants(sys, d))
        for prev, cur in zip(chain, chain[1:]):
            assert all(prev[x] <= cur[x] for x in sys.vars)
        _, steps = lfp_iterations(sys, d)
        assert steps <= len(sys.vars) * len(d.nodes) + 1

    @given(systems(max_vars=3), graphs(max_nodes=4))
    @settings(max_examples=60)
    def test_fixpoint_property(self, sys, d):
        val = lfp(sys, d)
        assert apply_once(sys, d, val) == val

    @given(systems(max_vars=2, depth=2))
    @settings(max_examples=20)
    def test_prefixpoint_minimality_exhaustive(self, sys):
        # every pre-fixpoint contains the least fixpoint; exhaustive over all
        # valuations on all graphs with <= 2 nodes
        for d in enumerate_digraphs(2, 1):
            least = lfp(sys, d)
            assignments = [_subsets(d.nodes) for _ in sys.vars]
            for combo in itertools.product(*[list(a) for a in assignments]):
                val = dict(zip(sys.vars, combo))
                image = apply_once(sys, d, val)
                if all(image[x] <= val[x] for x in sys.vars):
                    assert all(least[x] <= val[x] for x in sys.vars)
