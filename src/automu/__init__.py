"""automu: distributed automata on labeled digraphs, backward least-fixpoint
logic, and effective translations between the two, with brute-force and
randomized equivalence checking."""

from .automata import (
    Automaton,
    AutomatonFormatError,
    AutomatonTooLarge,
    NotQuasiAcyclic,
    Trace,
    TransitionRule,
    automaton_to_json,
    parse_automaton,
    trace_first,
    trace_last,
    trace_popfirst,
    trace_pushlast,
)
from .graphs import (
    BitWidthMismatch,
    Digraph,
    Domain,
    GraphFormatError,
    PointedDigraph,
    backward_bisimilar,
    backward_unravel,
    count_digraphs,
    digraph_to_json,
    enumerate_digraphs,
    indexed_digraph,
    parse_digraph,
    random_digraph,
)
from .harness import (
    Counterexample,
    EquivVerdict,
    InvarianceVerdict,
    accepted_nodes,
    bisim_invariance_check,
    device_accepts,
    equiv_exhaustive,
    equiv_sampled,
)
from .logic import (
    FormulaSyntaxError,
    MuSystem,
    Valuation,
    apply_once,
    approximants,
    eval_modal,
    format_formula,
    holds_on,
    lfp,
    lfp_iterations,
    parse_formula,
    satisfies,
    share,
)
from .runtime import (
    Activation,
    Configuration,
    ConsistencyVerdict,
    FuzzVerdict,
    RunReport,
    TimingPrefix,
    TimingSampler,
    async_run,
    async_step,
    check_consistency,
    fuzz_consistency,
    initial_configuration,
    is_quiescent,
    parse_timing,
    sample_timing,
    sync_accepting_mask,
    sync_accepting_nodes,
    sync_accepts,
    sync_step,
    timing_to_json,
)
from .transform import (
    EnablesSet,
    SizeGuardExceeded,
    automaton_to_formula,
    compute_enables,
    flatten,
    formula_to_automaton,
    shallow_sat,
)

__version__ = "0.1.0"
