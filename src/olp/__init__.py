"""Semantics of ordered (preference-annotated) extended logic programs.

The package computes standard answer sets and well-founded models, preferred
answer sets driven by a rule order, a preferred well-founded semantics based
on per-rule context reduction, and a paraconsistent variant, together with a
parser for the ``.olp`` format, a brute-force oracle, and a CLI.
"""

from .brewka import brewka_wf_set, c_star, cl, defeated_rules, t_star_step
from .classical import (
    a_op,
    answer_sets,
    c_op,
    cn,
    is_active,
    reduct,
    t_step,
    well_founded_fixpoint,
    well_founded_model,
)
from .fixpoint import FixpointDivergence
from .parser import ParseError, ParseErrorKind, SourceSpan, parse_program, render_program
from .preference import ap_op, cp_op, lfp_ap, preferred_answer_sets, tp_step
from .prefwfs import (
    apn_op,
    cpn_op,
    d_set,
    d_set_simplistic,
    defeats,
    preferred_wf_model,
    preferred_wfs_set,
    tpn_step,
)
from .syntax import (
    Atom,
    CycleError,
    DuplicateRuleError,
    Interpretation,
    Literal,
    OrderedProgram,
    PartialModel,
    PreferenceOrder,
    ProgramError,
    Rule,
    UnknownRuleError,
    complement,
    literal_universe,
    neg,
    pos,
    program,
    rule,
    validate_order,
)

__version__ = "0.1.0"

# The brute-force oracle and the program generator load on first use, so
# a solve does not pay for them (PEP 562).
_ORACLE_NAMES = frozenset({
    "GeneratorConfig",
    "UniverseTooLarge",
    "check_theorems",
    "enumerate_subsets",
    "generate_program",
    "oracle_answer_sets",
    "oracle_cn",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
