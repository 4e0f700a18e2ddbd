"""semireg: semiregular automorphisms of arc-transitive graphs.

Permutation groups with stabilizer chains, the graph constructions used to
search for nontrivial semiregular automorphisms (coset graphs, normal
quotients, double covers, density closure), concrete families (projective
linear actions, Praeger-Xu graphs, K12 with M11), a certificate-producing
search engine, and graph6/sparse6 + generator-file I/O with a CLI.

The names of ``semireg.families`` load on first use: ``semireg.praeger_xu``
or ``from semireg import corpus_generate`` imports that module, and a bare
``import semireg`` (or a ``semireg find``/``verify`` process) does not.
"""

__version__ = "0.1.0"

# every kernel in ``_kernels`` runs on the one numpy/Python path
kernel_backend = "numpy"

from .perm import Permutation
from .group import (
    ActionBundle,
    BoundExceededError,
    PermGroup,
    PreconditionError,
    StabilizerChain,
    action_on_partition,
    lift_semiregular,
    minimal_normal_subgroups,
    semiregular_of_prime_power_degree,
)
from .graphs import (
    CosetGraphBundle,
    Graph,
    complete_graph,
    coset_graph,
    cycle_graph,
    density_closure,
    has_triangle,
    is_arc_transitive,
    left_mult_automorphism,
    local_graph,
    quotient_graph,
    standard_double_cover,
)
from .engine import (
    BuddyStructure,
    Certificate,
    EngineConfig,
    InconclusiveError,
    buddy_swap_automorphism,
    c4_buddy_structure,
    find_semiregular,
    local_action,
    proof_invariant_report,
    verify_certificate,
)
from .formats import (
    ParseError,
    format_generators,
    parse_generators,
    read_graph6,
    read_sparse6,
    write_graph6,
    write_sparse6,
)

_FAMILIES = frozenset(
    {
        "CorpusConfig",
        "CorpusInstance",
        "corpus_generate",
        "k12_m11",
        "pgl2_action",
        "praeger_xu",
        "praeger_xu_group",
        "psl2_action",
        "psl2_coset_instance",
    }
)


def __getattr__(name):
    # looked up on each access and never stored here, so a later rebinding
    # of the name in ``families`` is what the package hands out
    if name in _FAMILIES:
        from . import families

        return getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
