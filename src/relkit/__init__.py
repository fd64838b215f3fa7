"""Finite-algebra toolkit: admissible-relation calculus, quantified identity
checking, and term-system searches on free clones."""

from .algebra import (
    App,
    CapExceeded,
    FiniteAlgebra,
    Operation,
    Term,
    Var,
    load_algebra,
    parse_term,
    power,
    product,
)
from .caps import DEFAULT_CAPS, Caps, caps_from_env
from .fixtures import FIXTURES, resolve
from .freeclone import (
    Clone,
    FreeRelations,
    TermTable,
    clone_as_algebra,
    dump_clone,
    free_relations,
    generate_clone,
    identity_holds,
    slot_identifications,
    table_of_term,
)
from .identities import (
    IdentitySpec,
    RelClass,
    UnsupportedError,
    Verdict,
    builtin,
    builtin_names,
    candidate_pool,
    check_for_all,
    class_member,
    evaluate,
    expr_str,
    free_seed_assignment,
    free_seed_verdict,
)
from .maltsev import (
    Dichotomy,
    ExpansionCheck,
    ExpansionSpec,
    SearchResult,
    TermSystem,
    check_any_expansion,
    enumerate_expansions,
    find_directed_jonsson,
    find_jonsson,
    find_majority,
    find_mal_f,
    find_pixley,
    find_vr,
    slmore_dichotomy,
    subst_vars,
)
from .parser import SpecParseError, parse_spec
from .relations import (
    BinRel,
    admissible_closure,
    compose,
    congruence_gen,
    converse,
    enumerate_relations,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive_admissible,
    is_tolerance,
    symmetric_closure,
    tolerance_gen,
    transitive_closure,
    union,
)
from .uadmissible import (
    UAdmRel,
    bar_u,
    enumerate_u,
    from_components,
    is_u_admissible,
    pair_families,
    principal_decomposition,
    transitive_closure_u,
)

__version__ = "0.1.0"
