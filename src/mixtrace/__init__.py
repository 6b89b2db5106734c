"""Exact traces, loop congruence and compactification for strict matrix
models of *-autonomous Mix-categories."""

from .category import (CheckResult, Model, Mor, Obj, UNIT, ValidationReport,
                       canonical_map, compose, contract_hidden, curry,
                       dual_mor, dual_obj, factor_permutation, identity,
                       mor, mor_scale, obj_tensor, regroup, tensor_mor,
                       uncurry, validate_coherence, zero_mor)
from .compactify import (c_tr, comix, localized_model, loop_value, realize,
                         verify_compactness)
from .errors import (InputError, ModelNotCompactifiableError,
                     ResourceLimitError)
from .loops import (Loop, Permutation, all_permutations, congruent,
                    compose_permutations, hidden_symmetry, hide,
                    identity_permutation, loop_compose, loop_dual, loop_par,
                    loop_tensor, morphism_loop,
                    morphism_tensor_loop, one_step_congruent, post_compose,
                    pre_compose, yanking_loop)
from .rings import (INTEGERS, RATIONALS, RingTag, localized_integers,
                    parse_value, ring_contains)
from .traces import (StaircaseWitness, TraceResult, free_mixed_trace,
                     hidden_trace, induced_mixed_trace, pairing_form,
                     provisional_trace, run_axiom_suite, total_trace)
from .zigzag import (Diagram, Edge, ZigZagInstance, check_zigzag_instance,
                     diagram_commutes, search_counterexample,
                     staircase_diagram)

__version__ = "0.1.0"
