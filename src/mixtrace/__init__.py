"""Exact traces, loop congruence and compactification for strict matrix
models of *-autonomous Mix-categories."""

from .category import (CheckResult, Model, Mor, ValidationReport,
                       canonical_map, compose, contract_hidden, curry,
                       dual_mor, factor_permutation, identity, mor, mor_scale,
                       regroup, tensor_mor, uncurry, validate_coherence,
                       zero_mor)
from .compactify import (c_tr, comix, congruent, localized_model, loop_value,
                         realize, verify_compactness)
from .errors import (InputError, ModelNotCompactifiableError,
                     ResourceLimitError)
from .loops import (Loop, Permutation, hidden_symmetry, loop_compose,
                    loop_dual, loop_tensor, morphism_loop, yanking_loop)
from .rings import (INTEGERS, RATIONALS, RingTag, localized_integers,
                    parse_value, ring_contains)
from .traces import (StaircaseWitness, TraceResult, free_mixed_trace,
                     hidden_trace, induced_mixed_trace, pairing_form,
                     run_axiom_suite)
from .zigzag import (Diagram, ZigZagInstance, check_zigzag_instance,
                     diagram_commutes, search_counterexample)

__version__ = "0.1.0"
