"""Exact chain-level engine for the finiteness obstruction of dominated
chain complexes: ring and matrix arithmetic, projective complexes, the
instant-obstruction construction, K0 bookkeeping, and the stabilization
and realization constructions, all in exact integer arithmetic.
"""

from .complexes import (ChainMap, Homotopy, HomologyResult, ProjComplex,
                        ProjModule, direct_sum, homology, mapping_cone, shift,
                        tensor_with_laurent, validate_complex, verify_chain_map,
                        verify_homotopy)
from .constructions import (WindowedLaurentCheck, algebraic_mapping_torus,
                            laurent_resolution, laurent_window_check, realize,
                            swindle_prefix, torus_invariance_check)
from .corpus import corpus_dominations, generate_corpus
from .documents import DocumentError, Workspace, canonical_json, parse_workspace
from .instant import (Domination, InstantData, TrimPreconditionError, TrimResult,
                      build_instant, finiteness_obstruction, free_replacement,
                      stable_freeness_witness, trim_below, verify_domination)
from .matrices import Mat, ShapeError, solve_linear
from .projective import (ClassVerdict, IdealLattice, K0Class, ObstructionReport,
                         StableFreenessWitness, ideal_of_module, ideal_product,
                         k0_class_of_complex, minkowski_bound, principality,
                         quadratic_class_oracle, rank, split_k0,
                         verify_stable_freeness)
from .rings import (C2, ZZ, GroupRing, IntegerRing, LaurentRing, QuadraticRing,
                    Ring, RingElement, RingMismatch, UnsupportedRing,
                    ring_from_descriptor)
from .verdicts import Report, VerificationFailed, Violation

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
