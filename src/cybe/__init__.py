"""Eight-vertex solution families of the colored Yang-Baxter equation:
construction, verification, transformation, classification, and the
associated spin-chain couplings."""

from .classify import (ClassificationReport, ClassifyPlan,
                       HamiltonianCoefficients, Verdict, classify,
                       curve_residuals, derived_identity_suite,
                       hamiltonian_coeffs, invariant_suite)
from .errors import (CybeError, InvalidSpec, ModulusOutOfRange,
                     MultiplicativityViolation, NonFiniteOutput,
                     NotEightVertex, NotGauge, PoleProximity,
                     SamplingExhausted, SizeLimit, StepUnstable, ZeroDivisor)
from .families import (FamilyId, FamilySpec, WeightFamily,
                       bazhanov_stroganov, bs_scale, eval_family,
                       make_family, murakami_reduction, spec_from_json,
                       spec_to_json, validate_spec, with_bs_profiles,
                       with_murakami_profiles)
from .numkernel import elliptic_exp, jacobi_cd, jacobi_sncndn
from .profiles import ColorProfile, SpectralProfile
from .sampling import (SamplePlan, draw_points, draw_triples, residual_sweep,
                       unitarity_sweep)
from .spinchain import (ChainOperator, CouplingConstants, build_chain,
                        couplings_from_coeffs, cyclic_shift,
                        ff_relation_check)
from .transforms import (GaugeCertificate, Pipeline, TransformSpec, apply,
                         compose, gauge_reduce)
from .weights import (COMPONENT_IDS, GAUGE_COMPONENT_IDS, ResidualReport,
                      WeightVector, baxter_curve_residual,
                      component_residuals, free_fermion_residual,
                      gauge_ybe_residual, matrix_weights, tensor_embed,
                      to_matrix, unitarity_defect, unitarity_defects,
                      unitarity_residual, ybe_defect, ybe_residual,
                      ybe_residuals)

__version__ = "0.1.0"
