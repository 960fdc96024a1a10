"""Curvature-dimension analysis for reversible Markov chains.

The library implements the exponential difference calculus on finite
reversible chains: the nonlinear carre-du-champ replacements built from
ups(r) = e^r - 1 - r, per-vertex optimal curvature constants for both the
classical quadratic and the exponential conditions, and direct simulation
of the entropy-method consequences (entropy decay, modified log-Sobolev,
Beckner, gradient bounds, tensorization).
"""

from . import chains, curvature, flow, kernels, operators, tensor
from .chains import (
    MarkovChain,
    birth_death,
    build_chain,
    complete,
    cycle,
    dump_spec,
    hypercube,
    lattice_window,
    load_spec,
    perturbed_birth_death,
    star,
    two_point,
    weighted_4cycle,
    weighted_complete,
    validate_chain,
)
from .curvature import (
    CurvatureOptions,
    bakry_emery_kappa,
    birth_death_kappa_bound,
    cd_p_check,
    cd_upsilon_check,
    cd_upsilon_dim_check,
    cd_upsilon_kappa,
    chain_curvature_report,
    divergence_certificate,
    no_lower_bound_witness,
    poisson_family_slack,
    poisson_family_violation,
    ratio_grid_oracle,
    star_kappa_certificate,
)
from .flow import (
    FlowTrace,
    beckner_check,
    de_bruijn_residual,
    decay_rate_fit,
    dirichlet_form,
    em_identity_residuals,
    entropy,
    entropy_decay_check,
    erbar_maas_A,
    erbar_maas_B,
    fisher,
    fisher_dirichlet,
    gradient_bound_check,
    heat_flow,
    mlsi_check,
    p_entropy,
    p_fisher,
    p_fisher_dirichlet,
    p_flow_identities,
    second_derivative_residual,
    semigroup_apply,
)
from .kernels import bregman, nu, omega, ups, ups_prime
from .operators import (
    b_h,
    gamma,
    gamma2,
    generator_apply,
    psi2_upsilon,
    psi2_upsilon_expanded,
    psi_h,
    psi_p,
    psi2_p,
    psi_upsilon,
    small_field_comparison,
)
from .tensor import product, tensor_curvature_check

__version__ = "0.1.0"
