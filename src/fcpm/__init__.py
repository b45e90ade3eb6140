"""Symbolic-numeric toolkit for the F_C^{p,m} hypergeometric family.

Layers:

* params   -- parameter sets, validity and genericity conditions,
              column reflections, solution labels and exponents
* series   -- coefficients A_n, evaluation, convergence domain, probes
* diffops  -- Euler-operator algebra, the annihilators l_k,
              coefficient-level annihilation checks
* singular -- the singular-locus polynomial R over cyclotomic integers
* charvar  -- symbols, Macaulay-matrix Hilbert functions, rank checks
* integral -- gamma, Dirichlet simplex quadrature, the Euler-integral
              route to the coefficients
* cli      -- the `fcpm` command
"""

from .errors import (BranchError, ConvergenceError, DomainError, FcpmError,
                     InvarianceError, ModeError, PoleError, ValidationError)
from .params import (EXACT, FLOAT, GenericityReport, ParameterSet,
                     SolutionLabel, all_labels, check_nonintegrality, eta,
                     mu_table, parameter_set, parameters_from_json,
                     random_generic_parameters, require_generic,
                     solution_exponents, transform_parameters, validate)
from .rings import (CycloScalar, GaussianRational, MPoly,
                    cyclotomic_polynomial, rank_exact)
from .series import (EvalResult, ProbeResult, TruncatedSeries, all_indices,
                     coefficient, coefficient_table, divergence_probe,
                     domain_radius, evaluate, evaluate_phi, in_domain,
                     phi_series, pochhammer, series_table, shell_indices)
from .diffops import (EulerFactor, EulerOperatorExpr, EulerTerm,
                      annihilation_residual, apply, apply_poly,
                      coefficient_recurrence_check, operator_l)
from .singular import (build_R_x, build_R_z, evaluate_R_x, on_singular_locus,
                       poly_terms_json, poly_to_string, unirational_point)
from .charvar import (RankResult, SpecializedPoint, c_chi, expected_hilbert,
                      expected_partial, hilbert_function,
                      partial_quotient_dims, pullback_functional_check,
                      pullback_operator, random_generic_point,
                      random_singular_point, rank_at, specialize, symbols)
from .integral import (DirichletResult, check_integral_hypotheses,
                       coefficient_via_integral, dirichlet_integral,
                       gamma_value, reflection_identity_check)

__version__ = "0.1.0"
