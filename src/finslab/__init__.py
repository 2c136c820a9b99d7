"""finslab: numerical checks for Randers spheres of constant flag curvature.

Builds Finsler metrics on S^n by Zermelo navigation from Killing winds,
evaluates flag curvature and the nonlinear gradient/Laplacian, constructs
symmetric Clifford systems with their quartic isoparametric polynomials,
and verifies curvature constancy, transnormality, tangency, symmetry-
algebra dimensions and principal-curvature counts on sampled instances.
"""

from .clifford import (CliffordSystem, SkewBasis, anticommutation_error,
                       build_clifford, centralizer, clifford_delta,
                       find_clifford_point, full_symmetry_dimension,
                       lie_closure_residual, otfkm_gradient, otfkm_value,
                       predicted_centralizer_dim, spin_lift, symmetry_basis)
from .curvature import (Flag, GeodesicPath, flag_curvature,
                        geodesic_field_residual, geodesic_spray,
                        integrate_flow, integrate_geodesic,
                        riemann_curvature)
from .errors import FinslabError
from .isoparametric import (SphereFunction, SpectrumResult,
                            check_isoparametric, check_tangency,
                            check_transnormal, custom_sphere_function,
                            gradient_norm, height_function,
                            nonlinear_gradient, nonlinear_gradient_extended,
                            nonlinear_laplacian, otfkm_function,
                            principal_curvature_spectrum, sample_level_set,
                            split_quadratic_function, unit_gradient_field)
from .minkowski import (InnerProductAtY, NormEvaluator, fundamental_tensor,
                        inner_product, legendre_solve)
from .navigation import (NavigationDatum, check_navigation_lemma,
                         invert_navigation, navigate, navigated_norm,
                         navigation_from_randers, randers_from_navigation)
from .report import VerificationReport
from .sphere import (Chart, KillingField, MetricField, block_killing,
                     finsler_value_ambient, killing_norm, localization_field,
                     random_sphere_points, randers_sphere, round_metric,
                     standard_rotation)

__version__ = "0.1.0"
