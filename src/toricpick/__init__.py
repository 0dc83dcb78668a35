"""Exact lattice point, signature and characteristic number identities for
Delzant polytopes, computed by fixed point localization over the rationals."""

from .agw import pontryagin_label, verify_agw
from .cli import format_rational, load_polytope, main
from .errors import (BudgetError, DimensionError, GenericityError,
                     InputError, NotSimpleError, RouteDisagreementError,
                     ShapeError, ToricError, UnboundedError)
from .exact import det
from .invariants import (Report, check_face_todd, check_pick,
                         check_tetrahedron, check_todd,
                         check_untwisted_signature, twisted_signature_breakdown,
                         twisted_todd_breakdown, volume_breakdown)
from .lattice import (FaceCounts, count_points, weighted_sum_closed,
                      weighted_sum_relint)
from .localization import (chart_weights, chern_number, check_partition,
                           choose_generic, gysin_power, gysin_power_v3,
                           integrate_monomial, localize, partitions_of)
from .polytope import (Face, HPolytope, HVector, VertexChart,
                       enumerate_vertices, face_lattice, h_vector,
                       induce_face_polytope, require_delzant,
                       signature_from_h, validate, volume)

__version__ = "0.1.0"
