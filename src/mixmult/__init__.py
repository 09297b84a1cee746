"""Exact computation of bigraded Hilbert polynomials, mixed multiplicities,
and intersection-cycle degrees over the rationals or a prime field."""

from .bigraded import (BigradedAlgebra, DegreesReport, FilterRegularCertificate,
                       degrees_report, e_positivity, e_table_full,
                       e_value_from_prefix, e_value_via_criterion,
                       find_filter_regular, is_filter_regular, sum_check)
from .config import RunConfig, certified_search, load_config
from .errors import (GenericityExhausted, InputError, MathInvariantError,
                     MixmultError, ParseError)
from .fields import DEFAULT_PRIME, FieldSpec
from .groebner import (DEGREVLEX, Ideal, MonomialOrder, ideal_intersection,
                       ideal_power, ideal_product, ideal_quotient, ideal_sum,
                       in_radical, is_nzd, krull_dim, saturation)
from .hilbert import (ETable, HilbertPoly, HilbertSeries, e_table,
                      hilbert_function, polynomial_of, series_of,
                      total_multiplicity)
from .ideal_mixed import (GradedSetting, MixedIdealReport, SatChain, analytic_spread,
                          height_of, is_reduction_of, mixed_report, order_of,
                          rees_and_diagonal, rees_diagonal, rees_presentation,
                          rees_report, reduction_invariance_check, sat_chain)
from .problemfile import ProblemFile, parse_problem
from .rings import Bidegree, Poly, Ring, monomials_of_bidegree, swap_ring
from .sv_cycles import SVReport, bezout_check, make_join, sv_degrees

__version__ = "0.1.0"
