"""Fixed-point analysis of the RSA power map x -> x**e (mod pq).

Closed-form counts of the points of every period, constructive
enumeration, brute-force oracles, and an exponent-safety audit.
"""

from .arith import (
    Factorization,
    crt_combine,
    divisors,
    euler_phi,
    factorize,
    is_prime,
)
from .census import (
    ExactOrderCensus,
    RsaInstance,
    cumulative_unit_fixed_count,
    elements_of_order_count,
    exact_order_all_count,
    exact_order_unit_count,
    exact_quasi_order_count,
    full_census,
    make_instance,
    max_period,
    poly_fixed_count,
    roots_of_unity_count,
)
from .dynamics import (
    CycleStructure,
    PeriodRecord,
    analytic_cycle_structure,
    enumerate_fixed_points,
    extract_factor_from_fixed_point,
    find_nontrivial_fixed_point,
    iterate_power_map,
    period_of_point,
)
from .errors import CapExceededError, FactoringError, LimitExceededError
from .oracle import (
    brute_element_orders,
    brute_poly_fixed,
    brute_power_map_census,
    brute_roots_of_unity,
)
from .reports import AuditReport, build_audit_report, render_report

__version__ = "0.1.0"
