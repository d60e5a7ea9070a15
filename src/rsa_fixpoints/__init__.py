"""Fixed-point analysis of the RSA power map x -> x**e (mod pq).

Closed-form counts of the points of every period, constructive
enumeration, a brute-force census, and an exponent-safety audit.
"""

from .arith import Factorization, factorize, is_prime
from .census import (
    ExactOrderCensus,
    RsaInstance,
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
    PeriodRecord,
    enumerate_fixed_points,
    extract_factor_from_fixed_point,
    find_nontrivial_fixed_point,
    period_of_point,
)
from .errors import CapExceededError, FactoringError
from .oracle import brute_power_map_census
from .reports import AuditReport, build_audit_report, render_report

__version__ = "0.1.0"
