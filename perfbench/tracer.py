"""Per-layer call tracing for the benchmark's traced runs.

The tracer wraps public functions of each deltasums layer from outside the
package, after import. A function is replaced in every ``deltasums``
namespace that binds it (``identities`` imports ``voronoi_transform_batch``
and friends by name, the package re-exports everything flat), and
``DirichletCharacter.value_table`` is replaced on the class. ``cache_info``
stays reachable on wrapped ``lru_cache`` functions.

For every wrapped function the tracer counts calls and accumulates self time:
the span's duration minus the time of traced spans nested inside it. Work
counts (``points``) and cache misses are recorded at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

CS = ("calls", "self_s")

# (layer module, function, stats reported, workload whose traced run must
# show it non-zero). The workload column is what the self-test asserts.
LAYERS = [
    ("modular", "prime_modulus", ("calls", "self_s", "misses"), "sweep_all"),
    ("characters", "DirichletCharacter.value_table", CS, "sweep_all"),
    ("expsums", "trivial_delta", CS, "verify"),
    ("expsums", "gauss_sum", CS, "verify"),
    ("expsums", "kloosterman_sum", CS, "verify"),
    ("expsums", "frak_k", CS, "verify"),
    ("expsums", "frak_c", CS, "verify"),
    ("transforms", "bump_window", ("self_s",), "verify"),
    ("transforms", "plateau_window", ("self_s",), "verify"),
    ("transforms", "voronoi_transform_batch", ("calls", "self_s", "points"), "verify"),
    ("transforms", "adaptive_quadrature", CS, "verify"),
    ("transforms", "panel_quadrature", CS, "verify"),
    ("transforms", "fourier_dual", CS, "verify"),
    ("transforms", "voronoi_main_term", CS, "verify"),
    ("lfunctions", "divisor_sequence", ("calls", "self_s", "points", "misses"), "coeffs"),
    ("lfunctions", "ramanujan_tau_table", ("self_s",), "coeffs"),
    ("lfunctions", "load_tau_table", ("self_s",), "coeffs"),
    ("lfunctions", "save_tau_table", ("self_s",), "coeffs"),
    ("lfunctions", "delta_sequence", ("self_s",), "coeffs"),
    ("lfunctions", "hurwitz_zeta", CS, "sweep_all"),
    ("lfunctions", "l_value_dirichlet", CS, "sweep_all"),
    ("lfunctions", "l_value_twist", CS, "coeffs"),
    ("lfunctions", "burgess_sweep", ("self_s",), "sweep_all"),
    ("lfunctions", "write_sweep_csv", ("self_s",), "sweep_all"),
    ("lfunctions", "smoothed_sum", CS, "verify"),
    ("identities", "run_suite", ("self_s",), "verify"),
    ("identities", "voronoi_step_check", CS, "verify"),
    ("identities", "delta_detection_expansion", ("self_s",), "verify"),
]

# The 27 checks of appendix_suite() + pipeline_suite() + transforms_suite().
CHECK_NAMES = [
    "appendix:gauss_magnitude",
    "appendix:ramanujan_brute",
    "appendix:fourier_expansion",
    "appendix:kloosterman_weil",
    "appendix:kloosterman_scaling",
    "appendix:k_sum_exact_case",
    "appendix:c_sum_closed_forms",
    "appendix:alpha_factorization",
    "appendix:conjugation_symmetry",
    "appendix:cancellation_kloosterman",
    "appendix:cancellation_generalized_kloosterman",
    "appendix:cancellation_frak_k",
    "appendix:cancellation_frak_c",
    "pipeline:side_conditions",
    "pipeline:hecke_amplifier",
    "pipeline:delta_detection",
    "pipeline:voronoi_divisor",
    "pipeline:voronoi_delta",
    "pipeline:beta_sum_evaluation",
    "pipeline:poisson_r_sum",
    "transforms:window_mass",
    "transforms:derivative_bounds",
    "transforms:fourier_unit_mass",
    "transforms:fourier_decay_A4",
    "transforms:bessel_ode",
    "transforms:voronoi_identity_c1",
    "transforms:quadrature_convergence",
]

# Read from CheckReport.details of every voronoi_step_check call: dual-sum
# terms summed, dual sums that hit n_cap, and dual sums attempted (the base
# of the truncation ratio).
VORONOI_METRICS = [
    ("identities.voronoi.terms_used", "verify"),
    ("identities.voronoi.truncated", None),
    ("identities.voronoi.dual_sums", "verify"),
]

OVERHEAD_METRIC = "trace.overhead_s"


def layer_prefix(module: str, function: str) -> str:
    return f"{module}.{function.rsplit('.', 1)[-1]}"


def check_metric(check_name: str) -> str:
    return "check." + check_name.replace(":", ".") + ".s"


def _unit(name: str) -> str:
    return "s" if name.endswith(("self_s", ".s", "overhead_s")) else "count"


def expected_workloads() -> dict:
    """Per-layer metric name -> workload (None: no expectation), in report order."""
    out = {}
    for module, function, stats, workload in LAYERS:
        for stat in stats:
            out[f"{layer_prefix(module, function)}.{stat}"] = workload
    for name, workload in VORONOI_METRICS:
        out[name] = workload
    for check in CHECK_NAMES:
        out[check_metric(check)] = "verify"
    out[OVERHEAD_METRIC] = None
    return out


def metric_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    return {name: _unit(name) for name in expected_workloads()}


def _batch_points(result, missed):
    return {"points": len(result)}


def _sieve_points(result, missed):
    return {"points": result.bound if missed else 0}


def _voronoi_details(result, missed):
    terms = result.details["terms_used"]
    truncated = result.details["truncated"]
    attempted = [key for key, used in terms.items() if used > 0]
    return {
        "identities.voronoi.terms_used": sum(terms.values()),
        "identities.voronoi.truncated": sum(bool(truncated[key]) for key in attempted),
        "identities.voronoi.dual_sums": len(attempted),
    }


_HOOKS = {
    "transforms.voronoi_transform_batch": _batch_points,
    "lfunctions.divisor_sequence": _sieve_points,
    "identities.voronoi_step_check": _voronoi_details,
}


class Tracer:
    """Aggregated spans: calls, self time and work counts per function."""

    def __init__(self):
        self.totals: dict = defaultdict(float)
        self._child_time: list = []

    def wrap(self, prefix: str, fn):
        hook = _HOOKS.get(prefix)
        info = getattr(fn, "cache_info", None)
        totals, child_time = self.totals, self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = info().misses if info else 0
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                totals[prefix + ".calls"] += 1
                totals[prefix + ".self_s"] += elapsed - nested
            missed = bool(info) and info().misses > misses
            totals[prefix + ".misses"] += missed
            if hook is not None:
                for key, value in hook(result, missed).items():
                    name = key if "." in key else f"{prefix}.{key}"
                    totals[name] += value
            return result

        if info is not None:
            traced.cache_info = info
            traced.cache_clear = fn.cache_clear
        return traced

    def time_check(self, check_name: str, fn):
        """Inclusive wall time of a Check thunk; not part of self-time accounting."""
        totals, name = self.totals, check_metric(check_name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - start

        return timed

    def metrics(self) -> dict:
        return {name: float(self.totals.get(name, 0.0)) for name in metric_units()}


def install(package) -> Tracer:
    """Wrap every LAYERS function of an imported deltasums package."""
    tracer = Tracer()
    namespaces = [package] + [
        mod for name, mod in sys.modules.items() if name.startswith(package.__name__ + ".")
    ]
    for module, function, _, _ in LAYERS:
        home = sys.modules[f"{package.__name__}.{module}"]
        prefix = layer_prefix(module, function)
        if "." in function:
            cls_name, method = function.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(prefix, getattr(cls, method)))
            continue
        original = getattr(home, function)
        traced = tracer.wrap(prefix, original)
        for namespace in namespaces:
            if getattr(namespace, function, None) is original:
                setattr(namespace, function, traced)
    return tracer
