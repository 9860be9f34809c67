"""Per-layer metrics: the layerchain callables the traced run wraps, and how
their spans and return values become the metrics named in BENCHMARK.json.

Each callable is wrapped at the name its caller looks up: the workloads
call ``monotonicity.verify_conjecture``, ``kernels.build_reduced_kernel``,
``analysis.stationary_distribution`` and ``montecarlo.connection_estimates``
through module attributes, the library's own modules look up their
imports as module globals, and methods are looked up on their class.  A ``*_s`` metric is the inclusive time of its
spans; ``monotonicity.connection_self_s`` is the self time of
``verify_conjecture``: the bridge weight table and the connection-drop
bookkeeping, outside every wrapped callee.  A layer the workload does not
exercise reports 0.
"""

from __future__ import annotations

from layerchain import algebra, analysis, kernels, monotonicity, montecarlo

from spans import Target, Totals, Tracer

UNITS = {
    "kernels.build_s": "s",
    "kernels.core_states": "count",
    "kernels.lumped_states": "count",
    "kernels.matmul_calls": "count",
    "kernels.matmul_s": "s",
    "kernels.tables_s": "s",
    "algebra.certify_calls": "count",
    "algebra.certify_s": "s",
    "algebra.certify_changes_sign": "count",
    "algebra.poly_dot_calls": "count",
    "algebra.poly_dot_s": "s",
    "algebra.exact_div_calls": "count",
    "algebra.exact_div_s": "s",
    "algebra.gcd_calls": "count",
    "algebra.gcd_s": "s",
    "analysis.stationary_s": "s",
    "analysis.normalizer_degree_max": "degree",
    "analysis.coeff_bits_max": "bits",
    "monotonicity.matrix_onset_s": "s",
    "monotonicity.matrix_step": "step",
    "monotonicity.vector_onset_s": "s",
    "monotonicity.onset": "step",
    "monotonicity.connection_self_s": "s",
    "monotonicity.cert_unique_ratio": "ratio",
    "montecarlo.estimate_s": "s",
    "montecarlo.descent_layers_mean": "layers",
    "setup.import_montecarlo_s": "s",
    "trace.overhead_frac": "ratio",
}


def _coefficient_bits(vector) -> int:
    return max(
        abs(c).bit_length() for e in (*vector.entries, vector.normalizer) for c in e.coeffs
    )


def _certificate_count(certificate) -> int:
    """Sign certificates in a conjecture certificate artifact."""
    onset = certificate.onset_certificate
    rows = list(certificate.connection_certificates)
    if onset is not None:
        rows += onset.step_certificates + onset.matrix_certificates
    return sum(len(row) for row in rows)


def _size(matrix) -> int:
    return matrix.size


def _stationary(vector) -> tuple[int, int]:
    return vector.normalizer.degree, _coefficient_bits(vector)


def targets() -> list[Target]:
    return [
        Target(kernels, "build_reduced_kernel", "kernels.build_reduced", _size),
        Target(monotonicity, "build_reduced_kernel", "kernels.build_reduced", _size),
        Target(monotonicity, "build_lumped_kernel", "kernels.build_lumped", _size),
        Target(kernels.PolyMatrix, "__matmul__", "kernels.matmul"),
        Target(montecarlo, "successor_table", "kernels.tables"),
        Target(montecarlo, "bridge_reach_table", "kernels.tables"),
        Target(monotonicity, "certify_sign", "algebra.certify_sign", lambda c: c.verdict),
        Target(monotonicity, "poly_dot", "algebra.poly_dot"),
        Target(algebra.Polynomial, "exact_div", "algebra.exact_div"),
        Target(analysis, "poly_gcd", "algebra.poly_gcd"),
        Target(analysis, "stationary_distribution", "analysis.stationary", _stationary),
        Target(monotonicity, "stationary_distribution", "analysis.stationary", _stationary),
        Target(monotonicity, "matrix_onset", "monotonicity.matrix_onset", lambda r: r[0]),
        Target(monotonicity, "vector_onset", "monotonicity.vector_onset", lambda c: c.onset),
        Target(monotonicity, "verify_conjecture", "monotonicity.verify", _certificate_count),
        Target(montecarlo, "connection_estimates", "montecarlo.estimate"),
    ]


def metrics(
    tracer: Tracer, overhead_frac: float, import_montecarlo_s: float, descent_mean: float
) -> dict[str, float]:
    totals = tracer.totals()
    observed = tracer.observed

    def span(name: str) -> Totals:
        return totals.get(name, Totals(0, 0.0, 0.0))

    stationary = observed["analysis.stationary"]
    certificates = sum(observed["monotonicity.verify"])
    certify = span("algebra.certify_sign")
    return {
        "kernels.build_s": span("kernels.build_reduced").total_s
        + span("kernels.build_lumped").total_s,
        "kernels.core_states": max(observed["kernels.build_reduced"], default=0),
        "kernels.lumped_states": max(observed["kernels.build_lumped"], default=0),
        "kernels.matmul_calls": span("kernels.matmul").calls,
        "kernels.matmul_s": span("kernels.matmul").total_s,
        "kernels.tables_s": span("kernels.tables").total_s,
        "algebra.certify_calls": certify.calls,
        "algebra.certify_s": certify.total_s,
        "algebra.certify_changes_sign": observed["algebra.certify_sign"].count(
            algebra.CHANGES_SIGN
        ),
        "algebra.poly_dot_calls": span("algebra.poly_dot").calls,
        "algebra.poly_dot_s": span("algebra.poly_dot").total_s,
        "algebra.exact_div_calls": span("algebra.exact_div").calls,
        "algebra.exact_div_s": span("algebra.exact_div").total_s,
        "algebra.gcd_calls": span("algebra.poly_gcd").calls,
        "algebra.gcd_s": span("algebra.poly_gcd").total_s,
        "analysis.stationary_s": span("analysis.stationary").total_s,
        "analysis.normalizer_degree_max": max((d for d, _ in stationary), default=0),
        "analysis.coeff_bits_max": max((b for _, b in stationary), default=0),
        "monotonicity.matrix_onset_s": span("monotonicity.matrix_onset").total_s,
        "monotonicity.matrix_step": max(observed["monotonicity.matrix_onset"], default=0),
        "monotonicity.vector_onset_s": span("monotonicity.vector_onset").total_s,
        "monotonicity.onset": max(observed["monotonicity.vector_onset"], default=0),
        "monotonicity.connection_self_s": span("monotonicity.verify").self_s,
        "monotonicity.cert_unique_ratio": certify.calls / certificates if certificates else 0.0,
        "montecarlo.estimate_s": span("montecarlo.estimate").total_s,
        "montecarlo.descent_layers_mean": descent_mean,
        "setup.import_montecarlo_s": import_montecarlo_s,
        "trace.overhead_frac": overhead_frac,
    }
