"""The functions the traced run wraps, grouped by the diraclab module (layer)
that defines them.

Each entry is a function name or ``Class.method``.  Entries in DISTINCT also
record how many distinct argument tuples they were called with, because reuse
of already computed results is plausible there.  ``linalg.max_entry_bits`` is
measured on the inputs to ``kernel``.
"""

TRACED = {
    "linalg": ["kernel", "canonicalize", "image", "preimage", "solve",
               "LinMap.__matmul__", "LinMap.apply", "Subspace.intersect"],
    "courant": ["dirac_sum", "pullback", "pushforward",
                "DiracFiber.__post_init__"],
    "groupoid": ["qs_check", "compatibility_check"],
    "coisotropic": ["is_coisotropic", "is_strong", "nondeg_assembly"],
    "intersection": ["strong_intersection", "strong_exact_sequence",
                     "induced_poisson"],
    "morita": ["transfer", "transfer_composition_check", "descend_dirac",
               "homotopy_identities", "sigma_ad_check"],
    "dorfman": ["involutivity_check"],
    "scenarios": ["run_reduction", "circle_reduction", "hamiltonian_check",
                  "build_pair_groupoid", "corrupt_sigma", "circle_scenario",
                  "circle_orbit_datum", "circle_nat_trans_fixture",
                  "torus_scenario", "build_lie_poisson_so3",
                  "graph_frame_with_twist", "mismatched_twist_frame",
                  "involutivity_points", "line_bivector_fixture"],
    "serialize": ["dumps"],
    "report": ["VerificationReport.to_json"],
    "cli": ["main"],
}

DISTINCT = {
    "linalg.kernel", "linalg.canonicalize", "linalg.image", "linalg.preimage",
    "linalg.solve",
    "courant.dirac_sum", "courant.pullback", "courant.pushforward",
    "groupoid.qs_check", "groupoid.compatibility_check",
    "coisotropic.is_coisotropic", "coisotropic.is_strong",
    "coisotropic.nondeg_assembly",
    "morita.transfer", "morita.transfer_composition_check",
    "morita.descend_dirac", "morita.homotopy_identities",
    "morita.sigma_ad_check",
}

def keys():
    """Every traced function as ``module.name``, in table order."""
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for key in keys():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        if key in DISTINCT:
            units[f"{key}.distinct_ratio"] = "ratio"
    units["linalg.max_entry_bits"] = "bits"
    for mod in TRACED:
        units[f"{mod}.self_s"] = "s"
    units["trace.untraced_verify_s"] = "s"
    units["trace.traced_verify_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units
