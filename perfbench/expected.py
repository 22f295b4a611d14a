"""Expected verdicts of every (scenario, suite) the workloads run.

Written from the fixtures' construction and checked at the seed commit,
where every seed tried (0, 1, 3, 7, 12345 and the benchmark's own seeds)
gives exactly these verdicts.  Each entry holds the suite's exit code (1 when
any record is not a pass) and the number of records per (check id, status),
which fixes the set of (check id, status) pairs and the record count: a
suite that drops samples fails the comparison.  Output bytes are not
compared, so a witness or detail text added later does not count as a
failure.
"""

P, F = "pass", "fail"

# status field of the reduce document
REDUCE_STATUS = "pass"

EXPECTED = {
    # 2-torus acting on C^2 at the point (3/5, 4/5, 1, 0): the base bundle has
    # one object and 4 arrows, one of them the unit.  The seed reaches none of
    # these suites.  The transfer suite gauges by a constant 2-form,
    # transfers the strong Dirac family there and back, and composes two
    # gauge equivalences.
    "torus/coisotropic": (0, {
        ("coiso.compat", P): 16,
        ("coiso.nondeg", P): 10,
        ("coiso.phi", P): 10,
        ("coiso.strong", P): 10,
    }),
    "torus/hamiltonian": (0, {
        ("ham.compat", P): 16,
        ("ham.equivalence", P): 10,
        ("ham.nondeg", P): 10,
    }),
    "torus/qs": (0, {
        ("qs.dim", P): 4,
        ("qs.lemma.item1", P): 1,
        ("qs.lemma.item2", P): 1,
        ("qs.lemma.item3", P): 1,
        ("qs.lemma.item4", P): 4,
        ("qs.multiplicative", P): 7,
        ("qs.nondeg.arrows", P): 3,
        ("qs.nondeg.units", P): 1,
        ("qs.pair.translation", P): 4,
        ("qs.translations", P): 4,
        ("qs.units", P): 1,
    }),
    "torus/transfer": (0, {
        ("composition.delta_hat", P): 16,
        ("composition.gauge", P): 10,
        ("composition.invariance", P): 10,
        ("transfer.coisotropic", P): 1,
        ("transfer.delta", P): 10,
        ("transfer.descent", P): 1,
        ("transfer.roundtrip", P): 1,
        ("transfer.step1", P): 10,
        ("transfer.strong", P): 1,
        ("transfer.symplectic_morita", P): 1,
    }),
    # Circle acting on C^2 at level 1/2.  The reduce entry compares every
    # sampled product point (20) against reduced_form_oracle; its document
    # must also say status: pass.
    "circle-n2/coisotropic": (0, {
        ("coiso.compat", P): 148,
        ("coiso.nondeg", P): 82,
        ("coiso.phi", P): 82,
        ("coiso.strong", P): 82,
    }),
    "circle-n2/hamiltonian": (0, {
        ("ham.compat", P): 144,
        ("ham.equivalence", P): 81,
        ("ham.nondeg", P): 81,
    }),
    "circle-n2/homotopy": (0, {
        ("homotopy.inverse", P): 8,
        ("homotopy.prop.algebroid", P): 8,
        ("homotopy.prop.tangent", P): 8,
        ("homotopy.sigma_ad", P): 8,
        ("homotopy.structure", P): 8,
        ("homotopy.theta_form", P): 8,
    }),
    "circle-n2/intersection": (0, {
        ("exact.dimension", P): 20,
        ("exact.free_implies_transverse", P): 20,
        ("exact.into_rann", P): 20,
        ("exact.left", P): 20,
        ("exact.middle", P): 20,
        ("exact.rann", P): 20,
        ("exact.strong_output", P): 20,
        ("exact.well_defined", P): 20,
        ("strong.clean.L", P): 1,
        ("strong.clean.R", P): 1,
        ("strong.coisotropic", P): 1,
        ("strong.zero_shifted_poisson", P): 1,
    }),
    "circle-n2/qs": (0, {
        ("qs.dim", P): 4,
        ("qs.lemma.item1", P): 1,
        ("qs.lemma.item2", P): 1,
        ("qs.lemma.item3", P): 1,
        ("qs.lemma.item4", P): 4,
        ("qs.multiplicative", P): 9,
        ("qs.nondeg.arrows", P): 3,
        ("qs.nondeg.units", P): 1,
        ("qs.pair.translation", P): 4,
        ("qs.translations", P): 4,
        ("qs.units", P): 1,
    }),
    "circle-n2/reduce": (0, {
        ("reduction.exact_sequence", P): 1,
        ("reduction.intersection", P): 1,
        ("reduction.oracle", P): 20,
        ("reduction.transfer", P): 1,
    }),
    # Pair groupoid of (Q^2, omega) on 4 objects (the default 8 objects is
    # clamped to 4): 16 arrows, 4 of them units, 44 sampled composable
    # pairs.  Lemma items 1-3 are per object, dim/translations/item 4 per
    # arrow.
    "pair/adjoint": (0, {
        ("adjoint.defect", P): 44,
        ("adjoint.defect.tangent", P): 44,
        ("sigma_ad.arrow", P): 16,
    }),
    "pair/coisotropic": (0, {
        ("chain_map.image_in_L", P): 1,
        ("chain_map.middle_iso_iff_surjective", P): 1,
        ("chain_map.quasi_iso_iff_bijective", P): 1,
        ("chain_map.squares", P): 1,
        ("coiso.compat", P): 16,
        ("coiso.nondeg", P): 4,
        ("coiso.phi", P): 4,
    }),
    "pair/induced": (0, {
        ("induced.clean", P): 1,
        ("induced.zero_shifted_poisson", P): 1,
    }),
    "pair/qs": (0, {
        ("qs.dim", P): 16,
        ("qs.lemma.item1", P): 4,
        ("qs.lemma.item2", P): 4,
        ("qs.lemma.item3", P): 4,
        ("qs.lemma.item4", P): 16,
        ("qs.multiplicative", P): 44,
        ("qs.nondeg.arrows", P): 12,
        ("qs.nondeg.units", P): 4,
        ("qs.pair.translation", P): 20,
        ("qs.translations", P): 16,
        ("qs.units", P): 4,
    }),
    # Negative fixture: one sign flipped in sigma at object 0, so item 1
    # and item 3 fail there and item 4 fails on the 7 arrows touching
    # object 0 (4 out + 4 in - 1 unit); everything else still passes.
    "pair-corrupt-sigma/qs": (1, {
        ("qs.dim", P): 16,
        ("qs.lemma.item1", F): 1,
        ("qs.lemma.item1", P): 3,
        ("qs.lemma.item2", P): 4,
        ("qs.lemma.item3", F): 1,
        ("qs.lemma.item3", P): 3,
        ("qs.lemma.item4", F): 7,
        ("qs.lemma.item4", P): 9,
        ("qs.multiplicative", P): 44,
        ("qs.nondeg.arrows", P): 12,
        ("qs.nondeg.units", P): 4,
        ("qs.pair.translation", P): 20,
        ("qs.translations", P): 16,
        ("qs.units", P): 4,
    }),
    # Circle acting on C^1 at the default level 1/2.
    "circle-n1/coisotropic": (0, {
        ("coiso.compat", P): 48,
        ("coiso.nondeg", P): 20,
        ("coiso.phi", P): 20,
        ("coiso.strong", P): 20,
    }),
    "circle-n1/hamiltonian": (0, {
        ("ham.compat", P): 44,
        ("ham.equivalence", P): 19,
        ("ham.nondeg", P): 19,
    }),
    "circle-n1/homotopy": (0, {
        ("homotopy.inverse", P): 8,
        ("homotopy.prop.algebroid", P): 8,
        ("homotopy.prop.tangent", P): 8,
        ("homotopy.sigma_ad", P): 8,
        ("homotopy.structure", P): 8,
        ("homotopy.theta_form", P): 8,
    }),
    "circle-n1/intersection": (0, {
        ("exact.dimension", P): 16,
        ("exact.free_implies_transverse", P): 16,
        ("exact.into_rann", P): 16,
        ("exact.left", P): 16,
        ("exact.middle", P): 16,
        ("exact.rann", P): 16,
        ("exact.strong_output", P): 16,
        ("exact.well_defined", P): 16,
        ("strong.clean.L", P): 1,
        ("strong.clean.R", P): 1,
        ("strong.coisotropic", P): 1,
        ("strong.zero_shifted_poisson", P): 1,
    }),
    "circle-n1/qs": (0, {
        ("qs.dim", P): 4,
        ("qs.lemma.item1", P): 1,
        ("qs.lemma.item2", P): 1,
        ("qs.lemma.item3", P): 1,
        ("qs.lemma.item4", P): 4,
        ("qs.multiplicative", P): 9,
        ("qs.nondeg.arrows", P): 3,
        ("qs.nondeg.units", P): 1,
        ("qs.pair.translation", P): 4,
        ("qs.translations", P): 4,
        ("qs.units", P): 1,
    }),
    # Polynomial frames: involutivity of each of the 3 frame pairs, checked
    # at 20 seeded sample points.  twist-mismatch is the negative fixture:
    # every pair fails.
    "so3/dorfman": (0, {
        ("dorfman.involutivity.pair01", P): 1,
        ("dorfman.involutivity.pair02", P): 1,
        ("dorfman.involutivity.pair12", P): 1,
    }),
    "graph-twist/dorfman": (0, {
        ("dorfman.involutivity.pair01", P): 1,
        ("dorfman.involutivity.pair02", P): 1,
        ("dorfman.involutivity.pair12", P): 1,
    }),
    "twist-mismatch/dorfman": (1, {
        ("dorfman.involutivity.pair01", F): 1,
        ("dorfman.involutivity.pair02", F): 1,
        ("dorfman.involutivity.pair12", F): 1,
    }),
    # The plane bivector x d/dx ^ d/dy pulled back to a line: the rank
    # jump at the origin must be detected.
    "line-bivector/line": (0, {
        ("line.pullback.at_one", P): 1,
        ("line.pullback.at_zero", P): 1,
        ("line.rank_jump.detected", P): 1,
    }),
}
