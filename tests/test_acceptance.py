"""Acceptance suite: twelve numbered end-to-end criteria.

Each criterion runs its properties from ``bergman11.verification.REGISTRY``
with the criterion's seed and recipe, prints one pass/fail line per check
with the measured margin, and asserts that every check passed.  Everything is
seeded, so reruns are bit-identical.
"""

import numpy as np

from bergman11.verification import REGISTRY, RunConfig, run_property


def criterion(num, label):
    def test():
        checks = []
        for prop in REGISTRY:
            crit = prop.criterion
            if crit is not None and crit.number == num:
                checks += run_property(prop, RunConfig(seed=crit.seed), np.random.default_rng(crit.seed), crit.recipe)
        assert checks, f"criterion {num} maps to no property"
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"criterion {num:02d} {label}: {status} (margin {c.margin:.3e}, tolerance {c.tolerance:g}) {c.name}")
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    return test


test_criterion_01_oracle_equivalence = criterion(1, "oracle equivalence")
test_criterion_02_reproducing_identity = criterion(2, "reproducing identity")
test_criterion_03_derived_representation_consistency = criterion(3, "derived representation order")
test_criterion_04_skew_symmetry_and_commutators = criterion(4, "skew symmetry and commutators")
test_criterion_05_classification_iff = criterion(5, "classification iff hermitian")
test_criterion_06_tridiagonal_formula = criterion(6, "tridiagonal formula")
test_criterion_07_norm_sandwich = criterion(7, "norm sandwich")
test_criterion_08_uncertainty_inequality = criterion(8, "uncertainty inequality")
test_criterion_09_no_scalar_commutators = criterion(9, "no scalar commutators")
test_criterion_10_shift_isomorphism = criterion(10, "shift isomorphism frame")
test_criterion_11_kernel_shift_constant = criterion(11, "kernel shift constant")
test_criterion_12_unitarity_and_homomorphism = criterion(12, "unitarity and homomorphism")
