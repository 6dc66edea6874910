import json
import random

import pytest

from dyndeg.degrees import VerdictStatus
from dyndeg.suite import (
    distinctness_inheritance_property,
    minor_multiplicativity_property,
    mixed_extreme_identity_property,
    pairing_monotonicity_property,
    run_suite,
    spectral_product_formula_property,
    summed_sequence_convergence_property,
)

EXPECTED_NAMES = {
    "spectral-product-formula",
    "minor-multiplicativity",
    "mixed-extreme-identity",
    "pairing-monotonicity",
    "summed-sequence-convergence",
    "distinctness-inheritance",
}


class TestRunSuite:
    def test_default_seed_passes(self):
        report = run_suite(seed=0)
        assert report.passed
        assert {v.name for v in report.verdicts} == EXPECTED_NAMES

    def test_second_seed_passes(self):
        assert run_suite(seed=7).passed

    def test_short_horizon_is_inconclusive_not_failed(self):
        report = run_suite(seed=0, n_max=5)
        assert not report.passed
        assert report.status is VerdictStatus.INCONCLUSIVE
        statuses = {v.name: v.status for v in report.verdicts}
        assert statuses["summed-sequence-convergence"] is VerdictStatus.INCONCLUSIVE

    def test_deterministic_for_fixed_seed(self):
        a = json.dumps(run_suite(seed=3, n_max=20).to_dict(), sort_keys=True)
        b = json.dumps(run_suite(seed=3, n_max=20).to_dict(), sort_keys=True)
        assert a == b

    def test_report_dict_is_json_serializable(self):
        report = run_suite(seed=1, n_max=12)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["seed"] == 1
        assert len(payload["verdicts"]) == 6


class TestIndividualProperties:
    def test_spectral_product_formula(self):
        v = spectral_product_formula_property(random.Random(11))
        assert v.status is VerdictStatus.PASS

    def test_minor_multiplicativity(self):
        v = minor_multiplicativity_property(random.Random(11))
        assert v.status is VerdictStatus.PASS

    def test_mixed_extreme_identity(self):
        v = mixed_extreme_identity_property(random.Random(11))
        assert v.status is VerdictStatus.PASS

    def test_pairing_monotonicity(self):
        v = pairing_monotonicity_property(random.Random(11))
        assert v.status is VerdictStatus.PASS

    def test_summed_sequence_convergence(self):
        v = summed_sequence_convergence_property(random.Random(11), n_max=40, tol=5e-2)
        assert v.status is VerdictStatus.PASS
        for row in v.rows:
            assert row["status"] == "PASS"

    def test_distinctness_inheritance(self):
        v = distinctness_inheritance_property(random.Random(11))
        assert v.status is VerdictStatus.PASS
