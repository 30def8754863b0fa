"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with `pytest -s`) and
asserts the same result. The checks live in holonomy_lab.verify so the CLI
`verify` command runs exactly the same measurements.
"""

import pytest

from holonomy_lab import verify
from holonomy_lab.tolerances import DEFAULT

CRITERIA = (
    ("1 oracle equivalence", verify.check_oracle_fidelity),
    ("2 adiabatic limit", verify.check_berry_limit),
    ("3 trivial limit", verify.check_trivial_limit),
    ("4 topological triviality sweep", verify.check_sweep_triviality),
    ("5 tilt-angle identity", verify.check_tilt_identity),
    ("6 effective-Hamiltonian diagonality", verify.check_diagonality),
    ("7 hidden-gauge invariance", verify.check_gauge_invariance),
    ("8 parallel transport", verify.check_parallel_transport),
    ("9 convergence order", verify.check_convergence_order),
    ("10 two-route agreement", verify.check_two_route),
)


@pytest.mark.slow
@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0].replace(" ", "_") for c in CRITERIA])
def test_acceptance_criterion(label, check):
    result = check(DEFAULT, False, 0)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"ACCEPTANCE {label}: {status} "
        f"(measured {result.measured:.6e}, allowed {result.threshold:.6e}) {result.detail}"
    )
    assert result.passed, f"criterion {label}: {result.detail or result.measured}"
