import importlib
import random
import warnings

import pytest

from qcf.forms import (
    all_ones_alpha_incidence,
    all_ones_alpha_path,
    balanced_space_bruteforce,
    form_from_incidence_params,
    form_from_path_params,
    incidence_form_params,
    path_form_params,
)
from qcf.rand import random_incidence_subcoalgebra, random_path_subcoalgebra


def pytest_runtest_makereport(item, call):
    """Import the module hypothesis reports a failing example with, before
    hypothesis does, with its DeprecationWarning ignored: it imports libcst,
    whose use of `mypy_extensions.TypedDict` warns, and under `-W error`
    that warning raised inside hypothesis' report hook ends the session. It
    is imported only once a hypothesis test has failed, so a passing session
    does not pay for it."""
    if call.excinfo is not None and hasattr(item, "_hypothesis_failing_examples"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                importlib.import_module("hypothesis.extra._patching")
            except ImportError:  # hypothesis then writes no patch either
                pass


PATH_SWEEP_SEED = 0xC0A16
INCIDENCE_SWEEP_SEED = 0x1DEA5
PATH_SWEEP_SIZE = 200
INCIDENCE_SWEEP_SIZE = 200


@pytest.fixture(scope="session")
def path_instances():
    """Random path subcoalgebras with their form parameterization and the
    brute-force solution space, shared across the acceptance criteria."""
    rng = random.Random(PATH_SWEEP_SEED)
    out = []
    for _ in range(PATH_SWEEP_SIZE):
        coalg = random_path_subcoalgebra(rng)
        params = path_form_params(coalg)
        space = balanced_space_bruteforce(coalg)
        ones = form_from_path_params(coalg, params, all_ones_alpha_path(params))
        out.append((coalg, params, space, ones))
    return out


@pytest.fixture(scope="session")
def incidence_instances():
    rng = random.Random(INCIDENCE_SWEEP_SEED)
    out = []
    for _ in range(INCIDENCE_SWEEP_SIZE):
        coalg = random_incidence_subcoalgebra(rng)
        params = incidence_form_params(coalg)
        space = balanced_space_bruteforce(coalg)
        ones = form_from_incidence_params(coalg, params, all_ones_alpha_incidence(params))
        out.append((coalg, params, space, ones))
    return out
