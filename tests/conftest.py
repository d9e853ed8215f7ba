import json
from pathlib import Path

import hypothesis
import pytest

from tfqkd import decoy, model

hypothesis.settings.register_profile("suite", deadline=None, max_examples=50)
hypothesis.settings.load_profile("suite")

DATA = Path(__file__).resolve().parents[1] / "src" / "tfqkd" / "data"
PARAMS_PATH = DATA / "field_trial_params.json"
COUNTS_PATH = DATA / "field_trial_counts.json"


@pytest.fixture(scope="session")
def bundle():
    return model.load_params_file(PARAMS_PATH)


@pytest.fixture(scope="session")
def params(bundle):
    return bundle["protocol"]


@pytest.fixture(scope="session")
def security(bundle):
    return bundle["security"]


@pytest.fixture(scope="session")
def field_counts(params):
    raw = json.loads(COUNTS_PATH.read_text())
    return decoy.DecoyCounts.from_counts_dict(raw, params)


@pytest.fixture(scope="session")
def field_detector(bundle):
    return bundle["detector"]


@pytest.fixture(scope="session")
def field_link(bundle):
    return bundle["link"]


def _batch_rule(n_slots, candidates):
    """Slots per run_protocol batch by its documented rule,
    max(2^20, min(n_slots, ceil(2^14 n_slots / candidates))), with
    candidates the run's drawn events: the phase-blind codes' clicks and
    the XX codes' thinning candidates."""
    if candidates == 0:
        return max(1 << 20, n_slots)
    return max(1 << 20, min(n_slots, -(-2**14 * n_slots // candidates)))


@pytest.fixture(scope="session")
def batch_rule():
    return _batch_rule
