import json
import math
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from tfqkd import decoy, model, montecarlo

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


def _batch_rule(params, link, det, n_slots, visibility=0.97):
    """Slots per run_protocol batch by its documented rule,
    max(2^20, min(n_slots, ceil(2^14 / p_avg))), with p_avg the pair-weighted
    thinning bound 1 - (1 - p1(cos delta = 1)) (1 - p2(cos delta = -1))."""
    etas = model.transmissivities(link, det)
    args = (etas["eta_a"], etas["eta_b"], det.efficiency,
            det.dark_prob_per_gate(params.clock_rate_hz), visibility)
    mu_a = params.alice.intensity_of()[:, None]
    mu_b = params.bob.intensity_of()[None, :]
    p1, _ = montecarlo.click_probs(mu_a, mu_b, 0.0, *args)
    _, p2 = montecarlo.click_probs(mu_a, mu_b, np.pi, *args)
    p_bar = 1.0 - (1.0 - p1) * (1.0 - p2)
    p_avg = params.alice.class_probs() @ p_bar @ params.bob.class_probs()
    return max(1 << 20, min(n_slots, math.ceil(2**14 / p_avg)))


@pytest.fixture(scope="session")
def batch_rule():
    return _batch_rule
