import numpy as np
import pytest

from eegid import svm


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_recording(data, fs=128.0, subject="S000", dataset="test",
                   condition="resting", names=None):
    """A recording as `synth.synthetic_corpus` gives one: a manifest entry's
    keys, with its samples under `data` in place of a path."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if names is None:
        names = tuple(f"CH{i:02d}" for i in range(data.shape[0]))
    return {"data": data, "sampling_rate_hz": fs, "channel_names": tuple(names),
            "subject_id": subject, "dataset_id": dataset, "condition": condition}


def train_grid(x, labels, grid):
    """{params: model} of one svm.train_ovr fold over every row of x."""
    [models] = svm.train_ovr(x, labels, [(np.arange(len(labels)), grid)])
    return models


def train_one(x, labels, params):
    """The one-vs-rest model of one grid point, trained on every row of x."""
    return train_grid(x, labels, (params,))[params]
