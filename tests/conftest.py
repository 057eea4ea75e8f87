"""Shared fixtures for the test suite.

The expensive artefacts (a trained tiny CNN, its quantized counterpart and
the ATAMAN pipeline outputs) are built once per session on a small synthetic
dataset; they are deliberately small so the whole suite stays fast while
still exercising every pipeline stage end to end.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

import numpy as np
import pytest

from repro.core import ActivationCalibrator, AtamanPipeline, DSEConfig, compute_significance, unpack_model
from repro.data import SyntheticCifarConfig, SyntheticCifar10, train_val_test_split
from repro.models import build_tiny_cnn
from repro.nn import Adam, Trainer
from repro.quant import quantize_model


@pytest.fixture(scope="session")
def rng():
    """A deterministic NumPy generator for ad-hoc random data."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """A small synthetic CIFAR-like dataset (600 images, 16 px to stay fast)."""
    config = SyntheticCifarConfig(image_size=16, noise_std=0.25, occlusion_prob=0.3, label_noise=0.05, seed=3)
    return SyntheticCifar10(config).generate(600, seed=3)


@pytest.fixture(scope="session")
def small_split(small_dataset):
    """Train/test/calibration split of the small dataset."""
    return train_val_test_split(small_dataset, val_fraction=0.1, test_fraction=0.2, calibration_size=64, rng=0)


@pytest.fixture(scope="session")
def trained_tiny_model(small_split):
    """A tiny CNN trained for a few epochs on the small dataset."""
    model = build_tiny_cnn(input_shape=small_split.train.image_shape, n_classes=10, rng=1)
    trainer = Trainer(model, Adam(model.parameters(), lr=2e-3), rng=5)
    trainer.fit(small_split.train.images, small_split.train.labels, epochs=4, batch_size=32)
    model.eval()
    return model


@pytest.fixture(scope="session")
def tiny_qmodel(trained_tiny_model, small_split):
    """The int8 quantized counterpart of the trained tiny model."""
    return quantize_model(trained_tiny_model, small_split.calibration.images, name="tiny_cnn")


@pytest.fixture(scope="session")
def tiny_unpacked(tiny_qmodel):
    """Unpacked conv layers of the tiny quantized model."""
    return unpack_model(tiny_qmodel)


@pytest.fixture(scope="session")
def tiny_calibration(tiny_qmodel, small_split):
    """Activation calibration statistics of the tiny quantized model."""
    return ActivationCalibrator(tiny_qmodel).calibrate(small_split.calibration.images)


@pytest.fixture(scope="session")
def tiny_significance(tiny_qmodel, tiny_calibration):
    """Significance matrices of the tiny quantized model."""
    return compute_significance(tiny_qmodel, tiny_calibration)


@pytest.fixture(scope="session")
def tiny_pipeline_result(tiny_qmodel, small_split):
    """Full ATAMAN pipeline result on the tiny model (small DSE)."""
    pipeline = AtamanPipeline(tiny_qmodel)
    return pipeline.run(
        small_split.calibration.images,
        small_split.test.images[:96],
        small_split.test.labels[:96],
        dse_config=DSEConfig(tau_values=[0.0, 0.01, 0.05, 0.1]),
    )


@pytest.fixture(scope="session")
def keep_alive_median_ms(small_split):
    """Time sequential ``POST /predict`` calls that share one connection.

    Returns ``measure(host, port, n=20) -> median ms``.  ``measure`` asserts
    that every answer is a 200 with one class and that every request reused
    the first one's socket (the server kept the connection alive).
    """
    body = json.dumps({"inputs": small_split.test.images[0].tolist()}).encode("utf-8")

    def measure(host: str, port: int, n: int = 20) -> float:
        connection = http.client.HTTPConnection(host, port, timeout=30)
        elapsed_ms = []
        try:
            connection.connect()
            sock = connection.sock
            for _ in range(n):
                started = time.perf_counter()
                connection.request(
                    "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                elapsed_ms.append((time.perf_counter() - started) * 1e3)
                assert response.status == 200 and len(payload["classes"]) == 1
                assert connection.sock is sock, "the server closed the keep-alive connection"
        finally:
            connection.close()
        return statistics.median(elapsed_ms)

    return measure
