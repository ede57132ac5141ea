import dataclasses
import struct
import zlib

import numpy as np
import pytest

from asmfit.scheme import DEFAULT_SCHEME
from asmfit.svm import SvmTrainConfig
from asmfit.synthetic import generate_face_dataset
from asmfit.training import train_bundle


@pytest.fixture(scope="session")
def faces96():
    return generate_face_dataset(8, size=96, seed=5)


@pytest.fixture(scope="session")
def trained(faces96):
    """Small trained bundle shared by search/CLI-adjacent tests."""
    bundle, summary = train_bundle(
        faces96[:6], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=30)
    )
    return bundle, summary, faces96


def random_shape_points(rng, n, spread=20.0):
    return rng.normal(0.0, spread, (n, 2)) + rng.uniform(40, 60, 2)


def reseal(body) -> bytes:
    """Bundle bytes (without trailer) plus a freshly computed CRC32 trailer."""
    body = bytes(body)
    return body + struct.pack("<I", zlib.crc32(body))


def with_fit_default(bundle, name, value):
    """The bundle with one fit_defaults value planted unchecked, as another
    writer could have stored it."""
    config = dataclasses.replace(bundle.fit_defaults)
    object.__setattr__(config, name, value)
    return dataclasses.replace(bundle, fit_defaults=config)
