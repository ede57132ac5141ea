import copy
import dataclasses
import struct
import zlib

import numpy as np
import pytest

from asmfit.profiles import ProfileStats
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.svm import LinearSvmModel, SvmTrainConfig
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


def planted(model, **values):
    """A copy of a frozen model with values set unchecked, as another writer
    could have stored them."""
    clone = copy.copy(model)
    for name, value in values.items():
        object.__setattr__(clone, name, value)
    return clone


def with_fit_default(bundle, name, value):
    """The bundle with one fit_defaults value planted unchecked."""
    return dataclasses.replace(bundle, fit_defaults=planted(bundle.fit_defaults, **{name: value}))


def stacked_stats(stats):
    """Single-landmark ProfileStats of one dim and rank as one stack."""
    return ProfileStats(np.stack([st.mean for st in stats]),
                        basis=np.stack([st.basis for st in stats]),
                        lam=np.stack([st.lam for st in stats]),
                        rho=np.array([st.rho for st in stats]))


def stacked_svms(models):
    """Single-landmark LinearSvmModels of one dim as one stack."""
    return LinearSvmModel(np.stack([m.weights for m in models]),
                          np.array([m.bias for m in models]))
