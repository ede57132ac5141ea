import contextlib
import copy
import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, settings, strategies

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
    bundle, accuracy = train_bundle(
        faces96[:6], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=30)
    )
    return bundle, accuracy, faces96


# Scheme specs that are not a list of [name, count, topology] lists: the
# whole spec, or its entry 1, has another form. Each names the scheme.
MALFORMED_SCHEMES = {
    "int": 3, "string": "face", "object": {"groups": []}, "null": None,
    "short-entry": [["face", 5, "open"], ["nose", 5]],
    "long-entry": [["face", 5, "open"], ["nose", 5, "open", 1]],
    "string-entry": [["face", 5, "open"], "nose"], "int-entry": [["face", 5, "open"], 5],
}


# Drawn examples are derandomized, so every run draws the same ones.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@strategies.composite
def owner_counts(draw, equal: bool) -> list:
    """Row counts of k landmarks for an owner array. Equal counts are the
    case a scorer runs as one stacked matmul, k = 1 and no rows at all
    included; unequal ones the case it runs one matmul per block, with
    landmarks that own no rows and one landmark that owns every row."""
    if equal:
        return [draw(strategies.integers(0, 9))] * draw(strategies.integers(1, 6))
    k = draw(strategies.integers(2, 6))
    one_owner = draw(strategies.booleans())
    if one_owner:
        counts = [0] * k
        counts[draw(strategies.integers(0, k - 1))] = draw(strategies.integers(1, 12))
    else:
        counts = draw(strategies.lists(strategies.integers(0, 12), min_size=k, max_size=k))
        assume(len(set(counts)) > 1)
    return counts


@contextlib.contextmanager
def matmul_operands():
    """Shapes of the first operand of every np.matmul call made in the block,
    in call order: the stacked branch of owner_matmul makes one (k, c, a)
    call per product, the block branch one (c_j, a) call per landmark."""
    shapes, real = [], np.matmul

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    np.matmul = recording
    try:
        yield shapes
    finally:
        np.matmul = real


def owner_products(counts, widths) -> list:
    """The matmul_operands an owner-form scorer call records for these
    landmark row counts, one product per operand width: one stacked call
    each when every count is equal, one call per block otherwise."""
    if len(set(counts)) == 1:
        return [(len(counts), counts[0], a) for a in widths]
    return [(c, a) for a in widths for c in counts]


# Calls outside a scorer's two forms: a stacked model without an owner, one
# landmark's model with one, 1-D rows and a (k, c, d) stack of rows.
ARITY_CASES = ("stacked-no-owner", "unstacked-with-owner", "unstacked-1d-rows",
               "stacked-1d-rows", "unstacked-kcd-rows", "stacked-kcd-rows",
               "stacked-kcd-rows-with-owner")


def arity_call(case, stack, one, d):
    """(model, rows, owner) of the ARITY_CASES call named case, for a stack
    of 3 landmarks and one landmark's model, both of dim d."""
    rows = np.random.default_rng(6).normal(0.3, 0.1, (6, d))
    owner = np.repeat(np.arange(3), 2)
    return {"stacked-no-owner": (stack, rows, None),
            "unstacked-with-owner": (one, rows, owner),
            "unstacked-1d-rows": (one, rows[0], None),
            "stacked-1d-rows": (stack, rows[0], np.array([0])),
            "unstacked-kcd-rows": (one, rows.reshape(3, 2, d), None),
            "stacked-kcd-rows": (stack, rows.reshape(3, 2, d), None),
            "stacked-kcd-rows-with-owner": (stack, rows.reshape(3, 2, d), owner)}[case]


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
