"""Per-landmark Pegasos loop used as an independent oracle in tests.

This is the trainer as it was before landmarks were stacked: one Python
loop of seeded mini-batch subgradient steps per landmark, selecting the
margin violators of each batch by boolean compaction. The library's
stacked trainer must reproduce it to rounding for every landmark of a
stack.
"""

import numpy as np

from asmfit.errors import ClassBalanceError
from asmfit.svm import LinearSvmModel


def train_linear_svm_reference(features, labels, c_penalty=1.0, epochs=200,
                               batch_size=32, seed=0, landmark=0, level=0):
    y = np.asarray(labels, dtype=float)
    if y.size == 0 or np.all(y == y[0]):
        raise ClassBalanceError(
            f"landmark {landmark} level {level}: training set must contain both classes"
        )
    x = np.hstack([np.asarray(features, dtype=float), np.ones((y.size, 1))])
    m, d = x.shape
    lam = 1.0 / (c_penalty * m)
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    t = 0
    batch = min(batch_size, m)
    avg = np.zeros(d)
    averaged = 0
    for epoch in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, batch):
            idx = order[start:start + batch]
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[idx] * (x[idx] @ w)
            viol = margin < 1.0
            grad = lam * w - (y[idx][viol] @ x[idx][viol]) / idx.size
            w = w - eta * grad
        if epoch >= epochs // 2:
            avg += w
            averaged += 1
    w = avg / averaged
    return LinearSvmModel(w[:-1], float(w[-1]))
