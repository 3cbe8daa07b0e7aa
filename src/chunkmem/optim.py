"""Adam with bias correction, on named parameter dicts."""

from __future__ import annotations

import numpy as np

from .tensor import Gradients


class Adam:
    """Standard Adam. Moments live here, keyed like the parameter dict.

    step() takes the Gradients that backward() returns for a tape on which
    every parameter was watched, and updates the parameter arrays in place,
    so tensor identity survives across steps and the same dict can be
    re-watched on each fresh tape.
    """

    def __init__(self, params: dict, lr: float = 2e-4, beta1: float = 0.9,
                 beta2: float = 0.999):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: Gradients) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = grads[p].data
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (self.lr / c1) * m / (np.sqrt(v / c2) + 1e-8)
            p.data -= update.astype(p.data.dtype, copy=False)
