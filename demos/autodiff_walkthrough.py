"""
Walk through the reverse-mode tape: record a computation, pull gradients
back, and cross-check one of them against central finite differences.

Run with  python3 demos/autodiff_walkthrough.py
"""
import numpy as np

from chunkmem.rng import make_rng
from chunkmem.tensor import GradTape, Tensor

rng = make_rng(7)

# A two-layer net on 16 points of a noisy sine, squared-error loss.
x = rng.uniform(-2, 2, size=(16, 1))
y = np.sin(x) + 0.05 * rng.normal(size=x.shape)

w1 = Tensor(rng.normal(size=(1, 8)) * 0.5)
b1 = Tensor(np.zeros(8))
w2 = Tensor(rng.normal(size=(8, 1)) * 0.5)
b2 = Tensor(np.zeros(1))
params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def loss_on_tape(tape):
    h = tape.tanh(tape.add(tape.matmul(Tensor(x), w1), b1))
    pred = tape.add(tape.matmul(h, w2), b2)
    err = tape.add(pred, Tensor(-y))
    return tape.scale(tape.reduce_sum(tape.multiply(err, err)), 1 / len(x))


tape = GradTape()
for p in params.values():
    tape.watch(p)
loss = loss_on_tape(tape)
grads = tape.backward(loss)
print(f"loss {loss.data:.4f}")
for name, p in params.items():
    g = grads[p].data
    print(f"  d loss / d {name}: shape {g.shape}, |g| {np.abs(g).max():.4f}")

# Spot-check dL/dw1[0,0] with central differences. The tape gradient and
# the numeric one should agree to ~sqrt(machine eps).
h = 1e-6
keep = w1.data[0, 0]
w1.data[0, 0] = keep + h
hi = loss_on_tape(GradTape(recording=False)).data
w1.data[0, 0] = keep - h
lo = loss_on_tape(GradTape(recording=False)).data
w1.data[0, 0] = keep
numeric = (hi - lo) / (2 * h)
analytic = grads[w1].data[0, 0]
print(f"finite difference  {numeric:.8f}")
print(f"tape gradient      {analytic:.8f}")
print(f"abs diff           {abs(numeric - analytic):.2e}")

# A few steps of plain gradient descent to show the gradients are usable.
# A tape is single-use: backward consumes it, releasing everything the ops
# saved, so each step records on a new one.
for step in range(1, 201):
    tape = GradTape()
    for p in params.values():
        tape.watch(p)
    loss = loss_on_tape(tape)
    grads = tape.backward(loss)
    for p in params.values():
        p.data -= 0.1 * grads[p].data
    if step % 50 == 0:
        print(f"step {step:3d}  loss {loss.data:.4f}")
print("done; loss should have dropped by an order of magnitude or so")
