"""A tour of the tape-based automatic differentiation engine.

Every spikedepth computation runs eagerly on numpy arrays while a tape
records one backward closure per op.  Calling backward on a scalar loss
replays the tape in reverse and accumulates gradients on the parameters.
"""
import numpy as np

from spikedepth import autodiff as ad

# --- forward + backward on a tiny expression -------------------------------
w = ad.parameter(np.array([[0.5, -1.0], [2.0, 0.25]]))
x = ad.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))

with ad.tape() as tape:
    y = ad.matmul(w, x)          # (2,2)
    z = ad.sigmoid(y)
    loss = ad.reduce_sum(ad.mul(z, z))
    tape.backward(loss)

print("loss          :", float(loss.data))
print("dloss/dw      :\n", w.grad)

# --- cross-check one coordinate against central finite differences ---------
h = 1e-6
w_plus = w.data.copy();  w_plus[0, 0] += h
w_minus = w.data.copy(); w_minus[0, 0] -= h


def loss_at(wval):
    with ad.tape():
        z = ad.sigmoid(ad.matmul(ad.tensor(wval), x))
        return float(ad.reduce_sum(ad.mul(z, z)).data)


fd = (loss_at(w_plus) - loss_at(w_minus)) / (2 * h)
print(f"fd check [0,0]: analytic={w.grad[0, 0]:.8f}  numeric={fd:.8f}")

# --- scopes name every recorded op, which the energy audit relies on --------
with ad.tape() as tape:
    with ad.scope("demo.proj"):
        out = ad.matmul(w, x)
    ad.reduce_sum(out)
print("recorded ops  :", [(e.scope, e.op) for e in tape.entries])

# --- the tape refuses to be consumed twice ----------------------------------
with ad.tape() as tape:
    loss = ad.reduce_sum(ad.mul(w, w))
    tape.backward(loss)
try:
    tape.backward(loss)
except Exception as exc:
    print("second backward ->", type(exc).__name__, "-", exc)
