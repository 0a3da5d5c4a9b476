"""AdamW over named parameter tensors.

Weight decay is always decoupled and set per parameter group; a group
with decay 0 is updated exactly as plain Adam would. State is keyed by
parameter name so it survives a checkpoint round trip exactly.
"""

import numpy as np

from .autodiff import DTYPE, Tensor

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def clip_global_norm(tensors: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is <= max_norm.

    Returns the pre-clip norm. Tensors without gradients are skipped.
    Each gradient is rebound to a scaled copy, never written into, as two
    tensors may share a gradient array. The clip keeps no reference to
    the old gradients, so it holds at most one gradient's worth more than
    it was given, and sums the squares one tensor at a time, in order.
    """
    tensors = [t for t in tensors if t.grad is not None]
    if not tensors:
        return 0.0
    total = 0.0
    for t in tensors:
        total += float(np.sum(t.grad * t.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for t in tensors:
            t.grad = t.grad * scale
    return norm


class AdamOptimizer:
    """Adam with decoupled weight decay (AdamW).

    param_groups: list of (tensors, learning_rate, weight_decay) triples.
    Every tensor must carry a unique name; state is stored per name.

    step() drops each parameter's gradient (sets its grad to None) once
    it has built that parameter's new moments, so the step never holds
    every gradient beside both new moments: the gradients are spent, and
    the caller zeroes them after the step anyway. Each new moment is one
    new array that the step adds into, and the update is built in one
    more, so a parameter's step holds two of its sizes beside the old and
    new moments and the parameter. The arithmetic is that of
    m = BETA1 m + (1 - BETA1) g, v = BETA2 v + (1 - BETA2) g^2 and
    p - lr ((m / bc1) / (sqrt(v / bc2) + EPS) + decay p), bit for bit.
    m, v and p.data are new arrays each step, never written into after,
    so a checkpoint may share them.
    """

    def __init__(self, param_groups):
        self.groups = []
        seen = set()
        for tensors, lr, weight_decay in param_groups:
            for t in tensors:
                if t.name is None:
                    raise ValueError("optimizer parameters must be named")
                if t.name in seen:
                    raise ValueError(f"parameter appears twice: {t.name}")
                seen.add(t.name)
            self.groups.append((list(tensors), float(lr), float(weight_decay)))
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for tensors, lr, weight_decay in self.groups:
            for p in tensors:
                if p.grad is None:
                    continue
                g, p.grad = p.grad, None
                m = self._m.get(p.name)
                v = self._v.get(p.name)
                if m is None:
                    m = v = np.zeros_like(p.data)
                # each new moment is one new array, added into in place;
                # g is only read: two tensors may share a gradient array
                m_new = BETA1 * m
                m_new += (1.0 - BETA1) * g
                self._m[p.name] = m_new
                del m
                v_new = g * g
                del g
                v_new *= 1.0 - BETA2
                v_new += BETA2 * v
                self._v[p.name] = v_new
                del v
                # (m / bc1) / (sqrt(v / bc2) + EPS), plus the decay term,
                # times lr, in one buffer; the second becomes p.data
                update = np.divide(v_new, bc2)
                np.sqrt(update, out=update)
                update += EPS
                p_new = np.divide(m_new, bc1)
                np.divide(p_new, update, out=update)
                if weight_decay != 0.0:
                    update += np.multiply(p.data, weight_decay, out=p_new)
                update *= lr
                p.data = np.subtract(p.data, update, out=p_new)

    # -- checkpoint support ------------------------------------------------

    def state(self) -> dict:
        """The step count and the moments. The moments are handed over
        without a copy: step() rebinds m and v to new arrays and never
        writes into them, so a state taken earlier keeps its values."""
        arrays = {}
        for name, m in self._m.items():
            arrays[f"m/{name}"] = m
            arrays[f"v/{name}"] = self._v[name]
        return {"step_count": self.step_count, "arrays": arrays}

    def load_state(self, state: dict):
        """Restore the step count and the moments. ValueError when a moment
        names no parameter of the groups, lacks its m/ or v/ partner, has
        a shape other than its parameter's or holds a NaN or an infinity.
        A parameter may have no moments: it has had no gradient yet."""
        params = {p.name: p for tensors, _, _ in self.groups for p in tensors}
        moments = {"m": {}, "v": {}}
        for key, arr in state["arrays"].items():
            kind, _, name = key.partition("/")
            if kind not in moments:
                raise ValueError(f"unknown optimizer state key: {key}")
            if name not in params:
                raise ValueError(f"optimizer state {key} names no parameter")
            arr = np.asarray(arr, dtype=DTYPE)
            if arr.shape != params[name].data.shape:
                raise ValueError(f"shape mismatch for optimizer state {key}: checkpoint "
                                 f"{arr.shape}, model {params[name].data.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"optimizer state {key} holds non-finite values")
            moments[kind][name] = arr.copy()
        for kind, other in (("m", "v"), ("v", "m")):
            unpaired = sorted(moments[kind].keys() - moments[other].keys())
            if unpaired:
                raise ValueError(f"optimizer state has {kind}/{unpaired[0]} "
                                 f"without {other}/{unpaired[0]}")
        self.step_count = int(state["step_count"])
        self._m, self._v = moments["m"], moments["v"]
