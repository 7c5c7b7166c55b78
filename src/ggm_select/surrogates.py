"""Concave sparsity surrogates.

Each surrogate is a scalar function g on x >= 0 that is nonnegative,
nondecreasing, and concave, used as a separable replacement for the
absolute value inside group penalties (sum of g(group norm) instead of
the plain sum of norms).  The catalogue:

    lp          x**p, 0 < p < 1
    geman       x / (x + epsilon)
    laplace     1 - exp(-x / gamma)
    log         log(gamma + x)
    logarithm   log(gamma * x + 1) / log(gamma + 1)
    etp         (1 - exp(-gamma * x)) / (1 - exp(-gamma))
    identity    x   (the l1 reference; makes the group penalty the l2,1 norm)

First and second derivatives are supplied analytically, the thresholding
solver needs cheap exact g' and uses g'' for its breakpoint computation.
All functions accept scalars or numpy arrays and are pure, so specs can be
shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["SurrogateKind", "SurrogateSpec", "eval_g", "grad_g", "second_deriv_g"]


class SurrogateKind(str, Enum):
    LP = "lp"
    GEMAN = "geman"
    LAPLACE = "laplace"
    LOG = "log"
    LOGARITHM = "logarithm"
    ETP = "etp"
    IDENTITY = "identity"


_REQUIRED_PARAMS = {
    SurrogateKind.LP: ("p",),
    SurrogateKind.GEMAN: ("epsilon",),
    SurrogateKind.LAPLACE: ("gamma",),
    SurrogateKind.LOG: ("gamma",),
    SurrogateKind.LOGARITHM: ("gamma",),
    SurrogateKind.ETP: ("gamma",),
    SurrogateKind.IDENTITY: (),
}


@dataclass(frozen=True)
class SurrogateSpec:
    """A surrogate kind together with its validated parameters.

    Build via the named constructors (``SurrogateSpec.geman(0.5)``) or from a
    config mapping ``{"kind": "geman", "params": {"epsilon": 0.5}}``.
    """

    kind: SurrogateKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = SurrogateKind(self.kind)
        object.__setattr__(self, "kind", kind)
        required = _REQUIRED_PARAMS[kind]
        extra = set(self.params) - set(required)
        if extra:
            raise ValueError(f"surrogate {kind.value!r} does not take {sorted(extra)}")
        for name in required:
            if name not in self.params:
                raise ValueError(f"surrogate {kind.value!r} requires parameter {name!r}")
            val = float(self.params[name])
            if not math.isfinite(val):
                raise ValueError(f"parameter {name}={val} must be finite")
            object.__setattr__(self, "params", {**self.params, name: val})
        if kind is SurrogateKind.LP and not 0.0 < self.params["p"] < 1.0:
            raise ValueError(f"lp requires 0 < p < 1, got p={self.params['p']}")
        if kind is SurrogateKind.GEMAN and self.params["epsilon"] <= 0.0:
            raise ValueError(f"geman requires epsilon > 0, got {self.params['epsilon']}")
        if kind in (SurrogateKind.LAPLACE, SurrogateKind.LOG, SurrogateKind.LOGARITHM,
                    SurrogateKind.ETP) and self.params["gamma"] <= 0.0:
            raise ValueError(f"{kind.value} requires gamma > 0, got {self.params['gamma']}")

    @classmethod
    def lp(cls, p: float) -> "SurrogateSpec":
        return cls(SurrogateKind.LP, {"p": p})

    @classmethod
    def geman(cls, epsilon: float) -> "SurrogateSpec":
        return cls(SurrogateKind.GEMAN, {"epsilon": epsilon})

    @classmethod
    def laplace(cls, gamma: float) -> "SurrogateSpec":
        return cls(SurrogateKind.LAPLACE, {"gamma": gamma})

    @classmethod
    def log(cls, gamma: float) -> "SurrogateSpec":
        return cls(SurrogateKind.LOG, {"gamma": gamma})

    @classmethod
    def logarithm(cls, gamma: float) -> "SurrogateSpec":
        return cls(SurrogateKind.LOGARITHM, {"gamma": gamma})

    @classmethod
    def etp(cls, gamma: float) -> "SurrogateSpec":
        return cls(SurrogateKind.ETP, {"gamma": gamma})

    @classmethod
    def identity(cls) -> "SurrogateSpec":
        return cls(SurrogateKind.IDENTITY)

    @classmethod
    def from_config(cls, config: dict) -> "SurrogateSpec":
        """Build from ``{"kind": <name>, "params": {...}}``."""
        if "kind" not in config:
            raise ValueError("surrogate config needs a 'kind' key")
        return cls(SurrogateKind(config["kind"]), dict(config.get("params", {})))

    def to_config(self) -> dict:
        return {"kind": self.kind.value, "params": dict(self.params)}


def eval_g(spec: SurrogateSpec, x):
    """Evaluate g(x) for x >= 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("surrogates are defined on x >= 0")
    kind, p = spec.kind, spec.params
    if kind is SurrogateKind.LP:
        out = x ** p["p"]
    elif kind is SurrogateKind.GEMAN:
        out = x / (x + p["epsilon"])
    elif kind is SurrogateKind.LAPLACE:
        out = 1.0 - np.exp(-x / p["gamma"])
    elif kind is SurrogateKind.LOG:
        out = np.log(p["gamma"] + x)
    elif kind is SurrogateKind.LOGARITHM:
        out = np.log(p["gamma"] * x + 1.0) / math.log(p["gamma"] + 1.0)
    elif kind is SurrogateKind.ETP:
        g = p["gamma"]
        out = (1.0 - np.exp(-g * x)) / (1.0 - math.exp(-g))
    else:
        out = x
    return out if out.ndim else float(out)


def grad_g(spec: SurrogateSpec, x):
    """First derivative g'(x).

    Defined for x > 0; every kind except lp is also finite at x = 0 and
    accepts it (lp has a pole there and raises).
    """
    x = np.asarray(x, dtype=float)
    kind, p = spec.kind, spec.params
    if kind is SurrogateKind.LP:
        if np.any(x <= 0):
            raise ValueError("lp derivative is singular at 0; needs x > 0")
    elif np.any(x < 0):
        raise ValueError("surrogate derivatives are defined on x >= 0")
    if kind is SurrogateKind.LP:
        out = p["p"] * x ** (p["p"] - 1.0)
    elif kind is SurrogateKind.GEMAN:
        e = p["epsilon"]
        out = e / (x + e) ** 2
    elif kind is SurrogateKind.LAPLACE:
        g = p["gamma"]
        out = np.exp(-x / g) / g
    elif kind is SurrogateKind.LOG:
        out = 1.0 / (p["gamma"] + x)
    elif kind is SurrogateKind.LOGARITHM:
        g = p["gamma"]
        out = g / ((g * x + 1.0) * math.log(g + 1.0))
    elif kind is SurrogateKind.ETP:
        g = p["gamma"]
        out = g * np.exp(-g * x) / (1.0 - math.exp(-g))
    else:
        out = np.ones_like(x)
    return out if out.ndim else float(out)


def second_deriv_g(spec: SurrogateSpec, x):
    """Second derivative g''(x), <= 0 everywhere by concavity.

    Same domain rules as :func:`grad_g`.
    """
    x = np.asarray(x, dtype=float)
    kind, p = spec.kind, spec.params
    if kind is SurrogateKind.LP:
        if np.any(x <= 0):
            raise ValueError("lp curvature is singular at 0; needs x > 0")
    elif np.any(x < 0):
        raise ValueError("surrogate derivatives are defined on x >= 0")
    if kind is SurrogateKind.LP:
        q = p["p"]
        out = q * (q - 1.0) * x ** (q - 2.0)
    elif kind is SurrogateKind.GEMAN:
        e = p["epsilon"]
        out = -2.0 * e / (x + e) ** 3
    elif kind is SurrogateKind.LAPLACE:
        g = p["gamma"]
        out = -np.exp(-x / g) / g**2
    elif kind is SurrogateKind.LOG:
        out = -1.0 / (p["gamma"] + x) ** 2
    elif kind is SurrogateKind.LOGARITHM:
        g = p["gamma"]
        out = -(g**2) / ((g * x + 1.0) ** 2 * math.log(g + 1.0))
    elif kind is SurrogateKind.ETP:
        g = p["gamma"]
        out = -(g**2) * np.exp(-g * x) / (1.0 - math.exp(-g))
    else:
        out = np.zeros_like(x)
    return out if out.ndim else float(out)
