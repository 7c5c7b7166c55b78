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

Each kind is one entry of the ``_KINDS`` table: its parameter and range,
g with its analytic g' and g'', and the closed-form breakpoint a0 of the
thresholding solver.  The public functions are lookups into that table
through one domain check.  They accept scalars or numpy arrays and are
pure, so specs can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._inputs import number, read_object, real

__all__ = ["SurrogateKind", "SurrogateSpec", "eval_g", "grad_g", "second_deriv_g",
           "breakpoint_a0"]


class SurrogateKind(str, Enum):
    LP = "lp"
    GEMAN = "geman"
    LAPLACE = "laplace"
    LOG = "log"
    LOGARITHM = "logarithm"
    ETP = "etp"
    IDENTITY = "identity"


@dataclass(frozen=True)
class _Kind:
    """One kind: g, g', g'' of x and a0 of lam, each taking the parameter last.

    ``rule`` is the error text when ``allowed(param)`` is false.
    """

    derivs: tuple
    a0: Callable[..., float]
    param: str | None = None
    allowed: Callable[[float], bool] | None = None
    rule: str = ""
    # g' and g'' have a pole at x = 0 (lp), so they need x > 0
    pole_at_zero: bool = False


def _positive(param, g, dg, d2g, a0) -> _Kind:
    return _Kind((g, dg, d2g), a0, param, lambda v: v > 0.0,
                 "{kind} requires {param} > 0, got {value}")


def _etp_a0(lam, gam):
    s = (1.0 - math.exp(-gam)) / (lam * gam**2)
    return -math.log(s) / gam if s < 1.0 else 0.0


_KINDS = {
    SurrogateKind.LP: _Kind(
        (lambda x, q: x ** q,
         lambda x, q: q * x ** (q - 1.0),
         lambda x, q: q * (q - 1.0) * x ** (q - 2.0)),
        lambda lam, q: (lam * q * (1.0 - q)) ** (1.0 / (2.0 - q)),
        "p", lambda q: 0.0 < q < 1.0, "lp requires 0 < p < 1, got p={value}",
        pole_at_zero=True),
    SurrogateKind.GEMAN: _positive(
        "epsilon",
        lambda x, e: x / (x + e),
        lambda x, e: e / (x + e) ** 2,
        lambda x, e: -2.0 * e / (x + e) ** 3,
        lambda lam, e: max((2.0 * lam * e) ** (1.0 / 3.0) - e, 0.0)),
    SurrogateKind.LAPLACE: _positive(
        "gamma",
        lambda x, g: 1.0 - np.exp(-x / g),
        lambda x, g: np.exp(-x / g) / g,
        lambda x, g: -np.exp(-x / g) / g**2,
        lambda lam, gam: gam * math.log(lam / gam**2) if lam > gam**2 else 0.0),
    SurrogateKind.LOG: _positive(
        "gamma",
        lambda x, g: np.log(g + x),
        lambda x, g: 1.0 / (g + x),
        lambda x, g: -1.0 / (g + x) ** 2,
        lambda lam, gam: max(math.sqrt(lam) - gam, 0.0)),
    SurrogateKind.LOGARITHM: _positive(
        "gamma",
        lambda x, g: np.log(g * x + 1.0) / math.log(g + 1.0),
        lambda x, g: g / ((g * x + 1.0) * math.log(g + 1.0)),
        lambda x, g: -(g**2) / ((g * x + 1.0) ** 2 * math.log(g + 1.0)),
        lambda lam, gam: max(math.sqrt(lam / math.log(gam + 1.0)) - 1.0 / gam, 0.0)),
    SurrogateKind.ETP: _positive(
        "gamma",
        lambda x, g: (1.0 - np.exp(-g * x)) / (1.0 - math.exp(-g)),
        lambda x, g: g * np.exp(-g * x) / (1.0 - math.exp(-g)),
        lambda x, g: -(g**2) * np.exp(-g * x) / (1.0 - math.exp(-g)),
        _etp_a0),
    SurrogateKind.IDENTITY: _Kind((lambda x: x, np.ones_like, np.zeros_like), lambda lam: 0.0),
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
        entry = _KINDS[kind]
        readers = {} if entry.param is None else {entry.param: number}
        params = read_object(self.params, f"{kind.value} parameter", readers,
                             required=tuple(readers))
        for name, val in params.items():
            if not math.isfinite(val):
                raise ValueError(f"parameter {name}={val} must be finite")
            if not entry.allowed(val):
                raise ValueError(entry.rule.format(kind=kind.value, param=name, value=val))
        object.__setattr__(self, "params", params)

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
        """Build from ``{"kind": <name>, "params": {...}}``; other keys are refused."""
        read = read_object(config, "surrogate", {"kind": SurrogateKind, "params": dict},
                           required=("kind",))
        return cls(read["kind"], read.get("params", {}))

    def to_config(self) -> dict:
        return {"kind": self.kind.value, "params": dict(self.params)}


def _lookup(spec: SurrogateSpec, x, order: int):
    """g (order 0), g' (1) or g'' (2) of the spec at x; a 0-d x gives a float."""
    x = np.asarray(x, dtype=float)
    entry = _KINDS[spec.kind]
    if order and entry.pole_at_zero:
        if np.any(x <= 0):
            noun = ("derivative", "curvature")[order - 1]
            raise ValueError(f"{spec.kind.value} {noun} is singular at 0; needs x > 0")
    elif np.any(x < 0):
        raise ValueError("surrogate derivatives are defined on x >= 0" if order
                         else "surrogates are defined on x >= 0")
    out = entry.derivs[order](x, *spec.params.values())
    return out if out.ndim else float(out)


def eval_g(spec: SurrogateSpec, x):
    """Evaluate g(x) for x >= 0 (scalar or array)."""
    return _lookup(spec, x, 0)


def grad_g(spec: SurrogateSpec, x):
    """First derivative g'(x).

    Defined for x > 0; every kind except lp is also finite at x = 0 and
    accepts it (lp has a pole there and raises).
    """
    return _lookup(spec, x, 1)


def second_deriv_g(spec: SurrogateSpec, x):
    """Second derivative g''(x), <= 0 everywhere by concavity.

    Same domain rules as :func:`grad_g`.
    """
    return _lookup(spec, x, 2)


def breakpoint_a0(g: SurrogateSpec, lam: float) -> float:
    """Largest x >= 0 with g''(x) = -1/lam, or 0 when none exists.

    |g''| is decreasing for every supported kind, so the equation has at most
    one positive root, and each kind's entry gives it in closed form.
    """
    real(lam, "lam", positive=True)
    return _KINDS[g.kind].a0(lam, *g.params.values())
