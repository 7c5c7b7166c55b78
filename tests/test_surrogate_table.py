"""The surrogate table against the per-kind branches it replaced.

``surrogates`` defines each kind once, as one table entry, and looks up g,
g', g'' and the breakpoint a0 there.  The formulas were copied token for
token, so every value must equal the old ``if``/``elif`` chains bit for bit,
with the same return types and the same domain errors.  The chains are kept
below as the reference.
"""

import math

import numpy as np
import pytest

import ggm_select
from ggm_select import scalar_prox, surrogates
from ggm_select.cli import build_parser
from ggm_select.scalar_prox import solve_threshold_batch
from ggm_select.surrogates import (
    SurrogateKind,
    SurrogateSpec,
    breakpoint_a0,
    eval_g,
    grad_g,
    second_deriv_g,
)

# ------------------------------------------------------- reference branches


def _ref_eval_g(spec, x):
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


def _ref_grad_g(spec, x):
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


def _ref_second_deriv_g(spec, x):
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


def _ref_breakpoint_a0(g, lam):
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    kind, p = g.kind, g.params
    if kind is SurrogateKind.IDENTITY:
        return 0.0
    if kind is SurrogateKind.LP:
        q = p["p"]
        return (lam * q * (1.0 - q)) ** (1.0 / (2.0 - q))
    if kind is SurrogateKind.GEMAN:
        e = p["epsilon"]
        return max((2.0 * lam * e) ** (1.0 / 3.0) - e, 0.0)
    if kind is SurrogateKind.LAPLACE:
        gam = p["gamma"]
        return gam * math.log(lam / gam**2) if lam > gam**2 else 0.0
    if kind is SurrogateKind.LOG:
        return max(math.sqrt(lam) - p["gamma"], 0.0)
    if kind is SurrogateKind.LOGARITHM:
        gam = p["gamma"]
        return max(math.sqrt(lam / math.log(gam + 1.0)) - 1.0 / gam, 0.0)
    gam = p["gamma"]
    s = (1.0 - math.exp(-gam)) / (lam * gam**2)
    return -math.log(s) / gam if s < 1.0 else 0.0


# ------------------------------------------------------------------ fixtures

# lp's g' and g'' overflow to inf at x = 1e-300, in both implementations
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

SPECS = (
    [SurrogateSpec.lp(p) for p in (0.05, 0.3, 0.5, 0.8, 0.95)]
    + [SurrogateSpec.geman(e) for e in (1e-3, 0.5, 2.0, 50.0)]
    + [SurrogateSpec.laplace(g) for g in (0.1, 0.7, 2.0, 10.0)]
    + [SurrogateSpec.log(g) for g in (0.5, 1.0, 3.0)]
    + [SurrogateSpec.logarithm(g) for g in (0.5, 4.0, 20.0)]
    + [SurrogateSpec.etp(g) for g in (0.01, 0.5, 3.0, 30.0)]
    + [SurrogateSpec.identity()]
)
PAIRS = [
    (eval_g, _ref_eval_g),
    (grad_g, _ref_grad_g),
    (second_deriv_g, _ref_second_deriv_g),
]
# positive points from denormal-adjacent to large; 0 is added where defined
POSITIVE = np.concatenate([[1e-300, 1e-12, 1e-6], np.geomspace(1e-3, 1e3, 61), [1e8]])
LAMS = np.concatenate([np.geomspace(1e-4, 1e4, 41), [0.3, 1.0, 2.5]])


def _ident(spec):
    return spec.kind.value + "-" + "-".join(f"{k}{v}" for k, v in sorted(spec.params.items()))


def _same(new, ref):
    """Equal type, and equal bits (so -0.0 and 0.0 differ, and NaN equals NaN)."""
    assert type(new) is type(ref)
    new_arr, ref_arr = np.asarray(new), np.asarray(ref)
    assert new_arr.dtype == ref_arr.dtype and new_arr.shape == ref_arr.shape
    assert new_arr.tobytes() == ref_arr.tobytes()


def _points(spec, fn):
    """The grid, with x = 0 unless it is lp's derivative pole."""
    pole = spec.kind is SurrogateKind.LP and fn is not eval_g
    return POSITIVE if pole else np.concatenate([[0.0], POSITIVE])


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("spec", SPECS, ids=_ident)
@pytest.mark.parametrize("fn, ref", PAIRS, ids=["g", "dg", "d2g"])
def test_values_bit_equal_on_arrays_0d_and_floats(spec, fn, ref):
    xs = _points(spec, fn)
    _same(fn(spec, xs), ref(spec, xs))
    _same(fn(spec, xs[:60].reshape(-1, 3)), ref(spec, xs[:60].reshape(-1, 3)))
    _same(fn(spec, list(xs)), ref(spec, list(xs)))
    for x in xs:
        _same(fn(spec, float(x)), ref(spec, float(x)))
        _same(fn(spec, np.array(x)), ref(spec, np.array(x)))
        _same(fn(spec, np.float64(x)), ref(spec, np.float64(x)))
    for n in (0, 1, 7) if xs[0] == 0.0 else (1, 7):
        _same(fn(spec, n), ref(spec, n))


@pytest.mark.parametrize("spec", SPECS, ids=_ident)
@pytest.mark.parametrize("fn, ref", PAIRS, ids=["g", "dg", "d2g"])
def test_negative_input_raises_the_same_error(spec, fn, ref):
    for bad in (-1e-12, np.array([1.0, -0.5]), np.array(-3.0)):
        with pytest.raises(ValueError) as new_err:
            fn(spec, bad)
        with pytest.raises(ValueError) as ref_err:
            ref(spec, bad)
        assert str(new_err.value) == str(ref_err.value)


@pytest.mark.parametrize("fn, ref", PAIRS[1:], ids=["dg", "d2g"])
def test_lp_derivatives_at_zero_raise_the_same_error(fn, ref):
    spec = SurrogateSpec.lp(0.5)
    for bad in (0.0, np.array([0.0, 1.0]), np.array(0.0)):
        with pytest.raises(ValueError) as new_err:
            fn(spec, bad)
        with pytest.raises(ValueError) as ref_err:
            ref(spec, bad)
        assert str(new_err.value) == str(ref_err.value)
        assert "singular at 0" in str(new_err.value)


def test_lp_value_at_zero_is_defined():
    _same(eval_g(SurrogateSpec.lp(0.5), 0.0), 0.0)


@pytest.mark.parametrize("spec", SPECS, ids=_ident)
def test_breakpoint_bit_equal_over_lam_grid(spec):
    for lam in LAMS:
        _same(breakpoint_a0(spec, float(lam)), _ref_breakpoint_a0(spec, float(lam)))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_breakpoint_rejects_bad_lam_with_the_same_error(lam):
    spec = SurrogateSpec.geman(0.5)
    with pytest.raises(ValueError) as new_err:
        breakpoint_a0(spec, lam)
    with pytest.raises(ValueError) as ref_err:
        _ref_breakpoint_a0(spec, lam)
    assert str(new_err.value) == str(ref_err.value)


def test_breakpoint_is_one_function_under_every_name():
    assert scalar_prox.breakpoint_a0 is surrogates.breakpoint_a0
    assert ggm_select.breakpoint_a0 is surrogates.breakpoint_a0


@pytest.mark.parametrize("spec", SPECS, ids=_ident)
def test_threshold_batch_bit_equal_with_reference_surrogates(spec, monkeypatch):
    y = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 90)])
    ours = [solve_threshold_batch(y, lam, spec) for lam in (0.05, 0.7, 3.0)]
    monkeypatch.setattr(scalar_prox, "eval_g", _ref_eval_g)
    monkeypatch.setattr(scalar_prox, "grad_g", _ref_grad_g)
    monkeypatch.setattr(scalar_prox, "breakpoint_a0", _ref_breakpoint_a0)
    for lam, new in zip((0.05, 0.7, 3.0), ours):
        ref = solve_threshold_batch(y, lam, spec)
        for field in ("x_star", "iterations", "branch"):
            _same(getattr(new, field), getattr(ref, field))


@pytest.mark.parametrize("maker, value, text", [
    (SurrogateSpec.lp, 0.0, "lp requires 0 < p < 1, got p=0.0"),
    (SurrogateSpec.lp, 1.0, "lp requires 0 < p < 1, got p=1.0"),
    (SurrogateSpec.geman, -1, "geman requires epsilon > 0, got -1.0"),
    (SurrogateSpec.laplace, 0.0, "laplace requires gamma > 0, got 0.0"),
    (SurrogateSpec.log, -2.0, "log requires gamma > 0, got -2.0"),
    (SurrogateSpec.logarithm, 0.0, "logarithm requires gamma > 0, got 0.0"),
    (SurrogateSpec.etp, -0.5, "etp requires gamma > 0, got -0.5"),
    (SurrogateSpec.geman, math.inf, "parameter epsilon=inf must be finite"),
])
def test_parameter_range_errors_keep_their_text(maker, value, text):
    with pytest.raises(ValueError) as err:
        maker(value)
    assert str(err.value) == text


@pytest.mark.parametrize("value", ["0.5", True, None, [0.5], 10**400])
def test_parameter_must_be_a_number(value):
    with pytest.raises(ValueError, match="must be a number"):
        SurrogateSpec.geman(value)


def test_integer_parameter_is_stored_as_float():
    spec = SurrogateSpec.from_config({"kind": "geman", "params": {"epsilon": 2}})
    assert spec.params == {"epsilon": 2.0}
    assert type(spec.params["epsilon"]) is float


def test_every_kind_has_one_named_constructor():
    named = [SurrogateSpec.lp(0.5), SurrogateSpec.geman(0.5), SurrogateSpec.laplace(0.5),
             SurrogateSpec.log(0.5), SurrogateSpec.logarithm(0.5), SurrogateSpec.etp(0.5),
             SurrogateSpec.identity()]
    assert [spec.kind for spec in named] == list(SurrogateKind)


@pytest.mark.parametrize("command", ["prox", "solve"])
def test_cli_kind_choices_are_the_surrogate_kinds(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    kind = next(a for a in sub._actions if a.dest == "kind")
    assert kind.choices == [k.value for k in SurrogateKind]
