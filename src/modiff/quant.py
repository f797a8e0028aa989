"""Dynamic max-min activation quantizer.

Parameters are fit per call from the tensor's own range: the step is
s = (max - min) / (2^b - 1) and the offset z = floor(-min / s) in floor
mode (round-to-nearest in nearest mode). A caller that has already taken
a tensor's min and max passes them as `bounds`; a tensor-wise fit then
reduces nothing, and a channel fit ignores them. z is deliberately left
unclamped so that sign-definite inputs (all positive or all negative) still
reconstruct with per-element error below s; clamping z would shift the
whole tensor and break the error bound for such inputs.

A tensor-wise fit takes one (s, z) pair for the whole tensor. A channel
fit takes one pair per column of a 2-D (N, C) tensor, reducing over its
rows; any other shape is an error. Its (C,) params broadcast over the rows
as they are.

A constant slice has step s = 0 and carries no information: quantize
parks it at its zero point and dequantize returns its fitted constant.
Degenerate params alone take that np.where park. Every other call divides
once into a fresh buffer and rounds, shifts and clips it in place; the
floating-point operations and their order are those of the plain
formulas, so the results are the same bits. The clip is one
`ndarray.clip`, not `np.maximum` then `np.minimum`: numpy runs those two
ufuncs against a scalar bound in an unvectorized loop, and the method also
skips the `np.clip` function wrapper.

bits=None is the identity configuration: no quantization at all. It is
what full-precision paths use, and it makes the reformulation-exactness
checks meaningful. check_bits is the one rule for a quantized width, an
integer in 1..16, which the config, the error bound and the cost model
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensorops import Tensor, as_tensor

GRANULARITIES = ("tensor", "channel")
ROUNDINGS = ("floor", "nearest")


def _as_width(name: str, v) -> int:
    """v as a Python int, if it is an integer (ValueError otherwise). A bool or
    a float of integral value is not a width; a numpy integer is, but
    1 << v and its square would wrap in its own dtype."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _is_count(v) -> bool:
    """Whether v is a positive integer: an int, a numpy integer or a float of
    integral value, but no bool. It compares before any int(), which inf
    and nan do not have, and a non-number is no count."""
    try:
        return not isinstance(v, (bool, np.bool_)) and 1 <= v < math.inf and int(v) == v
    except TypeError:
        return False


def check_bits(bits: int) -> int:
    """The one rule for a quantized width: an integer in 1..16 (ValueError
    otherwise), returned as a Python int."""
    bits = _as_width("bits", bits)
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in 1..16, got {bits}")
    return bits


@dataclass
class QuantConfig:
    bits: int | None = 8
    granularity: str = "tensor"
    rounding: str = "floor"
    skip_threshold: float = 0.0

    def __post_init__(self):
        if self.bits is not None:
            self.bits = check_bits(self.bits)
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.rounding not in ROUNDINGS:
            raise ValueError(f"rounding must be one of {ROUNDINGS}")
        if not self.skip_threshold >= 0.0:
            raise ValueError("skip_threshold must be >= 0")

    @property
    def is_identity(self) -> bool:
        return self.bits is None


@dataclass
class QuantParams:
    """Fitted step/offset pair; (C,) channel params broadcast over (N, C) rows."""

    scale: np.ndarray       # () or (C,), >= 0; 0 marks a constant slice
    zero_point: np.ndarray  # int64, same shape as scale, unclamped
    bits: int
    min_val: np.ndarray = field(default=None, repr=False)  # fitted per-slice min

    @property
    def is_degenerate(self) -> bool:
        return not _every(self.scale != 0.0)


@dataclass
class QuantizedTensor:
    ints: np.ndarray  # int32 payload whatever the bit-width
    params: QuantParams


def _round_fn(rounding: str):
    if rounding == "floor":
        return np.floor
    if rounding == "nearest":
        return np.rint  # ties to even; odd-symmetric, which the edge analysis relies on
    raise ValueError(f"unknown rounding {rounding!r}")


def _every(mask) -> bool:
    """mask.all(), without a reduction's call overhead when mask is a scalar."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) and mask.ndim else bool(mask)


def fit_params(x: Tensor, cfg: QuantConfig, bounds: tuple | None = None) -> QuantParams:
    """Fit (scale, zero_point) from the tensor's own min/max.

    A tensor-wise fit takes them from `bounds`, x's (min, max) as the
    caller already reduced them (tensorops.value_bounds), when it is given;
    a channel fit reduces per column and ignores bounds.
    """
    if cfg.is_identity:
        raise ValueError(f"cannot fit parameters at bits={cfg.bits}")
    x = as_tensor(x)
    if x.size == 0:
        raise ValueError("cannot fit parameters on an empty tensor")
    if cfg.granularity == "channel":
        if x.ndim != 2:
            raise ValueError(f"a channel fit needs a 2-D tensor, got shape {x.shape}")
        mn, mx = x.min(axis=0), x.max(axis=0)
    else:
        mn, mx = (x.min(), x.max()) if bounds is None else bounds
        mn = np.asarray(mn)
    scale = (mx - mn) / ((1 << cfg.bits) - 1)
    rnd = _round_fn(cfg.rounding)
    positive = scale > 0.0
    if _every(positive):
        z = rnd(-mn / scale)
    else:
        z = np.where(positive, rnd(-mn / np.where(positive, scale, 1.0)), 0.0)
    return QuantParams(scale=scale, zero_point=np.asarray(z).astype(np.int64), bits=cfg.bits,
                       min_val=mn)


def quantize(x: Tensor, params: QuantParams, rounding: str = "floor") -> QuantizedTensor:
    """Map to integers: clamp(round(x / s) + z, 0, 2^b - 1)."""
    s, z = params.scale, params.zero_point
    positive = s > 0.0
    degenerate = not _every(positive)  # a constant slice, or a NaN step from a non-finite input
    v = np.divide(as_tensor(x), np.where(positive, s, 1.0) if degenerate else s)
    if not isinstance(v, np.ndarray):  # a 0-d input divides to a numpy scalar
        v = np.asarray(v)
    _round_fn(rounding)(v, out=v)
    v += z
    # one vectorized clip in place, where np.maximum/np.minimum against a
    # scalar bound loop element by element. It keeps a -0.0 that np.maximum
    # makes +0.0; the int32 cast below erases the sign of zero.
    v.clip(0, (1 << params.bits) - 1, out=v)
    if degenerate:
        # constant slices carry no information; park them at the zero point
        v = np.where(positive, v, z)
    return QuantizedTensor(ints=v.astype(np.int32), params=params)


def dequantize(q: QuantizedTensor) -> Tensor:
    """Back to reals: s * (ints - z); constant slices return the fitted value."""
    p = q.params
    out = q.ints.astype(np.float64)
    out -= p.zero_point
    out *= p.scale
    if p.is_degenerate:
        if p.min_val is None:
            raise ValueError("degenerate params without a stored constant")
        out = np.where(p.scale > 0.0, out, p.min_val)
    return out


def fake_quant(x: Tensor, cfg: QuantConfig, bounds: tuple | None = None) -> Tensor:
    """Fit (from `bounds`, as fit_params takes them), quantize, dequantize in
    one go; identity config passes through."""
    if cfg.is_identity:
        return as_tensor(x).copy()
    # fit_params and quantize each take x as it came, so an array is not copied
    return dequantize(quantize(x, fit_params(x, cfg, bounds), cfg.rounding))


def error_bound(x: Tensor, bits: int, rounding: str = "floor") -> float:
    """Worst-case squared reconstruction error for a tensor-wise fit.

    floor:   (max - min)^2 * d / (2^b - 1)^2
    nearest: a quarter of the floor bound
    """
    bits = check_bits(bits)
    x = as_tensor(x)
    rng2 = (float(np.max(x)) - float(np.min(x))) ** 2
    bound = rng2 * x.size / ((1 << bits) - 1) ** 2
    if rounding == "nearest":
        bound /= 4.0
    elif rounding != "floor":
        raise ValueError(f"unknown rounding {rounding!r}")
    return bound


def contraction_ratio(x_sq: float, err_sq: float) -> float:
    """Measured per-call contraction ||x - Q(x)||^2 / ||x||^2 (0 for a zero input).

    x_sq and err_sq are the squared norms of the input and of its
    quantization error (tensorops.sq_norm), which the caller takes once.
    """
    if x_sq == 0.0:
        return 0.0
    return err_sq / x_sq


def bits_for_contraction(d: int, c: float) -> int:
    """Smallest bit-width whose worst-case floor-mode contraction stays below c.

    Inverts the floor bound d * (range/levels)^2 <= c * ||x||^2 under the
    conservative range <= 2*||x||_inf <= 2*||x|| reading, giving
    ceil(log2(sqrt(4 d / c) + 1)), but at least 1: a loose enough c rounds
    it to 0, below the narrowest width.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"target contraction must be positive and finite, got {c}")
    return max(1, int(math.ceil(math.log2(math.sqrt(4.0 * d / c) + 1.0))))
