"""Filter-addressable parameter values: one flat vector plus a layout.

A model is one read-only float64 vector w (layer order, row-major filters)
and a layout splitting it into layers of equally sized filter slices.  The
filter is the unit the bidirectional mutation acts on: weight layers store
one filter per output row, bias layers the whole vector as a single filter.

A value checks its vector for finite entries once, when it takes it; each
operation is one vector expression returning a fresh value, so instances
can be shared freely across threads.  `.layers` gives read-only per-layer
views for boundary callers (JSON, attacks); `Layer` validates input arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Two parameter sets disagree structurally.

    Carries the first differing (layer index, filter index) so federation
    misconfiguration is diagnosable.
    """

    def __init__(self, layer: int, filter_index: int | None, detail: str):
        self.layer = layer
        self.filter_index = filter_index
        where = f"layer {layer}" if filter_index is None else f"layer {layer}, filter {filter_index}"
        super().__init__(f"shape mismatch at {where}: {detail}")


class NonFiniteError(ValueError):
    """A computed parameter value has a non-finite entry (overflow or NaN)."""


@dataclass(frozen=True)
class Layer:
    """One layer: a (n_filters, filter_len) float64 array plus a kind tag."""

    filters: np.ndarray
    kind: str = "weight"

    def __post_init__(self):
        arr = np.asarray(self.filters, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"layer must be 2-D (filters x scalars), got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("layer needs at least one filter with at least one scalar")
        if self.kind not in ("weight", "bias"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "bias" and arr.shape[0] != 1:
            raise ValueError("bias layers hold the whole vector as a single filter")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite value in layer")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "filters", arr)

    @property
    def n_filters(self) -> int:
        return self.filters.shape[0]

    @property
    def filter_len(self) -> int:
        return self.filters.shape[1]


class LayeredParams:
    """The federation-wide parameter unit: every scalar in `vector`, and
    (n_filters, filter_len, kind) per layer in `layout`."""

    __slots__ = ("vector", "layout")

    def __init__(self, layers: Iterable[Layer]):
        layers = tuple(layers)
        if not layers:
            raise ValueError("LayeredParams needs at least one layer")
        self._adopt(np.concatenate([l.filters.ravel() for l in layers]),
                    tuple((l.n_filters, l.filter_len, l.kind) for l in layers))

    def _adopt(self, vector: np.ndarray, layout: tuple) -> "LayeredParams":
        if not np.isfinite(vector).all():
            raise NonFiniteError("non-finite value in parameters")
        vector.flags.writeable = False
        self.vector, self.layout = vector, layout
        return self

    @property
    def layers(self) -> tuple[Layer, ...]:
        """Read-only per-layer views of the vector."""
        layers, pos = [], 0
        for nf, fl, kind in self.layout:
            layer = object.__new__(Layer)   # skip Layer's copy: the vector is checked
            object.__setattr__(layer, "filters", self.vector[pos:pos + nf * fl].reshape(nf, fl))
            object.__setattr__(layer, "kind", kind)
            layers.append(layer)
            pos += nf * fl
        return tuple(layers)

    @property
    def shape(self) -> tuple[tuple[int, int], ...]:
        return tuple((nf, fl) for nf, fl, _ in self.layout)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredParams):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.vector, other.vector)


def _wrap(vector: np.ndarray, layout: tuple) -> LayeredParams:
    """A value owning the freshly computed `vector` (checked, then frozen)."""
    return object.__new__(LayeredParams)._adopt(vector, layout)


def from_arrays(arrays: Iterable[np.ndarray], kinds: Sequence[str] | None = None) -> LayeredParams:
    arrays = list(arrays)
    if kinds is None:
        kinds = ["weight"] * len(arrays)
    return LayeredParams(tuple(Layer(a, k) for a, k in zip(arrays, kinds)))


def check_same_shape(a: LayeredParams, b: LayeredParams) -> None:
    la, lb = a.layout, b.layout
    if la == lb:
        return
    if len(la) != len(lb):
        raise ShapeMismatchError(min(len(la), len(lb)), None, f"{len(la)} vs {len(lb)} layers")
    for i, ((nfa, fla, _), (nfb, flb, _)) in enumerate(zip(la, lb)):
        if nfa != nfb:
            raise ShapeMismatchError(i, None, f"{nfa} vs {nfb} filters")
        if fla != flb:
            raise ShapeMismatchError(i, 0, f"filter length {fla} vs {flb}")


def clone_params(p: LayeredParams) -> LayeredParams:
    """Deep, value-equal copy; mutating one side never affects the other."""
    return _wrap(p.vector.copy(), p.layout)


def diff(a: LayeredParams, b: LayeredParams) -> LayeredParams:
    """Element-wise a - b."""
    check_same_shape(a, b)
    return _wrap(a.vector - b.vector, a.layout)


def add_scaled(base: LayeredParams, coef: float, delta: LayeredParams) -> LayeredParams:
    """Element-wise base + coef * delta."""
    if not math.isfinite(coef):
        raise ValueError(f"coefficient must be finite, got {coef}")
    check_same_shape(base, delta)
    return _wrap(base.vector + coef * delta.vector, base.layout)


def layer_sq_sum(v: np.ndarray, layout: tuple) -> float:
    """sum(v ** 2) as one np.sum per layer slice of v, then math.fsum: the
    summation order of sq_distance and sq_norm (bounds.csv prints 17 digits)."""
    sq, sums, pos = v ** 2, [], 0
    for nf, fl, _ in layout:
        sums.append(float(np.sum(sq[pos:pos + nf * fl])))
        pos += nf * fl
    return math.fsum(sums)


def sq_distance(a: LayeredParams, b: LayeredParams) -> float:
    """Squared Euclidean distance over all scalars."""
    check_same_shape(a, b)
    return layer_sq_sum(a.vector - b.vector, a.layout)


def sq_norm(p: LayeredParams) -> float:
    return layer_sq_sum(p.vector, p.layout)


def zeros_like(p: LayeredParams) -> LayeredParams:
    return _wrap(np.zeros_like(p.vector), p.layout)


def scale(p: LayeredParams, coef: float) -> LayeredParams:
    return _wrap(coef * p.vector, p.layout)


def as_vector(p: LayeredParams) -> np.ndarray:
    """The stored read-only vector (layer order, row-major filters)."""
    return p.vector


def from_vector(v: np.ndarray, template: LayeredParams) -> LayeredParams:
    """A copy of v laid out like template (inverse of as_vector)."""
    v = np.array(v, dtype=np.float64).reshape(-1)
    if v.size != template.vector.size:
        raise ShapeMismatchError(0, None, f"vector length {v.size} vs {template.vector.size} scalars")
    return _wrap(v, template.layout)


def to_jsonable(p: LayeredParams) -> list:
    """Layers -> filters -> scalars nested lists (full round-trip precision)."""
    return [[list(map(float, f)) for f in l.filters] for l in p.layers]


def from_jsonable(data: Sequence, kinds: Sequence[str] | None = None) -> LayeredParams:
    return from_arrays([np.asarray(layer, dtype=np.float64) for layer in data], kinds)


def dump_json(p: LayeredParams) -> str:
    return json.dumps(to_jsonable(p))


def load_json(text: str) -> LayeredParams:
    return from_jsonable(json.loads(text))
