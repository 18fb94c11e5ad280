"""Layered, filter-addressable parameter containers.

A model's weights are organized as layers, each layer holding an ordered
sequence of equally sized filter slices.  The filter is the unit the
bidirectional mutation acts on: weight layers store one filter per output
row, bias layers store the whole vector as a single filter.

Values are immutable after construction (the backing arrays are marked
read-only) and every operation returns freshly allocated results, so
instances can be shared freely across threads.
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


@dataclass(frozen=True)
class LayeredParams:
    """An ordered sequence of layers; the federation-wide parameter unit."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("LayeredParams needs at least one layer")
        object.__setattr__(self, "layers", layers)

    @property
    def shape(self) -> tuple[tuple[int, int], ...]:
        return tuple((l.n_filters, l.filter_len) for l in self.layers)

    @property
    def size(self) -> int:
        return sum(l.filters.size for l in self.layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredParams):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(a.filters, b.filters) for a, b in zip(self.layers, other.layers)
        )


def from_arrays(arrays: Iterable[np.ndarray], kinds: Sequence[str] | None = None) -> LayeredParams:
    arrays = list(arrays)
    if kinds is None:
        kinds = ["weight"] * len(arrays)
    return LayeredParams(tuple(Layer(a, k) for a, k in zip(arrays, kinds)))


def check_same_shape(a: LayeredParams, b: LayeredParams) -> None:
    if len(a.layers) != len(b.layers):
        raise ShapeMismatchError(min(len(a.layers), len(b.layers)), None,
                                 f"{len(a.layers)} vs {len(b.layers)} layers")
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        if la.n_filters != lb.n_filters:
            raise ShapeMismatchError(i, None, f"{la.n_filters} vs {lb.n_filters} filters")
        if la.filter_len != lb.filter_len:
            raise ShapeMismatchError(i, 0, f"filter length {la.filter_len} vs {lb.filter_len}")


def clone_params(p: LayeredParams) -> LayeredParams:
    """Deep, value-equal copy; mutating one side never affects the other."""
    return from_arrays([l.filters.copy() for l in p.layers], [l.kind for l in p.layers])


def diff(a: LayeredParams, b: LayeredParams) -> LayeredParams:
    """Element-wise a - b."""
    check_same_shape(a, b)
    return from_arrays([la.filters - lb.filters for la, lb in zip(a.layers, b.layers)],
                       [l.kind for l in a.layers])


def add_scaled(base: LayeredParams, coef: float, delta: LayeredParams) -> LayeredParams:
    """Element-wise base + coef * delta."""
    if not math.isfinite(coef):
        raise ValueError(f"coefficient must be finite, got {coef}")
    check_same_shape(base, delta)
    return from_arrays([lb.filters + coef * ld.filters for lb, ld in zip(base.layers, delta.layers)],
                       [l.kind for l in base.layers])


def sq_distance(a: LayeredParams, b: LayeredParams) -> float:
    """Squared Euclidean distance over all scalars."""
    check_same_shape(a, b)
    return math.fsum(float(np.sum((la.filters - lb.filters) ** 2))
                     for la, lb in zip(a.layers, b.layers))


def sq_norm(p: LayeredParams) -> float:
    return math.fsum(float(np.sum(l.filters ** 2)) for l in p.layers)


def zeros_like(p: LayeredParams) -> LayeredParams:
    return from_arrays([np.zeros_like(l.filters) for l in p.layers], [l.kind for l in p.layers])


def scale(p: LayeredParams, coef: float) -> LayeredParams:
    return from_arrays([coef * l.filters for l in p.layers], [l.kind for l in p.layers])


def as_vector(p: LayeredParams) -> np.ndarray:
    """Flatten to a single float64 vector (layer order, row-major filters)."""
    return np.concatenate([l.filters.ravel() for l in p.layers])


def from_vector(v: np.ndarray, template: LayeredParams) -> LayeredParams:
    """Inverse of as_vector for a given structural template."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != template.size:
        raise ShapeMismatchError(0, None, f"vector length {v.size} vs {template.size} scalars")
    out, pos = [], 0
    for l in template.layers:
        n = l.filters.size
        out.append(v[pos:pos + n].reshape(l.filters.shape))
        pos += n
    return from_arrays(out, [l.kind for l in template.layers])


def to_jsonable(p: LayeredParams) -> list:
    """Layers -> filters -> scalars nested lists (full round-trip precision)."""
    return [[list(map(float, f)) for f in l.filters] for l in p.layers]


def from_jsonable(data: Sequence, kinds: Sequence[str] | None = None) -> LayeredParams:
    return from_arrays([np.asarray(layer, dtype=np.float64) for layer in data], kinds)


def dump_json(p: LayeredParams) -> str:
    return json.dumps(to_jsonable(p))


def load_json(text: str) -> LayeredParams:
    return from_jsonable(json.loads(text))
