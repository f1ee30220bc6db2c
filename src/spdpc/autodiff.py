"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records primitive operations as they execute; calling
:meth:`Tape.backward` on a scalar root replays the tape in reverse and
accumulates adjoints for every node it visits.  The op set is deliberately
small: exactly what closed-loop rollouts, penalty losses and MLP policies
need.  All arithmetic is plain numpy on float64, so a forward/backward pair
is bit-deterministic for fixed inputs.

An op makes one pass over its inputs and a taped op appends one slotted
:class:`Node`.  The fused ``sumsq`` and ``relu_sumsq`` each record one node
for a squared-penalty chain of up to five, with the numpy calls of the chain
it stands for in the same order, so values and adjoints keep their bits.
``mlp`` records a whole ReLU network as one node that reads its weights as
one vector (:func:`unpack` states the layout); its forward is
:func:`mlp_values`, the layer loop that a deployed policy pass runs too.

Operations also run *eagerly*: an op applied to plain arrays records nothing
and returns its plain ndarray, so a :class:`Tensor` is always a node of a
tape.  The same loss code therefore serves both training (taped) and
evaluation (untaped), which removes a whole class of train/eval drift bugs.

Conventions:
  * relu has subgradient 0 at exactly 0.
  * l2norm has gradient 0 at the origin.
  * a tape is single-writer; tensors from different tapes must not mix.
  * values follow IEEE arithmetic and no op checks them for NaN or infinity;
    finiteness is checked where numbers enter and where training diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class Tensor:
    """A dense float64 array, the value of node ``node`` on ``tape``."""

    __slots__ = ("values", "tape", "node")

    def __init__(self, values, tape, node):
        self.values = values
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape} node={self.node})"


@dataclass(slots=True)
class Node:
    kind: str
    input_ids: tuple      # tape id per input, None for a constant
    input_values: tuple
    values: np.ndarray
    attrs: dict


class Tape:
    """Append-only record of one forward pass.

    Rebuild a fresh tape for every forward pass; adjoint state is created
    per :meth:`backward` call, so repeated backward passes from the same
    root return identical gradient maps.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def param(self, values) -> Tensor:
        """Place a trainable input on the tape (copied defensively)."""
        v = np.array(values, dtype=np.float64)
        self.nodes.append(Node("param", (), (), v, {}))
        return Tensor(v, self, len(self.nodes) - 1)

    @property
    def param_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.kind == "param"]

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar root.

        Returns a map from node id to adjoint array for every node the
        sweep reached; parameters the root does not depend on are included
        with zero adjoints so callers always see one entry per parameter.
        """
        if not isinstance(root, Tensor) or root.tape is not self:
            raise ValueError("backward root is not a tensor of this tape")
        if root.values.size != 1:
            raise ShapeError(
                f"backward root must be scalar-sized, got shape {root.values.shape}"
            )
        adjoints: dict[int, np.ndarray] = {
            root.node: np.ones_like(self.nodes[root.node].values)
        }
        for nid in range(root.node, -1, -1):
            g = adjoints.get(nid)
            if g is None:
                continue
            node = self.nodes[nid]
            if node.kind == "param":
                continue
            taped = [i is not None for i in node.input_ids]
            for input_pos, contribution in _vjp(node, g, taped):
                input_id = node.input_ids[input_pos]
                prev = adjoints.get(input_id)
                adjoints[input_id] = contribution if prev is None else prev + contribution
        for pid in self.param_ids:
            if pid not in adjoints:
                adjoints[pid] = np.zeros_like(self.nodes[pid].values)
        return adjoints


# ---------------------------------------------------------------------------
# forward rules

_BINARY = {"add": np.add, "subtract": np.subtract, "multiply": np.multiply,
           "matmul": np.matmul}


def _forward(kind, vals, attrs):
    if kind in _BINARY:
        a, b = vals
        if kind == "matmul" and (a.ndim != 2 or b.ndim != 2):
            raise ShapeError(f"matmul: operands must be 2-D, got {a.shape} @ {b.shape}")
        try:
            return _BINARY[kind](a, b)
        except ValueError:
            raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not conform") from None
    if kind == "mlp":
        (z, flat), dims = vals, attrs["dims"]
        if dims and z.ndim == 2 and flat.ndim == 1:
            try:
                return mlp_values(z, unpack(flat, dims), attrs.setdefault("inputs", []))
            except ValueError:
                pass
        raise ShapeError(f"mlp: input {z.shape} and a weight vector of size {flat.size} "
                         f"do not fit layers {list(dims)}")
    if kind == "relu":
        (a,) = vals
        return np.maximum(a, 0.0)
    if kind == "square":
        (a,) = vals
        return a * a
    if kind == "sum":
        (a,) = vals
        return np.asarray(a.sum())
    if kind in ("sumsq", "relu_sumsq"):
        (a,) = vals
        if kind == "relu_sumsq":  # keep the relu for the VJP
            shift = attrs["shift"]
            a = attrs["relu"] = np.maximum(np.add(a, shift) if shift else a, 0.0)
        return np.asarray((a * a).sum()) * attrs["weight"]
    if kind == "concat":
        axis = attrs["axis"]
        try:
            return np.concatenate(vals, axis=axis)
        except ValueError:
            raise ShapeError(
                f"concat: shapes {[v.shape for v in vals]} on axis {axis}"
            ) from None
    if kind == "narrow":
        (a,) = vals
        axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
        if not (0 <= start < stop <= a.shape[axis]):
            raise ShapeError(
                f"narrow: [{start}:{stop}] out of range for axis {axis} of {a.shape}"
            )
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, stop)
        return a[tuple(index)]
    if kind == "reshape":
        (a,) = vals
        shape = attrs["shape"]
        if math.prod(shape) != a.size:
            raise ShapeError(f"reshape: cannot reshape {a.shape} into {shape}")
        return a.reshape(shape)
    if kind == "l2norm":
        (a,) = vals
        if a.ndim < 1:
            raise ShapeError(f"l2norm: expected at least 1-D, got {a.shape}")
        return np.asarray(np.sqrt(np.sum(a * a, axis=-1)))
    raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# backward rules

def _unbroadcast(g, shape):
    """Reduce an adjoint back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# per binary op kind, the adjoint of each operand from (g, a, b)
_BINARY_VJP = {
    "add": (lambda g, a, b: _unbroadcast(g, a.shape), lambda g, a, b: _unbroadcast(g, b.shape)),
    "subtract": (lambda g, a, b: _unbroadcast(g, a.shape),
                 lambda g, a, b: _unbroadcast(-g, b.shape)),
    "multiply": (lambda g, a, b: _unbroadcast(g * b, a.shape),
                 lambda g, a, b: _unbroadcast(g * a, b.shape)),
    "matmul": (lambda g, a, b: g @ b.T, lambda g, a, b: a.T @ g),
}


def _vjp(node, g, taped):
    """(input position, adjoint) for each input flagged in ``taped``; a
    constant operand gets no adjoint, so none is computed for it."""
    kind = kind_ = node.kind
    vals = node.input_values
    if kind in _BINARY_VJP:
        return [(pos, rule(g, *vals)) for pos, rule in enumerate(_BINARY_VJP[kind]) if taped[pos]]
    if kind == "mlp":  # layer k's input is relu(layer k-1), so it masks k-1's adjoint
        dims, inputs = node.attrs["dims"], node.attrs["inputs"]
        layers, out = unpack(vals[1], dims), []
        if taped[1]:
            grad = np.empty_like(vals[1])
            grads = unpack(grad, dims)
            out.append((1, grad))
        for k in range(len(dims) - 1, -1, -1):
            h = inputs[k]
            if taped[1]:
                dw, db = grads[k]
                dw[...] = (h.T @ g).T
                g.sum(axis=0, out=db)
            if k or taped[0]:
                g = g @ layers[k][0]
            if k:
                g *= h > 0.0
        return out + [(0, g)] if taped[0] else out
    if kind == "relu":
        (a,) = vals
        return [(0, g * (a > 0.0))]
    if kind == "square":
        (a,) = vals
        return [(0, 2.0 * a * g)]
    if kind == "sum":
        (a,) = vals
        return [(0, np.broadcast_to(g, a.shape).copy())]
    if kind == "sumsq":
        return [(0, 2.0 * vals[0] * (g * node.attrs["weight"]))]
    if kind == "relu_sumsq":
        h = node.attrs["relu"]
        return [(0, 2.0 * h * (g * node.attrs["weight"]) * (h > 0.0))]
    if kind == "concat":
        axis = node.attrs["axis"]
        out, offset = [], 0
        for pos, v in enumerate(vals):
            width = v.shape[axis]
            if taped[pos]:
                index = [slice(None)] * v.ndim
                index[axis] = slice(offset, offset + width)
                out.append((pos, g[tuple(index)]))
            offset += width
        return out
    if kind == "narrow":
        (a,) = vals
        axis, start, stop = node.attrs["axis"], node.attrs["start"], node.attrs["stop"]
        full = np.zeros_like(a)
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, stop)
        full[tuple(index)] = g
        return [(0, full)]
    if kind == "reshape":
        return [(0, g.reshape(vals[0].shape))]
    if kind == "l2norm":
        (a,) = vals
        norms = node.values
        safe = np.where(norms > 0.0, norms, 1.0)
        grad = np.where((norms > 0.0)[..., None], (g / safe)[..., None] * a, 0.0)
        return [(0, grad)]
    raise ValueError(f"unknown operation kind {kind_!r}")


# ---------------------------------------------------------------------------
# functional front end: taped when any input is a tensor, eager otherwise

def _apply(kind, *inputs, **attrs):
    """Run one op in a single pass over its inputs.  It is recorded on the
    tape of its tensor inputs and returns a tensor; with none it returns the
    plain ndarray.  Mixing tensors from different tapes is an error."""
    tape, values, ids = None, [], []
    for x in inputs:
        if isinstance(x, Tensor):
            if x.tape is not tape:
                if tape is not None:
                    raise ValueError("cannot combine tensors from different tapes")
                tape = x.tape
            values.append(x.values)
            ids.append(x.node)
        else:
            values.append(np.asarray(x, dtype=np.float64))
            ids.append(None)
    out = np.asarray(_forward(kind, values, attrs))
    if tape is None:
        return out
    tape.nodes.append(Node(kind, tuple(ids), tuple(values), out, attrs))
    return Tensor(out, tape, len(tape.nodes) - 1)


def add(a, b):
    return _apply("add", a, b)


def subtract(a, b):
    return _apply("subtract", a, b)


def multiply(a, b):
    return _apply("multiply", a, b)


def matmul(a, b):
    """Matrix product of two 2-D operands."""
    return _apply("matmul", a, b)


def relu(a):
    return _apply("relu", a)


def square(a):
    return _apply("square", a)


def reduce_sum(a):
    return _apply("sum", a)


def sumsq(a, weight: float):
    """weight * sum of a^2 over every entry: multiply(reduce_sum(square(a)), weight)."""
    return _apply("sumsq", a, weight=float(weight))


def relu_sumsq(a, weight: float, shift: float = 0.0):
    """weight * sum of relu(a + shift)^2 over every entry, as one node."""
    return _apply("relu_sumsq", a, weight=float(weight), shift=float(shift))


def concat(parts, axis: int = 0):
    return _apply("concat", *parts, axis=int(axis))


def narrow(a, axis: int, start: int, stop: int):
    """Contiguous slice [start:stop) along one axis."""
    return _apply("narrow", a, axis=int(axis), start=int(start), stop=int(stop))


def mlp_values(z, layers, inputs=None):
    """A ReLU network in plain numpy on one input z (d,) or a batch (n, d):
    relu(z W^T + b) on the hidden layers of ``layers`` [(W, b), ...], z W^T + b
    on the last.  A list ``inputs`` receives each layer's input (mlp's VJP reads them)."""
    last = len(layers) - 1
    for k, (w, b) in enumerate(layers):
        if inputs is not None:
            inputs.append(z)
        # in place on the fresh product: one allocation a layer, not three, so
        # the allocator does not trim and refault a large batch's hidden blocks
        z = z @ w.T
        z += b
        if k < last:
            np.maximum(z, 0.0, out=z)
    return z


def unpack(flat, dims):
    """(W, b) views of a weight vector for layers ``dims`` [(fan_out, fan_in), ...]:
    the vector holds each layer's W row-major, then its b."""
    if flat.size != sum(rows * cols + rows for rows, cols in dims):
        raise ShapeError(f"a weight vector of size {flat.size} does not fit layers {list(dims)}")
    layers, start = [], 0
    for rows, cols in dims:
        stop = start + rows * cols
        layers.append((flat[start:stop].reshape(rows, cols), flat[stop:stop + rows]))
        start = stop + rows
    return layers


def mlp(z, flat, dims):
    """``mlp_values`` of a batch z (n, d) as one op, its weights one vector in
    ``unpack`` layout for layers ``dims``."""
    return _apply("mlp", z, flat, dims=tuple(dims))


def reshape(a, shape):
    """Same values in a new shape of equal size (row-major order)."""
    return _apply("reshape", a, shape=tuple(int(d) for d in shape))


def l2norm(a):
    """Euclidean norm over the last axis: 1-D input -> scalar, (..., n) -> (...)."""
    return _apply("l2norm", a)
