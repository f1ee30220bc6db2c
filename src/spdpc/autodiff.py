"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records primitive operations as they execute; calling
:meth:`Tape.backward` on a scalar root replays the tape in reverse and
accumulates adjoints for every node it visits.  The op set is deliberately
small: exactly what closed-loop rollouts, penalty losses and MLP policies
need.  All arithmetic is plain numpy on float64, so a forward/backward pair
is bit-deterministic for fixed inputs.

An op makes one pass over its inputs and a taped op appends one slotted
:class:`Node`.  The fused ``sumsq`` and ``relu_sumsq`` each record one node
for a squared-penalty chain of up to five, with the same numpy calls in the
same order, so values and adjoints keep their bits.

Operations also run *eagerly*: applying an op to plain arrays (or tensors
that live on no tape) computes the value without recording anything.  The
same loss code therefore serves both training (taped) and evaluation
(untaped), which removes a whole class of train/eval drift bugs.

Conventions:
  * relu has subgradient 0 at exactly 0.
  * l2norm has gradient 0 at the origin.
  * a tape is single-writer; tensors from different tapes must not mix.
  * values follow IEEE arithmetic and no op checks them for NaN or infinity;
    finiteness is checked where numbers enter and where training diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class Tensor:
    """A dense float64 array, optionally bound to a node on a tape."""

    __slots__ = ("values", "tape", "node")

    def __init__(self, values, tape=None, node=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        where = f" node={self.node}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{where})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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

    def record(self, kind: str, *inputs, **attrs) -> Tensor:
        """Execute one primitive op and append it to this tape.

        Inputs may be tensors on this tape, untaped tensors, or plain
        arrays; the latter two enter the node as constants.  Mixing in a
        tensor from another tape is an error.
        """
        return _apply(kind, *inputs, _tape=self, **attrs)

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar root.

        Returns a map from node id to adjoint array for every node the
        sweep reached; parameters the root does not depend on are included
        with zero adjoints so callers always see one entry per parameter.
        """
        if root.tape is not self or root.node is None:
            raise ValueError("backward root is not on this tape")
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
            for input_pos, contribution in _vjp(node, g):
                input_id = node.input_ids[input_pos]
                if input_id is None:
                    continue  # constant operand: no adjoint to route
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
        if kind == "matmul" and (a.ndim not in (1, 2) or b.ndim not in (1, 2)):
            raise ShapeError(f"matmul: operands must be 1-D or 2-D, got {a.shape} @ {b.shape}")
        try:
            return _BINARY[kind](a, b)
        except ValueError:
            raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not conform") from None
    if kind == "relu":
        (a,) = vals
        return np.maximum(a, 0.0)
    if kind == "square":
        (a,) = vals
        return a * a
    if kind == "sum":
        (a,) = vals
        return np.asarray(a.sum())
    if kind == "scale":
        (a,) = vals
        return a * attrs["factor"]
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
    if kind == "transpose":
        (a,) = vals
        if a.ndim != 2:
            raise ShapeError(f"transpose: expected 2-D, got {a.shape}")
        return a.T
    if kind == "reshape":
        (a,) = vals
        shape = attrs["shape"]
        if int(np.prod(shape)) != a.size:
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


def _vjp(node, g):
    kind = kind_ = node.kind
    vals = node.input_values
    if kind == "add":
        return [(0, _unbroadcast(g, vals[0].shape)), (1, _unbroadcast(g, vals[1].shape))]
    if kind == "subtract":
        return [(0, _unbroadcast(g, vals[0].shape)), (1, _unbroadcast(-g, vals[1].shape))]
    if kind == "multiply":
        a, b = vals
        return [(0, _unbroadcast(g * b, a.shape)), (1, _unbroadcast(g * a, b.shape))]
    if kind == "matmul":
        a, b = vals
        if a.ndim == 2 and b.ndim == 2:
            return [(0, g @ b.T), (1, a.T @ g)]
        if a.ndim == 2 and b.ndim == 1:
            return [(0, np.outer(g, b)), (1, a.T @ g)]
        if a.ndim == 1 and b.ndim == 2:
            return [(0, b @ g), (1, np.outer(a, g))]
        # 1-D @ 1-D produces a scalar
        return [(0, g * b), (1, g * a)]
    if kind == "relu":
        (a,) = vals
        return [(0, g * (a > 0.0))]
    if kind == "square":
        (a,) = vals
        return [(0, 2.0 * a * g)]
    if kind == "sum":
        (a,) = vals
        return [(0, np.broadcast_to(g, a.shape).copy())]
    if kind == "scale":
        return [(0, g * node.attrs["factor"])]
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
    if kind == "transpose":
        return [(0, g.T)]
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
# functional front end: taped when any input is taped, eager otherwise

def _apply(kind, *inputs, _tape=None, **attrs):
    """Run one op in a single pass over its inputs.  It is recorded on
    ``_tape``, or else on the tape of its taped inputs, and runs eagerly
    when there is none."""
    tape, values, ids = _tape, [], []
    for x in inputs:
        if isinstance(x, Tensor):
            if x.tape is not None and x.tape is not tape:
                if tape is not None:
                    raise ValueError("cannot combine tensors from different tapes")
                tape = x.tape
            values.append(x.values)
            ids.append(x.node)
        else:
            values.append(np.asarray(x, dtype=np.float64))
            ids.append(None)
    out = _forward(kind, values, attrs)
    if tape is None:
        return Tensor(out)
    out = Tensor(out, tape, len(tape.nodes))
    tape.nodes.append(Node(kind, tuple(ids), tuple(values), out.values, attrs))
    return out


def add(a, b):
    return _apply("add", a, b)


def subtract(a, b):
    return _apply("subtract", a, b)


def multiply(a, b):
    return _apply("multiply", a, b)


def matmul(a, b):
    return _apply("matmul", a, b)


def relu(a):
    return _apply("relu", a)


def square(a):
    return _apply("square", a)


def reduce_sum(a):
    return _apply("sum", a)


def scale(a, factor: float):
    return _apply("scale", a, factor=float(factor))


def sumsq(a, weight: float):
    """weight * sum of a^2 over every entry: scale(reduce_sum(square(a)))."""
    return _apply("sumsq", a, weight=float(weight))


def relu_sumsq(a, weight: float, shift: float = 0.0):
    """weight * sum of relu(a + shift)^2 over every entry, as one node."""
    return _apply("relu_sumsq", a, weight=float(weight), shift=float(shift))


def concat(parts, axis: int = 0):
    return _apply("concat", *parts, axis=int(axis))


def narrow(a, axis: int, start: int, stop: int):
    """Contiguous slice [start:stop) along one axis."""
    return _apply("narrow", a, axis=int(axis), start=int(start), stop=int(stop))


def transpose(a):
    return _apply("transpose", a)


def reshape(a, shape):
    """Same values in a new shape of equal size (row-major order)."""
    return _apply("reshape", a, shape=tuple(int(d) for d in shape))


def l2norm(a):
    """Euclidean norm over the last axis: 1-D input -> scalar, (..., n) -> (...)."""
    return _apply("l2norm", a)
