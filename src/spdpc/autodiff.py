"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records operations as they execute; calling
:meth:`Tape.backward` on a scalar root replays the tape in reverse and
accumulates adjoints for every node it visits.  The op set is deliberately
small: exactly what closed-loop rollouts, penalty losses and MLP policies
need, and ``OPS`` maps each kind to its forward and VJP rules.  All
arithmetic is plain numpy on float64, so a forward/backward pair is
bit-deterministic for fixed inputs.

An op makes one pass over its inputs and a taped op appends one slotted
:class:`Node`.  Fused ops record one node for a chain of primitive ops,
with the numpy calls of the chain in the same order and its adjoints added
in the same order, so values and gradients keep their bits:
  * ``sumsq`` and ``relu_sumsq``: a squared-penalty chain of up to five;
  * ``box``: a box's two sides, subtract, subtract and concat;
  * ``total``: a loss's add and multiply tail, which sums and normalises
    each part's terms and then adds the parts.
``mlp`` records a whole ReLU network as one node that reads its weights as
one vector (:func:`unpack` states the layout); its forward is
:func:`mlp_values`, the layer loop that a deployed policy pass runs too.

Operations also run *eagerly*: an op applied to plain arrays records nothing
and returns its plain ndarray, so a :class:`Tensor` is always a node of a
tape.  The same loss code therefore serves both training (taped) and
evaluation (untaped), which removes a whole class of train/eval drift bugs.

Conventions:
  * a forward rule is a function of its operand values and attrs: it writes
    only fresh containers into its node's attrs (``total`` refills the parts
    list it is handed), so re-running it on new operands of the same shapes
    gives a freshly recorded node's value and adjoints.
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
        v = OPS["param"][0]((values,), None)
        self.nodes.append(Node("param", (), (), v, {}))
        return Tensor(v, self, len(self.nodes) - 1)

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
            taped = [i is not None for i in node.input_ids]
            for input_pos, contribution in OPS[node.kind][1](node, g, taped):
                input_id = node.input_ids[input_pos]
                prev = adjoints.get(input_id)
                adjoints[input_id] = contribution if prev is None else prev + contribution
        for pid, node in enumerate(self.nodes):
            if node.kind == "param" and pid not in adjoints:
                adjoints[pid] = np.zeros_like(node.values)
        return adjoints


# ---------------------------------------------------------------------------
# forward rules: (input values, attrs) -> the op's value

def _binary(kind, fn, da, db):
    """The rules of a binary op: forward fn(a, b), and the adjoint of each
    taped operand from (g, a, b)."""
    def forward(vals, attrs):
        a, b = vals
        if kind == "matmul" and (a.ndim != 2 or b.ndim != 2):
            raise ShapeError(f"matmul: operands must be 2-D, got {a.shape} @ {b.shape}")
        try:
            return fn(a, b)
        except ValueError:
            raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not conform") from None

    def vjp(node, g, taped):
        return [(pos, rule(g, *node.input_values))
                for pos, rule in enumerate((da, db)) if taped[pos]]
    return forward, vjp


def _mlp(vals, attrs):
    (z, flat), dims = vals, attrs["dims"]
    if dims and z.ndim == 2 and flat.ndim == 1:
        inputs = attrs["inputs"] = []  # this pass's layer inputs: the VJP reads them
        try:
            return mlp_values(z, unpack(flat, dims), inputs)
        except ValueError:
            pass
    raise ShapeError(f"mlp: input {z.shape} and a weight vector of size {flat.size} "
                     f"do not fit layers {list(dims)}")


def _relu_sumsq(vals, attrs):
    (a,), shift = vals, attrs["shift"]
    h = attrs["relu"] = np.maximum(np.add(a, shift) if shift else a, 0.0)  # the VJP reads it
    return np.asarray((h * h).sum()) * attrs["weight"]


def _box(vals, attrs):
    (v,), lower, upper = vals, attrs["lower"], attrs["upper"]
    if not v.shape[-2:] == lower.shape == upper.shape:
        raise ShapeError(f"box: a block {v.shape} against bounds {lower.shape} and {upper.shape}")
    rows = v.shape[-2]
    out = np.empty(v.shape[:-2] + (2 * rows,) + v.shape[-1:])
    np.subtract(v, upper, out=out[..., :rows, :])
    np.subtract(lower, v, out=out[..., rows:, :])
    return out


def _total(vals, attrs):
    if any(t.ndim for t in vals):
        raise ShapeError(f"total: terms must be scalars, got shapes {[t.shape for t in vals]}")
    parts, start = [], 0
    for count in attrs["counts"]:
        terms = vals[start:start + count]
        part = terms[0] if terms else 0.0
        for t in terms[1:]:
            part = part + t
        parts.append(np.asarray(part * attrs["norm"]))
        start += count
    attrs["parts"][:] = parts  # refilled for the caller, so a re-run replaces them
    p0, p1, p2, p3 = parts
    return (p0 + p1) + (p2 + p3)


def _concat(vals, attrs):
    axis = attrs["axis"]
    try:
        return np.concatenate(vals, axis=axis)
    except ValueError:
        raise ShapeError(f"concat: shapes {[v.shape for v in vals]} on axis {axis}") from None


def _along(ndim, axis, start, stop):
    """The index of [start:stop) along one axis of an ndim-D array."""
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


def _narrow(vals, attrs):
    (a,) = vals
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError(f"narrow: [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    return a[_along(a.ndim, axis, start, stop)]


def _reshape(vals, attrs):
    (a,), shape = vals, attrs["shape"]
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot reshape {a.shape} into {shape}")
    return a.reshape(shape)


def _l2norm(vals, attrs):
    (a,) = vals
    if a.ndim < 1:
        raise ShapeError(f"l2norm: expected at least 1-D, got {a.shape}")
    return np.asarray(np.sqrt(np.sum(a * a, axis=-1)))


# ---------------------------------------------------------------------------
# backward rules: (node, adjoint g, taped flags) -> [(input position, adjoint)]
# for each taped input; a constant operand gets no adjoint, so none is computed

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


def _mlp_vjp(node, g, taped):
    # layer k's input is relu(layer k-1), so it masks k-1's adjoint
    vals, dims, inputs = node.input_values, node.attrs["dims"], node.attrs["inputs"]
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


def _box_vjp(node, g, taped):
    # two contributions, the lower side's first: the order in which the
    # subtract, subtract, concat chain this node folds added them to v
    rows = node.input_values[0].shape[-2]
    return [(0, -g[..., rows:, :]), (0, g[..., :rows, :])] if taped[0] else []


def _concat_vjp(node, g, taped):
    axis, out, offset = node.attrs["axis"], [], 0
    for pos, v in enumerate(node.input_values):
        width = v.shape[axis]
        if taped[pos]:
            out.append((pos, g[_along(v.ndim, axis, offset, offset + width)]))
        offset += width
    return out


def _narrow_vjp(node, g, taped):
    (a,), attrs = node.input_values, node.attrs
    full = np.zeros_like(a)
    full[_along(a.ndim, attrs["axis"], attrs["start"], attrs["stop"])] = g
    return [(0, full)]


def _l2norm_vjp(node, g, taped):
    (a,), norms = node.input_values, node.values
    safe = np.where(norms > 0.0, norms, 1.0)
    return [(0, np.where((norms > 0.0)[..., None], (g / safe)[..., None] * a, 0.0))]


# every op kind: its (forward, VJP) rules
OPS = {
    "param": (lambda vals, attrs: np.array(vals[0], dtype=np.float64), lambda node, g, taped: []),
    "add": _binary("add", np.add, lambda g, a, b: _unbroadcast(g, a.shape),
                   lambda g, a, b: _unbroadcast(g, b.shape)),
    "subtract": _binary("subtract", np.subtract, lambda g, a, b: _unbroadcast(g, a.shape),
                        lambda g, a, b: _unbroadcast(-g, b.shape)),
    "multiply": _binary("multiply", np.multiply, lambda g, a, b: _unbroadcast(g * b, a.shape),
                        lambda g, a, b: _unbroadcast(g * a, b.shape)),
    "matmul": _binary("matmul", np.matmul, lambda g, a, b: g @ b.T, lambda g, a, b: a.T @ g),
    "mlp": (_mlp, _mlp_vjp),
    "square": (lambda vals, attrs: vals[0] * vals[0],
               lambda node, g, taped: [(0, 2.0 * node.input_values[0] * g)]),
    "sum": (lambda vals, attrs: np.asarray(vals[0].sum()), lambda node, g, taped: [
        (0, np.broadcast_to(g, node.input_values[0].shape).copy())]),
    "sumsq": (lambda vals, attrs: np.asarray((vals[0] * vals[0]).sum()) * attrs["weight"],
              lambda node, g, taped: [
                  (0, 2.0 * node.input_values[0] * (g * node.attrs["weight"]))]),
    "relu_sumsq": (_relu_sumsq, lambda node, g, taped: [
        (0, 2.0 * node.attrs["relu"] * (g * node.attrs["weight"]) * (node.attrs["relu"] > 0.0))]),
    "box": (_box, _box_vjp),
    "total": (_total, lambda node, g, taped: [
        (pos, g * node.attrs["norm"]) for pos, flag in enumerate(taped) if flag]),
    "concat": (_concat, _concat_vjp),
    "narrow": (_narrow, _narrow_vjp),
    "reshape": (_reshape, lambda node, g, taped: [(0, g.reshape(node.input_values[0].shape))]),
    "l2norm": (_l2norm, _l2norm_vjp),
}


# ---------------------------------------------------------------------------
# functional front end: taped when any input is a tensor, eager otherwise

def _apply(kind, *inputs, **attrs):
    """Run one op in a single pass over its inputs.  It is recorded on the
    tape of its tensor inputs and returns a tensor; with none it returns the
    plain ndarray.  Mixing tensors from different tapes is an error."""
    rules = OPS.get(kind)
    if rules is None:
        raise ValueError(f"unknown operation kind {kind!r}")
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
    out = np.asarray(rules[0](values, attrs))
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


def box(v, lower, upper):
    """The (..., 2K, n) residuals of a (..., K, n) block v against (K, n)
    bounds, as one node: v - upper on rows 0..K-1, lower - v on rows K..2K-1."""
    return _apply("box", v, lower=np.asarray(lower, dtype=np.float64),
                  upper=np.asarray(upper, dtype=np.float64))


def total(groups, norm: float):
    """A loss from four groups of scalar terms, as one node: each part is
    norm times its group's sum (0 for no terms), and the loss is
    (p0 + p1) + (p2 + p3).  Returns the loss, a tensor when a term is taped,
    and the four parts as 0-d ndarrays."""
    parts = []
    loss = _apply("total", *(t for terms in groups for t in terms),
                  counts=tuple(len(terms) for terms in groups), norm=float(norm), parts=parts)
    return loss, parts


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
