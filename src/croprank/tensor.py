"""Dense matrices with reverse-mode automatic differentiation.

A deliberately small engine: tensors wrap row-major numpy arrays
(float32 or float64), every op records its parents plus a
vector-Jacobian closure, and ``backward`` replays the recorded graph
in reverse topological order. Differentiable ops work on rank-2
arrays; storage itself may be any rank (images are rank 3 on disk).
Affine layers (``linear``), layer norm and multi-head attention are
each one op with a closed-form backward pass.

Broadcasting is restricted on purpose: elementwise ops demand equal
shapes, and scalars enter through ``scale``/``add_const``. Anything
fancier raises DimMismatch instead of silently broadcasting.

One exception: every op accepts a leading batch axis, so a (B, m, n)
operand stands for B separate (m, n) matrices and may meet an
unbatched (m, n) one, which counts for all B. Trailing dims must still
match exactly, and no op batches over more than one leading axis.
``matrix_dims`` is the one reader of that axis, here and in every
other module: it returns a matrix's (rows, cols) and raises unless the
rank is 2 or 3. Under ``no_grad`` the axis carries the perturbed copies
of ``gradcheck.numeric_gradients``' probe; while recording it carries
the images of one training batch. Each entry's values are the bytes the
op gives that entry alone.

Backward is batch-aware the same way. An adjoint may carry the batch
axis where its node's data does not: a node computed once for every
image (a parameter, or a block that does not depend on the image)
receives one contribution per image, (B, *shape). Op outputs add such
stacks elementwise. A leaf keeps every contribution until its last
use has reported, then adds them image-major, each image's in arrival
order: the order a loop would have used that records one graph per
image, adds the losses with ``add`` and backpropagates the sum.

Gradient buffers live on leaves only: ``backward`` keeps op outputs'
adjoints in a local table and adds into ``.grad`` at the leaves. A
model's leaves hold views into ``decoder.ModelState``'s two flat
vectors, on which ``Adam`` and ``sgd_step`` update every parameter.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    DisconnectedGraph,
    DomainError,
    MissingGrad,
    NonFinite,
    NotScalar,
)

Array = np.ndarray

_GRAD_ENABLED = True
_BRANCHES: list | None = None


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def recording() -> bool:
    """Whether ops record a graph for backward: everywhere outside ``no_grad``."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def branches(out: list):
    """Collect which branch each piecewise op takes, element by element.

    Inside the block, every ``relu``, ``absolute``, ``clamp``,
    ``minimum`` and ``maximum`` call appends to ``out`` the array that
    selects its branch: relu's ``x > 0``, the sign for abs, clamp's
    interior mask and min/max's choice of the first operand. A forward
    crosses a kink exactly where these differ from another forward's.
    The arrays are the op's own; treat them as read-only.
    """
    global _BRANCHES
    prev = _BRANCHES
    _BRANCHES = out
    try:
        yield out
    finally:
        _BRANCHES = prev


class Tensor:
    """A numpy array plus optional gradient and autodiff bookkeeping.

    Invariants: ``data`` is a matrix, or a (B, m, n) batch of them, and
    ``matrix_dims`` reads past that leading axis. ``grad`` is a buffer
    (zeros, same shape/dtype as ``data``) exactly on leaves made with
    ``requires_grad=True``, and None otherwise; a recorded op output
    requires grad but holds no buffer; a model parameter's two are
    C-contiguous views into its ``ModelState``'s flat vectors. The
    finite-difference probe swaps a (B, *shape) stack into a leaf's
    ``data`` under ``no_grad`` and puts the original array back after.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, dtype=np.float64, requires_grad: bool = False):
        arr = np.array(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            raise DimMismatch(f"unsupported dtype {arr.dtype}; use f32 or f64")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array, ...]] | None = None
        self._op: str = "leaf"

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: Array, parents: tuple["Tensor", ...], vjp, op: str) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        t.requires_grad = track
        t.grad = None
        t._parents = parents if track else ()
        t._vjp = vjp if track else None
        t._op = op if track else "leaf"
        return t

    # -- introspection ---------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() on tensor of shape {self.dims}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.dims}, dtype={self.data.dtype.name}{flag}, op={self._op})"


def parameter(data: Array, grad: Array) -> Tensor:
    """A trainable leaf whose ``data`` and ``grad`` are the given buffers themselves, not copies."""
    t = Tensor._from_op(data, (), None, "leaf")
    t.requires_grad, t.grad = True, grad
    return t


def constant(data) -> Tensor:
    """Wrap values as a non-trainable tensor of their own dtype (f32 or f64; anything else becomes f64).

    An f32 or f64 array is wrapped as it is, strides included, not
    copied: no op writes into its inputs.
    """
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return Tensor._from_op(arr, (), None, "leaf")
    return Tensor(arr)


# -- shape/dtype guards --------------------------------------------------------


def matrix_dims(t: Tensor) -> tuple[int, int]:
    """(rows, cols) of a matrix: rank 2, or rank 3 with a leading batch axis."""
    shape = t.data.shape
    if len(shape) not in (2, 3):
        raise DimMismatch(f"expected a rank-2 tensor or a rank-3 batch, got shape {shape}")
    return shape[-2:]


def _need_same(a: Tensor, b: Tensor, op: str) -> None:
    """Equal shapes, or an (m, n) operand against a (B, m, n) one."""
    if a.data.shape != b.data.shape and (
        sorted((a.data.ndim, b.data.ndim)) != [2, 3] or a.dims[-2:] != b.dims[-2:]
    ):
        raise DimMismatch(f"{op}: shapes {a.dims} and {b.dims} differ")
    if a.data.dtype != b.data.dtype:
        raise DimMismatch(f"{op}: dtypes {a.data.dtype} and {b.data.dtype} differ")


def _batch(op: str, *arrays: Array) -> tuple[int, ...]:
    """The leading batch axis the operands share: (B,), or () when none has one."""
    sizes = {a.shape[0] for a in arrays if a.ndim == 3}
    if len(sizes) > 1:
        raise DimMismatch(f"{op}: batch sizes {sorted(sizes)} differ")
    return tuple(sizes)


# -- core ops ------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b, with b a (1, n) row added to every row.

    The backward pass is g w^T, x^T g and the column sum of g; g w^T is
    skipped (None) when x needs no gradient, as for a constant input,
    since ``backward`` reads no slot of such a parent.
    """
    inner, n = matrix_dims(w)
    if matrix_dims(x)[1] != inner:
        raise DimMismatch(f"linear: inner dims {x.dims} x {w.dims}")
    if matrix_dims(b) != (1, n):
        raise DimMismatch(f"linear: bias must be (1, {n}), got {b.dims}")
    if w.data.dtype != x.data.dtype or b.data.dtype != x.data.dtype:
        raise DimMismatch(f"linear: dtypes {x.data.dtype}, {w.data.dtype} and {b.data.dtype} differ")
    try:
        out = x.data @ w.data + b.data
    except ValueError as e:  # the dims are checked, so only the batch sizes can differ
        raise DimMismatch(f"linear: batch sizes of {x.dims}, {w.dims} and {b.dims} differ") from e

    def vjp(g: Array):
        gx = g @ w.data.swapaxes(-1, -2) if x.requires_grad else None
        return gx, x.data.swapaxes(-1, -2) @ g, g.sum(axis=-2, keepdims=True)

    return Tensor._from_op(out, (x, w, b), vjp, "linear")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same(a, b, "add")

    def vjp(g: Array):
        return g, g

    return Tensor._from_op(a.data + b.data, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same(a, b, "sub")

    def vjp(g: Array):
        return g, -g

    return Tensor._from_op(a.data - b.data, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same(a, b, "mul")

    def vjp(g: Array):
        return g * b.data, g * a.data

    return Tensor._from_op(a.data * b.data, (a, b), vjp, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    _need_same(a, b, "div")
    if np.any(b.data == 0.0):
        raise DomainError("div: zero denominator")
    out = a.data / b.data

    def vjp(g: Array):
        return g / b.data, -g * a.data / (b.data * b.data)

    return Tensor._from_op(out, (a, b), vjp, "div")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g: Array):
        return (g * c,)

    return Tensor._from_op(x.data * c, (x,), vjp, "scale")


def add_const(x: Tensor, c: float) -> Tensor:
    def vjp(g: Array):
        return (g,)

    return Tensor._from_op(x.data + float(c), (x,), vjp, "add_const")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    if _BRANCHES is not None:
        _BRANCHES.append(mask)

    def vjp(g: Array):
        return (g * mask,)

    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), vjp, "relu")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    # piecewise form avoids overflow in exp for large |x|
    out = np.where(d >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = out.astype(d.dtype, copy=False)

    def vjp(g: Array):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (x,), vjp, "sigmoid")


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise DomainError("log: inputs must be strictly positive")
    out = np.log(x.data)

    def vjp(g: Array):
        return (g / x.data,)

    return Tensor._from_op(out, (x,), vjp, "log")


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.data)
    if _BRANCHES is not None:
        _BRANCHES.append(sign)

    def vjp(g: Array):
        return (g * sign,)

    return Tensor._from_op(np.abs(x.data), (x,), vjp, "abs")


def pow_const(x: Tensor, p: float) -> Tensor:
    """x ** p elementwise. Requires x >= 0 when p is not an integer, p >= 1 for a bounded derivative at 0."""
    p = float(p)
    if not p.is_integer() and np.any(x.data < 0.0):
        raise DomainError("pow_const: negative base with fractional exponent")
    out = x.data**p

    def vjp(g: Array):
        return (g * p * x.data ** (p - 1.0),)

    return Tensor._from_op(out, (x,), vjp, "pow_const")


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise DomainError(f"clamp: lo {lo} must be < hi {hi}")
    out = np.clip(x.data, lo, hi)
    interior = (x.data > lo) & (x.data < hi)
    if _BRANCHES is not None:
        _BRANCHES.append(interior)

    def vjp(g: Array):
        return (g * interior,)

    return Tensor._from_op(out, (x,), vjp, "clamp")


def minimum(a: Tensor, b: Tensor) -> Tensor:
    _need_same(a, b, "minimum")
    take_a = a.data <= b.data  # ties route gradient to the first operand
    if _BRANCHES is not None:
        _BRANCHES.append(take_a)

    def vjp(g: Array):
        return g * take_a, g * ~take_a

    return Tensor._from_op(np.where(take_a, a.data, b.data), (a, b), vjp, "minimum")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    _need_same(a, b, "maximum")
    take_a = a.data >= b.data
    if _BRANCHES is not None:
        _BRANCHES.append(take_a)

    def vjp(g: Array):
        return g * take_a, g * ~take_a

    return Tensor._from_op(np.where(take_a, a.data, b.data), (a, b), vjp, "maximum")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization, with 1e-5 added to the variance, followed by elementwise affine.

    gain and bias are (1, n) tensors applied to every row; the op is
    fused so the backward pass is a single closed-form expression.
    A row mean is the row sum divided by n, the bytes of ``.mean``
    without its wrapper: for f32, ``.mean`` divides in f64 and rounds
    to f32, which equals the f32 quotient (53 >= 2 * 24 + 2 bits).
    """
    n = matrix_dims(x)[1]
    if matrix_dims(gain) != (1, n) or matrix_dims(bias) != (1, n):
        raise DimMismatch(f"layer_norm: affine params must be (1, {n}), got {gain.dims} and {bias.dims}")
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def vjp(g: Array):
        gy = g * gain.data
        # d/dx of (x - mu) * inv with mu, inv both functions of the row
        mean_gy = np.add.reduce(gy, axis=-1, keepdims=True) / n
        mean_gy_xhat = np.add.reduce(gy * xhat, axis=-1, keepdims=True) / n
        gx = inv * (gy - mean_gy - xhat * mean_gy_xhat)
        ggain = (g * xhat).sum(axis=-2, keepdims=True)
        gbias = g.sum(axis=-2, keepdims=True)
        return gx, ggain, gbias

    return Tensor._from_op(out, (x, gain, bias), vjp, "layer_norm")


def _heads(x: Array, n_heads: int) -> Array:
    """(…, rows, H·w) -> a C-contiguous (…, H, rows, w) stack: column block i is head i."""
    return x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)).swapaxes(-3, -2).copy()


def _merged(x: Array) -> Array:
    """(…, H, rows, w) -> a C-contiguous (…, rows, H·w), whatever x's strides: ``_heads`` undone."""
    *lead, n_heads, rows, w = x.shape
    return x.swapaxes(-3, -2).copy().reshape((*lead, rows, n_heads * w))


def _merged_matmul(x: Array, y: Array) -> Array:
    """``_merged(x @ y)`` for two (…, H, ·, ·) stacks, each head's product written straight into its columns."""
    *lead, n_heads = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    rows, w = x.shape[-2], y.shape[-1]
    out = np.empty((*lead, rows, n_heads * w), dtype=x.dtype)
    # each head's block of out has unit column stride, so BLAS writes it as it would a fresh array
    np.matmul(x, y, out=out.reshape((*lead, rows, n_heads, w)).swapaxes(-3, -2))
    return out


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    log_bias: Array | None = None,
    weights_out: list | None = None,
) -> Tensor:
    """Multi-head softmax(q_h k_h^T / sqrt(d_h) + log_bias) v_h, heads side by side.

    q is (m, d), k is (n, d) and v is (n, d_v); each splits into
    ``n_heads`` equal column blocks, one per head. ``log_bias`` is a
    constant (1, n) row added to every head's scaled logits, or a
    (B, 1, n) stack of one row per batch entry. Pass a list as
    ``weights_out`` to have one detached (H, m, n) array of every
    head's weights appended, in head order ((H, B, m, n) for a batch).

    The heads are one array axis. q, k and v are split into
    C-contiguous stacks Q (…, H, m, d_h), K^T (…, H, d_h, n) and
    V (…, H, n, d_v), so one product gives every head's logits and
    one max, exp and sum give every head's softmax, done in place in
    the logits buffer. The backward pass is closed form: gV = A^T g,
    gA = g V^T, gS = c A (gA - rowsum(gA A)), gQ = gS K and
    gK = (Q^T gS)^T, with c = 1/sqrt(d_h), gS formed in place in gA.
    Only the weights A are kept for it; the stacks are split again.

    Layout rule: each head's operands have the shape and memory layout
    that a per-head loop over fresh column slices gives them, so BLAS
    and the elementwise loops return that loop's bytes. The
    output and the three adjoints are fresh C-contiguous arrays: a
    strided adjoint would keep its layout through ``backward`` and
    reach a later product transposed.
    """
    (_, d), (n, dk), (nv, dv_all) = matrix_dims(q), matrix_dims(k), matrix_dims(v)
    if dk != d:
        raise DimMismatch(f"attention: query dim {d} != key dim {dk}")
    if nv != n:
        raise DimMismatch(f"attention: key count {n} != value count {nv}")
    if n_heads < 1 or d % n_heads or dv_all % n_heads:
        raise DimMismatch(f"attention: widths {d} and {dv_all} do not split into {n_heads} heads")
    if k.data.dtype != q.data.dtype or v.data.dtype != q.data.dtype:
        raise DimMismatch(f"attention: dtypes {q.data.dtype}, {k.data.dtype} and {v.data.dtype} differ")
    if log_bias is not None and (
        log_bias.ndim not in (2, 3) or log_bias.shape[-2:] != (1, n) or log_bias.dtype != q.data.dtype
    ):
        raise DimMismatch(f"attention: log_bias must be (1, {n}) {q.data.dtype} rows, got {log_bias.shape}")
    _batch("attention", q.data, k.data, v.data, *([] if log_bias is None else [log_bias]))
    dh = d // n_heads
    # a Python float: a numpy scalar would promote f32 logits to f64
    c = 1.0 / math.sqrt(dh)

    def split():
        kts = k.data.swapaxes(-1, -2).reshape(k.data.shape[:-2] + (n_heads, dh, n)).copy()
        return _heads(q.data, n_heads), kts, _heads(v.data, n_heads)

    qs, kts, vs = split()
    a = qs @ kts
    a *= c
    if log_bias is not None:
        bias = log_bias[..., None, :, :]  # one row for every head and query
        # an unbatched a meets a (B, 1, n) bias: the sum is the first batched array
        a = a + bias if a.ndim < bias.ndim else np.add(a, bias, out=a)
    if not np.isfinite(a).all():
        raise NonFinite("attention: logits contain NaN or infinity")
    a -= np.fmax.reduce(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    if weights_out is not None:
        weights_out.append(np.moveaxis(a, -3, 0).copy())
    out = _merged_matmul(a, vs)

    def vjp(g: Array):
        # split again, not kept: q, k and v stay alive with the graph, and kept stacks would double them
        qs, kts, vs = split()
        # g may carry a batch axis the operands lack: each product then gives one gradient per entry
        gh = _heads(g, n_heads)
        gs = gh @ vs.swapaxes(-1, -2)  # gA, turned into gS in place
        gs -= (gs * a).sum(axis=-1, keepdims=True)
        gs *= a
        gs *= c
        gq = _merged_matmul(gs, kts.swapaxes(-1, -2))
        gk = _merged((qs.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
        return gq, gk, _merged_matmul(a.swapaxes(-1, -2), gh)

    return Tensor._from_op(out, (q, k, v), vjp, "attention")


def sum_all(x: Tensor) -> Tensor:
    """Sum of every entry as a (1, 1) tensor; (B, m, n) sums to (B, 1, 1)."""
    matrix_dims(x)
    out = x.data.sum(axis=(-2, -1), keepdims=True)

    def vjp(g: Array):
        return (np.broadcast_to(g, g.shape[:-2] + x.data.shape[-2:]),)

    return Tensor._from_op(out, (x,), vjp, "sum_all")


def sum_batch(x: Tensor) -> Tensor:
    """(B, m, n) -> (m, n): the B entries added left to right.

    The bytes are those of add(add(x[0], x[1]), x[2]) and so on:
    ``np.cumsum`` adds in that order, where ``.sum(axis=0)`` may pair
    terms up.
    """
    if x.data.ndim != 3:
        raise DimMismatch(f"sum_batch: expected a (B, m, n) batch, got shape {x.dims}")
    out = np.cumsum(x.data, axis=0)[-1]

    def vjp(g: Array):
        return (np.broadcast_to(g, x.data.shape),)

    return Tensor._from_op(out, (x,), vjp, "sum_batch")


def sum_row_blocks(x: Tensor, counts: Sequence[int]) -> Tensor:
    """Sums of consecutive row blocks of an (M, n) matrix: (len(counts), 1, 1).

    Block b is the next ``counts[b]`` rows, possibly none; each block
    is summed as ``sum_all`` sums a matrix of those rows.
    """
    counts = [int(c) for c in counts]
    if x.data.ndim != 2 or min(counts, default=-1) < 0 or sum(counts) != x.dims[0]:
        raise DimMismatch(f"sum_row_blocks: blocks {counts} do not tile the rows of {x.dims}")
    ends = np.cumsum(counts)
    out = np.stack([x.data[e - c : e].sum(axis=(-2, -1), keepdims=True) for c, e in zip(counts, ends)])

    def vjp(g: Array):
        return (np.broadcast_to(np.repeat(g[:, 0], counts, axis=0), x.data.shape),)

    return Tensor._from_op(out, (x,), vjp, "sum_row_blocks")


def sum_cols(x: Tensor) -> Tensor:
    """Sum across columns: (m, n) -> (m, 1)."""
    n = matrix_dims(x)[1]
    out = x.data.sum(axis=-1, keepdims=True)

    def vjp(g: Array):
        return (np.repeat(g, n, axis=-1),)

    return Tensor._from_op(out, (x,), vjp, "sum_cols")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    cols = matrix_dims(x)[1]
    if not (0 <= start < stop <= cols):
        raise DimMismatch(f"slice_cols: [{start}, {stop}) out of bounds for {x.dims}")
    out = x.data[..., start:stop].copy()

    def vjp(g: Array):
        gx = np.zeros(g.shape[:-1] + (cols,), dtype=x.data.dtype)
        gx[..., start:stop] = g
        return (gx,)

    return Tensor._from_op(out, (x,), vjp, "slice_cols")


def gather_rows(x: Tensor, index: Sequence[int]) -> Tensor:
    rows = matrix_dims(x)[0]
    idx = np.asarray(list(index), dtype=np.int64)
    if idx.size == 0:
        raise DimMismatch("gather_rows: empty index")
    if np.any(idx < 0) or np.any(idx >= rows):
        raise DimMismatch(f"gather_rows: index out of range for {rows} rows")
    out = x.data[..., idx, :].copy()

    def vjp(g: Array):
        gx = np.zeros(g.shape[:-2] + x.data.shape[-2:], dtype=x.data.dtype)
        np.add.at(gx, (..., idx, slice(None)), g)
        return (gx,)

    return Tensor._from_op(out, (x,), vjp, "gather_rows")


def flatten_batch(x: Tensor) -> Tensor:
    """(B, m, n) -> (B * m, n): the batch's matrices stacked row-wise, entry 0 on top."""
    if x.data.ndim != 3:
        raise DimMismatch(f"flatten_batch: expected a (B, m, n) batch, got shape {x.dims}")

    def vjp(g: Array):
        return (g.reshape(x.data.shape),)

    return Tensor._from_op(x.data.reshape(-1, x.dims[-1]).copy(), (x,), vjp, "flatten_batch")


# -- graph and backward ---------------------------------------------------------


def _topo_order(root: Tensor) -> tuple[list[Tensor], dict[int, int]]:
    """Iterative post-order DFS (parents before children), and each leaf's number of uses."""
    out: list[Tensor] = []
    uses: dict[int, int] = {}
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                if p._vjp is None:
                    uses[id(p)] = uses.get(id(p), 0) + 1
                if id(p) not in seen:
                    stack.append((p, False))
    return out, uses


def _fold(parts: list[Array], leaf: Tensor) -> Array:
    """A leaf's contributions summed image-major, each image's in arrival order.

    A part with one axis more than the leaf holds one contribution per
    batch entry; a part without it counts as entry 0 only. The terms are
    added one at a time, as a per-image loop would have added them. A
    lone batched part of the leaf's dtype is one ``np.add.reduce`` over
    its leading axis, which adds the entries in order when the stack is
    C-contiguous and the leaf has more than one element (a (1, 1) sum,
    or a broadcast stack's, would be pairwise); its ``initial`` -0.0
    keeps a sum of -0.0 terms -0.0, as the loop does.
    """
    one = parts[0]
    lone_stack = len(parts) == 1 and one.ndim > leaf.data.ndim
    if lone_stack and leaf.data.size > 1 and one.dtype == leaf.data.dtype and one.flags.c_contiguous:
        return np.add.reduce(one, axis=0, initial=-0.0)
    stacks = [p if p.ndim > leaf.data.ndim else p[None] for p in parts]
    terms = [s[e] for e in range(max(map(len, stacks))) for s in stacks if e < len(s)]
    total = terms[0].astype(leaf.data.dtype, copy=True)
    for t in terms[1:]:
        total += t
    return total


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every leaf requiring grad (op outputs keep none)."""
    if loss.data.size != 1:
        raise NotScalar(f"backward expects a scalar, got shape {loss.dims}")
    if not loss.requires_grad:
        raise DisconnectedGraph("loss does not depend on any tensor requiring grad")
    if loss._vjp is None:
        loss.grad += 1.0
        return
    order, uses = _topo_order(loss)
    adjoint: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    parts: dict[int, list[Array]] = {}
    for node in reversed(order):
        if node._vjp is None:
            continue  # a leaf: folded when its last use reported
        for parent, pg in zip(node._parents, node._vjp(adjoint.pop(id(node)))):
            if not parent.requires_grad:
                continue
            if parent._vjp is None:
                got = parts.setdefault(id(parent), [])
                got.append(pg)
                if len(got) == uses[id(parent)]:
                    parent.grad += _fold(parts.pop(id(parent)), parent)
                continue
            acc = adjoint.get(id(parent))
            if acc is None:
                adjoint[id(parent)] = pg.astype(parent.data.dtype, copy=True)
            elif acc.shape != pg.shape:
                raise DimMismatch(f"backward: {parent._op} output gets adjoints of shapes {acc.shape} and {pg.shape}")
            else:
                acc += pg


def sgd_step(data: Array, grad: Array | None, lr: float) -> None:
    """In place data <- data - lr * grad, then grad zeroed: on ``ModelState.data``/``.grad`` or one leaf's."""
    if grad is None:
        raise MissingGrad("sgd_step: parameter has no gradient buffer")
    data -= lr * grad
    grad.fill(0.0)


class Adam:
    """Adam with bias correction, on the same (data, grad, lr) arrays as sgd_step.

    The moments ``m`` and ``v`` are made on the first step, shaped like
    its ``data``, and every later step passes arrays of that shape. Each
    step is the per-parameter update on whole vectors, with ``lr`` a
    Python float so that f32 arrays stay f32 throughout.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.t = 0
        self.m: Array | None = None
        self.v: Array | None = None

    def step(self, data: Array, grad: Array | None, lr: float) -> None:
        if grad is None:
            raise MissingGrad("Adam.step: parameter has no gradient buffer")
        if self.m is None:
            self.m, self.v = np.zeros_like(data), np.zeros_like(data)
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self.m, self.v
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * (grad * grad)
        data -= lr * (m / (1.0 - b1**self.t)) / (np.sqrt(v / (1.0 - b2**self.t)) + self.eps)
        grad.fill(0.0)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) float64 weight matrix."""
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))
