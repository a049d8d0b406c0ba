"""RPR002: the lockstep kernel must stay on the array-API portable subset.

The batched engine is written against the array API standard, and the
CI ``backend-matrix`` lane runs it on ``array-api-strict``, the standard's
conformance namespace, to keep it that way.  The standard specifies
``take`` and boolean-mask indexing but *not* integer fancy indexing, and
many NumPy conveniences (``np.clip`` keyword forms, ``bincount``,
``add.at``, …) have no standard counterpart.  ``tests/test_backend.py`` proves the
invariant at runtime through a guard namespace; this rule proves it at
lint time, before a test ever runs, and catches the APIs the runtime
guard's NumPy fallback would happily execute.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import BaseRule, FileContext
from ..model import Finding

__all__ = ["ArrayApiPortabilityRule", "ARRAY_API_NAMES", "KERNEL_MODULES"]

#: Modules holding the backend-portable lockstep kernel.
KERNEL_MODULES = frozenset(
    {
        "repro/simulation/compile.py",
        "repro/simulation/batch.py",
        "repro/simulation/breakdown.py",
    }
)

#: Names the array API standard (2023.12) guarantees on every namespace,
#: plus the extension sub-namespaces.  ``xp.<anything else>`` is treated
#: as a NumPy-only leak.
ARRAY_API_NAMES = frozenset(
    {
        # dtypes + inspection
        "bool", "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64",
        "float32", "float64", "complex64", "complex128",
        "finfo", "iinfo", "isdtype", "result_type", "can_cast", "astype",
        # constants
        "e", "pi", "inf", "nan", "newaxis",
        # creation
        "arange", "asarray", "empty", "empty_like", "eye", "from_dlpack",
        "full", "full_like", "linspace", "meshgrid", "ones", "ones_like",
        "tril", "triu", "zeros", "zeros_like",
        # manipulation
        "broadcast_arrays", "broadcast_to", "concat", "expand_dims",
        "flip", "moveaxis", "permute_dims", "repeat", "reshape", "roll",
        "squeeze", "stack", "tile", "unstack",
        # element-wise
        "abs", "acos", "acosh", "add", "asin", "asinh", "atan", "atan2",
        "atanh", "bitwise_and", "bitwise_left_shift", "bitwise_invert",
        "bitwise_or", "bitwise_right_shift", "bitwise_xor", "ceil",
        "clip", "conj", "copysign", "cos", "cosh", "divide", "equal",
        "exp", "expm1", "floor", "floor_divide", "greater",
        "greater_equal", "hypot", "imag", "isfinite", "isinf", "isnan",
        "less", "less_equal", "log", "log1p", "log2", "log10",
        "logaddexp", "logical_and", "logical_not", "logical_or",
        "logical_xor", "maximum", "minimum", "multiply", "negative",
        "not_equal", "positive", "pow", "real", "remainder", "round",
        "sign", "signbit", "sin", "sinh", "sqrt", "square", "subtract",
        "tan", "tanh", "trunc",
        # indexing / searching / sorting / sets
        "take", "take_along_axis", "argmax", "argmin", "count_nonzero",
        "nonzero", "searchsorted", "where", "argsort", "sort",
        "unique_all", "unique_counts", "unique_inverse", "unique_values",
        # statistical / utility / linear algebra entry points
        "cumulative_sum", "cumulative_prod", "max", "mean", "min", "prod",
        "std", "sum", "var", "all", "any", "diff",
        "matmul", "matrix_transpose", "tensordot", "vecdot",
        # extensions (members are namespace-checked only)
        "linalg", "fft",
        # namespace metadata
        "__array_api_version__", "device", "to_device",
    }
)

_MASK_SOURCES = ("logical_and", "logical_or", "logical_not", "logical_xor",
                 "isnan", "isfinite", "isinf", "equal", "not_equal", "less",
                 "less_equal", "greater", "greater_equal", "any", "all",
                 "signbit")


class ArrayApiPortabilityRule(BaseRule):
    code = "RPR002"
    name = "array-api-portability"
    rationale = (
        "Kernel modules (simulation/compile.py, batch.py, breakdown.py) "
        "run on NumPy and array-api-strict.  xp.* calls must come from the "
        "array API standard surface, xp-derived arrays must never be "
        "integer-fancy-indexed (use xp.take) nor updated in place "
        "(functional updates only); host-side NumPy buffers are exempt."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.rel not in KERNEL_MODULES:
            return
        yield from self._check_xp_attrs(ctx, ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    # -- xp.<name> surface ---------------------------------------------
    def _check_xp_attrs(
        self, ctx: FileContext, root: ast.AST
    ) -> Iterable[Finding]:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "xp"
                and node.attr not in ARRAY_API_NAMES
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    f"xp.{node.attr} is not part of the array API "
                    "standard surface; the kernel must stick to the "
                    "portable subset",
                )

    # -- per-function dataflow -----------------------------------------
    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        derived: set[str] = set()
        masks: set[str] = set()
        for node in _walk_scope(func):
            if isinstance(node, ast.Assign) and len(node.targets) >= 1:
                names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if not names:
                    continue
                if _is_host_boundary(node.value):
                    # be.to_numpy(...) crosses to a host NumPy buffer;
                    # host arrays may be fancy-indexed freely
                    derived.difference_update(names)
                    masks.difference_update(names)
                elif self._is_mask_expr(node.value, masks):
                    masks.update(names)
                    derived.update(names)
                elif self._is_xp_expr(node.value, derived):
                    derived.difference_update(names)
                    masks.difference_update(names)
                    derived.update(names)
                else:
                    derived.difference_update(names)
                    masks.difference_update(names)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(ctx, node, derived, masks)

    def _is_xp_expr(self, node: ast.expr, derived: set[str]) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and (
                sub.id == "xp" or sub.id in derived
            ):
                return True
        return False

    def _is_mask_expr(self, node: ast.expr, masks: set[str]) -> bool:
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            return self._is_mask_expr(node.operand, masks)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)
        ):
            return self._is_mask_expr(node.left, masks) or self._is_mask_expr(
                node.right, masks
            )
        if isinstance(node, ast.Name):
            return node.id in masks
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "xp"
            ):
                if func.attr in _MASK_SOURCES:
                    return True
                if func.attr == "astype" and _casts_to_bool(node):
                    return True
            # mask-ness survives conversions: be.asarray(mask, dtype=b1)
            # and friends stay boolean if any argument is a mask
            if any(self._is_mask_expr(arg, masks) for arg in node.args):
                return True
        return False

    def _check_subscript(
        self,
        ctx: FileContext,
        node: ast.Subscript,
        derived: set[str],
        masks: set[str],
    ) -> Iterable[Finding]:
        base = node.value
        if not (isinstance(base, ast.Name) and base.id in derived):
            return
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            yield ctx.finding(
                self.code,
                node,
                f"in-place update of xp array {base.id!r}; the kernel "
                "updates arrays functionally (xp.where / rebuild)",
            )
            return
        index_parts = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        for part in index_parts:
            if self._is_integer_index(part, derived, masks):
                yield ctx.finding(
                    self.code,
                    node,
                    f"integer fancy indexing on xp array {base.id!r}; "
                    "the array API standard only guarantees boolean "
                    "masks and xp.take",
                )
                return

    def _is_integer_index(
        self, node: ast.expr, derived: set[str], masks: set[str]
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id in derived and node.id not in masks
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "xp"
            ):
                if func.attr == "arange":
                    return True
                if func.attr == "astype" and not _casts_to_bool(node):
                    return True
        return False


def _is_host_boundary(node: ast.expr) -> bool:
    """``<backend>.to_numpy(...)`` — the result is a host NumPy array."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_numpy"
    )


def _walk_scope(func: ast.AST) -> Iterable[ast.AST]:
    """Depth-first pre-order traversal == source order (ast.walk is BFS,
    which would let a later assignment shadow an earlier subscript use in
    the dataflow tracking above).  Nested function definitions are not
    descended into: each gets its own fresh-scope ``_check_function``
    pass from ``check_file``."""

    def inner(node: ast.AST) -> Iterable[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from inner(child)

    yield func
    for child in ast.iter_child_nodes(func):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from inner(child)


def _casts_to_bool(call: ast.Call) -> bool:
    """``xp.astype(a, xp.bool)`` — second positional or dtype= keyword."""
    dtype: ast.expr | None = None
    if len(call.args) >= 2:
        dtype = call.args[1]
    for kw in call.keywords:
        if kw.arg == "dtype":
            dtype = kw.value
    return (
        isinstance(dtype, ast.Attribute)
        and dtype.attr == "bool"
    )
