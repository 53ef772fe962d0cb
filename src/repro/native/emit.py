"""C source generation for the native tier.

Two kinds of source come out of here, both compiled through
:mod:`repro.native.jit`:

* :func:`chain_source` — one kernel per (chain, input-signature)
  specialization: a single ``for`` loop computing every step of a raw
  map chain over the input buffers.  Values only — presence masks never
  influence values (``IsPresent`` is excluded from chains), so masks are
  combined on the Python side with the exact shared-mask semantics of
  :func:`repro.compiler.rt_fast.fused_binary`.
* :func:`fold_library_source` — the fixed library of uniform-run fold
  kernels mirroring :mod:`repro.compiler.kernels` (sequential float
  accumulation order preserved; compiled once per machine, ever).

Bit-identity notes baked into the lowering: signed overflow wraps
(``-fwrapv``), ``Divide``/``Modulo`` replicate NumPy's zero-guard and
flooring exactly (including the ``INT_MIN / -1`` wrap), comparisons
promote through ``np.result_type``, and float expressions are emitted in
NumPy's evaluation order — the compiler may not reorder them without
``-ffast-math``, which we never pass.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.clower import BINARY_C, C_LOOP, c_literal, ctype_of

_HEADER = "#include <stdint.h>\n#include <stddef.h>\n#include <math.h>\n"

_COMPARISONS = frozenset(
    {"Greater", "GreaterEqual", "Less", "LessEqual", "Equals", "NotEquals"}
)
_LOGICALS = frozenset({"LogicalAnd", "LogicalOr"})
_WRAPPING = frozenset({"Add", "Subtract", "Multiply"})


class EmitError(Exception):
    """The chain cannot be lowered for this input signature."""


def _operand(ref, in_scalar, in_dtypes, step_dtypes):
    """(C expression, numpy dtype) of one step operand."""
    kind = ref[0]
    if kind == "in":
        k = ref[1]
        return (f"in{k}" if in_scalar[k] else f"in{k}[i]"), in_dtypes[k]
    if kind == "step":
        return f"v{ref[1]}", step_dtypes[ref[1]]
    _, dtype, value = ref
    return c_literal(dtype, value), np.dtype(dtype)


def _binary_stmts(j, fn, a, adt, b, bdt, out_dtype):
    """C statements assigning ``v{j}`` with NumPy-exact semantics."""
    if fn in _COMPARISONS:
        ct = ctype_of(np.result_type(adt, bdt))
        return [f"uint8_t v{j} = (({ct})({a}) {BINARY_C[fn]} ({ct})({b}));"]
    if fn in _LOGICALS:
        return [f"uint8_t v{j} = ((({a}) != 0) {BINARY_C[fn]} (({b}) != 0));"]
    ot = ctype_of(out_dtype)
    if fn in _WRAPPING:
        return [f"{ot} v{j} = ({ot})((({ot})({a})) {BINARY_C[fn]} (({ot})({b})));"]
    if fn == "Divide":
        lines = [f"{ot} a{j} = ({ot})({a});", f"{ot} b{j} = ({ot})({b});"]
        if out_dtype.kind == "f":
            # np.where(b == 0, 0.0, a / b) in the promoted dtype
            lines.append(
                f"{ot} v{j} = (b{j} == 0) ? ({ot})0 : ({ot})(a{j} / b{j});"
            )
            return lines
        # floored a // np.where(b == 0, 1, b); INT_MIN / -1 wraps to itself
        lines.append(f"{ot} v{j};")
        lines.append(f"if (b{j} == 0) v{j} = a{j};")
        if out_dtype.kind == "i":
            lines.append(f"else if (b{j} == ({ot})-1) v{j} = ({ot})(-a{j});")
            lines.append(
                f"else {{ v{j} = a{j} / b{j}; "
                f"if ((a{j} % b{j} != 0) && ((a{j} < 0) != (b{j} < 0))) "
                f"v{j} -= 1; }}"
            )
        else:
            lines.append(f"else v{j} = a{j} / b{j};")
        return lines
    if fn == "Modulo":
        if out_dtype.kind == "f":
            raise EmitError("float-modulo")
        lines = [
            f"{ot} a{j} = ({ot})({a});",
            f"{ot} b{j} = ({ot})({b});",
            f"{ot} d{j} = (b{j} == 0) ? ({ot})1 : b{j};",
            f"{ot} v{j};",
        ]
        if out_dtype.kind == "i":
            # floored modulo: result takes the divisor's sign
            lines.append(f"if (d{j} == ({ot})-1) v{j} = 0;")
            lines.append(
                f"else {{ v{j} = a{j} % d{j}; "
                f"if (v{j} != 0 && ((v{j} < 0) != (d{j} < 0))) v{j} += d{j}; }}"
            )
        else:
            lines.append(f"v{j} = a{j} % d{j};")
        return lines
    raise EmitError(f"binary-{fn}")


def _unary_stmts(j, fn, a, adt, out_dtype):
    if fn == "LogicalNot":
        return [f"uint8_t v{j} = (({a}) == 0);"]
    ot = ctype_of(out_dtype)
    if fn == "Negate":
        return [f"{ot} v{j} = ({ot})(-(({ot})({a})));"]
    if fn == "Cast":
        if out_dtype.kind == "b":
            return [f"uint8_t v{j} = (({a}) != 0);"]
        return [f"{ot} v{j} = ({ot})({a});"]
    raise EmitError(f"unary-{fn}")


def chain_source(chain, in_dtypes, in_scalar, step_dtypes) -> str:
    """The specialized C kernel of one chain.

    ``in_dtypes``/``in_scalar`` describe the call signature;
    ``step_dtypes`` are the result dtypes the Python fallback produced on
    a zero-length probe (so C agrees with NumPy's promotion for free).
    Raises :class:`EmitError` for signatures the lowering cannot serve.
    """
    for dt in list(in_dtypes) + list(step_dtypes):
        code = dt.kind + str(dt.itemsize)
        if code == "u8":
            # NumPy 2.x compares int64 vs uint64 exactly; C cannot
            raise EmitError("dtype-uint64")
        if code not in ("b1", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "f4", "f8"):
            raise EmitError(f"dtype-{dt.name}")

    params = []
    for k, dt in enumerate(in_dtypes):
        ct = ctype_of(dt)
        params.append(f"{ct} in{k}" if in_scalar[k] else f"const {ct}* in{k}")
    for j in sorted(chain.outputs):
        params.append(f"{ctype_of(step_dtypes[j])}* out{j}")
    params.append("size_t n")

    body = []
    for j, step in enumerate(chain.steps):
        ops_ = [
            _operand(r, in_scalar, in_dtypes, step_dtypes) for r in step.refs
        ]
        if step.kind == "binary":
            (a, adt), (b, bdt) = ops_
            body.extend(_binary_stmts(j, step.fn, a, adt, b, bdt, step_dtypes[j]))
        else:
            ((a, adt),) = ops_
            body.extend(_unary_stmts(j, step.fn, a, adt, step_dtypes[j]))
    for j in sorted(chain.outputs):
        body.append(f"out{j}[i] = v{j};")

    lines = [
        _HEADER,
        "// native chain kernel emitted by repro.native.emit",
        f"void voodoo_chain({', '.join(params)}) {{",
        "  " + C_LOOP,
    ]
    lines.extend("    " + stmt for stmt in body)
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------ fold kernel library

#: float sum value dtypes (double accumulator, like np.bincount)
FSUM_CODES = ("f4", "f8")

_CODE_CT = {"f4": "float", "f8": "double"}


def _fsum(code: str) -> str:
    t = _CODE_CT[code]
    return f"""
void fsum_{code}(const {t}* vals, const int64_t* starts, int64_t m, int64_t k,
                 double* out) {{
  for (int64_t s = 0; s < m; ++s) {{
    int64_t end = s + 1 < m ? starts[s + 1] : k;
    double acc = 0.0;
    for (int64_t i = starts[s]; i < end; ++i) acc += (double)vals[i];
    out[s] = acc;
  }}
}}
"""


def fold_library_source() -> str:
    """The fold kernel library, one fixed source: the float sum of every
    segment of ``k`` present values, added in input order into a double —
    the additions ``np.bincount`` performs, without building its run-id
    vector.  (Selections, integer sums and min/max stay in NumPy, whose
    vectorized ``flatnonzero``/``reduceat`` beat a scalar C loop.)"""
    parts = [_HEADER, "// native fold kernels emitted by repro.native.emit"]
    parts.extend(_fsum(c) for c in FSUM_CODES)
    return "".join(parts)
