"""Generated integer conv/linear kernels, cached in the codegen cache.

Like the float traced path (:mod:`repro.infer.kernels`), the integer hot
loops are *generated*: one Python function per (op kind, structural flags),
compiled once and cached process-wide in
:data:`repro.infer.kernels.KERNEL_CACHE` under an ``intq`` impl tag — so
int8 plans share the same cache, hit/miss counters and ``/metrics``
surfacing as the float compiler.

Each kernel is one integer matmul against the ``w_int`` matrix decoded from
the packed shift codes, then the requantization epilogue: the per-channel
multiplier+shift requantization (:mod:`repro.infer.intq.requant`) brings
the accumulator onto the layer's calibrated output grid, then the folded
bias (``GB``) and the dead-input bias map (``DMAP``) — both pre-rounded
onto that *output* grid, where one LSB is ``2**(1-MID_BITS)`` of the layer
range — are added as integer constants.  Any per-channel value a float
path would multiply or add in (BN scale, biases, pruned-channel constants)
lives inside those integer constants — the kernels contain no float
arithmetic at all.
"""

from __future__ import annotations

import numpy as np

from repro.infer.kernels import KERNEL_CACHE, KernelSpec

__all__ = ["bind_int_kernel"]


def _build_source(const_names: list[str], lines: list[str]) -> str:
    src = ["def _factory(C):"]
    src.extend(f"    {name} = C[{name!r}]" for name in const_names)
    src.append("    def kernel(x, acc, acc64, out):")
    src.extend("        " + line for line in lines)
    src.append("    return kernel")
    return "\n".join(src) + "\n"


def _epilogue_lines(flags: tuple, cast: bool) -> list[str]:
    """The shared int64 requant epilogue; assumes ``acc`` holds the MAC sum."""
    lines = []
    if cast:
        lines.append("np.copyto(acc64, acc)")
    lines += [
        "np.multiply(acc64, M0, out=acc64)",
        "np.add(acc64, RND, out=acc64)",
        "np.right_shift(acc64, SH, out=acc64)",
    ]
    if "dead" in flags:
        lines.append("np.add(acc64, DMAP, out=acc64)")
    if "gb" in flags:
        lines.append("np.add(acc64, GB, out=acc64)")
    lines.append("np.copyto(out, acc64)")
    return lines


def bind_int_kernel(kind: str, shape: tuple, acc_dtype: np.dtype, flags: tuple, consts: dict):
    """Fetch (compiling on first use) the generated kernel for one int op.

    Args:
        kind: ``"conv"`` (``W @ x`` orientation) or ``"linear"``
            (``x @ W``).
        shape: Shape signature for the cache key (batch, layer and output
            geometry) — the source itself depends only on the structure.
        acc_dtype: MAC accumulator dtype (int32 when the static bound
            allows it, else int64).
        flags: Structural source flags out of ``("dead", "gb")``.
        consts: Bind-time constant arrays (``W``, ``M0``, ``RND``, ``SH``,
            optional ``DMAP``/``GB``).

    Returns:
        ``kernel(x, acc, acc64, out)`` — a compiled closure over
        ``consts``; ``acc64`` may alias ``acc`` when the accumulator is
        already int64.
    """
    cast = np.dtype(acc_dtype) != np.dtype(np.int64)
    mac = "np.matmul(W, x, out=acc)" if kind == "conv" else "np.matmul(x, W, out=acc)"
    const_names = ["W", "M0", "RND", "SH"]
    if "dead" in flags:
        const_names.append("DMAP")
    if "gb" in flags:
        const_names.append("GB")
    spec = KernelSpec(
        kind=kind,
        impl="intq",
        shape=tuple(shape),
        dtype=str(np.dtype(acc_dtype)),
        flags=tuple(sorted(flags)) + (("cast",) if cast else ()),
        epilogue=(("rq",),),
    )
    source = _build_source(const_names, [mac] + _epilogue_lines(flags, cast))
    return KERNEL_CACHE.get(spec, source)(consts)
