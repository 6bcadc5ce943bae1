"""Tiered hot-path kernels with runtime dispatch.

Public surface::

    from repro import kernels

    with kernels.kernel_tier("compiled"):
        ...  # engines route downdates/gains/convolutions through the
             # compiled backend (numba if importable, else cffi + cc)

Tiers: ``numpy`` (default, the original inline expressions) and ``compiled``
(numba or cffi/C; warns once and behaves like numpy when neither backend is
available).  Environment variables
``REPRO_KERNEL``, ``REPRO_KERNEL_DTYPE``, ``REPRO_KERNEL_BACKEND`` and
``REPRO_KERNEL_CACHE`` configure tier, working precision, compiled-backend
preference and the compilation cache directory.
"""

from repro.kernels.dispatch import (
    TIERS,
    banded_downdate,
    compiled_available,
    compiled_backend,
    compiled_unavailable_reason,
    conditional_gains,
    convolve_support,
    effective_tier,
    environment_metadata,
    get_kernel_dtype,
    get_kernel_tier,
    kernel_dtype,
    kernel_tier,
    marginal_gains,
    normal_surprise_scores,
    outer_downdate,
    set_kernel_dtype,
    set_kernel_tier,
)

__all__ = [
    "TIERS",
    "kernel_tier",
    "kernel_dtype",
    "set_kernel_tier",
    "get_kernel_tier",
    "set_kernel_dtype",
    "get_kernel_dtype",
    "effective_tier",
    "compiled_available",
    "compiled_backend",
    "compiled_unavailable_reason",
    "environment_metadata",
    "outer_downdate",
    "banded_downdate",
    "convolve_support",
    "normal_surprise_scores",
    "conditional_gains",
    "marginal_gains",
]
