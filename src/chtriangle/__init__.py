"""Complex hyperbolic triangle groups with an ideal corner.

Construction of the (m, n, ideal) triangle group families, trace-based
isometry classification in SU(2,1), Heisenberg boundary geometry with the
Cygan metric and Ford isometric spheres, three non-discreteness
certificates with interval scans over the angular invariant, and an exact
cyclotomic refutation engine for finite-order elliptic traces.

The public names resolve on first use (PEP 562), each from the module
that defines it, so importing the package loads no submodule and no
numpy; the closed forms and the criteria run without numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: the submodules exported by name
_SUBMODULES = ("criteria", "cyclotomic", "heisenberg", "linalg", "triangles")

#: each other public name, by the submodule that defines it
_EXPORTS = {
    "classify": ("Classification", "classify", "trace"),
    "closed": ("IsometryClass", "discriminant", "trace_word_123", "trace_word_3132"),
    "criteria": (
        "NondiscretenessReport", "ScanResult", "TableResult", "jorgensen_condition",
        "nondiscreteness_report", "order_k_locus", "regular_elliptic_criterion",
        "reproduce_table", "scan_intervals", "shimizu_condition", "word_3132_analysis",
        "word_order_cos_window",
    ),
    "cyclotomic": (
        "CandidateTrace", "CyclotomicInt", "RefutationReport", "euler_phi",
        "phi_inequality", "refute_finite_order", "trace_circle_rightmost",
    ),
    "heisenberg": (
        "HeisenbergPoint", "IsometricSphere", "boundary_action", "cygan_distance",
        "heis_inverse", "heis_mul", "heis_norm", "heisenberg_translation",
        "isometric_sphere", "shimizu_violation",
    ),
    "linalg": (
        "INFINITY", "cvector", "form_inverse", "hermitian_form", "involution_from_polar",
        "is_unitary_for_form", "normalize_to_su", "psi",
    ),
    "triangles": ("TriangleGroup", "TriangleType", "build_mn_inf", "build_n_inf_inf"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOMES, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Loading a submodule binds it on the package under its own name.
    For the classify submodule that name is the public function, so that
    binding is skipped and `chtriangle.classify` stays the function."""

    def __setattr__(self, name, value):
        if name == "classify" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
