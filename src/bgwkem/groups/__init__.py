"""Pairing group backends: an exponent-trace mock and a supersingular curve."""

from ..errors import ParameterError, quote
from .base import BilinearGroup, GElement, GTElement
from .curve import CurveGroup, CurveParams, make_curve_group
from .mock import MockGroup, make_mock_group

# Parameter names of each backend, in the order describe() prints them.
_PARAMETER_NAMES = {"mock": ("p",), "curve": ("q", "p")}


def make_group(backend: str, /, **params) -> BilinearGroup:
    """The group a ``describe()`` string names, e.g. make_group("curve", q=59, p=5).

    Raises ParameterError for an unknown backend, a missing or extra
    parameter, or parameters the backend rejects.
    """
    names = _PARAMETER_NAMES.get(backend)
    if names is None:
        raise ParameterError(f"unknown backend {quote(backend)}")
    if params.keys() != set(names):
        expected = " ".join(f"{name}=<prime>" for name in names)
        raise ParameterError(
            f"{backend} backend expects {expected}, got {quote(', '.join(sorted(params)))}"
        )
    if backend == "mock":
        return make_mock_group(params["p"])
    return make_curve_group(CurveParams(**params))


__all__ = [
    "BilinearGroup",
    "GElement",
    "GTElement",
    "MockGroup",
    "make_mock_group",
    "CurveGroup",
    "CurveParams",
    "make_curve_group",
    "make_group",
]
