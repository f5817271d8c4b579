"""Model bundle (profile, coupling law, disorder strength) and its reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import AlloysimError, ValidationError
from .measures import CouplingMeasure, declared_holder, density_norms
from .potential import (
    SingleSitePotential,
    _rate_constants,
    convolution_inverse_norm,
    vanishing_order,
)

__all__ = ["AlloyModel", "constants_report"]


@dataclass(frozen=True)
class AlloyModel:
    """Alloy model: lattice dimension lives on the profile."""

    potential: SingleSitePotential
    measure: CouplingMeasure
    lam: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValidationError("disorder strength must be finite and non-negative")

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    def center_energy(self) -> float:
        """Crude band center: disorder strength times the mean field value."""
        return self.lam * self.potential.total * self.measure.mean()


def _finite_or_none(value: Optional[float], notes: dict, key: str, reason: str):
    if value is None or not math.isfinite(value):
        if key not in notes:
            notes[key] = reason
        return None
    return value


def constants_report(model: AlloyModel, s: float = 0.5) -> dict:
    """JSON-safe report of every derived constant of the model.

    Keys: ``u_bar``, ``c``, ``C``, ``N``, ``C_u``, ``alpha``, ``C1``,
    ``rho_norms`` plus a ``notes`` object explaining each null (undefined or
    infinite quantities are reported as null rather than dropped).
    """
    u = model.potential
    notes: dict[str, str] = {}
    report: dict = {"u_bar": u.total, "notes": notes}

    if u.total > 0 and u.diameter > 0:
        report["c"], report["C"] = _rate_constants(u)
    else:
        report["c"] = report["C"] = None
        notes["c"] = (
            "undefined for a single-point support" if u.diameter == 0
            else "needs a positive coefficient sum"
        )

    try:
        report["N"] = vanishing_order(u).order
    except AlloysimError as exc:
        report["N"] = None
        notes["N"] = str(exc)

    try:
        report["C_u"] = convolution_inverse_norm(u).value
    except AlloysimError as exc:
        report["C_u"] = None
        notes["C_u"] = str(exc)

    try:
        alpha, c1 = declared_holder(model.measure)
        report["alpha"], report["C1"] = alpha, c1
    except AlloysimError as exc:
        report["alpha"] = report["C1"] = None
        notes["alpha"] = str(exc)

    try:
        norms = density_norms(model.measure)
        report["rho_norms"] = {
            "grad_l1": _finite_or_none(norms.grad_l1, notes, "rho_norms.grad_l1", "infinite"),
            "hess_l1": _finite_or_none(norms.hess_l1, notes, "rho_norms.hess_l1",
                                       "second derivative is not a finite measure"),
            "total_variation": _finite_or_none(norms.total_variation, notes,
                                               "rho_norms.total_variation", "infinite"),
        }
    except AlloysimError as exc:
        report["rho_norms"] = None
        notes["rho_norms"] = str(exc)

    report["s"] = s
    return report
