"""z-resolved collapsed and collapse-free density matrices and coherence.

The z marginals come from the exact x/y factorization of the closed-form
field, and the branch factors are Gaussians of one width, so neither the
matrices nor the coherence need quadrature.  The coherence measure is the
integrated magnitude of the off-diagonal entry (an L1 norm): simple,
monotone in branch separation, and equal to |chi_+ chi_-| when the branches
overlap completely.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .analytic import SpinorField
from .core import Branch
from .errors import InvalidParameterError

Variant = Literal["collapsed", "collapse_free"]


def coherence_norm(field: SpinorField) -> float:
    """Integrated off-diagonal magnitude: int dz |h_+^*(z) h_-(z)| * |chi_+ chi_-|.

    |h_+| and |h_-| are Gaussians of the same amplitude width w whose centers
    are d apart, so the integral is exp(-d^2 / (4 w^2)).
    """
    d = field.branch_center(Branch.PLUS) - field.branch_center(Branch.MINUS)
    weight = abs(field.packet.chi_plus) * abs(field.packet.chi_minus)
    return weight * math.exp(-d * d / (4.0 * field.width ** 2))


def density_sweep(field: SpinorField, z_values: np.ndarray, variant: Variant) -> np.ndarray:
    """Spin density matrices at each z in z_values, as an (N, 2, 2) array.

    The diagonal is each branch's ``field.branch_density``, the one z
    density formula, times its spinor weight, so its trace is
    field.z_marginal_density(z).  collapse_free keeps the
    phi_+^* phi_- chi_+^* chi_- off-diagonal term; collapsed zeroes it while
    keeping the identical diagonal.
    """
    if variant not in ("collapsed", "collapse_free"):
        raise InvalidParameterError(f"unknown variant {variant!r}")
    z = np.asarray(z_values, float)
    cp, cm = field.packet.chi_plus, field.packet.chi_minus
    rho = np.zeros((len(z), 2, 2), dtype=complex)
    rho[:, 0, 0] = field.branch_density(Branch.PLUS.deflection_sign, z) * abs(cp) ** 2
    rho[:, 1, 1] = field.branch_density(Branch.MINUS.deflection_sign, z) * abs(cm) ** 2
    if variant == "collapse_free":
        hp = field.z_factor(Branch.PLUS.deflection_sign, z)
        hm = field.z_factor(Branch.MINUS.deflection_sign, z)
        rho[:, 0, 1] = np.conj(hp) * hm * np.conj(cp) * cm
        rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    return rho
