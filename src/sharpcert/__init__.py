"""Exact certificates for sharp spherical Fourier extension constants."""

from .backend import BACKEND, rat, rat_str
from .errors import (
    MalformedCertificate,
    PrecisionExhausted,
    SchemeInfeasible,
)
from .polys import ExactPoly, NonnegCertificate
from .scalars import ExactScalar
from .scheme import Certificate, compute_a_star, ell_star, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Certificate",
    "ExactPoly",
    "ExactScalar",
    "MalformedCertificate",
    "NonnegCertificate",
    "PrecisionExhausted",
    "SchemeInfeasible",
    "compute_a_star",
    "ell_star",
    "rat",
    "rat_str",
    "verify_certificate",
]
