"""Split a quasimodular combination into Eisenstein and cuspidal parts.

The linear algebra and its certificate live in from_monomials; once a form
is in the canonical representation the split is projection on its two maps.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .forms import QuasiForm, from_monomials

__all__ = ["DecompositionResult", "split_eis_cusp"]


class DecompositionResult(
    namedtuple("DecompositionResult", "eis_part cusp_part certificate_precision")
):
    """Eisenstein and cuspidal parts plus the precision of the certificate.

    eis_part carries an empty cusp map, cusp_part an empty eis map; they split
    the terms of the input's canonical representation (from_monomials certifies
    it), so their expansions sum to the input's at every precision.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "eis_part": self.eis_part.to_dict(),
            "cusp_part": self.cusp_part.to_dict(),
            "certificate_precision": self.certificate_precision,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "DecompositionResult":
        return cls(
            eis_part=QuasiForm.from_dict(data["eis_part"]),
            cusp_part=QuasiForm.from_dict(data["cusp_part"]),
            certificate_precision=int(data["certificate_precision"]),
        )


def split_eis_cusp(form, certificate_precision: int = 60) -> DecompositionResult:
    """Project a QuasiForm (or generator-monomial dict) onto 𝓔 and 𝓢.

    A plain dict keyed by generator exponents is first rewritten in the
    canonical basis by from_monomials, which raises rather than return a
    representation its exact solve does not certify.  The parts are the
    two maps of the representation, so nothing is expanded here.
    """
    if certificate_precision < 0:
        raise ValueError(f"split_eis_cusp: certificate precision {certificate_precision} < 0")
    if isinstance(form, dict):
        form = from_monomials(form)
    return DecompositionResult(form.eis_part(), form.cusp_part(), certificate_precision)
