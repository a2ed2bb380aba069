"""Split a quasimodular combination into Eisenstein and cuspidal parts.

All the linear algebra lives in from_monomials; once a form is in the
canonical representation the split is projection on the two maps, and
this module's job is to certify by re-expansion that the pieces really
add back up, then hand out the certified pair.
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

    eis_part carries an empty cusp map, cusp_part an empty eis map, and
    their expansions sum to the input's exactly through q^certificate_precision.
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
    canonical basis.  The returned parts are re-expanded and compared
    against the input through the certificate precision; a mismatch would
    mean the canonical representation itself is broken, so it raises
    rather than returning quietly.
    """
    if isinstance(form, dict):
        form = from_monomials(form, n_guard=certificate_precision)
    eis_part = form.eis_part()
    cusp_part = form.cusp_part()
    lhs = eis_part.expand(certificate_precision) + cusp_part.expand(certificate_precision)
    if lhs != form.expand(certificate_precision):
        raise ValueError("split_eis_cusp: parts fail to reconstruct the input")
    return DecompositionResult(eis_part, cusp_part, certificate_precision)
