"""The error contract of ``cybe.errors``: public functions report a bad
argument as a ``CybeError``, never as a bare ValueError."""

import numpy as np
import pytest

from cybe import (CouplingConstants, InvalidSpec, build_chain,
                  couplings_from_coeffs, curve_residuals, hamiltonian_coeffs,
                  make_family, tensor_embed)
from cybe.classify import elliptic_ff_identities
from cybe.spinchain import export_matrix

from conftest import baxter_elliptic_spec, ff_elliptic_spec


def _unknown_branch():
    fam = make_family(ff_elliptic_spec())
    curve_residuals(fam, hamiltonian_coeffs(fam, np.linspace(-0.45, 0.45, 12)),
                    [], "ode")


@pytest.mark.parametrize("call, message", [
    (lambda tmp: couplings_from_coeffs(np.zeros(7)),
     "need the eight coefficients m1..m8"),
    (lambda tmp: export_matrix(build_chain(CouplingConstants(1, 0, 0, 0), 2),
                               str(tmp / "h.txt"), "txt"),
     "unknown export format 'txt'"),
    (lambda tmp: tensor_embed(np.eye(4), 13), "slot must be 12 or 23"),
    (lambda tmp: _unknown_branch(), "unknown branch 'ode'"),
    (lambda tmp: elliptic_ff_identities(make_family(baxter_elliptic_spec()),
                                        []),
     "elliptic_ff_identities needs an elliptic or tanh free-fermion family"),
], ids=["couplings_from_coeffs", "export_matrix", "tensor_embed",
        "curve_residuals", "elliptic_ff_identities"])
def test_bad_arguments_are_invalid_specs(call, message, tmp_path):
    with pytest.raises(InvalidSpec) as exc:
        call(tmp_path)
    assert str(exc.value) == message

