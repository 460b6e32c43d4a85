import pytest

from rootclose import report
from rootclose.tower import TowerElem


@pytest.fixture(scope="session")
def example_report():
    """One shared run of the worked-example suite (it is deterministic)."""
    return report.run_example_suite(report.Config(timestamp=False))


@pytest.fixture(scope="session")
def witness_reconstructs():
    """Checks a certificate's truncated witness against the exact power:
    witness * PI^j == num^(p^m) modulo p^Q, j = denom_exp * p^m and
    Q = ceil(j / p^level); an integral element is its own witness."""

    def check(cert) -> bool:
        c, p = cert.elem, cert.elem.ctx.p
        exact = c.num ** p**cert.m
        j = c.denom_exp * p**cert.m
        if j == 0:
            return cert.witness == exact
        mod = p ** -(-j // c.ctx.pi_order)
        pi_j = TowerElem.monomial(c.ctx, j, 0, 0, coeff_mod=mod)
        return cert.witness.coeff_mod == mod and cert.witness * pi_j == exact.reduce_coeffs(mod)

    return check
