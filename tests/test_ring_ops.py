"""The operators ``tower.RingOps`` derives (``x - y``, ``k + x``, ``k * x``
and ``k - x``) obey their laws on every ring type: tower elements over
Z, F_p and Z/p^2, integral and fractional ``LocalElem``s, and plain and
certified sequences."""

from unittest import mock

from hypothesis import find, given, settings
from hypothesis import strategies as st

from rootclose import fontaine
from rootclose.closure import LocalElem, as_local
from rootclose.fontaine import CERTIFIED, PLAIN, FontaineElem
from rootclose.tower import QUOTIENT, RingOps, TowerElem, context

P = 5
CTX = context(P, 1, 3, QUOTIENT)


def tower_terms(span=6, coeff=9):
    term = st.tuples(*[st.integers(0, span)] * 3, st.integers(-coeff, coeff))
    return st.lists(term, max_size=4).map(lambda ts: {(a, b, c): v for a, b, c, v in ts})


def tower_elems(coeff_mod, ctx=CTX):
    return tower_terms().map(lambda terms: TowerElem(ctx, terms, coeff_mod))


def local_elems():
    return st.builds(LocalElem, tower_elems(None), st.integers(0, 3))


@st.composite
def plain_seqs(draw, depth):
    """Component i is one F_p combination of PI^a X^b Y^c at level i,
    whose p-th power is component i - 1: a compatible sequence."""
    terms = draw(tower_terms(span=3, coeff=P - 1))
    return FontaineElem(
        [TowerElem(context(P, i, 3, QUOTIENT), terms, P) for i in range(depth + 1)], PLAIN
    )


@st.composite
def certified_seqs(draw, depth):
    """A plain sequence with each component lifted or replaced by a
    PI-power fraction at its level (certified mode decides no
    compatibility at construction).  Residues stay out: a residue paired
    with a LocalElem is lifted by ``closure.aligned``, and the lift of -r
    is another representative of minus the lift of r."""
    comps = []
    for comp in draw(plain_seqs(depth)).comps:
        if draw(st.booleans()):
            comp = LocalElem(draw(tower_elems(None, comp.ctx)), draw(st.integers(0, 3)))
        comps.append(as_local(comp))
    return FontaineElem(comps, CERTIFIED)


@st.composite
def cases(draw):
    """(x, y, k): two elements of one ring type and an integer."""
    depth = draw(st.integers(1, 2))
    elems = draw(
        st.sampled_from(
            [
                tower_elems(None),
                tower_elems(P),
                tower_elems(P * P),
                local_elems(),
                plain_seqs(depth),
                certified_seqs(depth),
            ]
        )
    )
    return draw(elems), draw(elems), draw(st.integers(-12, 12))


def _laws_hold(x, y, k) -> bool:
    """The derived operators' laws, each result of x's type.  A certified
    comparison of identical representatives has delta zero, so it runs
    no congruence search: a search is a failure here."""
    laws = [
        (x - y, x + (-y)),
        (y - x, -(x - y)),
        (k + x, x + k),
        (k * x, x * k),
        (k - x, (-x) + k),
    ]
    with mock.patch.object(fontaine, "_p_closure_cert", wraps=fontaine._p_closure_cert) as search:
        equal = all(type(a) is type(b) is type(x) and a == b for a, b in laws)
    return equal and not search.called


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_the_derived_operators_obey_their_laws(case):
    assert _laws_hold(*case)


def test_negative_control_a_reflected_difference_that_forgets_to_reflect(monkeypatch):
    monkeypatch.setattr(RingOps, "__rsub__", lambda self, other: self - other)
    find(
        cases(),
        lambda case: not _laws_hold(*case),
        settings=settings(derandomize=True, database=None, max_examples=40),
    )
