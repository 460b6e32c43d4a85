"""Every entry of the invariant table that ``rootclose props`` runs,
each on its own generator at a few seeds."""

import hashlib
import random

import pytest

from rootclose import invariants, witt
from rootclose.invariants import FAIL, INVARIANTS


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("fn", [fn for _, fn in INVARIANTS], ids=[name for name, _ in INVARIANTS])
def test_invariant(fn, seed):
    details = fn(random.Random(seed))
    assert details.get("_status") != FAIL, details


class _Recording(random.Random):
    """Hashes every draw, in order: the bits asked for and the value."""

    def __init__(self, seed):
        self.digest = hashlib.sha256()
        super().__init__(seed)

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.digest.update(f"{k}:{value};".encode())
        return value


def test_draws_match_the_recorded_digest():
    # `props` output holds counts, not samples, so it cannot see a change
    # in what the table draws; this digest of every draw on one shared
    # generator at seed 0 can
    rng = _Recording(0)
    for _, fn in INVARIANTS:
        fn(rng)
    assert rng.digest.hexdigest() == (
        "014c9fcfb8e19320e299b9200ab1142635762fbd5d288c0f54982fa7d1be2a41"
    )


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_witt_ghost_catches_a_moved_exact_coordinate(monkeypatch, seed):
    # the exact path (integers lifted to the tower ring over Z) with
    # coordinate 1 of every result moved by one: the invariant runs that
    # path, so it must fail
    lifted_op = witt._lifted_op

    def moved(op, xs, ys, p):
        out = lifted_op(op, xs, ys, p)
        if out[0].coeff_mod is None:
            out[1] = out[1] + 1
        return out

    monkeypatch.setattr(witt, "_lifted_op", moved)
    details = invariants.witt_ghost(random.Random(seed))
    assert details.get("_status") == FAIL, details
