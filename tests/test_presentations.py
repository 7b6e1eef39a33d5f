"""One convention, every presentation: a level-n verdict is "defect at most
1/n", and the same question about the same group gets the same answer
whether Z is ``zd:1``, ``free:1``, ``CEView(zd:1)`` or ``redundant-z``
(with its elements spelled as powers of x or of y), and Z^2 is ``zd:2`` or
``CEView(zd:2)``.  The examples sit on the tie, where the defect is
exactly 1/n."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folnerlab import Budget, make_group
from folnerlab.cli import main
from folnerlab.folner import (
    ReiterFunction,
    decide_mult_from_folner,
    extract_folner_from_reiter,
    folner_function,
    is_n_folner,
    search_folner,
    verify_invariance_ce,
)
from folnerlab.groups import CEView

Z1 = make_group("zd:1")
F1 = make_group("free:1")
Z2 = make_group("zd:2")
RZ = make_group("redundant-z")


def _reiter_check(g, f, d, n):
    """The verdict of ``reiter-check`` on f, the shift by the literal d and n."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(f.to_json_dict()))
        code = main(["reiter-check", "--group", g.spec, "--d=" + d, "--n", str(n),
                     "--fn", str(path), "--json"])
    assert code == 0
    return json.loads(out.getvalue())["invariant"]


def _ce_verdict(g, f, D, n):
    verdict = verify_invariance_ce(g, n, D, f, Budget(10**6))
    assert verdict in ("INVARIANT", "NOT_INVARIANT")
    return verdict == "INVARIANT"


def _power(g, letter, k):
    """The code of the word l^k, for l the given letter and letter + 1 its
    inverse."""
    return g.encode_word((letter,) * k if k >= 0 else (letter + 1,) * -k)


def _x_power(k):
    """The redundant-z code of the word x^k (letter 0 is x, 1 is x^-1)."""
    return RZ.encode_word((0,) * k if k >= 0 else (1,) * -k)


def _y_power(k):
    """The redundant-z code of the word y^k (letter 2 is y, 3 is y^-1)."""
    return _power(RZ, 2, k)


def _a_power(k):
    """The free:1 code of the word a^k (letter 0 is a, 1 is a^-1)."""
    return _power(F1, 0, k)


def _function(encode, values):
    return ReiterFunction(tuple(encode(v) for v in values),
                          {encode(v): Fraction(q) for v, q in values.items()})


@settings(max_examples=150, deadline=None)
@given(values=st.dictionaries(st.integers(-3, 3), st.integers(1, 3), min_size=1),
       d=st.integers(-2, 2), n=st.integers(1, 6))
@example(values={0: 1, 1: 1}, d=1, n=1)
def test_z_presentations_agree(values, d, n):
    z = lambda k: Z1.encode_vector((k,))
    f = _function(z, values)
    on_zd = _reiter_check(Z1, f, "%d" % d, n)
    on_view = _ce_verdict(CEView(Z1), f, (z(d),), n)
    on_rz = _ce_verdict(RZ, _function(_x_power, values), (_x_power(d),), n)
    assert on_zd == on_view == on_rz


@settings(max_examples=150, deadline=None)
@given(values=st.dictionaries(st.integers(-3, 3), st.integers(1, 3), min_size=1),
       d=st.integers(-2, 2), n=st.integers(1, 6))
@example(values={0: 1, 1: 1}, d=1, n=1)
def test_kappa_x_and_y_spellings_agree(values, d, n):
    on_x = _ce_verdict(RZ, _function(_x_power, values), (_x_power(d),), n)
    f_y = _function(_y_power, values)
    assert _ce_verdict(RZ, f_y, (_x_power(d),), n) == on_x
    assert _ce_verdict(RZ, f_y, (_y_power(d),), n) == on_x


@pytest.mark.parametrize("shifts", [(1,), (1, -1), (2,)])
def test_zd1_and_free1_agree(shifts):
    """Z as ``zd:1`` and as ``free:1``: the same minimum Folner sizes, the
    same sizes of the first certificate found, and the same verdicts and
    defects on intervals."""
    z = lambda k: Z1.encode_vector((k,))
    D_zd = [z(d) for d in shifts]
    D_free = [_a_power(d) for d in shifts]
    for n in range(1, 7):
        assert folner_function(Z1, D_zd, n, Budget(10**6)) == folner_function(
            F1, D_free, n, Budget(10**6))
        cert_zd = search_folner(Z1, D_zd, n, Budget(10**6))
        cert_free = search_folner(F1, D_free, n, Budget(10**6))
        assert len(cert_zd.F) == len(cert_free.F)
        for start in range(-3, 3):
            for size in range(1, 9):
                interval = range(start, start + size)
                ok_zd, defects_zd = is_n_folner(Z1, map(z, interval), D_zd, n)
                ok_free, defects_free = is_n_folner(
                    F1, map(_a_power, interval), D_free, n)
                assert ok_zd == ok_free
                assert [defects_zd[x] for x in D_zd] == [
                    defects_free[x] for x in D_free]


@settings(max_examples=100, deadline=None)
@given(values=st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                              st.integers(1, 3), min_size=1),
       d=st.tuples(st.integers(-2, 2), st.integers(-2, 2)), n=st.integers(1, 6))
@example(values={(0, 0): 1, (1, 0): 1}, d=(1, 0), n=1)
def test_z2_presentations_agree(values, d, n):
    f = _function(Z2.encode_vector, values)
    on_zd = _reiter_check(Z2, f, "(%d,%d)" % d, n)
    assert on_zd == _ce_verdict(CEView(Z2), f, (Z2.encode_vector(d),), n)


def test_word_problem_from_intervals_at_the_tie():
    """Four consecutive integers are 4-Folner for shifts in {-1, 0, 1}, with
    defect exactly 1/4 under +1 and -1; each of the 27 triples is decided
    correctly with each of four such intervals."""
    g = CEView(Z1)
    z = lambda k: Z1.encode_vector((k,))
    for start in range(-2, 2):
        F = tuple(z(k) for k in range(start, start + 4))
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    equal = decide_mult_from_folner(
                        g, lambda n, D: F, z(a), z(b), z(c), Budget(10**6))
                    assert equal == (a + b == c), (start, a, b, c)


def test_extraction_at_the_tie():
    """f = 1 on {0, +1} has l1 defect exactly 1 under +1: within 1/n at
    n = 1, and its support is a level set with defect 1/2 = |D|/(2n)."""
    f = ReiterFunction.characteristic((Z1.encode_vector((0,)), Z1.encode_vector((1,))))
    assert extract_folner_from_reiter(Z1, f, (Z1.encode_vector((1,)),), 1) == (0, 1)
