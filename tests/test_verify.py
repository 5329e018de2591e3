"""verify's checks against one-line sign faults: in the face enumeration
that every bar-side differential is built on, and in the signs of the
comparison map and of the chain/cochain duality that the BV operator
reads."""

import functools
import inspect
import random
import textwrap

import pytest

from hhkt import bar, bv, koszul_tate, verify
from hhkt.algebra import InternalConsistencyError
from hhkt.bar import COEFF_DUAL, COEFF_SELF, compute_hh_window
from hhkt.bigraded import DegreeWindow

# (fault, module, qualified name, source text, its faulty replacement)
SIGN_FAULTS = [
    ("first_face", bar, "bar_faces", "yield word[0], word[1:], one, 1",
     "yield word[0], word[1:], one, -1"),
    ("inner_face", bar, "bar_faces", "sgn * c", "-sgn * c"),
    ("last_face", bar, "bar_faces", "1 if eps % 2 else -1",
     "-1 if eps % 2 else 1"),
    ("suspension", bar, "bar_faces", "A.mono_degree(word[i - 1]) - 1",
     "A.mono_degree(word[i - 1])"),
    ("left_slot", bar, "_coboundary_faces", "s = -s", "pass"),
]

IOTA_SIGN = "-1 if (A.mono_degree(a0) * word_suspension(A, word)) % 2 else 1"
BV_SIGN_FAULTS = [
    ("iota_sign", bv, "_iota_sign", IOTA_SIGN, "1"),
    ("lr_sign", koszul_tate, "XiLift.cochain", "c = -c", "pass"),
]


def _faulty(module, qualname, old, new):
    """(owner, name, function) for monkeypatch.setattr: module.<qualname>,
    a function or a method, recompiled in the module's namespace with the
    one source fragment old replaced."""
    *path, name = qualname.split(".")
    owner = functools.reduce(getattr, path, module)
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, (qualname, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return owner, name, namespace[name]


@pytest.mark.parametrize("module, qualname, old, new",
                         [fault[1:] for fault in SIGN_FAULTS],
                         ids=[fault[0] for fault in SIGN_FAULTS])
def test_bar_d_squared_fails_on_a_sign_fault(monkeypatch, module, qualname,
                                             old, new):
    monkeypatch.setattr(*_faulty(module, qualname, old, new))
    status, witness = verify.check_bar_d_squared(verify._corpus(),
                                                 random.Random(0))
    assert status == "fail"
    assert "coefficients): d^2 != 0 through the cell" in witness


def test_the_global_coboundary_sign_is_an_equivalent_fault(monkeypatch):
    """Negating every coboundary matrix changes no kernel, image or pivot
    column: d^2 = 0 still holds and every cell dimension stays."""
    A = verify._mixed_f3()
    window = DegreeWindow(3, -10, 4)
    dims = {coeff: compute_hh_window(A, coeff, window)
            for coeff in (COEFF_SELF, COEFF_DUAL)}
    monkeypatch.setattr(*_faulty(bar, "_coboundary_faces", "outer * s",
                                 "-outer * s"))
    assert verify.check_bar_d_squared(verify._corpus(), random.Random(0)) \
        == ("pass", None)
    for coeff, expected in dims.items():
        assert compute_hh_window(A, coeff, window) == expected


@pytest.mark.parametrize("fault", ["inner_face", "left_slot"])
def test_oracle_check_fails_on_an_odd_characteristic_sign_fault(monkeypatch,
                                                                fault):
    """Only the mixed F_3 algebra has a nonzero product in odd
    characteristic, where these two signs show; a raise counts as a
    failure, as run_suite reports it."""
    monkeypatch.setattr(*_faulty(*next(f[1:] for f in SIGN_FAULTS
                                       if f[0] == fault)))
    try:
        status, _ = verify.check_oracle_vs_resolution(verify._corpus(),
                                                      random.Random(0))
    except Exception:
        status = "fail"
    assert status == "fail"


@pytest.mark.parametrize("module, qualname, old, new",
                         [fault[1:] for fault in BV_SIGN_FAULTS],
                         ids=[fault[0] for fault in BV_SIGN_FAULTS])
def test_bv_check_raises_on_an_odd_characteristic_sign_fault(
        monkeypatch, module, qualname, old, new):
    """Over F_2 and on one odd generator these signs do not show; on two
    odd generators over F_3 and F_5 the checks of BVContext raise."""
    monkeypatch.setattr(*_faulty(module, qualname, old, new))
    with pytest.raises(InternalConsistencyError):
        verify.check_bv_operator(verify._corpus(), random.Random(0))


def test_the_global_iota_sign_is_an_equivalent_fault(monkeypatch):
    """iota and pair_class both apply _iota_sign, so negating it everywhere
    cancels in the pairing and changes no operator entry."""
    monkeypatch.setattr(*_faulty(bv, "_iota_sign", IOTA_SIGN,
                                 "1 if (A.mono_degree(a0) * word_suspension("
                                 "A, word)) % 2 else -1"))
    assert verify.check_bv_operator(verify._corpus(), random.Random(0)) \
        == ("pass", None)
