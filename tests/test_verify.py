"""verify's bar d^2 check against one-line sign faults in the face
enumeration that every bar-side differential is built on."""

import inspect
import random
import textwrap

import pytest

from hhkt import bar, verify
from hhkt.bar import COEFF_DUAL, COEFF_SELF, compute_hh_window
from hhkt.bigraded import DegreeWindow

# (fault, function, source text, its faulty replacement)
SIGN_FAULTS = [
    ("first_face", "bar_faces", "yield word[0], word[1:], one, 1",
     "yield word[0], word[1:], one, -1"),
    ("inner_face", "bar_faces", "sgn * c", "-sgn * c"),
    ("last_face", "bar_faces", "1 if eps % 2 else -1",
     "-1 if eps % 2 else 1"),
    ("suspension", "bar_faces", "A.mono_degree(word[i - 1]) - 1",
     "A.mono_degree(word[i - 1])"),
    ("left_slot", "_coboundary_faces", "s = -s", "pass"),
]


def _faulty(name, old, new):
    """bar.<name> recompiled with the one source fragment old replaced."""
    source = textwrap.dedent(inspect.getsource(getattr(bar, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(bar))
    exec(compile(source.replace(old, new), bar.__file__, "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize("name, old, new",
                         [fault[1:] for fault in SIGN_FAULTS],
                         ids=[fault[0] for fault in SIGN_FAULTS])
def test_bar_d_squared_fails_on_a_sign_fault(monkeypatch, name, old, new):
    monkeypatch.setattr(bar, name, _faulty(name, old, new))
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
    monkeypatch.setattr(bar, "_coboundary_faces", _faulty(
        "_coboundary_faces", "outer * s", "-outer * s"))
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
    _, name, old, new = next(f for f in SIGN_FAULTS if f[0] == fault)
    monkeypatch.setattr(bar, name, _faulty(name, old, new))
    try:
        status, _ = verify.check_oracle_vs_resolution(verify._corpus(),
                                                      random.Random(0))
    except Exception:
        status = "fail"
    assert status == "fail"
