"""Fuzz of the presentation loader: whatever JSON document `compute` is
given, it either succeeds or rejects the input with one stderr line.

Every window bound that is an integer is small, so every well-formed
document computes quickly.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import example, given, settings, strategies as st

from hhkt.cli import main

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.floats(-3, 3, allow_nan=False), st.text(max_size=3),
                 st.lists(st.integers(0, 2), max_size=2))


def _or_junk(values):
    """Well-formed values about nine times in ten, junk otherwise."""
    return st.integers(0, 9).flatmap(lambda k: JUNK if k == 5 else values)


RELATIONS = st.sampled_from([
    "x1^2", "x1^3", "x2^2", "x1*x2", "x1^2 + x1*x2", "x1^2*x2",
    "2*x1^2", "x1^2 - x2^2", "x1", "1", "0", "", "x1^2 +", "x1^",
    "^2", "y1^2", "y1*x1", "x3^2", "(x1)^2", "x1**2",
])

GENERATOR = st.one_of(
    st.fixed_dictionaries({
        "name": _or_junk(st.sampled_from(["y1", "y2", "x1", "x2", "",
                                          "x 1", "x1^2", "y\n1"])),
        "degree": _or_junk(st.integers(-1, 5)),
        "kind": _or_junk(st.sampled_from(["exterior", "polynomial"])),
    }),
    st.fixed_dictionaries({"name": st.sampled_from(["y1", "x1"])},
                          optional={"degree": st.integers(1, 4),
                                    "kind": st.sampled_from(
                                        ["exterior", "polynomial"])}),
    JUNK,
)

WINDOW = _or_junk(st.fixed_dictionaries({
    "max_filtration": _or_junk(st.integers(-1, 2)),
    "q_min": _or_junk(st.integers(-6, 1)),
    "q_max": _or_junk(st.integers(-1, 6)),
}))

DOCUMENT = _or_junk(st.fixed_dictionaries({
    "characteristic": _or_junk(st.sampled_from([2, 2, 3, 3, 5, 4, 0])),
    "generators": _or_junk(st.lists(GENERATOR, max_size=3)),
    "relations": _or_junk(st.lists(_or_junk(RELATIONS), max_size=2)),
    "window": WINDOW,
}))


@given(DOCUMENT)
@example({"characteristic": 2,
          "generators": [{"name": "y\n1", "degree": "a", "kind": "exterior"}],
          "relations": [],
          "window": {"max_filtration": 1, "q_min": -2, "q_max": 2}})
@settings(max_examples=50, deadline=None)
def test_compute_exits_0_or_1_with_one_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "pres.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["compute", "--input", str(path)])
    message = err.getvalue()
    assert code in (0, 1), (code, message)
    if code == 0:
        assert message == ""
        json.loads(out.getvalue())
    else:
        assert message.startswith(("input error: ", "window limit: "))
        assert message.count("\n") == 1 and message.endswith("\n")
