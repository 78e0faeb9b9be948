"""Property tests at the input boundary: the CLI on argv built from its own
grammar, and ``parse_composition`` on arbitrary text."""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings, strategies as st

import csfkit.cli as cli
from csfkit.compositions import parse_composition
from csfkit.graphs import FAMILY_TABLE
from csfkit.verify import SUITE_TABLE, suite_flags

# values around the domain edges and the degree budget of 8 set below,
# most of them inside both
_VALUES = st.one_of(st.integers(2, 5), st.integers(-1, 9))
_BOUNDED = {"count": st.one_of(st.integers(0, 3), st.just(-1)),
            "workers": st.one_of(st.just(1), st.integers(-1, 0))}
_PARTS_TEXT = st.lists(st.integers(-1, 8), min_size=1, max_size=5).map(
    lambda parts: ",".join(map(str, parts)))


def _int_flags(keys, wanted=()):
    # the ``wanted`` flags (argparse names) or none of them, plus a few of
    # ``keys``, each as --flag=value, so a negative value stays attached
    base = st.sampled_from((tuple(wanted), ()))
    extra = st.lists(st.sampled_from(keys), unique=True, max_size=2)
    return st.tuples(base, extra).flatmap(lambda drawn: st.tuples(*(
        _BOUNDED.get(key, _VALUES).map(
            lambda value, key=key: f"--{key.replace('_', '-')}={value}")
        for key in dict.fromkeys(drawn[0] + tuple(drawn[1])))))


def _optional(flag, values):
    return st.one_of(st.just(()), st.sampled_from(values).map(
        lambda value: (f"--{flag}={value}",)))


def _table_flags(flag, table, keys, wanted):
    # --family or --suite, then its own flags or any others
    return st.sampled_from(tuple(table)).flatmap(lambda name: st.tuples(
        st.just((f"--{flag}={name}",)), _int_flags(keys, wanted(table[name])),
    )).map(lambda groups: groups[0] + groups[1])


_FAMILY = _table_flags("family", FAMILY_TABLE, cli.FAMILY_FLAGS, lambda family: family.params)
_SUITE = _table_flags("suite", {name: suite_flags(name) for name in SUITE_TABLE},
                     cli.VERIFY_FLAGS, lambda flags: flags)


def _composition_text(n):
    # a composition of n from a set of cut points, or any part list
    if n < 2:
        return _PARTS_TEXT
    return st.one_of(_PARTS_TEXT, st.sets(st.integers(1, n - 1)).map(lambda cuts: ",".join(
        str(hi - lo) for lo, hi in zip((0, *sorted(cuts)), (*sorted(cuts), n)))))


_GRAMMAR = {
    "expand": st.tuples(_FAMILY, _optional("format", ("text", "csv", "json")),
                        _optional("variant", tuple(FAMILY_TABLE["theta"].forms)),
                        _optional("form", tuple(FAMILY_TABLE["cycle-chord"].forms))),
    "oracle-check": st.tuples(_FAMILY),
    "verify": st.tuples(_SUITE, _optional("format", ("text", "json"))),
    "fibers": st.tuples(st.tuples(_VALUES, _VALUES).flatmap(
        lambda ab: _composition_text(ab[0] + ab[1] + 1).map(
            lambda text: (f"--I={text}", f"--a={ab[0]}", f"--b={ab[1]}")))),
}
# the subcommand first, so that each one gets an equal share of the examples
_ARGV = st.sampled_from(tuple(_GRAMMAR)).flatmap(lambda command: _GRAMMAR[command].map(
    lambda groups: [command] + [arg for group in groups for arg in group]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_ARGV)
def test_every_cli_exit_is_a_code_and_at_most_one_message_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict("os.environ", {"CSFKIT_MAX_N": "8"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (2, 3):
        assert len(lines) == 1, (argv, lines)
    else:
        assert all(line.startswith("note: ") for line in lines), (argv, lines)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.text(), _PARTS_TEXT))
def test_parse_composition_raises_only_value_error_and_round_trips(text):
    try:
        I = parse_composition(text)
    except ValueError:
        return
    assert parse_composition(",".join(map(str, I.parts))) == I
