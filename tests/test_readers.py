"""Every reader of JSON input returns or refuses with a StratcltError.

Each example starts from a bundled config and replaces the node at one key
path (the whole config included) with a value from a fixed set of JSON
values, then runs the steps that read it: for ``clt`` every step before the
first draw, for a measure file its reader and the mean that ``mean``
prints, and the ``field`` and ``cover`` commands whole, on a small run.
Any other exception is a fault of the reader, which the CLI would print as
a traceback.  Each config has fewer edits than its test's ``max_examples``
(649 for the open book, against 700), so hypothesis tries every edit.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from stratclt import harness as hz, measures as mz
from stratclt.cli import main
from stratclt.errors import StratcltError

from .conftest import EXPERIMENT_FILES, MEASURE_FILES, load_config

# JSON's 1e309 reads as inf
VALUES = (None, True, -1, 0, 0.5, 1e309, "x", [], {}, [1], {"bogus": 1})

COVER_CONFIG = {"space": {"kind": "flat_cone", "circumference": 9.42477796076938},
                "base": [0.0, 0.0], "n_max": 4}


def key_paths(node, path=()):
    """Every key path into a JSON value, the empty path to the value first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from key_paths(child, (*path, key))


def replaced(raw, path: tuple, value):
    """A copy of raw with the node at path replaced by value."""
    if not path:
        return copy.deepcopy(value)
    raw = copy.deepcopy(raw)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    return raw


def edits(raw):
    """Draws (path, value): one node of raw replaced by one of VALUES."""
    return st.tuples(st.sampled_from(list(key_paths(raw))), st.sampled_from(VALUES))


def refused_or_read(step, *args):
    """step(*args) with its output captured, None for a StratcltError."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return step(*args)
        except StratcltError:
            return None


def clt_reading(raw):
    """The steps of ``clt`` before its first draw."""
    cfg = hz.config_from_json(raw, seed=0)
    base = mz.validate_localized(cfg.measure, cfg.base).base
    if "modulus" in cfg.tests:
        hz._check_modulus_net(base, cfg.modulus)
    hz.resolve_net(base, cfg.net)


def measure_reading(raw):
    mz.frechet_mean(mz.DiscreteMeasure.from_json(raw))


@pytest.mark.parametrize("name", EXPERIMENT_FILES)
def test_clt_reading_refuses_or_reads(name):
    raw = load_config(name)

    @settings(max_examples=700)
    @given(edits(raw))
    def check(edit):
        refused_or_read(clt_reading, replaced(raw, *edit))

    check()


@pytest.mark.parametrize("name", MEASURE_FILES)
def test_measure_reading_refuses_or_reads(name):
    raw = load_config(name)

    @settings(max_examples=400)
    @given(edits(raw))
    def check(edit):
        refused_or_read(measure_reading, replaced(raw, *edit))

    check()


@pytest.mark.parametrize("command, raw", [
    ("field", load_config("field_example.json")),
    ("cover", COVER_CONFIG),
], ids=["field", "cover"])
def test_command_refuses_or_reads(tmp_path, command, raw):
    # main prints a StratcltError as one line and exits 3 or 4
    config = tmp_path / "c.json"
    argv = [command, "--config", str(config)]
    if command == "field":
        argv += ["--seed", "0", "--out", str(tmp_path / "o"), "--draws", "2",
                 "--empirical-n", "2"]

    @settings(max_examples=400)
    @given(edits(raw))
    def check(edit):
        config.write_text(json.dumps(replaced(raw, *edit)), encoding="utf-8")
        assert refused_or_read(main, argv) in (0, 3, 4)

    check()
