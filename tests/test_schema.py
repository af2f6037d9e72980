import copy
import json
import math
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qelm_lab.cli import RUN_CONFIG, main
from qelm_lab.errors import ValidationError
from qelm_lab.schema import Either, Opt, Rule, read

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_are_filled_and_values_are_never_converted():
    slot = {"n": Opt(int, 3), "x": Opt(float, 0.5), "pair": (float, float), "name": Opt(str, None)}
    got = read(slot, {"x": 1, "pair": [-1, 1]})
    assert got == {"n": 3, "x": 1, "pair": [-1, 1], "name": None}
    assert type(got["x"]) is int and all(type(v) is int for v in got["pair"])


def test_a_key_without_default_stays_missing():
    assert read({"a": Opt(int)}, {}) == {}


@pytest.mark.parametrize(
    "slot, value, problem",
    [
        ({"entangle": bool}, {"entangle": "no"}, "entangle: expected true or false, got 'no'"),
        ({"size": int}, {"size": "120"}, "size: expected an integer, got '120'"),
        ({"size": int}, {"size": 5.0}, "size: expected an integer, got 5.0"),
        ({"size": int}, {"size": True}, "size: expected an integer, got True"),
        ({"p": float}, {"p": True}, "p: expected a number, got True"),
        ({"p": float}, {"p": math.nan}, "p: must be finite, got nan"),
        ({"p": float}, {"p": 10**400}, "p: must be finite"),
        ({"a": {"b": [int]}}, {"a": {"b": [1, "x"]}}, "a.b[1]: expected an integer, got 'x'"),
        ({"a": Opt(int)}, {"a": 1, "c": 2}, "c: unknown key"),
        ({"a": int, "b": int}, {}, "a: required; the document has no a, b"),
        ({"r": (float, float)}, {"r": [1]}, "r: expected a list of 2, got [1]"),
        ({"t": Either(float, [float])}, {"t": "x"}, "t: expected a number or a list, got 'x'"),
        ({"t": Either(float, [float])}, {"t": [1, None]}, "t[1]: expected a number, got None"),
        ({"s": Opt(str, "x")}, {"s": None}, "s: expected a string, got None"),
        ({"r": Rule([int], lambda v: len(v) == 2, "needs two")}, {"r": [1]}, "r: needs two"),
    ],
)
def test_the_first_bad_value_is_named_by_its_path(slot, value, problem):
    with pytest.raises(ValidationError, match=f"^{re.escape(problem)}"):
        read(slot, value)


def test_an_open_object_lets_other_keys_through():
    assert read({"a": int, ...: None}, {"a": 1, "b": "x"}) == {"a": 1, "b": "x"}


def test_errors_carry_the_document_and_the_starting_path():
    with pytest.raises(ValidationError, match=r"^run\.json: zne\.degree: expected an integer"):
        read({"degree": int}, {"degree": "3"}, at="zne", doc="run.json")


def leaf_paths(slot, path=""):
    if isinstance(slot, Opt):
        slot = slot.slot
    if not isinstance(slot, dict):
        return {path}
    return {p for key, s in slot.items() for p in leaf_paths(s, f"{path}.{key}" if path else key)}


def test_the_readme_table_lists_exactly_the_run_config_keys():
    text = README.read_text()
    table = text[text.index("| key | type | default |"):]
    table = table[: table.index("\n\n")]
    keys = {line.split("`")[1] for line in table.splitlines()[2:]}
    assert keys == leaf_paths(RUN_CONFIG)


# ---------------------------------------------------------------------------
# no traceback on a mutated document

VALID_CONFIG = {
    "scenario": "C2_1",
    "profile": "zero-noise",
    "dataset": {"kind": "regression3", "size": 20, "seed": 3, "noise_level": 0.1},
    "model": {
        "layers": 1,
        "evolution_time": 0.5,
        "j_range": [-1, 1],
        "entangle": True,
        "readout_hyper": {"ridge": 0.001},
    },
    "mitigator": "zne",
    "zne": {"scale_factors": [1, 3, 5], "degree": 2},
    "qlear": {"corpus": 20, "trees": 2, "max_depth": 3},
    "uq": {"method": "bootstrap", "samples": 4},
    "repeats": 3,
    "seed": 1,
    "jobs": 1,
}

_ROW = {"index": 0, "y_true": 1.5, "mean": 1.4, "lower": 1.0, "upper": 2.0, "width": 1.0, "covered": True}
VALID_RESULTS = {
    "schema": "scenario-report/1",
    "scenario": "C3_1",
    "metric": "mse",
    "runs": [
        {"repeat": 0, "seed": 11, "metric": 0.2, "ideal_metric": 0.1, "pct_change": 100.0, "error": None},
        {"repeat": 1, "seed": 12, "metric": None, "ideal_metric": None, "pct_change": None, "error": "x"},
    ],
    "uq": {
        "method": "bootstrap",
        "configured": {"intervals": [_ROW, {**_ROW, "index": 1, "y_true": 0.5}]},
        "ideal": {
            "reliability": {
                "edges": [0.0, 0.5, 1.0],
                "mean_confidence": [0.25, None],
                "observed_frequency": [0.5, None],
                "counts": [3, 0],
            }
        },
    },
}

VALID_PROFILE = {
    **json.loads(resources.files("qelm_lab").joinpath("profiles/device-a.json").read_text()),
    "t1_us": 150,
}
VALID_PROFILE["t2_us"] = VALID_PROFILE["t2_us"][:2]
VALID_PROFILE["readout"] = VALID_PROFILE["readout"][:2]


def _paths(value, path=()):
    """Every path to a value inside ``value``, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


MUTATIONS = {
    "drop": None,
    "retype": ["x", True, 1.5, 7, None, {}],
    "renest": None,
    "nonfinite": [math.nan, math.inf, -math.inf],
    "integer": [-1, -(2**63), 2**63, 10**30],
    "empty": [[]],
    "unknown": None,
}


@st.composite
def mutated(draw, valid):
    doc = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(_paths(doc))))
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else doc
    if kind == "unknown" or (not path and kind in ("drop", "renest")):
        if not isinstance(target, dict):
            return doc, "retype"
        target["bogus_key"] = 1
        return doc, kind
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "renest":
        parent[path[-1]] = draw(st.sampled_from([[target], {"value": target}]))
    else:
        new = draw(st.sampled_from(MUTATIONS[kind]))
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc, kind


def _run_mutated(tmp_path_factory, capsys, doc, argv_of):
    work = tmp_path_factory.mktemp("doc")
    path = work / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(argv_of(str(path), str(work / "out")))
    out, err = capsys.readouterr()
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    return code


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@_SETTINGS
@given(case=mutated(VALID_CONFIG))
def test_a_mutated_run_config_never_ends_in_a_traceback(tmp_path_factory, capsys, case):
    doc, kind = case
    code = _run_mutated(
        tmp_path_factory, capsys, doc, lambda f, out: ["scenario", "--config", f, "--print-config"]
    )
    # no run-config value may be non-finite, and every object is closed
    if kind in ("nonfinite", "unknown"):
        assert code == 1


@_SETTINGS
@given(case=mutated(VALID_PROFILE))
def test_a_mutated_profile_never_ends_in_a_traceback(tmp_path_factory, capsys, case):
    doc, kind = case
    code = _run_mutated(tmp_path_factory, capsys, doc, lambda f, out: ["simulate", "--profile", f])
    if kind in ("nonfinite", "unknown", "renest"):
        assert code == 1


@_SETTINGS
@given(case=mutated(VALID_RESULTS))
def test_a_mutated_results_file_never_ends_in_a_traceback(tmp_path_factory, capsys, case):
    doc, _ = case
    _run_mutated(tmp_path_factory, capsys, doc, lambda f, out: ["report", "--results", f, "--out", out])


def test_the_valid_documents_pass(tmp_path, capsys):
    for doc, argv in (
        (VALID_CONFIG, ["scenario", "--config", "{}", "--print-config"]),
        (VALID_PROFILE, ["simulate", "--profile", "{}"]),
        (VALID_RESULTS, ["report", "--results", "{}", "--out", str(tmp_path / "out")]),
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([a.replace("{}", str(path)) for a in argv]) == 0, capsys.readouterr().err
