"""End-to-end CLI tests: golden reports, exit codes and the error paths.

The golden files under tests/golden/ are the CLI's own output, for example

    python -m diraclab.cli verify torus.json --seed 0 --report json \
        > tests/golden/verify-torus.json
    python -m diraclab.cli reduce circle-n2.json > tests/golden/reduce-circle-n2.json

with the scenario files written from SPECS below.  A change to the exact
arithmetic must leave every byte of them unchanged.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import cli

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "torus": {"name": "torus"},
    "circle-n2": {"name": "circle", "params": {"n": 2, "level": "1/2"}},
    "pair": {"name": "pair", "params": {"n": 2}},
    "pair-corrupt-sigma": {"name": "pair-corrupt-sigma", "params": {"n": 2}},
    "circle-n1": {"name": "circle", "params": {"n": 1}},
    "so3": {"name": "so3"},
    "graph-twist": {"name": "graph-twist"},
    "twist-mismatch": {"name": "twist-mismatch"},
    "line-bivector": {"name": "line-bivector"},
}

# the two negative fixtures fail a check on purpose
EXPECTED_EXIT = {"pair-corrupt-sigma": cli.EXIT_CHECK_FAILED,
                 "twist-mismatch": cli.EXIT_CHECK_FAILED}


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(SPECS))
def test_verify_matches_golden(tmp_path, capsys, name):
    spec = write_spec(tmp_path, SPECS[name])
    code, out, _ = run(capsys, ["verify", spec, "--seed", "0", "--report", "json"])
    assert code == EXPECTED_EXIT.get(name, cli.EXIT_OK)
    assert out == (GOLDEN / f"verify-{name}.json").read_text()


DUMPS = {
    "circle-n1-base": ("circle-n1", ["--what", "base"]),
    "circle-n1-datum": ("circle-n1", ["--what", "datum"]),
    "circle-n1-orbit": ("circle-n1", ["--what", "orbit"]),
    "torus": ("torus", []),
}


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_matches_golden(tmp_path, capsys, name):
    # the only goldens holding canonical bases and LinMap entries as written
    spec, argv = DUMPS[name]
    code, out, _ = run(capsys, ["dump", write_spec(tmp_path, SPECS[spec]), *argv])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / f"dump-{name}.json").read_text()


# sha256 of `dump <circle-n2> --what datum`, 414 KB, too large for a golden
# file; recorded with
#     python -m diraclab.cli dump circle-n2.json --what datum | sha256sum
# at a3957c0, before the rotation builder computed each map once.
CIRCLE_N2_DATUM_SHA256 = "ad5c129250ef08344382ab8afaf91525293ceea9eabf5886befd57305031e079"


def test_dump_circle_n2_datum_matches_its_hash(tmp_path, capsys):
    import hashlib
    code, out, _ = run(capsys, ["dump", write_spec(tmp_path, SPECS["circle-n2"]),
                                "--what", "datum"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CIRCLE_N2_DATUM_SHA256


@pytest.mark.parametrize("name", ["pair", "pair-corrupt-sigma", "circle-n1", "torus"])
def test_the_qs_suite_is_the_bundles_report_run_once(monkeypatch, name):
    # every suite runs; qs_check runs at most once per bundle object, and the
    # report the qs suite returns is shared, so no suite may change it
    from diraclab import groupoid
    qs_check, checked = groupoid.qs_check, []

    def counted(bundle):
        checked.append(bundle)
        return qs_check(bundle)
    monkeypatch.setattr(groupoid, "qs_check", counted)
    spec = SPECS[name]
    row = cli.SCENARIOS[spec["name"]]
    runners = row.suites(row.params(spec.get("params", {})), 0)
    rep = runners["qs"]()
    records = list(rep.records)
    for suite in sorted(runners):
        runners[suite]()
    assert runners["qs"]() is rep and rep.records == records
    assert len({id(b) for b in checked}) == len(checked)


def test_reduce_matches_golden(tmp_path, capsys):
    spec = write_spec(tmp_path, SPECS["circle-n2"])
    code, out, _ = run(capsys, ["reduce", spec])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "reduce-circle-n2.json").read_text()


@pytest.mark.parametrize("name", ["pair", "pair-corrupt-sigma"])
@pytest.mark.parametrize("n", [3, 0, -2])
def test_pair_rejects_odd_or_nonpositive_n(tmp_path, capsys, name, n):
    spec = write_spec(tmp_path, {"name": name, "params": {"n": n}})
    code, out, err = run(capsys, ["verify", spec])
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert "positive even n" in err


def test_dump_pair_rejects_odd_n(tmp_path, capsys):
    spec = write_spec(tmp_path, {"name": "pair", "params": {"n": 3}})
    code, out, err = run(capsys, ["dump", spec])
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert "positive even n" in err


@pytest.mark.parametrize("what", ["base", "datum", "orbit"])
def test_dump_circle_rejects_a_level_without_rational_points(tmp_path, capsys, what):
    # 2 * 1/3 is not a rational square: dump exits 2, as verify does
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 1, "level": "1/3"}})
    code, out, err = run(capsys, ["dump", spec, "--what", what])
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and "not a rational square" in err
    assert run(capsys, ["verify", spec])[0] == cli.EXIT_BAD_INPUT


@pytest.mark.parametrize("level, argv", [
    ("1/2", ["--level", "0"]),
    ("0", []),
])
def test_reduce_at_level_zero_is_hypothesis_violated(tmp_path, capsys, level, argv):
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 2, "level": level}})
    code, out, err = run(capsys, ["reduce", spec, *argv])
    assert code == cli.EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["status"] == "hypothesis-violated"
    assert "z2 = 0" in doc["detail"]
    assert err == ""


@pytest.mark.parametrize("suite", ["all", "intersection"])
def test_verify_at_a_fixed_point_level_is_hypothesis_violated(tmp_path, capsys, suite):
    # the intersection suite builds the reduction, whose quotient needs a free action
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 1, "level": "0"}})
    code, out, err = run(capsys, ["verify", spec, "--suite", suite])
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    doc = json.loads(out)
    assert doc["status"] == "hypothesis-violated"
    assert "fixed point" in doc["detail"]


@pytest.mark.parametrize("name, what", [("pair", "datum"), ("pair", "orbit"),
                                        ("torus", "datum"), ("torus", "orbit"),
                                        ("so3", "base")])
def test_dump_rejects_a_document_the_scenario_lacks(tmp_path, capsys, name, what):
    code, out, err = run(capsys, ["dump", write_spec(tmp_path, SPECS[name]),
                                  "--what", what])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == f"error: scenario {name!r} cannot dump --what {what}\n"


def test_dump_pair_writes_the_bundle_verify_checks(tmp_path, capsys):
    from diraclab.scenarios import build_pair_groupoid
    from diraclab.schema import bundle_to_json
    from diraclab.serialize import dumps
    code, out, _ = run(capsys, ["dump", write_spec(tmp_path, SPECS["pair"])])
    assert code == cli.EXIT_OK
    assert out == dumps(bundle_to_json(build_pair_groupoid(2, num_objects=4))) + "\n"


def test_the_table_declares_exactly_the_golden_suites():
    # every golden verify report runs --suite all, so a suite cannot be added
    # to or dropped from the table without its golden
    declared = {(name, suite) for name, row in cli.SCENARIOS.items()
                for suite in row.suites(row.params({}), 0)}
    golden = {(doc["scenario"], suite)
              for doc in (json.loads(p.read_text()) for p in GOLDEN.glob("verify-*.json"))
              for suite in doc["suites"]}
    assert declared == golden


def test_list_prints_one_line_per_scenario_in_sorted_order(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == cli.EXIT_OK
    assert [line.split()[0] for line in out.splitlines()] == sorted(cli.SCENARIOS)


@pytest.mark.parametrize("params", [{}, {"n": 2, "level": "1/2"}])
def test_dumped_orbit_round_trips_through_reduce(tmp_path, capsys, params):
    # dump --what orbit writes the datum reduce consumes, so reducing with it
    # prints the same document as the built-in orbit
    spec = write_spec(tmp_path, {"name": "circle", "params": params})
    orbit = tmp_path / "orbit.json"
    code, _, _ = run(capsys, ["dump", spec, "--what", "orbit", "--out", str(orbit)])
    assert code == cli.EXIT_OK
    code, custom, err = run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])
    assert (code, err) == (cli.EXIT_OK, "")
    code, plain, _ = run(capsys, ["reduce", spec])
    assert code == cli.EXIT_OK
    assert custom == plain


def test_circle_defaults_to_n1_everywhere(tmp_path, capsys):
    bare = write_spec(tmp_path, {"name": "circle"})
    explicit = str(tmp_path / "explicit.json")
    Path(explicit).write_text(json.dumps(SPECS["circle-n1"]))
    for argv in (["reduce"], ["dump", "--what", "orbit"]):
        outs = [run(capsys, [argv[0], path, *argv[1:]]) for path in (bare, explicit)]
        assert outs[0] == outs[1]
        assert outs[0][0] == cli.EXIT_OK
    circle_params = cli.SCENARIOS["circle"].params
    assert circle_params({}) == {"n": 1, "level": Fraction(1, 2)}
    assert circle_params({"n": 2, "level": "2"}) == {"n": 2, "level": Fraction(2)}
    assert circle_params({"n": 2, "level": 2}) == {"n": 2, "level": Fraction(2)}


@pytest.mark.parametrize("cmd", ["verify", "reduce", "dump"])
@pytest.mark.parametrize("level", [0.5, 4.5, 2.0, True, [1], None, {"p": 1}])
def test_a_level_that_is_neither_a_string_nor_an_integer_is_rejected(tmp_path, capsys,
                                                                     cmd, level):
    # a JSON float is not the exact level it prints as, and str() would read
    # true as "True"; the message names the param, as int_param's does for n
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 1, "level": level}})
    code, out, err = run(capsys, [cmd, spec])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == (f"error: 'level' must be a 'p/q' string or an integer, "
                   f"got {level!r}\n")


def test_verify_has_no_samples_option(tmp_path, capsys):
    spec = write_spec(tmp_path, SPECS["pair"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", spec, "--samples", "objects=2"])
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert "--samples" in capsys.readouterr().err


def test_a_spec_with_a_samples_field_is_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path, {**SPECS["pair"], "samples": {"objects": 2}})
    code, out, err = run(capsys, ["verify", spec])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and "'samples'" in err


@pytest.mark.parametrize("cmd", ["verify", "reduce", "dump"])
def test_a_level_beyond_float_range_without_a_rational_root(tmp_path, capsys, cmd):
    # 2 * 10^399 = 2^400 * 5^399 is not a square; the level has 400 digits
    spec = write_spec(tmp_path, {"name": "circle",
                                 "params": {"n": 1, "level": "1" + "0" * 399}})
    code, out, err = run(capsys, [cmd, spec])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and "not a rational square" in err


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("cmd", ["verify", "reduce", "dump"])
def test_circle_rejects_n_below_one(tmp_path, capsys, cmd, n):
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": n}})
    code, out, err = run(capsys, [cmd, spec])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and "n >= 1" in err


@pytest.mark.parametrize("doc, message", [
    ({"name": "circle", "params": {"n": 1, "levle": "2"}}, "no params ['levle']"),
    ({"name": "circle", "params": {"n": 1.5}}, "'n' must be an integer"),
    ({"name": "torus", "params": {"points": 3}}, "no params ['points']"),
    ({"name": "circle", "params": {"n": True}}, "'n' must be an integer"),
    ({"name": "circle", "params": [1]}, "'params' must be an object"),
    ({"name": "circle", "seed": 1.5}, "'seed' must be an integer"),
])
@pytest.mark.parametrize("cmd", ["verify", "reduce", "dump"])
def test_unknown_or_non_integral_params_are_rejected(tmp_path, capsys, cmd, doc, message):
    code, out, err = run(capsys, [cmd, write_spec(tmp_path, doc)])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("doc", [{"schema": "cd-v1"}, [1, 2]])
def test_reduce_rejects_a_malformed_coisotropic_file(tmp_path, capsys, doc):
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["reduce", spec, "--coisotropic", str(bad)])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: cannot load coisotropic file: ")


@pytest.mark.parametrize("edit", ["object dim", "matrix entry"])
def test_reduce_rejects_a_coisotropic_file_with_inconsistent_fibers(tmp_path, capsys, edit):
    # the content hash is recomputed, so only the fibers' own checks can object
    from diraclab.schema import content_hash
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    orbit = tmp_path / "orbit.json"
    code, _, _ = run(capsys, ["dump", spec, "--what", "orbit", "--out", str(orbit)])
    assert code == cli.EXIT_OK
    doc = json.loads(orbit.read_text())
    if edit == "object dim":
        doc["c_bundle"]["objects"][0]["dim"] += 1
    else:
        doc["c_bundle"]["arrows"][0]["left"]["entries"][0][0] = "one"
    doc["c_bundle_hash"] = content_hash(doc["c_bundle"])
    orbit.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: cannot load coisotropic file: ")


def reduce_with_morphism_entry(tmp_path, capsys, entry):
    """reduce on circle n = 1 with the dumped orbit's first morphism.c1
    entry replaced; the content hash covers only the bundles."""
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    orbit = tmp_path / "orbit.json"
    code, _, _ = run(capsys, ["dump", spec, "--what", "orbit", "--out", str(orbit)])
    assert code == cli.EXIT_OK
    doc = json.loads(orbit.read_text())
    doc["morphism"]["c1"][0]["entries"][0][0] = entry
    orbit.write_text(json.dumps(doc))
    return run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])


def test_reduce_rejects_a_morphism_entry_with_a_zero_denominator(tmp_path, capsys):
    # Fraction("1/0") raises ZeroDivisionError, which is not a ValueError
    code, out, err = reduce_with_morphism_entry(tmp_path, capsys, "1/0")
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == ("error: cannot load coisotropic file: cd-v1 document has a "
                   "scalar with a zero denominator\n")


def test_reduce_rejects_a_boolean_morphism_entry(tmp_path, capsys):
    # Python counts true as the int 1, but it is not an exact scalar
    code, out, err = reduce_with_morphism_entry(tmp_path, capsys, True)
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == ("error: cannot load coisotropic file: malformed cd-v1 document: "
                   "not an exact scalar: True\n")


@pytest.mark.parametrize("path, value, message", [
    (("morphism", "obj_map", 0), 0.0, "expected a non-negative integer, got 0.0"),
    (("c_bundle", "objects", 0, "dim"), 0.0, "expected a non-negative integer, got 0.0"),
    (("c_bundle", "pairs", 0, "g"), True, "expected a non-negative integer, got True"),
    (("c_bundle", "arrows", 0, "unit"), 1, "expected a boolean, got 1"),
    # a negative index would wrap around to the last arrow
    (("c_bundle", "pairs", 0, "g"), -3, "expected a non-negative integer, got -3"),
    (("dirac", "fibers", 0, "n"), False, "expected a non-negative integer, got False"),
    # an object would be read as its keys: this row as (0, 1), not (1, 1)
    (("c_bundle", "pairs", 0, "m_star", "entries", 0), {"0": "1/1", "1": "1/1"},
     "expected a list of rows, each a list"),
    (("dirac", "fibers", 0, "basis"), {}, "expected a list of rows, each a list"),
], ids=["obj_map-float", "dim-float", "g-true", "unit-int", "g-negative", "n-false",
        "row-object", "basis-object"])
def test_reduce_rejects_an_integer_or_flag_field_of_the_wrong_kind(tmp_path, capsys,
                                                                   path, value, message):
    # both hashes are recomputed, so only the loader's field readers can object
    from diraclab.schema import content_hash
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    orbit = tmp_path / "orbit.json"
    code, _, _ = run(capsys, ["dump", spec, "--what", "orbit", "--out", str(orbit)])
    assert code == cli.EXIT_OK
    doc = json.loads(orbit.read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc["c_bundle_hash"] = content_hash(doc["c_bundle"])
    doc["g_bundle_hash"] = content_hash(doc["g_bundle"])
    orbit.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == f"error: cannot load coisotropic file: {message}\n"


def test_reduce_rejects_a_coisotropic_file_indexed_unlike_the_orbit(tmp_path, capsys):
    # the last arrow dropped, with the pairs through it and its morphism
    # entries, and the hash recomputed: a consistent datum, but the
    # reduction's product samples name an arrow it no longer has
    from diraclab.schema import content_hash
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    orbit = tmp_path / "orbit.json"
    code, _, _ = run(capsys, ["dump", spec, "--what", "orbit", "--out", str(orbit)])
    assert code == cli.EXIT_OK
    doc = json.loads(orbit.read_text())
    c_bundle, morphism = doc["c_bundle"], doc["morphism"]
    last = len(c_bundle["arrows"]) - 1
    del c_bundle["arrows"][last], morphism["arrow_map"][last], morphism["c1"][last]
    c_bundle["pairs"] = [p for p in c_bundle["pairs"]
                         if last not in (p["g"], p["h"], p["gh"])]
    doc["c_bundle_hash"] = content_hash(c_bundle)
    orbit.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith("error: custom coisotropic's C-bundle does not index")


def test_reduce_on_a_unit_arrow_without_u_star_is_hypothesis_violated(tmp_path, capsys):
    # the unit arrow's u_star nulled and the hash recomputed: a well-formed
    # document whose unit lacks its section, which the strong intersection
    # needs, so the reduction's hypothesis fails (exit 1), not the input
    from diraclab.schema import content_hash
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    orbit = tmp_path / "orbit.json"
    code, _, _ = run(capsys, ["dump", spec, "--what", "orbit", "--out", str(orbit)])
    assert code == cli.EXIT_OK
    doc = json.loads(orbit.read_text())
    units = [k for k, a in enumerate(doc["c_bundle"]["arrows"]) if a["unit"]]
    assert units == [0]
    doc["c_bundle"]["arrows"][0]["u_star"] = None
    doc["c_bundle_hash"] = content_hash(doc["c_bundle"])
    orbit.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    assert json.loads(out) == {"status": "hypothesis-violated",
                               "detail": "custom coisotropic's unit arrows [0] "
                                         "carry no u_star"}


def negate_first_m_star_entry(doc):
    row = doc["c_bundle"]["pairs"][0]["m_star"]["entries"][0]
    row[0] = "-" + row[0]


def rotate_arrows(doc):
    # the unit arrow 0 becomes arrow 2, and arrow 1 takes its place
    arrows = doc["c_bundle"]["arrows"]
    doc["c_bundle"]["arrows"] = arrows[1:] + arrows[:1]


@pytest.mark.parametrize("mutate, detail", [
    (negate_first_m_star_entry, "C-pair 0 does not intertwine c1 with the multiplication"),
    (rotate_arrows, "unit C-arrow 2 maps to G-arrow 2, which is not a unit"),
    (None, None)])
def test_reduce_checks_that_the_custom_morphism_is_multiplicative(tmp_path, capsys,
                                                                  mutate, detail):
    # the shipped circle n = 1 orbit, mutated and its hash recomputed: a
    # well-formed datum whose morphism breaks units or products is a failed
    # reduction hypothesis (exit 1); the unmutated file reduces as the
    # built-in orbit does
    from diraclab.schema import content_hash
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    doc = json.loads((GOLDEN / "dump-circle-n1-orbit.json").read_text())
    if mutate:
        mutate(doc)
        doc["c_bundle_hash"] = content_hash(doc["c_bundle"])
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["reduce", spec, "--coisotropic", str(orbit)])
    if mutate:
        assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
        assert json.loads(out) == {"status": "hypothesis-violated",
                                   "detail": f"custom coisotropic's {detail}"}
    else:
        assert (code, err) == (cli.EXIT_OK, "")
        assert (code, out, err) == run(capsys, ["reduce", spec])


def json_paths(doc, path=()):
    """The path of every value below doc, in document order."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


DELETE = object()


def mutations(value) -> dict:
    """The mutation operators that apply to a value, each a function from
    the value to its replacement (DELETE removes it): delete, null, retype,
    sign flip, list element dropped or repeated, list order, matrix shape."""
    ops = {"delete": lambda v: DELETE, "null": lambda v: None,
           "bool": lambda v: True, "string": lambda v: str(v)}
    if type(value) is int:
        ops.update(float=float, negate=lambda v: -v)
    if isinstance(value, str):
        ops["negate"] = lambda v: v[1:] if v.startswith("-") else "-" + v
    if isinstance(value, dict):
        ops["to_list"] = lambda v: list(v.values())
    if isinstance(value, list):
        ops.update(to_object=lambda v: {str(i): x for i, x in enumerate(v)},
                   repeat=lambda v: v + v[-1:], drop=lambda v: v[:-1],
                   rotate=lambda v: v[1:] + v[:1])
        if value and all(isinstance(row, list) for row in value):
            ops["narrow"] = lambda v: [row[:-1] for row in v]
    return ops


ORBIT_DOC = json.loads((GOLDEN / "dump-circle-n1-orbit.json").read_text())
ORBIT_PATHS = list(json_paths(ORBIT_DOC))


@st.composite
def mutated_orbits(draw):
    """The shipped circle n = 1 orbit with one value mutated, and both
    content hashes recomputed so that the hash check lets it through."""
    from diraclab.schema import content_hash
    doc = json.loads(json.dumps(ORBIT_DOC))
    *head, key = draw(st.sampled_from(ORBIT_PATHS))
    parent = doc
    for k in head:
        parent = parent[k]
    ops = mutations(parent[key])
    new = ops[draw(st.sampled_from(sorted(ops)))](parent[key])
    if new is DELETE:
        del parent[key]
    else:
        parent[key] = new
    for part in ("c_bundle", "g_bundle"):
        if part in doc and f"{part}_hash" in doc:
            doc[f"{part}_hash"] = content_hash(doc[part])
    return doc


@settings(max_examples=100, derandomize=True, deadline=None)
@given(doc=mutated_orbits())
def test_a_mutated_coisotropic_file_never_escapes_main(tmp_path_factory, doc):
    # any exception escaping main fails the test; so does any output that is
    # not one error line (exit 2) or one JSON document (exit 0 or 1)
    workdir = tmp_path_factory.mktemp("mutant")
    spec = write_spec(workdir, SPECS["circle-n1"])
    path = workdir / "orbit.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["reduce", spec, "--coisotropic", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_BAD_INPUT)
    if code == cli.EXIT_BAD_INPUT:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue())


@pytest.mark.parametrize("name", [[1], {"torus": 1}, 3, None])
@pytest.mark.parametrize("cmd", ["verify", "reduce", "dump"])
def test_a_non_string_scenario_name_is_rejected(tmp_path, capsys, cmd, name):
    code, out, err = run(capsys, [cmd, write_spec(tmp_path, {"name": name})])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == f"error: unknown scenario name: {name!r}\n"


@pytest.mark.parametrize("argv", [
    ["dump", "--what", "base"],
    ["reduce"],
])
def test_an_out_file_that_cannot_be_written_is_rejected(tmp_path, capsys, monkeypatch,
                                                        argv):
    # the path is checked before the command builds anything
    def refuse(*_args):
        pytest.fail("the command built its scenario before it checked --out")
    for builder in ("circle_scenario", "circle_reduction", "run_reduction"):
        monkeypatch.setattr(cli.sc, builder, refuse)
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    target = tmp_path / "missing" / "x.json"
    cmd, *rest = argv
    code, out, err = run(capsys, [cmd, spec, *rest, "--out", str(target)])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("exists", [True, False])
@pytest.mark.parametrize("level, argv, code", [
    ("0", ["reduce"], cli.EXIT_CHECK_FAILED),            # hypothesis violated
    ("1/3", ["dump", "--what", "base"], cli.EXIT_BAD_INPUT),  # no rational points
])
def test_out_changes_only_when_the_command_writes(tmp_path, capsys, exists,
                                                  level, argv, code):
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 1, "level": level}})
    target = tmp_path / "out.json"
    if exists:
        target.write_text("kept\n")
    cmd, *rest = argv
    assert run(capsys, [cmd, spec, *rest, "--out", str(target)])[0] == code
    assert target.read_text() == "kept\n" if exists else not target.exists()
    # a command that succeeds replaces the contents
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    assert run(capsys, ["dump", spec, "--out", str(target)])[0] == cli.EXIT_OK
    _, stdout, _ = run(capsys, ["dump", spec])
    assert target.read_text() == stdout


def test_a_level_with_a_zero_denominator_is_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 1, "level": "1/0"}})
    for cmd in (["verify", spec, "--suite", "qs"], ["dump", spec]):
        code, out, err = run(capsys, cmd)
        assert (code, out) == (cli.EXIT_BAD_INPUT, "")
        assert err == "error: level '1/0' has a zero denominator\n"
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    code, out, err = run(capsys, ["reduce", spec, "--level", "1/0"])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == "error: level '1/0' has a zero denominator\n"


def test_reduce_rejects_an_empty_level(tmp_path, capsys):
    # an empty --level is malformed input, not a request for the spec's level
    spec = write_spec(tmp_path, SPECS["circle-n1"])
    code, out, err = run(capsys, ["reduce", spec, "--level", ""])
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert err == "error: level '' is not a 'p/q' string\n"


def test_a_malformed_level_string_is_rejected_by_name(tmp_path, capsys):
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 1, "level": "1/2x"}})
    for argv in (["verify", spec], ["dump", spec], ["reduce", spec]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_BAD_INPUT, "")
        assert err == "error: level '1/2x' is not a 'p/q' string\n"


def test_the_dorfman_suite_looks_its_builder_up_when_it_runs(monkeypatch):
    built = []
    build = cli.sc.build_lie_poisson_so3

    def patched():
        built.append(True)
        return build()
    monkeypatch.setattr(cli.sc, "build_lie_poisson_so3", patched)
    row = cli.SCENARIOS["so3"]
    rep = row.suites(row.params({}), 0)["dorfman"]()
    assert built == [True]
    assert rep.passed
