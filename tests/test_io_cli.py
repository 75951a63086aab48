"""Document round-trips, cone-data files, and the command-line front-end."""

import json
import pathlib

import numpy as np
import pytest

from conftest import TIGHT
from diffcone import cli
from diffcone.canon import build_asa, canonicalize, lower, materialize
from diffcone.errors import ParseError
from diffcone.expressions import norm2, parameter, variable
from diffcone.fixtures import (
    gradient_fixtures,
    nonneg_least_squares_fixture,
)
from diffcone.io import (
    ProblemDocument,
    document_to_problem,
    dump_problem_document,
    dump_values,
    load_problem_document,
    load_values,
    parse_problem,
    problem_to_document,
    read_cone_data,
    write_cone_data,
)
from diffcone.problem import Problem, check_dpp
from diffcone.solver import solve

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def ls_files(tmp_path):
    fx = nonneg_least_squares_fixture()
    prob_path = write(tmp_path / "problem.json",
                      dump_problem_document(problem_to_document(fx.problem)))
    vals = fx.sample(np.random.default_rng(0))
    vals_path = write(tmp_path / "params.json",
                      dump_values({k: np.asarray(v) for k, v in vals.items()}))
    return prob_path, vals_path, fx, vals


class TestDocumentRoundTrip:
    def test_load_dump_load_is_identity(self):
        for fx in gradient_fixtures():
            doc = problem_to_document(fx.problem)
            text = dump_problem_document(doc)
            again = load_problem_document(text)
            assert again == doc
            assert dump_problem_document(again) == text

    def test_parsed_problem_passes_verification(self):
        for fx in gradient_fixtures():
            text = dump_problem_document(problem_to_document(fx.problem))
            prob = parse_problem(text)
            assert check_dpp(prob).valid
            assert [p.name for p in prob.parameters] == \
                [p.name for p in fx.problem.parameters]

    def test_parsed_problem_canonicalizes_identically(self, rng):
        fx = nonneg_least_squares_fixture()
        text = dump_problem_document(problem_to_document(fx.problem))
        reparsed = parse_problem(text)
        a1 = canonicalize(fx.problem)
        a2 = canonicalize(reparsed)
        vals = fx.sample(rng)
        d1 = materialize(a1, a1.flatten_params(vals))
        d2 = materialize(a2, a2.flatten_params(vals))
        np.testing.assert_array_equal(d1.A.toarray(), d2.A.toarray())
        np.testing.assert_array_equal(d1.b, d2.b)
        np.testing.assert_array_equal(d1.c, d2.c)


def norm_chain_problem(k):
    """Minimize a sum of k norms built with +, which nests k deep."""
    x = variable("x", 3)
    objective = norm2(x - parameter("p0", 3))
    for i in range(1, k):
        objective = objective + norm2(x - parameter(f"p{i}", 3))
    return Problem("minimize", objective)


class TestProblemToDocument:
    """``problem_to_document`` walks the expression graph without
    recursion; only the JSON text of a deep problem nests too deep."""

    def test_fixtures_dump_to_their_shipped_documents(self):
        for fx in gradient_fixtures():
            shipped = (FIXTURES / f"{fx.name}.problem.json").read_text()
            assert dump_problem_document(
                problem_to_document(fx.problem)) == shipped

    def test_deep_chain_converts_but_does_not_dump(self):
        doc = problem_to_document(norm_chain_problem(1200))
        node, depth = doc.objective, 0
        while node.get("atom") == "add":
            node, depth = node["args"][0], depth + 1
        assert depth == 1199
        with pytest.raises(ParseError, match="too deep") as err:
            dump_problem_document(doc)
        assert err.value.location == "$"

    def test_chain_round_trips_to_the_same_form(self):
        prob = norm_chain_problem(300)
        again = parse_problem(dump_problem_document(problem_to_document(prob)))
        want, got = build_asa(lower(prob)), build_asa(lower(again))
        for name in ("c_map", "_a_coeff", "_b_map", "retrieval"):
            a, b = getattr(want, name), getattr(got, name)
            assert a.shape == b.shape
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, part),
                                              getattr(b, part))
        np.testing.assert_array_equal(want.objective_offset_map,
                                      got.objective_offset_map)
        for name in ("cones", "param_layout", "variable_layout",
                     "cone_var_layout"):
            assert getattr(want, name) == getattr(got, name)


class TestParseErrors:
    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            load_problem_document("{nope")

    def test_undeclared_parameter_named(self):
        doc = {
            "variables": [{"name": "x", "shape": [2]}],
            "parameters": [],
            "sense": "minimize",
            "objective": {"atom": "sum_squares",
                          "args": [{"param": "mystery"}]},
            "constraints": [],
        }
        with pytest.raises(ParseError, match="mystery"):
            document_to_problem(load_problem_document(json.dumps(doc)))

    def test_unknown_atom_named(self):
        doc = {
            "variables": [{"name": "x", "shape": [2]}],
            "parameters": [],
            "sense": "minimize",
            "objective": {"atom": "logdet", "args": [{"var": "x"}]},
            "constraints": [],
        }
        with pytest.raises(ParseError, match="logdet"):
            load_problem_document(json.dumps(doc))

    def test_empty_constraints_allowed(self):
        doc = {
            "variables": [{"name": "x", "shape": []}],
            "parameters": [],
            "sense": "minimize",
            "objective": {"atom": "sum_squares", "args": [{"var": "x"}]},
        }
        prob = document_to_problem(load_problem_document(json.dumps(doc)))
        assert prob.constraints == ()

    def test_values_shape_mismatch(self, ls_files):
        prob = parse_problem(open(ls_files[0]).read())
        with pytest.raises(ParseError, match="shape"):
            load_values(json.dumps({"F": [[1.0, 2.0]], "g": [0, 0, 0],
                                    "lam": 1.0}), prob)


    def test_values_nested_too_deep(self):
        with pytest.raises(ParseError, match="too deep") as err:
            load_values('{"a": ' + "[" * 3000 + "]" * 3000 + "}")
        assert err.value.location == "$"

    def test_problem_nested_too_deep(self):
        node = {"var": "x"}
        for _ in range(3000):
            node = {"atom": "neg", "args": [node]}
        with pytest.raises(ParseError, match="too deep") as err:
            load_problem_document('{"sense": "minimize", "objective": '
                                  + "[" * 3000 + "]" * 3000 + "}")
        assert err.value.location == "$"
        # a document that the decoder never saw still nests past build's
        # recursion
        doc = ProblemDocument(variables=({"name": "x", "shape": []},),
                              parameters=(), sense="minimize",
                              objective=node, constraints=())
        with pytest.raises(ParseError, match="too deep") as err:
            document_to_problem(doc)
        assert err.value.location == "$"


class TestConeDataFiles:
    def test_roundtrip(self, tmp_path, rng):
        fx = nonneg_least_squares_fixture()
        asa = canonicalize(fx.problem)
        data = materialize(asa, asa.flatten_params(fx.sample(rng)))
        write_cone_data(str(tmp_path / "out"), data)
        back = read_cone_data(str(tmp_path / "out"))
        np.testing.assert_allclose(back.A.toarray(), data.A.toarray(),
                                   atol=1e-12)
        np.testing.assert_allclose(back.b, data.b, atol=1e-12)
        np.testing.assert_allclose(back.c, data.c, atol=1e-12)
        assert back.cones == data.cones

    def test_matrix_market_is_one_indexed_coordinate(self, tmp_path, rng):
        fx = nonneg_least_squares_fixture()
        asa = canonicalize(fx.problem)
        data = materialize(asa, asa.flatten_params(fx.sample(rng)))
        write_cone_data(str(tmp_path / "out"), data)
        text = open(tmp_path / "out" / "A.mtx").read()
        assert text.startswith("%%MatrixMarket matrix coordinate")
        first_entry = text.splitlines()[3].split()
        assert int(first_entry[0]) >= 1 and int(first_entry[1]) >= 1


class TestCli:
    def test_check_dpp_ok(self, ls_files, capsys):
        code = cli.main(["check-dpp", "--problem", ls_files[0]])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_check_dpp_invalid_exits_2(self, tmp_path, capsys):
        doc = {
            "variables": [{"name": "x", "shape": []}],
            "parameters": [{"name": "p1", "shape": []},
                           {"name": "p2", "shape": []}],
            "sense": "minimize",
            "objective": {
                "atom": "add",
                "args": [
                    {"atom": "mul_elem",
                     "args": [{"param": "p1"}, {"param": "p2"}]},
                    {"atom": "sum_squares", "args": [{"var": "x"}]},
                ],
            },
            "constraints": [],
        }
        path = write(tmp_path / "bad.json", json.dumps(doc))
        assert cli.main(["check-dpp", "--problem", path]) == 2
        assert "parameter-product" in capsys.readouterr().out

    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["solve"]) == 1

    def test_params_nested_too_deep_exits_2(self, ls_files, tmp_path, capsys):
        path = write(tmp_path / "deep.json",
                     '{"F": ' + "[" * 3000 + "]" * 3000 + "}")
        assert cli.main(["solve", "--problem", ls_files[0],
                         "--params", path]) == 2
        assert "too deep" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["check-dpp", "--problem", "/nonexistent.json"]) == 2

    def test_solve_writes_solution(self, ls_files, tmp_path, capsys):
        out = str(tmp_path / "sol.json")
        code = cli.main(["solve", "--problem", ls_files[0],
                         "--params", ls_files[1], "--output", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["status"] == "optimal"
        assert "x" in payload["variables"]

    def test_solve_infeasible_exits_3(self, tmp_path):
        doc = {
            "variables": [{"name": "x", "shape": []}],
            "parameters": [],
            "sense": "minimize",
            "objective": {"atom": "sum", "args": [{"var": "x"}]},
            "constraints": [
                {"lhs": {"const": 1.0}, "relop": "<=", "rhs": {"var": "x"}},
                {"lhs": {"var": "x"}, "relop": "<=", "rhs": {"const": 0.0}},
            ],
        }
        path = write(tmp_path / "inf.json", json.dumps(doc))
        assert cli.main(["solve", "--problem", path]) == 3

    def test_canonicalize_roundtrips_through_solver(self, ls_files, tmp_path,
                                                    capsys):
        """Externally re-read cone data solves to the same optimum."""
        out_dir = str(tmp_path / "canon")
        assert cli.main(["canonicalize", "--problem", ls_files[0],
                         "--params", ls_files[1], "--output", out_dir]) == 0
        data = read_cone_data(out_dir)
        external = solve(data, TIGHT)
        assert external.status == "optimal"

        sol_path = str(tmp_path / "sol.json")
        cli.main(["solve", "--problem", ls_files[0], "--params", ls_files[1],
                  "--tol", "1e-11", "--output", sol_path])
        internal = json.loads(open(sol_path).read())
        asa = canonicalize(parse_problem(open(ls_files[0]).read()))
        x_cols = next(s for s in asa.cone_var_layout if s.name == "x")
        np.testing.assert_allclose(
            external.x[x_cols.offset:x_cols.offset + x_cols.size],
            internal["variables"]["x"], atol=1e-6)

    def test_grad_reads_cotangent_seed(self, ls_files, tmp_path):
        seed_path = write(tmp_path / "seed.json",
                          json.dumps({"x": [1.0, 0.0]}))
        out = str(tmp_path / "grad.json")
        code = cli.main(["grad", "--problem", ls_files[0],
                         "--params", ls_files[1],
                         "--seed-cotangent", seed_path, "--output", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert set(payload["gradients"]) == {"F", "g", "lam"}
        assert payload["fallback"] is False

    def test_gradcheck_passes_within_tolerance(self, ls_files, tmp_path):
        out = str(tmp_path / "check.json")
        code = cli.main(["gradcheck", "--problem", ls_files[0],
                         "--params", ls_files[1], "--output", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["max_relative_error"] <= 1e-4

    def test_commands_are_deterministic(self, ls_files, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli.main(["solve", "--problem", ls_files[0], "--params", ls_files[1],
                  "--output", a])
        cli.main(["solve", "--problem", ls_files[0], "--params", ls_files[1],
                  "--output", b])
        assert open(a).read() == open(b).read()
