"""Command-line behavior: output, exit codes, JSON reports, error paths."""

import itertools
import json
import re

import pytest

from sdcodes.cli import main
from sdcodes.gf2core import LinearCode, load_code, save_code
from sdcodes.wefsym import SHADOW_CASES
from conftest import MALFORMED_JSON, e8_code, pairs_code


def run(argv, capsys):
    """Returns (exit_code, stdout, stderr); usage errors become code 2."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def e8_file(tmp_path):
    path = tmp_path / "e8.txt"
    save_code(e8_code(), str(path))
    return str(path)


@pytest.fixture
def p12_file(tmp_path):
    path = tmp_path / "p12.txt"
    save_code(pairs_code(12), str(path))
    return str(path)


class TestCodeCommands:
    def test_check_reports_basic_facts(self, e8_file, capsys):
        rc, out, _ = run(["code", "check", e8_file], capsys)
        assert rc == 0
        assert "self-dual: True" in out
        assert "parity class: DOUBLY_EVEN" in out
        assert "d: 4" in out

    def test_check_json(self, e8_file, capsys):
        rc, out, _ = run(["code", "check", e8_file, "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["results"]["d"] == 4
        assert doc["results"]["parity_class"] == "DOUBLY_EVEN"

    def test_check_non_self_dual_is_reported_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "odd.txt"
        path.write_text("1100000\n")
        rc, out, _ = run(["code", "check", str(path)], capsys)
        assert rc == 0
        assert "self-dual: False" in out

    def test_check_budget_yields_bounds(self, p12_file, capsys):
        rc, out, _ = run(
            ["code", "check", p12_file, "--minweight-budget", "0", "--json"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        d = doc["results"]["d"]
        assert isinstance(d, dict) and d["lower"] <= d["upper"]

    def test_check_shadow(self, p12_file, capsys):
        rc, out, _ = run(["code", "check", p12_file, "--shadow"], capsys)
        assert rc == 0
        assert "d_shadow: 6" in out
        assert "B_6=64" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("11x01\n")
        rc, _, err = run(["code", "check", str(path)], capsys)
        assert rc == 2
        assert "line 1" in err

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
    def test_malformed_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, _, err = run(["code", "check", str(path)], capsys)
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run(["code", "check", "/nonexistent/file.txt"], capsys)
        assert rc == 2

    def test_dual_of_self_dual_round_trips(self, e8_file, tmp_path, capsys):
        out_path = tmp_path / "dual.txt"
        rc, _, _ = run(["code", "dual", e8_file, "-o", str(out_path)], capsys)
        assert rc == 0
        assert load_code(str(out_path)) == e8_code()

    def test_dual_flags_non_self_dual_input(self, tmp_path, capsys):
        path = tmp_path / "rep.txt"
        path.write_text("11111111\n")
        rc, out, _ = run(["code", "dual", str(path), "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["results"]["self_dual_input"] is False
        assert doc["results"]["k"] == 7

    def test_shadow_command(self, p12_file, capsys):
        rc, out, _ = run(["code", "shadow", p12_file], capsys)
        assert rc == 0
        assert "d_shadow: 6" in out
        assert "rep" in out

    def test_shadow_rejects_doubly_even(self, e8_file, capsys):
        rc, _, err = run(["code", "shadow", e8_file], capsys)
        assert rc == 2
        assert "doubly even" in err


class TestWefPossible:
    def test_displayed_family(self, capsys):
        rc, out, _ = run(
            ["wef", "possible", "--n", "82", "--dmin", "14", "--shadow-case", "min5"],
            capsys,
        )
        assert rc == 0
        assert "y^14: 3280 + 2*beta" in out
        assert "W_S[y^9]: -18 + alpha >= 0" in out
        assert "beta == 0 (mod 2)" in out

    def test_fully_determined_family(self, capsys):
        rc, out, _ = run(
            ["wef", "possible", "--n", "82", "--dmin", "14", "--shadow-case", "wt1"],
            capsys,
        )
        assert rc == 0
        assert "y^14: 560" in out
        assert "constraints" not in out
        assert "congruences" not in out

    def test_json_report(self, capsys):
        rc, out, _ = run(
            [
                "wef", "possible", "--n", "58", "--dmin", "10",
                "--shadow-case", "min5", "--json",
            ],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        fam = doc["results"]["family"]
        assert fam["n"] == 58 and fam["params"] == ["beta", "gamma"]
        assert doc["results"]["congruences"] == ["gamma == 0 (mod 2)"]

    def test_infeasible_is_a_result(self, capsys):
        rc, out, _ = run(
            ["wef", "possible", "--n", "82", "--dmin", "18"], capsys
        )
        assert rc == 0
        assert "no such enumerator family" in out

    def test_integrality_failure_is_a_result(self, capsys):
        rc, out, _ = run(
            ["wef", "possible", "--n", "82", "--dmin", "18", "--shadow-case", "ge5"],
            capsys,
        )
        assert rc == 0
        assert "no such enumerator family: W(1) coefficient of y^9" in out

    def test_generic_expansion(self, capsys):
        rc, out, _ = run(["wef", "possible", "--n", "20", "--dmin", "4"], capsys)
        assert rc == 0
        assert "free coefficients: a2" in out
        assert "y^4: 5 + a2" in out

    @pytest.mark.parametrize("case", SHADOW_CASES)
    def test_case_without_table_exits_2(self, case, capsys):
        rc, _, err = run(
            ["wef", "possible", "--n", "20", "--dmin", "4", "--shadow-case", case],
            capsys,
        )
        assert rc == 2
        assert "no shadow cases tabulated" in err

    def test_odd_n_exits_2(self, capsys):
        rc, _, err = run(["wef", "possible", "--n", "21", "--dmin", "4"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_congruences_name_only_family_parameters(self, k, extra, capsys):
        n, dmin = 24 * k + 10, 4 * k + 2 + extra
        for case, cut in itertools.product(
            ("wt1", "min5", "min9", "ge5"), ([], ["--max-exponent", "9"])
        ):
            argv = [
                "wef", "possible", "--n", str(n), "--dmin", str(dmin),
                "--shadow-case", case, "--json", *cut,
            ]
            rc, out, _ = run(argv, capsys)
            if rc != 0:
                continue  # no such case at this length
            results = json.loads(out)["results"]
            params = set(results.get("family", {}).get("params", []))
            for cong in results.get("congruences", []):
                named = set(re.findall(r"[A-Za-z]+\d*", cong.split("==")[0]))
                assert named <= params, f"{argv}: {cong} outside {sorted(params)}"

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_smaller_dmin_renders_a_family(self, k, capsys):
        # below d = 4k + 2 the coefficients a_j the tabulated case leaves
        # free stay parameters of the family
        n = 24 * k + 10
        cases = ("wt1", "min5", "min9", "ge5") if k == 3 else ("min5", "ge5")
        for dmin, case in itertools.product(range(2, 4 * k + 2, 2), cases):
            argv = [
                "wef", "possible", "--n", str(n), "--dmin", str(dmin),
                "--shadow-case", case, "--json",
            ]
            rc, out, err = run(argv, capsys)
            assert rc == 0, f"{argv}: {err}"
            fam = json.loads(out)["results"]["family"]
            assert fam["n"] == n and fam["d"] >= dmin and fam["params"], argv

    def test_deterministic_json(self, capsys):
        argv = [
            "wef", "possible", "--n", "82", "--dmin", "14",
            "--shadow-case", "min9", "--json",
        ]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timing"), d2.pop("timing")
        assert d1 == d2


class TestConstruct:
    def test_circulant(self, tmp_path, capsys):
        out_path = tmp_path / "c.txt"
        rc, out, _ = run(
            ["construct", "circulant", "--first-row", "110", "-o", str(out_path)],
            capsys,
        )
        assert rc == 0
        code = load_code(str(out_path))
        assert (code.length, code.dimension) == (8, 4)
        assert code.is_self_dual
        assert "DOUBLY_EVEN" in out

    def test_circulant_rejects_bad_row(self, capsys):
        rc, _, err = run(["construct", "circulant", "--first-row", "111"], capsys)
        assert rc == 2
        assert "self-orthogonal" in err
        rc, _, err = run(["construct", "circulant", "--first-row", "1a0"], capsys)
        assert rc == 2

    def test_tsai(self, e8_file, tmp_path, capsys):
        out_path = tmp_path / "t.txt"
        rc, out, _ = run(
            ["construct", "tsai", e8_file, "--support", "1", "-o", str(out_path)],
            capsys,
        )
        assert rc == 0
        code = load_code(str(out_path))
        assert (code.length, code.dimension) == (10, 5)
        assert "SINGLY_EVEN" in out

    def test_tsai_rejects_even_weight(self, e8_file, capsys):
        rc, _, err = run(
            ["construct", "tsai", e8_file, "--support", "1,2"], capsys
        )
        assert rc == 2

    def test_neighbor(self, p12_file, capsys):
        rc, out, _ = run(
            ["construct", "neighbor", p12_file, "--x", "101000000000"], capsys
        )
        assert rc == 0
        assert "101000000000" in out

    def test_neighbor_rejects_codeword(self, p12_file, capsys):
        rc, _, err = run(
            ["construct", "neighbor", p12_file, "--x", "111100000000"], capsys
        )
        assert rc == 2
        assert "already a codeword" in err

    def test_vector_argument_validation(self, e8_file, capsys):
        rc, _, err = run(
            ["construct", "tsai", e8_file, "--support", "0,3"], capsys
        )
        assert rc == 2
        assert "1..8" in err
        rc, _, err = run(["construct", "tsai", e8_file, "--x", "101"], capsys)
        assert rc == 2


class TestReproduce:
    def test_families_all_pass(self, capsys):
        rc, out, _ = run(["reproduce", "families"], capsys)
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert lines and all(l.startswith("[PASS]") for l in lines)

    def test_families_json(self, capsys):
        rc, out, _ = run(["reproduce", "families", "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["claims"])

    def test_c82_certificate(self, capsys):
        rc, out, _ = run(["reproduce", "c82", "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["results"] == {"d": 14, "A_14": 560, "d_shadow": 1, "B_13": 560}

    def test_table1_single_neighbor(self, capsys):
        rc, out, _ = run(["reproduce", "table1", "--sample", "1"], capsys)
        assert rc == 0
        assert "N_1: (alpha, beta) = (18, -750)" in out
        assert "checked 1 of 50" in out

    def test_table1_budget_exhaustion_fails_claims(self, capsys):
        rc, out, _ = run(
            [
                "reproduce", "table1", "--sample", "1",
                "--minweight-budget", "1000",
            ],
            capsys,
        )
        assert rc == 1
        assert "[FAIL]" in out
        assert "budget exhausted" in out


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["code", "frobnicate"])
