import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsat
from rsat.cli import REFERENCE_UNSAT_BOUND, main

from oracles import deep_pairs_formula, ring_formula


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_solve_pipeline_deterministic(capsys, tmp_path):
    code, out1, _ = run(capsys, "gen", "--k", "2", "--n", "10", "--m", "20",
                        "--v", "continuous", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--k", "2", "--n", "10", "--m", "20",
                        "--v", "continuous", "--seed", "7")
    assert out1 == out2

    path = tmp_path / "f.rsat"
    path.write_text(out1)
    code, solved1, _ = run(capsys, "solve", str(path))
    assert code == 0
    code, solved2, _ = run(capsys, "solve", str(path), "--decider", "complete")
    assert solved1.splitlines()[0] == solved2.splitlines()[0]
    assert solved1.splitlines()[0] in ("SAT", "UNSAT")
    if solved1.startswith("SAT"):
        assert any(line.startswith("v 1 ") for line in solved1.splitlines()[1:])


def test_solve_reads_stdin(capsys, monkeypatch):
    import io

    code, out, _ = run(capsys, "gen", "--k", "2", "--n", "6", "--m", "12", "--seed", "9")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, solved, _ = run(capsys, "solve")
    assert code == 0
    assert solved.splitlines()[0] in ("SAT", "UNSAT")


FORMULA_READERS = {"solve": ["solve"], "find-bicycle": ["cert", "find", "bicycle"],
                   "find-snake": ["cert", "find", "snake"],
                   "verify": ["cert", "verify", "--cert", "snake.cert"]}


@pytest.mark.parametrize("argv", FORMULA_READERS.values(), ids=FORMULA_READERS)
def test_no_file_reads_the_formula_from_stdin(capsys, monkeypatch, tmp_path, argv):
    import io

    from test_certificates import planted_snake

    f, snake = planted_snake(6)
    text = rsat.render_formula(f)
    (tmp_path / "f.rsat").write_text(text)
    (tmp_path / "snake.cert").write_text(rsat.render_certificate(snake))
    monkeypatch.chdir(tmp_path)
    code, from_file, err = run(capsys, *argv, "f.rsat")
    assert code == 0 and err == "" and from_file
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, *argv) == (0, from_file, "")


@pytest.mark.parametrize("argv", FORMULA_READERS.values(), ids=FORMULA_READERS)
def test_stdin_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--stdin")
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --stdin\n"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--k", "2")
    assert code == 1
    assert "usage error" in err


def test_parse_error_exit_code_names_line(capsys, tmp_path):
    path = tmp_path / "bad.rsat"
    path.write_text("p rsat 2 2 1 continuous\n1:le:1/1 2:ge:1/2\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "line 2" in err and "innocuous" in err


def test_parse_error_names_line_of_bound_outside_v(capsys, tmp_path):
    path = tmp_path / "bad.rsat"
    path.write_text("p rsat 2 2 2 finite:3\n1:le:1/2 2:ge:1/2\n1:le:1/3 2:ge:1/2\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "line 3" in err and "not in V" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.rsat")
    assert code == 2


def test_scc_decider_on_wrong_width_is_usage_error(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--k", "3", "--n", "6", "--m", "8", "--seed", "1")
    path = tmp_path / "k3.rsat"
    path.write_text(out)
    code, _, err = run(capsys, "solve", str(path), "--decider", "scc")
    assert code == 1
    assert "k = 2" in err


def test_cert_find_and_verify_roundtrip(capsys, tmp_path):
    from test_certificates import planted_snake

    f, _ = planted_snake(6)
    formula_path = tmp_path / "snake.rsat"
    formula_path.write_text(rsat.render_formula(f))

    cert_path = tmp_path / "snake.cert"
    code, out, _ = run(capsys, "cert", "find", "snake", str(formula_path),
                       "--out", str(cert_path))
    assert code == 0
    assert cert_path.read_text().startswith("cert snake 6")

    code, out, _ = run(capsys, "cert", "verify", str(formula_path), "--cert", str(cert_path))
    assert code == 0
    assert out.strip() == "VALID"


def test_cert_find_bicycle_rejects_budget(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--k", "2", "--n", "8", "--m", "24",
                       "--seed", "5", "--distinct")
    path = tmp_path / "f.rsat"
    path.write_text(out)
    code, out, err = run(capsys, "cert", "find", "bicycle", str(path), "--budget", "1")
    assert code == 1
    assert out == "" and "--budget" in err


@pytest.mark.parametrize("options_first", [True, False])
def test_cert_find_options_on_either_side_of_the_file(capsys, tmp_path, options_first):
    path = tmp_path / "ring.rsat"
    path.write_text(rsat.render_formula(ring_formula(40)))
    cert_path = tmp_path / "p.cert"
    for kind, options in (("bicycle", ["--out", str(cert_path)]),
                          ("snake", ["--budget", "50000"])):
        argv = [*options, str(path)] if options_first else [str(path), *options]
        code, out, err = run(capsys, "cert", "find", kind, *argv)
        assert code == 0 and err == ""
        assert out == ("" if kind == "bicycle" else "NONE\n")
    assert cert_path.read_text().startswith("cert bicycle")


def test_cert_find_bicycle_on_long_ring(capsys, tmp_path):
    formula_path = tmp_path / "ring.rsat"
    formula_path.write_text(rsat.render_formula(ring_formula(1500)))
    cert_path = tmp_path / "c"
    code, _, _ = run(capsys, "cert", "find", "bicycle", str(formula_path),
                     "--out", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "cert", "verify", str(formula_path), "--cert", str(cert_path))
    assert code == 0 and out.strip() == "VALID"


def test_cert_find_snake_on_long_ring(capsys, tmp_path):
    # the walk goes 1500 chains deep, past the interpreter's recursion limit
    path = tmp_path / "ring.rsat"
    path.write_text(rsat.render_formula(ring_formula(1500)))
    code, out, _ = run(capsys, "cert", "find", "snake", str(path), "--budget", "50000")
    assert code == 0 and out.strip() == "NONE"


def test_cert_find_none_on_tiny_formula(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--k", "2", "--n", "4", "--m", "2", "--seed", "3")
    path = tmp_path / "f.rsat"
    path.write_text(out)
    code, out, _ = run(capsys, "cert", "find", "snake", str(path))
    assert code == 0 and out.strip() == "NONE"


@pytest.mark.parametrize("argv", [
    ("gen", "--k", "2", "--n", "4", "--m", "2", "--v", "finite:1"),
    ("sweep", "--k", "2", "--v", "bogus", "--n", "20", "--c", "1", "--trials", "2"),
])
def test_bad_vspec_token_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: argument --v: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("gen", "--k", "2", "--n", "4", "--m", "2", "--v", "dyadic:65"),
    ("sweep", "--k", "2", "--v", "dyadic:65", "--n", "20", "--c", "1", "--trials", "2"),
])
def test_oversize_vspec_is_one_error_line(capsys, argv):
    # 2^65 encoded sides: more than one 64-bit draw can make
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^64" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gen", "--k", "2", "--n", "18446744073709551617", "--m", "1"),
    ("gen", "--k", "2", "--n", "18446744073709551617", "--m", "0"),
    ("sweep", "--k", "2", "--v", "continuous", "--n", "18446744073709551617",
     "--c", "0.000000000000000001", "--trials", "1"),
])
def test_n_above_2_to_the_64_is_one_error_line(capsys, argv):
    # one 64-bit draw picks each variable; refused before the first draw
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: n must be <= 2^64") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--k", "2", "--v", "continuous", "--n", "18446744073709551616",
     "--c", "0.000000000000000001", "--trials", "1"),
    ("solve",),
    ("cert", "find", "snake"),
    ("cert", "find", "bicycle"),
])
def test_n_beyond_any_list_index_is_one_error_line(capsys, tmp_path, argv):
    # 2^64 variables can be drawn, but no list of 2^64 entries can be indexed
    path = tmp_path / "f.rsat"
    path.write_text("p rsat 2 18446744073709551616 1 continuous\n1:le:1/2 2:ge:1/2\n")
    code, out, err = run(capsys, *argv, *([] if argv[0] == "sweep" else [str(path)]))
    assert (code, out) == (1, "")
    assert err == f"error: n must be <= {sys.maxsize - 2} to decide, got 18446744073709551616\n"


def test_sweep_rejects_a_bad_n_before_the_first_trial(capsys, monkeypatch):
    decided = []
    monkeypatch.setattr("rsat.sweep.decide", lambda *args: decided.append(args))
    code, out, err = run(capsys, "sweep", "--k", "2", "--v", "continuous", "--n", "10",
                         "--n", "0", "--c", "1", "--trials", "1")
    assert code == 1 and out == "" and decided == []
    assert err == "error: n must be >= 1, got 0\n"


def test_sweep_csv_stdout(capsys):
    code, out, err = run(
        capsys, "sweep", "--k", "2", "--v", "finite:2", "--n", "20",
        "--c", "1/2", "--c", "2", "--trials", "10", "--seed", "4",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,v,n,m,c,trials,sat,p_hat,ci_lo,ci_hi,seed"
    assert len(lines) == 3


@pytest.mark.parametrize("ratio", ["1/0", "x"])
def test_sweep_rejects_bad_ratio(capsys, ratio):
    code, out, err = run(capsys, "sweep", "--k", "2", "--v", "finite:2", "--n", "20",
                         "--c", ratio, "--trials", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage error: bad ratio in --c")


def test_sweep_rejects_bad_thread_count(capsys, monkeypatch):
    monkeypatch.setenv("RSAT_THREADS", "abc")
    code, out, err = run(capsys, "sweep", "--k", "2", "--v", "finite:2", "--n", "20",
                         "--c", "1", "--trials", "2")
    assert code == 1 and out == ""
    assert "RSAT_THREADS" in err and "'abc'" in err


def test_sweep_rejects_budget_below_one(capsys):
    code, out, err = run(capsys, "sweep", "--k", "3", "--v", "continuous", "--n", "10",
                         "--c", "4", "--trials", "3", "--budget", "0")
    assert code == 1 and out == ""
    assert "budget must be >= 1, got 0" in err


def test_solve_complete_on_deep_formula(capsys, tmp_path):
    # its search runs 1200 branch levels deep
    path = tmp_path / "deep.rsat"
    path.write_text(rsat.render_formula(deep_pairs_formula(1200)))
    code, out, _ = run(capsys, "solve", str(path), "--decider", "complete")
    assert code == 0
    assert out.splitlines()[0] == "SAT"


# sha256 of the full stdout of `rsat bounds`: its text is fixed byte for byte
BOUNDS_DIGESTS = {
    ("--k", "2"): "64754187dd06c4c3992f165049a275d9982aa98d5c0578ee70b712a93997e08b",
    ("--k", "3"): "c215dfa36931d6f332a536baaf8d4909a80f6e78ebce3be704d62621be676ccc",
    ("--k", "4"): "d9d7a4e06561e4e9feba7e5bbb3eaa4fcdac8118e49c0515304a9d85ae2a5dd6",
    ("--k", "6"): "1f9e843f53f525062c3251f7ec533826f5aad95a80829c0f32b3085b449b6aa6",
    ("--k", "9"): "b7035dc2f01ed56be638d8472bb8774f25bc25be75df676d06c52753408373b7",
    ("--k", "5", "--v", "2", "--v", "100"):
        "57d1fe3dbe2ed4986dde028f8d615b0001510e1a04dd9749528ea2f3c5aefda3",
}


@pytest.mark.parametrize("argv", list(BOUNDS_DIGESTS))
def test_bounds_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_DIGESTS[argv]


@pytest.mark.parametrize("k", range(2, 13))
def test_bounds_lines_are_true(capsys, k):
    code, out, _ = run(capsys, "bounds", "--k", str(k))
    assert code == 0
    root = rsat.thm1_root(k)
    for line in out.splitlines():
        name, *pairs = line.split()
        field = dict(pair.split("=", 1) for pair in pairs)
        if name == "unsat_bound_root":  # the printed c rounds the root
            c = float(field["c"])
            assert rsat.thm1_value(k, c - 1e-6) > 1 > rsat.thm1_value(k, c + 1e-6)
        elif name == "unsat_bound_reference":
            assert rsat.thm1_value(k, float(field["c"])) < 1
        elif name == "unsat_bound_value_at_reference":
            reference = REFERENCE_UNSAT_BOUND[k]
            assert abs(float(field["value"]) - rsat.thm1_value(k, reference)) <= 5e-7
        elif name == "width3_unsat_bound":
            assert abs(float(field["c"]) - rsat.bejar_bound(int(field["v"]))) <= 5e-7
        else:  # the smallest v whose width-3 bound exceeds the root
            assert name == "crossover_v"
            v = field["v"]
            if v.startswith(">10^"):
                assert root * math.log10(8 / 7) >= int(v[4:])
            else:
                v = int(v)
                assert rsat.bejar_bound(v) > root
                assert v == 2 or rsat.bejar_bound(v - 1) <= root


def test_bounds_at_float_resolution_and_errors(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "19")
    assert code == 0
    assert out.startswith("unsat_bound_root k=19 c=")
    for argv in (("--k", "54"), ("--k", "3", "--v", "1")):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:")


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "3")
    assert code == 0
    assert "unsat_bound_root k=3 c=36.08" in out
    assert "unsat_bound_reference k=3 c=36.1" in out
    code, out, _ = run(capsys, "bounds", "--k", "2")
    assert "c=12.066" in out
    assert "unsat_bound_reference k=2 c=12.664" in out


def test_moments_output(capsys):
    code, out, _ = run(capsys, "moments", "--n", "2", "--m", "2", "--k", "2", "--d", "2,0")
    assert code == 0
    assert "exact 3/1 (3.000000)" in out
    assert "within_cap True" in out
    code, out, _ = run(capsys, "moments", "--n", "2", "--m", "2", "--k", "2",
                       "--d", "2,0", "--mc", "2000", "--seed", "1")
    assert "mc_mean" in out


@pytest.mark.parametrize(
    "argv, err_start, message",
    [
        (("--n", "4", "--d", "1,1"), "usage error:", "need one exponent per variable"),
        (("--n", "2", "--d", "1,-1"), "usage error:", "exponents must be nonnegative"),
        (("--n", "2", "--d", "1,x"), "usage error:", "bad --d list '1,x'"),
        (("--n", "1", "--m", "1000", "--d", "400"), "error:", "outside the double range"),
        # the exact moment fits a double; the Monte Carlo variance does not
        (("--n", "2", "--m", "100", "--d", "100,0", "--mc", "20"), "error:", "double range"),
        (("--n", "2", "--d", "2,0", "--mc", "-5"), "usage error:", "--mc must be >= 0, got -5"),
        # impossible sizes are out of the moment's domain, not a bad --d list
        (("--m", "-3", "--d", "1,0", "--mc", "3"), "error:", "got n=2, m=-3, k=2"),
        (("--k", "-2", "--d", "1,0", "--mc", "3"), "error:", "got n=2, m=2, k=-2"),
        (("--n", "0", "--d", "1"), "error:", "got n=0, m=2, k=2"),
    ],
)
def test_moments_rejections_are_one_line(capsys, argv, err_start, message):
    options = {"--n": "2", "--m": "2", "--k": "2"}
    options.update(zip(argv[::2], argv[1::2]))
    code, out, err = run(capsys, "moments", *(x for kv in options.items() for x in kv))
    assert code == 1 and out == ""
    assert err.startswith(err_start) and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_solve_decides_by_the_sweep_rule(capsys, tmp_path, monkeypatch):
    def limited(f, budget):
        raise rsat.ResourceLimit("budget")

    monkeypatch.setattr(rsat.sweep, "solve_complete", limited)
    path = tmp_path / "f.rsat"
    path.write_text("p rsat 2 2 1 continuous\n1:le:1/2 2:ge:1/2\n")
    code, out, err = run(capsys, "solve", str(path), "--decider", "complete")
    assert code == 3 and out == "" and err == "resource limit: budget\n"


def test_solve_out_of_memory_is_resource_limit(capsys, tmp_path, monkeypatch):
    # a huge n that the header admits fails in the decider's first O(n) list
    def out_of_memory(c):
        raise MemoryError

    monkeypatch.setattr(rsat.solver, "reduce_candidates", out_of_memory)
    path = tmp_path / "f.rsat"
    path.write_text("p rsat 2 2 1 continuous\n1:le:1/2 2:ge:1/2\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3 and out == "" and err == "resource limit: out of memory\n"


def test_solve_prints_unsat_alone(capsys, tmp_path):
    path = tmp_path / "unit.rsat"
    path.write_text("p rsat 2 1 2 continuous\n1:le:3/10 1:le:3/10\n1:ge:7/10 1:ge:7/10\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and out == "UNSAT\n"


def test_solve_out_of_budget_is_resource_limit(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--k", "3", "--n", "10", "--m", "40", "--seed", "1")
    path = tmp_path / "k3.rsat"
    path.write_text(out)
    code, out, err = run(capsys, "solve", str(path), "--decider", "complete", "--budget", "1")
    assert code == 3 and out == ""
    assert err.startswith("resource limit:")


def test_sweep_reports_limited_trials(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--k", "3", "--v", "continuous", "--n", "10",
                         "--c", "4", "--c", "1", "--trials", "10", "--decider", "complete",
                         "--budget", "1", "--out", str(out_path))
    assert code == 0 and out == ""
    report = Path(str(out_path) + ".limited.csv").read_text()
    assert err == report
    rows = [line.split(",") for line in report.splitlines()[1:]]
    assert rows and all(int(row[6]) > 0 for row in rows)
    cells = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert len(cells) == len(rows) == 2
    for cell, row in zip(cells, rows):
        assert cell[3] == row[3]  # same m
        assert int(cell[5]) == int(row[5]) - int(row[6])  # trials leave out the limited


def test_sweep_out_replaces_an_earlier_limited_report(capsys, tmp_path):
    out_path = tmp_path / "o.csv"
    report_path = Path(str(out_path) + ".limited.csv")
    argv = ["sweep", "--k", "3", "--v", "continuous", "--n", "8", "--c", "6", "--trials", "3",
            "--out", str(out_path)]
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 0 and out == "" and err == report_path.read_text()
    assert report_path.read_text().splitlines()[1].endswith(",3,3,1")  # requested, limited, flagged
    assert out_path.read_text().splitlines()[1].split(",")[5] == "0"
    code, out, err = run(capsys, *argv)  # the default budget decides every trial
    assert code == 0 and out == "" and err == ""
    assert out_path.read_text().splitlines()[1].split(",")[5] == "3"
    assert report_path.read_text() == "k,v,n,m,c,requested,limited,flagged\n"


def test_cert_verify_missing_cert_is_parse_error(capsys, tmp_path):
    path = tmp_path / "f.rsat"
    path.write_text("p rsat 2 2 1 continuous\n1:le:1/2 2:ge:1/2\n")
    code, out, err = run(capsys, "cert", "verify", str(path), "--cert", str(tmp_path / "none"))
    assert code == 2 and out == ""
    assert err.startswith("parse error: cannot read")


SNAKE_FORMULA = ("--k", "2", "--n", "24", "--m", "96", "--seed", "8")  # a snake of ell 10
BICYCLE_FORMULA = ("--k", "2", "--n", "8", "--m", "16", "--seed", "60001", "--distinct")


def _with_index(index):
    """Set the clause index of the first chain line."""
    return lambda lines: [lines[0], f"{index} {lines[1].split(' ', 1)[1]}", *lines[2:]]


@pytest.mark.parametrize("formula, kind, edit, against, code, out, err", [
    (SNAKE_FORMULA, "snake", list, None, 0, "VALID\n", ""),
    (SNAKE_FORMULA, "snake", lambda lines: ["cert snake 4", *lines[1:6]], None, 0, "INVALID\n", ""),
    (SNAKE_FORMULA, "snake", lambda lines: ["cert snake 7", *lines[1:9]], None, 0, "INVALID\n", ""),
    (BICYCLE_FORMULA, "bicycle", list, None, 0, "VALID\n", ""),
    (BICYCLE_FORMULA, "bicycle", _with_index(99), None, 0, "INVALID\n", ""),
    (BICYCLE_FORMULA, "bicycle", _with_index(-1), None, 0, "INVALID\n", ""),
    (SNAKE_FORMULA, "snake", lambda lines: ["cert snake -3", *lines[1:]], None, 2, "",
     "parse error: line 1: snake needs ell >= 0, got -3\n"),
    (SNAKE_FORMULA, "snake", list, ("--k", "3", "--n", "24", "--m", "96", "--seed", "8"), 1, "",
     "error: snakes are defined for k = 2, got k = 3\n"),
], ids=["snake", "snake-ell-4", "snake-ell-7", "bicycle", "bicycle-index-99",
        "bicycle-index-minus-1", "snake-ell-minus-3", "width-3"])
def test_cert_verify_answers_a_verdict(capsys, tmp_path, formula, kind, edit, against, code,
                                       out, err):
    # a chain that certifies nothing for the formula is INVALID, exit 0;
    # only an unreadable certificate (2) or a width other than 2 (1) is not
    path, cert = tmp_path / "f.rsat", tmp_path / "c.cert"
    path.write_text(run(capsys, "gen", *formula)[1])
    found = run(capsys, "cert", "find", kind, str(path))[1].splitlines()
    cert.write_text("\n".join(edit(found)) + "\n")
    if against is not None:
        path.write_text(run(capsys, "gen", *against)[1])
    assert run(capsys, "cert", "verify", str(path), "--cert", str(cert)) == (code, out, err)


NOT_UTF8 = b"p rsat 2 1 1 continuous\n1:le:\xff/2 1:ge:1/2\n"


def test_solve_on_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "f.rsat"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err == "parse error: line 2: byte 0xff is not UTF-8\n"


def test_cert_verify_on_a_cert_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path, cert = tmp_path / "f.rsat", tmp_path / "bad.cert"
    path.write_text("p rsat 2 2 1 continuous\n1:le:1/2 2:ge:1/2\n")
    cert.write_bytes(b"cert bicycle 1 0 0\n0 1:le:1/2 \xc3(\n")
    code, out, err = run(capsys, "cert", "verify", str(path), "--cert", str(cert))
    assert code == 2 and out == ""
    assert err == "parse error: line 2: byte 0xc3 is not UTF-8\n"


def test_stdin_that_is_not_utf8_is_a_parse_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    code, out, err = run(capsys, "solve")
    assert code == 2 and out == ""
    assert err == "parse error: line 2: byte 0xff is not UTF-8\n"


def test_process_stdin_that_is_not_utf8_is_a_parse_error():
    # under the C locale Python reads stdin with surrogateescape, not strictly
    src = str(Path(rsat.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "rsat", "solve"],
                          input=b"c \xff\n" + NOT_UTF8, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"parse error: line 1: byte 0xff is not UTF-8\n"


def test_gen_into_missing_directory_is_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "--k", "2", "--n", "4", "--m", "4",
                         "--out", str(tmp_path / "missing" / "f.rsat"))
    assert code == 2 and out == ""
    assert err.startswith("i/o error:")


def test_module_entry_point_passes_exit_code():
    src = str(Path(rsat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "rsat", "solve", "/nonexistent/f.rsat"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: cannot read")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_solve_rejects_budget_below_one(capsys, tmp_path, budget):
    path = tmp_path / "k3.rsat"
    path.write_text(rsat.render_formula(rsat.sample_formula(rsat.GenConfig(k=3, n=10, m=40))))
    code, out, err = run(capsys, "solve", str(path), "--decider", "complete", "--budget", budget)
    assert code == 1 and out == ""
    assert err == f"error: budget must be >= 1, got {budget}\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cert_find_snake_rejects_budget_below_one(capsys, tmp_path, budget):
    path = tmp_path / "ring.rsat"
    path.write_text(rsat.render_formula(ring_formula(40)))
    code, out, err = run(capsys, "cert", "find", "snake", str(path), "--budget", budget)
    assert code == 1 and out == ""
    assert err == f"error: budget must be >= 1, got {budget}\n"
