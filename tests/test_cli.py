import json

import pytest

from ufabound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "3")
    assert code == 0 and out == "115\n"


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--max", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,dfa2ufa_lower,dfa2ufa_upper,nfa2ufa_lower,nfa2dfa"
    assert lines[1] == "1,1,1,1,1"
    assert lines[3] == "3,39,39,115,133"


def test_enumerate_methods_agree(tmp_path, capsys):
    out_a = tmp_path / "filter.txt"
    out_b = tmp_path / "bijection.txt"
    assert run(capsys, "enumerate", "--n", "3", "--method", "filter",
               "--out", str(out_a))[0] == 0
    assert run(capsys, "enumerate", "--n", "3", "--method", "bijection",
               "--out", str(out_b))[0] == 0
    a = set(out_a.read_text().splitlines())
    b = set(out_b.read_text().splitlines())
    assert a == b and len(a) == 115


def test_build_matrix_and_rank(tmp_path, capsys):
    mat = tmp_path / "m2.mat"
    code, out, _ = run(capsys, "build-matrix", "--n", "2", "--kind", "M",
                       "--out", str(mat))
    assert code == 0 and "7x9" in out
    assert (tmp_path / "m2.mat.rows").exists()
    assert (tmp_path / "m2.mat.cols").exists()

    code, out, _ = run(capsys, "rank", "--in", str(mat), "--exact")
    assert code == 0 and out == "7\n"
    code, out, _ = run(capsys, "rank", "--in", str(mat), "--mod", str(2**31 - 1))
    assert code == 0 and out == "7\n"


def test_build_matrix_output_is_reproducible(tmp_path, capsys):
    first = tmp_path / "a.mat"
    second = tmp_path / "b.mat"
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(first))
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--jobs", "3",
        "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.mat.rows").read_bytes() == (tmp_path / "b.mat.rows").read_bytes()


def test_rank_reports_bad_modulus(tmp_path, capsys):
    mat = tmp_path / "k.mat"
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))
    code, _, err = run(capsys, "rank", "--in", str(mat), "--mod", "4")
    assert code == 2 and "not prime" in err


def test_rank_rejects_primes_beyond_the_limit(tmp_path, capsys):
    mat = tmp_path / "m3.mat"
    run(capsys, "build-matrix", "--n", "3", "--kind", "M", "--out", str(mat))
    for p in (4294967311, 2305843009213693951, 618970019642690137449562111):
        code, out, err = run(capsys, "rank", "--in", str(mat), "--mod", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "2^31" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    code, out, _ = run(capsys, "rank", "--in", str(mat), "--mod", str(2**31 - 1))
    assert code == 0 and out == "115\n"


def test_build_matrix_size_errors(tmp_path, capsys):
    for n, limit in (("0", "n must be positive, got 0"),
                     ("5", "limited to n <= 4")):
        code, out, err = run(capsys, "build-matrix", "--n", n, "--kind", "M",
                             "--out", str(tmp_path / "m.mat"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and limit in err
        assert len(err.splitlines()) == 1


def test_jobs_below_one_rejected(tmp_path, capsys):
    mat = tmp_path / "k.mat"
    unwritten = tmp_path / "j0.mat"
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))
    for argv in (("build-matrix", "--n", "2", "--kind", "K", "--out", str(unwritten),
                  "--jobs", "0"),
                 ("rank", "--in", str(mat), "--mod", "2", "--jobs", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--jobs" in err
        assert len(err.splitlines()) == 1
    assert not unwritten.exists()


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--level", "quick")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_full_n2_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--level", "full")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_verify_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "verify", "--n", "2", "--level", "quick")
    _, second, _ = run(capsys, "verify", "--n", "2", "--level", "quick")
    assert first == second


VERIFY_FULL_N3_SEED0 = """\
PASS  orderedness characterizations agree (133 tables)
PASS  graph entries match two-way simulation (10000 pairs)
PASS  augmented-row identity (36 quadruples)
PASS  layer rank equals complement-matrix rank (115 tables)
PASS  ordered-table enumerations agree (115 tables at size 3)
PASS  staged suffix tables: acceptance sets (115 base tables)
PASS  drop-down rows vanish (720 entries)
PASS  breakthrough completion determines entries (42175 entries)
PASS  at-least-as-large tables always break through (7992 pairs)
PASS  matrix rank equals the ordered-table count (rank 115, count 115)
PASS  random-automaton ranks stay within the bound (50 instances with 3 states)
11/11 checks passed
"""


def test_verify_full_n3_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--level", "full", "--seed", "0")
    assert code == 0
    assert out == VERIFY_FULL_N3_SEED0


SCHMIDT_RANDOM_20_N3_SEED0 = """\
{"bound": 115, "cols": 3, "n": 3, "ok": true, "rank": 1, "reduced_cols": 2, "reduced_rows": 2, "rows": 2, "seed": 0}
{"bound": 115, "cols": 14, "n": 3, "ok": true, "rank": 1, "reduced_cols": 1, "reduced_rows": 4, "rows": 17, "seed": 1}
{"bound": 115, "cols": 10, "n": 3, "ok": true, "rank": 1, "reduced_cols": 4, "reduced_rows": 2, "rows": 17, "seed": 2}
{"bound": 115, "cols": 11, "n": 3, "ok": true, "rank": 1, "reduced_cols": 5, "reduced_rows": 2, "rows": 19, "seed": 3}
{"bound": 115, "cols": 2, "n": 3, "ok": true, "rank": 1, "reduced_cols": 1, "reduced_rows": 2, "rows": 11, "seed": 4}
{"bound": 115, "cols": 18, "n": 3, "ok": true, "rank": 0, "reduced_cols": 0, "reduced_rows": 0, "rows": 4, "seed": 5}
{"bound": 115, "cols": 7, "n": 3, "ok": true, "rank": 1, "reduced_cols": 3, "reduced_rows": 2, "rows": 3, "seed": 6}
{"bound": 115, "cols": 16, "n": 3, "ok": true, "rank": 1, "reduced_cols": 2, "reduced_rows": 1, "rows": 1, "seed": 7}
{"bound": 115, "cols": 10, "n": 3, "ok": true, "rank": 1, "reduced_cols": 2, "reduced_rows": 1, "rows": 10, "seed": 8}
{"bound": 115, "cols": 20, "n": 3, "ok": true, "rank": 1, "reduced_cols": 2, "reduced_rows": 1, "rows": 17, "seed": 9}
{"bound": 115, "cols": 16, "n": 3, "ok": true, "rank": 1, "reduced_cols": 2, "reduced_rows": 2, "rows": 3, "seed": 10}
{"bound": 115, "cols": 19, "n": 3, "ok": true, "rank": 1, "reduced_cols": 2, "reduced_rows": 3, "rows": 7, "seed": 11}
{"bound": 115, "cols": 8, "n": 3, "ok": true, "rank": 3, "reduced_cols": 4, "reduced_rows": 3, "rows": 7, "seed": 12}
{"bound": 115, "cols": 5, "n": 3, "ok": true, "rank": 0, "reduced_cols": 2, "reduced_rows": 0, "rows": 5, "seed": 13}
{"bound": 115, "cols": 9, "n": 3, "ok": true, "rank": 1, "reduced_cols": 3, "reduced_rows": 3, "rows": 16, "seed": 14}
{"bound": 115, "cols": 1, "n": 3, "ok": true, "rank": 1, "reduced_cols": 1, "reduced_rows": 3, "rows": 16, "seed": 15}
{"bound": 115, "cols": 14, "n": 3, "ok": true, "rank": 1, "reduced_cols": 1, "reduced_rows": 3, "rows": 13, "seed": 16}
{"bound": 115, "cols": 15, "n": 3, "ok": true, "rank": 0, "reduced_cols": 3, "reduced_rows": 0, "rows": 19, "seed": 17}
{"bound": 115, "cols": 2, "n": 3, "ok": true, "rank": 0, "reduced_cols": 1, "reduced_rows": 0, "rows": 13, "seed": 18}
{"bound": 115, "cols": 7, "n": 3, "ok": true, "rank": 0, "reduced_cols": 3, "reduced_rows": 0, "rows": 6, "seed": 19}
bound 115 holds on 20 random instances
"""


def test_schmidt_random_output_is_pinned(capsys):
    code, out, _ = run(capsys, "schmidt", "--random", "20", "--states", "3",
                       "--alphabet", "2", "--seed", "0")
    assert code == 0
    assert out == SCHMIDT_RANDOM_20_N3_SEED0


def test_schmidt_with_files(tmp_path, capsys):
    automaton = {
        "type": "2nfa",
        "states": 2,
        "alphabet": ["a", "b"],
        "initial": [1],
        "accepting": [2],
        "transitions": [
            {"from": 1, "symbol": "⊢", "to": 1, "dir": 1},
            {"from": 1, "symbol": "a", "to": 2, "dir": 1},
            {"from": 2, "symbol": "b", "to": 2, "dir": 1},
            {"from": 2, "symbol": "a", "to": 1, "dir": -1},
        ],
    }
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(automaton))
    (tmp_path / "xs.txt").write_text("-\na\na b\nb\n")
    (tmp_path / "ys.txt").write_text("-\nb\nb b\na\n")
    code, out, _ = run(capsys, "schmidt", "--automaton", str(aut),
                       "--prefixes", str(tmp_path / "xs.txt"),
                       "--suffixes", str(tmp_path / "ys.txt"))
    assert code == 0
    assert "rank" in out and "bound 7" in out
    report = json.loads(out.splitlines()[-1])
    assert report["ok"] is True and report["rank"] <= 7
    assert report["rows"] == 4 and report["cols"] == 4


def test_schmidt_random_mode(capsys):
    code, out, _ = run(capsys, "schmidt", "--random", "3", "--states", "2",
                       "--alphabet", "2", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for line in lines[:-1]:
        assert json.loads(line)["ok"] is True


def test_schmidt_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schmidt", "--prefixes", "x"])
    assert exc.value.code == 2


def test_schmidt_random_refuses_file_options(capsys):
    for files in (["--automaton", "a.json", "--prefixes", "x", "--suffixes", "y"],
                  ["--suffixes", "y"]):
        with pytest.raises(SystemExit) as exc:
            main(["schmidt", *files, "--random", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--random cannot be combined with" in captured.err
        assert files[0] in captured.err and "Traceback" not in captured.err


def test_unknown_symbol_in_strings(tmp_path, capsys):
    automaton = {
        "type": "2nfa", "states": 1, "alphabet": ["a"],
        "initial": [1], "accepting": [1],
        "transitions": [{"from": 1, "symbol": "⊢", "to": 1, "dir": 1},
                        {"from": 1, "symbol": "a", "to": 1, "dir": 1}],
    }
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(automaton))
    (tmp_path / "xs.txt").write_text("a z\n")
    (tmp_path / "ys.txt").write_text("-\n")
    code, _, err = run(capsys, "schmidt", "--automaton", str(aut),
                       "--prefixes", str(tmp_path / "xs.txt"),
                       "--suffixes", str(tmp_path / "ys.txt"))
    assert code == 2 and "unknown symbol" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


def test_bad_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "schmidt", "--automaton", str(bad),
                       "--prefixes", str(bad), "--suffixes", str(bad))
    assert code == 2 and err.startswith("error:")


def test_schmidt_rejects_one_way_automata(tmp_path, capsys):
    one_way = {
        "type": "nfa", "states": 2, "alphabet": ["a"],
        "initial": [1], "accepting": [2],
        "transitions": [{"from": 1, "symbol": "a", "to": 2}],
    }
    aut = tmp_path / "nfa.json"
    aut.write_text(json.dumps(one_way))
    (tmp_path / "xs.txt").write_text("a\n")
    code, out, err = run(capsys, "schmidt", "--automaton", str(aut),
                         "--prefixes", str(tmp_path / "xs.txt"),
                         "--suffixes", str(tmp_path / "xs.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2nfa" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
