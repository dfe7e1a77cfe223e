import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ufabound import crossing, exact_linalg, verification
from ufabound.cli import _parser, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "3")
    assert code == 0 and out == "115\n"


def test_count_beyond_the_digit_limit_is_a_one_line_error():
    # count(1000) has more digits than Python converts to a string by
    # default; a fresh interpreter must refuse it without a traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ufabound.cli", "count", "--n", "1000"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_the_package_runs_as_a_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ufabound", "count", "--n", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "115\n", "")


def test_only_rank_mod_an_odd_prime_loads_numpy(tmp_path, capsys):
    # numpy is imported by the GF(p) elimination and BoolMatrix.to_numpy
    # alone: verify at n = 4 and a random schmidt run finish without it
    mat = tmp_path / "k2.mat"
    assert run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))[0] == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, loaded in ((["verify", "--n", "4"], False), (["schmidt", "--random", "3"], False),
                         (["rank", "--in", str(mat), "--mod", "7"], True)):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ufabound.cli import main; code = main(); "
             "print('numpy' in sys.modules); sys.exit(code)", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout.endswith(f"\n{loaded}\n"), argv


def test_count_refuses_sizes_beyond_its_cap_before_any_work(capsys):
    # count(815) has 4,299 digits and still prints; count(816) would not
    code, out, err = run(capsys, "count", "--n", "815")
    assert code == 0 and err == "" and len(out) == 4300
    for n in ("816", "3000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n", n)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == ("error: count is limited to n <= 815: "
                       "count(816) has more than 4300 digits\n")


def test_table1_refuses_max_beyond_its_cap_before_any_work(capsys):
    for bad in ("121", "5000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "table1", "--max", bad)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == ("error: table1 is limited to --max 120: "
                       "row 121 has more than 4300 digits\n")


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--max", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,dfa2ufa_lower,dfa2ufa_upper,nfa2ufa_lower,nfa2dfa"
    assert lines[1] == "1,1,1,1,1"
    assert lines[3] == "3,39,39,115,133"


def test_table1_rejects_max_below_one(capsys):
    for bad in ("0", "-2"):
        code, out, err = run(capsys, "table1", "--max", bad)
        assert code == 2 and out == ""
        assert err == f"error: --max must be at least 1, got {bad}\n"


def test_table1_prints_all_rows_or_none(capsys):
    # under a 640-digit limit row 48 cannot be printed (at the default
    # limit of 4300 digits the first such row is 121); the rows before it
    # must not reach stdout either
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "table1", "--max", "50")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


# the table count and the sha256 of the file enumerate --n N writes with
# the default method: the bijection's order, into which verify's seeded
# draws index
ENUMERATE_PINS = {
    3: (115, "eed984fb6c07eafed7eacfb58a4d5253406de1d5161e4c9259dd57336f11165b"),
    4: (3451, "28d783973fa7651b5349a11a20cc5f1f1af494c612cbfe695b5e5e5438ec5998"),
    5: (164731, "13311dda15558f8418d4ae5793b84c466fa58e4b905629c4d7a83472e77e71d5"),
}


@pytest.mark.parametrize("n", [
    3, 4, pytest.param(5, marks=pytest.mark.skipif(
        not os.environ.get("UFABOUND_EXTENDED"),
        reason="set UFABOUND_EXTENDED=1 for the n=5 enumeration (about 3.5 s)"))])
def test_enumerate_output_is_pinned(tmp_path, capsys, n):
    count, digest = ENUMERATE_PINS[n]
    out = tmp_path / "ordered.txt"
    code, text, _ = run(capsys, "enumerate", "--n", str(n), "--out", str(out))
    assert code == 0 and text == f"{count} tables written to {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.mat.rows").read_bytes() == (tmp_path / "b.mat.rows").read_bytes()


# sha256 of the files build-matrix writes at n=3
MATRIX_FILE_DIGESTS = {
    "M": {".mat": "5147384dd64f9ad8962c00609c015acc820130d62a1f7d0b837a3c4595fc10d6",
          ".mat.rows": "fadb0fed58c6714884c4cce9790f27428ecf52c1fd032edc4e1e79265f23b636",
          ".mat.cols": "175895d01e39a275336d6da1658107f6a4d4fa463714c1cc08847c65f5fe2d43"},
    "K": {".mat": "d9fb977ace9ba3c68f09759bae635edfc83f96fb1533412abd9e30e7fd978502",
          ".mat.rows": "3a0b0f5749c20049aa9b481d0c2b20b9f6c346de4db3bb8ea36b25e43f4b0bcf",
          ".mat.cols": "175895d01e39a275336d6da1658107f6a4d4fa463714c1cc08847c65f5fe2d43"},
}


@pytest.mark.parametrize("kind", ["M", "K"])
def test_build_matrix_bytes_are_pinned(tmp_path, capsys, kind):
    out = tmp_path / "m3.mat"
    code, _, _ = run(capsys, "build-matrix", "--n", "3", "--kind", kind, "--out", str(out))
    assert code == 0
    for suffix, digest in MATRIX_FILE_DIGESTS[kind].items():
        path = tmp_path / ("m3" + suffix)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name
    for field in (["--exact"], ["--mod", "2"]):
        code, text, _ = run(capsys, "rank", "--in", str(out), *field)
        assert code == 0 and text == "115\n", field


# sha256 of the files build-matrix writes for K at n=4 (3451 x 17985)
K4_FILE_DIGESTS = {
    ".mat": "e44492b90a37dc71dfdcee055779576a664c815ef349a8cf986cb6852d19585d",
    ".mat.rows": "d666bd0baae4503a13f0d6c0d9c58e70a1fdba9ef198099e3ced9a3073b972a6",
    ".mat.cols": "a6f56ebd6d1a98e56106966b3c1ebd2fc2c8a5cfc32afbea64a5847240b157e8",
}


def test_k4_pipeline_is_pinned(tmp_path, capsys):
    out = tmp_path / "k4.mat"
    code, text, _ = run(capsys, "build-matrix", "--n", "4", "--kind", "K", "--out", str(out))
    assert code == 0 and text == f"3451x17985 matrix written to {out}\n"
    for suffix, digest in K4_FILE_DIGESTS.items():
        path = tmp_path / ("k4" + suffix)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name
    code, text, _ = run(capsys, "rank", "--in", str(out), "--mod", "2")
    assert code == 0 and text == "3451\n"
    # the rational rank, over the elimination limit but certified by the
    # full GF(2) rank
    code, text, _ = run(capsys, "rank", "--in", str(out))
    assert code == 0 and text == "3451\n"


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


def test_rank_refuses_an_oversized_modulus_before_testing_primality(
        tmp_path, capsys, monkeypatch):
    mat = tmp_path / "k2.mat"
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))
    real = exact_linalg._is_prime

    def small_only(p):
        if p >= 2**31:
            pytest.fail(f"primality tested on a {len(str(p))}-digit modulus")
        return real(p)

    monkeypatch.setattr(exact_linalg, "_is_prime", small_only)
    for p in (2**31, 4294967311, 10**3999 + 1):
        code, out, err = run(capsys, "rank", "--in", str(mat), "--mod", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "2^31" in err and len(err.splitlines()) == 1
        assert len(err) < 200


def test_build_matrix_size_errors(tmp_path, capsys):
    for n, limit in (("0", "n must be positive, got 0"),
                     ("5", "limited to n <= 4")):
        code, out, err = run(capsys, "build-matrix", "--n", n, "--kind", "M",
                             "--out", str(tmp_path / "m.mat"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and limit in err
        assert len(err.splitlines()) == 1


def test_verify_beyond_the_enumeration_cap_is_a_one_line_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 2 and out == ""
    assert err == "error: exhaustive table enumeration is limited to n <= 4\n"


def test_jobs_below_one_rejected(tmp_path, capsys):
    # neither command has a --jobs option: rows are built and eliminated in
    # one thread
    mat = tmp_path / "k.mat"
    run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--in", str(mat), "--mod", "2", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--jobs" in err
    unwritten = tmp_path / "j0.mat"
    with pytest.raises(SystemExit) as exc:
        main(["build-matrix", "--n", "2", "--kind", "K", "--out", str(unwritten),
              "--jobs", "2"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err
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


# the quick level draws its table pairs from the seed
VERIFY_QUICK_N4_SEED7 = """\
PASS  orderedness characterizations agree (633 tables)
PASS  graph entries match two-way simulation (500 pairs)
PASS  augmented-row identity (36 quadruples)
PASS  layer rank equals complement-matrix rank (40 tables)
PASS  ordered-table enumerations agree (115 tables at size 3)
PASS  staged suffix tables: acceptance sets (59 base tables)
PASS  drop-down rows vanish (8 entries)
PASS  breakthrough completion determines entries (344 entries)
PASS  at-least-as-large tables always break through (41 pairs)
PASS  matrix rank equals the ordered-table count (rank 3451, count 3451)
PASS  random-automaton ranks stay within the bound (10 instances with 3 states)
11/11 checks passed
"""


def test_verify_quick_n4_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--level", "quick", "--seed", "7")
    assert code == 0
    assert out == VERIFY_QUICK_N4_SEED7


# quick samples at size 3 that draw one (f, f0) pair twice: the pair
# checks count such a pair once per draw
VERIFY_QUICK_N3_DIGESTS = {
    "2": "290d54d82ee100cbf6afbf35fd1495f9c1c1ee5372dc39032a4a3e73201ac278",
    "7": "5168e4d444ee50d01076443d7513dbb74496010fd432dab67c5db77058c2995a",
}


def test_verify_quick_n3_outputs_with_a_repeated_pair_are_pinned(capsys):
    for seed, digest in VERIFY_QUICK_N3_DIGESTS.items():
        bases, firsts, pairs = verification._draw_pairs(verification.Run(3, "quick", int(seed)))
        drawn = [(f.values, f0.values) for f0, lanes in zip(bases, pairs)
                 for t, f in enumerate(firsts) if lanes >> t & 1]
        assert len(set(drawn)) == len(drawn) - 1, seed
        code, out, _ = run(capsys, "verify", "--n", "3", "--level", "quick", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


# verify's stdout at sizes 1-3 at both levels with seeds 0 and 7, and at
# size 4 under quick with seed 0, taken before the pair study read one list
# of first tables with a lane int per base table
VERIFY_DIGESTS = {
    ("1", "quick", "0"): "076e35c0a22594b5fd1cf95a95604e89514b15f6dfe54bc0bb5cbff10b10532b",
    ("1", "quick", "7"): "076e35c0a22594b5fd1cf95a95604e89514b15f6dfe54bc0bb5cbff10b10532b",
    ("2", "quick", "0"): "6f6b7f620dacc94d30811f363b6cbd3b023404225a67469aca0b3d8108a8f504",
    ("2", "quick", "7"): "3e7dcd031ec88f35b69c636775eb6a8e03b62aff4795b82c3208e51afff2d6a9",
    ("3", "quick", "0"): "d6ba63c3e35d98ba0a249b4d38f06b997eb12997a3fe5b8202de9836812313df",
    ("3", "quick", "7"): "5168e4d444ee50d01076443d7513dbb74496010fd432dab67c5db77058c2995a",
    ("1", "full", "0"): "22cd1f8b256dc365c437c00b9580ae3968d2d047f107d0c100cd9becf4a9c77d",
    ("1", "full", "7"): "22cd1f8b256dc365c437c00b9580ae3968d2d047f107d0c100cd9becf4a9c77d",
    ("2", "full", "0"): "75f76b4deb13ab4de54d79163c18b4885ead592b277179b30161da3ed822f4d4",
    ("2", "full", "7"): "75f76b4deb13ab4de54d79163c18b4885ead592b277179b30161da3ed822f4d4",
    ("3", "full", "0"): "ec154bd1aa05273d5f5e6f87321d565a45a5b36e3d94cd6c8cf9757dd4494032",
    ("3", "full", "7"): "ec154bd1aa05273d5f5e6f87321d565a45a5b36e3d94cd6c8cf9757dd4494032",
    ("4", "quick", "0"): "ec0906c66e7f4b74db458bfdad86a00e26ab615f42f803f9b7a2dca359d87f90",
}


@pytest.mark.parametrize("n, level, seed", sorted(VERIFY_DIGESTS))
def test_verify_output_digests_are_pinned(capsys, n, level, seed):
    code, out, _ = run(capsys, "verify", "--n", n, "--level", level, "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[n, level, seed]


# the full level checks the augmented-row identity on all of M at size 4
VERIFY_FULL_N4_SEED0 = """\
PASS  orderedness characterizations agree (633 tables)
PASS  graph entries match two-way simulation (10000 pairs)
PASS  augmented-row identity (18288 quadruples)
PASS  layer rank equals complement-matrix rank (3451 tables)
PASS  ordered-table enumerations agree (3451 tables at size 4)
PASS  staged suffix tables: acceptance sets (860 base tables)
PASS  drop-down rows vanish (84 entries)
PASS  breakthrough completion determines entries (5401 entries)
PASS  at-least-as-large tables always break through (526 pairs)
PASS  matrix rank equals the ordered-table count (rank 3451, count 3451)
PASS  random-automaton ranks stay within the bound (50 instances with 3 states)
11/11 checks passed
"""


def test_verify_full_n4_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--level", "full", "--seed", "0")
    assert code == 0
    assert out == VERIFY_FULL_N4_SEED0


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


def test_schmidt_random_300_digest_is_pinned(capsys):
    # the schmidt-n3 benchmark workload at seed 0, pinned by the digest that
    # bench/workloads.py gates on
    code, out, _ = run(capsys, "schmidt", "--random", "300", "--states", "3",
                       "--alphabet", "2", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "26e1c3848570f395902b356248d59d4d1bca8afe4b2b9d36ad29513efeebe723")


def test_schmidt_random_100_five_states_digest_is_pinned(capsys):
    # beyond three states and two letters: larger tables, three letters
    code, out, _ = run(capsys, "schmidt", "--random", "100", "--states", "5",
                       "--alphabet", "3", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "eaaf030f1b00494d9d87d92562b51b8dcd184a585430bf0edd7b327a83315801")


@pytest.mark.parametrize("states, alphabet, digest", [
    # one letter, drawn as 1-bit values with rejection
    ("2", "1", "3a59d22a38c562695c1388d885959e5211481b4d02e50a34f844481a0b64a405"),
    # 5-bit letters, and past RANDOM_BLOCK_ALPHABET one automaton per block
    ("3", "20", "3a209a76c09c3a64b335edca272fe6c199fe8c4fbee547569912712ae6366486"),
])
def test_schmidt_random_40_digest_is_pinned(capsys, states, alphabet, digest):
    code, out, _ = run(capsys, "schmidt", "--random", "40", "--states", states,
                       "--alphabet", alphabet)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_schmidt_random_output_is_identical_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["-m", "ufabound.cli", "schmidt", "--random", "30", "--states", "3"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                                       env=env, timeout=300)
                        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout.endswith(b"bound 115 holds on 30 random instances\n")
    assert optimized.stdout == plain.stdout


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
    assert out == (
        "rank 2 <= bound 7\n"
        '{"bound": 7, "cols": 4, "n": 2, "ok": true, "rank": 2, "reduced_cols": 2, '
        '"reduced_rows": 2, "rows": 4, "seed": null}\n')


def test_schmidt_random_beyond_thirty_states(capsys):
    # state sets are plain ints, so the state count is capped only where
    # the bound stops printing
    code, out, _ = run(capsys, "schmidt", "--random", "2", "--states", "31",
                       "--alphabet", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("bound ")
    assert all(json.loads(line)["n"] == 31 for line in out.splitlines()[:-1])


def _no_schmidt_work(*args, **kwargs):
    raise AssertionError("schmidt went on past the state cap")


SCHMIDT_CAP_ERROR = ("error: schmidt's state count is limited to n <= 815: "
                     "count(816) has more than 4300 digits\n")


def test_schmidt_random_refuses_states_past_the_cap_before_any_automaton(
        capsys, monkeypatch):
    # the bound count(816) cannot be printed, so no automaton is built
    monkeypatch.setattr(crossing, "random_campaign", _no_schmidt_work)
    monkeypatch.setattr(crossing, "random_two_way_nfa", _no_schmidt_work)
    for states in ("816", "5000"):
        code, out, err = run(capsys, "schmidt", "--random", "1", "--states", states,
                             "--alphabet", "1")
        assert code == 2 and out == "" and err == SCHMIDT_CAP_ERROR
    with pytest.raises(AssertionError, match="past the state cap"):
        main(["schmidt", "--random", "1", "--states", "815", "--alphabet", "1"])


def test_schmidt_random_refuses_bad_alphabets_and_states_before_any_automaton(
        capsys, monkeypatch):
    monkeypatch.setattr(crossing, "random_campaign", _no_schmidt_work)
    monkeypatch.setattr(crossing, "random_two_way_nfa", _no_schmidt_work)
    cap_error = ("error: schmidt --random is limited to --alphabet <= 240: "
                 "an instance's strings read no more letters\n")
    positive_error = "error: --states and --alphabet must be positive\n"
    for flags, error in ((["--alphabet", "241"], cap_error),
                         (["--alphabet", str(10**12)], cap_error),
                         (["--alphabet", "0"], positive_error),
                         (["--states", "0"], positive_error),
                         (["--states", "-3", "--alphabet", "2"], positive_error)):
        code, out, err = run(capsys, "schmidt", "--random", "100", *flags)
        assert (code, out, err) == (2, "", error), flags
    with pytest.raises(AssertionError, match="past the state cap"):
        main(["schmidt", "--random", "1", "--states", "1", "--alphabet", "240"])


@pytest.mark.parametrize("count", ["0", "-5"])
def test_schmidt_random_refuses_a_count_below_one(capsys, count):
    code, out, err = run(capsys, "schmidt", "--random", count)
    assert (code, out, err) == (2, "", "error: --random needs a positive instance count\n")


def test_schmidt_random_refuses_too_many_moves_before_any_automaton(capsys, monkeypatch):
    # each of --states 815 and --alphabet 240 is allowed, but an automaton
    # of both would keep some 160 million moves
    monkeypatch.setattr(crossing, "random_campaign", _no_schmidt_work)
    monkeypatch.setattr(crossing, "random_two_way_nfa", _no_schmidt_work)
    monkeypatch.setattr(os, "fork", _no_schmidt_work)
    error = ("error: schmidt --random is limited to states^2 * (alphabet + 2) <= 2000000: "
             "a random automaton keeps about that many moves, at up to 185 bytes each\n")
    for states, alphabet in (("815", "240"), ("100", "199"), ("400", "11")):
        code, out, err = run(capsys, "schmidt", "--random", "100", "--states", states,
                             "--alphabet", alphabet)
        assert (code, out, err) == (2, "", error), (states, alphabet)
    # 100^2 * (198 + 2) is the cap itself
    with pytest.raises(AssertionError, match="past the state cap"):
        main(["schmidt", "--random", "1", "--states", "100", "--alphabet", "198"])


def test_schmidt_refuses_a_loaded_automaton_past_the_cap_before_the_search(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(crossing, "verify_optimality", _no_schmidt_work)
    strings = tmp_path / "strings.txt"
    strings.write_text("-\n")

    def argv(states):
        aut = tmp_path / f"aut{states}.json"
        aut.write_text(json.dumps({"type": "2nfa", "states": states, "alphabet": ["a"],
                                   "initial": [1], "accepting": [1], "transitions": []}))
        return ["schmidt", "--automaton", str(aut), "--prefixes", str(strings),
                "--suffixes", str(strings)]

    code, out, err = run(capsys, *argv(816))
    assert code == 2 and out == "" and err == SCHMIDT_CAP_ERROR
    with pytest.raises(AssertionError, match="past the state cap"):
        main(argv(815))


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


@pytest.mark.parametrize("alphabet,line", [(["-", "a"], "-"), (["a b", "a", "b"], "a b"),
                                           (["", "a"], "a")])
def test_strings_refuse_symbols_a_line_cannot_spell(tmp_path, capsys, alphabet, line):
    # a line "-" is the empty string and a line splits at whitespace, so a
    # symbol named "-" or "a b" would be misread, and "" never read
    automaton = {
        "type": "2nfa", "states": 1, "alphabet": alphabet,
        "initial": [1], "accepting": [1],
        "transitions": [{"from": 1, "symbol": "⊢", "to": 1, "dir": 1},
                        {"from": 1, "symbol": alphabet[0], "to": 1, "dir": 1}],
    }
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(automaton))
    (tmp_path / "xs.txt").write_text(f"{line}\na\n")
    (tmp_path / "ys.txt").write_text("-\n")
    code, out, err = run(capsys, "schmidt", "--automaton", str(aut),
                         "--prefixes", str(tmp_path / "xs.txt"),
                         "--suffixes", str(tmp_path / "ys.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(alphabet[0]) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_a_json_accepting_state_moving_on_the_right_marker_is_named_as_numbered(
        tmp_path, capsys):
    # the JSON numbers states from 1, and so does the error
    automaton = {
        "type": "2nfa", "states": 2, "alphabet": ["a"],
        "initial": [1], "accepting": [2],
        "transitions": [{"from": 2, "symbol": "⊣", "to": 1, "dir": -1}],
    }
    aut = tmp_path / "a.json"
    aut.write_text(json.dumps(automaton))
    (tmp_path / "xs.txt").write_text("a\n")
    code, out, err = run(capsys, "schmidt", "--automaton", str(aut),
                         "--prefixes", str(tmp_path / "xs.txt"),
                         "--suffixes", str(tmp_path / "xs.txt"))
    assert (code, out, err) == (2, "", "error: accepting state 2 must halt on the right marker\n")


@pytest.mark.parametrize("change, message", [
    (lambda a: [a], "automaton JSON must be an object"),
    (lambda a: dict(a, initial=3), "initial must be an array of 1-based states"),
    (lambda a: dict(a, transitions={}), "transitions must be an array"),
    (lambda a: dict(a, transitions=["1 a 1 +1"]), "each transition must be an object"),
])
def test_schmidt_refuses_a_malformed_automaton_file(tmp_path, capsys, change, message):
    automaton = {
        "type": "2nfa", "states": 1, "alphabet": ["a"],
        "initial": [1], "accepting": [1],
        "transitions": [{"from": 1, "symbol": "a", "to": 1, "dir": 1}],
    }
    aut = tmp_path / "a.json"
    aut.write_text(json.dumps(change(automaton)))
    (tmp_path / "xs.txt").write_text("a\n")
    code, out, err = run(capsys, "schmidt", "--automaton", str(aut),
                         "--prefixes", str(tmp_path / "xs.txt"),
                         "--suffixes", str(tmp_path / "xs.txt"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


def test_calls_in_one_process_print_what_fresh_processes_print(tmp_path, capsys,
                                                               monkeypatch):
    # main reuses one parser per process: calls in a row, mixing a rank, a
    # usage error, --help and a count, each give the exit status and the
    # bytes of the same call in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    mat = tmp_path / "k2.mat"
    assert run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))[0] == 0
    calls = [["rank", "--in", str(mat), "--mod", "3"], ["count"], ["--help"],
             ["count", "--n", "3"], ["rank", "--in", str(mat)], ["rank", "--help"],
             ["rank", "--in", str(mat), "--mod", "4"], ["count"], ["count", "--n", "3"]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = {}
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ufabound.cli import main; "
             "sys.exit(main())", *argv], capture_output=True, text=True, env=env)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    for argv in calls + calls[::-1]:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        here = capsys.readouterr()
        assert (code, here.out, here.err) == fresh[tuple(argv)], argv
    assert code == 0 and here.out == "7\n"


def _exit_of(capsys, call):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


FULL_USAGE = ("usage: ufabound [-h]\n"
              "                {count,table1,enumerate,build-matrix,rank,verify,schmidt} ...\n")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["bogus", "--n", "3"], ["co", "--n", "3"],
    *([command, "--help"] for command in
      ("count", "table1", "enumerate", "build-matrix", "rank", "verify", "schmidt")),
    ["count"], ["table1", "--max"], ["verify", "--n", "x"],
    ["build-matrix", "--n", "2", "--kind", "Z", "--out", "m"],
    ["verify", "--n", "2", "--level", "medium"],
    ["rank", "--in", "F", "--mod", "3", "--exact"],
    ["count", "--n", "3", "extra"], ["rank", "--in", "F", "--mo", "3", "--bogus"],
])
def test_usage_errors_and_help_print_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # main parses with a parser of the named command alone; its exit status
    # and bytes are those of the parser of every command
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_of(capsys, lambda: main(argv)) == \
        _exit_of(capsys, lambda: build_parser().parse_args(argv))


def test_unknown_commands_share_the_full_parser(capsys, monkeypatch):
    # a first argument that names no command is no key of its own: two
    # unknown commands and --help build one parser, that of every command
    from ufabound import cli

    built = []
    real = cli.build_parser

    def counted(command=None):
        built.append(command)
        return real(command)

    _parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["bogus"], ["other", "--n", "3"], ["--help"]):
        _exit_of(capsys, lambda: main(argv))
    assert built == [None] and _parser.cache_info().currsize == 1
    _parser.cache_clear()


def test_an_abbreviated_option_parses_as_with_the_full_parser(tmp_path, capsys):
    mat = tmp_path / "k2.mat"
    assert run(capsys, "build-matrix", "--n", "2", "--kind", "K", "--out", str(mat))[0] == 0
    argv = ["rank", "--in", str(mat), "--mo", "3"]
    assert _parser("rank").parse_args(argv) == build_parser().parse_args(argv)
    assert run(capsys, *argv) == (0, "7\n", "")


@pytest.mark.parametrize("argv, message", [
    (["schmidt", "--prefixes", "x"], "schmidt requires --automaton --suffixes (or --random)"),
    (["schmidt", "--random", "2", "--suffixes", "y", "--automaton", "a"],
     "--random cannot be combined with --automaton --suffixes"),
])
def test_schmidt_conflicts_print_the_full_usage(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_of(capsys, lambda: main(argv)) == \
        (2, "", f"{FULL_USAGE}ufabound: error: {message}\n")


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
