import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from baerkit.cli import _make_parser

D8_TEXT = "gens: r, s; rels: r^4; s^2; (r*s)^2\n"
D16_TEXT = "gens: r, s; rels: r^8; s^2; (r*s)^2\n"
S4_TEXT = "gens: a, b; rels: a^4; b^2; (a*b)^3\n"
CORPUS_TEXT = "C6 | gens: a; rels: a^6\nK4 | gens: a, b; rels: a^2; b^2; [a,b]\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "baerkit", *args],
        capture_output=True, text=True)


@pytest.fixture
def d8_file(tmp_path):
    path = tmp_path / "d8.txt"
    path.write_text(D8_TEXT)
    return str(path)


@pytest.fixture
def d16_file(tmp_path):
    path = tmp_path / "d16.txt"
    path.write_text(D16_TEXT)
    return str(path)


def test_each_command_takes_exactly_its_pinned_options():
    # A new option is a new knob: adding one should mean editing this list.
    parser = _make_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: sorted(opt for a in p._actions
                        for opt in a.option_strings or [a.dest])
           for name, p in commands.items()}
    common = ["--exhaustive-threshold", "--format", "--help", "--max-cosets",
              "--max-steps", "--seed", "-h"]
    assert got == {
        "analyze": sorted(common + ["path"]),
        "defect": sorted(common + ["--n", "path", "word"]),
        "verify-examples": sorted(common + ["--primes"]),
        "check-theorems": sorted(common + ["--corpus"]),
    }


def test_defect_cap_is_a_usage_error_on_every_command(d8_file):
    for argv in (["analyze", d8_file], ["defect", d8_file, "s"],
                 ["verify-examples"], ["check-theorems"]):
        out = run_cli(*argv, "--defect-cap", "3")
        assert (out.returncode, out.stdout) == (1, ""), argv
        assert "unrecognized arguments: --defect-cap 3" in out.stderr


def test_analyze_text_output(d8_file):
    out = run_cli("analyze", d8_file)
    assert out.returncode == 0
    assert out.stdout == (
        "order=8 class=2 derived_length=2 |T2|=1 classification=TwoBaer\n")


def test_analyze_json_output(d8_file):
    out = run_cli("analyze", d8_file, "--format", "json", "--seed", "7")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert set(doc) == {"config", "group"}
    assert doc["config"]["seed"] == 7
    group = doc["group"]
    assert group["name"] == "d8.txt"
    assert group["order"] == 8
    assert group["t2_order"] == 1
    assert group["classification"] == "TwoBaer"
    assert group["defect_histogram"] == {"1": 4, "2": 4}


def test_analyze_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gens: a; rels: b^2\n")
    out = run_cli("analyze", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error:")


def test_analyze_missing_file(tmp_path):
    out = run_cli("analyze", str(tmp_path / "nope.txt"))
    assert out.returncode == 1
    assert out.stderr.startswith("error:")


def test_analyze_enumeration_limit(tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text(S4_TEXT)
    out = run_cli("analyze", str(path), "--max-cosets", "10")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


def test_max_steps_bounds_every_enumeration_and_exits_with_limit_error(
        tmp_path, d8_file):
    # The relator fills the table at once; the step limit then stops
    # the lookahead pass, which would otherwise walk 5e7 steps.
    path = tmp_path / "long.txt"
    path.write_text("gens: a, b; rels: ((a*b)^50)^100\n")
    start = time.perf_counter()
    out = run_cli("analyze", str(path), "--max-cosets", "10000",
                  "--max-steps", "100000")
    assert time.perf_counter() - start < 10
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: enumeration exceeded max_steps=100000\n"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS_TEXT)
    for args in (("check-theorems", "--corpus", str(corpus)),
                 ("verify-examples", "--primes", "2")):
        out = run_cli(*args, "--max-steps", "5")
        assert (out.returncode, out.stdout) == (2, "")
        assert "max_steps=5" in out.stderr
    # A bound the enumeration fits in leaves the report as it was.
    assert (run_cli("analyze", d8_file, "--max-steps", "1000").stdout
            == run_cli("analyze", d8_file).stdout)


def test_defect_text_output(d16_file):
    out = run_cli("defect", d16_file, "s")
    assert out.returncode == 0
    assert out.stdout == "defect 3; s is not 2-subnormal\n"
    out = run_cli("defect", d16_file, "r")
    assert out.stdout == "defect 1; r is 2-subnormal\n"
    out = run_cli("defect", d16_file, "s", "--n", "3")
    assert out.stdout == "defect 3; s is 3-subnormal\n"


def test_defect_of_identity_valued_word(d16_file):
    out = run_cli("defect", d16_file, "r*r^-1")
    assert out.returncode == 0
    assert "defect 1" in out.stdout
    assert "is 2-subnormal" in out.stdout


def test_defect_json_output(d16_file):
    out = run_cli("defect", d16_file, "s", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert set(doc) == {"config", "defect"}
    d = doc["defect"]
    assert set(d) == {"word", "defect", "n", "n_subnormal"}
    assert d == {"word": "s", "defect": 3, "n": 2, "n_subnormal": False}


def test_defect_of_a_deep_reflection_is_exact(tmp_path):
    path = tmp_path / "d1024.txt"
    path.write_text("gens: r, s; rels: r^512; s^2; (r*s)^2\n")
    out = run_cli("defect", str(path), "s")
    assert out.returncode == 0
    assert out.stdout == "defect 9; s is not 2-subnormal\n"


def test_defect_of_a_huge_exponent_answers(d8_file):
    out = run_cli("defect", d8_file, "r^1000000001")
    assert out.returncode == 0
    assert out.stdout == "defect 1; r^1000000001 is 2-subnormal\n"


def test_defect_rejects_foreign_generator(d8_file):
    out = run_cli("defect", d8_file, "t^2")
    assert out.returncode == 1
    assert out.stderr.startswith("error:")


def test_verify_examples_json_small_prime():
    out = run_cli("verify-examples", "--primes", "2", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    names = [r["group"]["name"] for r in doc["reports"]]
    assert names == ["class4-2group", "class3-p2"]
    statuses = {c["status"] for r in doc["reports"] for c in r["checks"]}
    assert statuses <= {"pass", "skipped"}
    assert "pass" in statuses


def test_verify_examples_text_has_summary():
    out = run_cli("verify-examples", "--primes", "2")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1].startswith("checks: ")
    assert "class4-2group:" in out.stdout


def test_verify_examples_p7_gate():
    out = run_cli("verify-examples", "--primes", "11")
    assert out.returncode == 1
    assert "supported primes" in out.stderr
    out = run_cli("verify-examples", "--primes", "7,7")
    assert (out.returncode, out.stdout) == (1, "")
    assert "once" in out.stderr


def test_verify_examples_p7_is_bounded_by_max_steps():
    # class4-2group fits the bound (568 steps); the order-117649 build
    # does not (299,824 steps).
    out = run_cli("verify-examples", "--primes", "7", "--max-steps", "20000")
    assert (out.returncode, out.stdout) == (2, "")
    assert "max_steps" in out.stderr


def test_infinite_groups_exit_with_limit_error(tmp_path):
    # The infinite dihedral group: <a> is infinite of index 2, which the
    # enumeration over <a> finds at once.
    path = tmp_path / "dinf.txt"
    path.write_text("gens: a, b; rels: b^2; (a*b)^2\n")
    start = time.perf_counter()
    out = run_cli("analyze", str(path))
    # 0.2 s, most of it start-up; it was 4 s to the max_cosets limit
    assert time.perf_counter() - start < 2
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: the group is infinite")
    # Z^2: <a> has infinite index, so max_cosets stops the enumeration.
    path = tmp_path / "z2.txt"
    path.write_text("gens: a, b; rels: [a,b]\n")
    out = run_cli("analyze", str(path), "--max-cosets", "10000")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: enumeration exceeded max_cosets=10000\n"


def test_verify_examples_bad_prime_list():
    out = run_cli("verify-examples", "--primes", "2,foo")
    assert out.returncode == 1
    assert "error" in out.stderr


def test_check_theorems_empty_corpus(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    out = run_cli("check-theorems", "--corpus", str(path), "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["reports"] == []


def test_check_theorems_text_output(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(CORPUS_TEXT)
    out = run_cli("check-theorems", "--corpus", str(path))
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0].startswith("seed=0 max_cosets=")
    assert any(line.startswith("C6: order=6") for line in lines)
    assert any(line.startswith("K4: order=4") for line in lines)
    assert lines[-1].startswith("checks: ")
    assert " 0 failed" in lines[-1]


def test_check_theorems_corpus_with_line_error(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("C2 | gens: a; rels: a^2\noops\n")
    out = run_cli("check-theorems", "--corpus", str(path))
    assert out.returncode == 1
    assert "broken.txt:2" in out.stderr


def test_check_theorems_runs_are_byte_identical(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(CORPUS_TEXT)
    args = ("check-theorems", "--corpus", str(path),
            "--format", "json", "--seed", "42")
    one = run_cli(*args)
    two = run_cli(*args)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_check_theorems_does_not_load_hashlib(tmp_path):
    # hashlib maps in OpenSSL's libcrypto; the per-check seeds take their
    # sha256 from CPython's built-in module instead.
    path = tmp_path / "one.txt"
    path.write_text("C4 | gens: a; rels: a^4\n")
    code = (
        "import sys\n"
        "from baerkit.cli import main\n"
        f"code = main(['check-theorems', '--corpus', {str(path)!r}])\n"
        "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)),"
        " file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "C4: order=4" in out.stdout
    assert out.stderr == "0 []\n"


def test_commands_load_no_numpy_module_beyond_import_numpy(tmp_path):
    # Each numpy submodule costs resident memory: numpy.ma, which
    # np.unique imports in numpy 2, adds about 1.25 MB.  The baseline is
    # what `import numpy` alone loads, since numpy 1 imports numpy.ma
    # eagerly.
    pres = tmp_path / "d8.txt"
    pres.write_text("gens: r, s; rels: r^4; s^2; (r*s)^2\n")
    corpus = tmp_path / "one.txt"
    corpus.write_text("C4 | gens: a; rels: a^4\n")
    code = (
        "import sys\n"
        "import numpy\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
        "base = loaded()\n"
        "from baerkit.cli import main\n"
        f"for args in (['analyze', {str(pres)!r}], ['verify-examples'],\n"
        f"             ['check-theorems', '--corpus', {str(corpus)!r}]):\n"
        "    code = main(args)\n"
        "    print(args[0], code, sorted(loaded() - base), file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stderr == ("analyze 0 []\n"
                          "verify-examples 0 []\n"
                          "check-theorems 0 []\n")


def test_unknown_flag_exits_with_input_error():
    out = run_cli("analyze", "--frobnicate")
    assert out.returncode == 1
    assert "error" in out.stderr


def test_missing_command_exits_with_input_error():
    out = run_cli()
    assert out.returncode == 1


def test_deeply_nested_presentation_is_a_clean_input_error(tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text("gens: a; rels: " + "(" * 1500 + "a" + ")" * 1500 + "\n")
    out = run_cli("analyze", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error:")
    assert "nested deeper than" in out.stderr
    assert "Traceback" not in out.stderr


def test_too_many_generators_is_a_clean_input_error(tmp_path):
    path = tmp_path / "wide.txt"
    names = ", ".join(f"g{i}" for i in range(130))
    path.write_text(f"gens: {names}; rels: g0^2\n")
    out = run_cli("analyze", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: more than 127 generators")


def test_relator_longer_than_max_cosets_exits_with_limit_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("gens: a; rels: a^1000000000\n")
    out = run_cli("analyze", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")
    assert "max_cosets=2000000" in out.stderr


@pytest.mark.parametrize("relator", [
    "(a*b)^3000000", "((a*b)^1000)^1001", "[" + ",".join("ab" * 20) + "]",
    "(a*b)^1000000*(a*b)^1000000"])
def test_long_word_is_refused_at_parse_time_with_limit_error(tmp_path, relator):
    path = tmp_path / "long.txt"
    path.write_text(f"gens: a, b; rels: {relator}\n")
    start = time.perf_counter()
    out = run_cli("analyze", str(path))
    assert time.perf_counter() - start < 10
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: a word of ")
    assert "exceeds the limit of 2000000" in out.stderr


def test_long_word_in_a_corpus_or_defect_word_exits_with_limit_error(
        tmp_path, d8_file):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("G | gens: a, b; rels: (a*b)^3000000\n")
    out = run_cli("check-theorems", "--corpus", str(corpus))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error:")
    out = run_cli("defect", d8_file, "(r*s)^3000000", "--max-cosets", "100")
    assert (out.returncode, out.stdout) == (2, "")
    assert "exceeds the limit of 100" in out.stderr


def test_relators_past_the_limit_together_exit_with_limit_error(tmp_path):
    # Twenty relators each just under the limit stop at the second, before
    # the rest are written out.  --max-cosets sets the limit.
    path = tmp_path / "many.txt"
    rels = "; ".join(["((a*b)^100)^99"] * 20)
    path.write_text(f"gens: a, b; rels: {rels}\n")
    out = run_cli("analyze", str(path), "--max-cosets", "20000")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(
        "error: a word of 19800 syllables after 19800 in earlier relators")
    # S3, with 14 syllables in all.
    path.write_text("gens: a, b; rels: a^2; b^2; (a*b)^3; (b*a)^3\n")
    out = run_cli("analyze", str(path), "--max-cosets", "13")
    assert (out.returncode, out.stdout) == (2, "")
    assert "after 8 in earlier relators exceeds the limit of 13" in out.stderr
    out = run_cli("analyze", str(path), "--max-cosets", "14")
    assert out.returncode == 0


def test_a_word_at_the_syllable_limit_is_written_out_in_bounded_memory(
        tmp_path):
    # ((a*b)^1000)^1000 has exactly the default limit of 2,000,000
    # syllables, so it is parsed and enumerated until --max-steps stops
    # it.  The peak is the child's own, read with wait4.
    path = tmp_path / "limit.txt"
    path.write_text("gens: a, b; rels: ((a*b)^1000)^1000\n")
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "baerkit", "analyze", str(path),
             "--max-steps", "100000"],
            stdout=subprocess.DEVNULL, stderr=err)
    deadline = time.monotonic() + 60
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            pytest.fail("analyze did not exit within 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 2
    assert err_path.read_text() == (
        "error: enumeration exceeded max_steps=100000\n")
    assert usage.ru_maxrss < 200 * 1024  # KiB on Linux


def _pinned(out, digest):
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def test_check_theorems_json_report_bytes_are_pinned():
    out = run_cli("check-theorems", "--format", "json", "--seed", "1234")
    _pinned(out,
            "f248e6ce96dffb1a4f2cb9f1078e64ff4ff189b87695b4473bca6557e387eefd")


def test_corpus_mixed_report_bytes_are_pinned(tmp_path, monkeypatch):
    # The benchmark's corpus-mixed input for seed 1, generated by its own
    # (read-only) workload module.  Its dataclasses need it in sys.modules.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    text, _ = workloads.generate_mixed_corpus(1)
    corpus = tmp_path / "corpus-mixed.txt"
    corpus.write_text(text, encoding="utf-8")
    out = run_cli("check-theorems", "--format", "json", "--corpus",
                  str(corpus), "--seed", str(workloads._program_seed(1)))
    _pinned(out,
            "47fd043bf8cfd81b19112e0ddb0cdc17c776fbdaf9c3af3b05811af18fd335fa")


@pytest.mark.parametrize("primes, digest", [
    ((), "c008787339e86199011d1f94be6753b73a857ee5c672e824b3cfe8b2ef029b9b"),
    (("--primes", "7"),
     "e145225874ec1f7adbc6725cfa5a6f909387524a2bfa23db89ce6be02c8e899a"),
], ids=["default", "p7"])
def test_verify_examples_json_report_bytes_are_pinned(primes, digest):
    _pinned(run_cli("verify-examples", *primes, "--format", "json"), digest)
