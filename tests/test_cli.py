import os
import subprocess
import sys
import time

import pytest

import cga
from cga.cli import main
from cga.formats import format_automaton, load_automaton, write_structure
from cga.groups import bs_nf_machine, bs_structure

from conftest import z_leaving_l


@pytest.fixture(scope="module")
def bs47_aut(tmp_path_factory):
    path = tmp_path_factory.mktemp("aut") / "bs47_L.aut"
    path.write_text(format_automaton(bs_nf_machine(4, 7)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_accept_paper_strings(bs47_aut, capsys):
    code, out = run(capsys, "accept", bs47_aut, "at # 1 1 1 # 1 # # 1")
    assert code == 0 and "accepted" in out
    code, out = run(capsys, "accept", bs47_aut, "at # 1 1 1 1 1 # 1 # # 1")
    assert code == 1 and "rejected" in out
    code, out = run(capsys, "accept", bs47_aut,
                    "at # 1 1 # 1 1 # 1 # 1", "--porcelain")
    assert code == 1 and out.strip() == "accepted false"


def test_accept_empty_word_start_accepting(tmp_path, capsys):
    text = """\
automaton unit
alphabet a
counters 0
blind true
states s
start s
accept s
trans s a - s
"""
    path = tmp_path / "unit.aut"
    path.write_text(text)
    code, _ = run(capsys, "accept", str(path), "")
    assert code == 0


def test_accept_long_epsilon_chain(tmp_path, capsys):
    # 3,000 epsilon moves in a row: the epsilon bound is found without
    # one level of recursion per move
    n = 3000
    lines = ["automaton chain", "alphabet a", "counters 0", "blind true",
             "states " + " ".join(f"s{i}" for i in range(n + 1)),
             "start s0", f"accept s{n}"]
    lines += [f"trans s{i} EPS - s{i + 1}" for i in range(n)]
    path = tmp_path / "chain.aut"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "accept", str(path), "")
    assert code == 0 and out == "accepted\n"


def test_accept_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.aut"
    path.write_text("automaton x\nbogus line\n")
    code = main(["accept", str(path), "a"])
    assert code == 2


def test_nf_examples(capsys):
    code, out = run(capsys, "nf", "--group", "bs:4,7", "a a a a a a a")
    assert code == 0 and out.strip() == "# 1 1 1 # 1 # # 1"
    code, out = run(capsys, "nf", "--group", "finf", "x2 x2 x2 x5-",
                    "--porcelain")
    assert code == 0 and out.strip() == \
        "normal-form p 1 1 p 1 1 p 1 1 n 1 1 1 1 1"
    code, out = run(capsys, "nf", "--group", "bs:2,3", "")
    assert code == 0 and out.strip() == "# # # #"


def test_nf_enum_agrees_with_graph(capsys):
    code1, out1 = run(capsys, "nf", "--group", "bs:2,3", "a t a")
    code2, out2 = run(capsys, "nf", "--group", "bs:2,3", "a t a",
                      "--algo", "enum")
    assert code1 == code2 == 0
    assert out1 == out2


def test_nf_trace_prints_statistics(capsys):
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t", "--trace")
    assert code == 0
    assert "max|S_j|" in out


def test_nf_trace_needs_the_graph_search(capsys):
    # the enumeration has no levels to trace
    code = main(["nf", "--group", "bs:2,3", "a t", "--algo", "enum", "--trace"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --trace needs --algo graph\n"


def test_nf_trace_lines_are_fixed(capsys):
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t a- t-", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "at at- # -1 # -1 # # -1",
        "# step a: levels=6 max|S_j|=4 max|T_j|=4 pruned=4 D=174 E=16 F=9 K=0 k=3",
        "# step t: levels=6 max|S_j|=6 max|T_j|=6 pruned=0 D=205 E=15 F=9 K=0 k=3",
        "# step a-: levels=7 max|S_j|=4 max|T_j|=4 pruned=4 D=174 E=16 F=9 K=0 k=3",
        "# step t-: levels=9 max|S_j|=8 max|T_j|=8 pruned=3 D=205 E=15 F=9 K=0 k=3",
    ]
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t a- t-")
    assert code == 0 and out == "at at- # -1 # -1 # # -1\n"


def test_nf_trace_porcelain_prints_step_records(capsys):
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t", "--trace",
                    "--porcelain")
    assert code == 0
    assert out.splitlines() == [
        "normal-form at # # # #",
        "step a levels 6 max_s 4 max_t 4 pruned 4 D 174 E 16 F 9 K 0 k 3",
        "level 0 S 1 T 0 c 0 bound 348",
        "level 1 S 4 T 4 c 1 bound 2386932",
        "level 2 S 2 T 2 c 1 bound 17627244",
        "level 3 S 1 T 1 c 1 bound 57898500",
        "level 4 S 1 T 1 c 1 bound 135377916",
        "level 5 S 2 T 2 c 1 bound 262242708",
        "level 6 S 1 T 1 c 0 bound 450670092",
        "step t levels 6 max_s 6 max_t 6 pruned 0 D 205 E 15 F 9 K 0 k 3",
        "level 0 S 1 T 0 c 0 bound 410",
        "level 1 S 6 T 6 c 1 bound 2812190",
        "level 2 S 3 T 3 c 1 bound 20767730",
        "level 3 S 3 T 3 c 1 bound 68213750",
        "level 4 S 6 T 6 c 2 bound 159496970",
        "level 5 S 6 T 6 c 4 bound 308964110",
        "level 6 S 5 T 5 c 6 bound 530961890",
    ]
    # bound = 2*D*(2*F*j + 1)**k
    assert 2 * 205 * (2 * 9 * 6 + 1) ** 3 == 530961890
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t", "--porcelain")
    assert code == 0 and out == "normal-form at # # # #\n"


def test_nf_bad_builtin_index_exits_2(capsys):
    code = main(["nf", "--group", "finf:x", "x1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "finf:x" in captured.err


@pytest.mark.parametrize("token", ["x99999999999999999999", "x" + "9" * 5000])
def test_finf_index_past_sys_maxsize_exits_2(token, capsys):
    # no factory could size x_i's machine; int() refuses the long one
    code = main(["nf", "--group", "finf", token])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: unknown generator {token!r}\n"


@pytest.mark.parametrize("group, token", [
    ("finf", "x99999999999999999999"), ("finf:2", "x5")])
def test_both_algorithms_name_an_unknown_generator(group, token, capsys):
    # each checks the generator before it looks for a multiplier
    for algo in ("graph", "enum"):
        code = main(["nf", "--group", group, token, "--algo", algo])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", algo
        assert captured.err == f"error: unknown generator {token!r}\n", algo


# the factory's lists for these indices fail at once, before any memory is
# allocated; never add an index whose machine could be allocated
@pytest.mark.parametrize("token", ["x9223372036854775807", "x4611686018427387904"])
def test_finf_index_too_large_to_build_exits_2(token, capsys):
    code = main(["nf", "--group", "finf", token])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: no memory to build the multiplier of {token!r}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "finf:-1", "--radius", "2"],
    ["shortlex-nf", "--oracle", "finf:0", "EPS"],
])
def test_finf_bound_below_one_exits_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and "K >= 1" in captured.err and captured.out == ""


@pytest.mark.parametrize("oracle", ["bs:0,3", "regen(finf; y=x1)",
                                    "product(finf,z)"])
def test_verify_malformed_oracle_exits_2(oracle, tmp_path, capsys):
    out_dir = str(tmp_path / "z")
    assert main(["build", "z", "--out", out_dir]) == 0
    capsys.readouterr()
    code = main(["verify", "--structure", out_dir, "--oracle", oracle,
                 "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:")
    assert captured.out == ""


def test_verify_negative_radius_exits_2(capsys):
    code = main(["verify", "--group", "z", "--radius", "-1", "--porcelain"])
    captured = capsys.readouterr()
    assert code == 2
    assert "radius" in captured.err and captured.out == ""


def test_wp_and_eq(capsys):
    code, out = run(capsys, "wp", "--group", "bs:2,3", "t a a t- a- a- a-")
    assert code == 0 and "trivial" in out
    code, _ = run(capsys, "wp", "--group", "bs:2,3", "a")
    assert code == 1
    code, _ = run(capsys, "eq", "--group", "finf", "x1 x2 x2-", "x1")
    assert code == 0
    code, _ = run(capsys, "eq", "--group", "finf", "x1", "x2")
    assert code == 1


def test_verify_clean_and_failing(capsys):
    code, out = run(capsys, "verify", "--group", "bs:2,3", "--radius", "2",
                    "--porcelain")
    assert code == 0
    assert "failures 0" in out

    code, out = run(capsys, "verify", "--group", "finf:2", "--radius", "2",
                    "--oracle", "free")
    assert code == 0


def test_build_round_trip(tmp_path, capsys):
    out_dir = str(tmp_path / "f2")
    code, _ = run(capsys, "build", "free(z,z)", "--out", out_dir)
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "structure.txt"))
    code, out = run(capsys, "verify", "--structure", out_dir, "--radius", "3",
                    "--oracle", "free")
    assert code == 0

    # loaded structures serve every other command
    code, out = run(capsys, "nf", "--structure", out_dir, "1.a 2.a 2.a-")
    assert code == 0 and out.strip() == "# 1.a"
    code, _ = run(capsys, "wp", "--structure", out_dir, "1.a 1.a-")
    assert code == 0


@pytest.mark.parametrize("expr", ["bs:2,3", "bs:4,7", "finf:3", "free(z,z)",
                                  "product(z,z)",
                                  "regen(bs:2,3; a=a; t=t; u=at)"])
def test_build_is_identical_under_different_hash_seeds(expr, tmp_path):
    src = os.path.dirname(os.path.dirname(cga.__file__))
    dirs = []
    for seed in ("1", "2"):
        out_dir = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "cga.cli", "build", expr,
                        "--out", str(out_dir)], env=env, check=True,
                       capture_output=True, timeout=120)
        dirs.append(out_dir)
    first, second = dirs
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second)) and "structure.txt" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("expr", ["bs:2,3", "finf:3", "free(z,z)",
                                  "product(z,z)",
                                  "regen(bs:2,3; a=a; t=t; u=at)"])
def test_built_automata_round_trip(expr, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["build", expr, "--out", str(out_dir)]) == 0
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".aut"))
    assert "nf.aut" in names and len(names) > 1
    for name in names:
        text = (out_dir / name).read_text()
        assert format_automaton(load_automaton(str(out_dir / name))) == text


def test_verify_structure_requires_oracle(tmp_path, capsys):
    out_dir = str(tmp_path / "z")
    assert main(["build", "z", "--out", out_dir]) == 0
    capsys.readouterr()
    code = main(["verify", "--structure", out_dir, "--radius", "2"])
    assert code == 2


def test_shortlex_nf_command(capsys):
    code, out = run(capsys, "shortlex-nf", "--oracle", "bs:2,3",
                    "a a a a a a a a a")
    assert code == 0
    assert len(out.split()) == 8
    code, out = run(capsys, "shortlex-nf", "--oracle", "bs:2,3",
                    "--max-len", "2", "a a a a", "--porcelain")
    assert code == 3 and "cap-exceeded" in out


@pytest.mark.parametrize("oracle, word", [
    ("bs:2,3", "q"),   # the BS rewriting would raise on the letter
    ("z", "q"),        # free reduction would search to the length cap
    ("finf", "x1"),    # an unbounded family has no generator order
])
def test_shortlex_nf_bad_word_or_oracle_exits_2(oracle, word, capsys):
    code = main(["shortlex-nf", "--oracle", oracle, word])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["wp", "--group", "finf", "x01 x1-"],
    ["nf", "--group", "finf:3", "x1 x01"],
    ["shortlex-nf", "--oracle", "finf:3", "x01 x1-"],
])
def test_family_index_with_a_leading_zero_is_unknown(argv, capsys):
    # x01 is no second name of x1: every command refuses it
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unknown generator 'x01'" in captured.err


def test_shortlex_nf_reports_a_shortlex_error_with_exit_2(monkeypatch, capsys):
    import cga.cli
    from cga.shortlex import ShortlexError

    def refuse(*args, **kwargs):
        raise ShortlexError("letter 'q' not in ordered alphabet")

    monkeypatch.setattr(cga.cli, "geodesic_normal_form", refuse)
    code = main(["shortlex-nf", "--oracle", "z", "a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: letter 'q' not in ordered alphabet\n"


@pytest.mark.parametrize("group, oracle, message", [
    ("finf:3", "bs:2,3", "unknown BS generator 'x1'"),
    ("z", "product(z,z)", "unknown product generator 'a'"),
    ("z", "free(z,z)", "unknown free-product generator 'a'"),
    ("z", "regen(z; y=a)", "unknown regenerated generator 'a'"),
    ("z", "finf:3", "unknown generator 'a'"),
])
def test_verify_against_an_oracle_of_other_generators_exits_2(
        group, oracle, message, capsys):
    code = main(["verify", "--group", group, "--oracle", oracle, "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("entry", ["+0", "-0"])
def test_accept_zero_counter_amount_exits_2(entry, tmp_path, capsys):
    path = tmp_path / "zero.aut"
    path.write_text("automaton zero\nalphabet a\ncounters 1\nstates s\n"
                    f"start s\naccept s\ntrans s a {entry} s\n")
    code = main(["accept", str(path), "a"])
    captured = capsys.readouterr()
    assert code == 2 and entry in captured.err
    assert f"{path}:7:" in captured.err


def test_accept_non_utf8_automaton_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.aut"
    path.write_bytes(b"automaton x\xff\n")
    code = main(["accept", str(path), "a"])
    captured = capsys.readouterr()
    assert code == 2 and str(path) in captured.err and captured.out == ""


def test_nf_non_utf8_manifest_exits_2(tmp_path, capsys):
    (tmp_path / "structure.txt").write_bytes(b"structure \xff\n")
    code = main(["nf", "--structure", str(tmp_path), "a"])
    captured = capsys.readouterr()
    assert code == 2 and "structure.txt" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line, broken", [
    ("growth 1 1", "growth 1"),
    ("mult a- mult_a-.aut", "mult a-"),
    ("structure z", "structure"),
    ("growth 1 1", "growth 1 x"),
    ("quasigeodesic-C 1", "quasigeodesic-C one"),
    ("order a a-", "order a a"),
    ("seed-q EPS", "seed-q q"),
])
def test_malformed_manifest_exits_2(line, broken, tmp_path, capsys):
    out_dir = tmp_path / "z"
    assert main(["build", "z", "--out", str(out_dir)]) == 0
    manifest = out_dir / "structure.txt"
    text = manifest.read_text()
    assert line + "\n" in text
    manifest.write_text(text.replace(line + "\n", broken + "\n"))
    capsys.readouterr()
    code = main(["nf", "--structure", str(out_dir), "a"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("line, broken, on_line, message", [
    ("generators a a-", "generators a", True,
     "generator 'a' has no inverse token"),
    ("generators a a-", "generators a a- | family x", True,
     "family clause must be: | family <base> INT"),
    ("growth 1 1", "growth 0 1", True,
     "growth policy needs alpha >= 1 and beta >= 0"),
    ("seed-q EPS", "seed-q a a- a", False,
     "seed word q is not in the normal form language"),
    ("order a a-", "order a a-\nmult q mult_a.aut", False,
     "multiplier for unknown generator 'q'"),
], ids=["no-inverse", "family-clause", "growth", "seed-q", "unknown-mult"])
def test_manifest_error_names_the_manifest(line, broken, on_line, message,
                                           tmp_path, capsys):
    # an error of one directive names the manifest and its line; one the
    # structure raises when it is put together names the manifest
    out_dir = tmp_path / "z"
    assert main(["build", "z", "--out", str(out_dir)]) == 0
    manifest = out_dir / "structure.txt"
    lines = manifest.read_text().splitlines()
    lineno = lines.index(line) + 1
    lines[lineno - 1] = broken
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["nf", "--structure", str(out_dir), "a"])
    captured = capsys.readouterr()
    where = f"{manifest}:{lineno}:" if on_line else f"{manifest}:"
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {where} {message}\n"


def test_shortlex_nf_negative_max_len_exits_2(capsys):
    code = main(["shortlex-nf", "--oracle", "z", "a", "--max-len", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-len" in captured.err and captured.out == ""


def test_nf_regen_over_bounded_finf(capsys):
    code, out = run(capsys, "nf", "--group", "regen(finf:2; y=x1 x2; x=x1)", "y")
    assert code == 0 and out == "p 1 p 1 1\n"


def test_product_keeps_the_family_growth_term(capsys):
    # finf caps a step by x_i at i + 1, above its base beta of 1
    code, out = run(capsys, "nf", "--group", "product(finf:3,z)", "1.x3")
    assert code == 0 and out == "(1.p|_) (1.1|_) (1.1|_) (1.1|_)\n"
    code, out = run(capsys, "verify", "--group", "product(finf:3,z)",
                    "--radius", "2", "--porcelain")
    assert code == 0 and out.startswith("failures 0\n")


def test_build_writes_the_family_growth_term(tmp_path, capsys):
    out_dir = tmp_path / "finf3"
    assert main(["build", "finf:3", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert "growth 1 4\n" in (out_dir / "structure.txt").read_text()
    code, out = run(capsys, "nf", "--structure", str(out_dir), "x3")
    assert code == 0 and out == "p 1 1 1\n"


def test_nf_regen_over_free_product_is_unique(capsys):
    # the swapped and composed multipliers once saw a second v through a
    # pair outside L x L
    code, out = run(capsys, "nf", "--group",
                    "regen(free(z,z); c=1.a 2.a; d=1.a)", "c c-")
    assert code == 0 and out == "EPS\n"


@pytest.mark.parametrize("expr", [
    "regen(z; y=a; y=EPS)",   # repeated name, second one trivial
    "regen(z; y=a; y=a-)",    # repeated name
    "regen(z; =a)",           # empty name
    "regen(z; y y=a)",        # name with whitespace
    "regen(z; y=a; y-=a)",    # name ending in the inverse marker
])
def test_regen_rejects_malformed_generator_names(expr, capsys):
    code = main(["verify", "--group", expr, "--radius", "2", "--porcelain"])
    captured = capsys.readouterr()
    assert code == 2
    assert "generator" in captured.err and captured.out == ""


def test_eps_output_reads_back_as_the_empty_word(capsys):
    code, out = run(capsys, "nf", "--group", "free(z,z)", "1.a 2.a 2.a- 1.a-")
    assert code == 0 and out == "EPS\n"
    code, again = run(capsys, "nf", "--group", "free(z,z)", out.strip())
    assert code == 0 and again == out
    code, out = run(capsys, "wp", "--group", "free(z,z)", out.strip())
    assert code == 0 and out == "trivial\n"
    code, out = run(capsys, "wp", "--group", "bs:2,3", "EPS", "--porcelain")
    assert code == 0 and out == "trivial true\n"
    code, out = run(capsys, "shortlex-nf", "--oracle", "z", "a a-")
    assert code == 0 and out == "EPS\n"
    code, again = run(capsys, "shortlex-nf", "--oracle", "z", out.strip())
    assert code == 0 and again == out
    code, _ = run(capsys, "eq", "--group", "finf", "EPS", "x1 x1-")
    assert code == 0


def test_porcelain_is_stable(capsys):
    argv = ["verify", "--group", "z", "--radius", "3", "--porcelain"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["nf", "--group", "regen(bs:2,3; y=t- a t)", "y"],
    ["build", "regen(bs:2,3; y=t- a t)", "--out", "never-written"],
])
def test_closure_that_cannot_be_built_exits_2(argv, tmp_path, monkeypatch,
                                              capsys):
    # the composition of t-, a and t has an epsilon cycle, so no multiplier
    # can be built; the message names the generator and its word
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: cannot build generator y = t- a t: "
                            "composition has an epsilon cycle; quasi-realtime "
                            "multiplier not constructible\n")
    assert not os.path.exists(tmp_path / "never-written")


def test_nf_regen_word_that_reduces_to_a_letter_is_fast(capsys):
    # y = a t- t is read as a, so y gets a's multiplier and no composition
    start = time.perf_counter()
    code, out = run(capsys, "nf", "--group",
                    "regen(bs:2,3; a=a; t=t; y=a t- t)", "a y")
    assert code == 0 and time.perf_counter() - start < 1.0
    assert out == run(capsys, "nf", "--group", "bs:2,3", "a a")[1]


@pytest.mark.parametrize("argv", [["nf", "a a"], ["wp", "a a-"],
                                  ["eq", "a", "a a"]])
def test_exceeded_search_bound_exits_3(argv, z_manifest, capsys):
    # a growth term of 0 forbids any step that lengthens the normal form
    manifest = z_manifest / "structure.txt"
    manifest.write_text(manifest.read_text().replace("growth 1 1",
                                                     "growth 1 0"))
    ref = ["--structure", str(z_manifest)]
    code, out = run(capsys, argv[0], *ref, *argv[1:], "--porcelain")
    assert code == 3 and out == "bound-exceeded 0\n"
    code = main([argv[0], *ref, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    assert "exceeded growth bound 0" in captured.out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["nf", "a"])  # neither --group nor --structure
    assert err.value.code == 2
    assert main(["nf", "--group", "nonsense(z)", "a"]) == 2


@pytest.mark.parametrize("argv", [
    ["nf", "--group", "", "a"],
    ["wp", "--group", "", "a"],
    ["eq", "--group", "", "a", "a"],
    ["verify", "--group", "", "--radius", "1"],
])
def test_empty_group_expression_exits_2(argv, capsys):
    # an empty expression is still --group, not a missing --structure
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown structure expression ''\n"
    assert captured.out == ""


@pytest.mark.parametrize("sub", ["", "sub"])
def test_build_into_a_file_exits_2(sub, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    assert main(["build", "z", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno ")
    assert str(blocker) in captured.err and captured.out == ""


def test_build_rejects_unbounded_family(tmp_path, capsys):
    code = main(["build", "finf", "--out", str(tmp_path / "x")])
    assert code == 4


@pytest.fixture
def z_manifest(tmp_path, capsys):
    out_dir = tmp_path / "z"
    assert main(["build", "z", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


@pytest.mark.parametrize("argv", [
    ["nf", "a-"],
    ["wp", "a-"],
    ["eq", "a-", "a"],
    ["verify", "--oracle", "z", "--radius", "1"],
])
def test_malformed_multiplier_file_fails_when_first_used(argv, z_manifest,
                                                         capsys):
    # multiplier files are read on first use: a word without a- never
    # reads the broken file, and the first command that does exits 2
    (z_manifest / "mult_a-.aut").write_text("automaton broken\nbogus\n")
    code, out = run(capsys, "nf", "--structure", str(z_manifest), "a")
    assert code == 0 and out == "a\n"
    code = main([argv[0], "--structure", str(z_manifest), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(
        f"error: {z_manifest / 'mult_a-.aut'}:2:")


def test_multiplier_outside_the_pair_alphabet_fails_when_first_used(
        z_manifest, capsys):
    # nf.aut reads single symbols, not pair letters
    (z_manifest / "mult_a-.aut").write_text((z_manifest / "nf.aut").read_text())
    code, out = run(capsys, "nf", "--structure", str(z_manifest), "a")
    assert code == 0 and out == "a\n"
    code = main(["nf", "--structure", str(z_manifest), "a-"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(
        f"error: {z_manifest / 'mult_a-.aut'}: multiplier 'a-' uses letter 'a'")


def test_manifest_multiplier_leaving_l_exits_2(tmp_path, capsys):
    # mult_a.aut takes the identity to a a-, outside L: the first step
    # prints it, the step after it is refused with exit 2
    write_structure(z_leaving_l(), tmp_path)
    code, out = run(capsys, "nf", "--structure", str(tmp_path), "a")
    assert code == 0 and out == "a a-\n"
    code = main(["nf", "--structure", str(tmp_path), "a a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: word a a- is not in L\n"


def test_missing_multiplier_file_fails_at_load(z_manifest, capsys):
    os.remove(z_manifest / "mult_a-.aut")
    code = main(["nf", "--structure", str(z_manifest), "a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "mult_a-.aut" in captured.err


@pytest.mark.parametrize("name, state", [("nf.aut", "z0"),
                                         ("mult_a.aut", "m0")])
def test_machine_with_an_epsilon_cycle_exits_2(name, state, z_manifest,
                                               capsys):
    # a structure's machines must be quasi-realtime; this cycle moves no
    # counter, so the searches would still end on it
    path = z_manifest / name
    path.write_text(path.read_text() + f"trans {state} EPS - {state}\n")
    code = main(["nf", "--structure", str(z_manifest), "a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: {path}: epsilon cycle: the machine is "
                            "not quasi-realtime\n")


@pytest.mark.parametrize("symbols, message", [
    ("a a- b", "the normal form machine does not read symbol 'b'"),
    ("a a- _", "symbol '_' cannot be a row of a pair letter"),
], ids=["not-in-L", "padding"])
def test_manifest_symbol_rejected_at_load(symbols, message, z_manifest,
                                          capsys):
    # mult_a.aut grows a word by b, which L cannot read
    manifest = z_manifest / "structure.txt"
    manifest.write_text(manifest.read_text().replace(
        "lambda a a-\n", f"lambda {symbols}\n"))
    mult = z_manifest / "mult_a.aut"
    mult.write_text(mult.read_text().replace("(_|a)", "(_|b)"))
    code = main(["nf", "--structure", str(z_manifest), "a a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {manifest}: {message}\n"
