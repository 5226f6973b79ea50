import os

import pytest

from cga.cli import main
from cga.formats import format_automaton, write_structure
from cga.groups import bs_nf_machine, bs_structure


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


def test_nf_trace_lines_are_fixed(capsys):
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t a- t-", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "at at- # -1 # -1 # # -1",
        "# step a: levels=6 max|S_j|=14 max|T_j|=14 D=275 E=16 F=27 K=3 k=3",
        "# step t: levels=6 max|S_j|=27 max|T_j|=12 D=957 E=9 F=117 K=13 k=3",
        "# step a-: levels=7 max|S_j|=14 max|T_j|=14 D=275 E=16 F=27 K=3 k=3",
        "# step t-: levels=9 max|S_j|=27 max|T_j|=24 D=957 E=9 F=117 K=13 k=3",
    ]
    code, out = run(capsys, "nf", "--group", "bs:2,3", "a t a- t-")
    assert code == 0 and out == "at at- # -1 # -1 # # -1\n"


def test_nf_bad_builtin_index_exits_2(capsys):
    code = main(["nf", "--group", "finf:x", "x1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "finf:x" in captured.err


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


def test_shortlex_nf_negative_max_len_exits_2(capsys):
    code = main(["shortlex-nf", "--oracle", "z", "a", "--max-len", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-len" in captured.err and captured.out == ""


def test_nf_regen_over_bounded_finf(capsys):
    code, out = run(capsys, "nf", "--group", "regen(finf:2; y=x1 x2; x=x1)", "y")
    assert code == 0 and out == "p 1 p 1 1\n"


def test_porcelain_is_stable(capsys):
    argv = ["verify", "--group", "z", "--radius", "3", "--porcelain"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["nf", "a"])  # neither --group nor --structure
    assert err.value.code == 2
    assert main(["nf", "--group", "nonsense(z)", "a"]) == 2


def test_build_rejects_unbounded_family(tmp_path, capsys):
    code = main(["build", "finf", "--out", str(tmp_path / "x")])
    assert code == 4
