import os

import pytest
from hypothesis import given, settings, strategies as st

from cga import formats
from cga.automata import EPSILON, accepts, validate
from cga.formats import (
    ParseError,
    format_automaton,
    load_automaton,
    load_structure,
    parse_automaton,
    parse_program,
    write_structure,
)
from cga.gastructure import StructureError, verify
from cga.groups import (
    BSOracle,
    bs_structure,
    oracle_from_expr,
    structure_from_expr,
    z_structure,
)

from conftest import toks


SAMPLE = """\
# a 2-counter machine with every program form
automaton sample
alphabet a b (a|_)
counters 2
blind false
states p q r
start p
accept q r
trans p a +1,. ; =0,-3 q
trans q b - r
trans r EPS Z,!0 p
trans q (a|_) .,. q
"""


def test_parse_automaton_round_trip():
    machine = parse_automaton(SAMPLE)
    assert machine.name == "sample"
    assert machine.counters == 2
    assert machine.alphabet == ("a", "b", "(a|_)")
    trans = {(t.src, t.label): t for t in machine.transitions}
    prog = trans[("p", "a")].program
    assert len(prog) == 2  # two steps
    assert prog[0][0].kind == "inc" and prog[0][0].amount == 1
    assert prog[1][0].kind == "test_zero"
    assert prog[1][1].kind == "dec" and prog[1][1].amount == 3
    assert trans[("q", "b")].program == ()
    assert trans[("q", "(a|_)")].program == ()  # all-noop normalizes to empty
    assert trans[("r", EPSILON)].dst == "p"

    again = parse_automaton(format_automaton(machine))
    assert again.alphabet == machine.alphabet
    assert again.counters == machine.counters
    assert set(again.transitions) == set(machine.transitions)
    assert again.accepts == machine.accepts


def test_format_writes_each_program_object_once(monkeypatch, bs23):
    # transitions share program objects; each is formatted once, and the
    # text is the one formatting every transition's program gives
    machine = bs23.multiplier("t")
    want = format_automaton(machine)
    calls = []
    real = formats.format_program
    monkeypatch.setattr(formats, "format_program",
                        lambda prog: calls.append(prog) or real(prog))
    assert format_automaton(machine) == want
    assert len(calls) == len({id(t.program) for t in machine.transitions})
    assert len(calls) < len(machine.transitions)
    lines = [line.split() for line in want.splitlines() if line.startswith("trans")]
    assert [line[3] for line in lines] == [real(t.program)
                                           for t in machine.transitions]


def test_parse_rejects_unknown_program_token():
    bad = SAMPLE.replace("+1,. ; =0,-3", ">0,.")
    with pytest.raises(ParseError):
        parse_automaton(bad)


def test_parse_rejects_unknown_directive_and_dangling_state():
    with pytest.raises(ParseError):
        parse_automaton(SAMPLE + "frobnicate x\n")
    with pytest.raises(ParseError):
        parse_automaton(SAMPLE.replace("trans q b - r", "trans q b - ghost"))


def test_parse_rejects_bad_label():
    with pytest.raises(ParseError) as err:
        parse_automaton(SAMPLE.replace("trans q b - r", "trans q z - r"))
    assert "label" in str(err.value)


def test_parse_program_arity_checked():
    with pytest.raises(ParseError):
        parse_program("+1", 2, lineno=1)


def test_comment_lines_and_hash_tokens_coexist():
    text = """\
# comment line
automaton hashy
alphabet # 1
counters 0
blind true
states s t
start s
accept t
trans s # - t
trans t 1 - t
"""
    machine = parse_automaton(text)
    assert accepts(machine, ("#", "1"))
    assert not accepts(machine, ("1",))


def test_structure_round_trip(tmp_path, bs23):
    out = tmp_path / "bs23"
    write_structure(bs23, out)
    loaded = load_structure(out)
    assert loaded.mu == bs23.mu
    assert loaded.symbols == bs23.symbols
    word = toks("t a a t- a- a- a-")
    assert loaded.word_problem(word)
    assert loaded.normal_form(("a", "t")) == bs23.normal_form(("a", "t"))


def test_manifest_without_inverse_multipliers(tmp_path, bs23):
    # a manifest may omit the mult lines of inverse generators: the
    # structure derives each as the row swap of its partner's
    out = tmp_path / "bs"
    write_structure(bs23, out)
    manifest = out / "structure.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(
        line for line in lines if not line.startswith(("mult a-", "mult t-"))))
    os.remove(out / "mult_a-.aut")
    os.remove(out / "mult_t-.aut")
    loaded = load_structure(out)
    report = verify(loaded, 2, BSOracle(2, 3))
    assert report.ok and report.words_checked == 21
    assert loaded.multiplier("t-").name == "bs2_3_Lt-"


def test_round_trip_verify_report_matches(tmp_path):
    for i, (expr, radius) in enumerate([("free(z,z)", 3),
                                        ("regen(bs:2,3; a=a; t=t; u=a a)", 2)]):
        structure = structure_from_expr(expr)
        out = tmp_path / f"structure{i}"
        write_structure(structure, out)
        loaded = load_structure(out)
        oracle = oracle_from_expr(expr)
        direct = verify(structure, radius, oracle)
        reloaded = verify(loaded, radius, oracle)
        assert direct.ok and reloaded.ok
        assert direct.words_checked == reloaded.words_checked
        assert direct.elements == reloaded.elements
        assert [(f.kind, f.witness) for f in direct.failures] == \
            [(f.kind, f.witness) for f in reloaded.failures]


def test_load_reads_only_the_multipliers_a_word_uses(tmp_path, bs23,
                                                     monkeypatch):
    out = tmp_path / "bs"
    write_structure(bs23, out)
    read = []

    def counting_load(path):
        read.append(os.path.basename(path))
        return load_automaton(path)

    monkeypatch.setattr(formats, "load_automaton", counting_load)
    loaded = load_structure(out)
    assert loaded.normal_form(("a",)) == bs23.normal_form(("a",))
    assert read == ["nf.aut", "mult_a.aut"]


def test_serialized_machines_revalidate(tmp_path, bs23):
    out = tmp_path / "bs"
    write_structure(bs23, out)
    loaded = load_structure(out)
    for tok in loaded.generators.tokens():
        assert validate(loaded.multiplier(tok)).ok


def test_manifest_family_and_lmult_lines(tmp_path):
    # family clause and left-multiplier lines parse; lmult lines are skipped
    # without reading their file, and the family has no factory so
    # requesting one of its multipliers fails cleanly
    z = z_structure()
    out = tmp_path / "zfam"
    write_structure(z, out)
    text = (out / "structure.txt").read_text()
    assert "lmult" not in text
    text = text.replace("generators a a-", "generators a a- | family x INT")
    text += "lmult a no_such_file.aut\n"
    (out / "structure.txt").write_text(text)
    loaded = load_structure(out)
    assert loaded.generators.family is not None
    assert loaded.normal_form(("a",)) == ("a",)
    with pytest.raises(StructureError):
        loaded.multiplier("x3")


# -- malformed input only ever gives the loaders' own errors -------------------

LOAD_ERRORS = (ParseError, StructureError, OSError)


@st.composite
def mutated_lines(draw, valid_text, words):
    """A valid file with each line kept, dropped, given new arguments or
    replaced by arbitrary text."""
    lines = []
    for line in valid_text.splitlines():
        how = draw(st.sampled_from(("keep", "drop", "args", "text")))
        if how == "keep":
            lines.append(line)
        elif how == "args":
            args = draw(st.lists(words, max_size=4))
            lines.append(" ".join([line.split()[0]] + args))
        elif how == "text":
            lines.append(draw(st.text(max_size=12)))
    return "\n".join(lines)


AUT_WORDS = st.sampled_from([
    "x", "a", "p", "q", "EPS", "-", ".", "+1", "=0", "!0", "Z", "+1,.",
    "+0,.", ".,-0", "Z;.", "0", "1", "2", "\u00b2", "true", ";", ","]) \
    | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(text=mutated_lines(SAMPLE, AUT_WORDS))
def test_aut_text_fails_only_with_parse_errors(text):
    try:
        parse_automaton(text)
    except LOAD_ERRORS:
        pass


@pytest.fixture(scope="module")
def z_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("zfuzz")
    write_structure(z_structure(), out)
    return out, (out / "structure.txt").read_text()


MANIFEST_WORDS = st.sampled_from([
    "z", "a", "a-", "q", "_", "nf.aut", "mult_a.aut", "missing.aut", "EPS",
    "none", "0", "1", "-1", "x", "\u00b2", "|", "family", "INT"]) \
    | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_manifest_text_fails_only_with_load_errors(z_files, data):
    out, valid = z_files
    text = data.draw(mutated_lines(valid, MANIFEST_WORDS))
    (out / "structure.txt").write_text(text, encoding="utf-8")
    try:
        loaded = load_structure(out)
        # multiplier files are read on first use
        for tok in loaded.generators.tokens():
            loaded.multiplier(tok)
    except LOAD_ERRORS:
        pass
