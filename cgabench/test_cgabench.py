"""Tests of the benchmark itself (not of cga).

    PYTHONPATH=src python3 -m pytest -q cgabench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Session  # noqa: E402


@pytest.fixture
def work_dir():
    path = HERE / "work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_session(work_dir):
    """A few ops of each kind, quick enough for a test."""
    from cga import gastructure, groups

    bs = groups.structure_from_expr("bs:2,3")
    z = groups.structure_from_expr("z")
    z_oracle = groups.oracle_from_expr("z")
    oracle = groups.BSOracle(2, 3)
    ops = []
    for word in (("a", "t", "a"), ("t-", "a", "a", "t"), ("a",) * 6):
        expected = oracle.pair(word)
        ops.append(Op(
            f"nf {word}", lambda tracer, word=word: tuple(bs.normal_form(word)),
            lambda nf, expected=expected: groups.bs_decode(nf, 2, 3) == expected))
    ball = workloads.oracle_ball(z_oracle, 3)
    ops.append(Op(
        "verify z", lambda tracer: workloads.verify_output(
            gastructure.verify(z, 3, z_oracle)),
        lambda out: out[2] == [] and (out[0], out[1]) == ball))
    args = ["wp", "--group", "bs:2,3", "a t a- t-", "--porcelain"]
    ops.append(Op(
        "cli wp", lambda tracer: workloads.run_child(
            args, tracer, work_dir / "spans.json", 60),
        workloads._verdict_check("trivial", oracle.is_trivial(args[3].split())),
        child=True))
    return Session(ops, keep=[bs, z])


def cga_names():
    """Every module attribute and class attribute of the cga package."""
    names = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "cga" and not mod_name.startswith("cga."):
            continue
        for attr, value in vars(module).items():
            names[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, member in vars(value).items():
                    names[(mod_name, attr, cls_attr)] = member
    return names


def test_generators_are_deterministic_per_seed():
    assert workloads.draw_nf_bs(5) == workloads.draw_nf_bs(5)
    assert workloads.draw_nf_bs(5) != workloads.draw_nf_bs(6)
    assert workloads.draw_cli_cold(5) == workloads.draw_cli_cold(5)
    assert workloads.draw_cli_cold(5) != workloads.draw_cli_cold(6)
    assert workloads.draw_verify_ball(5) == workloads.draw_verify_ball(5)


def test_nf_bs_draw_and_cli_cold_shares_follow_the_spec():
    spec = workloads.SPEC
    items = workloads.draw_nf_bs(11)
    assert len(items) == spec["nf-bs"]["ops_per_pass"]
    ladder = spec["nf-bs"]["ladder"]
    ladder_words = {(ladder["generator"],) * p for p in ladder["powers"]}
    assert sum(word in ladder_words for _, word, _ in items) == len(ladder_words)
    for group in spec["nf-bs"]["groups"]:
        shortest, longest = group["lengths"]
        m, n = workloads._bs_params(group["group"])
        drawn = [(word, size) for expr, word, size in items
                 if expr == group["group"] and word not in ladder_words]
        assert len(drawn) == group["count"]
        for word, size in drawn:
            assert shortest <= len(word) <= longest
            assert size == max(workloads.intermediate_nf_lengths(word, m, n))
            assert size <= group["nf_len_cap"]
    cli = workloads.draw_cli_cold(11)
    assert len(cli) == spec["cli-cold"]["ops_per_pass"]
    assert sum(cls == "cold" for cls, _, _ in cli) / len(cli) == pytest.approx(
        spec["cli-cold"]["declared_cold_share"], abs=0.001)


def test_nf_bs_draw_keeps_the_natural_mixture():
    """The drawn words' nf_len quartiles are those of independent natural
    words under the cap, and the cap drops the recorded share."""
    import random
    import statistics
    for group in workloads.SPEC["nf-bs"]["groups"]:
        m, n = workloads._bs_params(group["group"])
        rng = random.Random("natural")
        natural = [max(workloads.intermediate_nf_lengths(
            workloads._random_word(rng, workloads.BS_LETTERS, group["lengths"]),
            m, n)) for _ in range(2000)]
        capped = [size for size in natural if size <= group["nf_len_cap"]]
        assert 1 - len(capped) / len(natural) == pytest.approx(
            group["dropped_share"], abs=0.02)
        # six passes: 60 bs:4,7 words, enough for stable quartiles
        drawn = [size for seed in range(1, 7)
                 for expr, word, size in workloads.draw_nf_bs(seed)
                 if expr == group["group"] and len(set(word)) > 1]  # no ladder
        for want, got in zip(statistics.quantiles(capped, n=4),
                             statistics.quantiles(drawn, n=4)):
            assert abs(want - got) <= 1.5


def test_closure_shares_follow_langops_and_formats_time():
    dump = {"spans": [
        ["cli.main", None, 0.0, 10.0, None],
        ["langops.intersect", 0, 1.0, 5.0, None],
        ["langops.trim", 1, 2.0, 3.0, None],    # nested: counted once
        ["formats.load", 0, 6.0, 8.0, None],
        ["groups.build", None, 10.0, 11.0, None],  # not an op root
        ["bench.op x", None, 11.0, 12.0, None]]}
    assert tracing.closure_shares(dump) == [0.6, 0.0]


def test_traced_pass_restores_names_and_matches_untraced(work_dir):
    import cga.cli  # noqa: F401
    session = small_session(work_dir)
    before = cga_names()
    _, plain = run.run_pass(session.ops)
    tracer = tracing.Tracer().install()
    assert cga_names() != before
    try:
        _, traced = run.run_pass(session.ops, tracer)
    finally:
        tracer.restore()
    after = cga_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    assert all(r["ok"] for r in plain + traced)
    assert [run.comparable(r) for r in plain] == \
        [run.comparable(r) for r in traced]
    child_dumps = [r["out"][3] for r in traced if r["op"].child]
    assert child_dumps and all(d is not None for d in child_dumps)
    metrics = tracing.merge([tracing.layer_metrics(tracer.dump())]
                            + [tracing.layer_metrics(d) for d in child_dumps])
    assert metrics["gastructure.search_calls"] > 0
    assert metrics["gastructure.bound_breaks"] == 0
    assert metrics["gastructure.candidates_calls"] > 0
    assert metrics["shortlex.geodesic_calls"] > 0
    assert metrics["groups.canonicalize_calls"] > 0
    assert metrics["cli.self_s"] > 0


def test_wrong_expected_answer_shows_up_as_failed(work_dir):
    session = small_session(work_dir)
    wrong = session.ops[0]
    session.ops[0] = Op(wrong.label, wrong.run, lambda out: not wrong.check(out))
    wall, records = run.run_pass(session.ops)
    metrics = run.end_to_end_metrics([(wall, records)], [0.1])
    assert [r["ok"] for r in records].count(False) == 1
    assert metrics["ok_frac"]["value"] == pytest.approx(
        (len(records) - 1) / len(records))
    assert run.unexpected(records[0])


def test_full_collections_count_in_passes_not_in_percentiles():
    op = Op("x", None, None)
    records = [{"op": op, "ok": True, "took": 0.3, "gc": 0.2}]
    metrics = run.end_to_end_metrics([(0.3, records)], [0.1])
    assert metrics["op_p50_ms"]["value"] == pytest.approx(100)
    assert metrics["pass_s"]["value"] == pytest.approx(0.3)
    assert metrics["ops_per_s"]["value"] == pytest.approx(1 / 0.3)


def test_known_defect_failing_as_recorded_is_not_unexpected():
    op = Op("defect", None, None, known_exit=3, child=True)
    assert not run.unexpected({"op": op, "ok": False, "out": (3, "", 0.1, None)})
    assert run.unexpected({"op": op, "ok": False, "out": (1, "", 0.1, None)})


def test_run_fails_without_the_program(work_dir):
    bare = work_dir / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "nf-bs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    import json
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == [HERE.name]
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    op = Op("x", None, None)
    printed = run.end_to_end_metrics(
        [(0.1, [{"op": op, "ok": True, "took": 0.1}])], [0.1])
    printed["peak_rss_mb"] = run.metric(1.0, "MB")
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        {name: v["unit"] for name, v in printed.items()}
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(name, tracing.unit_of(name)) for name in tracing.PER_LAYER]
