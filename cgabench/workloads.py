"""Workload generators, expected answers and op runners of the cga benchmark.

Every input is drawn from ``random.Random(seed)`` and the parameters in
``workloads.json``.  Every expected answer comes from the oracles in
``cga.groups`` (or from decoding a documented normal-form encoding), never
from the structures under test, and is computed before anything is timed.
Library functions are looked up on their modules at call time, so a traced
pass sees the wrappers that ``tracing.Tracer`` installs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import cga.formats as formats
import cga.gastructure as gastructure
import cga.groups as groups

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

BS_LETTERS = ("a", "a-", "t", "t-")
Z2_LETTERS = ("1.a", "1.a-", "2.a", "2.a-")
# a regen word carries exactly one of these: the first touch of the u or u-
# multiplier (about 1 s each in a cold process) dominates its cost
REGEN_NEW_LETTERS = ("u", "u-")


@dataclass
class Op:
    """One operation of a pass.

    ``run(tracer)`` performs it (``tracer`` is None when untraced) and
    returns its output; ``check(output)`` compares the output with the
    expected answer computed in set-up.
    """

    label: str
    run: Callable
    check: Callable
    known_exit: Optional[int] = None   # exit code of a recorded defect
    cleanup: Optional[Callable] = None
    child: bool = False  # output is (exit code, stdout, wall s, trace)


@dataclass
class Session:
    ops: list
    work_dir: Optional[Path] = None
    keep: list = field(default_factory=list)  # structures the ops use

    def close(self):
        self.keep.clear()
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)


def _render(word):
    return " ".join(word)


def _random_word(rng, letters, lengths):
    return tuple(rng.choice(letters) for _ in range(rng.randint(*lengths)))


def _inverse(word, inverse_of):
    return tuple(inverse_of(tok) for tok in reversed(word))


def _inverse_token(tok):
    """Inverse under the naming every workload generator set follows."""
    return tok[:-1] if tok.endswith("-") else tok + "-"


def _bs_params(expr):
    m, n = (int(v) for v in expr[3:].split(","))
    return m, n


# ---------------------------------------------------------------------------
# nf-bs


def intermediate_nf_lengths(word, m, n):
    """BS(m,n) normal-form length of every prefix of ``word``, from the
    oracle: bs_encode of the canonical pair of each prefix."""
    return [len(groups.bs_encode(groups.bs_canonicalize(word[:i], m, n), m, n))
            for i in range(len(word) + 1)]


def draw_nf_bs(seed):
    """The nf-bs pass as (group, word, nf_len) triples, in run order.

    Each group's words are a stratified sample of a seeded pool of natural
    words (uniform random length in the group's range, uniform letters)
    whose nf_len, the longest intermediate normal form, is at most the
    group's cap.  The pool is sorted by the summed length of the
    intermediate normal forms, which is the work of the one search per
    letter, and cut into ``count`` equal slices; the middle word of each is
    drawn.  So a pass holds the natural nf_len and work mixture, and its
    work hardly moves with the seed, as it would with ``count`` independent
    draws.  All of it is decided from the oracle before anything is timed;
    no word is dropped later."""
    spec = SPEC["nf-bs"]
    rng = random.Random(f"nf-bs:{seed}")
    items = []
    for group in spec["groups"]:
        m, n = _bs_params(group["group"])
        pool = []
        while len(pool) < spec["pool_factor"] * group["count"]:
            word = _random_word(rng, BS_LETTERS, group["lengths"])
            sizes = intermediate_nf_lengths(word, m, n)
            if max(sizes) <= group["nf_len_cap"]:
                pool.append((sum(sizes), word, max(sizes)))
        pool.sort()
        step = len(pool) // group["count"]
        for i in range(group["count"]):
            _, word, size = pool[i * step + step // 2]
            items.append((group["group"], word, size))
    ladder = spec["ladder"]
    m, n = _bs_params(ladder["group"])
    for power in ladder["powers"]:
        word = (ladder["generator"],) * power
        items.append((ladder["group"], word,
                      max(intermediate_nf_lengths(word, m, n))))
    rng.shuffle(items)
    return items


def _touch_multipliers(structure):
    """Fill the lazily built per-machine indexes (and family machines)."""
    for x in structure.generators.tokens():
        structure.step_normal_form(structure.mu, x)


def setup_nf_bs(items, work_dir):
    structures = {}
    for group in SPEC["nf-bs"]["groups"]:
        expr = group["group"]
        structures[expr] = groups.structure_from_expr(expr)
        _touch_multipliers(structures[expr])
    ops = []
    for i, (expr, word, size) in enumerate(items):
        m, n = _bs_params(expr)
        expected = groups.BSOracle(m, n).pair(word)
        structure = structures[expr]

        def run(tracer, structure=structure, word=word):
            return tuple(structure.normal_form(word))

        def check(nf, expected=expected, m=m, n=n):
            return groups.bs_decode(nf, m, n) == expected

        ops.append(Op(f"{i} {expr} nf_len={size} {_render(word)}", run, check))
    return Session(ops, keep=list(structures.values()))


# ---------------------------------------------------------------------------
# verify-ball


def oracle_ball(oracle, radius):
    """(words, elements) that a verify of the radius ball must report: all
    generator words up to the radius, (|S|^(r+1)-1)/(|S|-1) of them, and
    the distinct elements they spell, counted by the oracle alone."""
    gens = oracle.generators.tokens()
    frontier = [()]
    seen = {oracle.canonicalize(())}
    for _ in range(radius):
        frontier = [word + (x,) for word in frontier for x in gens]
        seen.update(oracle.canonicalize(word) for word in frontier)
    size = len(gens)
    return (size ** (radius + 1) - 1) // (size - 1), len(seen)


def verify_output(report):
    return (report.words_checked, report.elements,
            sorted((f.kind, f.witness) for f in report.failures))


def draw_verify_ball(seed):
    items = [(item["expr"], item["radius"]) for item in SPEC["verify-ball"]["set"]]
    random.Random(f"verify-ball:{seed}").shuffle(items)
    return items


def setup_verify_ball(items, work_dir):
    ops = []
    keep = []
    for expr, radius in items:
        structure = groups.structure_from_expr(expr)
        oracle = groups.oracle_from_expr(expr)
        _touch_multipliers(structure)
        ball = oracle_ball(oracle, radius)
        keep.append(structure)

        def run(tracer, structure=structure, radius=radius, oracle=oracle):
            return verify_output(gastructure.verify(structure, radius, oracle))

        def check(out, ball=ball):
            return out[2] == [] and (out[0], out[1]) == ball

        ops.append(Op(f"verify {expr} r={radius}", run, check))
    return Session(ops, keep=keep)


# ---------------------------------------------------------------------------
# cli-cold: decoding printed normal forms without the structures


def decode_nf(kind, tokens):
    """Generator word (or BS pair) named by a printed normal form, read off
    the documented encodings; only the oracle then compares it."""
    if kind[0] == "bs":
        return groups.bs_decode(tokens, kind[1], kind[2])
    if kind[0] == "finf":
        word = []
        for tok in tokens:
            if tok in ("p", "n"):
                word.append([tok, 0])
            elif tok == "1" and word:
                word[-1][1] += 1
            else:
                return None
        return tuple(f"x{i}" + ("" if sign == "p" else "-") for sign, i in word)
    if kind[0] == "free":
        return tuple(tok for tok in tokens if tok != "#")
    if kind[0] == "product":
        rows = ([], [])
        for tok in tokens:
            if not (tok.startswith("(") and tok.endswith(")") and "|" in tok):
                return None
            top, bottom = tok[1:-1].split("|")
            for row, part in zip(rows, (top, bottom)):
                if part != "_":
                    row.append(part)
        return tuple(rows[0] + rows[1])
    raise ValueError(f"no decoder for {kind}")


def _base_kind(expr):
    expr = expr.strip()
    if expr.startswith("regen("):
        return _base_kind(expr[6:].split(";", 1)[0])
    if expr.startswith("bs:"):
        return ("bs",) + _bs_params(expr)
    if expr.startswith("finf"):
        return ("finf",)
    if expr.startswith("free("):
        return ("free",)
    if expr.startswith("product("):
        return ("product",)
    raise ValueError(f"no normal-form decoder for {expr!r}")


def expected_nf(expr, oracle, word):
    """What a correct normal form of ``word`` must decode to."""
    kind = _base_kind(expr)
    base, expanded = oracle, tuple(word)
    if expr.startswith("regen("):
        base = oracle.base
        expanded = []
        for tok in word:
            if tok in oracle.assignments:
                expanded.extend(oracle.assignments[tok])
            else:
                expanded.extend(_inverse(oracle.assignments[tok[:-1]],
                                         base.inverse_of))
        expanded = tuple(expanded)
    if kind[0] == "bs":
        return base.pair(expanded)
    return base.canonicalize(expanded)


def _parse_porcelain(stdout, key):
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith(key + " "):
        return None
    value = lines[0][len(key) + 1:].split()
    return () if value == ["EPS"] else tuple(value)


def _nf_check(kind, expected):
    def check(out):
        rc, stdout = out[0], out[1]
        tokens = _parse_porcelain(stdout, "normal-form")
        if rc != 0 or tokens is None:
            return False
        try:
            return decode_nf(kind, tokens) == expected
        except groups.BSDecodeError:
            return False
    return check


def _verdict_check(key, verdict):
    line = f"{key} {'true' if verdict else 'false'}"

    def check(out):
        return out[0] == (0 if verdict else 1) and out[1].strip() == line
    return check


def _cli_argv(tracer, span_file, args):
    if tracer is None:
        return [sys.executable, "-m", "cga.cli", *args]
    return [sys.executable, str(HERE / "launcher.py"), str(span_file), *args]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, tracer, span_file, timeout):
    """(exit code, stdout, wall seconds, child trace or None)."""
    argv = _cli_argv(tracer, span_file, args)
    start = perf_counter()
    try:
        proc = subprocess.run(argv, env=_child_env(), cwd=str(ROOT),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timeout", perf_counter() - start, None
    wall = perf_counter() - start
    dump = None
    if tracer is not None and span_file.exists():
        dump = json.loads(span_file.read_text(encoding="utf-8"))
        span_file.unlink()
    return proc.returncode, proc.stdout, wall, dump


def _words_for(expr, rng, lengths, max_index=None):
    if expr.startswith("regen("):
        low, high = lengths
        word = list(_random_word(rng, BS_LETTERS, (low - 1, high - 1)))
        word.insert(rng.randint(0, len(word)), rng.choice(REGEN_NEW_LETTERS))
        return tuple(word)
    if expr.startswith("bs:"):
        return _random_word(rng, BS_LETTERS, lengths)
    if expr.startswith("finf"):
        letters = [f"x{i}{s}" for i in range(1, max_index + 1) for s in ("", "-")]
        return _random_word(rng, letters, lengths)
    return _random_word(rng, Z2_LETTERS, lengths)


def draw_cli_cold(seed):
    """The cli-cold pass as (class, kind, fields) entries in run order; the
    commands themselves are made in ``setup_cli_cold``."""
    spec = SPEC["cli-cold"]
    rng = random.Random(f"cli-cold:{seed}")
    items = []
    for cls in ("cheap", "cold"):
        for entry in spec[cls]:
            for _ in range(entry["count"]):
                fields = dict(entry)
                kind = entry["kind"]
                expr = entry.get("group") or entry.get("manifest")
                if kind == "verify":
                    fields["group"], fields["radius"] = rng.choice(entry["choices"])
                elif kind == "accept":
                    fields["value_word"] = _random_word(rng, BS_LETTERS, (0, 10))
                    fields["variant"] = rng.choice(("valid", "extra-hash",
                                                    "extra-run", "valid"))
                elif kind == "eq":
                    # half the pairs differ by an inserted x x^-1
                    w1 = _words_for(expr, rng, entry["lengths"],
                                    entry.get("max_index"))
                    if rng.random() < 0.5:
                        w2 = _words_for(expr, rng, entry["lengths"],
                                        entry.get("max_index"))
                    else:
                        cut = rng.randint(0, len(w1))
                        x = rng.choice(w1)
                        w2 = w1[:cut] + (x, _inverse_token(x)) + w1[cut:]
                    fields["words"] = (w1, w2)
                elif kind == "wp":
                    w = _words_for(expr, rng, entry["lengths"],
                                   entry.get("max_index"))
                    if entry.get("mirror") and rng.random() < 0.5:
                        w = w + tuple(_inverse_token(t) for t in reversed(w))
                    fields["words"] = (w,)
                elif kind != "build":
                    fields["words"] = (_words_for(expr, rng, entry["lengths"],
                                                  entry.get("max_index")),)
                items.append((cls, kind, fields))
    for defect in spec["known_defects"]:
        items.append(("defect", "known", dict(defect)))
    rng.shuffle(items)
    return items


def setup_cli_cold(items, work_dir):
    spec = SPEC["cli-cold"]
    timeout = spec["op_timeout_s"]
    work_dir.mkdir(parents=True, exist_ok=True)
    # compiles the byte code once, as an installed ga would have it
    subprocess.run([sys.executable, "-m", "cga.cli", "--help"],
                   env=_child_env(), cwd=str(ROOT), capture_output=True,
                   check=True, timeout=timeout)
    manifests = {}
    for i, expr in enumerate(spec["manifests"]):
        path = work_dir / f"manifest{i}"
        formats.write_structure(groups.structure_from_expr(expr), str(path))
        manifests[expr] = path

    oracles = {}

    def oracle(expr):
        if expr not in oracles:
            oracles[expr] = groups.oracle_from_expr(expr)
        return oracles[expr]

    ops = []
    for i, (cls, kind, f) in enumerate(items):
        expr = f.get("group") or f.get("manifest")
        known_exit = None
        cleanup = None
        if kind == "known":
            args = list(f["argv"])
            expr, word = args[2], tuple(args[3].split())
            known_exit = f["exit_code"]
            check = _nf_check(_base_kind(expr), expected_nf(expr, oracle(expr), word))
        elif kind in ("nf", "nf-enum", "nf-structure"):
            word = f["words"][0]
            ref = (["--structure", str(manifests[expr])] if kind == "nf-structure"
                   else ["--group", expr])
            args = ["nf", *ref, _render(word)]
            if kind == "nf-enum":
                args[1:1] = ["--algo", "enum"]
            check = _nf_check(_base_kind(expr), expected_nf(expr, oracle(expr), word))
        elif kind == "wp":
            word = f["words"][0]
            args = ["wp", "--group", expr, _render(word)]
            check = _verdict_check("trivial", oracle(expr).is_trivial(word))
        elif kind == "eq":
            w1, w2 = f["words"]
            args = ["eq", "--group", expr, _render(w1), _render(w2)]
            check = _verdict_check("equal", oracle(expr).equal(w1, w2))
        elif kind == "shortlex-nf":
            word = f["words"][0]
            orc = oracle(expr)
            args = ["shortlex-nf", "--oracle", expr, _render(word)]

            def check(out, word=word, orc=orc):
                got = _parse_porcelain(out[1], "normal-form")
                return (out[0] == 0 and got is not None
                        and len(got) <= len(word) and orc.equal(got, word))
        elif kind == "verify":
            radius = f["radius"]
            ball = oracle_ball(oracle(expr), radius)
            args = ["verify", "--group", expr, "--radius", str(radius)]
            expected = f"failures 0\nwords {ball[0]}\nelements {ball[1]}"

            def check(out, expected=expected):
                return out[0] == 0 and out[1].strip() == expected
        elif kind == "accept":
            m, n = _bs_params(expr)
            encoded = groups.bs_encode(groups.bs_canonicalize(f["value_word"], m, n), m, n)
            word = {"valid": encoded,
                    "extra-hash": encoded + ("#",),
                    "extra-run": encoded + ("1",)}[f["variant"]]
            try:
                verdict = groups.bs_encode(groups.bs_decode(word, m, n), m, n) == word
            except groups.BSDecodeError:
                verdict = False
            args = ["accept", str(manifests[expr] / "nf.aut"), _render(word)]
            check = _verdict_check("accepted", verdict)
        elif kind == "build":
            out_dir = work_dir / f"build{i}"
            args = ["build", expr, "--out", str(out_dir)]

            def check(out, out_dir=out_dir):
                return (out[0] == 0 and out[1].strip() == f"written {out_dir}"
                        and (out_dir / "structure.txt").is_file())

            def cleanup(out_dir=out_dir):
                shutil.rmtree(out_dir, ignore_errors=True)
        else:
            raise ValueError(f"unknown cli-cold kind {kind!r}")
        args.append("--porcelain")
        span_file = work_dir / f"spans{i}.json"

        def run(tracer, args=args, span_file=span_file):
            return run_child(args, tracer, span_file, timeout)

        ops.append(Op(f"{cls} ga {' '.join(args)}", run, check,
                      known_exit=known_exit,
                      cleanup=cleanup, child=True))
    return Session(ops, work_dir=work_dir)


# workload name -> (draw(seed) -> inputs, setup(inputs, work_dir) -> Session);
# drawing the inputs is not part of the timed set-up
WORKLOADS = {"nf-bs": (draw_nf_bs, setup_nf_bs),
             "verify-ball": (draw_verify_ball, setup_verify_ball),
             "cli-cold": (draw_cli_cold, setup_cli_cold)}
