"""Command-line interface: golden outputs, exit codes, cache persistence."""

import inspect
import json
import shlex
import sys
from pathlib import Path

import pytest

from ktrans import groth_a
from ktrans.cli import main


def _depth() -> int:
    """The current recursion depth as the interpreter counts it: the limit
    less the calls that still fit.  Under a test runner it can exceed
    ``len(inspect.stack(0))``, as calls made through C code count too."""

    def probe(n):
        try:
            return probe(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - probe(1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_length(self, capsys):
        code, out = run(capsys, "length", "--type", "B", "--w", "-2,1")
        assert code == 0 and out.strip() == "2"

    def test_gq_example(self, capsys):
        code, out = run(capsys, "gq", "--shape", "[1]", "--N", "1", "--D", "2")
        assert code == 0 and out.strip() == "2*z1 + b*z1^2"

    def test_gp_skew(self, capsys):
        # the single skew cell sits off the diagonal, so primes are allowed
        code, out = run(
            capsys, "gp", "--shape", "[2]", "--inner", "[1]", "--N", "1", "--D", "2"
        )
        assert code == 0 and out.strip() == "2*z1 + b*z1^2"

    def test_expand_json_document(self, capsys):
        code, out = run(capsys, "expand", "--type", "B", "--w", "-3,4,-1,5,2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 7 and doc["basis"] == "GP"
        assert len(doc["terms"]) == 7
        coeffs = {tuple(t["lambda"]): t["coeff"] for t in doc["terms"]}
        assert coeffs[(4, 2, 1)] == 4

    def test_expand_text_stable(self, capsys):
        _, out1 = run(capsys, "expand", "--type", "C", "--w", "-3,4,-1,5,2")
        _, out2 = run(capsys, "expand", "--type", "C", "--w", "-3,4,-1,5,2")
        assert out1 == out2
        assert "lambda=[4, 2, 1] coeff=2 beta_power=0" in out1

    def test_skew_command(self, capsys):
        code, out = run(
            capsys, "skew", "--basis", "GP", "--outer", "[5,3,1]", "--inner", "[2]", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert {tuple(t["lambda"]): t["coeff"] for t in doc["terms"]}[(4, 2, 1)] == 4

    def test_fstanley(self, capsys):
        code, out = run(
            capsys, "fstanley", "--type", "C", "--w", "-1", "--N", "1", "--D", "2"
        )
        assert code == 0 and out.strip() == "2*z1 + b*z1^2"

    def test_groth_a_transition(self, capsys):
        code, out = run(capsys, "groth-a", "--w", "1,3,2", "--transition")
        assert code == 0
        assert "identity: verified" in out

    def test_kn_eval(self, capsys):
        code, out = run(
            capsys, "kn-eval", "--type", "B", "--w", "-1", "--N", "1", "--D", "2"
        )
        assert code == 0 and out.strip() == "z1"

    def test_kn_transition_residual_zero(self, capsys):
        code, out = run(
            capsys, "kn-transition", "--type", "C", "--w", "1,-2", "--N", "2", "--D", "3"
        )
        assert code == 0
        assert "residual at N=2 D=3: 0" in out

    def test_kn_transition_json_certificate(self, capsys):
        code, out = run(
            capsys,
            "kn-transition", "--type", "C", "--w", "1,-2", "--N", "2", "--D", "3",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == 1 and doc["v"] == [-2, 1] and doc["c"] == -2
        assert doc["residual"] == "0"
        assert {"w": [-2, 1], "coeff": "1"} in doc["terms"]

    def test_poly_commands_json(self, capsys):
        code, out = run(capsys, "gq", "--shape", "[1]", "--N", "1", "--D", "2", "--json")
        assert code == 0
        assert json.loads(out)["poly"] == "2*z1 + b*z1^2"
        code, out = run(
            capsys, "fstanley", "--type", "B", "--w", "-1", "--N", "2", "--D", "2", "--json"
        )
        assert code == 0
        assert json.loads(out)["poly"] == "z1 + z2 + b*z1*z2"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["length", "--w", "1,1"],
            ["length", "--type", "D", "--w", "-1"],
            ["gp", "--shape", "[2,2]"],
            ["fstanley", "--w", "x"],
            ["kn-transition", "--type", "D", "--w", "-2,-1,3"],
        ],
    )
    def test_domain_error_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_deep_one_output_chain_answers(self, capsys, monkeypatch):
        # the first step of 2,3,...,600,1 has two outputs, and each heads a
        # chain of one-output steps (1,199 keys in all) that the recursion
        # follows in a loop: it answers with the limit 200 frames past the
        # current depth
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        w = ",".join(map(str, [*range(2, 601), 1]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            code = main(["expand", "--type", "B", "--w", w])
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == "lambda=[599] coeff=2 beta_power=0\nlambda=[600] coeff=1 beta_power=1\n"

    @pytest.mark.parametrize("margin, code", [(9, 2), (40, 0)])
    def test_too_deep_nesting_is_usage_error(self, capsys, monkeypatch, margin, code):
        # steps with several outputs still recurse: the rank-8 B element
        # nests them 9 deep, so a limit 9 frames past the depth at which
        # the expansion starts is refused as a usage error, and 40 answers
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        expand = expand_mod.expand_grassmannian

        def lowered(t, w):
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(_depth() + margin)
            try:
                return expand(t, w)
            finally:
                sys.setrecursionlimit(limit)

        monkeypatch.setattr(expand_mod, "expand_grassmannian", lowered)
        w = "4,7,2,6,-8,1,-5,-3"
        assert main(["expand", "--type", "B", "--w", w, "--json"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and "Traceback" not in captured.err
            assert len(captured.err.splitlines()) == 1 and w in captured.err
            assert expand_mod._cache == {}
        else:
            assert captured.out == (GOLDEN / "expand-B-rank8.json").read_text(encoding="utf-8")
            assert captured.err == ""
        expand_mod._expansion.cache_clear()

    @pytest.mark.parametrize(
        "command, want",
        [
            (["fstanley", "--method", "compat"], "2*z1 + b*z1^2"),
            (["fstanley", "--method", "unimodal"], "2*z1 + b*z1^2"),
            (
                ["kn-eval"],
                "2*z1 + y1 + x1 + b*z1^2 + 2*b*y1*z1 + 2*b*x1*z1 + b*x1*y1"
                " + b^2*y1*z1^2 + b^2*x1*z1^2 + 2*b^2*x1*y1*z1 + b^3*x1*y1*z1^2",
            ),
            (["kn-transition"], "residual at N=1 D=2000: 0"),
        ],
        ids=["fstanley-compat", "fstanley-unimodal", "kn-eval", "kn-transition"],
    )
    def test_large_degree_bound_answers(self, capsys, command, want):
        # the walk over Hecke words goes no deeper than the longest valid
        # sequence, which for B 2,1 at N = 1 is two letters, whatever D is
        code = main([*command, "--type", "B", "--w", "2,1", "--N", "1", "--D", "2000"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.splitlines()[-1] == want

    @pytest.mark.parametrize("support", [50, 45], ids=["support-50", "support-45"])
    def test_term_cap_is_usage_error(self, capsys, support):
        # the pipe-dream tables of the transposition s_k hold 4^k terms, so
        # these are refused by groth_a.MAX_TERMS long before they finish
        w = ",".join(map(str, [*range(1, support - 1), support, support - 1]))
        code = main(["groth-a", "--w", w])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"ktrans groth-a: error: {w}: the pipe-dream tables would hold"
            f" more than {groth_a.MAX_TERMS} terms"
        ]

    @pytest.mark.parametrize(
        "w, terms", [("1,2,3,4,5,7,6", 4095), ("2,3,4,5,6,7,8,9,10,1", 2816)]
    )
    def test_cap_counts_terms_not_cells(self, capsys, w, terms):
        # s_6 crosses on 6 cells, the Coxeter element on all 45 of S_10:
        # both answer, each well under the cap
        code = main(["groth-a", "--w", w])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.count(" + ") == terms - 1
        assert " - " not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["gp", "--shape", "[1]", "--N", "0"],
            ["gp", "--shape", "[1]", "--D", "-3"],
            ["gq", "--shape", "[1]", "--N", "0"],
            ["verify-suite", "--jobs", "0"],
            ["verify-suite", "--jobs", "-3"],
        ],
    )
    def test_bad_numeric_argument_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fstanley", "--w", "2,1"],
            ["kn-eval", "--w", "2,1"],
            ["kn-transition", "--w", "2,1"],
            ["gp", "--shape", "1"],
            ["gq", "--shape", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("num_vars", ["1048576", "99999999"])
    def test_too_many_variables_is_usage_error(self, capsys, argv, num_vars):
        # a variable index of 2**20 would alias the next family's codes
        with pytest.raises(SystemExit) as err:
            main([*argv, "--N", num_vars, "--D", "1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"ktrans {argv[0]}: error: argument --N: must be at most 1048575"
        ]

    def test_largest_variable_count_answers(self, capsys):
        code, out = run(capsys, "gp", "--shape", "1", "--N", "1048575", "--D", "0")
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gp", "--shape", "3,,1"],
            ["gp", "--shape", "3,1,"],
            ["gp", "--shape", ",3"],
            ["gp", "--shape", "[[3]]"],
            ["gp", "--shape", "3,x"],
            ["gq", "--shape", "3", "--inner", "1,,"],
            ["skew", "--basis", "GP", "--outer", "3,1", "--inner", ","],
            ["skew", "--basis", "GQ", "--outer", "3,,1"],
        ],
        ids=" ".join,
    )
    def test_malformed_shape_is_usage_error(self, capsys, argv):
        # a shape is a comma list by the rule of windows: no empty part;
        # the malformed value is the last argument, so argv[-2] is its flag
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"ktrans {argv[0]}: error: argument {argv[-2]}: bad shape ")

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["gp", "--shape", "", "--N", "1", "--D", "1"], "1\n"),
            (["gq", "--shape", "[]", "--N", "1", "--D", "1"], "1\n"),
            (["gp", "--shape", "[2]", "--inner", "[]", "--N", "1", "--D", "2"], "z1^2\n"),
            (["skew", "--basis", "GP", "--outer", "3,1"], "lambda=[3, 1] coeff=1 beta_power=0\n"),
        ],
        ids=["gp-empty", "gq-brackets", "gp-inner-brackets", "skew-default-inner"],
    )
    def test_empty_shape_answers(self, capsys, monkeypatch, argv, want):
        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        assert run(capsys, *argv) == (0, want)


def _fresh_stdout(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter on this source tree,
    with no cache directory; it must exit 0."""
    import os
    import subprocess

    import ktrans

    env = {k: v for k, v in os.environ.items() if k != "KTRANS_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(ktrans.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestEngineImports:
    def test_engine_commands_load_no_oracle(self):
        # expand, skew and length run on expand, weyl and the shape half of
        # tableaux; the oracle layers load only in the commands that run them
        watched = ["ktrans.rings", "ktrans.hecke", "ktrans.kn", "ktrans.groth_a",
                   "dataclasses", "typing"]
        report = f"print(' '.join(m for m in {watched!r} if m in sys.modules))"
        commands = [
            ["expand", "--type", "B", "--w", "-3,4,-1,5,2", "--json"],
            ["skew", "--basis", "GQ", "--outer", "5,3,1", "--inner", "2"],
            ["length", "--type", "D", "--w", "-2,-1,3"],
        ]
        engine = (
            "import contextlib, io, sys\n"
            "import ktrans.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [ktrans.cli.main(argv) for argv in {commands!r}]\n"
            "assert codes == [0, 0, 0], codes\n" + report
        )
        bare = _fresh_stdout("import sys\n" + report)
        assert set(_fresh_stdout(engine).split()) <= set(bare.split())


class TestVerifySuite:
    def test_cold_battery_computes_each_fstanley_once(self, capsys, monkeypatch):
        # lru_cache keys a call that spells out the default method apart from
        # one that leaves it out, so a check that spells it out recomputes
        import functools
        import inspect

        from test_expand import _clear_memos

        from ktrans import hecke, kn

        _clear_memos()
        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        raw = hecke.fstanley.__wrapped__
        signature = inspect.signature(raw)
        computed = []

        def counting(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            computed.append(tuple(call.arguments.values()))
            return raw(*args, **kwargs)

        cached = functools.lru_cache(maxsize=None)(counting)
        # verify_expansion imports fstanley from hecke at each call
        for mod in (hecke, kn):
            monkeypatch.setattr(mod, "fstanley", cached)
        code, out = run(capsys, "verify-suite")
        assert code == 0 and "all 15 checks passed" in out
        assert len(set(computed)) == len(computed) == 188

    def test_seed_leaves_checks_unchanged(self, capsys, monkeypatch):
        from ktrans import cli

        def only_pi_braid(index):
            # the seeded check runs for real; the rest are stubbed out
            name, fn = cli.CHECKS[index]
            return (name, *fn()) if index == len(cli.CHECKS) - 1 else (name, True, "")

        monkeypatch.setattr(cli, "_run_check", only_pi_braid)
        code, out = run(capsys, "verify-suite", "--seed", "3")
        assert code == 0 and "all 15 checks passed" in out
        assert cli.CHECKS[-1][1] is cli._check_pi_braid

    # --jobs 1 is the form the benchmark passes
    @pytest.mark.parametrize("jobs", ["1"])
    def test_seed_keeps_a_check_added_after_pi_braid(self, capsys, monkeypatch, jobs):
        from ktrans import cli

        monkeypatch.setattr(cli, "CHECKS", cli.CHECKS + [("new-check", lambda: (False, "forced"))])
        code, out = run(
            capsys, "verify-suite", "--check", "pi-braid-relations", "--check", "new-check",
            "--seed", "3", "--jobs", jobs,
        )
        assert code == 1
        assert out.splitlines() == [
            "PASS  pi-braid-relations",
            "FAIL  new-check  (forced)",
            "  reproduce: ktrans verify-suite --check new-check --seed 3",
            "1 of 2 checks failed",
        ]
        assert cli.CHECKS[-1][0] == "new-check"
        assert dict(cli.CHECKS)["pi-braid-relations"] is cli._check_pi_braid

    # --jobs 1 is the form the benchmark passes
    @pytest.mark.parametrize("jobs", ["1"])
    def test_stats_times_each_check_run(self, capsys, monkeypatch, jobs):
        # stdout is the document without --stats; stderr is one JSON line
        # timing each check run, through a rebound _run_check too
        import time

        from ktrans import cli

        def slow_transition_step(index):
            name = cli.CHECKS[index][0]
            if name == "transition-step":
                time.sleep(0.05)
            return name, True, ""

        monkeypatch.setattr(cli, "_run_check", slow_transition_step)
        argv = ["verify-suite", "--jobs", jobs, "--check", "transition-step",
                "--check", "kn-oracle", "--check", "golden-expansion-B"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--stats"]) == 0
        timed = capsys.readouterr()
        assert timed.out == plain.out and plain.err == ""
        (line,) = timed.err.splitlines()
        stats = json.loads(line)
        assert list(stats) == ["golden-expansion-B", "transition-step", "kn-oracle"]
        assert stats["transition-step"] >= 0.05
        assert 0 <= stats["kn-oracle"] < 0.05 and 0 <= stats["golden-expansion-B"] < 0.05

    def test_benchmark_call_form_runs_every_check_in_order(self, capsys, monkeypatch):
        # the benchmark rebinds _run_check to a wrapper over the original and
        # passes --jobs 1; --jobs is accepted and ignored
        from ktrans import cli

        run_check = cli._run_check
        ran = []

        def recording(index):
            ran.append(index)
            return run_check(index)

        plain = run(capsys, "verify-suite", "--seed", "3")
        monkeypatch.setattr(cli, "_run_check", recording)
        code, out = run(capsys, "verify-suite", "--seed", "3", "--jobs", "1")
        assert code == 0 and out.endswith("all 15 checks passed\n")
        assert ran == list(range(len(cli.CHECKS))) and len(ran) == 15
        monkeypatch.setattr(cli, "_run_check", run_check)
        assert (code, out) == plain == run(capsys, "verify-suite", "--seed", "3", "--jobs", "2")

    def test_no_pool_is_started(self):
        _fresh_stdout(
            "import contextlib, io, sys\n"
            "import ktrans.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ktrans.cli.main(['verify-suite', '--jobs', '2', '--check', 'golden-expansion-B'])\n"
            "assert code == 0, code\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )

    def test_stats_names_every_check_of_the_battery(self, capsys):
        code, out = run(capsys, "verify-suite", "--seed", "3")
        assert main(["verify-suite", "--seed", "3", "--stats"]) == code == 0
        timed = capsys.readouterr()
        assert timed.out == out
        stats = json.loads(timed.err)
        from ktrans import cli

        assert list(stats) == [name for name, _ in cli.CHECKS]
        assert all(isinstance(s, float) and s >= 0 for s in stats.values())

    def test_check_runs_only_the_named_checks_in_order(self, capsys, monkeypatch):
        from ktrans import cli

        ran = []

        def record(index):
            ran.append(index)
            return cli.CHECKS[index][0], True, ""

        monkeypatch.setattr(cli, "_run_check", record)
        code, out = run(
            capsys, "verify-suite", "--check", "pi-braid-relations", "--check", "transition-step"
        )
        assert code == 0
        assert out == "PASS  transition-step\nPASS  pi-braid-relations\nall 2 checks passed\n"
        assert ran == [2, len(cli.CHECKS) - 1]

    def test_check_runs_for_real(self, capsys):
        code, out = run(capsys, "verify-suite", "--check", "golden-expansion-B")
        assert code == 0
        assert out == "PASS  golden-expansion-B\nall 1 checks passed\n"

    def test_unknown_check_is_usage_error(self, capsys):
        code = main(["verify-suite", "--check", "golden-expansion-B", "--check", "no-such-check"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "no-such-check" in captured.err

    @pytest.mark.parametrize(
        "argv, reproducer",
        [
            ([], "ktrans verify-suite --check transition-step"),
            (["--seed", "5"], "ktrans verify-suite --check transition-step --seed 5"),
            (["--check", "transition-step", "--seed", "5"], "ktrans verify-suite --check transition-step --seed 5"),
        ],
    )
    def test_failure_prints_a_reproducer(self, capsys, monkeypatch, argv, reproducer):
        from ktrans import cli

        def fail_transition_step(index):
            name = cli.CHECKS[index][0]
            return (name, False, "forced") if name == "transition-step" else (name, True, "")

        monkeypatch.setattr(cli, "_run_check", fail_transition_step)
        code, out = run(capsys, "verify-suite", *argv)
        assert code == 1
        lines = out.splitlines()
        at = lines.index("FAIL  transition-step  (forced)")
        assert lines[at + 1] == f"  reproduce: {reproducer}"
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == f"1 of {len(lines) - 2} checks failed"

    @pytest.mark.parametrize("half", ["transition", "Monk identity"])
    def test_merged_identity_checks_fail_on_either_half(self, monkeypatch, half):
        # type A and types B/C/D share one check, which must still run both loops
        from ktrans import cli, rings

        if half == "transition":
            monkeypatch.setattr(
                rings, "transition_residual", lambda *args: rings.YRational.const(1)
            )
        else:
            monkeypatch.setattr(rings, "monk_identity_holds", lambda *args: False)
        checks = dict(cli.CHECKS)
        for name, t in (("type-A-transitions", "A"), ("bcd-transitions", "B")):
            ok, detail = checks[name]()
            assert not ok and detail.startswith(f"{half} fails at ({t}, ")

    @pytest.mark.parametrize("t", "ABCD")
    def test_merged_identity_checks_run_every_type(self, monkeypatch, t):
        from ktrans import cli, rings

        # a Monk failure in type t fails the check that owns t, and only it
        holds = rings.monk_identity_holds
        monkeypatch.setattr(
            rings, "monk_identity_holds", lambda u_t, *args: u_t != t and holds(u_t, *args)
        )
        checks = dict(cli.CHECKS)
        assert checks["type-A-transitions"]()[0] == (t != "A")
        assert checks["bcd-transitions"]()[0] == (t == "A")


# every subcommand's options as (strings, default, choices, required, nargs)
SURFACE = {
    "length": [
        (("--w",), None, None, True, None),
        (("--type",), "B", ["A", "B", "C", "D"], False, None),
    ],
    "fstanley": [
        (("--w",), None, None, True, None),
        (("--type",), "B", ["B", "C", "D"], False, None),
        (("--N",), 3, None, False, None),
        (("--D",), 6, None, False, None),
        (("--json",), False, None, False, 0),
        (("--method",), "compat", ["compat", "unimodal"], False, None),
    ],
    **{
        name: [
            (("--shape",), None, None, True, None),
            (("--inner",), (), None, False, None),
            (("--N",), 3, None, False, None),
            (("--D",), 6, None, False, None),
            (("--json",), False, None, False, 0),
        ]
        for name in ("gp", "gq")
    },
    "expand": [
        (("--w",), None, None, True, None),
        (("--type",), "B", ["B", "C", "D"], False, None),
        (("--json",), False, None, False, 0),
        (("--stats",), False, None, False, 0),
    ],
    "skew": [
        (("--basis",), None, ["GP", "GQ"], True, None),
        (("--outer",), None, None, True, None),
        (("--inner",), (), None, False, None),
        (("--json",), False, None, False, 0),
        (("--stats",), False, None, False, 0),
    ],
    "groth-a": [
        (("--w",), None, None, True, None),
        (("--transition",), False, None, False, 0),
    ],
    **{
        name: [
            (("--w",), None, None, True, None),
            (("--type",), "B", ["B", "C", "D"], False, None),
            (("--N",), 3, None, False, None),
            (("--D",), 6, None, False, None),
            (("--json",), False, None, False, 0),
        ]
        for name in ("kn-eval", "kn-transition")
    },
    "verify-suite": [
        (("--jobs",), 1, None, False, None),
        (("--seed",), None, None, False, None),
        (("--check",), None, None, False, None),
        (("--stats",), False, None, False, 0),
    ],
}


class TestSurface:
    def test_every_option_is_pinned(self):
        import argparse

        from ktrans.cli import build_parser

        [sub] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        got = {
            name: [
                (tuple(a.option_strings), a.default, a.choices and list(a.choices),
                 a.required, a.nargs)
                for a in p._actions if not isinstance(a, argparse._HelpAction)
            ]
            for name, p in sub.choices.items()
        }
        assert got == SURFACE
        assert list(got) == list(SURFACE)


class TestCache:
    def test_env_var_persists_expansions(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        code, out1 = run(capsys, "expand", "--type", "B", "--w", "2,1", "--json")
        assert code == 0
        assert (tmp_path / "expansions.ktrx").exists()

        from ktrans import expand as expand_mod

        expand_mod._cache.clear()
        code, out2 = run(capsys, "expand", "--type", "B", "--w", "2,1", "--json")
        assert code == 0 and out1 == out2

    def test_truncated_cache_is_ignored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        (tmp_path / "expansions.ktrx").write_bytes(b"KTRX\x01\x00")
        code = main(["expand", "--type", "B", "--w", "2,1", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: ignoring cache" in captured.err
        assert {(1,): 2, (2,): 1} == {
            tuple(t["lambda"]): t["coeff"] for t in json.loads(captured.out)["terms"]
        }

    def test_nonpositive_cached_coefficient_is_ignored(self, capsys, tmp_path, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        run(capsys, "expand", "--type", "B", "--w", "2,1")
        key = ("B", (2, 1))
        expand_mod._cache[key] = {u: -3 for u in expand_mod._cache[key]}
        expand_mod.save_cache(str(tmp_path / "expansions.ktrx"))
        expand_mod._cache.clear()
        code = main(["expand", "--type", "B", "--w", "2,1", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: ignoring cache" in captured.err
        assert {(1,): 2, (2,): 1} == {
            tuple(t["lambda"]): t["coeff"] for t in json.loads(captured.out)["terms"]
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--type", "B", "--w=-3,4,-1,5,2", "--json"],
            ["skew", "--basis", "GQ", "--outer", "6,4,2", "--inner", "3,1"],
        ],
        ids=["expand", "skew"],
    )
    def test_warm_run_leaves_the_file_untouched(self, capsys, tmp_path, monkeypatch, argv):
        from ktrans import expand as expand_mod

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        path = tmp_path / "expansions.ktrx"
        monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
        code, cold = run(capsys, *argv)
        assert code == 0
        written, data = path.stat(), path.read_bytes()
        monkeypatch.setattr(expand_mod, "_cache", {})
        code, warm = run(capsys, *argv)
        assert code == 0 and warm == cold
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
        assert path.read_bytes() == data
        # a cold key is still written, next to the loaded one
        monkeypatch.setattr(expand_mod, "_cache", {})
        run(capsys, "expand", "--type", "B", "--w", "2,1")
        assert path.stat().st_ino != written.st_ino
        expand_mod._cache.clear()
        assert expand_mod.load_cache(str(path)) == 2

    def test_corrupt_file_is_replaced_by_a_cold_run(self, capsys, tmp_path, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
        path = tmp_path / "expansions.ktrx"
        path.write_bytes(MALFORMED["values-empty"])
        code = main(["expand", "--type", "B", "--w", "2,1", "--json"])
        assert code == 0
        assert capsys.readouterr().err.startswith("warning: ignoring cache")
        expand_mod._cache.clear()
        assert expand_mod.load_cache(str(path)) == 1
        assert list(expand_mod._cache) == [("B", (2, 1))]

    def test_version_2_file_is_replaced_without_a_warning(self, capsys, tmp_path, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
        path = tmp_path / "expansions.ktrx"
        path.write_bytes(_V2_B21)
        code = main(["expand", "--type", "B", "--w", "2,1", "--json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert {(1,): 2, (2,): 1} == {
            tuple(t["lambda"]): t["coeff"] for t in json.loads(captured.out)["terms"]
        }
        assert json.loads(path.read_bytes()) == {
            "version": 3, "entries": [["B", [2, 1], [[[1], 2], [[2], 1]]]]
        }

    def test_overlapping_commands_keep_both_keys(self, capsys, tmp_path, monkeypatch):
        from ktrans import expand as expand_mod
        from ktrans.weyl import parse_oneline

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
        path = tmp_path / "expansions.ktrx"
        expand = expand_mod.expand_grassmannian

        def racing(t, w):
            # a second command, with a memo of its own, saves B 1,3,2 after
            # this one loaded the file and before it saves
            mine = expand_mod._cache
            monkeypatch.setattr(expand_mod, "_cache", {})
            expand("B", parse_oneline("1,3,2"))
            expand_mod.save_cache(str(path))
            monkeypatch.setattr(expand_mod, "_cache", mine)
            return expand(t, w)

        monkeypatch.setattr(expand_mod, "expand_grassmannian", racing)
        code, _ = run(capsys, "expand", "--type", "B", "--w", "3,1,2")
        assert code == 0
        expand_mod._cache.clear()
        assert expand_mod.load_cache(str(path)) == 2
        assert set(expand_mod._cache) == {("B", (1, 3, 2)), ("B", (3, 1, 2))}

    def test_cold_run_loads_the_file_once(self, capsys, tmp_path, monkeypatch):
        # the file is unchanged when the command saves, so it is not read again
        from ktrans import expand as expand_mod

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
        run(capsys, "expand", "--type", "B", "--w", "2,1")
        monkeypatch.setattr(expand_mod, "_cache", {})
        load = expand_mod.load_cache
        paths = []

        def counted(path):
            paths.append(path)
            return load(path)

        monkeypatch.setattr(expand_mod, "load_cache", counted)
        code, _ = run(capsys, "expand", "--type", "B", "--w", "3,1,2")
        assert code == 0
        assert paths == [str(tmp_path / "expansions.ktrx")]
        expand_mod._cache.clear()
        assert load(paths[0]) == 2

    def test_file_replaced_after_the_load_is_merged(self, capsys, tmp_path, monkeypatch):
        # the file held B 2,1 when loaded; a second command replaced it with
        # one holding B 2,1 and 1,3,2 before this one saves
        from ktrans import expand as expand_mod
        from ktrans.weyl import parse_oneline

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
        run(capsys, "expand", "--type", "B", "--w", "2,1")
        path = tmp_path / "expansions.ktrx"
        monkeypatch.setattr(expand_mod, "_cache", {})
        expand = expand_mod.expand_grassmannian
        loads = []
        load = expand_mod.load_cache

        def counted(path):
            loads.append(path)
            return load(path)

        def racing(t, w):
            mine = expand_mod._cache
            monkeypatch.setattr(expand_mod, "_cache", {})
            load(str(path))
            expand("B", parse_oneline("1,3,2"))
            expand_mod.save_cache(str(path))
            monkeypatch.setattr(expand_mod, "_cache", mine)
            return expand(t, w)

        monkeypatch.setattr(expand_mod, "load_cache", counted)
        monkeypatch.setattr(expand_mod, "expand_grassmannian", racing)
        code, _ = run(capsys, "expand", "--type", "B", "--w", "3,1,2")
        assert code == 0 and len(loads) == 2
        expand_mod._cache.clear()
        assert load(str(path)) == 3
        assert set(expand_mod._cache) == {("B", (2, 1)), ("B", (1, 3, 2)), ("B", (3, 1, 2))}

    def test_concurrent_processes_keep_every_key(self, tmp_path):
        import os
        import subprocess
        import sys

        import ktrans
        from ktrans import expand as expand_mod

        # more commands than cores, all cold, each adding its own key
        windows = ["2,1", "3,1,2", "1,3,2", "-2,1", "2,-1", "-1,3,2"]
        src = str(Path(ktrans.__file__).parents[1])
        env = {**os.environ, "KTRANS_CACHE_DIR": str(tmp_path), "PYTHONPATH": src}
        argv = [sys.executable, "-m", "ktrans.cli", "expand", "--type", "B", "--w"]
        procs = [subprocess.Popen([*argv, w], env=env, stdout=subprocess.DEVNULL) for w in windows]
        try:
            codes = [p.wait(timeout=60) for p in procs]
        finally:
            for p in procs:
                p.kill()
        assert codes == [0] * len(windows)
        saved = dict(expand_mod._cache)
        try:
            expand_mod._cache.clear()
            assert expand_mod.load_cache(str(tmp_path / "expansions.ktrx")) == len(windows)
        finally:
            expand_mod._cache.clear()
            expand_mod._cache.update(saved)

    def test_unwritable_cache_dir_still_answers(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("KTRANS_CACHE_DIR", str(blocker))
        code = main(["expand", "--type", "B", "--w", "2,1", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.startswith("warning: cannot write cache")
        assert len(captured.err.splitlines()) == 1
        assert {(1,): 2, (2,): 1} == {
            tuple(t["lambda"]): t["coeff"] for t in json.loads(captured.out)["terms"]
        }


# a well-formed record precedes each defect, so a partial merge would show
_GOOD = ["B", [-1], [[[1], 1]]]


def _v3(*records, entries=None) -> bytes:
    entries = [_GOOD, *records] if entries is None else entries
    return json.dumps({"version": 3, "entries": entries}).encode()


MALFORMED = {
    "entries-an-object": _v3(entries={}),
    "entries-a-string": _v3(entries=""),
    "record-too-short": _v3(["B", [2, 1]]),
    "record-too-long": _v3(["B", [2, 1], [], []]),
    "values-not-a-list": _v3(["B", [2, 1], {}]),
    "key-window-not-a-list": _v3(["B", "", [[[1], 1]]]),
    "key-window-repeats": _v3(["B", [2, 2], [[[1], 1]]]),
    "value-shape-not-a-list": _v3(["B", [2, 1], [["", 1]]]),
    "value-part-repeats": _v3(["B", [2, 1], [[[2, 2], 1]]]),
    "value-parts-increase": _v3(["B", [2, 1], [[[1, 2], 1]]]),
    "value-part-bool": _v3(["B", [2, 1], [[[True], 1]]]),
    "value-part-float": _v3(["B", [2, 1], [[[2.0], 1]]]),
    "value-part-zero": _v3(["B", [2, 1], [[[1, 0], 1]]]),
    # support(2,1) + LD(2,1) = 2 + 1 bounds lambda_1
    "value-part-above-bound": _v3(["B", [2, 1], [[[4], 1]]]),
    "key-repeats": _v3(["B", [2, 1], [[[1], 2], [[2], 1]]], ["B", [2, 1, 3], [[[1], 9]]]),
    "value-repeats": _v3(["B", [2, 1], [[[1], 1], [[2], 1], [[1], 5]]]),
    "window-of-booleans": _v3(["B", [True, -2], [[[2], 1]]]),
    "pair-too-long": _v3(["B", [2, 1], [[[1], 1, 1]]]),
    "group-type-A": _v3(["A", [2, 1], [[[1], 1]]]),
    "group-type-Z": _v3(["Z", [2, 1], [[[1], 1]]]),
    "coeff-string": _v3(["B", [2, 1], [[[1], "1"]]]),
    "coeff-float": _v3(["B", [2, 1], [[[1], 1.0]]]),
    "coeff-true": _v3(["B", [2, 1], [[[1], True]]]),
    "coeff-zero": _v3(["B", [2, 1], [[[1], 0]]]),
    "key-outside-type-D": _v3(["D", [-1, 2], [[[1], 1]]]),
    "lambda-below-key-length": _v3(["B", [2, 1], [[[], 1]]]),
    "values-empty": _v3(["B", [2, 1], []]),
    # the shape of B -2,1 is (2,)
    "grassmannian-key-not-itself": _v3(["B", [-2, 1], [[[2, 1], 1]]]),
    "grassmannian-key-coeff-two": _v3(["B", [-2, 1], [[[2], 2]]]),
    "grassmannian-key-and-more": _v3(["B", [-2, 1], [[[2], 1], [[2, 1], 1]]]),
    "not-an-object": b"[2, []]",
    "no-entries": b'{"version": 3}',
    "deeply-nested": b'{"version": 3, "entries": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "not-utf8": b'{"version": 3, "entries": ["\xff"]}',
    "v1-binary": b"KTRX\x01\x00\x00\x00\x09B\x02\x04\x01\x01\x01\x01\x02",
}

# the version 2 layout named each term by its Grassmannian window: B 2,1
# is 2 GP_(1) + beta GP_(2), with (1,) the shape of -1 and (2,) that of -2,1
_V2_B21 = b'{"version":2,"entries":[["B",[2,1],[[[-2,1],1],[[-1],2]]]]}'


class TestMalformedCache:
    @pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejected_whole_and_recomputed(self, capsys, tmp_path, monkeypatch, data):
        from ktrans import expand as expand_mod

        path = tmp_path / "expansions.ktrx"
        path.write_bytes(data)
        expand_mod._cache.clear()
        with pytest.raises(ValueError):
            expand_mod.load_cache(str(path))
        assert expand_mod._cache == {}

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        code = main(["expand", "--type", "B", "--w", "2,1", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.startswith("warning: ignoring cache")
        assert len(captured.err.splitlines()) == 1
        assert {(1,): 2, (2,): 1} == {
            tuple(t["lambda"]): t["coeff"] for t in json.loads(captured.out)["terms"]
        }

    def test_deep_nesting_is_a_recursion_error(self, tmp_path):
        from ktrans import expand as expand_mod

        path = tmp_path / "expansions.ktrx"
        path.write_bytes(MALFORMED["deeply-nested"])
        with pytest.raises(ValueError) as err:
            expand_mod.load_cache(str(path))
        assert isinstance(err.value.__cause__, RecursionError)

    def test_other_version_is_ignored(self, tmp_path):
        from ktrans import expand as expand_mod

        path = tmp_path / "expansions.ktrx"
        path.write_bytes(_V2_B21)
        expand_mod._cache.clear()
        assert expand_mod.load_cache(str(path)) == 0
        assert expand_mod._cache == {}


GOLDEN = Path(__file__).parent / "golden"
# each file holds the stdout of one command, as the console script prints it
GOLDEN_COMMANDS = {
    "expand-B-golden.json": ["expand", "--type", "B", "--w=-3,4,-1,5,2", "--json"],
    "expand-C-golden.json": ["expand", "--type", "C", "--w=-3,4,-1,5,2", "--json"],
    "expand-D-golden.json": ["expand", "--type", "D", "--w=-3,4,-1,5,2", "--json"],
    "expand-D-rank8.json": ["expand", "--type", "D", "--w=-6,5,-2,7,8,1,3,4", "--json"],
    "expand-B-rank8.json": ["expand", "--type", "B", "--w=4,7,2,6,-8,1,-5,-3", "--json"],
    "expand-C-rank9.json": ["expand", "--type", "C", "--w=-3,-4,2,1,9,-8,-7,6,5", "--json"],
    **{
        f"skew-{basis}-{name}.json": [
            "skew", "--basis", basis, "--outer", outer, "--inner", inner, "--json"
        ]
        for basis in ("GP", "GQ")
        for name, outer, inner in (
            ("642-2", "6,4,2", "2"),
            ("7531-2", "7,5,3,1", "2"),
            ("642-31", "6,4,2", "3,1"),
        )
    },
    # the operator calculus: transition certificates and their residuals
    "kn-transition-B-rank3.json": [
        "kn-transition", "--type", "B", "--w=2,-3,1", "--N", "2", "--D", "4", "--json"
    ],
    "kn-transition-B-rank3.txt": [
        "kn-transition", "--type", "B", "--w=2,-3,1", "--N", "2", "--D", "4"
    ],
    "kn-transition-D-rank2.json": [
        "kn-transition", "--type", "D", "--w=-1,-2", "--N", "2", "--D", "4", "--json"
    ],
    "groth-a-2413-transition.txt": ["groth-a", "--w", "2,4,1,3", "--transition"],
    # the K-Stanley oracle on the golden element
    "fstanley-B-golden.txt": [
        "fstanley", "--type", "B", "--w=-3,4,-1,5,2", "--N", "3", "--D", "8"
    ],
    # the tableau oracle: a skew GQ, a GP with a three-row term at N = 4,
    # and a GP whose exponents pass 255
    "gq-531-2.json": ["gq", "--shape", "5,3,1", "--inner", "2", "--N", "3", "--D", "9", "--json"],
    "gp-421.json": ["gp", "--shape", "4,2,1", "--N", "4", "--D", "9", "--json"],
    "gp-260.txt": ["gp", "--shape", "260", "--N", "2", "--D", "261"],
    # the triple-sum oracle: sigma and tau range over S_4, in both families
    "kn-eval-B-rank4.json": [
        "kn-eval", "--type", "B", "--w=3,-1,4,2", "--N", "2", "--D", "5", "--json"
    ],
    "kn-eval-C-rank4.json": [
        "kn-eval", "--type", "C", "--w=3,-1,4,2", "--N", "2", "--D", "6", "--json"
    ],
    "kn-eval-D-rank4.json": [
        "kn-eval", "--type", "D", "--w=3,-1,4,-2", "--N", "2", "--D", "6", "--json"
    ],
    # support 5, the widest element bcd-transitions evaluates: sigma, tau in S_5
    "kn-eval-D-rank5.json": [
        "kn-eval", "--type", "D", "--w=-5,-1,2,3,4", "--N", "3", "--D", "6", "--json"
    ],
}


# the examples of README's "Command line" block, each as the argv after "ktrans"
_README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in _README.split("## Command line", 1)[1].split("```")[1].splitlines()
    if line.startswith("ktrans ")
]


class TestReadme:
    def test_block_has_examples(self):
        assert len(README_COMMANDS) >= 10

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
    def test_example_runs(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0 and out


class TestGolden:
    @pytest.mark.parametrize("name", GOLDEN_COMMANDS)
    def test_json_is_byte_identical(self, capsys, monkeypatch, name):
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        code, out = run(capsys, *GOLDEN_COMMANDS[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestStats:
    """--stats writes one JSON line on stderr and leaves stdout as it was."""

    @pytest.mark.parametrize(
        "name", ["expand-D-rank8.json", "expand-C-golden.json", "skew-GQ-642-31.json"]
    )
    def test_stdout_is_golden_and_stderr_one_json_line(self, capsys, monkeypatch, name):
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        assert main([*GOLDEN_COMMANDS[name], "--stats"]) == 0
        cold = capsys.readouterr()
        assert cold.out == (GOLDEN / name).read_text(encoding="utf-8")
        (line,) = cold.err.splitlines()
        stats = json.loads(line)
        assert set(stats) == {
            "expansion_hits", "expansion_misses", "root_cached", "cache_loaded", "cache_ignored"
        }
        assert stats["expansion_misses"] > 0 and stats["root_cached"] is False
        assert main([*GOLDEN_COMMANDS[name], "--stats"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert json.loads(warm.err) == {
            "expansion_hits": 0, "expansion_misses": 0, "root_cached": True,
            "cache_loaded": 0, "cache_ignored": False,
        }
        expand_mod._expansion.cache_clear()

    def test_counts_match_the_steps(self, capsys, monkeypatch):
        # each key is a miss once: the 25 stepped keys of the C golden element
        # and the Grassmannian leaves; every output of a step is one call
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        outputs = []
        step = expand_mod._step

        def recording_step(t, u, a):
            outputs.append(step(t, u, a))
            return outputs[-1]

        monkeypatch.setattr(expand_mod, "_step", recording_step)
        assert main(["expand", "--type", "C", "--w=-3,4,-1,5,2", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err)
        leaves = {u for out in outputs for u, d, _ in out if not d}
        assert len(outputs) == 25
        assert stats["expansion_misses"] == 25 + len(leaves)
        assert stats["expansion_hits"] + stats["expansion_misses"] == 1 + sum(map(len, outputs))
        expand_mod._expansion.cache_clear()

    @pytest.mark.parametrize(
        "name, hits, misses",
        [
            ("expand-B-golden.json", 8, 32),
            ("expand-C-golden.json", 8, 32),
            ("expand-D-rank8.json", 291, 631),
        ],
    )
    def test_cold_counts_are_pinned(self, capsys, monkeypatch, name, hits, misses):
        # the loop over one-output chains counts each key it looks up, as
        # the recursion through an lru_cache did
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        assert main([*GOLDEN_COMMANDS[name], "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err)
        assert (stats["expansion_hits"], stats["expansion_misses"]) == (hits, misses)
        assert expand_mod._expansion.cache_info().currsize == misses
        expand_mod._expansion.cache_clear()

    def test_cache_counts(self, capsys, tmp_path, monkeypatch):
        # a missing file loads nothing, a warm run loads what the file
        # holds, and a malformed file is ignored and loads nothing
        from ktrans import expand as expand_mod

        monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
        argv = ["expand", "--type", "B", "--w", "2,1", "--stats"]
        seen = []
        for data in (None, None, MALFORMED["value-part-float"], None):
            if data is not None:
                (tmp_path / "expansions.ktrx").write_bytes(data)
            monkeypatch.setattr(expand_mod, "_cache", {})  # a fresh process
            assert main(argv) == 0
            stats = json.loads(capsys.readouterr().err.splitlines()[-1])
            seen.append((stats["cache_loaded"], stats["cache_ignored"], stats["root_cached"]))
        assert seen == [(0, False, False), (1, False, True), (0, True, False), (1, False, True)]

    def test_without_stats_stderr_is_empty(self, capsys, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.delenv("KTRANS_CACHE_DIR", raising=False)
        monkeypatch.setattr(expand_mod, "_cache", {})
        assert main(GOLDEN_COMMANDS["expand-D-rank8.json"]) == 0
        assert capsys.readouterr().err == ""
