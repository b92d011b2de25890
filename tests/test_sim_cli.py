"""Simulation traces, their serialization, and the command-line surface."""
import json
import pathlib
import subprocess
import sys

import pytest

from conftest import fixture_path
from test_explorer import DIVISION_BY_ZERO, SIGNED_ZERO

from abclang import cli, semantics, simulator
from abclang.explorer import explore
from abclang.cli import main
from abclang.parser import MAX_DEPTH, parse_spec
from abclang.pretty import pp_spec
from abclang.semantics import Run, system_steps
from abclang.simulator import json_to_value, simulate, trace_to_json, value_to_json
from abclang.terms import (
    Call, ComponentState, Env, Par, VFloat, VInt, VSet, VStr, VTuple, UNDEF, state_key,
)
from abclang.validate import load_spec

from _gen import rand_value
import random


IDLE_SENDER = """\
proc S = ("s")@(ff).S
proc X = ("x")@(tt).X
proc Y = (x = "x")(x).Y
component S { attrs { } interface { } run S }
component X { attrs { } interface { } run X }
component Y { attrs { } interface { } run Y }
"""


# A fired continuation or call body that is a `|` chain with `0`
# operands joins the component's chain without them, so each process
# ends as the process given with it, however many steps it takes.
CHAIN_CONTINUATIONS = {
    "K | 0": ('proc K = ("a")@(tt).(K | 0)\n'
              "component C { attrs { } interface { } run K }\n", Call("K")),
    "0 | (K | 0)": ('proc K = ("a")@(tt).(0 | (K | 0))\n'
                    "component C { attrs { } interface { } run K }\n", Call("K")),
    "0 | a.K": ('proc K = 0 | ("a")@(tt).K\nproc X = (x = "x")(x).X\n'
                "component C { attrs { } interface { } run X | K }\n", Par((Call("X"), Call("K")))),
}


def load(path):
    src = open(path).read()
    spec, diags = load_spec(src, path)
    assert spec is not None, [d.render(color=False) for d in diags]
    return spec, src


class TestSimulate:
    def test_unvalidated_unguarded_recursion_is_an_error_trace(self):
        src = "proc P = P + P\ncomponent C { attrs { } interface { } run P }\n"
        spec, _ = parse_spec(src)
        trace = simulate(spec, src, seed=0)
        assert trace.termination == "error" and trace.steps == []
        assert "unguarded recursion P -> P" in trace.error

    def test_unvalidated_undefined_process_is_an_error_trace(self):
        src = 'component C { attrs { } interface { } run ("m")@(tt).Nope }\n'
        spec, _ = parse_spec(src)
        trace = simulate(spec, src, seed=0)
        assert trace.termination == "error" and trace.steps == []
        assert "undefined process Nope" in trace.error

    def test_deterministic_given_seed(self):
        spec, src = load(fixture_path("travel-booking.abc"))
        names = spec.component_names()
        t1 = simulate(spec, src, 42, 200)
        t2 = simulate(spec, src, 42, 200)
        assert trace_to_json(t1, names) == trace_to_json(t2, names)

    def test_inert_spec_deadlocks_immediately(self):
        spec, src = load_spec("component C { attrs { } interface { } run 0 }"), None
        spec, diags = load_spec("component C { attrs { } interface { } run 0 }")
        assert not diags
        t = simulate(spec, "", 0)
        assert t.steps == [] and t.termination == "deadlock"

    def test_step_limit(self):
        src = (
            'proc L = ("tick")@(ff).L\n'
            "component C { attrs { } interface { } run L }"
        )
        spec, diags = load_spec(src)
        assert not diags
        t = simulate(spec, src, 0, max_steps=5)
        assert len(t.steps) == 5 and t.termination == "step-limit"

    def test_chain_continuations_do_not_grow(self):
        for name, (src, final) in CHAIN_CONTINUATIONS.items():
            spec, diags = load_spec(src)
            assert not diags
            t = simulate(spec, src, 0, max_steps=2000)
            assert len(t.steps) == 2000 and t.final_state[0].proc == final, name

    def test_10000_steps_of_a_chain_continuation(self):
        # were each step to nest one more `|`, ==, hash and repr of the
        # final state would run out of stack
        src, final = CHAIN_CONTINUATIONS["K | 0"]
        spec, _ = load_spec(src)
        t = simulate(spec, src, 0, max_steps=10000)
        state = (ComponentState("C", Env(), frozenset(), final),)
        assert len(t.steps) == 10000 and t.final_state == state
        assert hash(t.final_state) == hash(state)
        assert repr(t.final_state[0].proc) == "Call(name='K', closure=Subst(pairs=()))"

    def test_negative_step_limit_raises(self):
        # the CLI rejects it as a usage error; the library raises
        spec, src = load(fixture_path("ping.abc"))
        with pytest.raises(ValueError, match="max_steps"):
            simulate(spec, src, 0, max_steps=-1)

    def test_memo_matches_a_memo_less_reference(self, monkeypatch):
        # the reference runs every step with a fresh Run, so nothing is
        # carried from one state to the next
        specs = [load(fixture_path(name))
                 for name in ["ping.abc", "choice.abc", "fake3.abc", "travel-booking.abc"]]
        specs.append((load_spec(SIGNED_ZERO, "zero.abc")[0], SIGNED_ZERO))
        for spec, src in specs:
            names = spec.component_names()
            shared = [trace_to_json(simulate(spec, src, seed, 500), names) for seed in range(20)]
            with monkeypatch.context() as m:
                m.setattr(
                    simulator, "system_steps",
                    lambda state, run: system_steps(state, Run(run.defs, run.externs, run.needs)),
                )
                fresh = [trace_to_json(simulate(spec, src, seed, 500), names) for seed in range(20)]
            assert shared == fresh, names

    def test_memo_keeps_only_the_components_of_the_current_state(self, monkeypatch):
        seen = []

        def checked(state, run):
            live = {id(c) for c in state}
            assert set(run.records) <= live
            held = set()
            for memo in run.records.values():
                held.update(memo.judged)
                # a kept sender's candidates keep their labels' numbers
                for cand, n in memo.outs or ():
                    assert run.labels[cand.exposed_env, cand.sent_pred, cand.message] == n
                    held.add(n)
            # a label is kept exactly while a kept record holds it
            assert set(run.labels.values()) == held
            seen.append(len(run.records))
            return system_steps(state, run)

        monkeypatch.setattr(simulator, "system_steps", checked)
        spec, src = load(fixture_path("travel-booking.abc"))
        for seed in range(5):
            assert len(simulate(spec, src, seed, 200).steps) > 0
        # when X sends and Y receives, S's label is judged by no kept
        # record, while S, idle, still holds it as a candidate
        spec, diags = load_spec(IDLE_SENDER)
        assert spec is not None, diags
        for seed in range(5):
            assert len(simulate(spec, IDLE_SENDER, seed, 50).steps) == 50
        assert max(seen) > 0

    def test_memo_keeps_only_the_tables_of_the_current_state(self, monkeypatch):
        # after pruning, the run holds the tables of the components'
        # processes, no other, each keyed by the id of the term it holds
        seen = []

        def checked(state, run):
            assert set(run.tables) <= {id(c.proc) for c in state}
            assert all(id(table[0]) == i for i, table in run.tables.items())
            seen.append(len(run.tables))
            return system_steps(state, run)

        monkeypatch.setattr(simulator, "system_steps", checked)
        spec, src = load(fixture_path("travel-booking.abc"))
        for seed in range(5):
            assert len(simulate(spec, src, seed, 200).steps) > 0
        assert max(seen) > 0

    def test_memo_pruning_judges_nothing_twice(self, monkeypatch):
        # a simulation never returns to a component it left, so forgetting
        # those components costs no judgement
        judged = []
        real_in_step = semantics.in_step
        monkeypatch.setattr(semantics, "in_step", lambda *args: judged.append(1) or real_in_step(*args))
        pruning = Run.keep_only
        for spec, src in [load(fixture_path("travel-booking.abc")), (load_spec(IDLE_SENDER)[0], IDLE_SENDER)]:
            runs = []
            for keep_only in (pruning, lambda run, state: None):
                monkeypatch.setattr(Run, "keep_only", keep_only)
                judged.clear()
                traces = [trace_to_json(simulate(spec, src, seed, 200), spec.component_names()) for seed in range(5)]
                runs.append((traces, len(judged)))
            assert runs[0] == runs[1] and runs[0][1] > 0, spec.component_names()

    def test_explore_keeps_one_level_and_judges_nothing_twice(self, monkeypatch):
        # explore prunes the run to the components of the next level's
        # states; a component that moves is a new object, so no later
        # level asks for what was forgotten
        calls = []
        for name in ("in_step", "out_steps"):
            real = getattr(semantics, name)
            monkeypatch.setattr(semantics, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
        pruning, kept = Run.keep_only, []

        def checked(run, components):
            pruning(run, components)
            assert set(run.records) <= {id(c) for c in components}
            assert set(run.tables) <= {id(c.proc) for c in components}
            kept.append(len(run.tables))

        for spec, src in [load(fixture_path("travel-booking.abc")), (load_spec(IDLE_SENDER)[0], IDLE_SENDER)]:
            runs = []
            for keep_only in (checked, lambda run, components: None):
                monkeypatch.setattr(Run, "keep_only", keep_only)
                calls.clear()
                lts = explore(spec)
                runs.append((lts.export_text(), calls.count("in_step"), calls.count("out_steps")))
            assert runs[0] == runs[1] and runs[0][1] > 0, spec.component_names()
        assert max(kept) > 0 and kept[-1] == 0

    def test_signed_zero_echoes_what_was_received(self):
        spec, _ = load_spec(SIGNED_ZERO, "zero.abc")
        for seed in range(20):
            steps = [json.loads(line) for line in
                     trace_to_json(simulate(spec, SIGNED_ZERO, seed), spec.component_names()).splitlines()[1:]]
            # compared as text: -0.0 == 0.0
            received = [json.dumps(s["message"][1]) for s in steps
                        if any(r["component"] == "B" for r in s["receivers"])]
            echoed = [json.dumps(s["message"][1]) for s in steps if s["sender"] == "B"]
            assert received == echoed == ['["float", 0.0]'], seed

    def test_replay_validates(self):
        # every simulated step must be among the enabled successors
        spec, src = load(fixture_path("travel-booking.abc"))
        run = Run.of(spec.defs_map(), spec.externs_map())
        t = simulate(spec, src, 7, 60)
        state = spec.initial_state()
        for step in t.steps:
            succs = system_steps(state, run)
            matches = [
                s for ev, s in succs
                if ev.sender == step.event.sender and ev.message == step.event.message
                and ev.receivers == step.event.receivers
            ]
            assert matches
            state = matches[0]
        assert state_key(state) == state_key(t.final_state)


class TestTraceJson:
    def test_empty_trace_is_header_only(self):
        spec, diags = load_spec("component C { attrs { } interface { } run 0 }")
        t = simulate(spec, "", 0)
        lines = trace_to_json(t, spec.component_names()).strip().splitlines()
        assert len(lines) == 1
        head = json.loads(lines[0])
        assert head["steps"] == 0 and head["termination"] == "deadlock"

    def test_fake_output_step_fields(self):
        spec, src = load(fixture_path("fake3.abc"))
        t = simulate(spec, src, 0, 10)
        lines = trace_to_json(t, spec.component_names()).strip().splitlines()
        step = json.loads(lines[1])
        assert step["receivers"] == []
        assert sorted(step["discarded"]) == ["W1", "W2", "W3"]
        assert list(step.keys()) == [
            "step", "sender", "message", "predicate", "receivers", "discarded", "updates",
        ]

    def test_corpus_first_step_round_trips(self):
        spec, src = load(fixture_path("travel-booking.abc"))
        t = simulate(spec, src, 42, 3)
        lines = trace_to_json(t, spec.component_names()).strip().splitlines()
        for line in lines[1:]:
            obj = json.loads(line)
            assert json.loads(json.dumps(obj)) == obj

    def test_value_json_round_trip(self):
        rng = random.Random(9)
        for _ in range(300):
            v = rand_value(rng)
            assert json_to_value(value_to_json(v)) == v
        for v in [VInt(-3), VFloat(2.5), VStr("x"), UNDEF,
                  VTuple((VInt(1), VStr("a"))), VSet.of([VInt(1), VInt(2)])]:
            assert json_to_value(value_to_json(v)) == v


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def prefix_chain(n):
    return "component C { attrs { } interface { } run " + '("a")@(tt).' * n + "0 }\n"


# a 1,500-prefix chain under an input binder, so each receive substitutes
# into the whole chain
BINDER_CHAIN = (
    'component S { attrs { } interface { } run ("v")@(tt).0 }\n'
    "component C { attrs { } interface { } run (tt)(y)." + '("a", y)@(ff).' * 1500 + "0 }\n"
)


def operand_chain(op, n):
    """One component whose process is a chain of `n` outputs joined by `op`."""
    ops = f" {op} ".join(['("a")@(tt).0'] * n)
    return "component C { attrs { } interface { } run " + ops + " }\n"


def definition_chain(op, n):
    """A definition whose body is a chain of `n` outputs joined by `op`,
    and one component that calls it."""
    ops = f" {op} ".join(['("a")@(tt).0'] * n)
    return "proc P = " + ops + "\ncomponent C { attrs { } interface { } run P }\n"


def binder_chain(op, n):
    """A chain of `n` outputs joined by `op` under an input binder, so the
    receive substitutes into every operand."""
    ops = f" {op} ".join(['("a", y)@(tt).0'] * n)
    return (
        'component S { attrs { } interface { } run ("v")@(tt).0 }\n'
        "component C { attrs { } interface { } run (tt)(y).(" + ops + ") }\n"
    )


def nested_calls(n):
    """A component D whose process unfolds through `n` levels of unguarded
    calls, each level one `+` and one `|` deeper, with an input that no
    message matches and an output behind a false awareness guard, so D
    never moves; and a component S that sends for ever."""
    levels = "".join(
        f'proc D{i} = (x = "none")(x).0 + (<ff> ("d")@(tt).0 | D{i + 1})\n' for i in range(n)
    )
    return (
        levels + f'proc D{n} = 0\nproc S = ("m")@(tt).S\n'
        "component D { attrs { } interface { } run D0 }\n"
        "component S { attrs { } interface { } run S }\n"
    )


def nested_spec(**depths):
    """A spec with six constructs nested MAX_DEPTH levels deep, or as deep
    as `depths` says: a process in `proc` parentheses, a payload in `expr`
    parentheses, a payload summing `terms` names, and a target, a guard
    and an invariant each a `&&` chain of that tree depth.  The parser
    counts the parentheses; validate counts the nodes down each tree."""
    d = dict.fromkeys(("proc", "expr", "terms", "target", "guard", "invariant"), MAX_DEPTH)
    d.update(depths)
    return (
        "component P { attrs { } interface { } run "
        + "(" * d["proc"] + '("p")@(ff).0' + ")" * d["proc"] + " }\n"
        + 'component S { attrs { x = 1; } interface { x } run ("go", '
        + "(" * d["expr"] + "x" + ")" * d["expr"] + ", " + " + ".join(["x"] * d["terms"])
        # k compares joined by && make a tree k + 1 nodes deep
        + ")@(" + " && ".join(["x = 1"] * (d["target"] - 1)) + ").0 }\n"
        + "component R { attrs { x = 1; got = 0; } interface { x } run ("
        + " && ".join(["x = 1"] * (d["guard"] - 1)) + ")(m, a, b).[got := b] 0 }\n"
        + f"property delivered = reachable R.got = {d['terms']}\n"
        + "property steady = invariant " + " && ".join(["S.x = 1"] * d["invariant"]) + "\n"
    )


class TestCli:
    def run_cli(self, *args, **env):
        proc = subprocess.run(
            [sys.executable, "-m", "abclang.cli", *args],
            capture_output=True, text=True,
            env={"ABC_COLOR": "0", "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC),
                 "PYTHONDONTWRITEBYTECODE": "1", **env},
        )
        return proc

    def test_parse_ok_exit_0(self):
        assert main(["parse", fixture_path("ping.abc")]) == 0

    def test_a_printed_spec_loads_back_from_its_file(self, tmp_path):
        # pp_spec writes a carriage return in a string as itself
        src = 'component C { attrs { s = "a\rb"; } interface { s } run (s)@(s = "c\rd").0 }\n'
        spec, diags = load_spec(src)
        assert spec is not None and not diags
        path = tmp_path / "cr.abc"
        path.write_text(pp_spec(spec), encoding="utf-8", newline="")
        assert main(["parse", str(path)]) == 0
        assert cli._load(str(path))[0] == spec

    def test_a_crlf_file_loads_as_its_lf_text(self, tmp_path):
        # a backslash before a CRLF continues a string as before an LF
        src = 'proc P = ("a\\\nb")@(tt).0\ncomponent C { attrs { } interface { } run P }\n'
        spec, diags = load_spec(src)
        assert spec is not None and not diags
        path = tmp_path / "crlf.abc"
        path.write_text(src.replace("\n", "\r\n"), encoding="utf-8", newline="")
        assert cli._load(str(path))[0] == spec

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.abc"
        bad.write_text("component {")
        assert main(["parse", str(bad)]) == 2

    def test_validation_error_exit_2(self, tmp_path):
        bad = tmp_path / "dup.abc"
        bad.write_text("proc A = 0\nproc A = 0\n")
        assert main(["parse", str(bad)]) == 2

    def test_run_exit_0_and_output(self, capsys):
        assert main(["run", fixture_path("ping.abc"), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "termination: deadlock" in out

    def test_run_eval_error_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "err.abc"
        # the payload reads an attribute that does not exist
        bad.write_text(
            "component C { attrs { a = 1; } interface { } run (this.ghost)@(tt).0 }"
        )
        assert main(["run", str(bad)]) == 4

    def test_explore_and_check_eval_error_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "div.abc"
        bad.write_text(DIVISION_BY_ZERO + 'property went = reachable sent(C, "go")\n')
        for args in (["explore"], ["check", "--all"]):
            assert main([args[0], str(bad), *args[1:]]) == 4
            assert f"{bad}:2:11: division by zero" in capsys.readouterr().err

    def test_unguarded_recursion_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "loop.abc"
        bad.write_text("proc P = P + P\ncomponent C { attrs { } interface { } run P }\n")
        for args in (["run"], ["explore"], ["check", "--all"]):
            assert main([args[0], str(bad), *args[1:]]) == 2
            assert "E-UNGUARDED" in capsys.readouterr().err

    def test_non_ascii_digits_exit_2(self, tmp_path, capsys):
        for value, col in (("2\u00b2", 28), ("\u0663", 27)):
            bad = tmp_path / "digits.abc"
            bad.write_text(
                f"component C {{ attrs {{ x = {value}; }} interface {{ }} run 0 }}\n",
                encoding="utf-8",
            )
            assert main(["parse", str(bad)]) == 2
            err = capsys.readouterr().err
            assert f"{bad}:1:{col}: error[E-LEX]: unexpected character" in err

    def test_run_deep_prefix_chain_exit_0(self, tmp_path):
        for spec, summary in (
            (prefix_chain(400), "400 step(s), termination: deadlock"),
            (BINDER_CHAIN, "1000 step(s), termination: step-limit"),
        ):
            deep = tmp_path / "deep.abc"
            deep.write_text(spec)
            proc = self.run_cli("run", str(deep))
            assert proc.returncode == 0, proc.stderr
            assert summary in proc.stdout

    def test_explore_deep_prefix_chain_exit_0(self, tmp_path):
        for spec, summary in (
            (prefix_chain(400), "401 state(s), 400 transition(s) (complete)"),
            (prefix_chain(3000), "3001 state(s), 3000 transition(s) (complete)"),
            (BINDER_CHAIN, "1502 state(s), 1501 transition(s) (complete)"),
        ):
            deep = tmp_path / "deep.abc"
            deep.write_text(spec)
            proc = self.run_cli("explore", str(deep))
            assert proc.returncode == 0, proc.stderr
            assert summary in proc.stdout

    def test_run_wide_chains_exit_0(self, tmp_path):
        # each step of the | chain builds 1,500 successors of 1,500
        # operands, so one step shows that the walk costs no stack
        for spec, args, summary in (
            (operand_chain("|", 1500), ["--max-steps", "1"], "1 step(s), termination: step-limit"),
            (operand_chain("+", 1500), [], "1 step(s), termination: deadlock"),
        ):
            wide = tmp_path / "wide.abc"
            wide.write_text(spec)
            proc = self.run_cli("run", str(wide), *args)
            assert proc.returncode == 0, proc.stderr
            assert summary in proc.stdout

    def test_nested_call_levels_exit_0(self, tmp_path):
        # D's occurrence table is built through 1,200 levels of calls,
        # each one Par context deeper, without a level of stack each
        deep = tmp_path / "deep.abc"
        deep.write_text(nested_calls(1200))
        for args, summary in (
            (["run", "--max-steps", "2"], "2 step(s), termination: step-limit"),
            (["explore"], "1 state(s), 1 transition(s) (complete)"),
        ):
            proc = self.run_cli(args[0], str(deep), *args[1:])
            assert proc.returncode == 0, proc.stderr
            assert summary in proc.stdout

    def test_explore_wide_choice_exit_0(self, tmp_path):
        wide = tmp_path / "wide.abc"
        wide.write_text(operand_chain("+", 1500))
        proc = self.run_cli("explore", str(wide))
        assert proc.returncode == 0, proc.stderr
        assert "2 state(s), 1500 transition(s) (complete)" in proc.stdout

    def test_parse_deep_prefix_chain_exit_0(self, tmp_path):
        deep = tmp_path / "deep.abc"
        deep.write_text(
            "component C { attrs { } interface { } run " + '(tt)(v).("a", v)@(tt).' * 1500 + "0 }\n"
        )
        proc = self.run_cli("parse", str(deep))
        assert proc.returncode == 0, proc.stderr
        assert "ok (1 component(s)" in proc.stdout

    def test_long_chains_in_a_definition_exit_0(self, tmp_path):
        for spec, args, summary in (
            (definition_chain("+", 1500), ["explore"], "2 state(s), 1500 transition(s) (complete)"),
            (definition_chain("|", 1500), ["run", "--max-steps", "1"], "1 step(s), termination: step-limit"),
            (binder_chain("+", 1500), ["explore"], "3 state(s), 1501 transition(s) (complete)"),
            (binder_chain("|", 1500), ["run", "--max-steps", "2"], "2 step(s), termination: step-limit"),
        ):
            wide = tmp_path / "wide.abc"
            wide.write_text(spec)
            for cmd in (["parse"], args):
                proc = self.run_cli(cmd[0], str(wide), *cmd[1:])
                assert proc.returncode == 0, proc.stderr
            assert summary in proc.stdout

    def test_long_chains_in_a_definition_print_and_reparse(self):
        for op in "+|":
            spec, _ = parse_spec(definition_chain(op, 1500))
            printed = pp_spec(spec)
            assert printed.startswith("proc P = " + f" {op} ".join(['("a")@(tt).0'] * 1500) + "\n")
            assert parse_spec(printed)[0] == spec

    def test_nesting_at_the_bound_exit_0(self, tmp_path, capsys):
        deep = tmp_path / "deep.abc"
        deep.write_text(nested_spec())
        assert main(["check", str(deep), "--all"]) == 0
        assert "delivered: HOLDS" in capsys.readouterr().out
        for fmt in ("json", "text"):
            assert main(["run", str(deep), "--format", fmt]) == 0
            assert "deadlock" in capsys.readouterr().out
        spec, _ = parse_spec(nested_spec())
        printed = pp_spec(spec)
        again, diags = parse_spec(printed)
        assert again == spec and pp_spec(again) == printed, diags

    @pytest.mark.parametrize("construct", ["proc", "expr", "terms", "target", "guard", "invariant"])
    def test_nesting_beyond_the_bound_exit_2(self, tmp_path, capsys, construct):
        deep = tmp_path / "deep.abc"
        deep.write_text(nested_spec(**{construct: MAX_DEPTH + 1}))
        for args in (["parse"], ["run", "--format", "json"], ["check", "--all"]):
            assert main([args[0], str(deep), *args[1:]]) == 2
            err = capsys.readouterr().err
            assert err.count(f"error[E-DEPTH]: nested more than {MAX_DEPTH} levels deep") == 1, err
            assert err.count("\n") == 1

    def test_spec_not_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.abc"
        bad.write_bytes("component C { attrs { } interface { } run 0 } # caf\u00e9".encode("latin-1"))
        assert main(["parse", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1

    def test_export_lts_into_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.lts"
        assert main(["explore", fixture_path("ping.abc"), "--export-lts", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_export_lts_onto_directory_exit_2(self, tmp_path, capsys):
        assert main(["explore", fixture_path("ping.abc"), "--export-lts", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_explore_exit_0(self, capsys):
        assert main(["explore", fixture_path("choice.abc")]) == 0
        assert "3 state(s), 2 transition(s)" in capsys.readouterr().out

    def test_explore_truncated_exit_3(self, capsys):
        assert main(["explore", fixture_path("choice.abc"), "--max-states", "1"]) == 3

    def test_explore_export_lts(self, tmp_path, capsys):
        out = tmp_path / "out.lts"
        assert main(["explore", fixture_path("ping.abc"), "--export-lts", str(out)]) == 0
        text = out.read_text()
        assert "STATE 0 " in text and "TRANS 0 1 A ping" in text

    def test_check_holds_exit_0(self, capsys):
        assert main(["check", fixture_path("ping.abc"), "--all"]) == 0
        out = capsys.readouterr().out
        assert "delivered: HOLDS" in out

    def test_check_single_property(self, capsys):
        assert main(["check", fixture_path("ping.abc"), "--property", "delivered"]) == 0

    def test_check_unknown_property_exit_2(self, capsys):
        assert main(["check", fixture_path("ping.abc"), "--property", "nope"]) == 2

    def test_check_failing_property_exit_1(self, tmp_path, capsys):
        f = tmp_path / "fail.abc"
        f.write_text(
            'proc P = ("m")@(ff).0\n'
            "component A { attrs { } interface { } run P }\n"
            'property never = reachable sent(A, "zzz")\n'
        )
        assert main(["check", str(f), "--all"]) == 1
        assert "never: FAILS" in capsys.readouterr().out

    def test_check_truncated_exit_3(self, capsys):
        assert main(["check", fixture_path("choice.abc"), "--all", "--max-states", "1"]) == 3

    @pytest.mark.parametrize("args", [
        ["run", "--max-steps", "-1"],
        ["explore", "--max-states", "0"],
        ["explore", "--max-depth", "-1"],
        ["check", "--all", "--max-states", "0"],
        ["run", "--max-steps", "ten"],
    ])
    def test_out_of_range_limit_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as ei:
            main([args[0], fixture_path("ping.abc"), *args[1:]])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {args[-2]}:" in err and ("must be at least" in err or "invalid int value: 'ten'" in err)

    def test_smallest_limits_are_accepted(self, capsys):
        assert main(["run", fixture_path("ping.abc"), "--max-steps", "0"]) == 0
        assert "0 step(s), termination: step-limit" in capsys.readouterr().out
        assert main(["explore", fixture_path("ping.abc"), "--max-states", "1", "--max-depth", "0"]) == 3

    def test_numbers_compare_exactly_in_a_verdict(self, tmp_path, capsys):
        # 2**53 + 1 against 2**53: equal only when compared as doubles
        f = tmp_path / "exact.abc"
        f.write_text(
            "component C { attrs { x = 9007199254740993; } interface { x }"
            ' run <x = 9007199254740992>("a")@(tt).0 }\n'
            'property sends = reachable sent(C, "a")\n'
            "property same = invariant C.x = 9007199254740992\n"
        )
        assert main(["check", str(f), "--all"]) == 1
        out = capsys.readouterr().out
        assert "sends: FAILS" in out and "same: FAILS" in out

    def test_out_of_range_arithmetic_exit_4(self, tmp_path, capsys):
        # inf - inf was NaN, which the JSON trace wrote as a bare NaN
        f = tmp_path / "nan.abc"
        f.write_text('component C { attrs { x = 1e308; } interface { } run ("a", x * 10.0 - x * 10.0)@(tt).0 }\n')
        assert main(["run", str(f), "--format", "json"]) == 4
        lines = [json.loads(line, parse_constant=pytest.fail) for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["termination"] == "error" and "float result out of range" in lines[0]["error"]
        f.write_text(f'component C {{ attrs {{ x = {10**400}; }} interface {{ }} run ("a")@(tt).[x := x + 1.5] 0 }}\n')
        assert main(["run", str(f)]) == 4
        assert "+ overflows a float" in capsys.readouterr().out

    def test_a_lower_int_digit_limit_is_kept(self, tmp_path):
        # with PYTHONINTMAXSTRDIGITS=640, CPython turns no longer int into text
        f = tmp_path / "digits.abc"
        for digits, code in [(640, 0), (641, 2), (701, 2)]:
            f.write_text(f"component C {{ attrs {{ x = {10 ** (digits - 1)}; }} interface {{ }} run 0 }}\n")
            proc = self.run_cli("parse", str(f), PYTHONINTMAXSTRDIGITS="640")
            assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr
        assert "E-PARSE" in proc.stderr and "longer than 640 digits" in proc.stderr
        f.write_text(f'component C {{ attrs {{ x = {10 ** 600}; }} interface {{ }} run ("a", x * x)@(tt).0 }}\n')
        proc = self.run_cli("run", str(f), PYTHONINTMAXSTRDIGITS="640")
        assert proc.returncode == 4 and "Traceback" not in proc.stderr, proc.stderr
        assert "integer result longer than 640 digits" in proc.stdout

    def test_unset_this_attr_in_an_awareness_guard_exit_4(self, tmp_path, capsys):
        f = tmp_path / "aware.abc"
        f.write_text('component C { attrs { } interface { } run <this.gone = 1>("a")@(tt).0 }\n')
        for command in ("run", "explore"):
            assert main([command, str(f)]) == 4
            assert "attribute gone is not set" in "".join(capsys.readouterr())

    @pytest.mark.parametrize("guard, verdict", [
        ("!(this.gone = 1)", "FAILS"),  # an error on B's own state: B discards
        ("tt || this.gone = 1", "HOLDS"),  # this.gone is never read: B receives
    ])
    def test_unset_this_attr_in_a_receive_guard(self, tmp_path, capsys, guard, verdict):
        f = tmp_path / "receive.abc"
        f.write_text(
            'component A { attrs { } interface { } run ("m")@(tt).0 }\n'
            f'component B {{ attrs {{ }} interface {{ }} run ({guard})(x).("got")@(tt).0 }}\n'
            'property got = reachable sent(B, "got")\n'
        )
        assert main(["check", str(f), "--all"]) == (1 if verdict == "FAILS" else 0)
        assert f"got: {verdict}" in capsys.readouterr().out

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as ei:
            main(["explore", fixture_path("ping.abc"), "--bogus"])
        assert ei.value.code == 2

    def test_run_byte_identical_subprocess(self):
        outs = {
            self.run_cli("run", fixture_path("choice.abc"), "--seed", "3", "--format", "json").stdout
            for _ in range(3)
        }
        assert len(outs) == 1
