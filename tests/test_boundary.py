"""The one boundary between a spec and the engine.

`explore` and `simulate` run only a spec that `validate` accepts.  On a
spec that never went through `validate`, they run it once: `explore`
raises an `EvalError` with the message and span of its first error, and
`simulate` ends in an `error` trace with that error's text, before any
step.  A spec is walked by `validate` at most once, by `load_spec` or by
the first run, and keeps the verdict with it (`SystemSpec.diagnostics`).

The fuzz takes valid `rand_reducible_spec` specs and applies, for each
`validate` code, one mutation of the parsed spec that trips exactly that
code.
"""
import functools
import importlib
import random

import pytest

from _gen import rand_reducible_spec

from abclang import semantics
from abclang.evaluator import EvalError
from abclang.explorer import explore
from abclang.parser import MAX_DEPTH, parse_process_str, parse_spec
from abclang.simulator import simulate
from abclang.terms import Aware, ComponentDecl, EnumDomain, Par, Reachable, SCompare, SystemSpec, VInt
from abclang.validate import call_needs, load_spec, validate

# the package exports the function `validate` under the module's name
validate_module = importlib.import_module("abclang.validate")

DEEP_GUARD = parse_process_str("<" + " && ".join(["tt"] * (MAX_DEPTH + 1)) + "> 0").guard


def fresh(spec):
    """An equal spec that has been through neither `validate` nor a run."""
    return SystemSpec(spec.components, spec.proc_defs, spec.externs, spec.properties)


def with_first(spec, proc=None, interface=None):
    """`spec` with its first component's process or interface replaced."""
    c = spec.components[0]
    first = ComponentDecl(c.name, c.attrs, c.interface if interface is None else interface,
                          c.proc if proc is None else proc, span=c.span)
    return SystemSpec((first, *spec.components[1:]), spec.proc_defs, spec.externs, spec.properties)


def beside_first(spec, source):
    """`spec` with the process parsed from `source` in parallel with its
    first component's process."""
    return with_first(spec, proc=Par((spec.components[0].proc, parse_process_str(source))))


def with_fields(spec, defs=(), comps=(), externs=(), props=()):
    """`spec` with the definitions, components, externs and properties
    given appended to its own."""
    return SystemSpec(spec.components + comps, spec.proc_defs + defs,
                      spec.externs + externs, spec.properties + props)


# The generated specs declare the attributes n and k in every component
# and hold no extern, no property and no definition named Loop.
MUTATIONS = {
    "E-DUP-PROC": lambda s: with_fields(s, defs=s.proc_defs[-1:]),
    "E-DUP-COMP": lambda s: with_fields(s, comps=s.components[:1]),
    "E-EMPTY-DOMAIN": lambda s: with_fields(s, externs=(("pick", EnumDomain(())),)),
    "E-DEPTH": lambda s: with_first(s, proc=Aware(DEEP_GUARD, s.components[0].proc)),
    "E-UNDEF-PROC": lambda s: beside_first(s, "Nope"),
    "E-UNDEF-EXTERN": lambda s: beside_first(s, "(nofn())@(tt).0"),
    "E-UNGUARDED": lambda s: with_fields(s, defs=(("Loop", parse_process_str("Loop + 0")),)),
    "E-DUP-BINDER": lambda s: beside_first(s, "(tt)(x, x).0"),
    "E-BAD-INTERFACE": lambda s: with_first(s, interface=s.components[0].interface + ("nope",)),
    "E-SHADOW": lambda s: beside_first(s, "(tt)(n).0"),
    "E-UNBOUND": lambda s: beside_first(s, "(zz)@(tt).0"),
    "E-DUP-PROP": lambda s: with_fields(s, props=(("p", Reachable(SCompare("*", "n", (), "=", VInt(1)))),) * 2),
    "E-UNDEF-COMP": lambda s: with_fields(s, props=(("p", Reachable(SCompare("Nobody", "n", (), "=", VInt(1)))),)),
}


def assert_rejected(spec):
    """`explore` and `simulate` of fresh copies of `spec` end in its
    first `validate` error, and in nothing else."""
    first = next(d for d in validate(fresh(spec)) if d.severity == "error")
    with pytest.raises(EvalError) as ei:
        explore(fresh(spec))
    assert (ei.value.args[0], ei.value.span) == (first.message, first.span)
    trace = simulate(fresh(spec), "", seed=0)
    assert trace.termination == "error" and trace.steps == []
    assert trace.error == str(EvalError(first.message, first.span))
    return first


@functools.lru_cache(maxsize=None)
def generated():
    rng = random.Random(13)
    specs = [parse_spec(rand_reducible_spec(rng))[0] for _ in range(12)]
    assert all(validate(fresh(spec)) == [] for spec in specs)
    return specs


@pytest.mark.parametrize("code", MUTATIONS)
def test_every_validate_code_is_rejected_by_the_engine(code):
    for spec in generated():
        mutated = MUTATIONS[code](spec)
        assert [d.code for d in validate(fresh(mutated))] == [code]
        assert assert_rejected(mutated).code == code


def test_the_first_error_is_reported():
    # the step relation needs both gone; `validate` lists the empty
    # domain first, so the engine reports it, not the cycle
    spec, _ = parse_spec("proc P = P + P\ncomponent C { attrs { } interface { } run P }\n")
    spec = with_fields(spec, externs=(("pick", EnumDomain(())),))
    assert [d.code for d in validate(fresh(spec))] == ["E-EMPTY-DOMAIN", "E-UNGUARDED"]
    assert assert_rejected(spec).message == "extern pick has an empty domain"


@pytest.fixture
def walks(monkeypatch):
    """Counts `validate` walks, by `load_spec` and by `Run.of_spec`, and
    `call_needs` derivations."""
    counts = {"validate": 0, "call_needs": 0}

    def spy(spec):
        counts["validate"] += 1
        return validate(spec)

    def needs(defs):
        counts["call_needs"] += 1
        return call_needs(defs)

    monkeypatch.setattr(validate_module, "validate", spy)
    monkeypatch.setattr(semantics, "validate", spy)
    monkeypatch.setattr(semantics, "call_needs", needs)
    return counts


SRC = 'proc K = ("a")@(tt).(x = "a")(x).K\ncomponent C { attrs { } interface { } run K | K }\n'


def test_a_loaded_spec_is_validated_once(walks):
    spec, _ = load_spec(SRC)
    assert walks == {"validate": 1, "call_needs": 0}
    explore(spec)
    for seed in range(3):
        simulate(spec, SRC, seed, max_steps=5)
    assert walks == {"validate": 1, "call_needs": 1}


def test_a_parsed_spec_is_validated_by_its_first_run(walks):
    spec, _ = parse_spec(SRC)
    first, second = explore(spec), explore(spec)
    assert first.export_text() == second.export_text()
    assert walks == {"validate": 1, "call_needs": 1}
    assert spec.diagnostics == ()


def test_a_rejected_spec_raises_on_every_call(walks):
    src = 'component C { attrs { n = 0; } interface { n } run (tt)(n).0 }\n'
    spec, _ = parse_spec(src)
    for _ in range(2):
        with pytest.raises(EvalError, match="binders shadow declared attributes of C: n"):
            explore(spec)
        assert simulate(spec, src, seed=0).termination == "error"
    # one walk, whose verdict is kept, and nothing a run derives
    assert walks == {"validate": 1, "call_needs": 0}
    assert [d.code for d in spec.diagnostics] == ["E-SHADOW"] and spec.run_parts is None
