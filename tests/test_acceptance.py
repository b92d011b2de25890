"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with `pytest -s`
to see them); a failure reads as the criterion number plus the pytest
diagnostics.
"""
import random
import subprocess
import sys
import time

from conftest import fixture_path

from _gen import (
    ATTR_NAMES,
    rand_component,
    rand_env,
    rand_message,
    rand_pred,
    rand_proc,
    rand_subst,
    rand_value,
    reshuffle,
)
from test_explorer import oracle_leads_to, rand_lts

from abclang.evaluator import EvalError, close
from abclang.explorer import check_leads_to, explore
from abclang.parser import parse_spec
from abclang.pretty import pp_spec
from abclang.semantics import Run, in_step, system_steps
from abclang.terms import (
    ComponentDecl,
    EnumDomain,
    Inact,
    Invariant,
    LeadsTo,
    Literal,
    Reachable,
    Received,
    SCompare,
    Sent,
    Subst,
    SystemSpec,
    TableFn,
    VInt,
    VStr,
    ser_proc,
    state_key,
)
from abclang.validate import load_spec


CORPUS = fixture_path("travel-booking.abc")


def cli(*args, timeout=330):
    return subprocess.run(
        [sys.executable, "-m", "abclang.cli", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def load(path_or_src, is_path=True):
    src = open(path_or_src).read() if is_path else path_or_src
    spec, diags = load_spec(src)
    assert spec is not None, [d.render(color=False) for d in diags]
    return spec


def test_criterion_1_scenario_verification():
    """check --all over the travel-booking corpus: every property HOLDS,
    within the state and time budget, exit code 0."""
    started = time.monotonic()
    proc = cli("check", CORPUS, "--all", "--max-states", "1000000")
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if ": " in l and not l.startswith(" ")]
    verdicts = dict(l.split(": ", 1) for l in lines)
    core_properties = [
        "inquiry_finishes_c1", "inquiry_finishes_c2",
        "booking_answered_c1", "booking_answered_c2",
        "toolate_retries_c1", "toolate_retries_c2",
        "commission_paid_c1", "commission_paid_c2",
    ]
    for name in core_properties:
        assert verdicts[name].startswith("HOLDS"), (name, verdicts[name])
    assert all(v.startswith("HOLDS") for v in verdicts.values())
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 1: PASS — corpus check --all, {len(verdicts)} properties HOLD, "
        f"exit 0, {elapsed:.0f}s"
    )


FAKE_TEMPLATE = """
proc SND = <flag = false> ()@(ff).[flag := true] 0
proc IDLE = 0
component S {{ attrs {{ flag = false; }} interface {{ }} run SND }}
{bystanders}
"""


def test_criterion_2_micro_system_oracles():
    """Hand-enumerated LTS sizes for the three micro-systems."""
    sizes = {}
    for name, want in [("ping.abc", (2, 1)), ("choice.abc", (3, 2))]:
        lts = explore(load(fixture_path(name)))
        got = (len(lts.states), len(lts.transitions))
        assert got == want and not lts.truncated, (name, got)
        sizes[name] = got
    for k in (1, 3, 5):
        bystanders = "\n".join(
            f"component W{i} {{ attrs {{ n = {i}; }} interface {{ }} run IDLE }}"
            for i in range(k)
        )
        spec = load(FAKE_TEMPLATE.format(bystanders=bystanders), is_path=False)
        lts = explore(spec)
        got = (len(lts.states), len(lts.transitions))
        assert got == (2, 1), (k, got)
        sizes[f"fake k={k}"] = got
    print(f"\nACCEPTANCE 2: PASS — micro-system LTS sizes {sizes}")


def test_criterion_3_exclusivity_and_partition_fuzz():
    """>= 10^4 random (component, message, predicate) triples: inStep is
    exactly Receive xor Discard; every BroadcastEvent partitions the
    component indices."""
    rng = random.Random(31337)
    run = Run.of({"K1": Inact(), "K2": Inact()}, {})
    in_checked = 0
    while in_checked < 10_000:
        c = rand_component(rng)
        env, subst = rand_env(rng), rand_subst(rng)
        try:
            pred = close(rand_pred(rng, env, subst), env, subst)
        except EvalError:
            continue
        try:
            res = in_step(c, rand_env(rng), pred, rand_message(rng), run)
        except Exception:
            continue  # genuine update-evaluation errors are out of scope here
        assert res.is_receive == bool(res.successors)
        in_checked += 1

    events = 0
    while events < 2_000:
        comps = tuple(rand_component(rng, f"C{i}") for i in range(rng.randrange(2, 5)))
        try:
            steps = system_steps(comps, run)
        except Exception:
            continue
        for ev, succ in steps:
            idx = set(range(len(comps)))
            recv = {i for i, _ in ev.receivers}
            assert recv | ev.discarded | {ev.sender} == idx
            assert not (recv & ev.discarded)
            assert ev.sender not in recv and ev.sender not in ev.discarded
            for i in ev.discarded:
                assert state_key((succ[i],)) == state_key((comps[i],))
            events += 1
    print(
        f"\nACCEPTANCE 3: PASS — {in_checked} inStep triples exclusive/total, "
        f"{events} events partition cleanly"
    )


def test_criterion_4_algebraic_properties():
    """>= 10^3 instances each: close idempotent, close/substitute
    commute (substitution is closing with no speaker environment),
    canonical text invariant under reshuffled `|`/`+` chains and `| 0`,
    restriction identities."""
    rng = random.Random(99)

    n = 0
    while n < 1_000:
        env, subst = rand_env(rng), rand_subst(rng)
        p = rand_pred(rng, env, subst)
        try:
            c = close(p, env, subst)
        except EvalError:
            continue
        assert close(c, env, subst) == c
        n += 1

    m = 0
    while m < 1_000:
        env, subst = rand_env(rng), rand_subst(rng)
        p = rand_pred(rng, env, subst)
        try:
            lhs = close(close(p, None, subst), env, Subst())
            rhs = close(p, env, subst)
        except EvalError:
            continue
        assert lhs == rhs
        m += 1

    for _ in range(1_000):
        env, subst = rand_env(rng), rand_subst(rng)
        t = rand_proc(rng, env, subst, depth=4)
        assert ser_proc(reshuffle(rng, t)) == ser_proc(t)

    for _ in range(1_000):
        env = rand_env(rng)
        names = {k[0] for k, _ in env.entries}
        assert env.restricted(set()).entries == ()
        assert env.restricted(names) == env
        sub = {x for x in names if rng.random() < 0.5}
        r = env.restricted(sub)
        assert {k[0] for k, _ in r.entries} == sub & names
        assert set(r.entries) <= set(env.entries)
    print("\nACCEPTANCE 4: PASS — 4 algebraic laws x 1000 instances, zero violations")


def mini_corpus(corpus_spec):
    """A reduced scenario (one customer, two hotels): fast to explore,
    while still interleaving several components."""
    keep = {"Cust1", "Broker1", "Hotel1", "Hotel2"}
    externs = tuple(
        (n, TableFn.of({(VStr("rome"),): VInt(2)}) if n == "get_hotels" else e)
        for n, e in corpus_spec.externs
    )
    return SystemSpec(
        components=tuple(c for c in corpus_spec.components if c.name in keep),
        proc_defs=corpus_spec.proc_defs,
        externs=externs,
        properties=(),
    )


def test_criterion_5_determinism_and_order_independence(corpus_spec):
    """run is byte-identical across 5 repetitions; explore gives the same
    LTS on repeated runs."""
    outs = set()
    for _ in range(5):
        p = cli("run", CORPUS, "--seed", "42", "--max-steps", "200", "--format", "json")
        assert p.returncode == 0
        outs.add(p.stdout)
    assert len(outs) == 1

    specs = [mini_corpus(corpus_spec)]
    specs += [load(fixture_path(f)) for f in ["ping.abc", "choice.abc", "fake3.abc"]]
    counts = []
    for spec in specs:
        a = explore(spec)
        b = explore(spec)
        assert (len(a.states), len(a.transitions)) == (len(b.states), len(b.transitions))
        assert a.export_text() == b.export_text()
        counts.append((len(a.states), len(a.transitions)))
    print(
        f"\nACCEPTANCE 5: PASS — 5 identical run outputs; repeated explores agree "
        f"on {counts}"
    )


# --- fuzz spec generation for criterion 6 ----------------------------


def rand_spec_ast(rng: random.Random) -> SystemSpec:
    env = rand_env(rng)  # name pool for expressions
    externs = []
    if rng.random() < 0.7:
        externs.append(("dom", EnumDomain.of([rand_value(rng, 1) for _ in range(1, 4)])))
    if rng.random() < 0.7:
        externs.append(
            ("tab", TableFn.of({(VStr("rome"),): rand_value(rng, 1), (VStr("x"),): VInt(1)}))
        )
    no_vars = Subst()
    defs = tuple(
        (k, rand_proc(rng, env, no_vars, depth=rng.randrange(1, 4)))
        for k in ["K1", "K2"]
    )
    comps = []
    for i in range(rng.randrange(1, 4)):
        attrs = {}
        for name in rng.sample(ATTR_NAMES, rng.randrange(1, 4)):
            if rng.random() < 0.3:
                attrs[(name, (rand_value(rng, 1),))] = rand_value(rng)
            else:
                attrs[(name, ())] = rand_value(rng)
        names = sorted({k[0] for k in attrs})
        iface = tuple(n for n in names if rng.random() < 0.5)
        comps.append(
            ComponentDecl(
                f"C{i}",
                tuple(sorted(attrs.items(), key=lambda kv: str(kv[0]))),
                iface,
                rand_proc(rng, env, no_vars, depth=2),
            )
        )
    props = []
    for j in range(rng.randrange(3)):
        r = rng.random()
        ev = (Sent if rng.random() < 0.5 else Received)(
            rng.choice(["C0", "*"]), rng.choice(["m", "acms"])
        )
        if r < 0.4:
            props.append((f"p{j}", Reachable(ev)))
        elif r < 0.7:
            props.append(
                (f"p{j}", Invariant(SCompare("C0", "cnt", (), "<=", VInt(10))))
            )
        else:
            goals = tuple(
                Received("*", rng.choice(["a", "b"])) for _ in range(rng.randrange(1, 3))
            )
            props.append((f"p{j}", LeadsTo(ev, goals)))
    return SystemSpec(tuple(comps), defs, tuple(externs), tuple(props))


def test_criterion_6_parser_round_trip():
    """parse . prettyPrint . parse = parse on the corpus and 100 fuzz specs."""
    sources = [open(fixture_path(f)).read() for f in
               ["travel-booking.abc", "ping.abc", "fake3.abc", "choice.abc"]]
    rng = random.Random(606)
    sources += [pp_spec(rand_spec_ast(rng)) for _ in range(100)]
    for i, src in enumerate(sources):
        spec1, d1 = parse_spec(src, f"fuzz{i}")
        assert spec1 is not None, (i, [x.render(color=False) for x in d1], src)
        spec2, d2 = parse_spec(pp_spec(spec1), f"fuzz{i}-pp")
        assert spec2 is not None, (i, [x.render(color=False) for x in d2], pp_spec(spec1))
        assert spec1 == spec2, (i, src)
    print(f"\nACCEPTANCE 6: PASS — round-trip on 4 fixtures + 100 fuzz specs")


def test_criterion_7_leads_to_vs_brute_force():
    """checkLeadsTo agrees with the simple-path/cycle enumerator on 50
    random LTSs of <= 10^3 states."""
    rng = random.Random(70707)
    agreements = {"holds": 0, "fails": 0}
    for _ in range(50):
        lts = rand_lts(rng, max_nodes=40)
        assert len(lts.states) <= 1000
        prop = LeadsTo(Sent("P", "t"), (Received("Q", "g"),))
        got = check_leads_to("x", prop, lts).status
        want = "holds" if oracle_leads_to(lts, "t", {"g"}) else "fails"
        assert got == want
        agreements[got] += 1
    assert agreements["holds"] and agreements["fails"], agreements
    print(f"\nACCEPTANCE 7: PASS — 50/50 oracle agreements ({agreements})")
