"""Byte-identity of every user-visible output on the fixtures.

Each digest below is the SHA-256 of one output: the printed spec, the
exported LTS, the verdicts of all declared properties, and the JSON and
text traces of seeds 0-4, for each of the four fixtures; and the
rendered diagnostics of a few broken specs.  A change that means to
keep outputs the same must leave every digest as it is.  To see which
output moved, print `_outputs(name)` before and after the change, or
run this file as a script (`PYTHONPATH=src python tests/test_golden.py`):
it prints every current digest and marks those that differ from the
pinned ones.
"""
import hashlib

import pytest

from conftest import fixture_path

from abclang.explorer import check_property, explore
from abclang.pretty import pp_spec
from abclang.simulator import simulate, trace_to_json, trace_to_text
from abclang.validate import load_spec

SEEDS = range(5)


def _outputs(name):
    source = open(fixture_path(name), encoding="utf-8").read()
    spec, diags = load_spec(source, name)
    assert spec is not None and not diags
    names = spec.component_names()
    lts = explore(spec)
    verdicts = []
    for prop_name, prop in spec.properties:
        v = check_property(prop_name, prop, lts)
        verdicts += [f"{v.name} {v.status} {v.detail}", *v.witness]
    traces = [simulate(spec, source, seed) for seed in SEEDS]
    return {
        "pp_spec": pp_spec(spec),
        "export_text": lts.export_text(),
        "verdicts": "\n".join(verdicts),
        "trace_to_json": "".join(trace_to_json(t, names) for t in traces),
        "trace_to_text": "".join(trace_to_text(t, names) for t in traces),
    }


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    'choice.abc': {
        'pp_spec': 'cfb8babcb1c226969a0b8b0656750b3891d1d1eb5350219650ed478c01585da4',
        'export_text': '7d844d8d7f672d30f4d76e3b2eb5d73bbab8e768ebedf1c671bda55d4238687a',
        'verdicts': '934b94e20f80a697085af7c07260e6c10eda3d2564e01ecc03c08895fa2930ce',
        'trace_to_json': '9e14e6ce9da3127993662b3b7588f11f881fb2681c7973eda6d8ce740e7e4710',
        'trace_to_text': '9f83136c616c0dcde7caa61883be05766974efae5ef6dcb3f123436be94aed8c',
    },
    'fake3.abc': {
        'pp_spec': '1a78982bf62395a104e13e3f769439d1d1e9d4d4219a0aa174d3349c20e6c5b1',
        'export_text': '81755e7a85ee89c3ebc9b5830a41ac0d917624b5269d7f84e90b9f1264de110e',
        'verdicts': '792dc2b50fe3f389a55a5ee62ba6d6321136bd077035616eb42a55c5f906e21d',
        'trace_to_json': '612e181196fc04ef9b71ec5465e57fffd7d80fdf2d5f7f5e017addafb74bad9a',
        'trace_to_text': '082e4009e936770608388e23d2aaaced14bf23d5845ed60721aff4a234d29930',
    },
    'ping.abc': {
        'pp_spec': '2c533a5fb3c6626336aacca817394f2c39c2444d92f7c6130ca21e1850836633',
        'export_text': '1b39aaf379717c1f097a9380bcba35ddaab1c61576ba1959ceb668d20aa19386',
        'verdicts': 'a747436f3cdb81587459cb79d9fcb8b1faece025ab1af44526a7cffac1d6de9c',
        'trace_to_json': '53bc58dc41260ef26af4a64bba0a3521d68a0be8e3baffd974e795c08e3f19fb',
        'trace_to_text': '0f0d5127d3d59acd8b076e40f1bf76a9d38dbc48773b5cf42612fa46c38f34b1',
    },
    'travel-booking.abc': {
        'pp_spec': 'dc7fc9effd6dbac33f501683ae4d8a6773c381893260e8ae9c296561549670b1',
        'export_text': '14324fdbcca7aaff7da2708eb3fa9fb7ede27ce649fe0a9507482dfce4559f95',
        'verdicts': 'f64c77b25b90cb7f13527cb1132cd5adb3823e9928518154ab9d005097ce4b44',
        'trace_to_json': 'd0ae2ea1d6f1c1b61cd014d89698616b88c6e0344dad008e797c4a26c3e06f9f',
        'trace_to_text': '8dd32f493a9ef93f7531dec89885e3cf863dbe988e64a49579b7a111fadae435',
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_outputs_are_unchanged(name):
    assert {k: _digest(v) for k, v in _outputs(name).items()} == GOLDEN[name]


BROKEN = {
    "lex": "component C { attrs { x = 1 $ } interface { } run 0 }\n",
    "parse": 'component C { attrs { } interface { } run ("a")@(tt) 0 }\n',
    "undefined": (
        "proc P = (tt)(x).Q\n"
        "component C { attrs { a = 1; } interface { a, b } run (f(a))@(tt).P }\n"
    ),
    "shadow-unbound": (
        "proc P = (tt)(a).(a, z)@(tt).P\n"
        "component C { attrs { a = 1; } interface { a } run P }\n"
        "component C { attrs { } interface { } run (tt)(x, x).0 }\n"
    ),
    "unguarded": "proc P = <tt> (Q | 0)\nproc Q = P + P\nproc R = 0\nproc R = 0\n",
    "properties": (
        'component C { attrs { a = 1; } interface { } run ("m")@(tt).0 }\n'
        "property p = invariant !(X.a = 1 || *.a[2] >= 0) && (tt || Y.b = 2)\n"
        'property p = sent(Z, "m") leadsto (received(C, "m") || sent(W, "m"))\n'
        "property q = reachable V.a = 1\n"
        'property r = reachable received(U, "m")\n'
    ),
}


DIAGNOSTICS = {
    'lex': '3b47a9cc174ce6b2ab33b77f798d085cc26863536f0e713b6fa400f6430adb39',
    'parse': 'f4ffd45cedfea3e693d624e4ca39cd5692fa91ffe2e9b5fb8375abb60bd5f585',
    'properties': '2a6d418d0269a1e86f63f7bb440567f027a871847d80453d0f0c027b0a788176',
    'shadow-unbound': 'c890e311187e4656609ded91920beff17d93a9af03b2bffc68cd4879e0a01eab',
    'undefined': 'edce5898f03be7176894c98625d1dc2545681a2dfa1d3a1cf72f21b1ab9a662e',
    'unguarded': 'd0d2211e0ae8e5393bc442ab17ab07ba50558c9c845dea05c0671c23d6a0357d',
}


def _diagnostics(name):
    spec, diags = load_spec(BROKEN[name], f"{name}.abc")
    assert spec is None
    return "\n".join(d.render(color=False) for d in diags)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_diagnostics_are_unchanged(name):
    assert _digest(_diagnostics(name)) == DIAGNOSTICS[name]


def _show(label, digest, pinned):
    print(f"{label} {digest}" + ("" if digest == pinned else "  # moved"))


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        for key, text in _outputs(name).items():
            _show(f"{name} {key}", _digest(text), GOLDEN[name][key])
    for name in sorted(BROKEN):
        _show(f"{name} diagnostics", _digest(_diagnostics(name)), DIAGNOSTICS[name])
