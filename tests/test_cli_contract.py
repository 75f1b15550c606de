"""The CLI contract over arbitrary small configs: every subcommand writes one
strict-JSON record and exits 0 (success), 1 (validation) or 2 (numerical)."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapinterp import cli

small = st.integers(0, 3)
positive = st.integers(1, 3)
number = st.floats(-1.5, 1.5, allow_subnormal=False)
complex_value = st.one_of(number, st.tuples(number, number).map(list))


def hermitian(coeffs):
    """The drawn b(m), m >= 0, with b(-m) = conj b(m) next to each."""
    mirror = {f"-{m}": [v[0], -v[1]] if isinstance(v, list) else v
              for m, v in coeffs.items() if m != "0"}
    return {**coeffs, **mirror}


densities = st.one_of(
    st.fixed_dictionaries({"type": st.just("rational_ar"),
                           "alpha": st.lists(complex_value, min_size=1, max_size=2)},
                          optional={"sigma2": st.floats(-0.5, 2.0)}),
    st.fixed_dictionaries({"type": st.just("inverse_poly"),
                           "coeffs": st.fixed_dictionaries({"0": st.floats(0.5, 3.0)},
                                                           optional={"1": complex_value,
                                                                     "2": complex_value}
                                                           ).map(hermitian)}),
    st.fixed_dictionaries({"type": st.just("tabulated"),
                           "values": st.lists(st.floats(0.0, 3.0), min_size=4, max_size=16)}),
)

# integer flags, negative and zero included: each is a validation record
grids = st.sampled_from([-8, 0, 16, 512, 512])
seeds = st.sampled_from([-1, 0, 3])
windows = st.sampled_from([-5, 0, 12, 12])

patterns = st.fixed_dictionaries({
    "kind": st.sampled_from(["S1", "S2", "S3", "S4", "S5", "S6"]),
    "N": small, "M1": positive, "M2": positive, "N1": small, "N2": small, "T": positive,
})


def missing(pattern):
    """K of a pattern dict, cut at T for the infinite kinds."""
    kind, n = pattern["kind"], pattern["N"]
    left = pattern["T"] if kind in ("S1", "S3") else pattern["N1"] if kind in ("S4", "S6") else 0
    right = pattern["T"] if kind in ("S2", "S3") else pattern["N2"] if kind in ("S5", "S6") else 0
    return ([*range(n + 1)] + [-pattern["M1"] - 1 - i for i in range(left)]
            + [n + pattern["M2"] + 1 + i for i in range(right)])


def weights(pattern):
    """Explicit weights on K (zero values included, sometimes one observed
    index too) or a geometric profile (C = 0 included)."""
    explicit = st.tuples(
        st.lists(st.sampled_from(missing(pattern)), min_size=1, max_size=5, unique=True),
        st.lists(st.integers(-8, 10), max_size=1),
        st.lists(st.one_of(st.just(0), complex_value), min_size=6, max_size=6),
    ).map(lambda t: {"values": {str(j): v for j, v in zip(t[0] + t[1], t[2])}})
    geometric = st.fixed_dictionaries({"C": st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
                                       "rho": st.floats(0.3, 0.9)}).map(
        lambda g: {"geometric": g})
    return st.one_of(explicit, geometric)


classes = st.one_of(
    st.fixed_dictionaries({"type": st.just("d0minus"), "p": st.floats(0.2, 3.0)}),
    st.fixed_dictionaries({"type": st.just("dw"),
                           "b": st.lists(st.floats(-0.5, 2.0), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"type": st.just("dvu"), "p": st.floats(0.5, 2.0),
                           "v": st.just({"type": "tabulated", "values": [0.1] * 8}),
                           "u": st.just({"type": "tabulated", "values": [10.0] * 8})}),
)


def damaged(config, data):
    """The config, or the config with one section dropped, replaced by a bad
    value, or given a bad key."""
    how = data.draw(st.sampled_from(["none", "none", "drop", "bad_value", "bad_key"]))
    if how == "none":
        return config
    name = data.draw(st.sampled_from(sorted(config)))
    config = dict(config)
    if how == "drop":
        del config[name]
    elif how == "bad_value":
        config[name] = data.draw(st.sampled_from([5, "x", [], {"type": "nope"}, {"kind": "S9"}]))
    else:
        config[name] = {**config[name], data.draw(st.sampled_from(["x", "1.5", ""])): 1}
    return config


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(cli.COMMANDS)), density=densities, pattern=patterns,
       cls=classes, grid=grids, seed=seeds, window=windows, data=st.data())
def test_every_run_writes_a_strict_json_record(command, density, pattern, cls, grid, seed,
                                               window, data):
    config = damaged({"density": density, "pattern": pattern,
                      "weights": data.draw(weights(pattern)), "class": cls}, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        code = cli.main([command, str(path), "--out", str(out), "--grid", str(grid),
                         "--seed", str(seed), "--window", str(window),
                         "--replicates", "40", "--samples", "8"])
        assert code in (0, 1, 2)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        record = json.loads((out / "result.json").read_text(), parse_constant=reject)
    assert isinstance(record, dict)
    if code == 0:
        assert "error" not in record
    else:
        assert record["category"] == ("validation" if code == 1 else record["category"])
        assert isinstance(record["error"], str) and isinstance(record["message"], str)
