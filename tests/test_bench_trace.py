"""The bench trace wraps names that exist, and puts the originals back.

``bench/tracing.py`` patches module attributes and model methods by name, so
a renamed function would otherwise surface only as a ``KeyError`` in a
traced bench run.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
from sharptail import cgf, cli, estimate, fclt, mc, numerics, saddle, scenarios, weights  # noqa: E402

RUN = {"z": {"kind": "binomial", "m": 1, "p": 0.5},
       "w": {"kind": "uniform", "c": 0.0, "d": 1.0},
       "n": 500, "a": 0.3, "theta_star": 1.2, "seed": 3}
TCELL = {"n": 1000, "z_f": 40, "w_f": 0.25, "tau": {"kind": "exponential", "rate": 1.0},
         "z": {"kind": "binomial", "m": 10, "p": 0.1}, "a": 0.27, "seed": 3}
RUNS = [
    ("approx", RUN, ()),
    ("fclt", RUN, ("--replicas", "100", "--grid", "3")),
    ("tcell", TCELL, ()),
]
SPANS = {"weights.draw_environment", "estimate.check_conditions", "saddle.solve_psi_root"}


def _subclasses(base):
    found = [base]
    for cls in base.__subclasses__():
        found += _subclasses(cls)
    return found


def test_trace_spans_named_layers_and_uninstalls(tmp_path, capsys):
    namespaces = [cgf, cli, estimate, fclt, mc, numerics, saddle, scenarios, weights,
                  *_subclasses(weights.WeightModel), *_subclasses(cgf.CumulantModel)]
    before = [dict(vars(ns)) for ns in namespaces]
    original = cli.draw_environment
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.draw_environment is not original
        for i, (command, config, flags) in enumerate(RUNS):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            assert cli.run([command, "--config", str(path), *flags]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert SPANS <= {span[0] for span in tracer.spans}
    for ns, saved in zip(namespaces, before):
        now = dict(vars(ns))
        assert now.keys() == saved.keys()
        assert all(now[key] is value for key, value in saved.items())
