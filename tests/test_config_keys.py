"""The config language is the set of keys the adapters read.

Every operation declares its keys; a descriptor with any other key, or
a config with an unknown top-level key, is a config error (exit 2, no
report), and the shipped configs read and set exactly the declared keys.
"""

import json
from pathlib import Path

import pytest

from restriction_lab.cli import main
from restriction_lab.registry import REGISTRY, get_operation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_checks():
    checks = []
    for name in ("default.json", "all_ops.json"):
        with open(CONFIGS / name, encoding="utf-8") as fh:
            cfg = json.load(fh)
        checks += [(cfg["seed"], c) for c in cfg["checks"]]
    return checks


SHIPPED = _shipped_checks()


def _first_shipped(op):
    return next(c for _, c in SHIPPED if c["operation"] == op)


class _Recorder(dict):
    """A parameter dict that records every key the adapter looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _run_cli(tmp_path, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    return main(["run", str(cfg_path), "--output", str(out)]), out


@pytest.mark.parametrize("op", sorted(REGISTRY))
def test_extra_key_exits_2_without_report(tmp_path, capsys, op):
    check = {**_first_shipped(op), "n_sample": 100}
    code, out = _run_cli(tmp_path, {"seed": 1, "checks": [check]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    err = capsys.readouterr().err
    assert f"{op}: unknown key(s) 'n_sample'" in err


def test_top_level_tolerances_exits_2(tmp_path, capsys):
    code, out = _run_cli(tmp_path, {
        "seed": 1, "tolerances": {"psi-lower-bound": 1e-9},
        "checks": [_first_shipped("psi-lower-bound")]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    assert "unknown key(s) 'tolerances'" in capsys.readouterr().err


@pytest.mark.parametrize("seed,check", SHIPPED,
                         ids=[c["operation"] for _, c in SHIPPED])
def test_shipped_checks_read_only_declared_keys(seed, check):
    op = get_operation(check["operation"])
    params = _Recorder({k: v for k, v in check.items() if k != "operation"})
    op.fn(params, seed)
    assert params.read <= set(op.keys)


def test_shipped_configs_set_every_declared_key():
    set_keys = {name: set() for name in REGISTRY}
    for _, check in SHIPPED:
        set_keys[check["operation"]] |= set(check) - {"operation"}
    assert set_keys == {name: set(op.keys) for name, op in REGISTRY.items()}
