"""The declared config schema against the configs and docs that use it."""

import re
from pathlib import Path

import pytest

from kernelbound import config, solver, verify

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def shipped_configs():
    configs = [(path.name, path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "bench" / "configs").glob("*.cfg"))]
    configs += [("README example", block)
                for block in re.findall(r"```ini\n(.*?)```", README, re.S)]
    return configs


@pytest.mark.parametrize("name, text", shipped_configs(),
                         ids=[name for name, _ in shipped_configs()])
def test_shipped_configs_parse_and_set_only_declared_keys(name, text):
    cfg = config.parse_config_text(text, path=name)
    assert cfg.values
    for section, key in cfg.values:
        assert key in config.SCHEMA[section]


def readme_key_rows():
    """(section, key, type, default, allowed) cells of README's key table."""
    body = README.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip().replace("`", "")
             for cell in line.strip("|").split("|")]
            for line in body.splitlines() if line.startswith("|")]
    assert rows[0] == ["section", "key", "type", "default", "allowed"]
    return rows[2:]


def test_readme_key_table_matches_schema_both_ways():
    rows = readme_key_rows()
    documented = [(section, key) for section, key, *_ in rows]
    declared = [(section, key) for section, keys in config.SCHEMA.items()
                for key in keys]
    assert sorted(documented) == sorted(declared)
    defaults = config.parse_config_text("schema_version = 1\n")
    for section, key, kind, default, allowed in rows:
        row = config.SCHEMA[section][key]
        assert kind == row.kind, (section, key)
        if row.default is config.REQUIRED:
            assert default == "required", (section, key)
        elif row.default is None:
            # worked out from other keys, and said so in words
            assert default.startswith("*") and default.endswith("*"), \
                (section, key)
        else:
            assert config.parse_value(section, key, default) == \
                defaults.get(section, key), (section, key)
        limits = [" ".join(map(str, row.choices))] if row.choices else []
        if row.length is not None:
            limits.append("%d values" % row.length)
        if row.domain is not None:
            limits.append(row.domain.text)
        assert allowed == ", ".join(limits), (section, key)


# each key that sets a check parameter, and the default its declaration holds
DECLARED = [
    ("verify", "tol_domination", verify.Domination.tol),
    ("verify", "tol_monotone", verify.MonotoneInR.tol),
    ("verify", "tol_mass", verify.MassAndPositivity.tol),
    ("verify", "tol_support", verify.Support.tol_null),
    ("verify", "tol_duality", verify.Duality.tol),
    ("verify", "tol_chapman", verify.ChapmanKolmogorov.tol),
    ("verify", "tol_integrability", verify.LyapunovIntegrability.tol),
    ("verify", "tol_weighted", verify.WeightedBound.tol),
    ("verify", "tol_decay", verify.DecayShape.slack),
    ("verify", "majorant_scale", verify.WeightedBound.majorant_scale),
    ("bounds", "eps_scales", verify.WeightedBound.eps_scales),
]


@pytest.mark.parametrize("section, key, declared", DECLARED,
                         ids=["%s.%s" % row[:2] for row in DECLARED])
def test_check_defaults_are_the_declarations_own(section, key, declared):
    # the very object the declaration holds, so a literal written back into
    # SCHEMA fails here even when it equals the declared value
    assert config.SCHEMA[section][key].default is declared


def test_readme_states_the_step_rule():
    cells = {(section, key): default for section, key, _, default, _ in readme_key_rows()}
    assert cells["grid", "dt"] == "*min(t / %d, spacing)*" % solver.STEPS
