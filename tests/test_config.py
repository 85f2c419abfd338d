import numpy as np
import pytest

from quadshape.config import (ConfigError, load_config, parse_config_text)

MINIMAL = """
[geometry]
kind = circle
radius = 1.0
n = 64

[source]
x = 0.0
y = 0.0
rho = 0.1
mass = 6.283185307179586
"""


def test_minimal_config_defaults():
    run = parse_config_text(MINIMAL)
    assert run.params.k == 1.0
    assert run.params.A == 1.0
    assert run.directions == ("const", "cos1", "cos2", "sin2")
    assert run.fd.t_step == 1e-3
    curve = run.build_curve()
    assert curve.n == 64
    assert curve.area == pytest.approx(np.pi, rel=1e-12)


def test_comments_and_blank_lines_ignored():
    text = MINIMAL + "\n# trailing comment\n\n[params]\nk = 2.0   # inline\n"
    assert parse_config_text(text).params.k == 2.0


def test_repeated_source_sections_accumulate():
    text = MINIMAL + """
[source]
x = 0.5
y = 0.0
rho = 0.05
mass = 1.0
"""
    run = parse_config_text(text)
    assert len(run.source.disks) == 2
    assert run.source.total_mass == pytest.approx(2 * np.pi + 1.0)


def test_other_sections_may_not_repeat():
    text = MINIMAL + "\n[params]\nk = 1.0\n\n[params]\nk = 2.0\n"
    with pytest.raises(ConfigError, match="may not repeat"):
        parse_config_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(MINIMAL + "\n[misc]\nfoo = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'bar'"):
        parse_config_text(MINIMAL + "\n[params]\nbar = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'color'"):
        parse_config_text(MINIMAL.replace("n = 64", "n = 64\ncolor = red"))


def test_dump_operators_is_a_flag_not_a_config_key():
    # the operator dump is selected by the --dump-operators command line flag
    with pytest.raises(ConfigError, match="unknown key 'dump_operators'"):
        parse_config_text(MINIMAL + "\n[output]\ndump_operators = true\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(MINIMAL + "\n[params]\nk = 1.0\nk = 2.0\n")


def test_nonpositive_k_message():
    with pytest.raises(ConfigError, match="k must be positive"):
        parse_config_text(MINIMAL + "\n[params]\nk = -3.0\n")


def test_missing_source_rejected():
    with pytest.raises(ConfigError, match="source"):
        parse_config_text("[geometry]\nkind = circle\n")


def test_source_requires_rho_and_mass():
    with pytest.raises(ConfigError, match="missing 'mass'"):
        parse_config_text("[geometry]\nkind = circle\n\n[source]\nrho = 0.1\n")


def test_bad_scalar_reports_key_and_section():
    with pytest.raises(ConfigError, match=r"\[source\]"):
        parse_config_text(MINIMAL.replace("rho = 0.1", "rho = tiny"))


def test_radial_geometry_with_fourier_keys():
    text = """
[geometry]
kind = radial
base_radius = 1.0
n = 128
cos3 = 0.3
sin2 = 0.05

[source]
rho = 0.1
mass = 1.0
"""
    run = parse_config_text(text)
    assert run.geometry.cos == {3: 0.3}
    assert run.geometry.sin == {2: 0.05}
    curve = run.build_curve()
    assert curve.n == 128


def test_geometry_kind_gates_its_keys():
    with pytest.raises(ConfigError, match="unknown key 'rx'"):
        parse_config_text(MINIMAL.replace("radius = 1.0", "rx = 1.0"))
    with pytest.raises(ConfigError, match="unknown geometry kind"):
        parse_config_text(MINIMAL.replace("kind = circle", "kind = square"))


def test_flow_section_overrides():
    text = MINIMAL + """
[flow]
max_iters = 17
grad_tol_rel = 0.02
"""
    run = parse_config_text(text)
    assert run.flow.max_iters == 17
    assert run.flow.grad_tol_rel == 0.02


@pytest.mark.parametrize("key", ["grad_tol", "armijo_c1", "shrink",
                                 "max_backtracks", "resample_every",
                                 "step_min"])
def test_line_search_constants_are_not_config_keys(key):
    # [flow] holds the stopping rule only: max_iters and grad_tol_rel
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[flow\\]"):
        parse_config_text(MINIMAL + f"\n[flow]\n{key} = 1\n")


def test_directions_list_parsing():
    run = parse_config_text(MINIMAL + "\n[directions]\nmodes = const, sin3\n")
    assert run.directions == ("const", "sin3")
    with pytest.raises(ConfigError, match="empty"):
        parse_config_text(MINIMAL + "\n[directions]\nmodes = ,\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("k = 1.0\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    assert load_config(path).params.k == 1.0
