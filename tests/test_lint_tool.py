"""The ``python -m repro.tools.lint`` CLI: reports and exit codes."""

import pytest

from repro.tools.lint import main

SRC = """
int counter;
int bump(int x) { return x + 2; }
int main() {
    int i;
    counter = 0;
    for (i = 0; i < 5; i++) { counter = counter + bump(i); }
    print(counter);
    return 0;
}
"""


@pytest.fixture(scope="module")
def source_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lint") / "prog.mc"
    path.write_text(SRC)
    return str(path)


def test_static_clean_program_exits_zero(source_file, capsys):
    assert main([source_file]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_static_inject_exits_nonzero(source_file, capsys):
    assert main([source_file, "--inject"]) == 1
    out = capsys.readouterr().out
    assert "[error]" in out


def test_client_without_equiv_is_a_usage_error(source_file, capsys):
    with pytest.raises(SystemExit) as usage:
        main([source_file, "--client", "inscount-inline"])
    assert usage.value.code == 2
    assert "--equiv" in capsys.readouterr().err


def test_rule_selection(source_file, capsys):
    # Injection is per-rule: each selected rule gets its own tabulated
    # violation planted and must flag it (exit 1 = every rule fired).
    assert main([source_file, "--inject", "--rules", "linearity,levels"]) == 1
    out = capsys.readouterr().out
    assert "rule linearity" in out
    assert "rule levels" in out
    # ... and unselected rules are not exercised at all.
    assert "eflags-safety" not in out


def test_inject_covers_every_registered_rule(source_file, capsys):
    # The full negative control plants one violation per registered rule
    # — equivalence included — and all of them must fire.
    assert main([source_file, "--inject"]) == 1
    out = capsys.readouterr().out
    for rule_id in (
        "linearity",
        "levels",
        "eflags-safety",
        "scratch-registers",
        "transparency",
        "equivalence",
    ):
        assert "rule %s" % rule_id in out, rule_id


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "linearity",
        "levels",
        "eflags-safety",
        "scratch-registers",
        "transparency",
        "equivalence",
    ):
        assert rule_id in out


def test_max_diagnostics_suppression(source_file, capsys):
    assert main([source_file, "--inject", "--max-diagnostics", "1"]) == 1
    out = capsys.readouterr().out
    assert "suppressed" in out
