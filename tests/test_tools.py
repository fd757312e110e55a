"""Smoke tests for the command-line tools."""

import importlib

import pytest

from repro.tools.disasm import disassemble_image, main as disasm_main
from repro.tools.run import main as run_main
from repro.minicc import compile_source


SRC = """
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i++) { s = s + i; }
    print(s);
    return 0;
}
"""


class TestDisasm:
    def test_disassembles_whole_image(self):
        image = compile_source(SRC)
        lines = list(disassemble_image(image))
        assert any("fn_main:" in line for line in lines)
        assert any("_start:" in line for line in lines)
        assert any("syscall" in line for line in lines)

    def test_eflags_column(self):
        image = compile_source(SRC)
        lines = list(disassemble_image(image, show_eflags=True))
        assert any("WCPAZSO" in line for line in lines)  # cmp/add rows

    def test_cli_benchmark(self, capsys):
        disasm_main(["--benchmark", "gap"])
        out = capsys.readouterr().out
        assert "fn_main:" in out

    def test_cli_source_file(self, tmp_path, capsys):
        path = tmp_path / "p.mc"
        path.write_text(SRC)
        disasm_main([str(path)])
        out = capsys.readouterr().out
        assert "fn_main:" in out


class TestRun:
    def test_cli_native_and_runtime(self, tmp_path, capsys):
        path = tmp_path / "p.mc"
        path.write_text(SRC)
        run_main([str(path), "--client", "rlr", "--stats"])
        out = capsys.readouterr().out
        assert "TRANSPARENT" in out
        assert "bbs_built" in out

    def test_cli_native_only(self, tmp_path, capsys):
        path = tmp_path / "p.mc"
        path.write_text(SRC)
        run_main([str(path), "--native-only"])
        out = capsys.readouterr().out
        assert "native:" in out and "runtime" not in out

    def test_cli_benchmark_with_all(self, capsys):
        run_main(["--benchmark", "vpr", "--scale", "1", "--client", "all"])
        out = capsys.readouterr().out
        assert "TRANSPARENT" in out

    def test_cli_shepherd(self, tmp_path, capsys):
        path = tmp_path / "p.mc"
        path.write_text(SRC)
        run_main([str(path), "--client", "shepherd"])
        out = capsys.readouterr().out
        assert "TRANSPARENT" in out

    def test_cli_p3_family(self, tmp_path, capsys):
        path = tmp_path / "p.mc"
        path.write_text(SRC)
        run_main([str(path), "--family", "p3", "--client", "inc2add"])
        out = capsys.readouterr().out
        assert "TRANSPARENT" in out


MISSING = "missing.mc"
BROKEN = "broken.mc"  # written by the test: does not compile


@pytest.mark.parametrize("tool, argv, named", [
    ("run", ["--benchmark", "nosuch"], "nosuch"),
    ("run", ["--benchmark", "mgrid", "--scale", "huge"], "huge"),
    ("run", [MISSING], MISSING),
    ("run", [BROKEN], BROKEN),
    ("disasm", ["--benchmark", "nosuch"], "nosuch"),
    ("disasm", [MISSING], MISSING),
    ("trace", [MISSING], MISSING),
    ("trace", ["--benchmark", "nosuch"], "nosuch"),
    ("trace", ["--benchmark", "mgrid", "--jsonl", "nodir/x.jsonl"],
     "nodir/x.jsonl"),
    ("lint", ["--benchmark", "nosuch"], "nosuch"),
    ("lint", [MISSING], MISSING),
    ("lint", ["--benchmark", "mgrid", "--rules", "nosuch"], "nosuch"),
    ("equiv_sweep", ["--benchmarks", "mgrid,nosuch"], "nosuch"),
    ("equiv_sweep", ["--benchmarks", "mgrid", "--clients", "nosuch"],
     "nosuch"),
    ("detach_diff", ["--benchmarks", "nosuch"], "nosuch"),
    ("detach_diff", ["--modes", "nosuch"], "nosuch"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_bad_name_or_file_is_a_usage_error(tool, argv, named, tmp_path,
                                           monkeypatch, capsys):
    """Every CLI reports a name it does not know, or a file it cannot
    read, compile or write, as a usage error (exit status 2) that names
    it, before running anything."""
    monkeypatch.chdir(tmp_path)  # where missing.mc and nodir/ do not exist
    (tmp_path / BROKEN).write_text("int main( {\n")
    main = importlib.import_module("repro.tools." + tool).main
    with pytest.raises(SystemExit) as usage:
        main(argv)
    assert usage.value.code == 2
    assert named in capsys.readouterr().err
