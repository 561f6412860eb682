"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.schemes import available


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_list(capsys):
    rc, out = run_cli(capsys, "list")
    assert rc == 0
    assert "bzip2" in out and "dot_product" in out


def test_run_kernel(capsys):
    for scheme in available():
        rc, out = run_cli(capsys, "run", "fibonacci", "--scheme", scheme)
        assert rc == 0
        assert "IPC" in out
        # the scheme's own non-zero counters are rows of the table
        rows = out.splitlines()
        assert any(row.startswith(scheme + ".") for row in rows), scheme


def test_run_benchmark_reunion(capsys):
    rc, out = run_cli(capsys, "run", "sha", "--scheme", "reunion")
    assert rc == 0
    assert "reunion.fingerprint.compared" in out


def test_run_with_injection(capsys):
    rc, out = run_cli(capsys, "run", "checksum", "--scheme", "unsync",
                      "--inject", "0.002", "--seed", "3")
    assert rc == 0


def test_run_baseline_rejects_injection(capsys):
    with pytest.raises(SystemExit):
        main(["run", "sha", "--scheme", "baseline", "--inject", "1e-3"])


def test_run_unknown_workload():
    with pytest.raises(SystemExit):
        main(["run", "not_a_benchmark"])


def test_compare(capsys):
    rc, out = run_cli(capsys, "compare", "fibonacci")
    assert rc == 0
    assert "UnSync over Reunion" in out


def test_asm_from_file(tmp_path, capsys):
    src = tmp_path / "k.s"
    src.write_text("""
main:
    li r1, 3
    la r2, result
    sw r1, 0(r2)
    halt
.data
result: .word 0
""")
    rc, out = run_cli(capsys, "asm", str(src))
    assert rc == 0
    assert "result" in out and "= 3" in out


def test_tables(capsys):
    for cmd, marker in (("table1", "Issue Queue"),
                        ("table2", "20.77"),
                        ("table3", "Polaris")):
        rc, out = run_cli(capsys, cmd)
        assert rc == 0
        assert marker in out, cmd


def test_fig4_subset(capsys):
    rc, out = run_cli(capsys, "fig4", "--benchmarks", "sha")
    assert rc == 0
    assert "sha" in out and "average" in out


def test_fig5_subset(capsys):
    rc, out = run_cli(capsys, "fig5", "--benchmarks", "sha")
    assert rc == 0
    assert "FI" in out


def test_fig6_subset(capsys):
    rc, out = run_cli(capsys, "fig6", "--benchmarks", "sha")
    assert rc == 0
    assert "0.125KB" in out


def test_breakeven(capsys):
    rc, out = run_cli(capsys, "breakeven", "--benchmark", "sha")
    assert rc == 0
    assert "break-even SER" in out


def test_roec(capsys):
    rc, out = run_cli(capsys, "roec")
    assert rc == 0
    assert "100.0%" in out


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_energy_command(capsys):
    rc, out = run_cli(capsys, "energy", "fibonacci")
    assert rc == 0
    assert "EDP" in out and "UnSync saves" in out
