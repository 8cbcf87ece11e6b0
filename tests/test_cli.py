"""Command-line behavior: exit codes, file outputs, argument handling."""

import json

import pytest

from napotsim.cli import main
from napotsim.sweep import CSV_HEADER, ExperimentConfig

SMALL_INI = """
[sweep]
chunk_min = 4K
chunk_max = 16K
measured_accesses = 100

[configs]
1 = ways=4, page=4K, patterns=linear
2 = ways=16, page=64K, patterns=linear+random
"""


@pytest.fixture
def small_ini(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_INI)
    return path


def test_run_writes_csv(small_ini, tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["run", "--config", str(small_ini), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # 3 cells * 3 sizes, measurement rows only by default
    assert len(lines) == 1 + 9
    assert all(",measurement," in line for line in lines[1:])
    assert "wrote 9 rows" in capsys.readouterr().out


def test_run_include_warmup_keeps_both_phases(small_ini, tmp_path):
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(small_ini), "--out", str(out),
                 "--include-warmup"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 18
    assert any(",warmup," in line for line in lines[1:])


def test_run_is_deterministic(small_ini, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(small_ini), "--out", str(a)]) == 0
    assert main(["run", "--config", str(small_ini), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_jobs_flag_matches_serial(small_ini, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(small_ini), "--out", str(a)]) == 0
    assert main(["run", "--config", str(small_ini), "--out", str(b),
                 "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_override_changes_random_cells(small_ini, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(small_ini), "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["run", "--config", str(small_ini), "--out", str(b),
                 "--seed", "2"]) == 0
    # same grid, same row count; the random-pattern counters may differ
    assert len(a.read_text().splitlines()) == len(b.read_text().splitlines())


def test_run_numbers_read_like_config_ints(small_ini, tmp_path):
    # --seed 0x3 is seed = 0x3 in a config; a leading zero is rejected
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(small_ini), "--out", str(a),
                 "--seed", "0x3"]) == 0
    assert main(["run", "--config", str(small_ini), "--out", str(b),
                 "--seed", "3", "--jobs", "0x1"]) == 0
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(small_ini), "--seed", "08"])
    assert exit_info.value.code == 2


def test_run_plotdata(small_ini, tmp_path):
    out = tmp_path / "results.csv"
    plot = tmp_path / "plot.json"
    assert main(["run", "--config", str(small_ini), "--out", str(out),
                 "--plotdata", str(plot)]) == 0
    doc = json.loads(plot.read_text())
    assert doc["x_axis"] == "log2_chunk_kb"
    assert len(doc["series"]) == 3


def test_run_uses_config_out_path(tmp_path, monkeypatch):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_INI.replace("[sweep]", "[sweep]\nout = from_config.csv"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "from_config.csv").exists()


def test_run_rejects_bad_jobs(small_ini, capsys):
    assert main(["run", "--config", str(small_ini), "--jobs", "0"]) == 2
    assert "error: jobs must be at least 1, not 0" in capsys.readouterr().err


def test_run_rejects_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


# the table frames of a 64KB group ending on the last frame wrap past 44 bits
OVERFLOW_INI = """
[sweep]
chunk_max = 4K
measured_accesses = 10
base_ppn = 0xFFFFFFFFFF0

[configs]
1 = ways=4, page=64K
"""


@pytest.mark.parametrize(
    "command, text, extra, message",
    [
        ("run", None, [], "Is a directory"),
        ("run", "[sweep]\nseed = x\n", [], "[sweep] seed:"),
        ("run", SMALL_INI, ["--seed", "-1"], "seed:"),
        ("run", OVERFLOW_INI, [], "page-table frame 0x100000000000"),
        ("validate", OVERFLOW_INI, [], "page-table frame 0x100000000000"),
        ("run", SMALL_INI, ["--out", "missing/dir/r.csv"], "no directory missing/dir"),
        ("run", SMALL_INI, ["--plotdata", "missing/dir/p.json"],
         "no directory missing/dir"),
        ("run", SMALL_INI, ["--out", "."], "output path . is a directory"),
        ("run", SMALL_INI.replace("[sweep]", "[sweep]\nout ="), [],
         "output path is empty"),
        ("run", SMALL_INI, ["--out", "r.out", "--plotdata", "./r.out"],
         "--plotdata ./r.out is also the CSV output"),
        ("validate", "[configs]\n1 = ways=4, page=4K, patterns=linear+linear\n", [],
         "config 1: pattern 'linear' listed twice"),
        ("validate", "[configs]\n1 = ways=4, page=4Q\n", [],
         "[configs] 1: page: cannot parse size '4Q'"),
        ("run", SMALL_INI, ["--config", ""], "cannot read ''"),
        ("run", SMALL_INI, ["--out", ""], "output path is empty"),
        ("run", SMALL_INI, ["--plotdata", ""], "output path is empty"),
    ],
    ids=["directory", "bad-sweep-value", "negative-seed", "table-frame-overflow",
         "validate-table-frame-overflow", "missing-out-dir", "missing-plotdata-dir",
         "out-is-directory", "empty-config-out", "plotdata-is-out",
         "validate-repeated-pattern", "validate-bad-page-size", "empty-config",
         "empty-out", "empty-plotdata"],
)
def test_run_rejects_bad_input(tmp_path, capsys, monkeypatch, command, text, extra,
                               message):
    def no_sweep(config, jobs=1):
        raise AssertionError("the sweep started before the input was checked")

    monkeypatch.setattr("napotsim.cli.run_sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    config = tmp_path
    if text is not None:
        config = tmp_path / "exp.ini"
        config.write_text(text)
    argv = [command, "--config", str(config)]
    if command == "run" and "out =" not in (text or ""):
        argv += ["--out", str(tmp_path / "r.csv")]  # a later --out wins
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_run_default_selects_builtin_grid(tmp_path, monkeypatch):
    seen = []

    def fake_sweep(config, jobs=1):
        seen.append(config)
        return []

    monkeypatch.setattr("napotsim.cli.run_sweep", fake_sweep)
    out = tmp_path / "results.csv"
    assert main(["run", "--out", str(out)]) == 0
    assert len(seen) == 1
    assert seen[0].configs == ExperimentConfig().configs
    assert len(seen[0].cells()) == 102


def test_run_default_flag_is_rejected(capsys):
    # no --config already runs the built-in grid; there is no --default
    with pytest.raises(SystemExit):
        main(["run", "--default"])
    assert "unrecognized arguments: --default" in capsys.readouterr().err


def test_validate_ok(small_ini, capsys):
    assert main(["validate", "--config", str(small_ini)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "9 cells" in out


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[configs]\n1 = ways=5, page=4K\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_trace_linear(tmp_path, capsys):
    out = tmp_path / "trace.txt"
    code = main(["gen-trace", "--pattern", "linear", "--chunk-bytes", "16K",
                 "--accesses", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# phase: warmup"
    assert lines[1] == "0x40000000"
    assert lines.count("# phase: measurement") == 1
    # 4 warm-up pages + 10 measured + 2 markers
    assert len(lines) == 16
    assert "wrote 14 accesses" in capsys.readouterr().out


def test_gen_trace_random_seeded(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen-trace", "--pattern", "random", "--chunk-bytes", "64K",
            "--accesses", "50", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_trace_custom_base(tmp_path):
    out = tmp_path / "trace.txt"
    assert main(["gen-trace", "--pattern", "linear", "--chunk-bytes", "4K",
                 "--accesses", "1", "--base-va", "0x80000000",
                 "--out", str(out)]) == 0
    assert "0x80000000" in out.read_text()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--chunk-bytes", "3K"], "--chunk-bytes: chunk_bytes 0xc00"),
        # the chunk's last page lies past the top of the canonical low half
        (["--chunk-bytes", "8K", "--base-va", "0x3FFFFFF000"],
         "va 0x4000000fff is not a canonical"),
        (["--chunk-bytes", "8K", "--base-va", "0x1001"], "not aligned to 4096"),
        (["--chunk-bytes", "4K", "--out", "missing/t.txt"], "no directory missing"),
        (["--chunk-bytes", "4K", "--seed", "-5"],
         "--seed: seed must be non-negative"),
        (["--chunk-bytes", "4K", "--seed", "-5", "--pattern", "random"],
         "--seed: seed must be non-negative"),
        (["--chunk-bytes", "4K", "--accesses", "-5"],
         "error: --accesses: measured_accesses must be non-negative"),
        (["--chunk-bytes", "4K", "--base-va", "zz"], "--base-va: invalid literal"),
        (["--chunk-bytes", "8Q"], "--chunk-bytes: cannot parse size '8Q'"),
    ],
    ids=["odd-chunk", "past-canonical-top", "unaligned-base", "missing-out-dir",
         "negative-seed-linear", "negative-seed-random", "negative-accesses",
         "bad-base-va", "bad-chunk-text"],
)
def test_gen_trace_rejects_bad_chunk(tmp_path, capsys, monkeypatch, extra, message):
    def no_trace(spec, base_va):
        raise AssertionError("the trace was generated before the input was checked")

    monkeypatch.setattr("napotsim.cli.gen_trace", no_trace)
    monkeypatch.chdir(tmp_path)
    assert main(["gen-trace", "--pattern", "linear", "--out", "t.txt"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "t.txt").exists()


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
