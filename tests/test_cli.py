import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import twtsim
from twtsim import cli
from twtsim.cli import main
from twtsim.config import default_config_text, parse
from twtsim.search import seeded_runs

SHORT = """\
format = 1

[sim]
model = cbr
seed = 5

[station.ap]
role = ap

[station.c1]
phy_rate_mbps = 120

[station.c4]
phy_rate_mbps = 100
dut = true

[traffic]
bitrate_mbps = 10

[twt]
duty_percent = 40
mf = 4

[background]
streams_per_client = 2

[search]
seeds = 2
session_duration_s = 16
phase1_duration_s = 5
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(SHORT)
    return p


def run_cli(*args) -> int:
    return main([str(a) for a in args])


# SHA-256 of every file each command writes on SHORT, the same under Python 3.11-3.13
SHORT_DIGESTS = {
    "simulate": {
        "airtime.csv": "b7130df2bd99d76f21bfeb394c51f1b258130b405072a350fa7a1e75dc46b32e",
        "burst_serve.csv": "69624cfe7b21dabeb17cabedd156010e23a9cacbde8b529d9f53f24202063637",
        "cwnd.csv": "80ad20e1764ce85fc65a760b6803dc2cbaba29a8bcb858dd9589a4129fea9bac",
        "deliveries.csv": "ee7dbcd66aaa06c02ee7da859745026927ca740a61e5a13142ed1745841c0413",
        "summary.json": "72c42c625b4069724543583fed90f199c5f09ef011734f33fa53d11c447dd7af",
    },
    "qos": {
        "instantaneous.csv": "daa09b67e5ad3ec17d6fd995aa8847ce3257b55988e2a9fad24842d9207209a0",
        "qos_report.json": "07d07ddafe3fe00ea6743677292032f331dd0bb75db4f5cd5bb0304d70a16d5b",
    },
    "search": {
        "phase1_curve.csv": "350ef85fdef4cb5eb449ceab1d9ba84a8535e6ec4a712269ed26696c14a95356",
        "phase2_curve.csv": "831fe7f6efbb706022bd2259490f05beed8153bd49e574480cf45fe002c3ff8c",
        "search_result.json": "64e84ebb804643ce8528224ad840a2e2558de8a62ee0ce5ba5ad6c6ef979fe61",
        "sessions.csv": "873b0be0a2066ee1b8f890ab35e798ab16c933259805162e7e42169ebe011c45",
    },
    "sweep-duty": {
        "duty_sweep.csv": "350ef85fdef4cb5eb449ceab1d9ba84a8535e6ec4a712269ed26696c14a95356",
    },
    "sweep-mf": {
        "mf_sweep.csv": "cf2a2c1c0ee0293cfb8d411db23330b5d495ce16017ec8540d7d0624718efc54",
    },
    "table3": {"table3.csv": "9a2763bfbf3c431d5708334b125b5bafb0a386d8ec3e8342520caeea7f37584f"},
    "table4": {"table4.csv": "1e53ca1c63ab06cf3eaba992d2e676c6f5a072801dc63b6dcda197548cc75fc8"},
    "table5": {"table5.csv": "1b9034baafc3a1eb33a13b1bfb41da9c4ec6a8fd91a5f734fdc894d134c20a49"},
}


def assert_pinned(out: Path, command: str) -> None:
    """The command wrote exactly its pinned files, byte for byte."""
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SHORT_DIGESTS[command]


def test_simulate_writes_artifacts(cfg_path, tmp_path):
    out = tmp_path / "o"
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", out) == 0
    for name in ("deliveries.csv", "airtime.csv", "burst_serve.csv", "cwnd.csv", "summary.json"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["twt_schedule"]["duty_pct"] == pytest.approx(40.0, abs=0.5)
    assert "dut-stream" in summary["flow_throughput_mbps"]
    header = (out / "deliveries.csv").read_text().splitlines()[0]
    assert header == "time_s,station,flow,bytes"
    assert_pinned(out, "simulate")


def test_rerun_is_byte_identical(cfg_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", a) == 0
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", b) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_flag_changes_output(cfg_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", a) == 0
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", b, "--seed", 6) == 0
    assert (a / "deliveries.csv").read_bytes() != (b / "deliveries.csv").read_bytes()


def test_negative_seed_flag_is_a_validation_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", out, "--seed", -3) == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err == {"error": "validation", "detail": "master_seed must be >= 0, got -3"}
    assert not out.exists()


# in a fresh interpreter: simulate and qos on a CBR config, then on its VBR copy
NUMPY_FREE = """\
import json
import sys
from twtsim.cli import main
for cfg, model in zip(sys.argv[1:3], ("cbr", "vbr")):
    for command in ("simulate", "qos"):
        out = f"{sys.argv[3]}/{model}-{command}"
        assert main(["--config", cfg, "--command", command, "--out", out]) == 0
    assert json.load(open(f"{out}/qos_report.json"))["model"] == model
assert "numpy" not in sys.modules, "a command imported numpy"
"""


def test_commands_never_import_numpy(cfg_path, tmp_path):
    vbr_path = tmp_path / "vbr.cfg"
    vbr_path.write_text(cfg_path.read_text().replace("model = cbr", "model = vbr"))
    path = [str(Path(twtsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE, str(cfg_path), str(vbr_path),
                           str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# the interpreters the bytes are checked under: every other installed Python
# that pyproject.toml admits (3.11 on), each printed as its real path
PROBE = "import os, sys; print(sys.version_info >= (3, 11) and os.path.realpath(sys.executable))"


def other_interpreters() -> list[str]:
    """Every other admitted interpreter next to this one in a versions
    directory (as pyenv lays them out), or on PATH as ``python3.N``."""
    candidates = [*map(str, Path(sys.base_prefix).parent.glob("*/bin/python3")),
                  *filter(None, (shutil.which(f"python3.{minor}") for minor in range(11, 20)))]
    found = {os.path.realpath(sys.executable)}
    others = []
    for exe in candidates:
        probe = subprocess.run([exe, "-S", "-c", PROBE], capture_output=True, text=True)
        real = probe.stdout.strip()
        if probe.returncode == 0 and real not in ("False", *found):
            found.add(real)
            others.append(exe)
    return others


# each command on SHORT, then perfbench's first cli round: simulate and qos on
# the bundled config at seed 1
ALL_COMMANDS = """\
import sys
from twtsim.cli import main
cfg, out, *commands = sys.argv[1:]
for command in commands:
    assert main(["--config", cfg, "--command", command, "--out", f"{out}/{command}"]) == 0
for command in ("simulate", "qos"):
    assert main(["--command", command, "--seed", "1", "--out", f"{out}/r0/{command}"]) == 0
"""


def test_every_admitted_interpreter_writes_the_pinned_bytes(cfg_path, tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other Python >= 3.11 is installed next to this one or on PATH")
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    src = str(Path(twtsim.__file__).parents[1])
    runs = []
    for i, exe in enumerate(others):
        # only src on the path (-S drops site-packages); the first run hashes
        # str keys with a random seed, the others with a fixed one
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONHASHSEED": "random" if i == 0 else str(i)}
        env.pop("TWTSIM_OUT", None)
        out = tmp_path / str(i)
        runs.append((exe, out, subprocess.Popen(
            [exe, "-S", "-c", ALL_COMMANDS, str(cfg_path), str(out), *SHORT_DIGESTS],
            env=env, stderr=subprocess.PIPE, text=True)))
    errors = [proc.communicate(timeout=600)[1] for _, _, proc in runs]
    for (exe, out, proc), err in zip(runs, errors):
        assert proc.returncode == 0, (exe, err)
        written = {name: {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in (out / name).iterdir()}
                   for name in [*SHORT_DIGESTS, "r0/simulate", "r0/qos"]}
        assert written == {**SHORT_DIGESTS, "r0/simulate": golden["cli"]["r0/simulate"],
                           "r0/qos": golden["cli"]["r0/qos"]}, exe


# with only a zip of the package on the path: the bundled config's template,
# then perfbench's first qos command run as a module, both outside the checkout
FROM_ZIP = """\
import runpy, sys, twtsim
assert twtsim.__file__.startswith(sys.argv[1]), twtsim.__file__
print(repr(twtsim.paper_setup()))
sys.argv = ["twtsim", "--command", "qos", "--out", sys.argv[2]]
runpy.run_module("twtsim.cli", run_name="__main__")
"""


def test_twtsim_runs_from_a_zip(tmp_path):
    pkg = Path(twtsim.__file__).parent
    archive = tmp_path / "twtsim.zip"
    with zipfile.ZipFile(archive, "w") as zf:  # directory entries included
        for path in sorted(pkg.rglob("*")):
            if "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(pkg.parent))
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    env = {**os.environ, "PYTHONPATH": str(archive), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("TWTSIM_OUT", None)
    runs = [(exe, tmp_path / str(i), subprocess.Popen(
        [exe, "-S", "-c", FROM_ZIP, str(archive), str(tmp_path / str(i))], cwd=tmp_path,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        for i, exe in enumerate([sys.executable, *other_interpreters()])]
    for exe, out, proc in runs:
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, (exe, stderr)
        assert stdout.splitlines()[0] == repr(twtsim.paper_setup()), exe
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == golden["cli"]["r0/qos"], exe


def test_qos_report(cfg_path, tmp_path):
    out = tmp_path / "q"
    assert run_cli("--config", cfg_path, "--command", "qos", "--out", out) == 0
    rep = json.loads((out / "qos_report.json").read_text())
    for key in ("avg_throughput_mbps", "underrun_events", "underrun_time_s",
                "throughput_variation", "qos_pass", "seed", "model"):
        assert key in rep
    lines = (out / "instantaneous.csv").read_text().splitlines()
    assert lines[0] == "interval_start_s,throughput_mbps"
    assert len(lines) == 17  # 16 one-second bins
    assert_pinned(out, "qos")


def assert_mean_row(lines):
    """The last row is 'mean' and holds the column means of the rows above it."""
    rows = [[float(v) for v in line.split(",")[1:]] for line in lines[1:-1]]
    label, *means = lines[-1].split(",")
    assert label == "mean"
    assert [float(m) for m in means] == [statistics.fmean(col) for col in zip(*rows)]


def test_sweep_duty_csv(cfg_path, tmp_path):
    out = tmp_path / "d"
    assert run_cli("--config", cfg_path, "--command", "sweep-duty", "--out", out) == 0
    lines = (out / "duty_sweep.csv").read_text().splitlines()
    assert lines[0] == "duty_percent,mean_throughput_mbps,std_throughput_mbps"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(5, 101, 5))
    assert_pinned(out, "sweep-duty")


def test_sweep_mf_csv(cfg_path, tmp_path):
    out = tmp_path / "m"
    assert run_cli("--config", cfg_path, "--command", "sweep-mf", "--out", out) == 0
    lines = (out / "mf_sweep.csv").read_text().splitlines()
    assert lines[0] == "mf,mean_underrun_time_s,mean_underrun_events,mean_throughput_cv"
    assert len(lines) >= 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")
    assert_pinned(out, "sweep-mf")


def test_table3_csv(cfg_path, tmp_path):
    out = tmp_path / "t"
    assert run_cli("--config", cfg_path, "--command", "table3", "--out", out) == 0
    lines = (out / "table3.csv").read_text().splitlines()
    assert lines[0] == (
        "iteration,background_mbps_no_dut,background_mbps_dut_twt_off,background_mbps_dut_twt_on"
    )
    assert len(lines) == 4  # 2 iterations + mean
    assert lines[-1].startswith("mean,")
    assert_mean_row(lines)
    assert_pinned(out, "table3")


def test_table4_csv(cfg_path, tmp_path):
    out = tmp_path / "t"
    assert run_cli("--config", cfg_path, "--command", "table4", "--out", out) == 0
    lines = (out / "table4.csv").read_text().splitlines()
    assert lines[0] == "iteration,qos1_avg_throughput_mbps,qos2_underrun_events"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "mean"]
    assert_mean_row(lines)
    cfg = parse(SHORT)
    runs = seeded_runs(cfg.template, (40,), cfg.duty_percent, cfg.mf, cfg.model)
    assert lines[1:3] == [f"{i},{r.report.avg_throughput_mbps},{r.report.underrun_events}"
                          for i, r in enumerate(runs, 1)]
    assert_pinned(out, "table4")


def test_table5_csv(cfg_path, tmp_path):
    out = tmp_path / "t"
    assert run_cli("--config", cfg_path, "--command", "table5", "--out", out) == 0
    lines = (out / "table5.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,cbr_qos1")
    assert len(lines) == 4
    assert_mean_row(lines)
    assert_pinned(out, "table5")


def test_search_artifacts(cfg_path, tmp_path):
    out = tmp_path / "s"
    assert run_cli("--config", cfg_path, "--command", "search", "--out", out) == 0
    assert_pinned(out, "search")


def test_out_dir_env_var(cfg_path, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("TWTSIM_OUT", str(target))
    assert run_cli("--config", cfg_path, "--command", "qos") == 0
    assert (target / "qos_report.json").is_file()


def test_out_path_that_is_a_file_is_a_validation_error(cfg_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli("--config", cfg_path, "--command", "qos", "--out", taken) == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "output"
    assert str(taken) in err["detail"]


def test_an_artifact_that_cannot_be_written_is_an_output_error(cfg_path, tmp_path, capsys):
    taken = tmp_path / "o" / "qos_report.json"
    taken.mkdir(parents=True)
    assert run_cli("--config", cfg_path, "--command", "qos", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "output"
    assert str(taken) in err["detail"]


def test_config_error_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("format = 1\n[traffic]\nnope = 1\n")
    assert run_cli("--config", bad, "--command", "simulate", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "config"
    assert err["line"] == 3


@pytest.mark.parametrize(
    "extra, key",
    [("[transport]\nqueue_limit_segments = 0\n", "queue_limit_segments"),
     ("[station.c5]\nphy_rate_mbps = -5\n", "phy_rate_mbps"),
     ("[station.c5]\nrole = ap\n", "role"),
     # one MPDU must fit the TXOP: a rate too low for any limit, a limit too short for c4
     ("[station.c5]\nphy_rate_mbps = 2\n", "phy_rate_mbps"),
     ("[mac]\ntxop_limit_us = 200\n", "txop_limit_us"),
     # no window of mf = 4 (16383 us) holds a 20000 us DIFS: refused at the mf line
     ("[mac]\ndifs_us = 20000\n", "mf"),
     # float() takes these; the config does not
     ("[station.c5]\nphy_rate_mbps = inf\n", "phy_rate_mbps"),
     ("[transport]\nlocal_rtt_s = nan\n", "local_rtt_s")],
)
def test_config_value_error_carries_its_line(extra, key, tmp_path, capsys):
    text = SHORT + "\n" + extra
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run_cli("--config", bad, "--command", "simulate", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "config"
    assert err["line"] == text.count("\n", 0, text.rindex(key)) + 1


def test_a_weibull_k_whose_gamma_overflows_is_a_config_error(tmp_path, capsys):
    # log Γ(1 + 1/k) overflows a float: a JSON error at the key's line, not a traceback
    text = re.sub(r"^weibull_k = .*$", "weibull_k = 1e-306", default_config_text(), flags=re.M)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run_cli("--config", bad, "--command", "qos", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "config"
    assert err["line"] == text.count("\n", 0, text.index("weibull_k = 1e-306")) + 1


def test_a_command_that_refuses_its_input_is_a_validation_error(cfg_path, tmp_path, capsys,
                                                               monkeypatch):
    def refuse(scenario):
        raise ValueError("no run for this scenario")

    monkeypatch.setattr(cli, "run_sim", refuse)
    assert run_cli("--config", cfg_path, "--command", "simulate", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err == {"error": "validation", "detail": "no run for this scenario"}


def test_missing_config_exit_code(tmp_path, capsys):
    assert run_cli("--config", tmp_path / "nope.cfg", "--command", "qos") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "config-not-found"


def test_unreadable_config_exit_code(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "locked.cfg"
    cfg.write_text(SHORT)

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert run_cli("--config", cfg, "--command", "qos", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "config-not-found"
    assert err["detail"] == f"{cfg}: Permission denied"


def test_unreadable_bundled_config_exit_code(tmp_path, monkeypatch, capsys):
    def missing():
        raise FileNotFoundError(2, "No such file or directory")

    monkeypatch.setattr(cli, "default_config_text", missing)
    assert run_cli("--command", "qos", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err == {"error": "config-not-found",
                   "detail": "bundled config: No such file or directory"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data, line", [
    (b"format = 1\n# caf\xe9\n", 2),
    (b"\xff", 1),
    (b"format = 1\r\n\r\n[traffic]\r\nbitrate_mbps = 10 \xc3\n", 4),  # a cut sequence
    (b"format = 1\r[twt]\rmf = \xe2\x82", 1),  # a CR alone ends no line; cut at the end
    (b"format = 1\n# a\x0cb\n# \xff\n", 3),  # a form feed ends no line either
    (b"\xef\xbb\xbfformat = 1\n# caf\xe9\n", 2),  # after a byte-order mark
    (SHORT.replace("mf = 4", "mf = 4  # \u00e9").encode("latin-1"),
     SHORT.count("\n", 0, SHORT.index("mf = 4")) + 1),
], ids=["latin-1 comment", "first byte", "cut sequence", "cut at the end", "form feed",
        "byte-order mark", "latin-1 in a config"])
def test_a_config_that_is_not_utf8_is_a_config_error_at_its_first_bad_byte(data, line, tmp_path,
                                                                             capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(data)
    assert run_cli("--config", bad, "--command", "qos", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "config"
    assert err["line"] == line
    assert err["detail"].startswith(f"line {line}: not UTF-8: byte 0x")
    assert int(err["detail"].split("byte ")[1][:4], 16) >= 0x80  # the bad byte, not ASCII
    assert not (tmp_path / "o").exists()


# a config that is UTF-8 but not ASCII, read under an ASCII locale: its text is
# parsed (and found empty) instead of failing to decode; exit 3 where the
# locale's encoding is UTF-8 whatever the locale
ASCII_LOCALE = """\
import codecs, locale, sys
from twtsim.cli import main
if codecs.lookup(locale.getpreferredencoding()).name == "utf-8":
    sys.exit(3)
sys.exit(main(["--config", sys.argv[1], "--command", "qos", "--out", sys.argv[2]]))
"""


def test_config_text_is_utf8_whatever_the_locale(tmp_path):
    cfg = tmp_path / "utf8.cfg"
    cfg.write_bytes("format = 1\n# caf\u00e9\n".encode())
    env = {**os.environ, "PYTHONPATH": str(Path(twtsim.__file__).parents[1]), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-S", "-c", ASCII_LOCALE, str(cfg),
                           str(tmp_path / "o")], env=env, capture_output=True, text=True)
    if proc.returncode == 3:
        pytest.skip("the locale's encoding is UTF-8 here under LC_ALL=C")
    assert proc.returncode == 1, proc.stderr
    err = json.loads(proc.stdout)
    assert err["error"] == "config"
    assert err["detail"].startswith("empty config")


@pytest.fixture()
def infeasible_cfg_path(tmp_path):
    p = tmp_path / "hard.cfg"
    p.write_text(SHORT.replace("bitrate_mbps = 10", "bitrate_mbps = 400"))
    return p


def test_infeasible_search_exit_code(infeasible_cfg_path, tmp_path, capsys):
    assert run_cli("--config", infeasible_cfg_path, "--command", "search",
                   "--out", tmp_path / "s") == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "infeasible-target"


def test_infeasible_sweep_duty_still_writes_its_curve(infeasible_cfg_path, tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("--config", infeasible_cfg_path, "--command", "sweep-duty", "--out", out) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "infeasible-target"
    assert os.listdir(out) == ["duty_sweep.csv"]
    lines = (out / "duty_sweep.csv").read_text().splitlines()
    assert lines[0] == "duty_percent,mean_throughput_mbps,std_throughput_mbps"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(5, 101, 5))
    assert float(lines[-1].split(",")[1]) < 400  # the curve shows the shortfall
