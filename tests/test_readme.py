"""The README runs as written and prints the values it documents."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from pops import McConfig, estimate_sinr, make_conventional_rx, make_conventional_tx, sinr
from pops.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_quick_start_prints_documented_values():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    documented = re.findall(r"# (\d+\.\d+)\.\.\.", block)  # "print(x)  # 9.613..."
    assert len(documented) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(documented)
    for value, prefix in zip(printed, documented):
        assert value.startswith(prefix), f"README documents {prefix}..., the code prints {value}"


# "... of small.ini at snr=10 with 3000 trials and rng_seed 0 estimates 8.471
# (standard error 0.319; analytic 7.815)"
_SEED_EXAMPLE = re.compile(r"small\.ini at snr=(\d+) with (\d+) trials and rng_seed (\d+) "
                           r"estimates (\d+\.\d+) \(standard error (\d+\.\d+); "
                           r"analytic (\d+\.\d+)\)")


@pytest.mark.parametrize("where", ["README", "McConfig"])
def test_seed_example_matches_the_stream(where):
    text = README.read_text() if where == "README" else McConfig.__doc__
    snr, trials, seed, *documented = _SEED_EXAMPLE.search(
        " ".join(text.replace("`", "").split())).groups()
    sc = load_scenario(ROOT / "demos" / "scenarios" / "small.ini")
    cfg = sc.lattice()
    tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
    ch = sc.channel()
    est = estimate_sinr(tx, rx, ch, cfg, float(snr),
                        McConfig(trials=int(trials), rng_seed=int(seed)))
    printed = [f"{est.sinr:.3f}", f"{est.se:.3f}", f"{sinr(tx, rx, ch, cfg, float(snr)).sinr:.3f}"]
    assert printed == documented
