#!/usr/bin/env bash
# Walk the command-line interface over the small scenario.  Every subcommand
# reads the same INI file; --set overrides individual keys without editing it.
# Requires the package to be installed (pip install -e .).
set -eu
cd "$(dirname "$0")"

SC=scenarios/small.ini

echo "== validate: internal cross-checks (closed form, duality, half-step, simulation)"
pops validate "$SC"

echo
echo "== optimize: run the alternating optimization, save waveforms + summary"
pops optimize "$SC"

echo
echo "== sinr: evaluate a pair through the kernel engine (defaults to the"
echo "== conventional pair; here the waveforms saved by optimize are passed in)"
pops sinr "$SC" \
    --set sinr.tx_file=demo_out/cli/optimize_tx.csv \
    --set sinr.rx_file=demo_out/cli/optimize_rx.csv

echo
echo "== conventional: closed-form CP-OFDM baseline on the same scenario"
pops conventional "$SC"

echo
echo "== upperbound: Kronecker-relaxation ceiling for this lattice and channel"
pops upperbound "$SC"

echo
echo "== psd: spectrum of the optimized transmit pulse, tail level beyond 2F"
pops psd "$SC"

echo
echo "== sweep time-sync: SIR under receive timing errors, CP baselines included"
pops sweep time-sync "$SC"

echo
echo "== montecarlo: simulated SINR with jackknife standard error"
pops montecarlo "$SC"

echo
echo "== montecarlo with QPSK symbols: every atom's symbol drawn and summed"
pops montecarlo "$SC" --set mc.alphabet=qpsk

echo
echo "== the same scenario with one key overridden from the command line"
pops conventional "$SC" --set run.snr=inf

echo
echo "artifacts are under demo_out/cli (set by run.output_dir):"
ls demo_out/cli
