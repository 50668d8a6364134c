#!/usr/bin/env bash
# Runs the installed `trajrot` console script (the tests import the
# sources through PYTHONPATH instead), and each command must exit 0:
# - the verify scenarios' lists of reports: the spiral's from its
#   closed-form flow, whose K must be sqrt(2) (|J| at the sink) rounded
#   up by less than 1e-12, the sinks' from the exact matrix grid, the
#   sink shells from the log-norm end time (eigvalsh), and the cor3_10
#   grid from the stacked point-rotation kernel;
# - a Crofton constants record;
# - the Crofton estimate of an 801-sample great circle (matmul, signbit
#   and not_equal into one reused workspace, uint8 sums with out=),
#   within 4 standard errors of 2 pi, and its absolute rotation around
#   its center: 2 pi within an error estimate below 1e-9 (the exact angle
#   sum and its roundoff term);
# - the paper-repro artifacts;
# - an affine trajectory, and a 578 x 578 Gauss pair of two sink
#   trajectories (Taylor nodes) in both modes: tiles summed by their
#   boundary fans (reduceat, einsum over views), halved down to 16
#   segments, the rest in stacks of the direct kernel (take, batched
#   matmul with out=);
# - last the README's CLI example, the spiral's closed-form flow (expm1),
#   whose rotation must be 10 within its error estimate.
# Every verify report, the Crofton estimate and the artifacts are written
# twice, and the reruns must be byte-identical.
#
# Usage: .github/console-checks.sh [OUTDIR]; OUTDIR defaults to
# $RUNNER_TEMP, or else to a new temporary directory.
set -euo pipefail

out="${1:-${RUNNER_TEMP:-$(mktemp -d)}}"
mkdir -p "$out"

trajrot verify --scenario spiral-point --theorem prop3_1 --theorem thm3_4 > "$out/spiral1.json"
trajrot verify --scenario spiral-point --theorem prop3_1 --theorem thm3_4 > "$out/spiral2.json"
diff "$out/spiral1.json" "$out/spiral2.json"
python -c 'import json, math, sys; rs = json.load(open(sys.argv[1])); print([r["inputs"] for r in rs]); sys.exit(not (rs[0]["inputs"]["K_method"] == "analytic" and all(math.sqrt(2) <= r["inputs"]["K"] < math.sqrt(2) * (1 + 1e-12) for r in rs)))' "$out/spiral1.json"
trajrot verify --scenario sink-line --theorem prop3_2 > "$out/line1.json"
trajrot verify --scenario sink-line --theorem prop3_2 > "$out/line2.json"
diff "$out/line1.json" "$out/line2.json"
trajrot verify --scenario sink-log --theorem thm3_10_log > "$out/log1.json"
trajrot verify --scenario sink-log --theorem thm3_10_log > "$out/log2.json"
diff "$out/log1.json" "$out/log2.json"
trajrot verify --scenario sink-pair --theorem thm3_8 --theorem cor3_10 > "$out/pair1.json"
trajrot verify --scenario sink-pair --theorem thm3_8 --theorem cor3_10 > "$out/pair2.json"
diff "$out/pair1.json" "$out/pair2.json"
trajrot crofton --n 3
python -c 'import sys, numpy as np, trajrot as tr; th = np.linspace(0, 2 * np.pi, 801); tr.curve_to_csv(tr.Curve(th, np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)), sys.argv[1])' "$out/circle.csv"
trajrot crofton --curve "$out/circle.csv" -m 10000 --seed 0 > "$out/crofton1.json"
trajrot crofton --curve "$out/circle.csv" -m 10000 --seed 0 > "$out/crofton2.json"
diff "$out/crofton1.json" "$out/crofton2.json"
python -c 'import json, math, sys; r = json.load(open(sys.argv[1])); print(r); sys.exit(abs(r["estimate"] - 2 * math.pi) > 4 * r["stderr"])' "$out/crofton1.json"
trajrot rotate --curve "$out/circle.csv" --point 0,0,0 --mode abs > "$out/circle_rot.json"
python -c 'import json, math, sys; r = json.load(open(sys.argv[1])); print(r); sys.exit(not abs(r["value"] - 2 * math.pi) <= r["error_estimate"] < 1e-9)' "$out/circle_rot.json"
trajrot paper-repro --out "$out/repro"
trajrot paper-repro --out "$out/repro2"
diff -r "$out/repro" "$out/repro2"
trajrot integrate --field affine:-1,-2,2,-1,0.5,0 --x0 1,0 --t1 5 --chord-tol 1e-6 --out "$out/affine.csv"
trajrot integrate --field linear:-1,0,0,0,-1,-2,0,2,-1 --x0 1,1,0 --t1 3 --max-step 0.02 --chord-tol 1e-5 --out "$out/sink1.csv"
trajrot integrate --field linear:-1,0,0,0,-1,-2,0,2,-1 --x0 1,-1,0 --t1 3 --max-step 0.02 --chord-tol 1e-5 --out "$out/sink2.csv"
trajrot link --curve1 "$out/sink1.csv" --curve2 "$out/sink2.csv" --mode signed
trajrot link --curve1 "$out/sink1.csv" --curve2 "$out/sink2.csv" --mode absolute
trajrot integrate --field spiral2d --x0 0.5,0 --t1 10 --out "$out/spiral.csv"
trajrot rotate --curve "$out/spiral.csv" --point 0,0 --mode abs > "$out/spiral_rot.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); print(r); sys.exit(abs(r["value"] - 10.0) > r["error_estimate"])' "$out/spiral_rot.json"
