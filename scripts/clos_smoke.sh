#!/usr/bin/env bash
# Fat-tree/Clos smoke (`make clos-smoke`; DESIGN.md §4.2).
#
# Two checks:
#
# 1. End-to-end from spec files. Both committed fat-tree example
#    scenarios (3-tier k = 4 Clos and the oversubscribed leaf-spine)
#    must run from their `.scn` files alone and emit valid JSON, and
#    `--dump-routes` must print the same per-switch forwarding tables on
#    repeated invocations: routing is planned deterministically, never
#    discovered at run time.
#
# 2. Scale. A generated 128-host k = 8 leaf-spine incast must run from
#    its spec file and emit valid JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=${CLI:-target/release/rperf-cli}
TMP=${TMPDIR:-/tmp}

if [ ! -x "$CLI" ]; then
    echo "clos-smoke: building rperf-cli" >&2
    cargo build --release -q -p rperf-cli
fi

echo "clos-smoke: fat-tree examples end-to-end from spec files" >&2
for scn in fattree_incast fattree_victim; do
    "$CLI" scenario "examples/scenarios/$scn.scn" --json | python3 -m json.tool >/dev/null
    "$CLI" scenario "examples/scenarios/$scn.scn" --dump-routes >"$TMP/rperf_${scn}_routes_a.txt"
    "$CLI" scenario "examples/scenarios/$scn.scn" --dump-routes >"$TMP/rperf_${scn}_routes_b.txt"
    cmp "$TMP/rperf_${scn}_routes_a.txt" "$TMP/rperf_${scn}_routes_b.txt"
    echo "  $scn: ran, routes deterministic" >&2
done

# The scale scenario: a 128-host k = 8, o = 2 leaf-spine (16 leaves,
# 4 spines) with an 8-wide remote-leaf incast plus a spine-crossing
# victim. Generated here rather than committed: the smoke's point is
# that arbitrary fat-trees need no Rust changes.
K8=$TMP/rperf_clos_k8.scn
{
    printf 'name = "clos_k8"\nwarmup_us = 200\nduration_ms = 4\n\n'
    printf '[topology]\nkind = "fattree"\nk = 8\ntiers = 2\noversubscription = 2\n\n'
    printf '[[role]]\nnode = 0\nkind = "rperf"\ntarget = 8\npayload = 64\n\n'
    for n in 16 24 32 40 48 56 64 72; do
        printf '[[role]]\nnode = %d\nkind = "bsg"\ntarget = 8\npayload = 4096\n\n' "$n"
    done
    printf '[[role]]\nnode = 8\nkind = "sink"\n'
} >"$K8"

echo "clos-smoke: k=8 end-to-end" >&2
"$CLI" scenario "$K8" --json | python3 -m json.tool >/dev/null
echo "  clos_k8: ran" >&2
echo "clos-smoke: ok" >&2
