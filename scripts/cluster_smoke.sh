#!/usr/bin/env bash
# Multi-process cluster smoke test (CI): a coordinator plus two rank
# worker processes on loopback run a distributed match over the Berlin
# graph (N=300) and report per-rank metrics. Exercises the real
# process/socket path end to end: admission, state sync, job dispatch,
# BSP fixpoint over the GBSP wire, result merge, clean shutdown.
#
#   scripts/cluster_smoke.sh [path/to/graql_shell]
set -euo pipefail

cd "$(dirname "$0")/.."

shell="${1:-build/examples/graql_shell}"
port="${CLUSTER_PORT:-7699}"
work="$(mktemp -d)"
cleanup() {
  kill "$r0" "$r1" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

# Start order does not matter: rank workers retry the connect while the
# coordinator is still coming up.
"$shell" --cluster-rank 0 --connect "127.0.0.1:$port" \
  --data-dir "$work/r0" >"$work/r0.log" 2>&1 &
r0=$!
"$shell" --cluster-rank 1 --connect "127.0.0.1:$port" \
  --data-dir "$work/r1" >"$work/r1.log" 2>&1 &
r1=$!

out="$("$shell" --berlin 300 --cluster-coordinator 2 \
  --cluster-port "$port" <<'EOF'
select * from graph OfferVtx() --product--> ProductVtx() into table res1;
\stats cluster.
EOF
)"

# Coordinator shutdown releases the ranks; both must exit cleanly.
wait "$r0"
wait "$r1"

echo "$out"
# The distributed match produced the (deterministic) result table and the
# stats verb saw both ranks do BSP work.
grep -q "res1" <<<"$out"
grep -q "cluster.num_ranks 2$" <<<"$out"
grep -q "^cluster.jobs 1$" <<<"$out"
grep -q "^cluster.rank.1.messages " <<<"$out"
echo "cluster smoke OK"
