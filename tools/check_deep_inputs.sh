#!/usr/bin/env bash
# Deep-input regression: the d-DNNF compiler and the model counter search
# on a heap stack, so decision depth must never reach the C++ stack. Runs
# `kc_cli --target=ddnnf --wmc` (compile, circuit count and WMC, then the
# direct counter's WMC) under a 1 MiB stack on two inputs whose search is
# 3000 decisions deep:
#   - one 3000-literal clause     (2^3000 - 1 models)
#   - a 3000-variable chain x_i -> x_{i+1}   (3001 models)
# and expects exit 0 with the exact `c models:` line for each.
#
# Usage: tools/check_deep_inputs.sh [kc_cli_binary]   (default: build/examples/kc_cli)

set -uo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
KC="${1:-$ROOT/build/examples/kc_cli}"
N=3000

if [[ ! -x "$KC" ]]; then
  echo "check_deep_inputs: $KC not found (build first)" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

{
  echo "p cnf $N 1"
  seq -s ' ' 1 "$N" | tr -d '\n'
  echo " 0"
} > "$TMP/clause.cnf"
{
  echo "p cnf $N $((N - 1))"
  for ((i = 1; i < N; ++i)); do echo "-$i $((i + 1)) 0"; done
} > "$TMP/chain.cnf"

CLAUSE_MODELS="$(python3 -c "print(2**$N - 1)")"

check() {
  local label="$1" cnf="$2" expected="$3"
  local out rc
  out="$(ulimit -s 1024 && "$KC" "$cnf" --target=ddnnf --wmc 2>&1)"
  rc=$?
  local models
  models="$(grep '^c models: ' <<< "$out" | head -n 1 | cut -d' ' -f3)"
  if [[ "$rc" != 0 ]]; then
    echo "check_deep_inputs: FAIL $label: exit $rc under a 1 MiB stack" >&2
    FAILED=1
  elif [[ "$models" != "$expected" ]]; then
    echo "check_deep_inputs: FAIL $label: wrong model count" >&2
    FAILED=1
  else
    echo "check_deep_inputs: ok   $label"
  fi
}

check "clause of $N literals" "$TMP/clause.cnf" "$CLAUSE_MODELS"
check "chain of $N variables" "$TMP/chain.cnf" "$((N + 1))"
exit "$FAILED"
