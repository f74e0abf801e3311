#!/usr/bin/env bash
# Mutation self-tests of the benchmark's answer checks. Each run injects one
# wrong answer or fault (--mutate) and must fail: exit non-zero with
# "correct": false on its last line. Run from the root of a checkout:
#
#   bash perfbench/selftest.sh
set -uo pipefail

mutations=(
  solve:solve-unconverged
  solve:solve-reference
  settle:settle-receipt
  settle:settle-payoff
  settle:settle-budget
  settle:settle-verify
  recover:recover-truncate
  recover:recover-root
)

status=0
for m in "${mutations[@]}"; do
  workload=${m%%:*}
  name=${m#*:}
  out=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 --mutate "$name" 2>/dev/null)
  code=$?
  last=$(printf '%s\n' "$out" | tail -n 1)
  if [[ $code -ne 0 && $last == *'"correct":false'* ]]; then
    echo "ok    $name: run failed (exit $code)"
  else
    echo "FAIL  $name: run did not fail (exit $code): $last"
    status=1
  fi
done
exit $status
