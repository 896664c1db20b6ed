#!/usr/bin/env bash
# go test "$@", failing also when the -run pattern matched nothing in one
# of the named packages. A renamed test otherwise turns the CI step that
# selects it by pattern into a vacuous pass: go test exits 0 and prints
# "testing: warning: no tests to run" (one package) or "[no tests to run]"
# (several). Name only packages the pattern is meant to match in.
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test "$@" 2>&1 | tee "$log"
if grep -q 'no tests to run' "$log"; then
  echo "go-test-strict: the -run pattern matched no test in a package named above" >&2
  exit 1
fi
