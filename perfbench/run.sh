#!/usr/bin/env bash
# Build the locator CLI (the replica daemons) and the benchmark driver from
# source, then run one benchmark measurement.  Run from the repository root:
#
#   bash perfbench/run.sh --workload epoch --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the result object; build chatter and
# progress go to standard error.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/eppi_cli.ml ]; then
  echo "perfbench: run from the root of an e-PPI checkout (lib/, bin/ not found)" >&2
  exit 2
fi
# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . --display quiet ./bin/eppi_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --eppi ./_build/default/bin/eppi_cli.exe "$@"
