#!/usr/bin/env bash
# Builds the benchmark suite from source and runs it with the given
# arguments, e.g.
#
#   bash perfsuite/run.sh --workload learn --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build output goes to stderr, so the
# suite's last stdout line stays its JSON result. Everything the build and
# the run write stays inside the checkout: dune's shared cache is off and
# compiler temporaries go to .bench_build/tmp.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfsuite/dune ]; then
  echo "perfsuite/run.sh: run from the root of a TENSOR checkout (dune-project, lib/ and perfsuite/ not found)" >&2
  exit 2
fi

mkdir -p .bench_build/tmp
export TMPDIR="$PWD/.bench_build/tmp" DUNE_CACHE=disabled
dune build --root . ./perfsuite/suite.exe 1>&2
exec ./_build/default/perfsuite/suite.exe "$@"
