#!/usr/bin/env bash
# Doc lint: every BENCH_* / bench_output* artifact that README.md,
# DESIGN.md or EXPERIMENTS.md cites must exist in the source tree and,
# inside a git checkout, be tracked by git. An ignored or never-added file
# exists only on the machine that produced it, so the citation would point
# nowhere in every clone.
#
#   tools/doc_lint.sh [source-dir]   (default: the repo root)

set -euo pipefail

ROOT="$(cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}" && pwd)"
cd "${ROOT}"

check_tracked=false
if top="$(git rev-parse --show-toplevel 2>/dev/null)" &&
   [[ "$(cd "${top}" && pwd)" == "${ROOT}" ]]; then
  check_tracked=true
fi

failures=0
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  while IFS=: read -r line artifact; do
    if [[ ! -f "${artifact}" ]]; then
      echo "${doc}:${line}: cites ${artifact}, which is not in the source tree"
      failures=$((failures + 1))
    elif ${check_tracked} &&
         ! git ls-files --error-unmatch -- "${artifact}" >/dev/null 2>&1; then
      echo "${doc}:${line}: cites ${artifact}, which git does not track"
      failures=$((failures + 1))
    fi
  done < <(grep -noE \
      '\b([A-Za-z0-9_-]+/)*(BENCH_[A-Za-z0-9_]+|bench_output[A-Za-z0-9_]*)\.[A-Za-z0-9]+' \
      "${doc}" || true)
done

if (( failures > 0 )); then
  echo "doc lint: ${failures} citation(s) of missing artifacts"
  exit 1
fi
echo "doc lint: OK"
