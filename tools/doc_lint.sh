#!/usr/bin/env bash
# Doc lint over README.md, DESIGN.md, EXPERIMENTS.md and the verify skill
# (.claude/skills/verify/SKILL.md):
#
#  - every BENCH_* / bench_output* artifact they cite must exist in the
#    source tree and, inside a git checkout, be tracked by git. An ignored
#    or never-added file exists only on the machine that produced it, so
#    the citation would point nowhere in every clone;
#  - every src/, tools/, tests/, bench/, examples/ or perfbench/ path they
#    cite must resolve: to a file or directory, to a stem with a
#    .h/.cc/.cpp/.sh file (the docs name modules and binaries by stem), or,
#    for a * glob, to at least one file. A path behind build/ names a
#    binary, which resolves through its source. One {a,b} group is
#    expanded and each member checked.
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

DOCS=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
failures=0

for doc in "${DOCS[@]}"; do
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

# True when one cited source path (no braces) resolves.
resolves() {
  local path="$1" ext
  if [[ "${path}" == *'*'* ]]; then
    compgen -G "${path}" >/dev/null
    return
  fi
  [[ -e "${path}" ]] && return 0
  for ext in h cc cpp sh; do
    [[ -f "${path}.${ext}" ]] && return 0
  done
  return 1
}

for doc in "${DOCS[@]}"; do
  while IFS=: read -r line cited; do
    # Drop the character before the path, a ./ and a build tree prefix,
    # then sentence punctuation after it.
    path="${cited}"
    [[ "${path}" =~ ^[^A-Za-z0-9_./-](.*)$ ]] && path="${BASH_REMATCH[1]}"
    path="${path#./}"
    [[ "${path}" =~ ^build[A-Za-z0-9_-]*/(.*)$ ]] && path="${BASH_REMATCH[1]}"
    path="${path%%[.,:]}"
    members=("${path}")
    if [[ "${path}" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
      IFS=, read -ra alternatives <<< "${BASH_REMATCH[2]}"
      members=()
      for alternative in "${alternatives[@]}"; do
        members+=("${BASH_REMATCH[1]}${alternative}${BASH_REMATCH[3]}")
      done
    fi
    for member in "${members[@]}"; do
      if ! resolves "${member}"; then
        echo "${doc}:${line}: cites ${member}, which does not resolve to a source path"
        failures=$((failures + 1))
      fi
    done
  done < <(grep -noE \
      '(^|[^A-Za-z0-9_./-])(\./)?(build[A-Za-z0-9_-]*/)?(src|tools|tests|bench|examples|perfbench)/[A-Za-z0-9_./*{},+-]*' \
      "${doc}" || true)
done

if (( failures > 0 )); then
  echo "doc lint: ${failures} broken citation(s)"
  exit 1
fi
echo "doc lint: OK"
