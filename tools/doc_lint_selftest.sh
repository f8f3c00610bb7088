#!/usr/bin/env bash
# Self-test of tools/doc_lint.sh. Builds a throwaway git tree whose four
# linted docs cite one good and one broken example of every citation kind
# (a BENCH_* artifact, a src/ stem, a build/tools/ binary, a {a,b} group
# and a perfbench/ file, plus an artifact that exists but git does not
# track), runs the lint on it, and requires exit 1 with exactly the broken
# citations reported. A pattern edit that made the lint match nothing
# would otherwise print "OK" forever.
#
#   tools/doc_lint_selftest.sh

set -euo pipefail

LINT="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/doc_lint.sh"
TREE="$(cd "$(mktemp -d)" && pwd -P)"
trap 'rm -rf "${TREE}"' EXIT
cd "${TREE}"

mkdir -p src/net tools perfbench/results .claude/skills/verify
touch BENCH_good.json BENCH_untracked.json src/net/server.cc src/net/client.h \
  tools/fkd_server.cc perfbench/results/seed.json

cat > README.md <<'EOF'
Artifacts:
good `BENCH_good.json`,
missing `BENCH_missing.json`,
untracked `BENCH_untracked.json`.
EOF
cat > DESIGN.md <<'EOF'
Stems: good `src/net/server`,
broken `src/net/missing`.
Binaries: good `./build/tools/fkd_server --port=0`,
broken `./build/tools/fkd_missing --port=0`.
EOF
cat > EXPERIMENTS.md <<'EOF'
Groups: good `src/net/{server,client}`,
broken `src/net/{client,gone}.h`.
EOF
cat > .claude/skills/verify/SKILL.md <<'EOF'
Results: good `perfbench/results/seed.json`,
broken `perfbench/results/missing.json`.
EOF

git init -q .
git add BENCH_good.json README.md DESIGN.md EXPERIMENTS.md \
  .claude/skills/verify/SKILL.md

expected="README.md:3: cites BENCH_missing.json, which is not in the source tree
README.md:4: cites BENCH_untracked.json, which git does not track
DESIGN.md:2: cites src/net/missing, which does not resolve to a source path
DESIGN.md:4: cites tools/fkd_missing, which does not resolve to a source path
EXPERIMENTS.md:2: cites src/net/gone.h, which does not resolve to a source path
.claude/skills/verify/SKILL.md:2: cites perfbench/results/missing.json, which does not resolve to a source path
doc lint: 6 broken citation(s)"

status=0
actual="$("${LINT}" "${TREE}" 2>&1)" || status=$?
if (( status != 1 )) || [[ "${actual}" != "${expected}" ]]; then
  echo "FAIL: doc_lint exited ${status} (expected 1); its report differs:"
  diff <(echo "${expected}") <(echo "${actual}") || true
  exit 1
fi
echo "doc lint selftest: OK"
