#!/usr/bin/env bash
# The snapshot read must inline into the traversals that call it.
#
# stm.ReadTRO is written to cost less than the compiler's inlining budget
# (63 against 80 on go1.24), and stm_tree's throughput rests on it being
# inlined at every hop of RBTree.GetRO and HashMap.findRO: the next edit
# that pushes it past the budget would otherwise cost a fifth of that
# silently. The structures are generic, so the compiler reports on them
# where they are instantiated; internal/tkv (HashMap[string]) and
# internal/microbench (RBTree[int64]) are built along for that.
#
# Called by .github/workflows/ci.yml and named in
# .claude/skills/verify/SKILL.md; run it from anywhere in the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go build -gcflags=-m ./internal/stmds/ ./internal/tkv/ ./internal/microbench/ 2>&1)

fail=0
if ! grep -q 'can inline stm\.ReadTRO\[' <<<"$out"; then
	echo "inline gate: the compiler does not report 'can inline stm.ReadTRO'" >&2
	fail=1
fi

# inlined_in FILE METHOD: some call to stm.ReadTRO between METHOD's func line
# and its closing brace is reported as inlined.
inlined_in() {
	local file=$1 method=$2 lo hi
	read -r lo hi < <(awk -v m="$method" \
		'!s && $0 ~ "^func \\([^)]*\\) " m "\\(" { s = NR } s && /^}/ { print s, NR; exit }' "$file")
	if [ -z "${lo:-}" ]; then
		echo "inline gate: no method $method in $file" >&2
		return 1
	fi
	# (A cached build replays the compiler's output with the paths of the
	# directory it first ran in, hence the optional prefix.)
	grep -E "^([^:]*/)?$file:[0-9]+:[0-9]+: inlining call to stm\.ReadTRO\[" <<<"$out" |
		awk -F: -v lo="$lo" -v hi="$hi" '$2 >= lo && $2 <= hi { n++ } END { exit !n }'
}

for site in internal/stmds/rbtree.go:GetRO internal/stmds/hashmap.go:findRO; do
	if ! inlined_in "${site%%:*}" "${site##*:}"; then
		echo "inline gate: no 'inlining call to stm.ReadTRO' inside ${site##*:} (${site%%:*})" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "inline gate: FAILED — see 'go build -gcflags=-m=2 ./internal/tkv/ 2>&1 | grep ReadTRO' for the cost" >&2
	exit 1
fi
echo "inline gate: stm.ReadTRO inlines into RBTree.GetRO and HashMap.findRO"
