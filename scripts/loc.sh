#!/bin/sh
# Go line counts for the simplicity rule (ROADMAP.md): over the non-test
# Go files outside benchmark/ and testdata/, the total lines, the
# non-blank non-comment lines, and the product
# `//spatiallint:ignore <rule>` directives outside internal/analysis.
# With file arguments it prints the same two line counts per file
# instead (a missing file counts 0).
#
#   scripts/loc.sh                 # whole-repo counts
#   scripts/loc.sh a.go b/c.go     # per-file counts
set -eu

cd "$(dirname "$0")/.."

# count FILE... prints "<lines> <code>": code lines are neither blank
# nor a // comment line.
count() {
	awk '
		{ lines++ }
		/^[ \t]*$/ { next }
		/^[ \t]*\/\// { next }
		{ code++ }
		END { printf "%d %d\n", lines, code }
	' "$@" </dev/null
}

if [ $# -gt 0 ]; then
	printf '%-44s %7s %7s\n' file lines code
	for f in "$@"; do
		if [ -f "$f" ]; then
			count "$f" | { read -r lines code; printf '%-44s %7d %7d\n' "$f" "$lines" "$code"; }
		else
			printf '%-44s %7d %7d\n' "$f" 0 0
		fi
	done
	exit 0
fi

files="$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | sort)"
# shellcheck disable=SC2086
count $files | { read -r lines code
	echo "go lines (non-test, outside benchmark/ and testdata/): $lines"
	echo "non-blank non-comment lines:                           $code"
}
# The analyzer suite's own sources are not product code.
ignores="$(printf '%s\n' $files | grep -v '^\./internal/analysis/' | xargs grep -h '//spatiallint:ignore ' /dev/null | grep -c . || true)"
echo "product spatiallint:ignore directives:                 $ignores"
