#!/usr/bin/env bash
# The byte-equality run (examples/equality_run.rs) on <rev> and on the
# working tree: every file the run writes and everything it prints must
# be byte-identical. The working tree's example drives both sides, so a
# revision older than the example can be compared too. <rev> is checked
# out in a temporary `git worktree`, removed afterwards.
# Usage: scripts/equality_run.sh <rev> [out-dir]
set -euo pipefail
rev=${1:?usage: scripts/equality_run.sh <rev> [out-dir]}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${2:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)
tree="$out/worktree"

git -C "$root" worktree add --quiet --detach "$tree" "$rev"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT
cp "$root/examples/equality_run.rs" "$tree/examples/equality_run.rs"

run() { # <checkout> <side>
    rm -rf "$out/$2"
    (cd "$1" && cargo run --release --quiet --example equality_run -- "$out/$2") >"$out/$2.out"
}
run "$tree" base
run "$root" change

cmp "$out/base.out" "$out/change.out"
files=$(cd "$out/base" && find . -type f | sort)
[ "$files" = "$(cd "$out/change" && find . -type f | sort)" ] || {
    echo "the two runs wrote different file sets" >&2
    exit 1
}
for f in $files; do
    cmp "$out/base/$f" "$out/change/$f"
done
echo "equality run: output and $(echo "$files" | wc -l) files byte-equal ($rev vs working tree, in $out)"
