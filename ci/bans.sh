#!/usr/bin/env bash
# Holds the "one path per layer" decisions that no compiler lint can:
# every ban in ci/bans.tsv and the named checks below, applied to the
# files git would commit, and then shown to fire. Run it from anywhere
# in the repository; it takes no options and needs no cargo:
#
#     ci/bans.sh
#
# A row of ci/bans.tsv is tab-separated:
#   scope    `anywhere`, or `above-tests`: a file's lines before its
#            first line that starts with `#[cfg(test)]`
#   pattern  an extended regular expression (grep -E; awk for above-tests)
#   paths    space-separated globs (`**` spans directories); a directory
#            stands for every file under it, and `!glob` drops the files
#            it matches (there `*` spans directories too)
#   witness  a line the pattern matches
#   reason   the decision the ban holds, in one line
#   max      optional: the matching lines allowed (default 0)
# A row fails on more matching lines than `max`, on a glob that names
# nothing, on paths that leave no file, and on an exit status of 2 or
# more from grep or awk. Then each row is applied to a copy of the tree
# with its witness planted at the top of the first file its paths name,
# and must fail there; each named check must fail on its own plant.
set -euo pipefail
shopt -s globstar dotglob
export LC_ALL=C

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The files git would commit, copied to $work/tree.
mkdir "$work/tree"
git -C "$repo" ls-files -z --cached --others --exclude-standard |
  (cd "$repo" && while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done) |
  tar -C "$repo" --null -T - -cf - | tar -C "$work/tree" -xf -

# Print the files that PATHS names in the current directory, one a line.
expand() {
  local entry f g drop
  local -a words keep=() drops=()
  read -ra words <<< "$1"
  for entry in "${words[@]}"; do
    case $entry in
      '!'*) drops+=("${entry#!}") ;;
      *) keep+=("$entry") ;;
    esac
  done
  for entry in "${keep[@]}"; do
    for f in $entry; do
      [ -e "$f" ] || { echo "$entry names nothing" >&2; return 1; }
      if [ -d "$f" ]; then
        for g in "$f"/**; do [ -f "$g" ] && echo "$g"; done
      else
        echo "$f"
      fi
    done
  done | awk '!seen[$0]++' | while IFS= read -r f; do
    for drop in "${drops[@]}"; do
      [[ $f == $drop ]] && continue 2
    done
    echo "$f"
  done
}

# Apply one row in the current directory: print what breaks it and
# return 1, or return 0.
ban() {
  local scope=$1 re=$2 paths=$3 max=${4:-0} list out status=0
  local -a files
  list=$(expand "$paths") || return 1
  [ -n "$list" ] || { echo "$paths leaves no file"; return 1; }
  mapfile -t files <<< "$list"
  case $scope in
    anywhere) out=$(grep -nHE -e "$re" -- "${files[@]}") || status=$? ;;
    above-tests)
      out=$(RE=$re awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && $0 ~ ENVIRON["RE"] {print FILENAME":"FNR": "$0}' "${files[@]}") || status=$?
      ;;
    *) echo "unknown scope $scope"; return 1 ;;
  esac
  if [ "$status" -ge 2 ] || [ "$(grep -c . <<< "$out")" -gt "$max" ]; then
    printf '%s\n' "$out"
    echo "status $status; at most $max matching lines allowed"
    return 1
  fi
}

# Named checks: each is a check, run in the tree, and a plant that must
# make it fail.
# The engine is held to a naive simulator written apart, in test code.
check_reference() { test -e crates/netsim/src/reference.rs; }
plant_reference() { rm crates/netsim/src/reference.rs; }
# A worker claims its unit from one shared cursor: no deque stand-in.
check_deque() { test ! -e support/deque; }
plant_deque() { mkdir support/deque; }
# Clippy is the one determinism gate: the hand-rolled pt-lint is gone.
check_lint() { test ! -e crates/lint; }
plant_lint() { mkdir crates/lint; }
# One harness: ptbench prints its records, and none is kept at the root.
check_bench_record() { ! compgen -G 'BENCH_pr*.json' > /dev/null; }
plant_bench_record() { touch BENCH_pr1.json; }
# docs/PERFORMANCE.md describes the tree as it is, so nothing cites it
# beside a PR number; lines are read in pairs so a wrapped citation counts.
check_performance() {
  local list out
  local -a files
  list=$(expand 'crates src tests examples support docs README.md') || return 1
  mapfile -t files <<< "$list"
  out=$(awk 'FNR==1{prev=""} {two=prev" "$0} two~/PERFORMANCE\.md/ && two~/PR[- ]?[0-9]/{print FILENAME":"FNR": "$0} {prev=$0}' "${files[@]}")
  [ -z "$out" ] || { printf '%s\n' "$out"; return 1; }
}
plant_performance() { printf 'As docs/PERFORMANCE.md\nrecords for PR 7.\n' >> README.md; }
# One test binary per crate: each links its crate and every dependency
# again, so a crate's integration tests are modules of one binary, `it`:
# tests/it.rs or tests/it/main.rs, or the one file a `[[test]]` stanza
# with `name = "it"` in the crate's manifest names.
# Beside it stay the three harnesses that must run alone in a process:
# two install a counting #[global_allocator], one times the wall clock.
check_test_binaries() {
  local dir f stanza bad=0
  local -a bins
  for dir in . crates/*; do
    bins=()
    for f in "$dir"/tests/*.rs "$dir"/tests/*/main.rs; do
      [ -e "$f" ] || continue
      case ${f#./} in
        tests/alloc_steady_state.rs | crates/campaign/tests/alloc_checkpoint.rs) ;;
        crates/netsim/tests/degree_independence.rs) ;;
        *) bins+=("${f#"$dir"/}") ;;
      esac
    done
    stanza=$(printf '[[test]]\nname = "it"\npath = "%s"' "${bins[0]-}")
    case ${#bins[@]}:${bins[0]-} in
      0: | 1:tests/it.rs | 1:tests/it/main.rs) ;;
      1:*) [[ $(< "$dir/Cargo.toml") == *"$stanza"* ]] ||
        { echo "${dir#./}/${bins[0]}: name its binary \`it\` in its Cargo.toml"; bad=1; } ;;
      *) echo "${dir#./}/tests: ${bins[*]}: one test binary per crate, \`it\`"; bad=1 ;;
    esac
  done
  return $bad
}
plant_test_binaries() { touch crates/wire/tests/stray.rs; }
named=(reference deque lint bench_record performance test_binaries)

rows() { tail -n +2 "$repo/ci/bans.tsv"; }
failed=0
cd "$work/tree"
line=1
while IFS=$'\t' read -r scope re paths witness reason max; do
  line=$((line + 1))
  ban "$scope" "$re" "$paths" "$max" || { echo "ci/bans.tsv line $line fails: $reason"; failed=1; }
done < <(rows)
for name in "${named[@]}"; do
  "check_$name" || { echo "named check $name fails"; failed=1; }
done
[ "$failed" = 0 ] || exit 1

# Every row and named check fires on its plant, each in a fresh copy.
fresh_copy() {
  rm -rf "$work/plant"
  cp -a "$work/tree" "$work/plant"
  cd "$work/plant"
}
line=1
while IFS=$'\t' read -r scope re paths witness reason max; do
  line=$((line + 1))
  fresh_copy
  first=$(expand "$paths")
  first=${first%%$'\n'*}
  { printf '%s\n' "$witness"; cat "$first"; } > "$work/planted"
  mv "$work/planted" "$first"
  if ban "$scope" "$re" "$paths" "$max" > /dev/null; then
    echo "ci/bans.tsv line $line does not fire on its witness in $first"
    failed=1
  fi
done < <(rows)
for name in "${named[@]}"; do
  fresh_copy
  "plant_$name"
  if "check_$name" > /dev/null; then
    echo "named check $name does not fire on its plant"
    failed=1
  fi
done
# A glob that names nothing, and paths that leave no file, fail a row.
if ban anywhere x 'crates/netsim/src/no_such_file.rs' 2> /dev/null ||
  ban anywhere x 'crates/*/src !crates/*' > /dev/null; then
  echo "a row passes over paths that name no file"
  failed=1
fi
[ "$failed" = 0 ] || exit 1
echo "ci/bans.sh: $((line - 1)) bans and ${#named[@]} named checks hold, and each fires"
