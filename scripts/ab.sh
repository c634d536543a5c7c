#!/usr/bin/env bash
# In-process A/B of the engine crates against a revision.
#
#   scripts/ab.sh [REV] [PAIRS]
#
# REV defaults to HEAD on a dirty tree and to HEAD~1 on a clean one, so
# the working tree is timed against the commit it changes. PAIRS defaults
# to 150.
#
# REV's fixed, hdl, envs, core, telemetry and accel crates are exported
# twice under target/ab/ with `git archive`: the parent, and an
# identical control. Each copy's packages are renamed
# qtaccel-<crate>-parent or qtaccel-<crate>-control. The working tree's
# crates are copied there as they are ("change"). Each set gets a
# generated workspace whose [workspace.dependencies] name its own
# packages, so every source builds unedited, and point proptest at
# vendor/proptest, so everything resolves offline. (The copies of the
# working tree keep each set off the repository's workspace: Cargo
# reuses a workspace root it has already loaded for any package below
# it.) The probe in scripts/ab/, its own workspace, links the three sets
# into one binary, built with function and block alignment so code
# placement does not bias a pair. For each shape it prints the median
# and quartiles of the per-pair time ratios change/parent and
# control/parent, and it exits 1 if any side's final Q tables, forwards
# or cycles differ.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
  rev=$1
elif [ -n "$(git status --porcelain)" ]; then
  rev=HEAD
else
  rev=HEAD~1
fi
pairs=${2:-150}
commit=$(git rev-parse --verify "$rev^{commit}")
crates="fixed hdl envs core telemetry accel"

for side in change parent control; do
  dir=target/ab/$side
  rm -rf "$dir"
  mkdir -p "$dir/crates"
  if [ "$side" = change ]; then
    suffix=
    root=$(cat Cargo.toml)
    for c in $crates; do
      cp -a "crates/$c" "$dir/crates/"
    done
  else
    suffix=-$side
    root=$(git show "$commit:Cargo.toml")
    # Extracted with fresh mtimes (-m): git archive stamps every file with
    # REV's commit time, which Cargo would take as older than the last
    # build's output, and it would link a previous REV's copy.
    # shellcheck disable=SC2046 # one path per crate
    git archive "$commit" $(printf 'crates/%s ' $crates) | tar -xm -C "$dir"
    for c in $crates; do
      sed -i "s/^name = \"qtaccel-$c\"\$/name = \"qtaccel-$c$suffix\"/" "$dir/crates/$c/Cargo.toml"
    done
  fi
  {
    echo '[workspace]'
    echo 'members = ["crates/*"]'
    echo 'resolver = "2"'
    echo
    # The source's [workspace.package] and [workspace.lints.*] tables.
    echo "$root" |
      awk '/^\[/ { keep = ($0 == "[workspace.package]" || $0 ~ /^\[workspace\.lints\./) } keep'
    echo
    echo '[workspace.dependencies]'
    for c in $crates; do
      echo "qtaccel-$c = { path = \"crates/$c\", package = \"qtaccel-$c$suffix\" }"
    done
    echo 'proptest = { path = "../../../vendor/proptest" }'
  } >"$dir/Cargo.toml"
done

echo "ab: change = working tree, parent = control = $rev ($(git rev-parse --short "$commit")), $pairs pairs"
RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5" \
  cargo build -q --release --offline --manifest-path scripts/ab/Cargo.toml --target-dir target/ab/build
target/ab/build/release/qtaccel-ab "$pairs"
