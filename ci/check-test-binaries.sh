#!/bin/sh
# Fails when a `cargo test` log shows fewer test binaries than the floor
# pinned in ci/test-binaries.floor, so a suite that silently stops
# running (a dropped workspace member, a renamed or deleted target)
# fails the push instead of shrinking the gate.
#
# Usage: ci/check-test-binaries.sh <log of `cargo test` without -q>
# Cargo prints one `Running <target>` line per test binary; `-q` and
# colored output hide them, so run the tests without `-q` and with
# CARGO_TERM_COLOR=never.
set -eu
log=$1
floor=$(cat "$(dirname "$0")/test-binaries.floor")
ran=$(grep -cE '^[[:space:]]+Running ' "$log" || true)
echo "test binaries run: $ran (floor $floor)"
if [ "$ran" -lt "$floor" ]; then
    echo "error: $ran test binaries ran, fewer than the pinned floor of $floor" >&2
    exit 1
fi
