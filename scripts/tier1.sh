#!/usr/bin/env bash
# Tier-1 gate: what CI and the roadmap treat as "the build is healthy".
#
#   scripts/tier1.sh          # release build + root tests + contract suites
#   scripts/tier1.sh --quick  # debug build + lib tests only
#
# Formatting is a hard gate: the tree is rustfmt-clean and stays that way
# (clippy runs as its own CI job, not here, to keep this script fast).
#
# Tier-2 (slow, not part of this gate): tests marked #[ignore] — currently
# the full-strength 5-dataset IPS-vs-BASE comparison (~60s debug). Run them
# explicitly with
#
#   cargo test -q --test pipeline_integration -- --ignored

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

if [[ "$QUICK" == 1 ]]; then
    echo "==> cargo build (debug)"
    cargo build --workspace
    echo "==> cargo test --lib"
    cargo test -q --workspace --lib
else
    echo "==> cargo build --release"
    cargo build --release
    echo "==> cargo test"
    cargo test -q
    echo "==> contract suites (engine equivalence, per-crate properties)"
    cargo test -q --release -p ips-core --test engine_equivalence --test props --test sampling_props
    cargo test -q --release -p ips-distance --test kernel_props --test props
    cargo test -q --release -p ips-profile --test props
    cargo test -q --release -p ips-tsdata --test props --test registry_props
    cargo test -q --release -p ips-classify -p ips-filter -p ips-lsh -p ips-stats --test props
    echo "==> chaos suite (fault injection + validation properties)"
    cargo test -q -p ips-core --test fault_injection --test validate_props
    echo "==> serving layer (persistence round-trip + server)"
    cargo test -q -p ips-serve
    echo "==> panic audit"
    bash scripts/panic_audit.sh
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "tier-1: OK"
