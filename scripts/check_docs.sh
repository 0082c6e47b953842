#!/usr/bin/env bash
# check_docs.sh — fail when the docs drift from the code.
#
# The engine registry is the source of truth for which algorithms are
# servable; docs/ENGINES.md and the README engine matrix must list every
# registered name, and docs/ARCHITECTURE.md must keep naming the layers it
# maps. The checks themselves are Go tests (docs_test.go at the module root)
# so they read the registry directly instead of a hand-maintained list.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -run 'TestEnginesDocCoversRegistry|TestReadmeCoversSelectableEngines|TestArchitectureDocExists|TestDocsCoverCacheFlags|TestDocsCoverUpdatePlane|TestServiceDocCoversRoutes|TestDocsCoverSelfTuning|TestDocsCoverDimensionModel' .
