#!/usr/bin/env bash
# Writes the format-2 fixture TestFormatV2ChainReadable reads: a chain
# adopted from an index over the first two documents of lsmDocs
# (lsm_test.go) with one delta holding the third, counted under the
# chain invariants (τ = 1, σ = 5), whose CHAIN.json is format 2 and
# records no τ. Run it from the root of a checkout of a commit that
# still writes format-2 chains (48e8788 or earlier, after c51c531),
# then copy <out>/chain here:
#
#	bash mkv2.sh <out>
set -euo pipefail
out="$1"
go build -o "$out/ngrams" ./cmd/ngrams
docs=(
	"the quick brown fox jumps over the lazy dog. the quick brown fox returns."
	"a quick brown fox is not a lazy dog. the dog sleeps."
	"the quick brown fox jumps over the lazy dog again and again."
)
printf '%s\n' "${docs[@]:0:2}" | "$out/ngrams" -tau 1 -sigma 5 -top 0 -save "$out/chain" >/dev/null
printf '%s\n' "${docs[2]}" | "$out/ngrams" -append "$out/chain" 2>/dev/null
rm "$out/ngrams"
