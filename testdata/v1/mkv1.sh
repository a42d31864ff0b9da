#!/usr/bin/env bash
# Writes the format-1 fixtures TestFormatV1Readable reads: a plain index
# over the five documents of lsmDocs (lsm_test.go), and a chain adopted
# from an index over the first two with one delta holding the third, all
# counted under the chain invariants (τ = 1, σ = 5). Run it from the root
# of a checkout of a commit that still writes format 1 (c51c531 or
# earlier), then copy <out>/plain and <out>/chain here:
#
#	bash mkv1.sh <out>
set -euo pipefail
out="$1"
go build -o "$out/ngrams" ./cmd/ngrams
docs=(
	"the quick brown fox jumps over the lazy dog. the quick brown fox returns."
	"a quick brown fox is not a lazy dog. the dog sleeps."
	"the quick brown fox jumps over the lazy dog again and again."
	"lazy dogs sleep. quick foxes jump. the quick brown fox jumps."
	"to be or not to be. to be or not to be. that is the question."
)
printf '%s\n' "${docs[@]}" | "$out/ngrams" -tau 1 -sigma 5 -top 0 -save "$out/plain" >/dev/null
printf '%s\n' "${docs[@]:0:2}" | "$out/ngrams" -tau 1 -sigma 5 -top 0 -save "$out/chain" >/dev/null
printf '%s\n' "${docs[2]}" | "$out/ngrams" -append "$out/chain" 2>/dev/null
rm "$out/ngrams"
